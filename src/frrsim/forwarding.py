"""Deterministic inport-aware forwarding: trace the walk a packet takes.

A node forwards per flow from an ordered priority list of outports. Each
inport maps to a start index into that list; forwarding takes the first
entry at or after the start whose link is up. Only failures incident to the
current node are ever consulted, so every decision is local.

Two lookup modes exist:
  * ``suffix``  -- the inport selects a contiguous tail of the priority list
                   (arborescence and partition failover compile to this);
  * ``greedy``  -- one global distance-ordered list per node; the outport
                   back through the packet's inport is demoted to last.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass, field
from enum import Enum
from typing import Callable

from .topology import FailureSet, Flow, Topology

MODE_SUFFIX = "suffix"
MODE_GREEDY = "greedy"

INJECT = None  # virtual injection inport of a freshly emitted packet
_INJECT_JSON = ""  # JSON key standing in for the injection inport


class Outcome(str, Enum):
    DELIVERED = "delivered"
    DROPPED = "dropped"
    LOOP = "loop"


@dataclass(frozen=True)
class Hop:
    node: str
    inport: str | None
    outport: str
    index: int | None = field(default=None, compare=False)  # from ``select``


@dataclass(frozen=True)
class Trace:
    """The walk a probe packet took, plus its terminal outcome."""

    flow_id: str
    hops: tuple[Hop, ...]
    outcome: Outcome
    final_node: str
    loop_inport: str | None = None

    @property
    def hop_count(self) -> int:
        return len(self.hops)

    def node_path(self) -> tuple[str, ...]:
        if not self.hops:
            return (self.final_node,)
        return (self.hops[0].node,) + tuple(h.outport for h in self.hops)

    def path_string(self) -> str:
        return "-".join(self.node_path())

    def directed_edges(self) -> list[tuple[str, str]]:
        return [(h.node, h.outport) for h in self.hops]

    def is_simple(self) -> bool:
        path = self.node_path()
        return len(path) == len(set(path))

    def to_json_dict(self) -> dict:
        return {
            "flow": self.flow_id,
            "outcome": self.outcome.value,
            "final_node": self.final_node,
            "loop_inport": self.loop_inport,
            "node_path": self.path_string(),
            "hops": [
                [h.node, h.inport if h.inport is not None else _INJECT_JSON, h.outport]
                for h in self.hops
            ],
        }


class PortTable:
    """Per (node, flow) forwarding rules."""

    __slots__ = ("priority", "inport_start")

    def __init__(self, priority: list[str], inport_start: dict[str | None, int]):
        self.priority = list(priority)
        self.inport_start = dict(inport_start)
        k = len(self.priority)
        for inport, j in self.inport_start.items():
            if not 1 <= j <= k + 1:
                raise ValueError(f"inport {inport!r} start {j} out of range 1..{k + 1}")

    def start(self, inport: str | None) -> int:
        return self.inport_start.get(inport, 1)

    def copy(self) -> "PortTable":
        """An independent copy; this table already passed ``__init__``'s checks."""
        table = object.__new__(PortTable)
        table.priority = list(self.priority)
        table.inport_start = dict(self.inport_start)
        return table

    def to_json_dict(self) -> dict:
        starts = {
            (_INJECT_JSON if k is None else k): v
            for k, v in self.inport_start.items()
        }
        return {
            "priority": list(self.priority),
            "inport_start": {k: starts[k] for k in sorted(starts)},
        }


class ForwardingState:
    """All per-node rules of one flow; the mutable object shortcutting edits.

    Mutation happens only between routing passes. Concurrent evaluations must
    work on independent copies (see ``copy``).
    """

    def __init__(self, flow: Flow, mode: str, tables: dict[str, PortTable]):
        if mode not in (MODE_SUFFIX, MODE_GREEDY):
            raise ValueError(f"unknown forwarding mode {mode!r}")
        self.flow = flow
        self.mode = mode
        self.tables = tables

    def copy(self) -> "ForwardingState":
        return ForwardingState(
            self.flow, self.mode, {n: t.copy() for n, t in self.tables.items()}
        )

    def select(
        self, node: str, inport: str | None, dead: Callable[[str, str], bool]
    ) -> tuple[str, int | None] | None:
        """First viable outport for a packet at ``node`` via ``inport``.

        Returns (outport, priority index) or None when the rule set offers no
        live outport. The index is None only for a greedy return edge that is
        not part of the node's distance-ordered list.
        """
        tab = self.tables[node]
        prio = tab.priority
        # greedy demotes the return edge to a fallback after the list, where
        # it is viable even when the distance-ordered list lacks it
        back = inport if self.mode == MODE_GREEDY else None
        for idx in range(tab.start(inport), len(prio) + 1):
            out = prio[idx - 1]
            if out != back and not dead(node, out):
                return out, idx
        if back is not None and not dead(node, back):
            return back, (prio.index(back) + 1 if back in prio else None)
        return None

    def to_json_dict(self) -> dict:
        return {
            "flow": self.flow.flow_id,
            "source": self.flow.source,
            "destination": self.flow.destination,
            "mode": self.mode,
            "tables": {n: self.tables[n].to_json_dict() for n in sorted(self.tables)},
        }


def route(
    state: ForwardingState,
    topology: Topology,
    failures: FailureSet,
    flow: Flow,
    start: str | None = None,
) -> Trace:
    """Walk a probe packet from ``start`` (default: the flow source).

    Stops on reaching the destination (Delivered), on an empty viable suffix
    (Dropped), or on the first repeated (node, inport) pair, which under
    deterministic forwarding proves an infinite loop. A hop cap of m+1 backs
    the loop detector up; with sane state it is unreachable.
    """
    if flow.flow_id != state.flow.flow_id or (flow.source, flow.destination) != (
        state.flow.source,
        state.flow.destination,
    ):
        raise ValueError(f"flow {flow.flow_id!r} unknown to this forwarding state")
    if start is None:
        start = flow.source
    if not topology.has_node(start):
        raise ValueError(f"start node {start!r} not in topology")
    if start in failures.failed_nodes:
        raise ValueError(f"start node {start!r} is failed")

    v: str = start
    inport: str | None = INJECT
    hops: list[Hop] = []
    seen: set[tuple[str, str | None]] = set()
    cap = topology.m + 1
    while v != flow.destination:
        key = (v, inport)
        if key in seen:
            return Trace(flow.flow_id, tuple(hops), Outcome.LOOP, v, loop_inport=inport)
        seen.add(key)
        if v not in state.tables:
            raise ValueError(f"node {v!r} has no forwarding rules for {flow.flow_id!r}")
        sel = state.select(v, inport, failures.link_down)
        if sel is None:
            return Trace(flow.flow_id, tuple(hops), Outcome.DROPPED, v)
        out, idx = sel
        hops.append(Hop(v, inport, out, idx))
        if len(hops) > cap:
            raise RuntimeError("hop cap exceeded; forwarding state is inconsistent")
        v, inport = out, v
    return Trace(flow.flow_id, tuple(hops), Outcome.DELIVERED, v)


@dataclass(frozen=True)
class TraceStats:
    hop_count: int
    visits_per_node: dict[str, int] = field(compare=False)
    looped_nodes: frozenset[str] = frozenset()
    directed_edges_used: frozenset[tuple[str, str]] = frozenset()


def trace_stats(trace: Trace) -> TraceStats:
    """Visit counts, looped nodes, and the set of directed edges used."""
    visits = Counter(trace.node_path())
    return TraceStats(
        hop_count=trace.hop_count,
        visits_per_node=dict(visits),
        looped_nodes=frozenset(n for n, c in visits.items() if c >= 2),
        directed_edges_used=frozenset(trace.directed_edges()),
    )
