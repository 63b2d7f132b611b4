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
from typing import Callable, Iterable

from .topology import FailureSet, Flow, Topology

MODE_SUFFIX = "suffix"
MODE_GREEDY = "greedy"

INJECT = None  # virtual injection inport of a freshly emitted packet
_INJECT_JSON = ""  # JSON key standing in for the injection inport


class Outcome(str, Enum):
    DELIVERED = "delivered"
    DROPPED = "dropped"
    LOOP = "loop"


@dataclass(frozen=True, slots=True)
class Hop:
    node: str
    inport: str | None
    outport: str
    index: int | None = field(default=None, compare=False)  # from ``select``


@dataclass(frozen=True, slots=True, init=False)
class Trace:
    """The walk a probe packet took, plus its terminal outcome.

    A trace stores its walk as ``nodes``, the nodes in visiting order, and
    ``indices``, the ``select`` priority index of each hop. Hop i left
    ``nodes[i]`` for ``nodes[i + 1]``; it entered from ``nodes[i - 1]``, or
    from the injection inport when i = 0, so ``final_node`` is
    ``nodes[-1]``. ``hops`` builds the ``Hop`` objects on each read.

    ``Trace(flow_id, hops, outcome, final_node, loop_inport)`` takes the
    hops of a walk. It rejects, naming the hop, a hop that does not leave
    the node the previous hop entered or whose inport is not the previous
    hop's node (the injection inport for the first hop), and a
    ``final_node`` that is not the last hop's outport. Equality and hash
    ignore ``indices``, as ``Hop``'s ignore ``index``.
    """

    flow_id: str
    nodes: tuple[str, ...]
    outcome: Outcome
    loop_inport: str | None
    indices: tuple[int | None, ...] = field(compare=False, repr=False)

    def __init__(self, flow_id: str, hops: Iterable[Hop], outcome: Outcome,
                 final_node: str, loop_inport: str | None = None):
        hops = tuple(hops)
        nodes = [hop.node for hop in hops[:1]] + [hop.outport for hop in hops] or [final_node]
        for i, hop in enumerate(hops):
            step = Hop(nodes[i], nodes[i - 1] if i else INJECT, nodes[i + 1])
            if hop != step:  # ignores the index
                raise ValueError(f"hop {i} is {hop!r}, not the walk's next step {step!r}")
        if final_node != nodes[-1]:
            raise ValueError(f"final_node {final_node!r} is not {nodes[-1]!r}, "
                             f"the outport of hop {len(hops) - 1}")
        self._store(flow_id, nodes, [hop.index for hop in hops], outcome, loop_inport)

    @classmethod
    def _walk(cls, flow_id: str, nodes: list[str], indices: list[int | None],
              outcome: Outcome, loop_inport: str | None = None) -> "Trace":
        """The trace of a walk ``route`` took; nothing is checked."""
        trace = object.__new__(cls)
        trace._store(flow_id, nodes, indices, outcome, loop_inport)
        return trace

    def _store(self, flow_id, nodes, indices, outcome, loop_inport) -> None:
        store = object.__setattr__  # the fields are frozen
        store(self, "flow_id", flow_id)
        store(self, "nodes", tuple(nodes))
        store(self, "outcome", outcome)
        store(self, "loop_inport", loop_inport)
        store(self, "indices", tuple(indices))

    @property
    def hops(self) -> tuple[Hop, ...]:
        nodes = self.nodes
        return tuple(Hop(nodes[i], nodes[i - 1] if i else INJECT, nodes[i + 1], index)
                     for i, index in enumerate(self.indices))

    @property
    def final_node(self) -> str:
        return self.nodes[-1]

    @property
    def hop_count(self) -> int:
        return len(self.nodes) - 1

    def node_path(self) -> tuple[str, ...]:
        return self.nodes

    def path_string(self) -> str:
        return "-".join(self.nodes)

    def directed_edges(self) -> list[tuple[str, str]]:
        return list(zip(self.nodes, self.nodes[1:]))

    def is_simple(self) -> bool:
        return len(self.nodes) == len(set(self.nodes))

    def to_json_dict(self) -> dict:
        nodes = self.nodes
        return {
            "flow": self.flow_id,
            "outcome": self.outcome.value,
            "final_node": nodes[-1],
            "loop_inport": self.loop_inport,
            "node_path": self.path_string(),
            "hops": [[nodes[i], nodes[i - 1] if i else _INJECT_JSON, nodes[i + 1]]
                     for i in range(len(nodes) - 1)],
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
    nodes: list[str] = [v]
    indices: list[int | None] = []
    seen: set[tuple[str, str | None]] = set()
    cap = topology.m + 1
    while v != flow.destination:
        key = (v, inport)
        if key in seen:
            return Trace._walk(flow.flow_id, nodes, indices, Outcome.LOOP, inport)
        seen.add(key)
        if v not in state.tables:
            raise ValueError(f"node {v!r} has no forwarding rules for {flow.flow_id!r}")
        sel = state.select(v, inport, failures.link_down)
        if sel is None:
            return Trace._walk(flow.flow_id, nodes, indices, Outcome.DROPPED)
        out, idx = sel
        nodes.append(out)
        indices.append(idx)
        if len(indices) > cap:
            raise RuntimeError("hop cap exceeded; forwarding state is inconsistent")
        v, inport = out, v
    return Trace._walk(flow.flow_id, nodes, indices, Outcome.DELIVERED)


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
