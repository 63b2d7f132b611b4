"""Loop shortcutting: observe which outports a flow uses, truncate suffixes.

Each node watches its own traffic. When a flow leaves a node through an
outport that is not the effective top of some inport's suffix, that inport
deletes every higher-priority entry, making the observed outport its new top
choice. Outports whose link is down count as already removed, so a rule
whose top entry merely failed over is not rewritten. The whole mechanism is
local: a node's update depends only on the hops that touched it.

Iterating route -> observe -> truncate reaches a fixpoint. Whatever failed,
a walk that never looped changes no rule, one that looped needs one round,
and the final route is a loop-free sub-path of the original reroute walk.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from .forwarding import INJECT, MODE_GREEDY, ForwardingState, Outcome, Trace, route
from .topology import FailureSet, Flow, Topology


@dataclass(slots=True)
class NodeObservation:
    """What one node saw of a trace: inports entered, deepest exit taken.

    The deepest exit is the largest priority index of the outports the
    packet left by. It is node-level knowledge; every inport the packet
    used compares its own suffix against it. Inports the packet never
    used keep their rules: they would adapt the moment they see traffic,
    and leaving them put is what keeps a loop-free failover from counting
    as a truncating round. It is None when every exit was a greedy return
    edge that is not in the node's distance-ordered list.
    """

    inports: set[str | None] = field(default_factory=set)
    deepest: int | None = None


Observations = dict[str, NodeObservation]


@dataclass(frozen=True, slots=True)
class RuleChange:
    """One audit record: an inport's suffix start moved."""

    node: str
    inport: str | None
    old_start: int | None = None
    new_start: int | None = None

    def to_json_dict(self) -> dict:
        # every change is a truncation and names no outport; the constant
        # keys keep the audit.jsonl line format
        return {
            "node": self.node,
            "inport": self.inport if self.inport is not None else "",
            "kind": "truncate",
            "old_start": self.old_start,
            "new_start": self.new_start,
            "outport": None,
        }


def revert_changes(state: ForwardingState, changes: list[RuleChange]) -> None:
    """Undo recorded rule changes, newest first, restoring the prior state.

    Exact because every truncation stores the start it overwrote.
    """
    for change in reversed(changes):
        state.tables[change.node].inport_start[change.inport] = change.old_start


def _observations(trace: Trace) -> Observations:
    """Per-node inports and exits of a trace routed on the current state."""
    obs: Observations = {}
    nodes = trace.nodes
    for i, index in enumerate(trace.indices):
        node_obs = obs.setdefault(nodes[i], NodeObservation())
        node_obs.inports.add(nodes[i - 1] if i else INJECT)
        if index is not None and (node_obs.deepest is None or index > node_obs.deepest):
            node_obs.deepest = index
    return obs


def _replay(
    state: ForwardingState, topology: Topology, failures: FailureSet, trace: Trace
) -> Trace:
    """Route the state again from the trace's first node; the trace must match."""
    if trace.flow_id != state.flow.flow_id:
        raise ValueError(f"trace flow {trace.flow_id!r} unknown to this state")
    replay = route(state, topology, failures, state.flow, start=trace.node_path()[0])
    if replay != trace:
        raise ValueError("trace does not replay against this state")
    return replay


def apply_truncation(
    state: ForwardingState, failures: FailureSet, observations: Observations
) -> list[RuleChange]:
    """Advance inport suffix starts to the lowest-priority observed outport.

    For every observed node and every inport the packet used there: if the
    node's deepest exit lies beyond the first *live* entry of the inport's
    current suffix, move the start there. For greedy state the inport's own
    link, the return edge, is not such an entry: ``select`` never takes it
    from the list, so skipping only it would be a rule change that moves no
    hop. The rule is the same for every scheme. Partition failover lays out
    each list path by path, every entry of P_i before any of P_{i+1}, so
    the first live entry is also the first live entry of the earliest path
    with one. An observed exit onto a later path thus truncates only when
    it lies beyond that entry; when it is that entry, the walk was a plain
    failover and the rule stays.
    """
    greedy = state.mode == MODE_GREEDY
    changes: list[RuleChange] = []
    for node in sorted(observations):
        table = state.tables[node]
        node_obs = observations[node]
        deepest = node_obs.deepest
        if deepest is None:
            continue
        for inport in sorted(
            node_obs.inports, key=lambda p: ("", "") if p is None else ("x", p)
        ):
            j = table.inport_start.get(inport)
            if j is None or deepest <= j:
                continue
            # move only past a live entry select could take: dead ones already
            # count as removed, and greedy never takes the return edge from the list
            back = inport if greedy else None
            skipped = table.priority[j - 1 : deepest - 1]
            if any(out != back and not failures.link_down(node, out) for out in skipped):
                table.inport_start[inport] = deepest
                changes.append(
                    RuleChange(node=node, inport=inport, old_start=j, new_start=deepest)
                )
    return changes


def observe_and_truncate(
    state: ForwardingState,
    topology: Topology,
    failures: FailureSet,
    trace: Trace,
) -> list[RuleChange]:
    """One round's truncations from one probe trace (mutates the state).

    The trace must replay on the state; the step then applies
    ``apply_truncation``, whose rule serves every scheme. Greedy needs
    nothing beside it. A packet bounced back v1 -> v2 -> v1 only when
    ``select`` at v2 took the return edge as its fallback, so no live list
    entry other than v1 was left at or after that inport's start. Within a
    fixpoint the failure set is fixed and starts only grow, so that fallback
    stays forced: every later walk through v2 from v1 bounces back the same
    way, with the same index, and no rule has to remember the bounce.
    """
    trace = _replay(state, topology, failures, trace)
    return apply_truncation(state, failures, _observations(trace))


# partition and greedy state take the same step
partition_shortcut = greedy_shortcut = observe_and_truncate


@dataclass(slots=True)
class FixpointResult:
    """All traces of a route/observe/truncate iteration, plus round count."""

    traces: list[Trace]
    rounds: int
    changes_per_round: list[list[RuleChange]] = field(default_factory=list)

    @property
    def initial_trace(self) -> Trace:
        return self.traces[0]

    @property
    def final_trace(self) -> Trace:
        return self.traces[-1]

    @property
    def delivered(self) -> bool:
        return self.final_trace.outcome is Outcome.DELIVERED

    def all_changes(self) -> list[RuleChange]:
        return [c for rnd in self.changes_per_round for c in rnd]


def shortcut_fixpoint(
    state: ForwardingState,
    topology: Topology,
    failures: FailureSet,
    flow: Flow,
) -> FixpointResult:
    """Alternate route and truncate until no rule changes (mutates state).

    A walk that never looped left each node once, by the first entry of its
    suffix that ``select`` could take, so it changes no rule and the result
    has 0 rounds. A walk that looped is expected to need exactly 1, whatever
    the failure set; sweeps check this for every case, nothing proves it.

    Each round is one walk: the step reads the priority indices that
    ``route`` recorded with the walk. A non-delivered trace at any round is
    surfaced as the final verdict, not raised. Suffix starts only ever grow,
    so the iteration terminates within the total number of priority entries.
    """
    bound = 1  # the real bound is at least 2; computed once a round exceeds 1
    traces = [route(state, topology, failures, flow)]
    result = FixpointResult(traces=traces, rounds=0)
    while traces[-1].outcome is Outcome.DELIVERED:
        changes = apply_truncation(state, failures, _observations(traces[-1]))
        if not changes:
            break
        result.rounds += 1
        result.changes_per_round.append(changes)
        if result.rounds > bound:
            bound = sum(len(t.priority) + 1 for t in state.tables.values()) + 1
            if result.rounds > bound:
                raise RuntimeError("shortcut iteration failed to reach a fixpoint")
        traces.append(route(state, topology, failures, flow))
    return result
