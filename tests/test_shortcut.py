from __future__ import annotations

import random

import networkx as nx
import pytest
from hypothesis import HealthCheck, example, given, settings
from hypothesis import strategies as st

from frrsim import (
    FailureSet,
    Flow,
    ForwardingState,
    Hop,
    Outcome,
    PortTable,
    Topology,
    Trace,
    build_topology,
    compile_arborescence_frr,
    compile_greedy_frr,
    compile_partition_frr,
    decompose_arborescences,
    greedy_shortcut,
    observe_and_truncate,
    partition_shortcut,
    route,
    run_failure_sweep,
    shortcut_fixpoint,
    shortest_route,
)
from frrsim.analysis import enumerate_link_failures, enumerate_node_failures
from frrsim.forwarding import MODE_GREEDY, MODE_SUFFIX
from frrsim.frr import PartitionScheme
from frrsim.scenarios import FIGURE1_PATHS
from frrsim.shortcut import (
    NodeObservation,
    RuleChange,
    _observations,
    apply_truncation,
    revert_changes,
)
from frrsim.topology import bfs_distances

from test_analysis import NODE_SET_GRAPH, SCHEME_COMPILERS, all_pairs


@pytest.fixture
def figure1_state(figure1, figure1_flow):
    scheme = PartitionScheme(flow=figure1_flow, paths=FIGURE1_PATHS, relaxed=True)
    scheme.validate(figure1)
    return compile_partition_frr(figure1, scheme, figure1_flow)


class TestRevertChanges:
    def test_undoes_repeated_changes_newest_first(self, figure1_state):
        before = figure1_state.to_json_dict()
        table = figure1_state.tables["S1"]
        changes = []
        for new_start in (2, 3):
            changes.append(
                RuleChange("S1", "S", old_start=table.inport_start["S"], new_start=new_start)
            )
            table.inport_start["S"] = new_start
        revert_changes(figure1_state, changes)
        assert figure1_state.to_json_dict() == before

    def test_undoes_a_fixpoint_from_its_audit_log(
        self, figure1_state, figure1, figure1_flow, s2s4_failure
    ):
        before = figure1_state.to_json_dict()
        fp = shortcut_fixpoint(figure1_state, figure1, s2s4_failure, figure1_flow)
        assert fp.all_changes()
        revert_changes(figure1_state, fp.all_changes())
        assert figure1_state.to_json_dict() == before


class TestObserveAndTruncate:
    def test_figure1_inport_from_s_jumps_past_s2(
        self, figure1_state, figure1, figure1_flow, s2s4_failure
    ):
        trace = route(figure1_state, figure1, s2s4_failure, figure1_flow)
        changes = observe_and_truncate(figure1_state, figure1, s2s4_failure, trace)
        assert len(changes) >= 1
        table = figure1_state.tables["S1"]
        assert table.priority[table.inport_start["S"] - 1] == "S3"

    def test_failure_free_trace_changes_nothing(self, figure1_state, figure1, figure1_flow):
        no_fail = FailureSet.none()
        trace = route(figure1_state, figure1, no_fail, figure1_flow)
        assert observe_and_truncate(figure1_state, figure1, no_fail, trace) == []

    def test_failure_free_never_triggers_on_arborescences(self):
        t = Topology(["a", "b", "c", "d"], [("a", "b"), ("b", "c"), ("c", "d"), ("a", "d"), ("a", "c")])
        no_fail = FailureSet.none()
        for dst in t.nodes:
            arbs = decompose_arborescences(t, dst, 2)
            for src in t.nodes:
                if src == dst:
                    continue
                flow = Flow(src, dst)
                state = compile_arborescence_frr(t, arbs, flow)
                trace = route(state, t, no_fail, flow)
                assert observe_and_truncate(state, t, no_fail, trace) == []

    def test_twice_visited_node_adopts_the_later_outport(self):
        # crafted state: first inport's suffix covers both observed indices
        t = Topology(["v", "p", "q", "x", "y"], [("p", "v"), ("q", "v"), ("v", "x"), ("v", "y")])
        flow = Flow("p", "y")
        tables = {
            "v": PortTable(["x", "y"], {None: 1, "p": 1, "q": 2, "x": 1, "y": 1}),
            "p": PortTable(["v"], {None: 1, "v": 1}),
            "q": PortTable(["v"], {None: 1, "v": 1}),
            "x": PortTable([], {None: 1}),
            "y": PortTable([], {None: 1}),
        }
        state = ForwardingState(flow, MODE_SUFFIX, tables)
        # exits by x (index 1) and y (index 2): the deeper one counts
        obs = {"v": NodeObservation(inports={"p", "q"}, deepest=2)}
        changes = apply_truncation(state, FailureSet.none(), obs)
        assert state.tables["v"].inport_start["p"] == 2  # h1=1 < h2=2 -> adopt h2
        assert state.tables["v"].inport_start["q"] == 2  # unchanged (already there)
        assert len(changes) == 1

    @pytest.mark.parametrize("scheme", ["arborescence", "partition", "greedy"])
    def test_one_step_serves_every_scheme(
        self, figure1_state, figure1, figure1_flow, s2s4_failure, scheme
    ):
        if scheme == "arborescence":
            # figure1 packs one arborescence, whose walk S-S1-S2 drops: no round
            (arb,) = decompose_arborescences(figure1, "D", 1)
            state = compile_arborescence_frr(figure1, [arb], figure1_flow)
        elif scheme == "partition":
            state = figure1_state
        else:
            state = compile_greedy_frr(figure1, figure1_flow)
        fp = shortcut_fixpoint(state.copy(), figure1, s2s4_failure, figure1_flow)
        first_round = fp.changes_per_round[0] if fp.rounds else []
        assert fp.rounds == (scheme != "arborescence")
        trace = route(state, figure1, s2s4_failure, figure1_flow)
        assert observe_and_truncate(state, figure1, s2s4_failure, trace) == first_round

    def test_step_names_are_one_function(self):
        assert partition_shortcut is greedy_shortcut is observe_and_truncate

    def test_foreign_trace_is_rejected(self, figure1_state, figure1, figure1_flow, s2s4_failure):
        other_state = compile_greedy_frr(figure1, Flow("H", "D"))
        foreign = route(other_state, figure1, FailureSet.none(), Flow("H", "D"))
        with pytest.raises(ValueError, match="unknown"):
            observe_and_truncate(figure1_state, figure1, s2s4_failure, foreign)

    def test_trace_under_other_failures_does_not_replay(
        self, figure1_state, figure1, figure1_flow, s2s4_failure
    ):
        trace = route(figure1_state, figure1, s2s4_failure, figure1_flow)
        with pytest.raises(ValueError, match="does not replay"):
            observe_and_truncate(figure1_state, figure1, FailureSet.none(), trace)


class TestObservations:
    @pytest.mark.parametrize("index", [None, 99])
    def test_truncation_ignores_the_callers_indices(
        self, figure1_state, figure1, figure1_flow, s2s4_failure, index
    ):
        trace = route(figure1_state, figure1, s2s4_failure, figure1_flow)
        assert _observations(trace)["S1"].deepest == 2  # exits by S2 (1) and S3 (2)
        rebuilt = Trace(
            trace.flow_id,
            tuple(Hop(h.node, h.inport, h.outport, index) for h in trace.hops),
            trace.outcome,
            trace.final_node,
            trace.loop_inport,
        )
        expected = observe_and_truncate(figure1_state.copy(), figure1, s2s4_failure, trace)
        assert expected
        assert observe_and_truncate(figure1_state, figure1, s2s4_failure, rebuilt) == expected

    def test_trace_from_a_later_start_replays(
        self, figure1_state, figure1, figure1_flow, s2s4_failure
    ):
        trace = route(figure1_state, figure1, s2s4_failure, figure1_flow, start="S2")
        assert _observations(trace)["S2"].inports == {None}
        observe_and_truncate(figure1_state, figure1, s2s4_failure, trace)


class TestShortcutProperties:
    def test_locality_per_node_updates_match_full_trace(
        self, figure1_state, figure1, figure1_flow, s2s4_failure
    ):
        trace = route(figure1_state, figure1, s2s4_failure, figure1_flow)
        obs = _observations(trace)
        batch = figure1_state.copy()
        apply_truncation(batch, s2s4_failure, obs)
        for node in obs:
            solo = figure1_state.copy()
            apply_truncation(solo, s2s4_failure, {node: obs[node]})
            assert solo.tables[node].inport_start == batch.tables[node].inport_start

    def test_order_independence_of_single_truncations(
        self, figure1_state, figure1, figure1_flow, s2s4_failure
    ):
        trace = route(figure1_state, figure1, s2s4_failure, figure1_flow)
        obs = _observations(trace)
        batch = figure1_state.copy()
        apply_truncation(batch, s2s4_failure, obs)

        events = [
            (node, inport, index)
            for node, node_obs in obs.items()
            for inport in sorted(node_obs.inports, key=str)
            for index in sorted({hop.index for hop in trace.hops if hop.node == node})
        ]
        rng = random.Random(0)
        for _ in range(10):
            rng.shuffle(events)
            state = figure1_state.copy()
            # apply singleton observations repeatedly until stable
            for _ in range(len(events)):
                for node, inport, index in events:
                    singleton = {node: NodeObservation(inports={inport}, deepest=index)}
                    apply_truncation(state, s2s4_failure, singleton)
            for node in state.tables:
                assert state.tables[node].inport_start == batch.tables[node].inport_start

    def test_monotonicity_of_suffix_starts(self, figure1, figure1_flow, s2s4_failure):
        scheme = PartitionScheme(flow=figure1_flow, paths=FIGURE1_PATHS, relaxed=True)
        state = compile_partition_frr(figure1, scheme, figure1_flow)
        snapshots = [
            {(n, p): j for n, t in state.tables.items() for p, j in t.inport_start.items()}
        ]
        fp = shortcut_fixpoint(state, figure1, s2s4_failure, figure1_flow)
        snapshots.append(
            {(n, p): j for n, t in state.tables.items() for p, j in t.inport_start.items()}
        )
        assert fp.rounds <= sum(len(t.priority) + 1 for t in state.tables.values())
        for key, before in snapshots[0].items():
            assert snapshots[1][key] >= before

    def test_in_flight_packets_still_delivered(
        self, figure1, figure1_flow, s2s4_failure
    ):
        scheme = PartitionScheme(flow=figure1_flow, paths=FIGURE1_PATHS, relaxed=True)
        state = compile_partition_frr(figure1, scheme, figure1_flow)
        original = route(state, figure1, FailureSet.none(), figure1_flow).node_path()
        shortcut_fixpoint(state, figure1, s2s4_failure, figure1_flow)
        for u in original:
            if u in s2s4_failure.failed_nodes:
                continue
            replay = route(state, figure1, s2s4_failure, figure1_flow, start=u)
            assert replay.outcome is Outcome.DELIVERED

    def test_in_flight_safety_exhaustive_on_complete4(self):
        t = Topology(
            ["0", "1", "2", "3"],
            [("0", "1"), ("0", "2"), ("0", "3"), ("1", "2"), ("1", "3"), ("2", "3")],
        )
        for dst in t.nodes:
            arbs = decompose_arborescences(t, dst, 3)
            for src in t.nodes:
                if src == dst:
                    continue
                flow = Flow(src, dst)
                base = compile_arborescence_frr(t, arbs, flow)
                original = route(base, t, FailureSet.none(), flow).node_path()
                for failures in enumerate_link_failures(t):
                    state = base.copy()
                    fp = shortcut_fixpoint(state, t, failures, flow)
                    assert fp.delivered
                    for u in original:
                        assert (
                            route(state, t, failures, flow, start=u).outcome
                            is Outcome.DELIVERED
                        )


class TestFixpoint:
    def test_figure1_single_round(self, figure1_state, figure1, figure1_flow, s2s4_failure):
        fp = shortcut_fixpoint(figure1_state, figure1, s2s4_failure, figure1_flow)
        assert fp.rounds == 1
        assert fp.initial_trace.path_string() == "S-S1-S2-S1-S3-S4-D"
        assert fp.final_trace.path_string() == "S-S1-S3-S4-D"

    def test_no_failure_zero_rounds(self, figure1_state, figure1, figure1_flow):
        fp = shortcut_fixpoint(figure1_state, figure1, FailureSet.none(), figure1_flow)
        assert fp.rounds == 0
        assert len(fp.traces) == 1

    def test_frr_drop_is_surfaced_not_raised(self):
        t = Topology(["a", "b"], [("a", "b")])
        flow = Flow("a", "b")
        (arb,) = decompose_arborescences(t, "b", 1)
        state = compile_arborescence_frr(t, [arb], flow)
        fp = shortcut_fixpoint(state, t, FailureSet.of(links=[("a", "b")]), flow)
        assert fp.final_trace.outcome is Outcome.DROPPED
        assert fp.rounds == 0

    def test_torus_fixpoint_is_simple_subpath(self):
        t_desc = "torus(3,3)"
        from frrsim import build_topology

        t = build_topology(t_desc)
        cache: dict[str, list] = {}
        for flow in [Flow("0_0", "2_2"), Flow("1_0", "0_2"), Flow("2_1", "0_0")]:
            if flow.destination not in cache:
                cache[flow.destination] = decompose_arborescences(t, flow.destination, 4)
            base = compile_arborescence_frr(t, cache[flow.destination], flow)
            for failures in enumerate_link_failures(t):
                fp = shortcut_fixpoint(base.copy(), t, failures, flow)
                assert fp.delivered
                assert fp.final_trace.is_simple()
                assert set(fp.final_trace.directed_edges()) <= set(
                    fp.initial_trace.directed_edges()
                )


class TestPartitionShortcut:
    def test_figure1_cross_partition_jump(
        self, figure1_state, figure1, figure1_flow, s2s4_failure
    ):
        trace = route(figure1_state, figure1, s2s4_failure, figure1_flow)
        changes = partition_shortcut(figure1_state, figure1, s2s4_failure, trace)
        moved = {(c.node, c.inport): (c.old_start, c.new_start) for c in changes}
        assert moved[("S1", "S")] == (1, 2)  # P1 rule jumps onto the P2 outport
        final = route(figure1_state, figure1, s2s4_failure, figure1_flow)
        assert final.path_string() == "S-S1-S3-S4-D"

    def test_failure_on_lower_priority_path_changes_nothing(
        self, figure1_state, figure1, figure1_flow
    ):
        failures = FailureSet.of(links=[("S1", "S3")])  # on P2, never observed
        trace = route(figure1_state, figure1, failures, figure1_flow)
        assert trace.path_string() == "S-S1-S2-S4-D"
        assert partition_shortcut(figure1_state, figure1, failures, trace) == []

    def test_square_cross_partition_loop_removed(self, square):
        flow = Flow("a", "c")
        scheme = PartitionScheme(flow=flow, paths=(("a", "b", "c"), ("a", "d", "c")))
        state = compile_partition_frr(square, scheme, flow)
        failures = FailureSet.of(links=[("b", "c")])
        fp = shortcut_fixpoint(state, square, failures, flow)
        assert fp.initial_trace.path_string() == "a-b-a-d-c"
        assert fp.final_trace.path_string() == "a-d-c"

    def test_loop_free_failover_to_later_partition_truncates_nothing(self, square):
        flow = Flow("a", "c")
        scheme = PartitionScheme(flow=flow, paths=(("a", "b", "c"), ("a", "d", "c")))
        state = compile_partition_frr(square, scheme, flow)
        failures = FailureSet.of(links=[("a", "b")])
        trace = route(state, square, failures, flow)
        assert trace.path_string() == "a-d-c"
        assert partition_shortcut(state, square, failures, trace) == []
        assert shortcut_fixpoint(state, square, failures, flow).rounds == 0


class TestGreedyShortcut:
    def test_figure1_one_truncation_at_s1(self, figure1, figure1_flow, s2s4_failure):
        state = compile_greedy_frr(figure1, figure1_flow)
        trace = route(state, figure1, s2s4_failure, figure1_flow)
        assert trace.path_string() == "S-S1-S2-S1-S3-S4-D"
        before = state.to_json_dict()
        changes = greedy_shortcut(state, figure1, s2s4_failure, trace)
        assert changes == [RuleChange("S1", "S", old_start=1, new_start=2)]
        before["tables"]["S1"]["inport_start"]["S"] = 2
        assert state.to_json_dict() == before
        final = route(state, figure1, s2s4_failure, figure1_flow)
        assert final.path_string() == "S-S1-S3-S4-D"

    def test_failure_free_walk_changes_nothing(self, figure1, figure1_flow):
        state = compile_greedy_frr(figure1, figure1_flow)
        trace = route(state, figure1, FailureSet.none(), figure1_flow)
        assert greedy_shortcut(state, figure1, FailureSet.none(), trace) == []

    def test_truncation_past_only_the_return_edge_changes_nothing(self):
        # v's distance order lists p first, but a packet from p never takes p
        # from the list: exiting to x skips only the return edge.
        t = Topology(["v", "p", "q", "x"], [("p", "v"), ("q", "v"), ("v", "x")])
        tables = {
            "v": PortTable(["p", "x", "q"], {None: 1, "p": 1, "q": 1, "x": 1}),
            "p": PortTable(["v"], {None: 1, "v": 1}),
            "q": PortTable(["v"], {None: 1, "v": 1}),
            "x": PortTable([], {None: 1}),
        }
        state = ForwardingState(Flow("p", "x"), MODE_GREEDY, tables)
        from_p = {"v": NodeObservation(inports={"p"}, deepest=2)}
        assert apply_truncation(state, FailureSet.none(), from_p) == []
        assert state.tables["v"].inport_start["p"] == 1
        # from q, the live entry p is skipped and the start moves
        from_q = {"v": NodeObservation(inports={"q"}, deepest=2)}
        assert apply_truncation(state, FailureSet.none(), from_q) == [
            RuleChange("v", "q", old_start=1, new_start=2)]

    def test_square_all_single_failures_end_loop_free(self, square):
        flow = Flow("a", "c")
        for failures in enumerate_link_failures(square):
            state = compile_greedy_frr(square, flow)
            fp = shortcut_fixpoint(state, square, failures, flow)
            assert fp.delivered
            assert fp.final_trace.is_simple()

    def test_trace_under_other_failures_does_not_replay(
        self, figure1, figure1_flow, s2s4_failure
    ):
        state = compile_greedy_frr(figure1, figure1_flow)
        trace = route(state, figure1, s2s4_failure, figure1_flow)
        before = state.to_json_dict()
        with pytest.raises(ValueError, match="does not replay"):
            greedy_shortcut(state, figure1, FailureSet.none(), trace)
        assert state.to_json_dict() == before


class TestOneWalkPerRound:
    """Each fixpoint round selects one outport per hop, and no more."""

    @pytest.fixture
    def select_calls(self, monkeypatch):
        calls = [0]
        real = ForwardingState.select

        def counting(self, *args):
            calls[0] += 1
            return real(self, *args)

        monkeypatch.setattr(ForwardingState, "select", counting)
        return calls

    @staticmethod
    def walk_cost(fp) -> int:
        # a dropped walk makes one last select call that finds nothing
        return sum(t.hop_count + (t.outcome is Outcome.DROPPED) for t in fp.traces)

    def test_figure1_partition_fixpoint(
        self, figure1_state, figure1, figure1_flow, s2s4_failure, select_calls
    ):
        fp = shortcut_fixpoint(figure1_state, figure1, s2s4_failure, figure1_flow)
        assert fp.rounds == 1
        assert select_calls[0] == self.walk_cost(fp)

    def test_greedy_hypercube3_link_sweep(self, select_calls):
        t = build_topology("hypercube(3)")
        flow = Flow(t.nodes[0], t.nodes[-1])
        base = compile_greedy_frr(t, flow)
        rounds = 0
        for failures in enumerate_link_failures(t):
            state = base.copy()
            select_calls[0] = 0
            fp = shortcut_fixpoint(state, t, failures, flow)
            assert select_calls[0] == self.walk_cost(fp)
            rounds += fp.rounds
        assert rounds > 0


def loop_erasure(walk: tuple[str, ...]) -> tuple[str, ...]:
    """The chronological loop erasure of a walk: on revisiting a node, pop
    the path back to it."""
    path: list[str] = []
    for node in walk:
        if node in path:
            del path[path.index(node) + 1:]
        else:
            path.append(node)
    return tuple(path)


def test_loop_erasure():
    assert loop_erasure(("S", "A", "B", "A", "C", "S", "D")) == ("S", "D")
    assert loop_erasure(("S", "A", "B", "C", "B", "D")) == ("S", "A", "B", "D")
    assert loop_erasure(("S",)) == ("S",)


def test_shortcut_result_is_the_loop_erased_walk_on_small_atlas_graphs():
    """Every 2-edge-connected graph of 3 to 6 nodes in networkx's graph
    atlas, every ordered pair and every single link or non-endpoint node
    failure, under arborescences (k = edge connectivity), greedy and
    partition (k = 2): wherever the failover walk delivers, the shortcut
    route is that walk with its loops erased chronologically, after one
    round if the walk looped and none if not."""
    graphs = [g for g in nx.graph_atlas_g()
              if 3 <= g.number_of_nodes() <= 6 and nx.edge_connectivity(g) >= 2]
    delivered = 0
    for g in graphs:
        t = Topology([str(n) for n in g.nodes], [(str(a), str(b)) for a, b in g.edges])
        failure_sets = enumerate_link_failures(t) + enumerate_node_failures(t)
        for compiler in SCHEME_COMPILERS.values():
            compile_state = compiler(t)
            for flow in all_pairs(t):
                state = compile_state(flow)
                for failures in failure_sets:
                    if {flow.source, flow.destination} & failures.failed_nodes:
                        continue
                    fp = shortcut_fixpoint(state, t, failures, flow)
                    revert_changes(state, fp.all_changes())
                    if fp.initial_trace.outcome is not Outcome.DELIVERED:
                        continue
                    delivered += 1
                    walk = fp.initial_trace.node_path()
                    assert fp.delivered, (flow, failures.label())
                    assert fp.final_trace.node_path() == loop_erasure(walk), (
                        flow, failures.label())
                    looped = len(set(walk)) < len(walk)
                    assert fp.rounds == (1 if looped else 0), (flow, failures.label())
    assert (len(graphs), delivered) == (75, 80_831)


@st.composite
def graphs_and_failure_sets(draw):
    """A random 2-edge-connected graph of 3 to 8 nodes and up to six failure
    sets, each one of three kinds, the last two favouring looping walks:
      * up to 3 links and up to 2 nodes, anywhere;
      * 1 to 3 links of a failure-free walk between two far-apart nodes
        (a shortest path, which failure-free walks mostly follow);
      * every link of an inner node of such a walk but the one the walk
        enters by, so that a walk reaching it bounces back."""
    t = build_topology({"kind": "random", "n": draw(st.integers(3, 8)),
                        "p": draw(st.sampled_from([0.4, 0.6, 0.8])),
                        "seed": draw(st.integers(0, 10_000)), "min_edge_connectivity": 2})
    adj = t.arc_adjacency()
    dist = {(a, b): d for a in t.nodes for b, d in bfs_distances(adj, a).items() if a != b}
    # the quarter of ordered pairs farthest apart: their walks have inner nodes
    far = sorted(dist, key=lambda pair: (-dist[pair], pair))[: max(2, len(dist) // 4)]
    walks = st.sampled_from(far).map(lambda pair: shortest_route(t, FailureSet.none(), *pair))

    def dead_end(walk):
        if len(walk) == 2:
            return st.just(FailureSet.of(links=[walk]))
        return st.integers(1, len(walk) - 2).map(lambda i: FailureSet.of(
            links=[(walk[i], x) for x in t.neighbors(walk[i]) if x != walk[i - 1]]))

    failure_set = st.one_of(
        st.builds(
            lambda links, nodes: FailureSet.of(links=links, nodes=nodes),
            st.lists(st.sampled_from(t.links), max_size=3, unique=True),
            st.lists(st.sampled_from(t.nodes), max_size=2, unique=True),
        ),
        walks.flatmap(lambda walk: st.lists(
            st.sampled_from(list(zip(walk, walk[1:]))), min_size=1, max_size=3, unique=True,
        )).map(lambda links: FailureSet.of(links=links)),
        walks.flatmap(dead_end),
    )
    return t, draw(st.lists(failure_set, min_size=1, max_size=6))


@settings(max_examples=100, deadline=None, derandomize=True, database=None,
          suppress_health_check=[HealthCheck.too_slow])
@given(graph_and_sets=graphs_and_failure_sets(), scheme=st.sampled_from(sorted(SCHEME_COMPILERS)))
@example(graph_and_sets=(NODE_SET_GRAPH, [FailureSet.of(nodes=["F"])]), scheme="greedy")
def test_sweep_shortcuts_to_the_loop_erased_walk_in_one_round(graph_and_sets, scheme):
    """Any scheme, any failure set: a sweep reports no violation, and every
    delivered case ends on the loop erasure of its failover walk after one
    round if that walk looped and none if not."""
    t, failure_sets = graph_and_sets
    report = run_failure_sweep(t, SCHEME_COMPILERS[scheme](t), all_pairs(t), failure_sets)
    assert report.violations_by_kind == {}
    for case in report.cases:
        if case.verdict == "delivered":
            walk = case.fixpoint.initial_trace.node_path()
            assert case.fixpoint.final_trace.node_path() == loop_erasure(walk), case
            assert case.rounds == (1 if case.looped_before else 0), case
