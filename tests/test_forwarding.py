from __future__ import annotations

import json

import pytest

from frrsim import (
    FailureSet,
    Flow,
    ForwardingState,
    Outcome,
    PortTable,
    Topology,
    compile_arborescence_frr,
    compile_partition_frr,
    decompose_arborescences,
    route,
    trace_stats,
)
from frrsim.forwarding import MODE_SUFFIX
from frrsim.frr import PartitionScheme
from frrsim.scenarios import FIGURE1_PATHS


@pytest.fixture
def figure1_state(figure1, figure1_flow):
    scheme = PartitionScheme(flow=figure1_flow, paths=FIGURE1_PATHS, relaxed=True)
    scheme.validate(figure1)
    return compile_partition_frr(figure1, scheme, figure1_flow)


class TestRoute:
    def test_no_failure_takes_the_default_route(self, figure1_state, figure1, figure1_flow):
        trace = route(figure1_state, figure1, FailureSet.none(), figure1_flow)
        assert trace.outcome is Outcome.DELIVERED
        assert trace.path_string() == "S-S1-S2-S4-D"

    def test_failure_takes_the_bounceback_walk(
        self, figure1_state, figure1, figure1_flow, s2s4_failure
    ):
        trace = route(figure1_state, figure1, s2s4_failure, figure1_flow)
        assert trace.outcome is Outcome.DELIVERED
        assert trace.path_string() == "S-S1-S2-S1-S3-S4-D"

    def test_single_link_drop(self):
        t = Topology(["a", "b"], [("a", "b")])
        flow = Flow("a", "b")
        (arb,) = decompose_arborescences(t, "b", 1)
        state = compile_arborescence_frr(t, [arb], flow)
        trace = route(state, t, FailureSet.of(links=[("a", "b")]), flow)
        assert trace.outcome is Outcome.DROPPED
        assert trace.final_node == "a"
        assert trace.hop_count == 0

    def test_start_at_destination_is_empty_delivery(self, figure1_state, figure1, figure1_flow):
        trace = route(figure1_state, figure1, FailureSet.none(), figure1_flow, start="D")
        assert trace.outcome is Outcome.DELIVERED
        assert trace.hop_count == 0
        assert trace.node_path() == ("D",)

    def test_failed_start_is_an_error(self, figure1_state, figure1, figure1_flow):
        with pytest.raises(ValueError, match="failed"):
            route(figure1_state, figure1, FailureSet.of(nodes=["S"]), figure1_flow)

    def test_foreign_flow_is_an_error(self, figure1_state, figure1):
        with pytest.raises(ValueError, match="unknown"):
            route(figure1_state, figure1, FailureSet.none(), Flow("H", "D"))

    def test_loop_detection_reports_repeated_inport(self):
        # two nodes deliberately forwarding to each other forever
        t = Topology(["a", "b", "c"], [("a", "b"), ("b", "c")])
        flow = Flow("a", "c")
        tables = {
            "a": PortTable(["b"], {None: 1, "b": 1}),
            "b": PortTable(["a"], {None: 1, "a": 1, "c": 1}),
            "c": PortTable([], {None: 1}),
        }
        state = ForwardingState(flow, MODE_SUFFIX, tables)
        # walk: (a, inject) -> (b, a) -> (a, b) -> (b, a) repeats
        trace = route(state, t, FailureSet.none(), flow)
        assert trace.outcome is Outcome.LOOP
        assert (trace.final_node, trace.loop_inport) == ("b", "a")

    def test_determinism_byte_for_byte(self, figure1, figure1_flow, s2s4_failure):
        def run_once():
            scheme = PartitionScheme(flow=figure1_flow, paths=FIGURE1_PATHS, relaxed=True)
            state = compile_partition_frr(figure1, scheme, figure1_flow)
            trace = route(state, figure1, s2s4_failure, figure1_flow)
            return json.dumps(trace.to_json_dict(), sort_keys=True)

        assert run_once() == run_once()

    def test_hops_record_the_selected_priority_index(
        self, figure1_state, figure1, figure1_flow, s2s4_failure
    ):
        trace = route(figure1_state, figure1, s2s4_failure, figure1_flow)
        for hop in trace.hops:
            prio = figure1_state.tables[hop.node].priority
            assert prio[hop.index - 1] == hop.outport
        assert all(len(h) == 3 for h in trace.to_json_dict()["hops"])

    def test_failure_locality(self, figure1, figure1_flow):
        # a remote failure never changes a node's own decision
        scheme = PartitionScheme(flow=figure1_flow, paths=FIGURE1_PATHS, relaxed=True)
        state = compile_partition_frr(figure1, scheme, figure1_flow)
        remote = FailureSet.of(links=[("S4", "D")]).link_down
        nothing = FailureSet.none().link_down
        for v in ("S", "S1", "S2", "S3"):  # S4-D is not incident to these
            for inport in state.tables[v].inport_start:
                assert state.select(v, inport, remote) == state.select(v, inport, nothing)

    def test_inport_oblivious_state_routes_fine(self, figure1, figure1_flow):
        # degenerate case: every inport starts at 1 (forwarding ignores inports)
        (arb,) = decompose_arborescences(figure1, "D", 1)
        state = compile_arborescence_frr(figure1, [arb], figure1_flow)
        for table in state.tables.values():
            for inport in table.inport_start:
                table.inport_start[inport] = 1
        trace = route(state, figure1, FailureSet.none(), figure1_flow)
        assert trace.outcome is Outcome.DELIVERED


class TestTraceStats:
    def test_bounceback_walk_stats(self, figure1_state, figure1, figure1_flow, s2s4_failure):
        trace = route(figure1_state, figure1, s2s4_failure, figure1_flow)
        stats = trace_stats(trace)
        assert stats.hop_count == 6
        assert stats.visits_per_node["S1"] == 2
        assert stats.looped_nodes == {"S1"}

    def test_simple_path_has_no_loops(self, figure1_state, figure1, figure1_flow):
        trace = route(figure1_state, figure1, FailureSet.none(), figure1_flow)
        stats = trace_stats(trace)
        assert stats.looped_nodes == frozenset()
        # link-once: delivered traces use every directed edge at most once
        assert len(stats.directed_edges_used) == stats.hop_count

    def test_empty_trace(self, figure1_state, figure1, figure1_flow):
        trace = route(figure1_state, figure1, FailureSet.none(), figure1_flow, start="D")
        assert trace_stats(trace).hop_count == 0

    def test_link_once_across_sweep(self, figure1, figure1_flow):
        scheme = PartitionScheme(flow=figure1_flow, paths=FIGURE1_PATHS, relaxed=True)
        state = compile_partition_frr(figure1, scheme, figure1_flow)
        for link in figure1.links:
            trace = route(state, figure1, FailureSet.of(links=[link]), figure1_flow)
            if trace.outcome is Outcome.DELIVERED:
                stats = trace_stats(trace)
                assert len(stats.directed_edges_used) == stats.hop_count

    def test_hops_are_link_consistent(self, figure1, figure1_flow, s2s4_failure):
        scheme = PartitionScheme(flow=figure1_flow, paths=FIGURE1_PATHS, relaxed=True)
        state = compile_partition_frr(figure1, scheme, figure1_flow)
        trace = route(state, figure1, s2s4_failure, figure1_flow)
        assert trace.hops[0].inport is None
        for a, b in zip(trace.hops, trace.hops[1:]):
            assert b.node == a.outport
            assert b.inport == a.node
        assert trace.final_node == figure1_flow.destination
        # the repeated node never repeats a (node, inport) pair
        pairs = [(h.node, h.inport) for h in trace.hops]
        assert len(pairs) == len(set(pairs))


class TestStateSerialization:
    def test_state_json_is_inspectable_and_stable(self, figure1_state):
        doc = figure1_state.to_json_dict()
        assert doc["mode"] == "suffix"
        assert doc["tables"]["S1"]["priority"] == ["S2", "S3", "S"]
        assert doc["tables"]["S1"]["inport_start"][""] == 1  # injection inport
        assert doc["tables"]["S1"]["inport_start"]["S2"] == 2
        assert json.dumps(doc, sort_keys=True) == json.dumps(
            figure1_state.to_json_dict(), sort_keys=True
        )

    def test_copy_is_independent(self, figure1_state):
        clone = figure1_state.copy()
        clone.tables["S1"].inport_start["S"] = 2
        assert figure1_state.tables["S1"].inport_start["S"] == 1
