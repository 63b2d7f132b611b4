from __future__ import annotations

import csv
import gc
import io
import tracemalloc
import types
from collections import Counter
from fractions import Fraction

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from frrsim import (
    CaseResult,
    FailureSet,
    Flow,
    ForwardingState,
    Outcome,
    PortTable,
    Topology,
    build_topology,
    compile_arborescence_frr,
    compile_greedy_frr,
    compile_partition_frr,
    compute_disjoint_paths,
    decompose_arborescences,
    edge_connectivity,
    link_loads,
    maxmin_throughput,
    route,
    run_failure_sweep,
    shortcut_fixpoint,
    stretch,
)
from frrsim import analysis, shortcut
from frrsim.analysis import (
    as_fraction,
    background_flow_plan,
    build_flow_plan,
    convergence_timeline,
    enumerate_link_failures,
    enumerate_node_failures,
    report_csv,
    unit_capacities,
)
from frrsim.forwarding import MODE_SUFFIX, Hop, Trace
from frrsim.frr import PartitionScheme
from frrsim.scenarios import FIGURE1_PATHS
from frrsim.shortcut import FixpointResult
from frrsim.topology import bfs_distances, shortest_path_length

from test_frr import reference_compile_partition_frr


@pytest.fixture
def figure1_state(figure1, figure1_flow):
    scheme = PartitionScheme(flow=figure1_flow, paths=FIGURE1_PATHS, relaxed=True)
    return compile_partition_frr(figure1, scheme, figure1_flow)


def arborescence_compiler(topology, k):
    cache: dict[str, list] = {}

    def compile_state(flow):
        if flow.destination not in cache:
            cache[flow.destination] = decompose_arborescences(topology, flow.destination, k)
        return compile_arborescence_frr(topology, cache[flow.destination], flow)

    return compile_state


class TestSweep:
    def test_complete5_link_sweep_no_violations(self):
        t = build_topology("complete(5)")
        flows = [Flow(a, b) for a in t.nodes for b in t.nodes if a != b]
        report = run_failure_sweep(
            t, arborescence_compiler(t, 4), flows, enumerate_link_failures(t)
        )
        assert report.total_cases == 20 * 10
        assert report.total_violations == 0
        assert report.frr_failures == 0

    def test_figure1_case_record(self, figure1, figure1_flow, figure1_state):
        report = run_failure_sweep(
            figure1,
            lambda flow: figure1_state.copy(),
            [figure1_flow],
            [FailureSet.of(links=[("S2", "S4")])],
        )
        (case,) = report.cases
        assert case.verdict == "delivered"
        assert (case.hops_before, case.hops_after) == (6, 4)
        assert case.rounds == 1
        assert case.violations == []
        assert case.looped_before

    def test_frr_failure_is_excluded_not_a_violation(self):
        t = Topology(["a", "b"], [("a", "b")])
        flow = Flow("a", "b")
        compile_state = arborescence_compiler(t, 1)
        report = run_failure_sweep(t, compile_state, [flow], enumerate_link_failures(t))
        (case,) = report.cases
        assert case.verdict == "frr_failed"
        assert report.total_violations == 0
        assert report.frr_failures == 1

    def test_node_sweep_skips_flow_endpoints(self):
        t = build_topology("complete(4)")
        flow = Flow("0", "1")
        failures = enumerate_node_failures(t)
        report = run_failure_sweep(t, arborescence_compiler(t, 3), [flow], failures)
        assert {c.failure for c in report.cases} == {"node:2", "node:3"}

    def test_report_csv_schema(self, figure1, figure1_flow, figure1_state):
        report = run_failure_sweep(
            figure1,
            lambda flow: figure1_state.copy(),
            [figure1_flow],
            [FailureSet.of(links=[("S2", "S4")])],
        )
        lines = report_csv(report).splitlines()
        assert lines[0] == "flow,failure,verdict,hops_before,hops_after,stretch_before,stretch_after,rounds"
        assert lines[1] == "S->D,link:S2-S4,delivered,6,4,1.5,1,1"


def figure1_walk(*nodes: str, outcome: Outcome = Outcome.DELIVERED) -> Trace:
    """A hand-built S->D trace along ``nodes``, each hop entered from the last."""
    hops = tuple(Hop(u, inport, v)
                 for inport, u, v in zip((None,) + nodes, nodes, nodes[1:]))
    return Trace("S->D", hops, outcome, nodes[-1])


# figure1 walks from S to D: with S2-S4 down the failover walk bounces back at S2
# and shortcuts to S-S1-S3-S4-D; TWICE bounces back twice
BOUNCE = ("S", "S1", "S2", "S1", "S3", "S4", "D")
SHORTCUT = ("S", "S1", "S3", "S4", "D")
DEFAULT = ("S", "S1", "S2", "S4", "D")
TWICE = ("S", "S1", "S2", "S1", "S2", "S1", "S3", "S4", "D")
# circles S1-S3-S4-S2-S1 once: its loop erasure is DEFAULT, not S-S1-S3-S4-D,
# though that too is a simple path on the walk's edges
CIRCLE = ("S", "S1", "S3", "S4", "S2", "S1", "S2", "S4", "D")


class TestCheckCase:
    """``_check_case`` on hand-built fixpoints: each failed guarantee is
    one violation kind, appended in a fixed order."""

    @pytest.mark.parametrize("initial,final,rounds,verdict,violations", [
        (BOUNCE, figure1_walk("S", "S1", "S2", outcome=Outcome.DROPPED), 1,
         "shortcut_failed", ["not_delivered"]),
        # loops once where the initial walk looped twice: lighter, but not simple
        (TWICE, figure1_walk(*BOUNCE), 1, "delivered", ["not_simple", "not_loop_erased"]),
        (DEFAULT, figure1_walk(*SHORTCUT), 0, "delivered", ["not_subpath"]),
        (BOUNCE, figure1_walk(*TWICE), 1, "delivered",
         ["not_simple", "load_increase", "load_not_reduced", "not_loop_erased"]),
        (BOUNCE, figure1_walk(*BOUNCE), 1, "delivered",
         ["not_simple", "load_not_reduced", "not_loop_erased"]),
        (CIRCLE, figure1_walk(*SHORTCUT), 1, "delivered", ["not_loop_erased"]),
        (DEFAULT, figure1_walk(*DEFAULT), 1, "delivered", ["rounds_mismatch"]),
        (BOUNCE, figure1_walk(*SHORTCUT), 1, "delivered", []),
    ], ids=["dropped", "final-loops", "leaves-initial-edges", "crosses-an-edge-more-often",
            "loop-left-as-it-was", "simple-sub-path-not-the-loop-erasure",
            "simple-walk-took-a-round", "clean-shortcut"])
    def test_verdict_and_violations(self, figure1, initial, final, rounds, verdict,
                                    violations):
        first = figure1_walk(*initial)
        edges = first.directed_edges() + final.directed_edges()
        assert all(figure1.has_link(u, v) for u, v in edges)
        fp = FixpointResult(traces=[first, final], rounds=rounds)
        case = CaseResult(flow_id="S->D", failure="link:S2-S4", verdict="")
        analysis._check_case(case, fp)
        assert (case.verdict, case.violations) == (verdict, violations)
        assert case.looped_before == (len(set(initial)) < len(initial))
        assert (case.rounds, case.hops_before, case.hops_after) == (
            rounds, len(initial) - 1, final.hop_count)

    @pytest.fixture
    def load_calls(self, monkeypatch):
        calls = []
        real = analysis.link_loads
        monkeypatch.setattr(analysis, "link_loads",
                            lambda traces: calls.append(traces) or real(traces))
        return calls

    @pytest.mark.parametrize("walk,rounds,verdict,violations", [
        (figure1_walk("S", "S1", "S2", outcome=Outcome.DROPPED), 0,
         "shortcut_failed", ["not_delivered"]),
        (figure1_walk(*DEFAULT), 0, "delivered", []),
        (figure1_walk(*BOUNCE), 0, "delivered",
         ["not_simple", "load_not_reduced", "not_loop_erased", "rounds_mismatch"]),
        (figure1_walk(*DEFAULT), 1, "delivered", ["rounds_mismatch"]),
        (figure1_walk(*BOUNCE), 1, "delivered",
         ["not_simple", "load_not_reduced", "not_loop_erased"]),
    ], ids=["dropped", "simple", "loop-left-as-it-was", "simple-walk-took-a-round",
            "looped-walk-took-a-round"])
    def test_one_trace_is_read_once(self, walk, rounds, verdict, violations, load_calls):
        """A fixpoint of one trace is its own final walk: no loads are counted."""
        case = CaseResult(flow_id="S->D", failure="link:S2-S4", verdict="")
        analysis._check_case(case, FixpointResult(traces=[walk], rounds=rounds))
        assert (case.verdict, case.violations) == (verdict, violations)
        assert case.looped_before == (not walk.is_simple())
        assert load_calls == []

    def test_two_traces_that_are_one_object_take_the_general_path(self, load_calls):
        walk = figure1_walk(*BOUNCE)
        case = CaseResult(flow_id="S->D", failure="link:S2-S4", verdict="")
        analysis._check_case(case, FixpointResult(traces=[walk, walk], rounds=1))
        assert load_calls == [[walk], [walk]]
        assert case.violations == ["not_simple", "load_not_reduced", "not_loop_erased"]


SCHEME_COMPILERS = {
    "arborescence": lambda t: arborescence_compiler(t, edge_connectivity(t)),
    "partition": lambda t: lambda flow: compile_partition_frr(
        t, compute_disjoint_paths(t, flow, 2), flow
    ),
    "greedy": lambda t: lambda flow: compile_greedy_frr(t, flow),
}


def all_pairs(topology, sources=None):
    return [Flow(a, b) for a in sources or topology.nodes for b in topology.nodes if a != b]


def reference_cases(topology, compile_state, flows, failure_sets):
    """Each case alone: a fresh compile and fixpoint, checked without the sweep."""
    out = []
    for flow in flows:
        for failures in failure_sets:
            if {flow.source, flow.destination} & failures.failed_nodes:
                continue
            fp = shortcut_fixpoint(compile_state(flow), topology, failures, flow)
            case = CaseResult(flow_id=flow.flow_id, failure=failures.label(), verdict="")
            if fp.initial_trace.outcome is not Outcome.DELIVERED:
                case.verdict = "frr_failed"
                case.hops_before = fp.initial_trace.hop_count
            else:
                analysis._check_case(case, fp)
                case.stretch_before = stretch(fp.initial_trace, topology, failures, flow)
                if fp.delivered:
                    case.stretch_after = stretch(fp.final_trace, topology, failures, flow)
            out.append((case, fp))
    return out


def assert_matches_reference(cases, reference):
    assert len(cases) == len(reference)
    for case, (ref_case, ref_fp) in zip(cases, reference):
        assert case == ref_case
        assert case.fixpoint.traces == ref_fp.traces
        assert case.fixpoint.changes_per_round == ref_fp.changes_per_round


# Greedy flow 1->0 with F failed walks 1-2-3-4-0, and node 2 lists the return
# edge 1 ahead of its exit 3: a truncation past it would change no hop.
NODE_SET_GRAPH = Topology(["0", "1", "2", "3", "4", "F"], [
    ("0", "F"), ("F", "1"), ("F", "2"), ("1", "2"), ("2", "3"), ("3", "4"), ("4", "0")])


class TestNodeSetsSkipRounds:
    """A failed node is held to the one-round count like a failed link."""

    def test_no_op_round_after_a_node_failure_is_no_violation(self):
        t = NODE_SET_GRAPH
        flow = Flow("1", "0")
        (case,) = run_failure_sweep(
            t, SCHEME_COMPILERS["greedy"](t), [flow], [FailureSet.of(nodes=["F"])]
        ).cases
        # 1-2-3-4-0 is delivered and simple. Node 2 sees only the return edge
        # 1 ahead of its exit 3, which greedy never takes from the list, so
        # its start stays: no rule change, no round.
        assert case.fixpoint.initial_trace.node_path() == ("1", "2", "3", "4", "0")
        assert (case.rounds, case.hops_before, case.hops_after) == (0, 4, 4)
        assert case.fixpoint.all_changes() == []
        assert case.violations == []


class TestSweepUndo:
    """One working state per flow, restored from each case's audit log."""

    @pytest.mark.parametrize(
        "desc,scheme",
        [("torus(3,3)", "arborescence"), ("torus(4,4)", "partition"), ("hypercube(3)", "greedy")],
    )
    def test_link_sweep_matches_fresh_state_per_case(self, desc, scheme):
        t = build_topology(desc)
        compile_state = SCHEME_COMPILERS[scheme](t)
        # torus(4,4) all-pairs partition sweeps take seconds; four sources
        # already reach cross-partition truncations.
        flows = all_pairs(t, t.nodes[::4] if scheme == "partition" else None)
        failure_sets = enumerate_link_failures(t)
        compiled = []

        def recording_compile(flow):
            state = compile_state(flow)
            compiled.append((state, state.to_json_dict()))
            return state

        report = run_failure_sweep(t, recording_compile, flows, failure_sets)
        assert_matches_reference(report.cases,
                                 reference_cases(t, compile_state, flows, failure_sets))
        assert report.violations_by_kind == {}
        assert len(compiled) == len(flows)
        for state, snapshot in compiled:
            assert state.to_json_dict() == snapshot

        pristine = {state.flow.flow_id: state for state, _ in compiled}
        changes = [
            (pristine[case.flow_id], c)
            for case in report.cases
            for c in case.fixpoint.all_changes()
        ]
        assert changes, "the sweep must exercise the undo path"
        if scheme == "partition":
            # some change moves a start onto a later path's entry
            entry_path = {
                flow.flow_id: reference_compile_partition_frr(
                    t, compute_disjoint_paths(t, flow, 2), flow)[1]
                for flow in flows
            }
            assert any(
                entry_path[st.flow.flow_id][c.node][c.old_start - 1]
                != entry_path[st.flow.flow_id][c.node][c.new_start - 1]
                for st, c in changes
            )

    def test_case_that_raises_mid_fixpoint_gets_a_fresh_state(self, monkeypatch):
        t = build_topology("torus(3,3)")
        compile_state = arborescence_compiler(t, 4)
        flows = all_pairs(t, t.nodes[:2])
        failure_sets = enumerate_link_failures(t)
        reference = reference_cases(t, compile_state, flows, failure_sets)
        real_fixpoint = analysis.shortcut_fixpoint
        calls = []

        def sabotaging_fixpoint(state, topology, failures, flow):
            calls.append((flow.flow_id, failures.label()))
            if len(calls) == 8:
                for table in state.tables.values():
                    for inport in table.inport_start:
                        table.inport_start[inport] = len(table.priority) + 1
                raise RuntimeError("injected fault")
            return real_fixpoint(state, topology, failures, flow)

        monkeypatch.setattr(analysis, "shortcut_fixpoint", sabotaging_fixpoint)
        compiled = []
        report = run_failure_sweep(
            t, lambda flow: compiled.append(flow) or compile_state(flow), flows, failure_sets)
        # once per flow, and once more after the case that raised
        assert len(compiled) == len(flows) + 1
        assert compiled[3] == compiled[4] == Flow("0_0", "1_1")
        # Flow 0_0->1_1 walks 0_0-0_1-1_1: after its failure-free fixpoint
        # only the two failures on that walk run a fixpoint of their own,
        # and the fault hits the first of them.
        assert calls[6:9] == [
            ("0_0->1_1", "none"),
            ("0_0->1_1", "link:0_0-0_1"),
            ("0_0->1_1", "link:0_1-1_1"),
        ]
        cases = report.cases
        broken = cases[54]
        assert (broken.flow_id, broken.failure) == calls[7]
        assert broken.verdict == "exception"
        assert broken.error == "RuntimeError: injected fault"
        assert report.violations_by_kind == {"exception": 1}
        assert cases[55].flow_id == broken.flow_id
        # the flow's next fixpoint runs on a fresh state
        assert (cases[59].flow_id, cases[59].failure) == calls[8]
        del cases[54], reference[54]
        assert_matches_reference(cases, reference)

    def test_failure_free_fixpoint_that_raises_is_not_a_case(self, monkeypatch):
        t = build_topology("torus(3,3)")
        compile_state = arborescence_compiler(t, 4)
        flows = all_pairs(t, t.nodes[:1])
        failure_sets = enumerate_link_failures(t)
        reference = reference_cases(t, compile_state, flows, failure_sets)
        real_fixpoint = analysis.shortcut_fixpoint
        calls = []

        def sabotaging_fixpoint(state, topology, failures, flow):
            calls.append((flow.flow_id, failures.label()))
            if len(calls) == 1:
                for table in state.tables.values():
                    for inport in table.inport_start:
                        table.inport_start[inport] = len(table.priority) + 1
                raise RuntimeError("injected fault")
            return real_fixpoint(state, topology, failures, flow)

        monkeypatch.setattr(analysis, "shortcut_fixpoint", sabotaging_fixpoint)
        report = run_failure_sweep(t, compile_state, flows, failure_sets)
        # the first flow falls back to one fixpoint per case, on a fresh state
        assert calls[0] == ("0_0->0_1", "none")
        assert calls[1 : len(failure_sets) + 2] == [
            ("0_0->0_1", label) for label in [fs.label() for fs in failure_sets]
        ] + [("0_0->0_2", "none")]
        assert report.violations_by_kind == {}
        assert_matches_reference(report.cases, reference)


def failure_free_walks(topology, compile_state, flows):
    """Per flow: the nodes and canonical links of its failure-free walk."""
    walks = {}
    for flow in flows:
        path = route(compile_state(flow), topology, FailureSet(), flow).node_path()
        links = FailureSet.of(links=zip(path, path[1:])).failed_links
        walks[flow.flow_id] = set(path), links
    return walks


def misses_walk(walks, case, failures):
    nodes, links = walks[case.flow_id]
    return not (failures.failed_nodes & nodes or failures.failed_links & links)


class TestFailureFreeReuse:
    """Cases whose failure misses the failure-free walk reuse its fixpoint."""

    @pytest.fixture
    def route_calls(self, monkeypatch):
        calls = [0]
        real = shortcut.route

        def counting(*args, **kwargs):
            calls[0] += 1
            return real(*args, **kwargs)

        monkeypatch.setattr(shortcut, "route", counting)
        return calls

    @pytest.mark.parametrize("desc", ["torus(3,3)", "hypercube(3)"])
    @pytest.mark.parametrize("scheme", ["arborescence", "partition", "greedy"])
    @pytest.mark.parametrize("kind", ["links", "nodes", "mixed"])
    def test_sweep_matches_fresh_fixpoint_per_case(self, desc, scheme, kind):
        t = build_topology(desc)
        compile_state = SCHEME_COMPILERS[scheme](t)
        flows = all_pairs(t)
        a, b, c = t.nodes[0], *t.neighbors(t.nodes[0])[:2]
        two_links = [FailureSet.of(links=[(a, b), (a, c)])]
        failure_sets = {
            "links": enumerate_link_failures(t) + two_links,
            "nodes": enumerate_node_failures(t),
            # one template's copies serve link, node and two-link sets
            "mixed": enumerate_link_failures(t) + enumerate_node_failures(t) + two_links
            + [FailureSet.of(links=pair) for pair in zip(t.links, t.links[3::2])],
        }[kind]
        report = run_failure_sweep(t, compile_state, flows, failure_sets)
        reference = reference_cases(t, compile_state, flows, failure_sets)
        assert_matches_reference(report.cases, reference)
        assert all("rounds_mismatch" not in c.violations
                   for c in report.cases if c.verdict == "delivered")
        assert len({id(case.fixpoint) for case in report.cases}) < len(report.cases) / 2

    @pytest.mark.parametrize("scheme", ["arborescence", "partition", "greedy"])
    def test_reused_case_routes_nothing(self, scheme, route_calls):
        t = build_topology("torus(3,3)")
        compile_state = SCHEME_COMPILERS[scheme](t)
        flows = all_pairs(t)
        failure_sets = enumerate_link_failures(t)
        walks = failure_free_walks(t, compile_state, flows)
        report = run_failure_sweep(t, compile_state, flows, failure_sets)
        by_label = {fs.label(): fs for fs in failure_sets}
        own = [c for c in report.cases if not misses_walk(walks, c, by_label[c.failure])]
        assert len(own) < len(report.cases) / 2
        # one walk per flow with nothing failed, then only the cases not reused
        assert route_calls[0] == len(flows) + sum(len(c.fixpoint.traces) for c in own)

    @pytest.mark.parametrize(
        "a_rules,b_rules",
        [
            # a -> b -> a -> c delivers, then a truncates: one round
            ((["b", "c"], {None: 1, "b": 2}), (["a", "c"], {"a": 1})),
            # a -> b, and b has nothing left for inport a: dropped
            ((["b"], {None: 1}), (["a", "c"], {"a": 3})),
        ],
        ids=["round", "dropped"],
    )
    def test_failure_free_walk_with_a_round_or_a_drop_is_not_reused(
        self, triangle, a_rules, b_rules, route_calls
    ):
        flow = Flow("a", "c")
        tables = {"a": PortTable(*a_rules), "b": PortTable(*b_rules), "c": PortTable([], {})}
        base = ForwardingState(flow, MODE_SUFFIX, tables)
        compile_state = lambda f: base.copy()
        # b-c misses the failure-free walk
        failure_sets = [FailureSet.of(links=[("b", "c")]), FailureSet()]
        free = shortcut_fixpoint(base.copy(), triangle, FailureSet(), flow)
        assert free.rounds == 1 or not free.delivered
        reference = reference_cases(triangle, compile_state, [flow], failure_sets)
        route_calls[0] = 0
        report = run_failure_sweep(triangle, compile_state, [flow], failure_sets)
        assert route_calls[0] == len(free.traces) + sum(
            len(c.fixpoint.traces) for c in report.cases
        )
        assert_matches_reference(report.cases, reference)

    @settings(
        max_examples=40,
        deadline=None,
        derandomize=True,
        database=None,
        suppress_health_check=[HealthCheck.too_slow],
    )
    @given(
        n=st.integers(4, 7),
        p=st.sampled_from([0.5, 0.7, 0.9]),
        seed=st.integers(0, 10_000),
        scheme=st.sampled_from(["arborescence", "partition", "greedy"]),
        data=st.data(),
    )
    def test_reuse_equals_fresh_fixpoint_on_random_graphs(self, n, p, seed, scheme, data):
        t = build_topology({"kind": "random", "n": n, "p": p, "seed": seed,
                            "min_edge_connectivity": 2})
        compile_state = SCHEME_COMPILERS[scheme](t)
        link_sets = data.draw(st.lists(
            st.lists(st.sampled_from(t.links), min_size=1, max_size=3, unique=True),
            min_size=1, max_size=6,
        ))
        failure_sets = [FailureSet.of(links=links) for links in link_sets]
        flows = all_pairs(t)
        report = run_failure_sweep(t, compile_state, flows, failure_sets)
        reference = reference_cases(t, compile_state, flows, failure_sets)
        assert_matches_reference(report.cases, reference)


class TestCompactReport:
    """A sweep keeps reused cases as a count on their flow's template and
    builds them only when ``cases`` is read."""

    # summary_dict() of these sweeps when every case was kept as a CaseResult
    SUMMARIES = {
        "greedy": {"cases": 7680, "frr_precondition_failures": 64, "violations": 0,
                   "violations_by_kind": {}},
        "arborescence": {"cases": 7680, "frr_precondition_failures": 0, "violations": 0,
                         "violations_by_kind": {}},
    }

    @staticmethod
    def reachable_cases(root) -> int:
        """The ``CaseResult``s reachable from ``root`` through ``gc.get_referents``."""
        seen, stack, found = {id(root)}, [root], 0
        while stack:
            obj = stack.pop()
            found += isinstance(obj, CaseResult)
            for ref in gc.get_referents(obj):
                if id(ref) not in seen and not isinstance(ref, (type, types.ModuleType)):
                    seen.add(id(ref))
                    stack.append(ref)
        return found

    @pytest.mark.parametrize("scheme", ["greedy", "arborescence"])
    def test_reused_cases_are_not_held_as_objects(self, scheme):
        t = build_topology("torus(4,4)")
        compile_state = SCHEME_COMPILERS[scheme](t)
        flows = all_pairs(t)
        failure_sets = enumerate_link_failures(t)
        report = run_failure_sweep(t, compile_state, flows, failure_sets)
        assert report.summary_dict() == self.SUMMARIES[scheme]

        # a reused case whose residual distance is not the failure-free one
        # has a stretch of its own, and is held as a copy of the template
        reused = reusable = own_stretch = 0
        for flow in flows:
            free = shortcut_fixpoint(compile_state(flow), t, FailureSet(), flow)
            walk = free.initial_trace
            if not (free.delivered and free.rounds == 0 and walk.is_simple()):
                continue
            reusable += 1
            links = FailureSet.of(links=zip(walk.node_path(), walk.node_path()[1:])).failed_links
            distance = shortest_path_length(t, FailureSet(), flow.source, flow.destination)
            for failures in failure_sets:
                if failures.failed_links.isdisjoint(links):
                    reused += 1
                    own_stretch += shortest_path_length(
                        t, failures, flow.source, flow.destination) != distance
        assert own_stretch == {"greedy": 0, "arborescence": 48}[scheme]
        fresh = report.total_cases - reused
        held = self.reachable_cases(report)
        assert held == fresh + reusable + own_stretch
        assert held < report.total_cases / 4
        assert len(report.cases) == report.total_cases

    def test_report_memory_grows_with_held_cases_only(self):
        """Failure sets that fail no link of any walk add reused cases only,
        and a reused case costs the report no storage of its own: the report
        grows by its sets' labels, under a byte per added case, and holds
        its traces as node paths, with no ``Hop`` object."""
        torus = build_topology("torus(4,4)")
        ends = torus.nodes[::4]
        leaves = [(end, f"leaf{i}") for i, end in enumerate(ends)]
        t = Topology([*torus.nodes, *(leaf for _, leaf in leaves)], [*torus.links, *leaves])
        compile_state, flows = SCHEME_COMPILERS["greedy"](t), all_pairs(torus)
        walked = enumerate_link_failures(torus)
        unwalked = [FailureSet.of(links=[leaves[i % len(leaves)]]) for i in range(len(walked))]

        def live_hops() -> int:
            return sum(isinstance(obj, Hop) for obj in gc.get_objects())

        def swept(failure_sets):
            gc.collect()
            tracemalloc.start()
            try:
                report = run_failure_sweep(t, compile_state, flows, failure_sets)
                gc.collect()
                return report, tracemalloc.get_traced_memory()[0]
            finally:
                tracemalloc.stop()

        swept(walked)  # first-use caches
        hops = live_hops()
        small, small_bytes = swept(walked)
        large, large_bytes = swept(walked + unwalked)
        assert live_hops() == hops
        added = large.total_cases - small.total_cases
        assert added == len(flows) * len(unwalked)
        held = sum(len(flow.held) for flow in large._flows)
        assert held == sum(len(flow.held) for flow in small._flows) < small.total_cases / 4
        assert large_bytes - small_bytes < added

    def test_expansion_equals_the_fresh_fixpoint_per_case(self):
        t = build_topology("torus(3,3)")
        compile_state = SCHEME_COMPILERS["arborescence"](t)
        # a flow listed twice and a set listed twice tie in the sorted order
        flows = all_pairs(t) + [Flow(t.nodes[0], t.nodes[4])]
        a, b, c = t.nodes[0], *t.neighbors(t.nodes[0])[:2]
        two_links = FailureSet.of(links=[(a, b), (a, c)])
        failure_sets = (enumerate_link_failures(t) + enumerate_node_failures(t)
                        + [two_links, FailureSet.of(links=t.links[1::4]), two_links])
        report = run_failure_sweep(t, compile_state, flows, failure_sets)
        templates = [flow.template for flow in report._flows if flow.reused]
        assert any(template.stretch_before != 1.0 for template in templates)
        assert any(template.stretch_before == 1.0 for template in templates)

        cases = report.cases
        assert_matches_reference(cases, reference_cases(t, compile_state, flows, failure_sets))
        expected = sorted(cases, key=lambda c: (c.flow_id, c.failure))
        got = report.sorted_cases
        assert got == expected
        assert all(a.fixpoint is b.fixpoint for a, b in zip(got, expected))
        # each read builds new copies, and no two cases share a violations list
        assert len({id(case) for case in cases + got}) == 2 * len(cases)
        assert len({id(case.violations) for case in cases + got}) == 2 * len(cases)
        assert len({id(case.fixpoint) for case in cases}) < len(cases) / 2
        for case in cases:
            case.violations.append("changed")
        assert [case.violations for case in report.cases] == [
            case.violations[:-1] for case in cases]

    def test_a_list_built_report_copies_its_cases_in_the_order_given(self):
        # the flow ids interleave, and the last case repeats the first's
        # (flow, failure) pair with another verdict
        given = [CaseResult("A", "link:y", "delivered", 2, 2, 1.0, 1.0, 0),
                 CaseResult("A", "link:x", "frr_failed", 3),
                 CaseResult("B", "link:x", "delivered", 1, 1, 1.0, 1.0, 0),
                 CaseResult("A", "link:w", "delivered", 4, 2, 2.0, 1.0, 1,
                            violations=["not_simple"]),
                 CaseResult("A", "link:y", "exception", violations=["exception"], error="E")]
        report = analysis.SweepReport(given, {"not_simple": 1, "exception": 1})
        assert report.summary_dict()["cases"] == 5
        assert report.frr_failures == 1

        cases = report.cases
        assert cases == given
        assert not any(a is b or a.violations is b.violations for a, b in zip(cases, given))
        expected = sorted(given, key=lambda c: (c.flow_id, c.failure))
        assert [c.verdict for c in expected[2:4]] == ["delivered", "exception"]
        assert report.sorted_cases == expected
        assert list(report.iter_sorted_cases()) == expected

        cases[0].verdict = "changed"
        cases[3].violations.append("changed")
        assert report.cases == given
        assert report.sorted_cases == expected


class TestSweepStretch:
    """The sweep's stretches equal stretch(), which builds its own residual graph."""

    @pytest.mark.parametrize("desc", [
        "torus(3,3)", "hypercube(3)", "torus(4,4)",
        {"kind": "random", "n": 9, "p": 0.5, "seed": 7, "min_edge_connectivity": 3},
    ], ids=["torus(3,3)", "hypercube(3)", "torus(4,4)", "random(9,seed=7)"])
    @pytest.mark.parametrize("kind", ["links", "nodes"])
    def test_matches_stretch_per_case(self, desc, kind, monkeypatch):
        t = build_topology(desc)
        if kind == "links":
            failure_sets = enumerate_link_failures(t)
        else:
            failure_sets = enumerate_node_failures(t)
        compile_state = SCHEME_COMPILERS["arborescence"](t)
        flows = all_pairs(t)
        residuals = []
        real_residual = analysis.residual_adjacency
        monkeypatch.setattr(analysis, "residual_adjacency", lambda topology, failures: (
            residuals.append(failures) or real_residual(topology, failures)))
        report = run_failure_sweep(t, compile_state, flows, failure_sets)
        assert len(residuals) == len(set(residuals)) <= len(failure_sets)
        walks = failure_free_walks(t, compile_state, flows)
        by_label = {fs.label(): fs for fs in failure_sets}
        delivered = [c for c in report.cases if c.verdict == "delivered"]
        assert len(delivered) == len(report.cases)
        sources = Counter()
        for case in delivered:
            flow = Flow(*case.flow_id.split("->"))
            failures = by_label[case.failure]
            fp = case.fixpoint
            if not misses_walk(walks, case, failures):
                sources["fresh"] += 1
            elif fp.final_trace.hop_count == shortest_path_length(
                t, FailureSet(), flow.source, flow.destination
            ):
                sources["reused shortest"] += 1
            else:
                sources["reused longer"] += 1
            assert case.stretch_before == stretch(fp.initial_trace, t, failures, flow)
            assert case.stretch_after == stretch(fp.final_trace, t, failures, flow)
        assert set(sources) == {"fresh", "reused shortest", "reused longer"}

    def test_distance_memo_searches_each_key_once_and_never_for_reused_shortest_walks(
        self, monkeypatch
    ):
        t = build_topology("torus(4,4)")
        # greedy walks are shortest, so some (failure set, destination) keys
        # are wanted by reused cases alone
        compile_state = SCHEME_COMPILERS["greedy"](t)
        flows = all_pairs(t)
        failure_sets = enumerate_link_failures(t)
        graphs = {}  # id of each residual graph -> label of its failure set
        searches = []  # (failure label, None for nothing failed; destination)
        real_residual, real_bfs = analysis.residual_adjacency, analysis.bfs_distances

        def residual(topology, failures):
            adj = real_residual(topology, failures)
            graphs[id(adj)] = failures.label()
            return adj

        monkeypatch.setattr(analysis, "residual_adjacency", residual)
        monkeypatch.setattr(analysis, "bfs_distances", lambda adj, source: (
            searches.append((graphs.get(id(adj)), source)) or real_bfs(adj, source)))
        report = run_failure_sweep(t, compile_state, flows, failure_sets)
        assert len(searches) == len(set(searches))
        assert {d for label, d in searches if label is None} == {f.destination for f in flows}
        walks = failure_free_walks(t, compile_state, flows)
        by_label = {fs.label(): fs for fs in failure_sets}
        needed, reused_shortest = set(), set()
        for case in report.cases:
            if case.verdict == "frr_failed":  # no stretch, no distance
                continue
            flow = Flow(*case.flow_id.split("->"))
            shortest = case.fixpoint.final_trace.hop_count == shortest_path_length(
                t, FailureSet(), flow.source, flow.destination)
            if misses_walk(walks, case, by_label[case.failure]) and shortest:
                reused_shortest.add((case.failure, flow.destination))
            else:
                needed.add((case.failure, flow.destination))
        assert {key for key in searches if key[0] is not None} == needed
        assert reused_shortest - needed, "some keys are wanted by reused shortest walks only"
        # clones of one template share its fixpoint, never its violations list
        assert max(Counter(id(case.fixpoint) for case in report.cases).values()) > 1
        assert len({id(case.violations) for case in report.cases}) == len(report.cases)

    def test_mixed_sets_match_the_reference_and_search_only_on_a_shortest_path(
        self, monkeypatch
    ):
        t = build_topology("torus(4,4)")
        compile_state = SCHEME_COMPILERS["arborescence"](t)
        flows = all_pairs(t, t.nodes[:5])
        a, b, c = t.nodes[0], *t.neighbors(t.nodes[0])[:2]
        two_links = FailureSet.of(links=[(a, b), (a, c)])
        failure_sets = (enumerate_node_failures(t) + [two_links]
                        + [FailureSet.of(links=pair) for pair in zip(t.links, t.links[5::3])]
                        + enumerate_link_failures(t)[::2] + [two_links])
        searched = []  # (failure set or None for nothing failed, destination, graph id)
        real_residual, real_bfs = analysis.residual_adjacency, analysis.bfs_distances
        graphs = {}

        def residual(topology, failures):
            adj = real_residual(topology, failures)
            graphs[id(adj)] = failures
            return adj

        monkeypatch.setattr(analysis, "residual_adjacency", residual)
        monkeypatch.setattr(analysis, "bfs_distances", lambda adj, source: (
            searched.append((graphs.get(id(adj)), source, id(adj))) or real_bfs(adj, source)))
        report = run_failure_sweep(t, compile_state, flows, failure_sets)
        assert_matches_reference(report.cases,
                                 reference_cases(t, compile_state, flows, failure_sets))
        # one search per (residual graph, destination); the set listed twice has two graphs
        assert len(searched) == len({(graph, source) for _, source, graph in searched})

        walks = failure_free_walks(t, compile_state, flows)
        by_label = {fs.label(): fs for fs in failure_sets}
        templates = {flow.flow_id: flow.template for flow in report._flows}
        fresh, longer, own = set(), set(), 0
        for case in report.cases:
            failures = by_label[case.failure]
            key = (failures, case.flow_id.split("->")[1])
            if not misses_walk(walks, case, failures):
                fresh.add(key)
            elif templates[case.flow_id].stretch_before != 1.0:
                longer.add((key, case.flow_id))
                own += case.stretch_before != templates[case.flow_id].stretch_before
        assert own and len(longer) > own, "reused cases with and without a stretch of their own"

        hops = {v: bfs_distances(t.arc_adjacency(), v) for v in t.nodes}
        on_shortest = {}  # flow id -> the nodes and links of its shortest paths
        for flow in flows:
            d, total = hops[flow.destination], hops[flow.destination][flow.source]
            nodes = {v for v in t.nodes if hops[flow.source][v] + d[v] == total}
            links = FailureSet.of(links=[(u, v) for u, v in t.directed_edges()
                                         if hops[flow.source][u] + 1 + d[v] == total])
            on_shortest[flow.flow_id] = nodes, links.failed_links

        def on_a_shortest_path(failures, flow_id):
            nodes, links = on_shortest[flow_id]
            return failures.failed_nodes & nodes or failures.failed_links & links

        # a reused case searches only if its set fails a node or link of a
        # failure-free shortest path from its source: others leave the
        # distance as it was, and some keys are wanted by such cases only
        wanted = {(failures, source) for failures, source, _ in searched if failures is not None}
        assert wanted - fresh <= {key for key, flow_id in longer
                                  if on_a_shortest_path(key[0], flow_id)}
        assert {key for key, _ in longer} - fresh - wanted

    def test_residual_unreachable_is_an_exception_case(self, monkeypatch):
        # A fixpoint blind to the failure delivers over the dead link, so
        # the residual graph has no route to compare against.
        t = Topology(["a", "b"], [("a", "b")])
        real_fixpoint = analysis.shortcut_fixpoint
        monkeypatch.setattr(
            analysis,
            "shortcut_fixpoint",
            lambda state, topology, failures, flow: real_fixpoint(
                state, topology, FailureSet.none(), flow
            ),
        )
        report = run_failure_sweep(
            t, arborescence_compiler(t, 1), [Flow("a", "b")], enumerate_link_failures(t)
        )
        (case,) = report.cases
        assert case.verdict == "exception"
        assert case.error == "ValueError: destination unreachable in residual graph"
        assert report.violations_by_kind == {"exception": 1}


class TestStretch:
    def test_bounceback_stretch(self, figure1, figure1_flow, figure1_state, s2s4_failure):
        trace = route(figure1_state, figure1, s2s4_failure, figure1_flow)
        assert stretch(trace, figure1, s2s4_failure, figure1_flow) == pytest.approx(1.5)

    def test_shortcut_route_is_optimal(self, figure1, figure1_flow, figure1_state, s2s4_failure):
        fp = shortcut_fixpoint(figure1_state, figure1, s2s4_failure, figure1_flow)
        assert stretch(fp.final_trace, figure1, s2s4_failure, figure1_flow) == pytest.approx(1.0)

    def test_default_route_stretch_is_one(self, figure1, figure1_flow, figure1_state):
        trace = route(figure1_state, figure1, FailureSet.none(), figure1_flow)
        assert stretch(trace, figure1, FailureSet.none(), figure1_flow) == pytest.approx(1.0)

    def test_undelivered_trace_is_an_error(self, figure1, figure1_flow, figure1_state):
        failures = FailureSet.of(links=[("S", "S1")])
        trace = route(figure1_state, figure1, failures, figure1_flow)
        with pytest.raises(ValueError, match="delivered"):
            stretch(trace, figure1, failures, figure1_flow)


class TestLinkLoads:
    def test_loop_edges_are_loaded(self, figure1, figure1_flow, figure1_state, s2s4_failure):
        trace = route(figure1_state, figure1, s2s4_failure, figure1_flow)
        loads = link_loads([trace])
        assert loads[("S1", "S2")] == 1
        assert loads[("S2", "S1")] == 1

    def test_shortcut_unloads_the_loop(self, figure1, figure1_flow, figure1_state, s2s4_failure):
        fp = shortcut_fixpoint(figure1_state, figure1, s2s4_failure, figure1_flow)
        loads = link_loads([fp.final_trace])
        assert loads.get(("S1", "S2"), 0) == 0
        assert loads.get(("S2", "S1"), 0) == 0

    def test_empty_trace_set(self):
        assert link_loads([]) == {}


def progressive_maxmin(routes, capacities, demands=None):
    """Reference: the progressive water-filling ``maxmin_throughput`` replaced
    by the event-driven one, kept verbatim. Each step rescans every edge."""
    demand = {f: as_fraction((demands or {}).get(f, 1)) for f in routes}
    residual: dict[tuple[str, str], Fraction] = {}
    users: dict[tuple[str, str], set[str]] = {}
    for flow_id, edges in routes.items():
        for edge in edges:
            if edge not in capacities:
                raise ValueError(f"no capacity defined for edge {edge}")
            cap = as_fraction(capacities[edge])
            if cap <= 0:
                raise ValueError(f"flow {flow_id!r} routed over zero-capacity edge {edge}")
            residual[edge] = cap
            users.setdefault(edge, set()).add(flow_id)

    rates = {f: Fraction(0) for f in routes}
    active = set(routes)
    while active:
        increments = [demand[f] - rates[f] for f in active]
        for edge, flows_on_edge in users.items():
            sharing = flows_on_edge & active
            if sharing:
                increments.append(residual[edge] / len(sharing))
        delta = min(increments)
        for f in active:
            rates[f] += delta
        for edge, flows_on_edge in users.items():
            residual[edge] -= delta * len(flows_on_edge & active)
        frozen = {f for f in active if rates[f] == demand[f]}
        for edge, flows_on_edge in users.items():
            if residual[edge] == 0:
                frozen |= flows_on_edge & active
        if not frozen:  # all increments were zero; nothing can grow
            break
        active -= frozen
    return rates


def is_maxmin_fair(routes, capacities, rates, demands=None) -> bool:
    """Oracle: every unsaturated-demand flow has a bottleneck link it maxes."""
    demands = demands or {}
    for f, edges in routes.items():
        if rates[f] == Fraction(str(demands.get(f, 1))):
            continue
        has_bottleneck = False
        for edge in edges:
            used = sum(rates[g] for g, r in routes.items() if edge in r)
            cap = Fraction(str(capacities[edge]))
            if used == cap and all(
                rates[g] <= rates[f] for g, r in routes.items() if edge in r
            ):
                has_bottleneck = True
                break
        if not has_bottleneck:
            return False
    return True


class TestMaxMin:
    def test_two_flows_one_unit_link(self):
        routes = {"red": [("u", "v")], "blue": [("u", "v")]}
        rates = maxmin_throughput(routes, {("u", "v"): 1})
        assert rates == {"red": Fraction(1, 2), "blue": Fraction(1, 2)}

    def test_disjoint_routes_get_full_rate(self):
        routes = {"a": [("u", "v")], "b": [("x", "y")]}
        rates = maxmin_throughput(routes, {("u", "v"): 1, ("x", "y"): 1})
        assert rates == {"a": Fraction(1), "b": Fraction(1)}

    def test_three_flows_water_fill_by_hand(self):
        # three flows share link1; one of them alone also crosses link2.
        # water level rises to 1/3 where link1 saturates; everybody freezes.
        routes = {"A": [("l", "1"), ("l", "2")], "B": [("l", "1")], "C": [("l", "1")]}
        caps = {("l", "1"): 1, ("l", "2"): 1}
        rates = maxmin_throughput(routes, caps)
        assert rates == {
            "A": Fraction(1, 3),
            "B": Fraction(1, 3),
            "C": Fraction(1, 3),
        }

    def test_zero_capacity_route_is_an_error(self):
        with pytest.raises(ValueError) as excinfo:
            maxmin_throughput({"f": [("u", "v")]}, {("u", "v"): 0})
        assert str(excinfo.value) == "flow 'f' routed over zero-capacity edge ('u', 'v')"

    def test_missing_capacity_is_an_error(self):
        with pytest.raises(ValueError) as excinfo:
            maxmin_throughput({"f": [("u", "v")]}, {})
        assert str(excinfo.value) == "no capacity defined for edge ('u', 'v')"

    @settings(max_examples=120, deadline=None, derandomize=True, database=None)
    @given(data=st.data())
    def test_equals_progressive_filling(self, data):
        edges = [(a, b) for a in "uvw" for b in "uvw" if a != b]
        flow_ids = [f"f{i}" for i in range(8)]
        routes = data.draw(st.dictionaries(
            st.sampled_from(flow_ids),
            st.lists(st.sampled_from(edges), max_size=5),  # empty and repeated edges too
            max_size=8,
        ))
        rate = st.one_of(st.integers(1, 3), st.fractions(Fraction(1, 9), 3, max_denominator=9))
        capacities = dict(zip(edges, data.draw(st.lists(rate, min_size=6, max_size=6))))
        if data.draw(st.integers(0, 9)) == 0:  # sometimes a zero-capacity or missing edge
            broken = data.draw(st.sampled_from(edges))
            if data.draw(st.booleans()):
                capacities[broken] = 0
            else:
                del capacities[broken]
        demands = data.draw(st.dictionaries(
            st.sampled_from(flow_ids),
            st.one_of(st.just(0), st.fractions(0, 2, max_denominator=9)),  # around the levels
        ))
        try:
            expected = progressive_maxmin(routes, capacities, demands)
        except ValueError as exc:
            with pytest.raises(ValueError) as excinfo:
                maxmin_throughput(routes, capacities, demands)
            assert str(excinfo.value) == str(exc)
            return
        rates = maxmin_throughput(routes, capacities, demands)
        assert list(rates.items()) == list(expected.items())
        assert all(type(r) is Fraction for r in rates.values())
        assert is_maxmin_fair(routes, capacities, rates, demands)

    @pytest.mark.parametrize(
        "routes,caps",
        [
            ({"a": [("x", "y")], "b": [("x", "y")], "c": [("y", "z")]},
             {("x", "y"): 1, ("y", "z"): 2}),
            ({"a": [("x", "y"), ("y", "z")], "b": [("y", "z")]},
             {("x", "y"): Fraction(1, 2), ("y", "z"): 1}),
            ({"a": [("e", "1")], "b": [("e", "1"), ("e", "2")], "c": [("e", "2")]},
             {("e", "1"): 1, ("e", "2"): Fraction(1, 4)}),
        ],
    )
    def test_allocations_pass_the_fairness_oracle(self, routes, caps):
        rates = maxmin_throughput(routes, caps)
        assert is_maxmin_fair(routes, caps, rates)


def figure1_plans(figure1, figure1_flow, figure1_state, s2s4_failure):
    pre = route(figure1_state.copy(), figure1, FailureSet.none(), figure1_flow)
    fp = shortcut_fixpoint(figure1_state, figure1, s2s4_failure, figure1_flow)
    plans = [
        build_flow_plan(figure1, s2s4_failure, figure1_flow, pre, fp),
        background_flow_plan(figure1, s2s4_failure, "S2->H", ["S2", "S1", "H"]),
    ]
    return plans


def scanned_samples(timeline):
    """Reference: each sample's segment found by a scan over the segments."""
    rows = []
    for regime in analysis.REGIMES:
        segs = timeline.segments[regime]
        flow_ids = sorted(segs[0].rates)
        for flow_id in flow_ids:
            t = Fraction(0)
            while t < timeline.horizon:
                seg = next(s for s in segs if s.start <= t < s.end)
                rows.append((t, flow_id, seg.rates[flow_id], regime))
                t += timeline.sample_step
    return rows


def scan_and_sort_csv(timeline):
    """Reference: the scanned samples sorted by (regime, flow, time), one row each."""
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(["time", "flow", "rate", "regime"])
    for t, flow_id, rate, regime in sorted(
        scanned_samples(timeline), key=lambda r: (r[3], r[1], r[0])
    ):
        writer.writerow([repr(float(t)), flow_id, repr(float(rate)), regime])
    return buf.getvalue()


class TestTimeline:
    def test_three_regime_story(self, figure1, figure1_flow, figure1_state, s2s4_failure):
        plans = figure1_plans(figure1, figure1_flow, figure1_state, s2s4_failure)
        tl = convergence_timeline(
            plans, unit_capacities(figure1),
            failure_effective=2.0, control_plane_delay=2.0, shortcut_delay=0.2,
            sample_step=0.1, horizon=8.0,
        )
        control = tl.segments["control_plane"]
        window = [s for s in control if s.rates["S->D"] == 0]
        assert len(window) == 1
        assert window[0].end - window[0].start == Fraction(2)  # exact outage length
        assert window[0].rates["S2->H"] == Fraction(1)

        frr = tl.segments["frr_only"]
        plateau = [s for s in frr if s.start == Fraction(2)][0]
        assert plateau.rates["S->D"] == Fraction(1, 2)
        assert plateau.rates["S2->H"] == Fraction(1, 2)

        scut = tl.segments["frr_shortcut"]
        assert all(s.rates["S->D"] > 0 for s in scut if s.start >= Fraction(2))
        steady = [s for s in scut if s.start == Fraction(2) + Fraction(1, 5)][0]
        assert steady.rates["S->D"] == Fraction(1)
        assert steady.rates["S2->H"] == Fraction(1)

    def test_zero_shortcut_delay_matches_instant_convergence(
        self, figure1, figure1_flow, figure1_state, s2s4_failure
    ):
        plans = figure1_plans(figure1, figure1_flow, figure1_state, s2s4_failure)
        caps = unit_capacities(figure1)
        instant_cp = convergence_timeline(
            plans, caps, failure_effective=2.0, control_plane_delay=0.0,
            shortcut_delay=0.0, horizon=8.0,
        )
        zero_sc = convergence_timeline(
            plans, caps, failure_effective=2.0, control_plane_delay=2.0,
            shortcut_delay=0.0, horizon=8.0,
        )
        # the shortcut route equals the converged route here, so rates agree
        def rates_at(tl, regime, t):
            seg = next(s for s in tl.segments[regime] if s.start <= t < s.end)
            return seg.rates

        for t in (Fraction(0), Fraction(2), Fraction(3), Fraction(5)):
            assert rates_at(zero_sc, "frr_shortcut", t) == rates_at(
                instant_cp, "control_plane", t
            )

    def test_zero_control_delay_makes_all_regimes_identical_after_failure(
        self, figure1, figure1_flow, figure1_state, s2s4_failure
    ):
        plans = figure1_plans(figure1, figure1_flow, figure1_state, s2s4_failure)
        tl = convergence_timeline(
            plans, unit_capacities(figure1),
            failure_effective=2.0, control_plane_delay=0.0, shortcut_delay=0.2,
            horizon=8.0,
        )
        reference = [(s.start, s.end, dict(s.rates)) for s in tl.segments["control_plane"]]
        for regime in ("frr_only", "frr_shortcut"):
            assert [(s.start, s.end, dict(s.rates)) for s in tl.segments[regime]] == reference

    @pytest.mark.parametrize("delay", [Fraction(1, 2), Fraction(1), Fraction(2)])
    def test_outage_window_equals_control_plane_delay(
        self, figure1, figure1_flow, figure1_state, s2s4_failure, delay
    ):
        plans = figure1_plans(
            figure1, figure1_flow, figure1_state.copy(), s2s4_failure
        )
        tl = convergence_timeline(
            plans, unit_capacities(figure1),
            failure_effective=2.0, control_plane_delay=delay, shortcut_delay=0.05,
            horizon=8.0,
        )
        window = [s for s in tl.segments["control_plane"] if s.rates["S->D"] == 0]
        assert sum((s.end - s.start for s in window), Fraction(0)) == delay

    def test_capacity_conservation_at_every_segment(
        self, figure1, figure1_flow, figure1_state, s2s4_failure
    ):
        plans = figure1_plans(figure1, figure1_flow, figure1_state, s2s4_failure)
        caps = unit_capacities(figure1)
        tl = convergence_timeline(
            plans, caps, failure_effective=2.0, control_plane_delay=2.0,
            shortcut_delay=0.2, horizon=8.0,
        )
        for segments in tl.segments.values():
            for seg in segments:
                per_edge: dict = {}
                for flow_id, edges in seg.routes.items():
                    for e in edges:
                        per_edge[e] = per_edge.get(e, 0) + seg.rates[flow_id]
                assert all(total <= caps[e] for e, total in per_edge.items())

    def test_negative_delay_is_an_error(self, figure1, figure1_flow, figure1_state, s2s4_failure):
        plans = figure1_plans(figure1, figure1_flow, figure1_state, s2s4_failure)
        with pytest.raises(ValueError, match="non-negative"):
            convergence_timeline(
                plans, unit_capacities(figure1),
                failure_effective=2.0, control_plane_delay=-1, shortcut_delay=0.1,
            )

    def test_background_route_must_avoid_the_failure(self, figure1, s2s4_failure):
        with pytest.raises(ValueError, match="crosses the failure"):
            background_flow_plan(figure1, s2s4_failure, "bad", ["S2", "S4", "D"])

    @pytest.mark.parametrize(
        "t_eff,cp,sc,horizon,calls",
        [
            (2, 2, Fraction(1, 5), 8, 5),  # pre, blackhole, frr, shortcut, converged
            (2, 2, 0, 8, 5),  # frr only in frr_only; shortcut right at the failure
            (2, 0, Fraction(1, 5), 8, 2),  # every failure phase clipped: pre, converged
            (0, 2, Fraction(1, 5), 8, 4),  # no pre phase
            (2, 2, Fraction(1, 5), Fraction(21, 10), 3),  # pre, blackhole, frr
        ],
    )
    def test_one_maxmin_per_distinct_route_set(
        self, figure1, figure1_flow, figure1_state, s2s4_failure, monkeypatch,
        t_eff, cp, sc, horizon, calls,
    ):
        plans = figure1_plans(figure1, figure1_flow, figure1_state, s2s4_failure)
        solved = []

        def counting(routes, capacities, demands=None):
            solved.append(dict(routes))
            return maxmin_throughput(routes, capacities, demands)

        monkeypatch.setattr(analysis, "maxmin_throughput", counting)
        tl = convergence_timeline(
            plans, unit_capacities(figure1), failure_effective=t_eff,
            control_plane_delay=cp, shortcut_delay=sc, horizon=horizon,
        )
        assert len(solved) == calls
        for segments in tl.segments.values():
            for seg in segments:
                present = {f: r for f, r in seg.routes.items() if r}
                assert present in solved
                rates = maxmin_throughput(present, unit_capacities(figure1))
                assert seg.rates == {f: rates.get(f, Fraction(0)) for f in seg.routes}

    @pytest.mark.parametrize(
        "t_eff,cp,sc,step,horizon",
        [
            (2, 2, Fraction(1, 5), Fraction(1, 10), 8),
            (2, 0, Fraction(1, 5), Fraction(2, 5), Fraction(53, 10)),  # clipped phases
            (0, 2, 0, Fraction(3, 10), Fraction(77, 20)),  # clipped pre and frr phases
            (Fraction(1, 3), 3, 1, Fraction(1, 7), 2),  # horizon clips the plateau
            (2, 2, Fraction(1, 5), 5, 9),  # fewer samples than segments
        ],
    )
    def test_rows_match_scan_and_sort(
        self, figure1, figure1_flow, figure1_state, s2s4_failure, t_eff, cp, sc, step, horizon
    ):
        plans = figure1_plans(figure1, figure1_flow, figure1_state, s2s4_failure)
        tl = convergence_timeline(
            plans, unit_capacities(figure1), failure_effective=t_eff,
            control_plane_delay=cp, shortcut_delay=sc, sample_step=step, horizon=horizon,
        )
        assert tl.samples() == scanned_samples(tl)
        assert tl.to_csv() == scan_and_sort_csv(tl)

    def test_csv_quotes_flow_ids_like_the_csv_module(self):
        seg = analysis.TimelineSegment(
            Fraction(0), Fraction(1), "", {'a,"b"': Fraction(1, 3), "c": Fraction(1)}, {}
        )
        tl = analysis.Timeline({r: [seg] for r in analysis.REGIMES}, Fraction(1, 4), Fraction(1))
        assert tl.to_csv() == scan_and_sort_csv(tl)
        assert '\n0.25,"a,""b""",0.3333333333333333,control_plane\n' in tl.to_csv()

    def test_csv_shape(self, figure1, figure1_flow, figure1_state, s2s4_failure):
        plans = figure1_plans(figure1, figure1_flow, figure1_state, s2s4_failure)
        tl = convergence_timeline(
            plans, unit_capacities(figure1),
            failure_effective=2.0, control_plane_delay=2.0, shortcut_delay=0.2,
            sample_step=0.5, horizon=4.0,
        )
        lines = tl.to_csv().splitlines()
        assert lines[0] == "time,flow,rate,regime"
        # 3 regimes x 2 flows x 8 samples
        assert len(lines) == 1 + 3 * 2 * 8
        buf = io.StringIO()
        tl.write_csv(buf)
        assert buf.getvalue() == tl.to_csv()

    def test_a_timeline_without_rows_writes_the_header(self):
        seg = analysis.TimelineSegment(Fraction(0), Fraction(1), "", {}, {})
        tl = analysis.Timeline({r: [seg] for r in analysis.REGIMES}, Fraction(1, 4), Fraction(1))
        buf = io.StringIO()
        tl.write_csv(buf)
        assert buf.getvalue() == tl.to_csv() == "time,flow,rate,regime\n"
