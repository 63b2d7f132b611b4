from __future__ import annotations

import copy
import hashlib
import heapq
import itertools
import json
import random

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

import frrsim.frr as frr_module
import frrsim.topology as topology_module
from frrsim import (
    Arborescence,
    FailureSet,
    Flow,
    Topology,
    build_greedy_dag,
    build_topology,
    compile_arborescence_frr,
    compile_greedy_frr,
    compile_partition_frr,
    compute_disjoint_paths,
    decompose_arborescences,
    edge_connectivity,
    route,
    shortest_path_length,
)
from frrsim.analysis import enumerate_link_failures
from frrsim.forwarding import MODE_SUFFIX, ForwardingState, PortTable
from frrsim.frr import DecompositionError, PartitionScheme, validate_disjoint
from frrsim.scenarios import FIGURE1_PATHS
from frrsim.topology import unit_max_flow


def brute_force_three_arborescences_exist(topology: Topology, root: str) -> bool:
    """Oracle: exhaustive search for 3 arc-disjoint spanning arborescences."""
    others = [v for v in topology.nodes if v != root]
    choices = [topology.neighbors(v) for v in others]

    def parent_maps():
        for combo in itertools.product(*choices):
            yield dict(zip(others, combo))

    def valid(parent) -> bool:
        for v in parent:
            seen = {v}
            cur = v
            while cur != root:
                cur = parent.get(cur)
                if cur is None or cur in seen:
                    return False
                seen.add(cur)
        return True

    candidates = [p for p in parent_maps() if valid(p)]
    arcs = [frozenset((v, p[v]) for v in p) for p in candidates]
    for i, j, k in itertools.combinations(range(len(candidates)), 3):
        if not (arcs[i] & arcs[j]) and not (arcs[i] & arcs[k]) and not (arcs[j] & arcs[k]):
            return True
    return False


class TestDecomposition:
    def test_k4_packs_three(self):
        t = build_topology("complete(4)")
        assert brute_force_three_arborescences_exist(t, "0")
        arbs = decompose_arborescences(t, "0", 3)
        assert len(arbs) == 3
        validate_disjoint(arbs, t)

    def test_figure1_k1_is_shortest_path_tree(self, figure1):
        (arb,) = decompose_arborescences(figure1, "D", 1)
        assert arb.parent == {
            "S": "S1", "H": "S1", "S1": "S2", "S2": "S4", "S3": "S4", "S4": "D",
        }
        no_fail = FailureSet.none()
        for v in figure1.nodes:
            if v == "D":
                continue
            tree_hops = len(arb.path_to_root(v)) - 1
            assert tree_hops == shortest_path_length(figure1, no_fail, v, "D")

    @pytest.mark.parametrize("desc,k", [("torus(3,3)", 4), ("complete(5)", 4), ("hypercube(3)", 3)])
    def test_full_packing_at_edge_connectivity(self, desc, k):
        t = build_topology(desc)
        assert edge_connectivity(t) == k
        for root in t.nodes[:3]:
            arbs = decompose_arborescences(t, root, k)
            assert len(arbs) == k
            validate_disjoint(arbs, t)

    def test_k_beyond_connectivity_is_an_error(self, figure1):
        with pytest.raises(ValueError, match="exceeds edge connectivity"):
            decompose_arborescences(figure1, "D", 2)

    def test_validator_rejects_shared_arcs(self, triangle):
        a1 = Arborescence(root="c", parent={"a": "c", "b": "c"})
        a2 = Arborescence(root="c", parent={"a": "c", "b": "a"})
        with pytest.raises(Exception, match="reused"):
            validate_disjoint([a1, a2], triangle)

    def test_validator_rejects_a_cycle(self, square):
        # b and c point at each other, so a, b and c never reach d
        arb = Arborescence(root="d", parent={"a": "b", "b": "c", "c": "b"})
        with pytest.raises(DecompositionError, match="parent map contains a cycle"):
            arb.validate(square)

    def test_validator_rejects_a_map_that_does_not_span(self, square):
        arb = Arborescence(root="d", parent={"a": "d", "c": "d"})
        with pytest.raises(DecompositionError, match="does not span all nodes"):
            arb.validate(square)


def grow_out_tree_by_resorting(residual, order, root, need, witness):
    """``frr._grow_out_tree`` as it stood before the frontier heap, verbatim but
    for the residual and the witness flows shared across a root's trees, from
    which it discards the arcs it commits: the candidates are re-sorted after
    every commit and the arcs found unsafe are kept in a set."""
    unsafe = set()
    spanned = {root}
    depth = {root: 0}
    tree = set()
    while len(spanned) < len(order):
        candidates = sorted(
            ((u, v) for u in spanned for v in residual.get(u, ())
             if v not in spanned and (u, v) not in unsafe),
            key=lambda a: (depth[a[0]], a[0], a[1]),
        )
        for u, v in candidates:
            if need == 0 or frr_module._arc_safe(residual, order, need, (u, v), witness):
                residual[u].discard(v)
                tree.add((u, v))
                spanned.add(v)
                depth[v] = depth[u] + 1
                break
            unsafe.add((u, v))
        else:
            raise DecompositionError(
                f"no extendable arc while packing arborescences at root {root!r}"
            )
    return {v: u for (u, v) in tree}


def grow_out_tree_retesting_unsafe_arcs(residual, order, root, need, witness):
    """``grow_out_tree_by_resorting`` without its set of arcs already found unsafe."""
    spanned, depth, tree = {root}, {root: 0}, set()
    while len(spanned) < len(order):
        candidates = sorted(
            ((u, v) for u in spanned for v in residual.get(u, ()) if v not in spanned),
            key=lambda a: (depth[a[0]], a[0], a[1]),
        )
        for u, v in candidates:
            if need == 0 or frr_module._arc_safe(residual, order, need, (u, v), witness):
                residual[u].discard(v)
                tree.add((u, v))
                spanned.add(v)
                depth[v] = depth[u] + 1
                break
    return {v: u for (u, v) in tree}


def grow_out_tree_from_scratch(residual, order, root, need, witness):
    """``frr._grow_out_tree`` with no witness flows: a candidate arc is safe when
    a fresh ``unit_max_flow(limit=need)`` still finds ``need`` paths from root
    to every node without it."""
    parent = {}
    frontier = [(0, root, v) for v in residual[root]]
    heapq.heapify(frontier)
    while len(parent) < len(order) - 1:
        depth, u, v = heapq.heappop(frontier)
        if v == root or v in parent:
            continue
        residual[u].discard(v)
        if need and any(unit_max_flow(residual, root, x, limit=need) < need
                        for x in order if x != root):
            residual[u].add(v)
            continue
        parent[v] = u
        for w in residual[v]:
            heapq.heappush(frontier, (depth + 1, v, w))
    return parent


def decompose_every_root_and_k(t):
    lam = edge_connectivity(t)
    return [[a.parent for a in decompose_arborescences(t, root, k)]
            for root in t.nodes for k in range(1, lam + 1)]


def witness_arcs(witness, x):
    return {(a, b) for a, heads in witness.succ[x].items() for b in heads}


def assert_witnesses_hold(witness, residual, root, need):
    """Every witness is a root->x flow of value >= need inside the residual,
    kept as net arcs with ``succ`` and ``pred`` mirroring each other."""
    for x, value in witness.value.items():
        arcs = witness_arcs(witness, x)
        assert arcs == {(a, b) for b, tails in witness.pred[x].items() for a in tails}, x
        net = dict.fromkeys(residual, 0)
        for a, b in arcs:
            assert b in residual[a], (x, a, b)
            assert (b, a) not in arcs, (x, a, b)
            net[a] -= 1
            net[b] += 1
        assert net.pop(x) == -net.pop(root) == value >= need, x
        assert set(net.values()) <= {0}, x


# sha256 over the decomposition and disjoint-path outputs of
# test_outputs_are_pinned, captured before witness flows and the reverse-arc
# index in unit_max_flow: any change in the chosen arcs must show here.
DECOMPOSITION_DIGEST = "82497783474719371ce4a3ffa3b3050cacf8d83bc3138a08bbbbaf606c61a103"
PINNED_SPECS = ["torus(4,4)", "hypercube(4)", "complete(6)"] + [
    {"kind": "random", "n": 9, "p": 0.5, "seed": s, "min_edge_connectivity": 2}
    for s in (1, 2, 3)
]


class TestDecompositionOutputsAndWork:
    def test_outputs_are_pinned(self):
        h = hashlib.sha256()
        for spec in PINNED_SPECS:
            t = build_topology(spec)
            lam = edge_connectivity(t)
            for root in t.nodes:
                for k in range(1, lam + 1):
                    arbs = decompose_arborescences(t, root, k)
                    parents = [sorted(a.parent.items()) for a in arbs]
                    h.update(json.dumps([root, k, parents]).encode())
            for s, d in itertools.permutations(t.nodes, 2):
                scheme = compute_disjoint_paths(t, Flow(s, d), lam)
                h.update(json.dumps([s, d, scheme.paths]).encode())
        assert h.hexdigest() == DECOMPOSITION_DIGEST

    def test_rechecks_only_what_a_candidate_arc_can_break(self, monkeypatch):
        calls = {"frr": 0, "topology": 0, "search": 0}

        def counting(module, name, attr):
            inner = getattr(module, attr)

            def wrapped(*args, **kwargs):
                calls[name] += 1
                return inner(*args, **kwargs)

            monkeypatch.setattr(module, attr, wrapped)

        counting(frr_module, "frr", "unit_max_flow")
        counting(topology_module, "topology", "unit_max_flow")
        counting(frr_module, "search", "augmenting_path")
        t = build_topology("torus(6,6)")
        decompose_arborescences(t, "0_0", 4)
        # One max flow per node for every candidate arc made 2,782 calls, and
        # one per witness the arc broke 500 to 1,000. Witnesses repaired from
        # tree to tree run none, below the n - 1 = 35 of one per node.
        assert calls["frr"] == 0
        # Building the witnesses takes k - 1 = 3 augmenting paths per node,
        # 105 in all; a repair searches only when an arc breaks a witness
        # with no unit to spare, 285 times here.
        assert calls["search"] <= 390
        assert calls["topology"] > 0
        calls.update(frr=0, topology=0)
        decompose_arborescences(t, "0_0", 4)
        assert calls["topology"] == 0  # edge connectivity is cached on t

    @pytest.mark.parametrize("spec", [
        "torus(4,4)",
        {"kind": "random", "n": 12, "p": 0.4, "seed": 5, "min_edge_connectivity": 2},
    ])
    def test_skipping_unsafe_arcs_keeps_the_arcs_and_saves_reroute_searches(
        self, monkeypatch, spec
    ):
        t = build_topology(spec)
        lam = edge_connectivity(t)
        calls = [0]
        inner = frr_module.augmenting_path

        def counting(*args, **kwargs):
            calls[0] += 1
            return inner(*args, **kwargs)

        def decompose_every_root():
            calls[0] = 0
            parents = [[a.parent for a in decompose_arborescences(t, root, lam)]
                       for root in t.nodes]
            return parents, calls[0]

        monkeypatch.setattr(frr_module, "augmenting_path", counting)
        parents, skipping = decompose_every_root()
        monkeypatch.setattr(frr_module, "_grow_out_tree", grow_out_tree_retesting_unsafe_arcs)
        reference, retesting = decompose_every_root()
        assert parents == reference
        assert skipping < retesting

    @pytest.mark.parametrize("spec", PINNED_SPECS)
    def test_the_heap_tests_the_arcs_the_resort_tested(self, monkeypatch, spec):
        t = build_topology(spec)
        lam = edge_connectivity(t)
        tested = []
        inner = frr_module._arc_safe

        def recording(residual, order, need, arc, witness):
            tested.append((need, arc))
            return inner(residual, order, need, arc, witness)

        def decompose_every_root():
            tested.clear()
            parents = [[a.parent for a in decompose_arborescences(t, root, lam)]
                       for root in t.nodes]
            return parents, list(tested)

        monkeypatch.setattr(frr_module, "_arc_safe", recording)
        heap = decompose_every_root()
        monkeypatch.setattr(frr_module, "_grow_out_tree", grow_out_tree_by_resorting)
        assert decompose_every_root() == heap

    @pytest.mark.parametrize("spec", PINNED_SPECS)
    def test_repaired_witnesses_choose_the_arcs_fresh_max_flows_choose(
        self, monkeypatch, spec
    ):
        t = build_topology(spec)
        repaired = decompose_every_root_and_k(t)
        monkeypatch.setattr(frr_module, "_grow_out_tree", grow_out_tree_from_scratch)
        assert decompose_every_root_and_k(t) == repaired

    @pytest.mark.parametrize("spec", PINNED_SPECS[:3])
    def test_a_rejected_arc_searches_only_its_head(self, monkeypatch, spec):
        t = build_topology(spec)
        searched, rejected = [], []
        inner_search, inner_safe = frr_module.augmenting_path, frr_module._arc_safe

        def recording(residual, order, succ, pred, s, d):
            searched.append(succ)
            return inner_search(residual, order, succ, pred, s, d)

        def checking(residual, order, need, arc, witness):
            searched.clear()
            if inner_safe(residual, order, need, arc, witness):
                return True
            rejected.append(arc)
            assert len(searched) == 1 and searched[0] is witness.succ[arc[1]]
            return False

        monkeypatch.setattr(frr_module, "augmenting_path", recording)
        monkeypatch.setattr(frr_module, "_arc_safe", checking)
        decompose_every_root_and_k(t)
        assert rejected

    def test_a_stalled_tree_raises_and_names_the_root(self, monkeypatch):
        monkeypatch.setattr(frr_module, "_arc_safe", lambda *args: False)
        with pytest.raises(DecompositionError, match="at root '0_0'"):
            decompose_arborescences(build_topology("torus(3,3)"), "0_0", 2)


@settings(max_examples=100, deadline=None, derandomize=True, database=None,
          suppress_health_check=[HealthCheck.too_slow])
@given(n=st.integers(3, 9), p=st.sampled_from([0.3, 0.5, 0.8]), seed=st.integers(0, 10_000))
def test_repaired_witnesses_match_fresh_max_flows_on_random_graphs(n, p, seed):
    """Random 2-edge-connected graphs: every root and k choose the arcs that
    from-scratch checking chooses, and after every tree each witness is still
    a flow inside the residual with a unit to spare for the next tree."""
    t = build_topology({"kind": "random", "n": n, "p": p, "seed": seed,
                        "min_edge_connectivity": 2})
    inner = frr_module._grow_out_tree

    def checking(residual, order, root, need, witness):
        parent = inner(residual, order, root, need, witness)
        if need:  # the last tree has nothing left to keep
            assert_witnesses_hold(witness, residual, root, need)
        return parent

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(frr_module, "_grow_out_tree", checking)
        repaired = decompose_every_root_and_k(t)
        mp.setattr(frr_module, "_grow_out_tree", grow_out_tree_from_scratch)
        assert decompose_every_root_and_k(t) == repaired


def witness_setup(links, paths=2):
    t = Topology(sorted({n for link in links for n in link}), links)
    order = t.arc_adjacency()
    residual = {u: set(vs) for u, vs in order.items()}
    return order, residual, frr_module._Witnesses(residual, order, "r", paths)


class TestWitnessRepair:
    """The two repairs on r-a, r-b, a-x, b-x plus either a detour a-c, c-x or
    only a-b, which leaves x no way in but from a or b. With two units the
    witness of x is r->a->x plus r->b->x, and arc (a, x) breaks it."""

    DETOUR = [("r", "a"), ("r", "b"), ("a", "x"), ("b", "x"), ("a", "c"), ("c", "x")]
    NO_DETOUR = [("r", "a"), ("r", "b"), ("a", "x"), ("b", "x"), ("a", "b")]
    X_WITNESS = {("r", "a"), ("a", "x"), ("r", "b"), ("b", "x")}

    def test_an_exact_witness_moves_its_unit_onto_a_detour(self):
        order, residual, witness = witness_setup(self.DETOUR)
        assert witness_arcs(witness, "x") == self.X_WITNESS
        assert frr_module._arc_safe(residual, order, 2, ("a", "x"), witness)
        assert "x" not in residual["a"]
        assert witness.value["x"] == 2
        assert witness_arcs(witness, "x") == self.X_WITNESS - {("a", "x")} | {
            ("a", "c"), ("c", "x")}
        assert witness.users(("a", "x")) == []
        assert_witnesses_hold(witness, residual, "r", 2)

    def test_no_detour_makes_the_arc_unsafe_and_changes_nothing(self):
        order, residual, witness = witness_setup(self.NO_DETOUR)
        assert witness_arcs(witness, "x") == self.X_WITNESS

        def state():
            return copy.deepcopy((residual, witness.value, witness.succ, witness.pred))

        before = state()
        assert not frr_module._arc_safe(residual, order, 2, ("a", "x"), witness)
        assert state() == before
        residual["a"].discard("x")
        assert unit_max_flow(residual, "r", "x") == 1

    def test_a_spare_unit_drops_one_walk_and_runs_no_search(self, monkeypatch):
        order, residual, witness = witness_setup(self.DETOUR)

        def no_search(*args):
            raise AssertionError("a witness with a unit to spare ran a search")

        monkeypatch.setattr(frr_module, "augmenting_path", no_search)
        assert frr_module._arc_safe(residual, order, 1, ("a", "x"), witness)
        assert witness.value["x"] == 1
        assert witness_arcs(witness, "x") == {("r", "b"), ("b", "x")}
        assert witness.users(("a", "x")) == []
        assert_witnesses_hold(witness, residual, "r", 1)


class TestArborescenceCompile:
    def test_figure1_k1_tables(self, figure1, figure1_flow):
        tree = Arborescence(
            root="D",
            parent={"S": "S1", "S1": "S2", "S2": "S4", "S3": "S4", "S4": "D", "H": "S1"},
        )
        state = compile_arborescence_frr(figure1, [tree], figure1_flow)
        assert state.tables["S1"].priority == ["S2"]
        assert state.tables["S2"].priority == ["S4"]

    def test_single_link_topology(self):
        t = Topology(["a", "b"], [("a", "b")])
        flow = Flow("a", "b")
        (arb,) = decompose_arborescences(t, "b", 1)
        state = compile_arborescence_frr(t, [arb], flow)
        assert state.tables["a"].priority == ["b"]
        assert state.tables["a"].start(None) == 1

    def test_k4_inport_starts_match_arborescence_index(self):
        t = build_topology("complete(4)")
        flow = Flow("1", "0")
        arbs = decompose_arborescences(t, "0", 3)
        state = compile_arborescence_frr(t, arbs, flow)
        for v in t.nodes:
            if v == "0":
                continue
            assert len(state.tables[v].priority) == 3
            for u in t.neighbors(v):
                j = state.tables[v].start(u)
                owners = [i for i, arb in enumerate(arbs, 1) if arb.parent.get(u) == v]
                if owners:
                    # arc-disjointness: exactly one arborescence owns (u, v)
                    assert owners == [j]
                else:
                    assert j == 1

    def test_wrong_root_is_an_error(self, figure1, figure1_flow):
        (arb,) = decompose_arborescences(figure1, "S4", 1)
        with pytest.raises(ValueError, match="rooted"):
            compile_arborescence_frr(figure1, [arb], figure1_flow)

    def test_reaches_destination_under_every_single_link_failure(self):
        # holds for every flow on a k-edge-connected graph with k arborescences
        t = build_topology("complete(4)")
        for dst in t.nodes:
            arbs = decompose_arborescences(t, dst, 3)
            for src in t.nodes:
                if src == dst:
                    continue
                flow = Flow(src, dst)
                state = compile_arborescence_frr(t, arbs, flow)
                for failures in enumerate_link_failures(t):
                    trace = route(state, t, failures, flow)
                    assert trace.outcome.value == "delivered"


class TestDisjointPaths:
    def test_figure1_single_path_prefers_lexicographic(self, figure1, figure1_flow):
        scheme = compute_disjoint_paths(figure1, figure1_flow, 1)
        assert scheme.paths == (("S", "S1", "S2", "S4", "D"),)

    def test_triangle_two_paths(self, triangle):
        scheme = compute_disjoint_paths(triangle, Flow("a", "b"), 2)
        assert scheme.paths == (("a", "b"), ("a", "c", "b"))

    def test_torus_four_paths_are_disjoint(self):
        t = build_topology("torus(3,3)")
        flow = Flow("0_0", "2_2")
        scheme = compute_disjoint_paths(t, flow, 4)
        assert len(scheme.paths) == 4
        scheme.validate(t)  # raises on shared links

    def test_k_beyond_max_flow_is_an_error(self, figure1, figure1_flow):
        with pytest.raises(ValueError, match="max-flow"):
            compute_disjoint_paths(figure1, figure1_flow, 2)

    def test_p1_is_shortest(self):
        t = build_topology("torus(3,3)")
        scheme = compute_disjoint_paths(t, Flow("0_0", "0_1"), 4)
        assert all(len(scheme.paths[0]) <= len(p) for p in scheme.paths)


class TestPartitionCompile:
    def test_figure1_bounceback_trace(self, figure1, figure1_flow, s2s4_failure):
        scheme = PartitionScheme(flow=figure1_flow, paths=FIGURE1_PATHS, relaxed=True)
        scheme.validate(figure1)
        state = compile_partition_frr(figure1, scheme, figure1_flow)
        trace = route(state, figure1, s2s4_failure, figure1_flow)
        assert trace.path_string() == "S-S1-S2-S1-S3-S4-D"

    def test_scheme_for_another_flow_is_rejected(self, square):
        scheme = compute_disjoint_paths(square, Flow("a", "c"), 2)
        with pytest.raises(ValueError, match="scheme was built for a different flow"):
            compile_partition_frr(square, scheme, Flow("c", "a"))

    def test_figure1_paths_need_the_relaxed_check(self, figure1, figure1_flow):
        strict = PartitionScheme(flow=figure1_flow, paths=FIGURE1_PATHS)
        with pytest.raises(ValueError, match="share links"):
            strict.validate(figure1)

    def test_triangle_failure_at_source_needs_no_backtrack(self, triangle):
        flow = Flow("a", "b")
        scheme = compute_disjoint_paths(triangle, flow, 2)
        state = compile_partition_frr(triangle, scheme, flow)
        trace = route(state, triangle, FailureSet.of(links=[("a", "b")]), flow)
        assert trace.path_string() == "a-c-b"

    def test_square_bounceback(self, square):
        flow = Flow("a", "c")
        scheme = PartitionScheme(flow=flow, paths=(("a", "b", "c"), ("a", "d", "c")))
        scheme.validate(square)
        state = compile_partition_frr(square, scheme, flow)
        trace = route(state, square, FailureSet.of(links=[("b", "c")]), flow)
        assert trace.path_string() == "a-b-a-d-c"

    def test_suffixes_are_contiguous_tails(self, figure1, figure1_flow):
        scheme = PartitionScheme(flow=figure1_flow, paths=FIGURE1_PATHS, relaxed=True)
        state = compile_partition_frr(figure1, scheme, figure1_flow)
        for table in state.tables.values():
            for j in table.inport_start.values():
                assert 1 <= j <= len(table.priority) + 1

    def test_delivers_under_every_single_failure_with_two_paths(self, square):
        flow = Flow("a", "c")
        scheme = compute_disjoint_paths(square, flow, 2)
        state = compile_partition_frr(square, scheme, flow)
        for failures in enumerate_link_failures(square):
            trace = route(state.copy(), square, failures, flow)
            assert trace.outcome.value == "delivered"

    def test_torus_two_paths_survive_every_single_failure(self):
        t = build_topology("torus(3,3)")
        for flow in [Flow("0_0", "2_2"), Flow("1_0", "0_2"), Flow("2_1", "0_0")]:
            scheme = compute_disjoint_paths(t, flow, 2)
            state = compile_partition_frr(t, scheme, flow)
            for failures in enumerate_link_failures(t):
                trace = route(state.copy(), t, failures, flow)
                assert trace.outcome.value == "delivered", (flow.flow_id, failures.label())

    @pytest.mark.parametrize("desc", ["torus(4,4)", "hypercube(4)", "complete(5)"])
    def test_partition_tags_never_decrease_along_a_priority_list(self, desc):
        # Suffix truncation relies on this: a later partition's entries sit
        # after every entry of the partitions before it. The compiled state
        # holds no path index; the reference layout, which it matches, does.
        t = build_topology(desc)
        for k in range(2, edge_connectivity(t) + 1):
            for a, b in itertools.permutations(t.nodes, 2):
                flow = Flow(a, b)
                scheme = compute_disjoint_paths(t, flow, k)
                _, entry_path = reference_compile_partition_frr(t, scheme, flow)
                for node, tags in entry_path.items():
                    assert tags == sorted(tags), (k, flow.flow_id, node)

    def test_mid_route_overlap_rejected_even_relaxed(self):
        t = Topology(
            ["s", "a", "b", "t"],
            [("s", "a"), ("s", "b"), ("a", "b"), ("a", "t"), ("b", "t")],
        )
        flow = Flow("s", "t")
        # both paths cross the a-b link mid-route; that is not a shared stub
        bad = PartitionScheme(
            flow=flow, paths=(("s", "a", "b", "t"), ("s", "b", "a", "t")), relaxed=True
        )
        with pytest.raises(ValueError, match="mid-route"):
            bad.validate(t)


def reference_compile_partition_frr(topology, scheme, flow):
    """The partition compiler as it stood before the one-pass layout, verbatim
    but for the names: the oracle the one-pass compiler must match. Also
    returns, per node, the path index of each priority entry, which the
    compiled state does not hold."""
    if (flow.source, flow.destination) != (scheme.flow.source, scheme.flow.destination):
        raise ValueError("scheme was built for a different flow")
    scheme.validate(topology)
    paths = scheme.paths
    k = len(paths)
    pos: list[dict[str, int]] = [{v: i for i, v in enumerate(p)} for p in paths]

    # Entry layout per node: per partition a forward entry, then (unless this
    # node is where the next path's identical prefix ends) a backward entry.
    entry_out: dict[str, list[str]] = {v: [] for v in topology.nodes}
    entry_tag: dict[str, list[int]] = {v: [] for v in topology.nodes}
    entry_idx: dict[str, dict[tuple[int, str], int]] = {v: {} for v in topology.nodes}

    def _add(v: str, out: str, part: int, role: str) -> None:
        entry_out[v].append(out)
        entry_tag[v].append(part)
        entry_idx[v][(part, role)] = len(entry_out[v])

    for i, path in enumerate(paths, start=1):
        for p in range(len(path) - 1):
            v = path[p]
            _add(v, path[p + 1], i, "fwd")
            if p > 0:
                switch_here = i < k and paths[i][: p + 1] == path[: p + 1]
                if not switch_here:
                    _add(v, path[p - 1], i, "back")

    tables: dict[str, PortTable] = {}
    for v in topology.nodes:
        prio = entry_out[v]
        starts: dict[str | None, int] = {None: 1}
        for u in topology.neighbors(v):
            starts[u] = reference_partition_inport_start(v, u, paths, pos, entry_idx[v], k)
        tables[v] = PortTable(prio, starts)
    return ForwardingState(flow, MODE_SUFFIX, tables), entry_tag


def reference_partition_inport_start(
    v: str,
    u: str,
    paths: tuple[tuple[str, ...], ...],
    pos: list[dict[str, int]],
    idx: dict[tuple[int, str], int],
    k: int,
) -> int:
    fwd: list[int] = []
    back: list[int] = []
    for i, path in enumerate(paths, start=1):
        p = pos[i - 1].get(v)
        if p is None or p == len(path) - 1:
            continue
        if p > 0 and path[p - 1] == u:
            fwd.append(i)
        if path[p + 1] == u:
            back.append(i)
    if fwd:
        return idx[(min(fwd), "fwd")]
    if back:
        i = min(back)
        if (i, "back") in idx:
            return idx[(i, "back")]
        if i < k and (i + 1, "fwd") in idx:
            # Backward arrival at the divergence point: jump to the next path.
            return idx[(i + 1, "fwd")]
        # Backward arrival on the last path at the source: nothing left, drop.
        return len(idx) + 1
    return 1


def random_relaxed_path_sets(topology, rng, tries):
    """Path sets that pass the relaxed check, each path after the first
    branching off a prefix of an earlier one, so that they share stubs."""
    nodes = topology.nodes
    for _ in range(tries):
        source, destination = rng.sample(nodes, 2)
        paths = []
        for _ in range(rng.randint(1, 4)):
            stem = rng.choice(paths) if paths else (source,)
            path = list(stem[: rng.randint(1, max(1, len(stem) - 1))])
            while path[-1] != destination:
                options = [w for w in topology.neighbors(path[-1]) if w not in path]
                if not options:
                    break
                path.append(rng.choice(options))
            if path[-1] == destination and tuple(path) not in paths:
                paths.append(tuple(path))
        scheme = PartitionScheme(flow=Flow(source, destination), paths=tuple(paths), relaxed=True)
        try:
            scheme.validate(topology)
        except ValueError:
            continue
        yield scheme


class TestPartitionCompileMatchesReference:
    """The one-pass compiler builds the same tables as the reference."""

    @staticmethod
    def assert_same_tables(topology, scheme):
        flow = scheme.flow
        assert (compile_partition_frr(topology, scheme, flow).to_json_dict()
                == reference_compile_partition_frr(topology, scheme, flow)[0].to_json_dict()), (
            scheme.paths)

    @pytest.mark.parametrize("desc", [
        "complete(5)", "torus(3,3)", "torus(4,4)", "hypercube(3)",
        {"kind": "random", "n": 9, "p": 0.5, "seed": 7, "min_edge_connectivity": 3},
    ])
    def test_strict_schemes_every_pair_and_k(self, desc):
        t = build_topology(desc)
        for a, b in itertools.permutations(t.nodes, 2):
            for k in range(1, edge_connectivity(t) + 1):
                self.assert_same_tables(t, compute_disjoint_paths(t, Flow(a, b), k))

    def test_figure1_paths(self, figure1, figure1_flow):
        self.assert_same_tables(
            figure1, PartitionScheme(flow=figure1_flow, paths=FIGURE1_PATHS, relaxed=True))

    @pytest.mark.parametrize("desc", ["complete(5)", "torus(3,3)", "hypercube(3)", "figure1"])
    def test_random_relaxed_path_sets(self, desc):
        t = build_topology(desc)
        schemes = list(random_relaxed_path_sets(t, random.Random(desc), 400))
        # enough of them branch off a shared stub to reach a divergence point
        assert sum(len(s.paths) > 1 and s.paths[0][1] == s.paths[1][1] for s in schemes) >= 10
        for scheme in schemes:
            self.assert_same_tables(t, scheme)


class TestGreedy:
    def test_path_graph_unique_choice(self):
        t = Topology(["a", "b", "c"], [("a", "b"), ("b", "c")])
        flow = Flow("a", "c")
        trace = route(compile_greedy_frr(t, flow), t, FailureSet.none(), flow)
        assert trace.path_string() == "a-b-c"

    def test_figure1_bounceback(self, figure1, figure1_flow, s2s4_failure):
        state = compile_greedy_frr(figure1, figure1_flow)
        trace = route(state, figure1, s2s4_failure, figure1_flow)
        assert trace.path_string() == "S-S1-S2-S1-S3-S4-D"

    def test_dag_orders_by_distance(self, figure1, figure1_flow):
        dag = build_greedy_dag(figure1, figure1_flow)
        assert dag.order["S1"] == ("S2", "S3")
        assert dag.order["S2"] == ("S4",)
        # listed next hops never increase the distance to the destination
        for v, nbrs in dag.order.items():
            for w in nbrs:
                assert dag.dist[w] <= dag.dist[v]

    def test_primary_edges_are_acyclic(self):
        t = build_topology("torus(3,3)")
        dag = build_greedy_dag(t, Flow("0_0", "2_2"))
        strict = {(v, w) for v, nbrs in dag.order.items() for w in nbrs if dag.dist[w] < dag.dist[v]}
        # strictly distance-decreasing edges cannot form a cycle
        assert all(dag.dist[w] == dag.dist[v] - 1 for v, w in strict)

    def test_torus_single_failure_sidesteps_optimally(self):
        # computed with the BFS oracle: greedy side-steps, no bounce needed
        t = build_topology("torus(3,3)")
        flow = Flow("0_0", "1_1")
        state = compile_greedy_frr(t, flow)
        assert route(state, t, FailureSet.none(), flow).path_string() == "0_0-0_1-1_1"
        failures = FailureSet.of(links=[("0_0", "0_1")])
        trace = route(state, t, failures, flow)
        assert trace.outcome.value == "delivered"
        assert trace.path_string() == "0_0-1_0-1_1"
        assert trace.hop_count == shortest_path_length(t, failures, "0_0", "1_1")
