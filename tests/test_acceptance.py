"""Acceptance suite: every release-gating property at its stated tolerance.

Run with ``pytest tests/test_acceptance.py -v -s`` to see one line per
criterion. The heavyweight sweep (five graph families plus twenty seeded
random graphs, every ordered flow pair, every single link failure) is run
once and shared across the criteria that inspect it.
"""

from __future__ import annotations

import json
import time
from fractions import Fraction

import pytest
from click.testing import CliRunner

from frrsim import (
    FailureSet,
    Flow,
    Topology,
    build_topology,
    compile_arborescence_frr,
    compile_partition_frr,
    decompose_arborescences,
    edge_connectivity,
    link_loads,
    maxmin_throughput,
    route,
    run_failure_sweep,
    shortcut_fixpoint,
)
from frrsim.analysis import (
    background_flow_plan,
    build_flow_plan,
    convergence_timeline,
    enumerate_link_failures,
    enumerate_node_failures,
    unit_capacities,
)
from frrsim.cli import main as cli_main
from frrsim.frr import PartitionScheme
from frrsim.scenarios import FIGURE1_PATHS, figure1_config
from frrsim.topology import figure1_topology

SWEEP_FAMILIES = [
    "complete(4)",
    "complete(5)",
    "hypercube(3)",
    "torus(3,3)",
    "torus(4,4)",
] + [
    {"kind": "random", "n": 8 + (i % 5), "p": 0.5, "seed": 100 + i, "min_edge_connectivity": 3}
    for i in range(20)
]


def _arborescence_compiler(topology, k):
    cache: dict[str, list] = {}

    def compile_state(flow):
        if flow.destination not in cache:
            cache[flow.destination] = decompose_arborescences(topology, flow.destination, k)
        return compile_arborescence_frr(topology, cache[flow.destination], flow)

    return compile_state


@pytest.fixture(scope="module")
def figure1_fixpoint():
    topology = figure1_topology()
    flow = Flow("S", "D")
    failures = FailureSet.of(links=[("S2", "S4")])
    scheme = PartitionScheme(flow=flow, paths=FIGURE1_PATHS, relaxed=True)
    scheme.validate(topology)
    started = time.perf_counter()
    state = compile_partition_frr(topology, scheme, flow)
    fp = shortcut_fixpoint(state, topology, failures, flow)
    elapsed = time.perf_counter() - started
    return topology, flow, failures, state, fp, elapsed


@pytest.fixture(scope="module")
def full_sweep_reports():
    """Criterion 2/3/6 workload: every family, all flows, all link failures."""
    reports = {}
    started = time.perf_counter()
    for desc in SWEEP_FAMILIES:
        topology = build_topology(desc)
        k = edge_connectivity(topology)
        assert k >= 3
        flows = [Flow(a, b) for a in topology.nodes for b in topology.nodes if a != b]
        reports[str(desc)] = run_failure_sweep(
            topology,
            _arborescence_compiler(topology, k),
            flows,
            enumerate_link_failures(topology),
        )
    elapsed = time.perf_counter() - started
    return reports, elapsed


def test_criterion_1_exact_trace_reproduction(figure1_fixpoint):
    """Failure S2-S4: reroute walk and shortcut route match exactly."""
    _, _, _, _, fp, elapsed = figure1_fixpoint
    assert fp.initial_trace.path_string() == "S-S1-S2-S1-S3-S4-D"
    assert fp.final_trace.path_string() == "S-S1-S3-S4-D"
    assert fp.rounds == 1
    assert elapsed < 1.0
    print(
        f"\nPASS criterion 1: exact trace reproduction "
        f"({fp.initial_trace.path_string()} -> {fp.final_trace.path_string()}, "
        f"rounds=1, {elapsed * 1000:.0f} ms)"
    )


def test_criterion_2_single_link_failover_sweep(full_sweep_reports):
    """Every family, flow, and single link failure: delivered, simple, subpath."""
    reports, elapsed = full_sweep_reports
    total = 0
    for name, report in reports.items():
        total += report.total_cases
        assert report.frr_failures == 0, name
        for kind in ("not_delivered", "not_simple", "not_subpath", "exception"):
            assert report.violations_by_kind.get(kind, 0) == 0, (name, kind)
        for case in report.cases:
            assert case.verdict == "delivered", (name, case)
    assert elapsed < 300.0
    print(
        f"\nPASS criterion 2: {total} cases across {len(reports)} topologies, "
        f"0 violations, 0 exceptions ({elapsed:.1f} s)"
    )


def test_criterion_3_single_round_convergence(full_sweep_reports):
    """Rounds = 1 exactly when the reroute walk looped, 0 otherwise."""
    reports, _ = full_sweep_reports
    looped = clean = 0
    for name, report in reports.items():
        assert report.violations_by_kind.get("rounds_mismatch", 0) == 0, name
        for case in report.cases:
            expected = 1 if case.looped_before else 0
            assert case.rounds == expected, (name, case)
            looped += case.looped_before
            clean += not case.looped_before
    print(
        f"\nPASS criterion 3: rounds==1 for all {looped} looped walks, "
        f"rounds==0 for all {clean} loop-free ones"
    )


def test_criterion_4_throughput_contention():
    """Exactly 0.5 each while looping, exactly 1.0 for the bystander after."""
    topology = figure1_topology()
    caps = unit_capacities(topology)
    frr_routes = {
        "S->D": [("S", "S1"), ("S1", "S2"), ("S2", "S1"), ("S1", "S3"), ("S3", "S4"), ("S4", "D")],
        "S2->H": [("S2", "S1"), ("S1", "H")],
    }
    frr_rates = maxmin_throughput(frr_routes, caps)
    assert frr_rates["S->D"] == Fraction(1, 2)
    assert frr_rates["S2->H"] == Fraction(1, 2)

    shortcut_routes = {
        "S->D": [("S", "S1"), ("S1", "S3"), ("S3", "S4"), ("S4", "D")],
        "S2->H": [("S2", "S1"), ("S1", "H")],
    }
    shortcut_rates = maxmin_throughput(shortcut_routes, caps)
    assert shortcut_rates["S2->H"] == Fraction(1)
    assert shortcut_rates["S->D"] == Fraction(1)
    print(
        "\nPASS criterion 4: contention 1/2 + 1/2 while looping, "
        "bystander back to 1 after the shortcut (exact rationals)"
    )


def test_criterion_5_timeline_regimes(figure1_fixpoint):
    """2 s outage under control plane only; shortcut keeps the flow alive."""
    topology, flow, failures, state, fp, _ = figure1_fixpoint
    scheme = PartitionScheme(flow=flow, paths=FIGURE1_PATHS, relaxed=True)
    pristine = compile_partition_frr(topology, scheme, flow)
    pre = route(pristine, topology, FailureSet.none(), flow)
    plans = [
        build_flow_plan(topology, failures, flow, pre, fp),
        background_flow_plan(topology, failures, "S2->H", ["S2", "S1", "H"]),
    ]
    tl = convergence_timeline(
        plans, unit_capacities(topology),
        failure_effective=2.0, control_plane_delay=2.0, shortcut_delay=0.2,
        sample_step=0.1, horizon=8.0,
    )
    outage = [s for s in tl.segments["control_plane"] if s.rates[flow.flow_id] == 0]
    assert len(outage) == 1
    assert outage[0].start == Fraction(2)
    assert outage[0].end - outage[0].start == Fraction(2)

    t_eff = Fraction(2)
    shortcut_samples = [
        (t, rate)
        for (t, f, rate, regime) in tl.samples()
        if regime == "frr_shortcut" and f == flow.flow_id and t >= t_eff
    ]
    assert shortcut_samples and all(rate > 0 for _, rate in shortcut_samples)

    frr_plateau = next(s for s in tl.segments["frr_only"] if s.start == t_eff)
    shortcut_steady = next(
        s for s in tl.segments["frr_shortcut"] if s.start == t_eff + Fraction(1, 5)
    )
    assert shortcut_steady.rates[flow.flow_id] >= frr_plateau.rates[flow.flow_id]
    print(
        "\nPASS criterion 5: 2 s zero-rate window under control plane only; "
        "shortcut rate positive at every sample and steady "
        f"{shortcut_steady.rates[flow.flow_id]} >= frr {frr_plateau.rates[flow.flow_id]}"
    )


def test_criterion_6_load_monotonicity(full_sweep_reports):
    """Shortcutting never adds load to a link, and unloads looped ones."""
    reports, _ = full_sweep_reports
    checked = 0
    for name, report in reports.items():
        for kind in ("load_increase", "load_not_reduced"):
            assert report.violations_by_kind.get(kind, 0) == 0, (name, kind)
        for case in report.cases:
            # recomputed from the walks, not read from the checker under test
            before = link_loads([case.fixpoint.initial_trace])
            after = link_loads([case.fixpoint.final_trace])
            assert all(n <= before.get(e, 0) for e, n in after.items()), (name, case)
            assert case.hops_after <= case.hops_before, (name, case)
            if case.looped_before:
                assert any(after.get(e, 0) < n for e, n in before.items()), (name, case)
                assert case.hops_after < case.hops_before, (name, case)
                checked += 1
    print(
        f"\nPASS criterion 6: per-link loads never grew; strictly reduced in all "
        f"{checked} looped cases"
    )


def test_criterion_7_node_failures():
    """Single node failures on complete(5): no shortcut-induced violations."""
    topology = build_topology("complete(5)")
    flows = [Flow(a, b) for a in topology.nodes for b in topology.nodes if a != b]
    report = run_failure_sweep(
        topology,
        _arborescence_compiler(topology, 4),
        flows,
        enumerate_node_failures(topology),
    )
    assert report.total_violations == 0
    delivered = sum(1 for c in report.cases if c.verdict == "delivered")
    print(
        f"\nPASS criterion 7: node-failure sweep on complete(5): {delivered} delivered, "
        f"{report.frr_failures} reported separately as frr failures, 0 violations"
    )


def test_criterion_8_partition_cross_loop():
    """4-cycle: the loop spanning partitions a-b-a is removed exactly."""
    square = Topology(
        ["a", "b", "c", "d"], [("a", "b"), ("b", "c"), ("c", "d"), ("a", "d")]
    )
    flow = Flow("a", "c")
    scheme = PartitionScheme(flow=flow, paths=(("a", "b", "c"), ("a", "d", "c")))
    scheme.validate(square)
    state = compile_partition_frr(square, scheme, flow)
    fp = shortcut_fixpoint(state, square, FailureSet.of(links=[("b", "c")]), flow)
    assert fp.initial_trace.path_string() == "a-b-a-d-c"
    assert fp.final_trace.path_string() == "a-d-c"
    print("\nPASS criterion 8: cross-partition loop removed (a-b-a-d-c -> a-d-c)")


def test_criterion_9_determinism(tmp_path):
    """Any scenario run twice produces byte-identical output files."""
    runner = CliRunner()
    config_path = tmp_path / "figure1.json"
    config_path.write_text(json.dumps(figure1_config(), indent=2, sort_keys=True) + "\n")
    snapshots = []
    for name in ("first", "second"):
        outdir = tmp_path / name
        for command in ("run", "timeline"):
            result = runner.invoke(
                cli_main, [command, str(config_path), "--output-dir", str(outdir)]
            )
            assert result.exit_code == 0, result.output
        snapshots.append({f.name: f.read_bytes() for f in sorted(outdir.iterdir())})
    assert snapshots[0] == snapshots[1]
    assert set(snapshots[0]) == {
        "traces.json", "audit.jsonl", "report.csv", "report.json", "timeline.csv",
    }
    print("\nPASS criterion 9: run and timeline outputs byte-identical across runs")
