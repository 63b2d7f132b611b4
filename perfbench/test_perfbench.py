"""Tests of the benchmark itself, on tiny versions of every workload.

Run from the root of a checkout with ``python3 -m pytest perfbench``.
"""

from __future__ import annotations

import contextlib
import io
import json
import shutil
import subprocess
import sys
from dataclasses import replace
from fractions import Fraction
from pathlib import Path

import pytest

BENCH_DIR = Path(__file__).resolve().parent
sys.path.insert(0, str(BENCH_DIR))

import run  # noqa: E402

run.use_checkout_src()

import oracles  # noqa: E402
import spans  # noqa: E402
from frrsim import FailureSet, Flow, compile_partition_frr, shortcut_fixpoint  # noqa: E402
from frrsim.forwarding import ForwardingState  # noqa: E402
from frrsim.frr import PartitionScheme  # noqa: E402
from frrsim.scenarios import FIGURE1_PATHS  # noqa: E402
from frrsim.topology import figure1_topology  # noqa: E402

SPEC = run.spec()
NAMES = list(run.WORKLOAD_NAMES)
SIMULATED = {"violation_share", "frr_failed_share", "hops_saved_share", "stretch_after_mean"}


@pytest.fixture(autouse=True)
def _work_in_tmp(tmp_path, monkeypatch):
    monkeypatch.setattr(run, "WORK", tmp_path / "work")


def _tiny(name: str, trace: bool) -> dict:
    return run.run_workload(name, seed=3, seconds=0, trace=trace, setup_repeats=0, tiny=True)


def _last_json_line(result: dict, trace: bool) -> dict:
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        run._report(result, trace)
    return json.loads(out.getvalue().strip().splitlines()[-1])


def test_every_workload_is_defined():
    import workloads

    assert set(workloads.WORKLOADS) == set(NAMES)
    assert {w["name"] for w in SPEC["workloads"]} <= set(NAMES)


@pytest.mark.parametrize("name", NAMES)
def test_every_metric_is_emitted_with_its_unit(name):
    untraced, traced = _tiny(name, False), _tiny(name, True)
    for result, trace, section in ((untraced, False, "end_to_end"), (traced, True, "per_layer")):
        assert result["correct"], result["evaluation"].oracle_problems
        line = _last_json_line(result, trace)
        assert set(line) == {"correct", "attempted", "failed", "metrics"}
        assert line["attempted"] >= 1 and line["failed"] == 0
        assert {k: v["unit"] for k, v in line["metrics"].items()} == {
            m["name"]: m["unit"] for m in SPEC[section]}
    expected = SIMULATED | ({"shortcut_rate_gain"} if name == "cli-schemes" else set())
    assert set(untraced["simulated"]) == expected


@pytest.mark.parametrize("name", NAMES)
def test_simulated_metrics_repeat_exactly(name):
    first, second = _tiny(name, False), _tiny(name, False)
    assert first["simulated"] == second["simulated"]
    assert first["evaluation"].digest.hexdigest() == second["evaluation"].digest.hexdigest()
    assert first["layers"] == second["layers"] == {}


def test_known_partition_defect_is_counted_not_failed():
    result = _tiny("cli-schemes", False)
    ev = result["evaluation"]
    assert ev.known_defects["rounds_mismatch"] > 0
    assert ev.failed == 0
    assert result["simulated"]["violation_share"] == ev.problem_cases / ev.attempted > 0


def _figure1_fixpoint():
    topology = figure1_topology()
    flow = Flow("S", "D")
    failures = FailureSet.of(links=[("S2", "S4")])
    scheme = PartitionScheme(flow=flow, paths=FIGURE1_PATHS, relaxed=True)
    fp = shortcut_fixpoint(compile_partition_frr(topology, scheme, flow), topology, failures, flow)
    return topology, flow, failures, fp


def test_case_oracle_accepts_the_true_trace_and_flags_corrupted_ones():
    topology, flow, failures, fp = _figure1_fixpoint()
    graph = oracles.graph_of(topology.nodes, topology.links)
    good = oracles.CaseRecord(
        source=flow.source, destination=flow.destination,
        failed_links=failures.failed_links, failed_nodes=failures.failed_nodes,
        initial_path=fp.initial_trace.node_path(), final_path=fp.final_trace.node_path(),
        final_outcome=fp.final_trace.outcome.value,
        hops_after=fp.final_trace.hop_count, stretch_after=1.0,
    )
    assert good.final_path == ("S", "S1", "S3", "S4", "D")
    assert oracles.check_case(graph, good) == []
    looped = ("S", "S1", "S2", "S1", "S3", "S4", "D")
    dead = ("S", "S1", "S2", "S4", "D")
    corrupted = {
        "final_not_simple": replace(good, final_path=looped, hops_after=6, stretch_after=1.5),
        "final_not_in_initial_walk": replace(good, initial_path=looped[:3]),
        "final_uses_dead_link": replace(good, final_path=dead, initial_path=dead),
        "stretch_mismatch": replace(good, stretch_after=1.25),
        "hops_after_mismatch": replace(good, hops_after=5),
        "final_not_delivered": replace(good, final_outcome="loop"),
    }
    for problem, record in corrupted.items():
        assert problem in oracles.check_case(graph, record), problem


def test_arborescence_and_maxmin_oracles_flag_bad_outputs():
    graph = oracles.graph_of("abc", [("a", "b"), ("b", "c"), ("a", "c")])
    good = [{"a": "c", "b": "a"}, {"b": "c", "a": "b"}]
    assert oracles.check_arborescences(graph, "c", 2, good, 2) == []
    cycle = [{"a": "c", "b": "a"}, {"a": "b", "b": "a"}]
    assert "not_an_arborescence_toward_root" in oracles.check_arborescences(graph, "c", 2, cycle, 2)
    shared = [{"a": "c", "b": "a"}, {"a": "c", "b": "c"}]
    assert "arcs_shared" in oracles.check_arborescences(graph, "c", 2, shared, 2)
    assert "k_exceeds_edge_connectivity" in oracles.check_arborescences(graph, "c", 2, good, 1)

    caps = {("a", "b"): Fraction(1), ("b", "c"): Fraction(1)}
    routes = {"f": [("a", "b"), ("b", "c")], "g": [("b", "c")]}
    fair = {"f": Fraction(1, 2), "g": Fraction(1, 2)}
    assert oracles.check_maxmin(routes, fair, caps) == set()
    over = {"f": Fraction(1), "g": Fraction(1, 2)}
    assert oracles.check_maxmin(routes, over, caps) == {"f", "g"}
    unsaturated = {"f": Fraction(1, 4), "g": Fraction(1, 2)}
    assert oracles.check_maxmin(routes, unsaturated, caps) == {"f", "g"}
    starved = {"f": Fraction(1, 4), "g": Fraction(3, 4)}
    assert oracles.check_maxmin(routes, starved, caps) == {"f"}


def test_wrapper_on_a_missing_target_reports_zero_calls(monkeypatch):
    tracer = spans.Tracer()
    monkeypatch.delattr(ForwardingState, "copy")
    tracer.install()
    try:
        mark = tracer.mark()
        assert not hasattr(ForwardingState, "copy")
        totals = tracer.layer_totals(mark)
    finally:
        tracer.uninstall()
    assert totals["forwarding.copy.calls"] == 0
    assert tracer.wrap(object(), "no_such_attribute", "forwarding.copy") is False


def test_wrappers_record_nested_spans_and_restore_targets():
    import frrsim.analysis as analysis

    original = analysis.shortest_path_length
    tracer = spans.Tracer()
    tracer.install()
    try:
        mark = tracer.mark()
        topology, flow, failures, fp = _figure1_fixpoint()
        analysis.stretch(fp.final_trace, topology, failures, flow)
        totals = tracer.layer_totals(mark)
    finally:
        tracer.uninstall()
    assert analysis.shortest_path_length is original
    # Only names looked up at call time are traced: the test's own
    # shortcut_fixpoint was bound before install, the route it calls was not.
    assert totals["shortcut.fixpoint.calls"] == 0
    assert totals["forwarding.route.calls"] == 2
    assert totals["count.hops"] == fp.initial_trace.hop_count + fp.final_trace.hop_count
    assert totals["analysis.stretch.calls"] == 1
    assert totals["topology.shortest_path.calls"] == 1
    assert totals["analysis.stretch.self_s"] <= totals["analysis.stretch.s"]


def test_fails_without_a_result_outside_a_checkout(tmp_path):
    shutil.copytree(BENCH_DIR, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(run.ROOT / "BENCHMARK.json", tmp_path)
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "sweep-arb", "--seed", "0",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout
