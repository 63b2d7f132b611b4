"""Byte-identity gate: sha256 digests of the CLI artefacts for fixed scenarios.

Speed-ups must leave every output byte-identical, so these digests only
change with a deliberate behaviour change. Such a change updates the digests
below and records why in CHANGES.md. Scenarios: both bundled configs
(``run``, ``verify`` and, for figure1, ``timeline``), plus all-pairs link
sweeps that exercise greedy bounce-backs (hypercube(3)) and cross-partition
truncation (k=2 on torus(3,3)), a node sweep (arborescence k=4 on
torus(4,4); every failure set is rounds-checked, not only single links),
and an all-pairs timeline on torus(4,4) with mixed link rates, a
background flow and a ragged horizon. The names the package exports are
pinned here too.
"""

from __future__ import annotations

import hashlib
import json
import types
from pathlib import Path

import pytest
from click.testing import CliRunner

import frrsim
from frrsim import build_topology
from frrsim.cli import main

SCENARIOS = Path(__file__).resolve().parents[1] / "scenarios"

RUN_FILES = ("traces.json", "audit.jsonl", "report.csv", "report.json")


def _all_pairs_sweep(topology: dict, scheme: dict, failures: str = "sweep_links",
                     nodes: tuple[str, ...] | None = None) -> dict:
    """Every ordered pair of ``nodes`` (default: all) under one sweep kind."""
    nodes = nodes or build_topology(topology).nodes
    return {
        "topology": topology,
        "flows": [{"source": a, "destination": b} for a in nodes for b in nodes if a != b],
        "scheme": scheme,
        "failures": {"kind": failures},
    }


def _timeline_torus44() -> dict:
    """All-pairs partition k=2 timeline on torus(4,4) with mixed link rates."""
    config = _all_pairs_sweep({"kind": "torus", "a": 4, "b": 4}, {"kind": "partition", "k": 2})
    config["flows"].remove({"source": "0_0", "destination": "0_2"})  # the background flow's id
    edges = build_topology(config["topology"]).directed_edges()
    rates = (1, 2, "3/2")
    config["failures"] = {"kind": "explicit", "links": [["1_1", "1_2"]], "nodes": []}
    config["throughput"] = {
        "capacities": {f"{u},{v}": rates[i % 3] for i, (u, v) in enumerate(edges)},
        "background_flows": [
            {"source": "0_0", "destination": "0_2", "route": ["0_0", "0_1", "0_2"]}
        ],
        "failure_effective": 1.5,
        "control_plane_delay": 2.5,
        "shortcut_delay": 0.3,
        "sample_step": 0.25,
        "horizon": 7.1,
    }
    return config


GENERATED = {
    "greedy_hypercube3": _all_pairs_sweep({"kind": "hypercube", "d": 3}, {"kind": "greedy"}),
    "partition2_torus33": _all_pairs_sweep(
        {"kind": "torus", "a": 3, "b": 3}, {"kind": "partition", "k": 2}
    ),
    "timeline_torus44": _timeline_torus44(),
    # A node sweep skips every flow endpoint, so the pairs span four nodes,
    # leaving twelve to fail.
    "arborescence4_torus44_nodes": _all_pairs_sweep(
        {"kind": "torus", "a": 4, "b": 4}, {"kind": "arborescence", "k": 4}, "sweep_nodes",
        ("0_0", "1_2", "2_1", "3_3"),
    ),
}

# (scenario, command) -> (exit code, files whose digests are pinned)
RUNS = {
    ("figure1", "run"): (0, RUN_FILES),
    ("figure1", "verify"): (0, ("verify.json",)),
    ("figure1", "timeline"): (0, ("timeline.csv",)),
    ("torus_sweep", "run"): (0, RUN_FILES),
    ("torus_sweep", "verify"): (0, ("verify.json",)),
    ("greedy_hypercube3", "run"): (0, RUN_FILES),
    ("partition2_torus33", "run"): (0, RUN_FILES),
    ("arborescence4_torus44_nodes", "run"): (0, RUN_FILES),
    ("timeline_torus44", "timeline"): (0, ("timeline.csv",)),
}

GOLDEN = {
    ("arborescence4_torus44_nodes", "run"): {
        "traces.json": "100ec97d941f14c17ff370069680b713a6f4b0294ebfb21a20d04f8e048fff6b",
        "audit.jsonl": "2bb3afab0c97ac2e0c700284851b216f9e5b767b4eff68e12dfec199bc2d63de",
        "report.csv": "ecd16f9c65cbbeb01ccbf4abad9a0496e48145fe7d771a110653815021fb3344",
        "report.json": "c4d72b26e7f4464997842e23126b241ad8d88d140d276948d359cceca300958a",
    },
    ("figure1", "run"): {
        "traces.json": "30058912188b820c77c4db46b58bcb0c0780c0368bf7aeef67aaf71974a1fddd",
        "audit.jsonl": "7cca3c3ea30731dd766628217ba4b7df1bf418bab378d61f62626e8964f2e09a",
        "report.csv": "bd01e2236c84cb6f331d527a6f9f67b42c13595fe7755fef2baecbcc8ebc7f89",
        "report.json": "2662f1fee7c72bef705b2fcbeffbd736f3e26b687d53cc41abe397ad0242a32d",
    },
    ("figure1", "timeline"): {
        "timeline.csv": "5c60010cc08349dfc498192efb533f0af84e4c1da7bf92339b0ae57c5c573272",
    },
    ("figure1", "verify"): {
        "verify.json": "1bd575d9bf34f8f1099f048673af3a067479b1bc2a80bf7683393dd485cc6c7a",
    },
    ("greedy_hypercube3", "run"): {
        "traces.json": "cf0f3fcd132976eb3fe35025ab5a2c802dd3845c7d24a042822e03933dd5d2fa",
        "report.csv": "a84f83a4eac9a6c67c70ec191d66507caa42e37f32afc8d404cf2021a6447870",
        "report.json": "bd7a8019db12a7affd3b819e41913b2dbb65c22f7a3cfdf54c2fecb049cbf8e3",
        "audit.jsonl": "ef02803d006d4b38187d73583747b3ac530f6ce011753a68c501bc3b16b9babd",
    },
    ("partition2_torus33", "run"): {
        "traces.json": "f7e630b2cbfbc2814bffaebce7dc54feeff8b26f83640e054114cf98fd282cea",
        "report.csv": "8bf69723894afdd68986518ab3e06a44286566040b72e86dd66b15844704d81c",
        "report.json": "5ec5f01c3b7360c29ddfba4f7eb8316d8dc60d3efe51993530709fae508e4718",
        "audit.jsonl": "057396c5bfe0255e7073c2e6153e78775e47a761964ab7c7755163987c0ac7c0",
    },
    ("timeline_torus44", "timeline"): {
        "timeline.csv": "cd07c834df4eb67cb2baa36e2e1c31980e9664894422836a2504a4f9513931a1",
    },
    ("torus_sweep", "run"): {
        "traces.json": "3e48102fe5e146ee198cd4278e1837ab389e62f2d22d10b27a6a450cf0b8df69",
        "audit.jsonl": "9c16afce11f50a3b7aa77ee6891e2d1920b1e69c289e1b44ac1b23baf4ecf134",
        "report.csv": "bbc5304be08e183842c2e511527c885028feb2df00738f8b8138db893307c439",
        "report.json": "fe3674f8859e1e38fa9377e11caf928ffc28b6d9e751bd8da0b0cbe2a03e67fe",
    },
    ("torus_sweep", "verify"): {
        "verify.json": "474210be466d7418d77288ba3fd390da61352563bb6d8e6b34b0dbab04ec793b",
    },
}


def produce(scenario: str, command: str, tmp_path: Path) -> tuple[int, dict[str, str]]:
    """Run one CLI command and return its exit code and per-file sha256."""
    if scenario in GENERATED:
        config = tmp_path / f"{scenario}.json"
        config.write_text(json.dumps(GENERATED[scenario], indent=2, sort_keys=True) + "\n")
    else:
        config = SCENARIOS / f"{scenario}.json"
    outdir = tmp_path / "out"
    result = CliRunner().invoke(main, [command, str(config), "--output-dir", str(outdir)])
    assert result.exception is None or isinstance(result.exception, SystemExit), result.output
    _, files = RUNS[(scenario, command)]
    return result.exit_code, {
        name: hashlib.sha256((outdir / name).read_bytes()).hexdigest() for name in files
    }


@pytest.mark.parametrize("scenario,command", sorted(RUNS))
def test_outputs_match_golden_digests(scenario, command, tmp_path):
    code, digests = produce(scenario, command, tmp_path)
    expected_code, _ = RUNS[(scenario, command)]
    assert code == expected_code
    assert digests == GOLDEN[(scenario, command)]


# The names ``import frrsim`` exports; a change to the API changes this tuple.
PUBLIC_NAMES = (
    "Arborescence", "CaseResult", "DecompositionError", "FailureSet", "FixpointResult", "Flow",
    "ForwardingState", "GreedyDag", "Hop", "Outcome", "PartitionScheme", "PortTable",
    "RuleChange", "SweepReport", "Timeline", "Topology", "Trace", "TraceStats",
    "build_greedy_dag", "build_topology", "compile_arborescence_frr", "compile_greedy_frr",
    "compile_partition_frr", "compute_disjoint_paths", "convergence_timeline",
    "decompose_arborescences", "edge_connectivity", "enumerate_link_failures",
    "enumerate_node_failures", "figure1_topology", "greedy_shortcut", "link_loads",
    "maxmin_throughput", "observe_and_truncate", "partition_shortcut", "route",
    "run_failure_sweep", "shortcut_fixpoint", "shortest_path_length", "shortest_route",
    "stretch", "trace_stats",
)


def test_package_exports_the_pinned_names():
    # submodules become package attributes once imported anywhere, so skip them
    names = sorted(name for name, value in vars(frrsim).items()
                   if not name.startswith("_") and not isinstance(value, types.ModuleType))
    assert tuple(names) == PUBLIC_NAMES
