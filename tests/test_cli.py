from __future__ import annotations

import json
from fractions import Fraction
from pathlib import Path

import pytest
from click.testing import CliRunner

from frrsim import FailureSet, Flow, analysis, build_topology, cli, figure1_topology
from frrsim.analysis import REGIME_FRR, REGIME_SHORTCUT, REGIMES
from frrsim.cli import ConfigError, ScenarioConfig, SchemeCompiler, main
from frrsim.scenarios import FIGURE1_BACKGROUND, figure1_config

from test_golden import GENERATED, _all_pairs_sweep

UNIT_RATES = {f"{u},{v}": 1 for u, v in figure1_topology().directed_edges()}


@pytest.fixture
def runner():
    return CliRunner()


@pytest.fixture
def figure1_config_path(tmp_path) -> str:
    path = tmp_path / "figure1.json"
    path.write_text(json.dumps(figure1_config(), indent=2, sort_keys=True) + "\n")
    return str(path)


def write_config(tmp_path, name: str, config: dict) -> str:
    path = tmp_path / name
    path.write_text(json.dumps(config, indent=2, sort_keys=True) + "\n")
    return str(path)


class TestConfig:
    def test_parsing_twice_gives_equal_configs(self):
        cfg = ScenarioConfig.from_dict(figure1_config())
        assert ScenarioConfig.from_dict(figure1_config()) == cfg
        assert cfg.flows == (Flow("S", "D"),)
        assert cfg.failures == FailureSet.of(links=[("S2", "S4")])

    def test_parse_error_reports_line(self, tmp_path):
        path = tmp_path / "broken.json"
        path.write_text('{\n  "topology": [,]\n}')
        with pytest.raises(ConfigError, match=r":2:\d+"):
            ScenarioConfig.load(str(path))

    def test_unknown_fields_rejected(self):
        for field in ("bogus", "seed"):
            cfg = figure1_config()
            cfg[field] = 1
            with pytest.raises(ConfigError, match=rf"unknown config fields: \['{field}'\]"):
                ScenarioConfig.from_dict(cfg)

    def test_random_topology_requires_seed(self):
        cfg = figure1_config()
        cfg["topology"] = {"kind": "random", "n": 8, "p": 0.5}
        with pytest.raises(ConfigError, match="seed"):
            ScenarioConfig.from_dict(cfg)

    def test_exactly_one_scheme_kind(self):
        cfg = figure1_config()
        cfg["scheme"] = {"kind": "mystery"}
        with pytest.raises(ConfigError, match="scheme.kind"):
            ScenarioConfig.from_dict(cfg)

    def test_bundled_scenario_file_matches_builder(self):
        bundled = Path(__file__).resolve().parents[1] / "scenarios" / "figure1.json"
        assert json.loads(bundled.read_text()) == figure1_config()

    def test_bundled_torus_sweep_verifies_clean(self, runner, tmp_path):
        bundled = Path(__file__).resolve().parents[1] / "scenarios" / "torus_sweep.json"
        outdir = tmp_path / "out"
        result = runner.invoke(main, ["verify", str(bundled), "--output-dir", str(outdir)])
        assert result.exit_code == 0, result.output
        summary = json.loads((outdir / "verify.json").read_text())
        assert summary == {
            "cases": 36,
            "frr_precondition_failures": 0,
            "violations": 0,
            "violations_by_kind": {},
        }


class TestRunCommand:
    def test_figure1_run_outputs(self, runner, figure1_config_path, tmp_path):
        outdir = tmp_path / "out"
        result = runner.invoke(
            main, ["run", figure1_config_path, "--output-dir", str(outdir)]
        )
        assert result.exit_code == 0, result.output
        report = (outdir / "report.csv").read_text().splitlines()
        assert report[1] == "S->D,link:S2-S4,delivered,6,4,1.5,1,1"

        traces = json.loads((outdir / "traces.json").read_text())
        assert traces[0]["rounds"] == 1
        assert traces[0]["traces"][0]["node_path"] == "S-S1-S2-S1-S3-S4-D"
        assert traces[0]["traces"][1]["node_path"] == "S-S1-S3-S4-D"

        audit = [json.loads(l) for l in (outdir / "audit.jsonl").read_text().splitlines()]
        assert {"node": "S1", "inport": "S"} == {
            k: audit[0][k] for k in ("node", "inport")
        }

        summary = json.loads((outdir / "report.json").read_text())["summary"]
        assert summary["violations"] == 0

    def test_no_failure_run_has_zero_rule_changes(self, runner, tmp_path):
        cfg = figure1_config()
        cfg["failures"] = {"kind": "explicit", "links": [], "nodes": []}
        path = write_config(tmp_path, "nofail.json", cfg)
        outdir = tmp_path / "out"
        result = runner.invoke(main, ["run", path, "--output-dir", str(outdir)])
        assert result.exit_code == 0, result.output
        assert (outdir / "audit.jsonl").read_text() == ""

    def test_torus_sweep_all_links(self, runner, tmp_path):
        cfg = {
            "topology": {"kind": "torus", "a": 3, "b": 3},
            "flows": [{"source": "0_0", "destination": "2_2"}],
            "scheme": {"kind": "arborescence", "k": 4},
            "failures": {"kind": "sweep_links"},
        }
        path = write_config(tmp_path, "torus.json", cfg)
        outdir = tmp_path / "out"
        result = runner.invoke(main, ["run", path, "--output-dir", str(outdir)])
        assert result.exit_code == 0, result.output
        rows = (outdir / "report.csv").read_text().splitlines()[1:]
        assert len(rows) == 18
        assert all(",delivered," in row for row in rows)

    def test_fail_override(self, runner, figure1_config_path, tmp_path):
        outdir = tmp_path / "out"
        result = runner.invoke(
            main,
            ["run", figure1_config_path, "--fail", "S3,S4", "--output-dir", str(outdir)],
        )
        assert result.exit_code == 0, result.output
        rows = (outdir / "report.csv").read_text().splitlines()[1:]
        assert rows[0].startswith("S->D,link:S3-S4,delivered,4,4")

    def test_scheme_override(self, runner, figure1_config_path, tmp_path):
        outdir = tmp_path / "out"
        result = runner.invoke(
            main,
            ["run", figure1_config_path, "--scheme", "greedy", "--output-dir", str(outdir)],
        )
        assert result.exit_code == 0, result.output
        rows = (outdir / "report.csv").read_text().splitlines()[1:]
        assert rows[0] == "S->D,link:S2-S4,delivered,6,4,1.5,1,1"

    def test_env_var_output_dir(self, runner, figure1_config_path, tmp_path, monkeypatch):
        outdir = tmp_path / "from-env"
        monkeypatch.setenv("FRRSIM_OUTPUT_DIR", str(outdir))
        result = runner.invoke(main, ["run", figure1_config_path])
        assert result.exit_code == 0, result.output
        assert (outdir / "report.csv").exists()

    @pytest.mark.parametrize("command", ["run", "verify", "timeline"])
    @pytest.mark.parametrize("where", ["flag", "env", "config"])
    def test_output_dir_that_is_a_file_is_a_clean_error(self, runner, tmp_path, monkeypatch,
                                                        command, where):
        # A file in the way is found before any work; the directory itself is
        # made once every flow compiled and ran, so a config that fails to
        # compile leaves none behind.
        work = []
        monkeypatch.setattr(cli, "build_timeline", lambda *a: work.append("timeline"))
        monkeypatch.setattr(cli.analysis, "run_failure_sweep",
                            lambda *a, **k: work.append("sweep"))
        taken = tmp_path / "taken"
        taken.write_text("")
        out = str(taken / "sub") if where == "config" else str(taken)
        cfg = figure1_config()
        if where == "config":
            cfg["output_dir"] = out
        args = [command, write_config(tmp_path, "cfg.json", cfg)]
        if where == "flag":
            args += ["--output-dir", out]
        if where == "env":
            monkeypatch.setenv("FRRSIM_OUTPUT_DIR", out)
        result = runner.invoke(main, args)
        assert result.exit_code == 1, result.output
        assert f"Error: cannot create output directory {out}: " in result.output
        assert taken.read_text() == ""
        assert work == []

    @pytest.mark.parametrize("error", [OSError(28, "No space left on device"),
                                       RuntimeError("fault in the trace encoder")])
    def test_failed_write_leaves_no_partial_artefact(self, runner, tmp_path, monkeypatch,
                                                     error):
        # Small chunks, so traces.json is part written when the 20th trace fails.
        monkeypatch.setattr(cli.analysis, "WRITE_CHUNK", 3)
        encoded = []
        trace_json = analysis._trace_json

        def failing(trace):
            encoded.append(trace)
            if len(encoded) == 20:
                raise error
            return trace_json(trace)

        monkeypatch.setattr(analysis, "_trace_json", failing)
        outdir = tmp_path / "out"
        config = write_config(tmp_path, "greedy.json", GENERATED["greedy_hypercube3"])
        result = runner.invoke(main, ["run", config, "--output-dir", str(outdir)])
        assert result.exit_code == 1, result.output
        if isinstance(error, OSError):
            assert f"Error: cannot write {outdir}: No space left on device" in result.output
        else:
            assert result.exception is error
        assert len(encoded) == 20
        assert list(outdir.iterdir()) == []

    @pytest.mark.parametrize("command,name", [("run", "report.csv"), ("verify", "verify.json"),
                                              ("timeline", "timeline.csv")])
    def test_directory_on_an_artefact_is_named(self, runner, figure1_config_path, tmp_path,
                                               command, name):
        outdir = tmp_path / "out"
        (outdir / name).mkdir(parents=True)
        result = runner.invoke(main, [command, figure1_config_path, "--output-dir", str(outdir)])
        assert result.exit_code == 1, result.output
        assert f"Error: cannot write {outdir / name}: Is a directory" in result.output
        assert isinstance(result.exception, SystemExit)
        assert not list(outdir.glob("*.tmp"))

    def test_bad_config_is_a_clean_error(self, runner, tmp_path):
        path = tmp_path / "broken.json"
        path.write_text("{")
        result = runner.invoke(main, ["run", str(path)])
        assert result.exit_code != 0
        assert "invalid JSON" in result.output

    @pytest.mark.parametrize(
        "field,value,message",
        [
            ("flows", 5, "flows must be a list"),
            ("flows", [["S", "D"]], "flows[0] must be a JSON object"),
            ("topology", "figure1", "topology must be a JSON object"),
            ("throughput", 5, "throughput must be a JSON object"),
            ("throughput", 0, "throughput must be a JSON object"),
            ("throughput", False, "throughput must be a JSON object"),
            ("throughput", "", "throughput must be a JSON object"),
            ("throughput", [], "throughput must be a JSON object"),
            ("output_dir", 5, "output_dir must be a string"),
            ("topology", {"kind": "torus", "a": "x", "b": 3},
             "topology.a must be an integer, got 'x'"),
            ("topology", {"kind": "torus", "a": 3.7, "b": 3},
             "topology.a must be an integer, got 3.7"),
            ("topology", {"kind": "hypercube", "d": True},
             "topology.d must be an integer, got True"),
            ("topology", {"kind": "random", "n": 6, "p": True, "seed": 1},
             "topology.p must be a number, got True"),
            ("topology", {"kind": "torus", "a": 3, "b": 3, "c": 9},
             "unknown topology fields: ['c']"),
            ("flows", [{"source": "S", "destination": "D"}] * 2,
             "flows[1] repeats flow id 'S->D'"),
            ("flows", [{"source": "S", "destination": "D", "weight": 2}],
             "unknown flows[0] fields: ['weight']"),
            ("flows", [{"source": "S", "destination": "D", "flow_id": ["x"]}],
             "flows[0].flow_id must be a non-empty string, got ['x']"),
            ("flows", [{"source": "S", "destination": "D", "flow_id": {"a": 1}}],
             "flows[0].flow_id must be a non-empty string, got {'a': 1}"),
            ("flows", [{"source": "S", "destination": "D", "flow_id": 0}],
             "flows[0].flow_id must be a non-empty string, got 0"),
            ("flows", [{"source": "S", "destination": "D", "flow_id": False}],
             "flows[0].flow_id must be a non-empty string, got False"),
            ("flows", [{"source": "S", "destination": "D", "flow_id": ""}],
             "flows[0].flow_id must be a non-empty string, got ''"),
            ("flows", [{"source": "S", "destination": "D"}, {"source": "H", "destination": "D"}],
             "scheme.paths: path ('S', 'S1', 'S2', 'S4', 'D') does not join the flow endpoints"),
        ],
        ids=["flows-number", "flows-entry-list", "topology-string", "throughput-number",
             "throughput-zero", "throughput-false", "throughput-empty-string",
             "throughput-empty-list", "output-dir-number", "topology-int-word",
             "topology-fraction", "topology-bool", "topology-bool-p", "topology-unknown-key",
             "flows-duplicate", "flows-unknown-key", "flow-id-list", "flow-id-object",
             "flow-id-zero", "flow-id-false", "flow-id-empty", "paths-miss-a-flow"],
    )
    def test_wrong_shape_names_the_field(self, runner, tmp_path, field, value, message):
        cfg = figure1_config()
        cfg[field] = value
        path = write_config(tmp_path, "shape.json", cfg)
        for command in ("run", "timeline"):
            result = runner.invoke(main, [command, path, "--output-dir", str(tmp_path)])
            assert result.exit_code == 1, result.output
            assert f"Error: {message}" in result.output


    @pytest.mark.parametrize(
        "failures,message",
        [
            ({"kind": "explicit", "links": 5}, "failures.links must be a list"),
            ({"kind": "explicit", "links": [["S2"]]},
             "failures.links[0] must be a pair of node names"),
            ({"kind": "explicit", "links": [["S2", "S4"], ["S1", 3]]},
             "failures.links[1] must be a pair of node names"),
            ({"kind": "explicit", "links": [], "nodes": 5}, "failures.nodes must be a list"),
            ({"kind": "explicit", "nodes": [["S2"]]},
             "failures.nodes must be a list of node names"),
            ({"kind": "sweep_links", "links": [["S2", "S4"]]},
             "unknown failures fields: ['links']"),
            ({"kind": "explicit", "links": [], "node": ["S2"]},
             "unknown failures fields: ['node']"),
        ],
        ids=["links-number", "link-one-node", "link-number-node", "nodes-number",
             "node-list", "sweep-with-links", "explicit-unknown-key"],
    )
    def test_wrong_failure_shape_names_the_field(self, runner, tmp_path, failures, message):
        cfg = figure1_config()
        cfg["failures"] = failures
        path = write_config(tmp_path, "failures.json", cfg)
        for command in ("run", "timeline"):
            result = runner.invoke(main, [command, path, "--output-dir", str(tmp_path)])
            assert result.exit_code == 1, result.output
            assert f"Error: {message}" in result.output

    @pytest.mark.parametrize(
        "paths,message",
        [
            (5, "scheme.paths must be a list"),
            ([5], "scheme.paths[0] must be a list of node names"),
        ],
        ids=["paths-number", "path-number"],
    )
    def test_wrong_paths_shape_names_the_field(self, runner, tmp_path, paths, message):
        cfg = figure1_config()
        cfg["scheme"]["paths"] = paths
        path = write_config(tmp_path, "paths.json", cfg)
        for command in ("run", "timeline"):
            result = runner.invoke(main, [command, path, "--output-dir", str(tmp_path)])
            assert result.exit_code == 1, result.output
            assert f"Error: {message}" in result.output

    @pytest.mark.parametrize(
        "scheme,message",
        [
            ({"kind": "arborescence", "k": 1.5}, "scheme.k must be a positive integer, got 1.5"),
            ({"kind": "arborescence", "k": True}, "scheme.k must be a positive integer, got True"),
            ({"kind": "arborescence", "k": "x"}, "scheme.k must be a positive integer, got 'x'"),
            ({"kind": "greedy", "k": 2}, "unknown scheme fields: ['k']"),
            ({"kind": "partition", "k": 2, "pahts": []}, "unknown scheme fields: ['pahts']"),
        ],
        ids=["k-float", "k-bool", "k-word", "greedy-with-k", "partition-typo"],
    )
    def test_bad_scheme_names_the_field(self, runner, tmp_path, scheme, message):
        cfg = figure1_config()
        cfg["scheme"] = scheme
        path = write_config(tmp_path, "scheme.json", cfg)
        for command in ("run", "timeline"):
            result = runner.invoke(main, [command, path, "--output-dir", str(tmp_path)])
            assert result.exit_code == 1, result.output
            assert f"Error: {message}" in result.output

    @pytest.mark.parametrize("command", ["run", "verify", "timeline"])
    @pytest.mark.parametrize("nodes,message", [
        (["S"], "failures.nodes[0] 'S' is an endpoint of flows[0] 'S->D'"),
        (["S3", "D"], "failures.nodes[1] 'D' is an endpoint of flows[0] 'S->D'"),
    ], ids=["source", "destination"])
    def test_failed_flow_endpoint_names_the_field(self, runner, tmp_path, command, nodes,
                                                  message):
        cfg = figure1_config()
        cfg["failures"]["nodes"] = nodes
        outdir = tmp_path / "out"
        path = write_config(tmp_path, "endpoint.json", cfg)
        result = runner.invoke(main, [command, path, "--output-dir", str(outdir)])
        assert result.exit_code == 1, result.output
        assert f"Error: {message}" in result.output
        assert not outdir.exists()

    @pytest.mark.parametrize("command", ["run", "verify"])
    def test_fail_override_of_a_flow_endpoint_names_the_field(self, runner, figure1_config_path,
                                                              tmp_path, command):
        outdir = tmp_path / "out"
        result = runner.invoke(main, [command, figure1_config_path, "--fail", "node:S",
                                      "--output-dir", str(outdir)])
        assert result.exit_code == 1, result.output
        assert "Error: failures.nodes[0] 'S' is an endpoint of flows[0] 'S->D'" in result.output
        assert not outdir.exists()

    def test_arborescence_k_beyond_edge_connectivity_names_the_field(self, runner, tmp_path):
        bundled = Path(__file__).resolve().parents[1] / "scenarios" / "torus_sweep.json"
        outdir = tmp_path / "newdir"
        result = runner.invoke(main, ["run", str(bundled), "--scheme", "arborescence:5",
                                      "--output-dir", str(outdir)])
        assert result.exit_code == 1, result.output
        assert "Error: scheme.k=5 exceeds the topology's edge connectivity 4" in result.output
        assert not outdir.exists()

    @pytest.mark.parametrize("command", ["run", "verify", "timeline"])
    def test_partition_k_beyond_a_flows_max_flow_names_the_field(self, runner, tmp_path,
                                                                  command):
        cfg = figure1_config()
        # S1->S4 has two edge-disjoint paths; S->D has one, through the S-S1 stub
        cfg["flows"] = [{"source": "S1", "destination": "S4"}, {"source": "S", "destination": "D"}]
        cfg["scheme"] = {"kind": "partition", "k": 2}
        path = write_config(tmp_path, "partition.json", cfg)
        result = runner.invoke(main, [command, path, "--output-dir", str(tmp_path / "out")])
        assert result.exit_code == 1, result.output
        assert "Error: scheme.k=2 exceeds max-flow value 1 of flows[1] 'S->D'" in result.output
        # the error comes once flows[0] compiled, yet no directory is made
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("command", ["run", "verify"])
    def test_node_sweep_with_no_node_to_fail_names_the_field(self, runner, tmp_path, command):
        nodes = build_topology("torus(3,3)").nodes
        cfg = {
            "topology": {"kind": "torus", "a": 3, "b": 3},
            "flows": [{"source": a, "destination": b} for a in nodes for b in nodes if a != b],
            "scheme": {"kind": "arborescence", "k": 4},
            "failures": {"kind": "sweep_nodes"},
        }
        path = write_config(tmp_path, "nodes.json", cfg)
        outdir = tmp_path / "out"
        result = runner.invoke(main, [command, path, "--output-dir", str(outdir)])
        assert result.exit_code == 1, result.output
        assert ("Error: failures.kind 'sweep_nodes' leaves no node to fail: "
                "every node is a flow endpoint") in result.output
        assert not outdir.exists()

    def test_scheme_override_with_bad_k_names_the_field(self, runner, figure1_config_path,
                                                         tmp_path):
        result = runner.invoke(main, ["run", figure1_config_path, "--scheme", "arborescence:x",
                                      "--output-dir", str(tmp_path)])
        assert result.exit_code == 1, result.output
        assert "Error: scheme.k must be a positive integer, got 'x'" in result.output

    def test_missing_topology_file_is_named(self, runner, tmp_path):
        cfg = figure1_config()
        cfg["topology"] = {"kind": "from_file", "path": str(tmp_path / "missing.json")}
        path = write_config(tmp_path, "fromfile.json", cfg)
        result = runner.invoke(main, ["run", path, "--output-dir", str(tmp_path)])
        assert result.exit_code == 1, result.output
        assert "Error: cannot read topology file" in result.output
        assert "missing.json" in result.output

    @pytest.mark.parametrize("fail", ["S1,S2", "S1,H", "node:S1"])
    def test_fail_override_may_cross_a_background_route(self, runner, figure1_config_path,
                                                         tmp_path, fail):
        """Only ``timeline`` reads the background flows, so ``run`` ignores their routes."""
        result = runner.invoke(main, ["run", figure1_config_path, "--fail", fail,
                                      "--output-dir", str(tmp_path)])
        assert result.exit_code == 0, result.output

    def test_throughput_with_a_sweep_runs_but_has_no_timeline(self, runner, tmp_path):
        cfg = figure1_config()
        cfg["failures"] = {"kind": "sweep_links"}
        path = write_config(tmp_path, "sweep.json", cfg)
        result = runner.invoke(main, ["run", path, "--output-dir", str(tmp_path)])
        assert result.exit_code == 0, result.output
        result = runner.invoke(main, ["timeline", path, "--output-dir", str(tmp_path / "t")])
        assert result.exit_code == 1, result.output
        assert "Error: timeline requires an explicit failure set" in result.output
        assert not (tmp_path / "t").exists()


class TestVerifyCommand:
    @pytest.mark.parametrize(
        "desc,k",
        [({"kind": "complete", "n": 5}, 4), ({"kind": "hypercube", "d": 3}, 3)],
    )
    def test_arborescence_sweeps_verify_clean(self, runner, tmp_path, desc, k):
        topo = desc
        from frrsim import build_topology

        t = build_topology(topo)
        flows = [
            {"source": a, "destination": b} for a in t.nodes[:3] for b in t.nodes if a != b
        ]
        cfg = {
            "topology": topo,
            "flows": flows,
            "scheme": {"kind": "arborescence", "k": k},
            "failures": {"kind": "sweep_links"},
        }
        path = write_config(tmp_path, "verify.json", cfg)
        outdir = tmp_path / "out"
        result = runner.invoke(main, ["verify", path, "--output-dir", str(outdir)])
        assert result.exit_code == 0, result.output
        summary = json.loads((outdir / "verify.json").read_text())
        assert summary["violations"] == 0
        assert summary["violations_by_kind"] == {}

    def test_one_round_check_follows_the_failure_set(self, runner, tmp_path):
        """Every failure set is held to the one-round count."""
        graph = tmp_path / "graph.json"
        graph.write_text(json.dumps({"nodes": ["0", "1", "2", "3"], "links": [
            ["0", "1"], ["0", "2"], ["0", "3"], ["1", "2"], ["2", "3"]]}))
        cfg = {
            "topology": {"kind": "from_file", "path": str(graph)},
            "flows": [{"source": "1", "destination": "0"}],
            "scheme": {"kind": "greedy"},
            "failures": {"kind": "explicit", "links": [["0", "1"], ["0", "2"]], "nodes": []},
        }
        path = write_config(tmp_path, "two_links.json", cfg)
        outdir = tmp_path / "out"
        result = runner.invoke(main, ["verify", path, "--output-dir", str(outdir)])
        assert result.exit_code == 0, result.output
        assert json.loads((outdir / "verify.json").read_text())["violations"] == 0
        # The walk 1-2-3-0 is delivered and simple, so it needs no round.
        (case,) = cli._load_and_sweep(path, None, None, str(outdir))[1].cases
        assert (case.rounds, case.hops_before, case.hops_after) == (0, 3, 3)
        assert case.violations == []

        (case,) = cli._load_and_sweep(path, "0,1", None, str(outdir))[1].cases
        assert case.violations == []
        (case,) = cli._load_and_sweep(path, "node:3", None, str(outdir))[1].cases
        assert case.violations == []
        cfg["failures"] = {"kind": "sweep_nodes"}
        report = cli._load_and_sweep(write_config(tmp_path, "nodes.json", cfg), None, None,
                                     str(outdir))[1]
        assert [(c.failure, c.violations) for c in report.cases] == [
            ("node:2", []), ("node:3", [])]

    @pytest.mark.parametrize("command", ["run", "verify"])
    def test_run_lists_no_case_and_verify_builds_none(self, runner, tmp_path, monkeypatch,
                                                      command):
        """``run`` streams the cases without reading ``cases`` or
        ``sorted_cases``, and ``verify`` builds no case at all."""
        config = _all_pairs_sweep({"kind": "torus", "a": 4, "b": 4}, {"kind": "greedy"})
        path = write_config(tmp_path, "torus44.json", config)
        result = runner.invoke(main, [command, path, "--output-dir", str(tmp_path / "free")])
        assert result.exit_code == 0, result.output

        def refuse(*args):
            raise AssertionError(f"{command} built a list of every case")

        monkeypatch.setattr(analysis.SweepReport, "cases", property(refuse))
        monkeypatch.setattr(analysis.SweepReport, "sorted_cases", property(refuse))
        if command == "verify":
            monkeypatch.setattr(analysis._FlowCases, "walk", refuse)
        result = runner.invoke(main, [command, path, "--output-dir", str(tmp_path / "guarded")])
        assert result.exit_code == 0, result.output
        for file in (tmp_path / "free").iterdir():
            assert (tmp_path / "guarded" / file.name).read_bytes() == file.read_bytes()
        if command == "verify":
            assert json.loads((tmp_path / "guarded" / "verify.json").read_text()) == {
                "cases": 7680, "frr_precondition_failures": 64, "violations": 0,
                "violations_by_kind": {}}

    def test_partition_without_redundancy_reports_frr_failures(self, runner, tmp_path):
        cfg = {
            "topology": {"kind": "figure1"},
            "flows": [{"source": "S", "destination": "D"}],
            "scheme": {"kind": "partition", "k": 1},
            "failures": {"kind": "sweep_links"},
        }
        path = write_config(tmp_path, "p1.json", cfg)
        outdir = tmp_path / "out"
        result = runner.invoke(main, ["verify", path, "--output-dir", str(outdir)])
        assert result.exit_code == 0, result.output
        summary = json.loads((outdir / "verify.json").read_text())
        # failures on the single path drop packets: an FRR precondition
        # failure, not a shortcutting violation
        assert summary["violations"] == 0
        assert summary["frr_precondition_failures"] == 4


class TestTimelineCommand:
    def test_figure1_defaults(self, runner, figure1_config_path, tmp_path):
        outdir = tmp_path / "out"
        result = runner.invoke(
            main, ["timeline", figure1_config_path, "--output-dir", str(outdir)]
        )
        assert result.exit_code == 0, result.output
        rows = (outdir / "timeline.csv").read_text().splitlines()
        frr_steady = [
            r for r in rows if r.startswith("3.0,S->D,") and r.endswith("frr_only")
        ]
        assert frr_steady == ["3.0,S->D,0.5,frr_only"]
        shortcut_steady = [
            r for r in rows if r.startswith("3.0,S->D,") and r.endswith("frr_shortcut")
        ]
        assert shortcut_steady == ["3.0,S->D,1.0,frr_shortcut"]

    def test_timeline_requires_throughput_section(self, runner, tmp_path):
        cfg = figure1_config()
        del cfg["throughput"]
        path = write_config(tmp_path, "nothroughput.json", cfg)
        result = runner.invoke(main, ["timeline", path])
        assert result.exit_code != 0
        assert "throughput" in result.output

    def test_background_flow_without_route_names_the_entry(self, runner, tmp_path):
        cfg = figure1_config()
        del cfg["throughput"]["background_flows"][0]["route"]
        path = write_config(tmp_path, "noroute.json", cfg)
        result = runner.invoke(main, ["timeline", path, "--output-dir", str(tmp_path)])
        assert result.exit_code == 1, result.output
        assert (
            "Error: throughput.background_flows[0] needs source, destination and route"
            in result.output
        )

    def test_background_flows_must_be_a_list(self, runner, tmp_path):
        cfg = figure1_config()
        cfg["throughput"]["background_flows"] = 5
        path = write_config(tmp_path, "bgnumber.json", cfg)
        result = runner.invoke(main, ["timeline", path, "--output-dir", str(tmp_path)])
        assert result.exit_code == 1, result.output
        assert "Error: throughput.background_flows must be a list" in result.output


    def test_capacities_must_be_unit_or_an_object(self, runner, tmp_path):
        cfg = figure1_config()
        cfg["throughput"]["capacities"] = 5
        path = write_config(tmp_path, "capsnumber.json", cfg)
        result = runner.invoke(main, ["timeline", path, "--output-dir", str(tmp_path)])
        assert result.exit_code == 1, result.output
        assert 'Error: throughput.capacities must be "unit" or an object' in result.output

    @pytest.mark.parametrize(
        "field,value,message",
        [
            ("capacities", {"S2": 1}, "throughput.capacities key 'S2' must be 'u,v'"),
            ("capacities", {"S,S1": "fast"},
             "throughput.capacities['S,S1'] must be a number, got 'fast'"),
            ("capacities", {"S,S1": True}, "throughput.capacities['S,S1'] must be a number, got True"),
            ("horizon", "x", "throughput.horizon must be a number, got 'x'"),
            ("sample_step", True, "throughput.sample_step must be a number, got True"),
            ("control_plane_delay", False,
             "throughput.control_plane_delay must be a number, got False"),
            ("horizn", 9, "unknown throughput fields: ['horizn']"),
            ("background_flows", [FIGURE1_BACKGROUND, FIGURE1_BACKGROUND],
             "throughput.background_flows[1] repeats flow id 'S2->H'"),
            ("background_flows", [{**FIGURE1_BACKGROUND, "rate": 1}],
             "unknown throughput.background_flows[0] fields: ['rate']"),
            ("background_flows", [{**FIGURE1_BACKGROUND, "flow_id": ["x"]}],
             "throughput.background_flows[0].flow_id must be a non-empty string, got ['x']"),
            ("background_flows", [{**FIGURE1_BACKGROUND, "flow_id": 7}],
             "throughput.background_flows[0].flow_id must be a non-empty string, got 7"),
            ("background_flows", [{**FIGURE1_BACKGROUND, "flow_id": None}],
             "throughput.background_flows[0].flow_id must be a non-empty string, got None"),
            ("background_flows", [{**FIGURE1_BACKGROUND, "route": ["S2", "S1"]}],
             "throughput.background_flows[0].route must be a list of nodes from source to "
             "destination"),
        ],
        ids=["capacity-key-without-comma", "capacity-rate-word", "capacity-rate-boolean",
             "horizon-word", "sample-step-boolean", "control-plane-delay-boolean",
             "unknown-key", "background-repeated",
             "background-unknown-key", "background-flow-id-list", "background-flow-id-number",
             "background-flow-id-null", "background-route-misses-destination"],
    )
    def test_bad_throughput_value_names_the_field(self, runner, tmp_path, field, value, message):
        cfg = figure1_config()
        cfg["throughput"][field] = value
        path = write_config(tmp_path, "throughput.json", cfg)
        result = runner.invoke(main, ["timeline", path, "--output-dir", str(tmp_path)])
        assert result.exit_code == 1, result.output
        assert f"Error: {message}" in result.output

    def test_bad_throughput_is_rejected_before_any_flow_compiles(
        self, runner, tmp_path, monkeypatch
    ):
        compiled = []
        monkeypatch.setattr(SchemeCompiler, "compile", lambda self, flow: compiled.append(flow))
        for field, value, message in [
            ("horizon", "soon", "throughput.horizon must be a number, got 'soon'"),
            ("horizon", 1.0, "throughput.horizon must extend past the failure instant"),
            ("sample_step", 0, "throughput.sample_step must be positive"),
            ("control_plane_delay", -1, "throughput.control_plane_delay must be non-negative"),
            ("capacities", {"S,S1": 1}, "throughput.capacities has no rate for 'D,S4'"),
            ("capacities", {**UNIT_RATES, "S,D": 1},
             "throughput.capacities key 'S,D' must be 'u,v' for a link u-v"),
            ("capacities", {**UNIT_RATES, "S,S1": 0},
             "throughput.capacities['S,S1'] must be positive, got 0"),
            ("background_flows", [{**FIGURE1_BACKGROUND, "route": ["S2", "S4", "H"]}],
             "throughput.background_flows[0]: background route step (S4, H) is not a link"),
            ("background_flows", [{**FIGURE1_BACKGROUND, "route": ["S2", "S4", "S3", "S1", "H"]}],
             "throughput.background_flows[0]: background flow 'S2->H' route crosses the failure"),
            ("background_flows", [{**FIGURE1_BACKGROUND, "flow_id": "S->D"}],
             "throughput.background_flows[0] repeats flow id 'S->D' of flows"),
        ]:
            cfg = figure1_config()
            cfg["throughput"][field] = value
            path = write_config(tmp_path, "badthroughput.json", cfg)
            result = runner.invoke(main, ["timeline", path, "--output-dir", str(tmp_path)])
            assert result.exit_code == 1, result.output
            assert f"Error: {message}" in result.output
            assert compiled == []

    def test_background_flow_with_a_primary_id_is_rejected_however_spelt(self):
        route = ["S", "S1", "S3", "S4", "D"]
        for flow_id in ({}, {"flow_id": "S->D"}):
            cfg = figure1_config()
            cfg["throughput"]["background_flows"] = [
                FIGURE1_BACKGROUND, {"source": "S", "destination": "D", "route": route, **flow_id}]
            with pytest.raises(ConfigError) as exc:
                ScenarioConfig.from_dict(cfg)
            assert str(exc.value) == (
                "throughput.background_flows[1] repeats flow id 'S->D' of flows")

    def test_a_given_flow_id_names_the_flow(self):
        cfg = figure1_config()
        cfg["flows"][0]["flow_id"] = "primary"
        cfg["throughput"]["background_flows"][0]["flow_id"] = "S->D"
        config = ScenarioConfig.from_dict(cfg)
        assert [flow.flow_id for flow in config.flows] == ["primary"]
        assert [flow.flow_id for flow, _ in config.background] == ["S->D"]

    def test_empty_throughput_means_defaults(self, runner, tmp_path):
        cfg = figure1_config()
        cfg["throughput"] = {}
        path = write_config(tmp_path, "defaults.json", cfg)
        outdir = tmp_path / "out"
        result = runner.invoke(main, ["timeline", path, "--output-dir", str(outdir)])
        assert result.exit_code == 0, result.output
        rows = (outdir / "timeline.csv").read_text().splitlines()
        # failure at 2, convergence at 4, horizon 6, one flow, sampled every 0.1
        assert len(rows) == 1 + 3 * 60
        assert "3.0,S->D,1.0,frr_only" in rows  # no background flow to share with

    @pytest.mark.parametrize("config", ["figure1", "cli-schemes"])
    def test_benchmark_entry_points(self, config):
        """``perfbench`` rebuilds the timeline through these calls and reads these fields."""
        if config == "figure1":
            cfg = figure1_config()
        else:
            nodes = build_topology({"kind": "torus", "a": 3, "b": 3}).nodes
            cfg = {
                "topology": {"kind": "torus", "a": 3, "b": 3},
                "scheme": {"kind": "partition", "k": 2},
                "failures": {"kind": "explicit", "links": [["0_0", "0_1"]], "nodes": []},
                "flows": [{"source": a, "destination": b} for a in nodes for b in nodes if a != b],
                "throughput": {"capacities": "unit"},
            }
        timeline = cli.build_timeline(cli.ScenarioConfig.from_dict(cfg))
        ids = {f"{f['source']}->{f['destination']}" for f in cfg["flows"]}
        assert set(timeline.segments) == set(REGIMES)
        for segments in timeline.segments.values():
            for seg in segments:
                assert ids <= set(seg.rates) == set(seg.routes)
                assert all(isinstance(rate, Fraction) for rate in seg.rates.values())
        plateau = timeline.segments[REGIME_FRR][1]
        steady = next(s for s in timeline.segments[REGIME_SHORTCUT] if s.end == plateau.end)
        assert sum(steady.rates.values()) >= sum(plateau.rates.values())


class TestGenerateCommand:
    def test_generate_topology_file(self, runner, tmp_path):
        out = tmp_path / "topo.json"
        result = runner.invoke(main, ["generate", "--topology", "torus(3,3)", "--output", str(out)])
        assert result.exit_code == 0, result.output
        doc = json.loads(out.read_text())
        assert len(doc["nodes"]) == 9
        assert len(doc["links"]) == 18

    def test_generate_accepts_json_descriptor(self, runner, tmp_path):
        out = tmp_path / "topo.json"
        descriptor = json.dumps(
            {"kind": "random", "n": 8, "p": 0.5, "seed": 5, "min_edge_connectivity": 2}
        )
        result = runner.invoke(main, ["generate", "--topology", descriptor, "--output", str(out)])
        assert result.exit_code == 0, result.output

    def test_unknown_descriptor_field_is_named(self, runner, tmp_path):
        out = tmp_path / "topo.json"
        descriptor = json.dumps({"kind": "torus", "a": 3, "b": 3, "c": 9})
        result = runner.invoke(main, ["generate", "--topology", descriptor, "--output", str(out)])
        assert result.exit_code == 1, result.output
        assert "Error: unknown topology fields: ['c']" in result.output
        assert not out.exists()

    def test_missing_from_file_is_a_clean_error(self, runner, tmp_path):
        descriptor = json.dumps({"kind": "from_file", "path": str(tmp_path / "missing.json")})
        out = tmp_path / "topo.json"
        result = runner.invoke(main, ["generate", "--topology", descriptor, "--output", str(out)])
        assert result.exit_code == 1, result.output
        assert "Error: cannot read topology file" in result.output

    def test_missing_output_directory_is_a_clean_error(self, runner, tmp_path):
        out = tmp_path / "missing_dir" / "x.json"
        result = runner.invoke(main, ["generate", "--topology", "torus(3,3)", "--output", str(out)])
        assert result.exit_code == 1, result.output
        assert f"Error: cannot write {out}: No such file or directory" in result.output
        assert isinstance(result.exception, SystemExit)

    def test_generated_file_feeds_from_file(self, runner, tmp_path):
        out = tmp_path / "topo.json"
        runner.invoke(main, ["generate", "--topology", "complete(4)", "--output", str(out)])
        from frrsim import build_topology

        t = build_topology({"kind": "from_file", "path": str(out)})
        assert len(t.nodes) == 4


class TestReproducibility:
    def test_run_twice_byte_identical(self, runner, figure1_config_path, tmp_path):
        outs = []
        for name in ("a", "b"):
            outdir = tmp_path / name
            result = runner.invoke(
                main, ["run", figure1_config_path, "--output-dir", str(outdir)]
            )
            assert result.exit_code == 0, result.output
            outs.append(
                {
                    f.name: f.read_bytes()
                    for f in sorted(outdir.iterdir())
                }
            )
        assert outs[0] == outs[1]
