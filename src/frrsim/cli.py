"""Command-line harness: scenario configs, sweeps, and report emission.

Commands:
  run       execute a scenario (compile, route, shortcut, analyse) and write
            traces.json, audit.jsonl, report.csv, report.json
  verify    run the sweep and print a machine-readable pass/fail summary
  timeline  emit the three-regime throughput timeline as CSV
  generate  emit a topology file from a generator descriptor

The exit code of run/verify is 0 iff no guarantee was violated, which makes
a CI job the regression guard for the shortcutting properties. Two runs of
the same config produce byte-identical outputs.
"""

from __future__ import annotations

import json
import os
import sys
from dataclasses import dataclass
from fractions import Fraction
from pathlib import Path

import click

from . import analysis, frr
from .forwarding import ForwardingState
from .forwarding import route as route_packet
from .shortcut import shortcut_fixpoint
from .topology import FailureSet, Flow, Topology, build_topology, edge_connectivity

ENV_OUTPUT_DIR = "FRRSIM_OUTPUT_DIR"


class ConfigError(ValueError):
    """Scenario config is malformed; message names the offending field."""


def _object(value, name: str) -> dict:
    if not isinstance(value, dict):
        raise ConfigError(f"{name} must be a JSON object")
    return dict(value)


@dataclass
class ScenarioConfig:
    topology: dict
    flows: list[dict]
    scheme: dict
    failures: dict
    throughput: dict | None = None
    output_dir: str | None = None

    @classmethod
    def from_dict(cls, data: dict) -> "ScenarioConfig":
        if not isinstance(data, dict):
            raise ConfigError("scenario config must be a JSON object")
        unknown = set(data) - {
            "topology", "flows", "scheme", "failures", "throughput", "output_dir",
        }
        if unknown:
            raise ConfigError(f"unknown config fields: {sorted(unknown)}")
        for key in ("topology", "flows", "scheme", "failures"):
            if key not in data:
                raise ConfigError(f"config field '{key}' is required")
        if not isinstance(data["flows"], list):
            raise ConfigError("flows must be a list")
        throughput = data.get("throughput")
        cfg = cls(
            topology=_object(data["topology"], "topology"),
            flows=[_object(f, f"flows[{i}]") for i, f in enumerate(data["flows"])],
            scheme=_object(data["scheme"], "scheme"),
            failures=_object(data["failures"], "failures"),
            throughput=_object(throughput, "throughput") if throughput else None,
            output_dir=data.get("output_dir"),
        )
        cfg._validate()
        return cfg

    def _validate(self) -> None:
        if self.topology.get("kind") == "random" and "seed" not in self.topology:
            raise ConfigError("topology.seed is mandatory for random topologies")
        if not self.flows:
            raise ConfigError("flows must not be empty")
        for i, f in enumerate(self.flows):
            if "source" not in f or "destination" not in f:
                raise ConfigError(f"flows[{i}] needs source and destination")
        kind = self.scheme.get("kind")
        if kind not in ("arborescence", "partition", "greedy"):
            raise ConfigError(f"scheme.kind must be arborescence|partition|greedy, got {kind!r}")
        if kind == "arborescence" and "k" not in self.scheme:
            raise ConfigError("scheme.k is required for arborescence")
        if kind == "partition" and "k" not in self.scheme and "paths" not in self.scheme:
            raise ConfigError("partition scheme needs k or explicit paths")
        if kind == "partition" and "paths" in self.scheme:
            paths = self.scheme["paths"]
            if not isinstance(paths, (list, tuple)):
                raise ConfigError("scheme.paths must be a list")
            for i, path in enumerate(paths):
                if not isinstance(path, (list, tuple)) or not all(isinstance(v, str) for v in path):
                    raise ConfigError(f"scheme.paths[{i}] must be a list of node names")
        fkind = self.failures.get("kind")
        if fkind not in ("explicit", "sweep_links", "sweep_nodes"):
            raise ConfigError(
                f"failures.kind must be explicit|sweep_links|sweep_nodes, got {fkind!r}"
            )
        if fkind == "explicit":
            links = self.failures.get("links", [])
            if not isinstance(links, (list, tuple)):
                raise ConfigError("failures.links must be a list")
            for i, link in enumerate(links):
                if (not isinstance(link, (list, tuple)) or len(link) != 2
                        or not all(isinstance(v, str) for v in link)):
                    raise ConfigError(f"failures.links[{i}] must be a pair of node names")
            if not isinstance(self.failures.get("nodes", []), (list, tuple)):
                raise ConfigError("failures.nodes must be a list")

    def to_dict(self) -> dict:
        out: dict = {
            "topology": self.topology,
            "flows": self.flows,
            "scheme": self.scheme,
            "failures": self.failures,
        }
        if self.throughput is not None:
            out["throughput"] = self.throughput
        if self.output_dir is not None:
            out["output_dir"] = self.output_dir
        return out

    @classmethod
    def load(cls, path: str) -> "ScenarioConfig":
        try:
            text = Path(path).read_text(encoding="utf-8")
        except OSError as exc:
            raise ConfigError(f"cannot read config {path}: {exc}") from exc
        try:
            data = json.loads(text)
        except json.JSONDecodeError as exc:
            raise ConfigError(
                f"{path}:{exc.lineno}:{exc.colno}: invalid JSON: {exc.msg}"
            ) from exc
        return cls.from_dict(data)


class SchemeCompiler:
    """Compiles per-flow forwarding state, caching per-destination structures."""

    def __init__(self, topology: Topology, scheme: dict):
        self.topology = topology
        self.scheme = scheme
        self._arbs: dict[str, list[frr.Arborescence]] = {}

    def compile(self, flow: Flow) -> ForwardingState:
        kind = self.scheme["kind"]
        if kind == "arborescence":
            k = int(self.scheme["k"])
            root = flow.destination
            if root not in self._arbs:
                self._arbs[root] = frr.decompose_arborescences(self.topology, root, k)
            return frr.compile_arborescence_frr(self.topology, self._arbs[root], flow)
        if kind == "partition":
            if "paths" in self.scheme:
                paths = tuple(tuple(p) for p in self.scheme["paths"])
                scheme = frr.PartitionScheme(flow=flow, paths=paths, relaxed=True)
                scheme.validate(self.topology)
            else:
                scheme = frr.compute_disjoint_paths(self.topology, flow, int(self.scheme["k"]))
            return frr.compile_partition_frr(self.topology, scheme, flow)
        if kind == "greedy":
            return frr.compile_greedy_frr(self.topology, flow)
        raise ConfigError(f"unknown scheme kind {kind!r}")


def _flows_of(config: ScenarioConfig, topology: Topology) -> list[Flow]:
    flows = []
    for f in config.flows:
        flow = Flow(str(f["source"]), str(f["destination"]), f.get("flow_id", ""))
        flow.validate(topology)
        flows.append(flow)
    return flows


def _failure_sets(config: ScenarioConfig, topology: Topology, flows: list[Flow]) -> list[FailureSet]:
    kind = config.failures["kind"]
    if kind == "explicit":
        fs = FailureSet.of(
            links=[tuple(l) for l in config.failures.get("links", [])],
            nodes=config.failures.get("nodes", []),
        )
        fs.validate(topology)
        return [fs]
    if kind == "sweep_links":
        return analysis.enumerate_link_failures(topology)
    endpoints = {f.source for f in flows} | {f.destination for f in flows}
    return analysis.enumerate_node_failures(topology, exclude=endpoints)


def _resolve_output_dir(config: ScenarioConfig, flag_value: str | None) -> Path:
    out = flag_value or os.environ.get(ENV_OUTPUT_DIR) or config.output_dir or "out"
    path = Path(out)
    path.mkdir(parents=True, exist_ok=True)
    return path


def _apply_overrides(config: ScenarioConfig, fail: str | None,
                     scheme: str | None) -> ScenarioConfig:
    if fail is not None:
        if fail.startswith("node:"):
            config.failures = {"kind": "explicit", "links": [], "nodes": [fail[5:]]}
        else:
            parts = fail.split(",")
            if len(parts) != 2:
                raise ConfigError("--fail expects 'a,b' (link) or 'node:x'")
            config.failures = {"kind": "explicit", "links": [parts], "nodes": []}
    if scheme is not None:
        name, _, k = scheme.partition(":")
        config.scheme = {"kind": name, **({"k": int(k)} if k else {})}
    config._validate()
    return config


def _run_scenario(config: ScenarioConfig) -> analysis.SweepReport:
    topology = build_topology(config.topology)
    flows = _flows_of(config, topology)
    failure_sets = _failure_sets(config, topology, flows)
    compiler = SchemeCompiler(topology, config.scheme)
    return analysis.run_failure_sweep(
        topology, compiler.compile, flows, failure_sets,
        check_rounds=config.failures["kind"] != "sweep_nodes",
    )


def _write_run_outputs(outdir: Path, report: analysis.SweepReport) -> None:
    trace_docs = []
    audit_lines = []
    for case in sorted(report.cases, key=lambda c: (c.flow_id, c.failure)):
        fp = case.fixpoint
        doc = {
            "flow": case.flow_id,
            "failure": case.failure,
            "verdict": case.verdict,
            "rounds": case.rounds,
            "traces": [t.to_json_dict() for t in fp.traces] if fp else [],
        }
        trace_docs.append(doc)
        if fp:
            for round_no, changes in enumerate(fp.changes_per_round, start=1):
                for change in changes:
                    audit_lines.append(
                        json.dumps(
                            {
                                "flow": case.flow_id,
                                "failure": case.failure,
                                "round": round_no,
                                **change.to_json_dict(),
                            },
                            sort_keys=True,
                        )
                    )
    (outdir / "traces.json").write_text(
        json.dumps(trace_docs, indent=2, sort_keys=True) + "\n", encoding="utf-8"
    )
    (outdir / "audit.jsonl").write_text(
        "".join(line + "\n" for line in audit_lines), encoding="utf-8"
    )
    (outdir / "report.csv").write_text(analysis.report_csv(report), encoding="utf-8")
    (outdir / "report.json").write_text(analysis.report_json(report), encoding="utf-8")


@click.group()
def main():
    """Failover-routing simulator with data-plane loop shortcutting."""


_config_argument = click.argument("config_path", type=click.Path(exists=True, dir_okay=False))
_fail_option = click.option("--fail", default=None, help="Override failure: 'a,b' link or 'node:x'.")
_scheme_option = click.option("--scheme", default=None, help="Override scheme, e.g. arborescence:4.")
_outdir_option = click.option("--output-dir", default=None, help="Output directory (or $FRRSIM_OUTPUT_DIR).")


@main.command("run")
@_config_argument
@_fail_option
@_scheme_option
@_outdir_option
def cmd_run(config_path: str, fail: str | None, scheme: str | None,
            output_dir: str | None):
    """Execute a scenario and write traces, audit log, and reports."""
    try:
        config = _apply_overrides(ScenarioConfig.load(config_path), fail, scheme)
        outdir = _resolve_output_dir(config, output_dir)
        report = _run_scenario(config)
    except (ConfigError, ValueError, frr.DecompositionError) as exc:
        raise click.ClickException(str(exc)) from exc
    _write_run_outputs(outdir, report)
    summary = report.summary_dict()
    click.echo(
        f"{summary['cases']} cases, {summary['frr_precondition_failures']} frr-precondition "
        f"failures, {summary['violations']} violations -> {outdir}"
    )
    if report.total_violations:
        sys.exit(1)


@main.command("verify")
@_config_argument
@_fail_option
@_scheme_option
@_outdir_option
def cmd_verify(config_path: str, fail: str | None, scheme: str | None,
               output_dir: str | None):
    """Run the sweep and report {cases, violations_by_kind}; exit 0 iff clean."""
    try:
        config = _apply_overrides(ScenarioConfig.load(config_path), fail, scheme)
        outdir = _resolve_output_dir(config, output_dir)
        report = _run_scenario(config)
    except (ConfigError, ValueError, frr.DecompositionError) as exc:
        raise click.ClickException(str(exc)) from exc
    summary = report.summary_dict()
    payload = json.dumps(summary, indent=2, sort_keys=True) + "\n"
    (outdir / "verify.json").write_text(payload, encoding="utf-8")
    click.echo(payload, nl=False)
    if report.total_violations:
        sys.exit(1)


@main.command("timeline")
@_config_argument
@_outdir_option
def cmd_timeline(config_path: str, output_dir: str | None):
    """Emit the three-regime throughput timeline CSV for a scenario."""
    try:
        config = ScenarioConfig.load(config_path)
        if config.throughput is None:
            raise ConfigError("timeline requires a 'throughput' config section")
        outdir = _resolve_output_dir(config, output_dir)
        timeline = build_timeline(config)
    except (ConfigError, ValueError, frr.DecompositionError) as exc:
        raise click.ClickException(str(exc)) from exc
    (outdir / "timeline.csv").write_text(timeline.to_csv(), encoding="utf-8")
    click.echo(f"timeline written to {outdir / 'timeline.csv'}")


def build_timeline(config: ScenarioConfig) -> analysis.Timeline:
    """Assemble the timeline plan from a scenario config and simulate it.

    The ``throughput`` section is checked before any flow is compiled, so a
    bad value there is reported before a flow's error.
    """
    params = config.throughput or {}
    topology = build_topology(config.topology)
    flows = _flows_of(config, topology)
    if config.failures["kind"] != "explicit":
        raise ConfigError("timeline requires an explicit failure set")
    failures = _failure_sets(config, topology, flows)[0]

    background = params.get("background_flows", [])
    if not isinstance(background, list):
        raise ConfigError("throughput.background_flows must be a list")
    background_plans = []
    for i, bg in enumerate(background):
        if not isinstance(bg, dict) or not {"source", "destination", "route"} <= bg.keys():
            raise ConfigError(
                f"throughput.background_flows[{i}] needs source, destination and route"
            )
        flow_id = bg.get("flow_id", f"{bg['source']}->{bg['destination']}")
        background_plans.append(
            analysis.background_flow_plan(topology, failures, flow_id, bg["route"])
        )

    caps_spec = params.get("capacities", "unit")
    if caps_spec == "unit":
        capacities = analysis.unit_capacities(topology)
    elif not isinstance(caps_spec, dict):
        raise ConfigError('throughput.capacities must be "unit" or an object')
    else:
        capacities = {}
        for key, rate in caps_spec.items():
            u, _, v = key.partition(",")
            if not u or not v or "," in v:
                raise ConfigError(f"throughput.capacities key {key!r} must be 'u,v'")
            capacities[(u, v)] = _number(rate, f"throughput.capacities[{key!r}]")
    number = lambda name, default: _number(params.get(name, default), f"throughput.{name}")
    timing = {
        "failure_effective": number("failure_effective", 2.0),
        "control_plane_delay": number("control_plane_delay", 2.0),
        "shortcut_delay": number("shortcut_delay", 0.2),
        "sample_step": number("sample_step", 0.1),
        "horizon": None if params.get("horizon") is None else number("horizon", None),
    }

    compiler = SchemeCompiler(topology, config.scheme)
    plans = []
    for flow in flows:
        state = compiler.compile(flow)
        pre_trace = route_packet(state, topology, FailureSet.none(), flow)
        fp = shortcut_fixpoint(state, topology, failures, flow)
        plans.append(analysis.build_flow_plan(topology, failures, flow, pre_trace, fp))
    return analysis.convergence_timeline(plans + background_plans, capacities, **timing)


def _number(value, name: str) -> Fraction:
    try:
        return analysis.as_fraction(value)
    except ValueError:
        raise ConfigError(f"{name} must be a number, got {value!r}") from None


@main.command("generate")
@click.option("--topology", "descriptor", required=True,
              help="Generator descriptor: JSON object or compact form like torus(3,3).")
@click.option("--output", "output_path", required=True, type=click.Path(dir_okay=False))
def cmd_generate(descriptor: str, output_path: str):
    """Emit a topology file from a generator descriptor."""
    spec = descriptor
    stripped = descriptor.strip()
    if stripped.startswith("{"):
        try:
            spec = json.loads(stripped)
        except json.JSONDecodeError as exc:
            raise click.ClickException(f"invalid descriptor JSON: {exc}") from exc
    try:
        topology = build_topology(spec)
    except (ValueError, RuntimeError) as exc:
        raise click.ClickException(str(exc)) from exc
    Path(output_path).write_text(
        json.dumps(topology.to_dict(), indent=2, sort_keys=True) + "\n", encoding="utf-8"
    )
    click.echo(
        f"wrote {output_path}: {len(topology.nodes)} nodes, {len(topology.links)} links, "
        f"edge connectivity {edge_connectivity(topology)}"
    )


if __name__ == "__main__":
    main()
