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

import contextlib
import errno
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
from .topology import (FailureSet, Flow, Topology, build_topology, edge_connectivity,
                       node_names, shortest_routes)

ENV_OUTPUT_DIR = "FRRSIM_OUTPUT_DIR"


class ConfigError(ValueError):
    """Scenario config is malformed; message names the offending field."""


CONFIG_FIELDS = {"topology", "flows", "scheme", "failures", "throughput", "output_dir"}
SCHEME_FIELDS = {"arborescence": {"k"}, "partition": {"k", "paths"}, "greedy": set()}
FAILURE_FIELDS = {"explicit": {"links", "nodes"}, "sweep_links": set(), "sweep_nodes": set()}
# convergence_timeline's timing keywords, in its argument order
TIMING_DEFAULTS = {"failure_effective": Fraction(2), "control_plane_delay": Fraction(2),
                   "shortcut_delay": Fraction(1, 5), "sample_step": Fraction(1, 10),
                   "horizon": None}


def _object(value, name: str, fields: set[str] | dict | None = None,
            required: tuple = ()) -> dict:
    """``value`` as a JSON object with the ``required`` keys and none outside ``fields``,
    which may instead map each allowed ``kind`` to the other keys that kind takes."""
    if not isinstance(value, dict):
        raise ConfigError(f"{name} must be a JSON object")
    if isinstance(fields, dict):
        kind = value.get("kind")
        if kind not in fields:
            raise ConfigError(f"{name}.kind must be {'|'.join(fields)}, got {kind!r}")
        fields = {"kind", *fields[kind]}
    if fields is not None and not set(value) <= fields:
        raise ConfigError(f"unknown {name} fields: {sorted(set(value) - fields)}")
    if not all(key in value for key in required):
        raise ConfigError(f"{name} needs {', '.join(required[:-1])} and {required[-1]}")
    return value


def _number(value, name: str) -> Fraction:
    try:
        if isinstance(value, bool):  # JSON true/false are not numbers
            raise ValueError
        return analysis.as_fraction(value)
    except ValueError:
        raise ConfigError(f"{name} must be a number, got {value!r}") from None


@contextlib.contextmanager
def _named(prefix: str, error: type[Exception] = ConfigError):
    """Re-raise a library error from the block as ``error`` with ``prefix``."""
    try:
        yield
    except (ValueError, frr.DecompositionError) as exc:
        raise error(f"{prefix}{exc}") from None


@dataclass(frozen=True)
class ScenarioConfig:
    """A scenario config, parsed once and checked against its topology.

    ``failures`` is the explicit failure set or the sweep kind. The last three
    fields hold the ``throughput`` section and are None without one.
    """

    topology: Topology
    flows: tuple[Flow, ...]
    scheme: str
    k: int | None
    paths: tuple[tuple[str, ...], ...] | None
    failures: FailureSet | str
    output_dir: str | None
    capacities: dict[tuple[str, str], Fraction] | None
    background: tuple[tuple[Flow, tuple[str, ...]], ...] | None  # (flow, route) pairs
    timing: dict[str, Fraction | None] | None  # convergence_timeline's keyword arguments

    @classmethod
    def from_dict(cls, data: dict) -> "ScenarioConfig":
        data = _object(data, "config", CONFIG_FIELDS, ("topology", "flows", "scheme", "failures"))
        with _named(""):
            topology = build_topology(_object(data["topology"], "topology"))
        flows = _flows(data["flows"], "flows", topology)
        if not flows:
            raise ConfigError("flows must not be empty")
        if not isinstance(data.get("output_dir"), (str, type(None))):
            raise ConfigError("output_dir must be a string")
        throughput = data.get("throughput")
        return cls(topology, flows, *_scheme(data["scheme"], topology, flows),
                   _failures(data["failures"], topology, flows), data.get("output_dir"),
                   *((None,) * 3 if throughput is None
                     else _throughput(throughput, topology, flows)))

    @classmethod
    def load(cls, path: str, fail: str | None = None,
             scheme: str | None = None) -> "ScenarioConfig":
        """Read and parse a config file, with ``--fail``/``--scheme`` applied."""
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
        if fail is not None and not fail.startswith("node:") and fail.count(",") != 1:
            raise ConfigError("--fail expects 'a,b' (link) or 'node:x'")
        if isinstance(data, dict) and fail is not None:
            key, value = (("nodes", fail[5:]) if fail.startswith("node:")
                          else ("links", fail.split(",")))
            data["failures"] = {"kind": "explicit", key: [value]}
        if isinstance(data, dict) and scheme is not None:
            name, _, k = scheme.partition(":")
            data["scheme"] = {"kind": name, **({"k": int(k) if k.isdecimal() else k} if k else {})}
        return cls.from_dict(data)


def _flows(raw, name: str, topology: Topology, routed: bool = False) -> tuple:
    """A list of flow entries as Flows, or as (Flow, route) pairs when ``routed``."""
    if not isinstance(raw, list):
        raise ConfigError(f"{name} must be a list")
    required = ("source", "destination", "route")[:3 if routed else 2]
    flows = {}
    for i, entry in enumerate(raw):
        entry = _object(entry, f"{name}[{i}]", {"flow_id", *required}, required)
        flow_id = entry.get("flow_id", "")
        if "flow_id" in entry and not (isinstance(flow_id, str) and flow_id):
            raise ConfigError(f"{name}[{i}].flow_id must be a non-empty string, got {flow_id!r}")
        with _named(f"{name}[{i}]: "):
            flow = Flow(*node_names([entry["source"], entry["destination"]],
                                    "source and destination", pair=True), flow_id)
            flow.validate(topology)
        if flow.flow_id in flows:
            raise ConfigError(f"{name}[{i}] repeats flow id {flow.flow_id!r}")
        if not routed:
            flows[flow.flow_id] = flow
            continue
        with _named(""):
            route = tuple(node_names(entry["route"], f"{name}[{i}].route"))
        if not (route and (route[0], route[-1]) == (flow.source, flow.destination)):
            raise ConfigError(
                f"{name}[{i}].route must be a list of nodes from source to destination")
        flows[flow.flow_id] = flow, route
    return tuple(flows.values())


def _scheme(raw, topology: Topology, flows: tuple[Flow, ...]):
    """The scheme kind, ``k`` and explicit ``paths`` (checked for every flow)."""
    raw = _object(raw, "scheme", SCHEME_FIELDS)
    kind, k, paths = raw["kind"], raw.get("k"), raw.get("paths")
    if kind == "arborescence" and k is None:
        raise ConfigError("scheme.k is required for arborescence")
    if kind == "partition" and k is None and paths is None:
        raise ConfigError("partition scheme needs k or explicit paths")
    if k is not None and (isinstance(k, bool) or not isinstance(k, int) or k < 1):
        raise ConfigError(f"scheme.k must be a positive integer, got {k!r}")
    if kind == "arborescence" and k > (lam := edge_connectivity(topology)):
        raise ConfigError(f"scheme.k={k} exceeds the topology's edge connectivity {lam}")
    if paths is None:
        return kind, k, None
    if not isinstance(paths, (list, tuple)):
        raise ConfigError("scheme.paths must be a list")
    with _named(""):
        paths = tuple(tuple(node_names(path, f"scheme.paths[{i}]"))
                      for i, path in enumerate(paths))
    with _named("scheme.paths: "):
        for flow in flows:
            frr.PartitionScheme(flow=flow, paths=paths, relaxed=True).validate(topology)
    return kind, k, paths


def _failures(raw, topology: Topology, flows: tuple[Flow, ...]) -> FailureSet | str:
    """The explicit failure set, which fails no flow endpoint, or the sweep kind."""
    raw = _object(raw, "failures", FAILURE_FIELDS)
    if raw["kind"] != "explicit":
        return raw["kind"]
    links, nodes = raw.get("links", []), raw.get("nodes", [])
    if not isinstance(links, (list, tuple)):
        raise ConfigError("failures.links must be a list")
    with _named(""):
        links = [node_names(link, f"failures.links[{i}]", pair=True)
                 for i, link in enumerate(links)]
        nodes = node_names(nodes, "failures.nodes")
    for i, node in enumerate(nodes):
        for j, flow in enumerate(flows):
            if node in (flow.source, flow.destination):
                raise ConfigError(f"failures.nodes[{i}] {node!r} is an endpoint "
                                  f"of flows[{j}] {flow.flow_id!r}")
    failures = FailureSet.of(links=links, nodes=nodes)
    with _named("failures: "):
        failures.validate(topology)
    return failures


def _throughput(raw, topology: Topology, flows: tuple[Flow, ...]):
    """The ``throughput`` section: a positive rate for every directed link (and
    nothing else), background (flow, route) pairs whose ids no flow has, and
    the timing."""
    params = _object(raw, "throughput", {"capacities", "background_flows", *TIMING_DEFAULTS})
    background = _flows(params.get("background_flows", []), "throughput.background_flows",
                        topology, routed=True)
    primary = {flow.flow_id for flow in flows}
    for i, (flow, _) in enumerate(background):
        if flow.flow_id in primary:
            raise ConfigError(
                f"throughput.background_flows[{i}] repeats flow id {flow.flow_id!r} of flows")
    timing = {key: default if params.get(key) is None else _number(params[key], f"throughput.{key}")
              for key, default in TIMING_DEFAULTS.items()}
    with _named("throughput."):
        analysis.check_timing(*timing.values())
    spec, edges = params.get("capacities", "unit"), set(topology.directed_edges())
    if spec == "unit":
        return analysis.unit_capacities(topology), background, timing
    if not isinstance(spec, dict):
        raise ConfigError('throughput.capacities must be "unit" or an object')
    capacities = {}
    for key, rate in spec.items():
        u, _, v = key.partition(",")
        if (u, v) not in edges:
            raise ConfigError(f"throughput.capacities key {key!r} must be 'u,v' for a link u-v")
        name = f"throughput.capacities[{key!r}]"
        capacities[(u, v)] = _number(rate, name)
        if capacities[(u, v)] <= 0:
            raise ConfigError(f"{name} must be positive, got {rate!r}")
    missing = sorted(edges - capacities.keys())
    if missing:
        raise ConfigError(f"throughput.capacities has no rate for '{','.join(missing[0])}'")
    return capacities, background, timing


class SchemeCompiler:
    """Compiles per-flow forwarding state, caching per-destination structures."""

    def __init__(self, config: ScenarioConfig):
        self.config = config
        self._arbs: dict[str, list[frr.Arborescence]] = {}

    def compile(self, flow: Flow) -> ForwardingState:
        config, topology = self.config, self.config.topology
        if config.scheme == "arborescence":
            root = flow.destination
            if root not in self._arbs:
                self._arbs[root] = frr.decompose_arborescences(topology, root, config.k)
            return frr.compile_arborescence_frr(topology, self._arbs[root], flow)
        if config.scheme == "greedy":
            return frr.compile_greedy_frr(topology, flow)
        if config.paths is not None:
            scheme = frr.PartitionScheme(flow=flow, paths=config.paths, relaxed=True)
        else:
            try:
                scheme = frr.compute_disjoint_paths(topology, flow, config.k)
            except ValueError as exc:  # k exceeds this flow's max flow
                raise ConfigError(f"scheme.{exc} of flows[{config.flows.index(flow)}] "
                                  f"{flow.flow_id!r}") from None
        return frr.compile_partition_frr(topology, scheme, flow)


def _resolve_output_dir(config: ScenarioConfig, flag_value: str | None) -> Path:
    """The output directory, refused before any work if a file is in its
    way: the first of it and its ancestors that exists must be a directory.
    It is made by ``_make_output_dir`` once the work is done."""
    path = Path(flag_value or os.environ.get(ENV_OUTPUT_DIR) or config.output_dir or "out")
    existing = next((p for p in (path, *path.parents) if p.exists()), None)
    if existing is not None and not existing.is_dir():
        code = errno.EEXIST if existing == path else errno.ENOTDIR
        raise click.ClickException(
            f"cannot create output directory {path}: {os.strerror(code)}")
    return path


def _make_output_dir(path: Path) -> Path:
    try:
        path.mkdir(parents=True, exist_ok=True)
    except OSError as exc:
        raise click.ClickException(
            f"cannot create output directory {path}: {exc.strerror or exc}") from None
    return path


def _load_and_sweep(config_path: str, fail: str | None, scheme: str | None,
                    output_dir: str | None) -> tuple[Path, analysis.SweepReport]:
    """Parse the config, check the output directory, run the failure sweep
    and make the directory (only once every flow compiled, so a config that
    fails makes none)."""
    with _named("", click.ClickException):
        config = ScenarioConfig.load(config_path, fail, scheme)
        outdir = _resolve_output_dir(config, output_dir)
        topology, flows, failures = config.topology, config.flows, config.failures
        if isinstance(failures, FailureSet):
            failure_sets = [failures]
        elif failures == "sweep_links":
            failure_sets = analysis.enumerate_link_failures(topology)
        else:
            endpoints = {f.source for f in flows} | {f.destination for f in flows}
            failure_sets = analysis.enumerate_node_failures(topology, exclude=endpoints)
            if not failure_sets:
                raise ConfigError("failures.kind 'sweep_nodes' leaves no node to fail: "
                                  "every node is a flow endpoint")
        report = analysis.run_failure_sweep(
            topology, SchemeCompiler(config).compile, flows, failure_sets)
        return _make_output_dir(outdir), report


@contextlib.contextmanager
def _artefacts(outdir: Path, *names: str):
    """Open text files that become ``outdir/name`` only once the block completes.

    Each is written to a sibling ``name.tmp`` and renamed over ``name`` at
    the end, in the order given, so no artefact is ever half written: an
    exception removes every temporary left, and an ``OSError`` is reported
    by the artefact it hit (by ``outdir`` if it names no file). Each file
    is replaced atomically, not the set: if a rename fails, the files
    renamed before it already hold this output, so the name that marks a
    complete set goes last.
    """
    temps = [outdir / f"{name}.tmp" for name in names]
    try:
        with contextlib.ExitStack() as stack:
            yield [stack.enter_context(open(temp, "w", encoding="utf-8")) for temp in temps]
        for temp, name in zip(temps, names):
            os.replace(temp, outdir / name)
    except BaseException as exc:
        for temp in temps:
            temp.unlink(missing_ok=True)
        if isinstance(exc, OSError):
            # open and os.replace name the temporary; report its artefact
            artefact = {str(temp): outdir / name for temp, name in zip(temps, names)}
            path = artefact.get(exc.filename, exc.filename) or outdir
            raise click.ClickException(f"cannot write {path}: {exc.strerror or exc}") from None
        raise


def _write_run_outputs(outdir: Path, report: analysis.SweepReport) -> None:
    """Write ``analysis.RUN_ARTEFACTS`` into ``outdir`` (``analysis.write_run``)."""
    with _artefacts(outdir, *analysis.RUN_ARTEFACTS) as files:
        analysis.write_run(report, dict(zip(analysis.RUN_ARTEFACTS, files)))


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
    outdir, report = _load_and_sweep(config_path, fail, scheme, output_dir)
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
    outdir, report = _load_and_sweep(config_path, fail, scheme, output_dir)
    summary = report.summary_dict()
    payload = json.dumps(summary, indent=2, sort_keys=True) + "\n"
    with _artefacts(outdir, "verify.json") as (file,):
        file.write(payload)
    click.echo(payload, nl=False)
    if report.total_violations:
        sys.exit(1)


@main.command("timeline")
@_config_argument
@_outdir_option
def cmd_timeline(config_path: str, output_dir: str | None):
    """Emit the three-regime throughput timeline CSV for a scenario."""
    with _named("", click.ClickException):
        config = ScenarioConfig.load(config_path)
        outdir = _resolve_output_dir(config, output_dir)
        timeline = build_timeline(config)  # a config the timeline cannot run makes no directory
        _make_output_dir(outdir)
    with _artefacts(outdir, "timeline.csv") as (file,):
        timeline.write_csv(file)
    click.echo(f"timeline written to {outdir / 'timeline.csv'}")


def build_timeline(config: ScenarioConfig) -> analysis.Timeline:
    """Simulate the three-regime timeline of a parsed scenario config.

    Every value the timeline reads is checked before any flow compiles.
    Background routes are checked against the failure set here, because a
    ``run`` or ``verify`` of the same config may override that set.
    """
    topology, failures = config.topology, config.failures
    background = _background_plans(config)
    compiler = SchemeCompiler(config)
    routes = shortest_routes(topology, failures)
    plans = []
    for flow in config.flows:
        state = compiler.compile(flow)
        pre_trace = route_packet(state, topology, FailureSet.none(), flow)
        fp = shortcut_fixpoint(state, topology, failures, flow)
        plans.append(analysis.build_flow_plan(topology, failures, flow, pre_trace, fp, routes))
    return analysis.convergence_timeline(plans + background, config.capacities, **config.timing)


def _background_plans(config: ScenarioConfig) -> list[analysis.FlowTimelinePlan]:
    """The background flows' timeline plans, once the config is one the
    timeline can run: it has a ``throughput`` section and an explicit
    failure set that no background route crosses."""
    if config.timing is None:
        raise ConfigError("timeline requires a 'throughput' config section")
    if not isinstance(config.failures, FailureSet):
        raise ConfigError("timeline requires an explicit failure set")
    background = []
    for i, (flow, route) in enumerate(config.background):
        with _named(f"throughput.background_flows[{i}]: "):
            background.append(analysis.background_flow_plan(
                config.topology, config.failures, flow.flow_id, route))
    return background


@main.command("generate")
@click.option("--topology", "descriptor", required=True,
              help="Generator descriptor: JSON object or compact form like torus(3,3).")
@click.option("--output", "output_path", required=True, type=click.Path(dir_okay=False))
def cmd_generate(descriptor: str, output_path: str):
    """Emit a topology file from a generator descriptor."""
    with _named("invalid descriptor JSON: ", click.ClickException):
        spec = json.loads(descriptor) if descriptor.strip().startswith("{") else descriptor
    with _named("", click.ClickException):
        topology = build_topology(spec)
    path = Path(output_path)
    with _artefacts(path.parent, path.name) as (file,):
        file.write(json.dumps(topology.to_dict(), indent=2, sort_keys=True) + "\n")
    click.echo(
        f"wrote {output_path}: {len(topology.nodes)} nodes, {len(topology.links)} links, "
        f"edge connectivity {edge_connectivity(topology)}"
    )


if __name__ == "__main__":
    main()
