"""The frrsim benchmark workloads: seeded inputs, timed units, and their checks.

A workload is a list of units; one pass runs every unit once. A *case* is
one (flow, failure set) pair run through ``shortcut_fixpoint``; the
timeline's per-flow fixpoints count as cases too.

* ``sweep-arb``: the acceptance sweep of ``tests/test_acceptance.py``, one
  unit per topology. Graph seeds are ``100 + 20 * seed + i``, so seed 0
  reproduces the test's random seeds 100..119 (62,798 cases).
* ``decompose-64``: arborescence decomposition on 64-node graphs for seeded
  roots, each followed by a one-flow sweep over every single link failure.
* ``cli-schemes``: the ``frrsim`` CLI, run in-process on generated scenario
  configs, for the greedy and partition schemes, a node-failure sweep and
  the timeline.

Inputs come only from the seed. The program gets only the generated inputs
(topologies, flows, failure sets, scenario files).
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import random
import shutil
from collections import Counter
from dataclasses import dataclass, field
from fractions import Fraction
from pathlib import Path
from typing import Callable

from frrsim import analysis, cli, frr
from frrsim.topology import Flow, Topology, build_topology, edge_connectivity

# Non-looped cases enter the oracle sample with this probability; every case
# whose fixpoint changed a rule is checked.
ORACLE_SAMPLE_SHARE = 0.02

# Guarantee violations the program is known to report, per unit, counted as
# they are (in violation_share) but not as failed operations. Partition
# failover to P2 on a loop-free walk truncates once: the "later partition"
# branch of apply_truncation skips the liveness check.
KNOWN_PARTITION_DEFECT = frozenset({"rounds_mismatch"})


@dataclass
class Unit:
    """One timed call; ``run(first)`` is told whether it is the kept result."""

    name: str
    cases: int
    run: Callable[[bool], object]
    fingerprint: Callable[[object], object]


@dataclass
class Evaluation:
    """What one pass produced, checked outside the timed region."""

    attempted: int = 0
    problem_cases: int = 0  # program violation, exception or oracle mismatch
    failed: int = 0  # exception, oracle mismatch or an unknown violation kind
    frr_failed: int = 0
    delivered: int = 0
    hops_before: int = 0
    hops_after: int = 0
    stretch_after_sum: float = 0.0
    known_defects: Counter = field(default_factory=Counter)
    oracle_checked: int = 0
    oracle_problems: Counter = field(default_factory=Counter)
    digest: "hashlib._Hash" = field(default_factory=hashlib.sha256)
    rate_gain: tuple[Fraction, Fraction] | None = None

    def add_case(self, verdict: str, hops_before, hops_after, stretch_after,
                 violations: list[str], known: frozenset[str], problems: list[str]) -> None:
        self.attempted += 1
        self.oracle_problems.update(problems)
        if violations or problems:
            self.problem_cases += 1
        if problems or not set(violations) <= known:
            self.failed += 1
        else:
            self.known_defects.update(violations)
        if verdict == "frr_failed":
            self.frr_failed += 1
        elif verdict == "delivered":
            self.delivered += 1
            self.hops_before += hops_before
            self.hops_after += hops_after
            self.stretch_after_sum += stretch_after

    def simulated(self) -> dict[str, float]:
        """The deterministic metrics; a pure speed-up must leave them unchanged."""
        n = self.attempted or 1
        out = {
            "violation_share": self.problem_cases / n,
            "frr_failed_share": self.frr_failed / n,
            "hops_saved_share": (self.hops_before - self.hops_after) / (self.hops_before or 1),
            "stretch_after_mean": self.stretch_after_sum / (self.delivered or 1),
        }
        if self.rate_gain is not None:
            out["shortcut_rate_gain"] = float(self.rate_gain[0] / self.rate_gain[1])
        return out


def _all_pairs(nodes) -> list[Flow]:
    return [Flow(a, b) for a in nodes for b in nodes if a != b]


def _sweep_fingerprint(report: analysis.SweepReport) -> tuple:
    return (
        json.dumps(report.summary_dict(), sort_keys=True),
        sum(c.hops_before or 0 for c in report.cases),
        sum(c.hops_after or 0 for c in report.cases),
        sum(c.rounds for c in report.cases),
    )


def _sampled(rng: random.Random, truncated: bool, share: float = ORACLE_SAMPLE_SHARE) -> bool:
    return truncated or rng.random() < share


def _check_sweep_report(ev: Evaluation, graph, failure_sets, report: analysis.SweepReport,
                        rng: random.Random,
                        share: float = ORACLE_SAMPLE_SHARE,
                        extra_problems: list[str] = ()) -> None:
    import oracles

    by_label = {fs.label(): fs for fs in failure_sets}
    for case in report.cases:
        problems = list(extra_problems)
        fp = case.fixpoint
        if case.verdict == "delivered" and _sampled(rng, case.rounds > 0, share):
            src, dst = case.flow_id.split("->")
            fs = by_label[case.failure]
            record = oracles.CaseRecord(
                source=src, destination=dst,
                failed_links=fs.failed_links, failed_nodes=fs.failed_nodes,
                initial_path=fp.initial_trace.node_path(),
                final_path=fp.final_trace.node_path(),
                final_outcome=fp.final_trace.outcome.value,
                hops_after=case.hops_after, stretch_after=case.stretch_after,
            )
            problems += oracles.check_case(graph, record)
            ev.oracle_checked += 1
        ev.add_case(case.verdict, case.hops_before, case.hops_after, case.stretch_after,
                    case.violations, frozenset(), problems)
    ev.digest.update(analysis.report_json(report).encode())


def _graph(topology: Topology):
    import oracles

    return oracles.graph_of(topology.nodes, topology.links)


# ---------------------------------------------------------------------------
# sweep-arb
# ---------------------------------------------------------------------------

ACCEPTANCE_FIXED = ["complete(4)", "complete(5)", "hypercube(3)", "torus(3,3)", "torus(4,4)"]


class SweepArb:
    """Arborescence failover (k = edge connectivity) over every link failure."""

    def __init__(self, seed: int, work: Path, tiny: bool = False):
        fixed = ["complete(4)", "torus(3,3)"] if tiny else ACCEPTANCE_FIXED
        randoms = 2 if tiny else 20
        descs = fixed + [
            {"kind": "random", "n": 8 + (i % 5), "p": 0.5, "seed": 100 + 20 * seed + i,
             "min_edge_connectivity": 3}
            for i in range(randoms)
        ]
        self.seed = seed
        self.inputs = []
        self.units = []
        for desc in descs:
            topology = build_topology(desc)
            k = edge_connectivity(topology)
            flows = _all_pairs(topology.nodes)
            failures = analysis.enumerate_link_failures(topology)
            name = desc if isinstance(desc, str) else f"random(n={desc['n']},seed={desc['seed']})"
            self.inputs.append((topology, failures))
            self.units.append(Unit(
                name, len(flows) * len(failures),
                self._runner(topology, k, flows, failures), _sweep_fingerprint,
            ))

    @staticmethod
    def _runner(topology, k, flows, failures):
        def run(first: bool):
            # Decomposition is cached per destination within one sweep, as in
            # the acceptance test; a fresh cache per run keeps runs equal.
            cache: dict[str, list] = {}

            def compile_state(flow):
                arbs = cache.get(flow.destination)
                if arbs is None:
                    arbs = cache[flow.destination] = frr.decompose_arborescences(
                        topology, flow.destination, k)
                return frr.compile_arborescence_frr(topology, arbs, flow)

            return analysis.run_failure_sweep(topology, compile_state, flows, failures)

        return run

    def evaluate(self, results: list) -> Evaluation:
        ev = Evaluation()
        for unit, (topology, failures), report in zip(self.units, self.inputs, results):
            rng = random.Random(f"sweep-arb:{self.seed}:{unit.name}")
            _check_sweep_report(ev, _graph(topology), failures, report, rng)
        return ev


# ---------------------------------------------------------------------------
# decompose-64
# ---------------------------------------------------------------------------

class Decompose64:
    """Per-root decomposition on 64-node graphs, then one flow x link failures.

    The roots are fixed and the seed picks each root's flow source. Root
    choice alone moves the decomposition time of hypercube(6) by about
    +-15% (same call counts, different max-flow sizes), which would make
    the pass time depend on the seed more than any regression bound allows.
    """

    ROOTS_PER_TOPOLOGY = 2

    def __init__(self, seed: int, work: Path, tiny: bool = False):
        specs = [("torus(4,4)", 4), ("hypercube(3)", 3)] if tiny else [
            ("torus(8,8)", 4), ("hypercube(6)", 6)]
        roots = random.Random("decompose-64 roots")
        rng = random.Random(f"decompose-64:{seed}")
        self.seed = seed
        per_topology = []
        for desc, k in specs:
            topology = build_topology(desc)
            failures = analysis.enumerate_link_failures(topology)
            units = []
            for root in roots.sample(topology.nodes, self.ROOTS_PER_TOPOLOGY):
                source = rng.choice([v for v in topology.nodes if v != root])
                flow = Flow(source, root)
                units.append((Unit(f"{desc}@{root}", len(failures),
                                   self._runner(topology, k, root, flow, failures),
                                   self._fingerprint),
                              (topology, k, root, failures)))
            per_topology.append(units)
        # Interleave the topologies so a partial cycle still covers both.
        ordered = [u for group in zip(*per_topology) for u in group]
        self.units = [u for u, _ in ordered]
        self.inputs = [i for _, i in ordered]

    @staticmethod
    def _runner(topology, k, root, flow, failures):
        def run(first: bool):
            arbs = frr.decompose_arborescences(topology, root, k)
            report = analysis.run_failure_sweep(
                topology, lambda f: frr.compile_arborescence_frr(topology, arbs, f),
                [flow], failures)
            return arbs, report

        return run

    @staticmethod
    def _fingerprint(result) -> tuple:
        arbs, report = result
        return tuple(tuple(sorted(a.parent.items())) for a in arbs), _sweep_fingerprint(report)

    def evaluate(self, results: list) -> Evaluation:
        import networkx as nx
        import oracles

        ev = Evaluation()
        graphs: dict[Topology, tuple] = {}
        for unit, (topology, k, root, failures), (arbs, report) in zip(
                self.units, self.inputs, results):
            if topology not in graphs:
                graph = _graph(topology)
                graphs[topology] = graph, nx.edge_connectivity(graph)
            graph, connectivity = graphs[topology]
            problems = oracles.check_arborescences(
                graph, root, k, [a.parent for a in arbs], connectivity)
            rng = random.Random(f"decompose-64:{self.seed}:{unit.name}")
            # A one-flow sweep is small: every delivered case is checked.
            _check_sweep_report(ev, graph, failures, report, rng,
                                share=1.0, extra_problems=problems)
        return ev


# ---------------------------------------------------------------------------
# cli-schemes
# ---------------------------------------------------------------------------

@dataclass
class CliResult:
    exit_code: int
    outdir: Path

    @property
    def bytes_written(self) -> int:
        return sum(p.stat().st_size for p in self.outdir.iterdir())


def _invoke_cli(args: list[str]) -> int:
    """Run ``frrsim <args>`` in this process; its exit code, output discarded."""
    with contextlib.redirect_stdout(io.StringIO()):
        try:
            cli.main.main(args=args, prog_name="frrsim", standalone_mode=False)
        except SystemExit as exc:
            return int(exc.code or 0)
    return 0


def _file_digests(outdir: Path) -> tuple:
    return tuple(
        (p.name, hashlib.sha256(p.read_bytes()).hexdigest()) for p in sorted(outdir.iterdir())
    )


@dataclass
class CliSpec:
    name: str
    command: str
    topology: Topology
    config: dict
    flows: list[Flow]
    failure_sets: list
    known: frozenset[str] = frozenset()


class CliSchemes:
    """``frrsim run`` on greedy, partition and node-failure sweeps; ``timeline``."""

    def __init__(self, seed: int, work: Path, tiny: bool = False):
        rng = random.Random(f"cli-schemes:{seed}")
        self.seed = seed
        shutil.rmtree(work, ignore_errors=True)
        (work / "configs").mkdir(parents=True)
        self.work = work
        small, large = {"kind": "torus", "a": 3, "b": 3}, {"kind": "torus", "a": 5, "b": 5}
        cube = {"kind": "hypercube", "d": 3 if tiny else 4}
        part = small if tiny else {"kind": "torus", "a": 4, "b": 4}
        nodes_desc = small if tiny else large
        cube_t, part_t, nodes_t = (build_topology(d) for d in (cube, part, nodes_desc))
        ends = sorted(rng.sample(nodes_t.nodes, 3 if tiny else 6))
        failed = rng.choice(nodes_t.links)
        link_sweep = {"kind": "sweep_links"}
        partition = {"kind": "partition", "k": 2}
        self.specs = [
            self._spec("run-greedy", "run", cube, cube_t, cube_t.nodes,
                       {"kind": "greedy"}, link_sweep),
            self._spec("run-partition", "run", part, part_t, part_t.nodes,
                       partition, link_sweep, known=KNOWN_PARTITION_DEFECT),
            self._spec("run-node-sweep", "run", nodes_desc, nodes_t, ends,
                       {"kind": "arborescence", "k": 4}, {"kind": "sweep_nodes"}),
            self._spec("timeline", "timeline", nodes_desc, nodes_t, nodes_t.nodes, partition,
                       {"kind": "explicit", "links": [list(failed)], "nodes": []},
                       throughput={"capacities": "unit"}),
        ]
        self.units = []
        for spec in self.specs:
            path = work / "configs" / f"{spec.name}.json"
            path.write_text(json.dumps(spec.config, indent=2, sort_keys=True) + "\n",
                            encoding="utf-8")
            cases = len(spec.flows) * max(1, len(spec.failure_sets))
            self.units.append(Unit(
                spec.name, cases, self._runner(spec.command, path, work / "out" / spec.name),
                lambda r: (r.exit_code, _file_digests(r.outdir))))

    @staticmethod
    def _spec(name, command, desc, topology, endpoints, scheme, failures, known=frozenset(),
              throughput=None) -> CliSpec:
        flows = _all_pairs(endpoints)
        config = {
            "topology": desc, "scheme": scheme, "failures": failures,
            "flows": [{"source": f.source, "destination": f.destination} for f in flows],
        }
        if throughput:
            config["throughput"] = throughput
        kind = failures["kind"]
        if kind == "sweep_links":
            failure_sets = analysis.enumerate_link_failures(topology)
        elif kind == "sweep_nodes":
            failure_sets = analysis.enumerate_node_failures(topology, exclude=endpoints)
        else:
            failure_sets = []  # the timeline: one explicit failure, one case per flow
        return CliSpec(name, command, topology, config, flows, failure_sets, known)

    @staticmethod
    def _runner(command: str, config: Path, out: Path):
        def run(first: bool) -> CliResult:
            outdir = out / ("first" if first else "repeat")
            return CliResult(_invoke_cli([command, str(config), "--output-dir", str(outdir)]),
                             outdir)

        return run

    def evaluate(self, results: list[CliResult]) -> Evaluation:
        ev = Evaluation()
        for unit, spec, res in zip(self.units, self.specs, results):
            graph = _graph(spec.topology)
            if spec.command == "timeline":
                ev.digest.update((res.outdir / "timeline.csv").read_bytes())
                self._check_timeline(ev, spec, res)
            else:
                ev.digest.update((res.outdir / "report.json").read_bytes())
                rng = random.Random(f"cli-schemes:{self.seed}:{spec.name}")
                self._check_run(ev, spec, res, graph, rng, unit.cases)
        return ev

    @staticmethod
    def _check_run(ev: Evaluation, spec: CliSpec, res: CliResult, graph,
                   rng: random.Random, cases: int) -> None:
        """Oracle-check a sample of the cases in report.json and traces.json."""
        import oracles

        report = json.loads((res.outdir / "report.json").read_text(encoding="utf-8"))
        traces = json.loads((res.outdir / "traces.json").read_text(encoding="utf-8"))
        flows = {f.flow_id: f for f in spec.flows}
        failure_sets = {fs.label(): fs for fs in spec.failure_sets}
        # frrsim run exits 1 exactly when it reports a violation.
        exit_ok = res.exit_code == (1 if report["summary"]["violations"] else 0)
        count_ok = len(report["cases"]) == len(traces) == cases
        for row, doc in zip(report["cases"], traces):
            problems = [] if exit_ok and count_ok else ["exit_code_or_case_count_mismatch"]
            stretch_after = float(row["stretch_after"]) if row["stretch_after"] != "" else None
            if (row["flow"], row["failure"]) != (doc["flow"], doc["failure"]):
                problems.append("report_traces_misaligned")
            elif row["verdict"] == "delivered" and _sampled(rng, doc["rounds"] > 0):
                flow, fs = flows[row["flow"]], failure_sets[row["failure"]]
                problems += oracles.check_case(graph, oracles.CaseRecord(
                    source=flow.source, destination=flow.destination,
                    failed_links=fs.failed_links, failed_nodes=fs.failed_nodes,
                    initial_path=_node_path(doc["traces"][0]),
                    final_path=_node_path(doc["traces"][-1]),
                    final_outcome=doc["traces"][-1]["outcome"],
                    hops_after=row["hops_after"], stretch_after=stretch_after,
                ))
                ev.oracle_checked += 1
            ev.add_case(row["verdict"], row["hops_before"], row["hops_after"], stretch_after,
                        row["violations"], spec.known, problems)

    @staticmethod
    def _check_timeline(ev: Evaluation, spec: CliSpec, res: CliResult) -> None:
        """Max-min oracle on every timeline segment; the shortcut rate gain."""
        import oracles

        timeline = cli.build_timeline(cli.ScenarioConfig.from_dict(spec.config))
        capacities = analysis.unit_capacities(spec.topology)
        unfair: set[str] = set()
        for segments in timeline.segments.values():
            for seg in segments:
                unfair |= oracles.check_maxmin(seg.routes, seg.rates, capacities)
        for flow in spec.flows:
            problems = ["maxmin_not_fair"] if flow.flow_id in unfair else []
            if res.exit_code != 0:
                problems.append("exit_code_mismatch")
            ev.add_case("timeline", 0, 0, None, [], frozenset(), problems)
            ev.oracle_checked += 1
        plateau = timeline.segments[analysis.REGIME_FRR][1]
        steady = next(s for s in timeline.segments[analysis.REGIME_SHORTCUT]
                      if s.end == plateau.end)
        ev.rate_gain = (sum(steady.rates.values()), sum(plateau.rates.values()))


def _node_path(trace_doc: dict) -> tuple[str, ...]:
    hops = trace_doc["hops"]
    if not hops:
        return (trace_doc["final_node"],)
    return (hops[0][0],) + tuple(h[2] for h in hops)


WORKLOADS = {
    "sweep-arb": SweepArb,
    "decompose-64": Decompose64,
    "cli-schemes": CliSchemes,
}
