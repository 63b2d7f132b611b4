"""frrsim benchmark: one workload per process, timed untraced, checked by oracles.

Usage (from the root of a frrsim checkout):

    python3 perfbench/run.py --workload sweep-arb --seed 0 --seconds 45 --trace 0
    python3 perfbench/run.py --workload all        # every workload, one process each

The benchmark imports frrsim from ``src/`` of the checkout it sits in and
exits non-zero without a result when that is missing.

A run sets the workload up (timed as ``setup_s``: the median of one
in-process and SETUP_REPEATS fresh-process set-ups), then cycles through the
workload's units until ``--seconds`` have passed and every unit ran at least
once. ``wall_s`` is the sum over units of each unit's median run time, i.e.
one pass. The first result of every unit is kept and checked after the
timed region; every later run must reproduce its fingerprint.

With ``--trace 1`` every unit visit runs once untraced and once traced (in
alternating order), and the per-layer metrics come from the traced runs.
The last line of standard output is one JSON object:
``{"correct", "attempted", "failed", "metrics"}``.
"""

from __future__ import annotations

import argparse
import json
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
WORK = ROOT / ".bench_work"
# Every workload run.py knows. decompose-64 is not in BENCHMARK.json: its
# run-to-run spread on a shared 2-vCPU machine (IQR about 0.2-0.3 of the
# median) exceeds any bound the benchmark may set, so it is run on request
# only, e.g. for paired parent/change comparisons of decomposition work.
WORKLOAD_NAMES = ("sweep-arb", "cli-schemes", "decompose-64")
SETUP_REPEATS = 10
SIMULATED_UNIT = "ratio"  # simulated metrics are printed, not gated: some are 0


def spec() -> dict:
    """BENCHMARK.json: the gated workloads and the unit of every metric."""
    return json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))


def units_of(section: str) -> dict[str, str]:
    return {m["name"]: m["unit"] for m in spec()[section]}


def use_checkout_src() -> None:
    """Import frrsim from this checkout's ``src/``, never from elsewhere."""
    src = ROOT / "src"
    if not (src / "frrsim" / "__init__.py").is_file():
        sys.exit(f"perfbench: no frrsim sources at {src}; run inside a frrsim checkout")
    for path in (str(BENCH_DIR), str(src)):
        if path not in sys.path:
            sys.path.insert(0, path)


def _probe_setup(workload: str, seed: int) -> float:
    """Set-up time of one fresh process (interpreter start not included)."""
    proc = subprocess.run(
        [sys.executable, str(Path(__file__)), "--workload", workload, "--seed", str(seed),
         "--setup-only"],
        capture_output=True, text=True, timeout=120, check=True, cwd=ROOT,
    )
    return json.loads(proc.stdout.strip().splitlines()[-1])["setup_s"]


def _measure(units, seconds: float, tracer=None):
    """Cycle through units until ``seconds`` passed and each ran (traced) once.

    Returns the kept first result per unit, untraced seconds per unit, traced
    (seconds, layer totals) per unit, and the units whose later runs did not
    reproduce the first result.
    """
    n = len(units)
    firsts: list = [None] * n
    prints: list = [None] * n
    plain: list[list[float]] = [[] for _ in range(n)]
    traced: list[list[tuple[float, dict]]] = [[] for _ in range(n)]
    labels: list[tuple[int, str]] = []
    drifted: set[str] = set()
    deadline = time.perf_counter() + seconds
    visit = 0
    while True:
        u = visit % n
        unit = units[u]
        modes = [False] if tracer is None else ([False, True] if visit % 2 == 0 else [True, False])
        for with_trace in modes:
            first = firsts[u] is None
            if with_trace:
                tracer.install()
                mark = tracer.mark()
                labels.append((mark[0], f"{visit}/{unit.name}"))
            started = time.perf_counter()
            result = unit.run(first)
            elapsed = time.perf_counter() - started
            if with_trace:
                tracer.uninstall()
                totals = tracer.layer_totals(mark)
                totals["cli.bytes_written"] = getattr(result, "bytes_written", 0)
                traced[u].append((elapsed, totals))
            else:
                plain[u].append(elapsed)
            if first:
                firsts[u], prints[u] = result, unit.fingerprint(result)
            elif unit.fingerprint(result) != prints[u]:
                drifted.add(unit.name)
            del result
        visit += 1
        if visit >= n and time.perf_counter() >= deadline:
            return firsts, plain, traced, labels, drifted


def _per_layer(plain, traced, wall_s: float) -> dict[str, float]:
    """Sum over units of each unit's median traced totals, plus derived ratios."""
    total: dict[str, float] = {}
    for runs in traced:
        for key in set().union(*(t for _, t in runs)):
            total[key] = total.get(key, 0) + statistics.median(t.get(key, 0) for _, t in runs)
    traced_wall = sum(statistics.median(s for s, _ in runs) for runs in traced)
    count = lambda key: total.get(f"count.{key}", 0)
    calls = lambda layer: total.get(f"{layer}.calls", 0)
    out = {key: total.get(key, 0) for key in units_of("per_layer")}
    out["forwarding.hops"] = count("hops")
    out["forwarding.ns_per_hop"] = total["forwarding.route.s"] * 1e9 / (count("hops") or 1)
    out["frr.decompose.s_per_root"] = total["frr.decompose.s"] / (calls("frr.decompose") or 1)
    out["shortcut.rounds.total"] = count("rounds_total")
    for bucket in ("0", "1", "ge2"):
        out[f"shortcut.rounds.hist.{bucket}"] = count(f"rounds_hist_{bucket}")
    out["shortcut.rule_changes"] = count("rule_changes")
    out["shortcut.useful_step_ratio"] = count("rounds_total") / (count("steps_attempted") or 1)
    out["shortcut.looped_case_share"] = count("looped_cases") / (count("fixpoint_cases") or 1)
    out["analysis.timeline.rows"] = count("timeline_rows")
    out["trace.overhead_share"] = traced_wall / wall_s - 1
    self_s = sum(v for k, v in total.items() if k.endswith(".self_s"))
    out["trace.coverage"] = self_s / wall_s
    return out


def run_workload(name: str, seed: int, seconds: float, trace: bool,
                 setup_repeats: int = SETUP_REPEATS, tiny: bool = False) -> dict:
    """Set up, time and check one workload; returns every metric and the verdict."""
    started = time.perf_counter()
    use_checkout_src()
    import workloads

    bench = workloads.WORKLOADS[name](seed, WORK / name, tiny=tiny)
    setup = [time.perf_counter() - started]
    setup += [_probe_setup(name, seed) for _ in range(setup_repeats)]

    tracer = None
    if trace:
        import spans

        tracer = spans.Tracer()
    firsts, plain, traced, labels, drifted = _measure(bench.units, seconds, tracer)
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024

    wall_s = sum(statistics.median(times) for times in plain)
    cases = sum(unit.cases for unit in bench.units)
    ev = bench.evaluate(firsts)
    metrics = {
        "wall_s": wall_s,
        "cases_per_s": cases / wall_s,
        "setup_s": statistics.median(setup),
        "peak_rss_mb": peak_rss_mb,
    }
    (WORK / name).mkdir(parents=True, exist_ok=True)
    (WORK / name / "timings.json").write_text(json.dumps(
        {u.name: {"plain_s": t, "traced_s": [s for s, _ in r]}
         for u, t, r in zip(bench.units, plain, traced)}, indent=1) + "\n")
    layers = {}
    if tracer is not None:
        layers = _per_layer(plain, traced, wall_s)
        tracer.write(WORK / name / "spans.tsv.gz", labels)
    return {
        "workload": name,
        "seed": seed,
        "runs_per_unit": [len(times) for times in plain],
        "unit_s": {u.name: statistics.median(t) for u, t in zip(bench.units, plain)},
        "cases": cases,
        "metrics": metrics,
        "simulated": ev.simulated(),
        "layers": layers,
        "evaluation": ev,
        "drifted": sorted(drifted),
        "correct": ev.failed == 0 and not drifted and ev.attempted == cases,
    }


def _report(result: dict, trace: bool) -> None:
    ev = result["evaluation"]
    end_to_end, per_layer = units_of("end_to_end"), units_of("per_layer")
    print(f"workload {result['workload']} seed {result['seed']}: {result['cases']} cases per "
          f"pass, runs per unit {result['runs_per_unit']}")
    for key, value in result["metrics"].items():
        print(f"  {key:<20} {value:.6g} {end_to_end[key]}")
    for key, value in result["simulated"].items():
        print(f"  {key:<20} {value:.6g} {SIMULATED_UNIT}")
    print(f"  {'report_digest':<20} sha256:{ev.digest.hexdigest()}")
    print("  unit medians " + ", ".join(f"{n} {s:.3f}s" for n, s in result["unit_s"].items()))
    print(f"  hops saved {ev.hops_before - ev.hops_after} of {ev.hops_before}; "
          f"frr failed {ev.frr_failed}; cases with a violation {ev.problem_cases}")
    for kind, n in sorted(ev.known_defects.items()):
        print(f"  known defect {kind}: {n} cases (counted in violation_share)")
    print(f"  oracles checked {ev.oracle_checked} cases; problems "
          f"{dict(ev.oracle_problems) or 'none'}; failed {ev.failed}")
    if result["drifted"]:
        print(f"  NOT DETERMINISTIC: {result['drifted']}")
    if trace:
        for key, value in result["layers"].items():
            print(f"  {key:<34} {value:.6g} {per_layer[key]}")
    chosen = (
        {k: (v, per_layer[k]) for k, v in result["layers"].items()} if trace
        else {k: (v, end_to_end[k]) for k, v in result["metrics"].items()}
    )
    print(json.dumps({
        "correct": result["correct"],
        "attempted": result["cases"],
        "failed": ev.failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in chosen.items()},
    }))


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", default="all", choices=WORKLOAD_NAMES + ("all",))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=45)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-only", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)

    if args.workload == "all":
        codes = [
            subprocess.run([sys.executable, str(Path(__file__)), "--workload", name,
                            "--seed", str(args.seed), "--seconds", str(args.seconds),
                            "--trace", str(args.trace)], cwd=ROOT).returncode
            for name in WORKLOAD_NAMES
        ]
        return max(codes)
    if args.setup_only:
        started = time.perf_counter()
        use_checkout_src()
        import workloads

        workloads.WORKLOADS[args.workload](args.seed, WORK / f"{args.workload}.setup")
        print(json.dumps({"setup_s": time.perf_counter() - started}))
        return 0
    _report(run_workload(args.workload, args.seed, args.seconds, bool(args.trace)), args.trace)
    return 0


if __name__ == "__main__":
    sys.exit(main())
