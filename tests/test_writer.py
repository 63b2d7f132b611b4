"""The run artefact writer against the indented ``json.dumps`` writer it replaced.

``reference_write`` is that writer, kept verbatim as the oracle: every
``traces.json``, ``audit.jsonl``, ``report.csv`` and ``report.json`` the CLI
writes must equal its bytes, and ``analysis.report_csv`` and ``report_json``
its text, for generated reports, with or without the C accelerator of the
``json`` module, and for any ``WRITE_CHUNK``. The streamed writers hold one
chunk, not a document.
"""

from __future__ import annotations

import csv
import io
import json
import json.encoder
import tempfile
import tracemalloc
from pathlib import Path

import pytest
from click.testing import CliRunner
from hypothesis import HealthCheck, example, given, settings
from hypothesis import strategies as st

from frrsim import (CaseResult, FixpointResult, Hop, Outcome, RuleChange, SweepReport, Topology,
                    Trace, analysis, build_topology, cli, enumerate_link_failures,
                    enumerate_node_failures, run_failure_sweep)

from test_analysis import SCHEME_COMPILERS, all_pairs
from test_golden import GENERATED, _all_pairs_sweep

RUN_FILES = ("traces.json", "audit.jsonl", "report.csv", "report.json")


# ---------------------------------------------------------------------------
# The reference writer
# ---------------------------------------------------------------------------

def reference_report_csv(report: SweepReport) -> str:
    """CSV rows: flow, failure, verdict, hops and stretch before/after, rounds."""
    buf = io.StringIO()
    fields = [
        "flow",
        "failure",
        "verdict",
        "hops_before",
        "hops_after",
        "stretch_before",
        "stretch_after",
        "rounds",
    ]
    writer = csv.DictWriter(buf, fieldnames=fields, lineterminator="\n")
    writer.writeheader()
    for case in sorted(report.cases, key=lambda c: (c.flow_id, c.failure)):
        writer.writerow(case.to_row())
    return buf.getvalue()


def reference_report_json(report: SweepReport) -> str:
    payload = {
        "summary": report.summary_dict(),
        "cases": [
            {**case.to_row(), "violations": case.violations, "error": case.error}
            for case in sorted(report.cases, key=lambda c: (c.flow_id, c.failure))
        ],
    }
    return json.dumps(payload, indent=2, sort_keys=True) + "\n"


def reference_write(outdir: Path, report: SweepReport) -> None:
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
    (outdir / "report.csv").write_text(reference_report_csv(report), encoding="utf-8")
    (outdir / "report.json").write_text(reference_report_json(report), encoding="utf-8")


def assert_same_artefacts(report: SweepReport) -> None:
    with tempfile.TemporaryDirectory() as tmp:
        ref, new = Path(tmp, "reference"), Path(tmp, "new")
        ref.mkdir()
        new.mkdir()
        reference_write(ref, report)
        cli._write_run_outputs(new, report)
        for name in RUN_FILES:
            assert (new / name).read_bytes() == (ref / name).read_bytes(), name
    assert analysis.report_csv(report) == reference_report_csv(report)
    assert analysis.report_json(report) == reference_report_json(report)


# ---------------------------------------------------------------------------
# Generated reports
# ---------------------------------------------------------------------------

# Quotes, a backslash, a newline, a tab, a control character, non-ASCII and a
# character outside the basic plane all need escaping in JSON; commas and
# quotes need quoting in CSV.
AWKWARD = 'q"u\\o\nt\te\x01 é中\U0001f600,'
names = st.text(alphabet=st.sampled_from(list(AWKWARD) + list("abS-1")), min_size=1,
                max_size=6)
maybe_name = st.none() | names
small = st.integers(min_value=0, max_value=40)


def walk_trace(flow_id: str, nodes: list[str], outcome: Outcome,
               loop_inport: str | None) -> Trace:
    """The trace of the walk along ``nodes``, each hop entered from the last."""
    hops = tuple(Hop(u, inport, v) for inport, u, v in zip([None, *nodes], nodes, nodes[1:]))
    return Trace(flow_id, hops, outcome, nodes[-1], loop_inport)


traces = st.builds(
    walk_trace, flow_id=names, nodes=st.lists(names, min_size=1, max_size=5),
    outcome=st.sampled_from(list(Outcome)), loop_inport=maybe_name,
)
changes = st.builds(
    RuleChange, node=names, inport=maybe_name,
    old_start=st.none() | small, new_start=st.none() | small,
)
fixpoints = st.builds(
    FixpointResult, traces=st.lists(traces, min_size=1, max_size=3), rounds=small,
    changes_per_round=st.lists(st.lists(changes, max_size=2), max_size=2),
)
VIOLATIONS = ["not_delivered", "not_simple", "not_subpath", "load_increase",
              "load_not_reduced", "rounds_mismatch", "exception"]
stretches = st.none() | st.floats(min_value=0.0, max_value=50.0)
case_fields = st.fixed_dictionaries({
    "flow_id": names,
    "failure": names,
    "verdict": st.sampled_from(["delivered", "frr_failed", "shortcut_failed", "exception"]),
    "hops_before": st.none() | small,
    "hops_after": st.none() | small,
    "stretch_before": stretches,
    "stretch_after": stretches,
    "rounds": small,
    "violations": st.lists(st.sampled_from(VIOLATIONS), max_size=3),
    "error": maybe_name,
})


def make_report(cases: list[CaseResult]) -> SweepReport:
    by_kind: dict[str, int] = {}
    for case in cases:
        for kind in case.violations:
            by_kind[kind] = by_kind.get(kind, 0) + 1
    return SweepReport(cases=cases, violations_by_kind=by_kind)


@st.composite
def reports(draw) -> SweepReport:
    """Cases holding no fixpoint, one of a few shared ones, or their own."""
    shared = draw(st.lists(fixpoints, min_size=1, max_size=3))
    cases = []
    for fields in draw(st.lists(case_fields, max_size=12)):
        choice = draw(st.integers(min_value=-1, max_value=len(shared)))
        fixpoint = None if choice < 0 else (
            draw(fixpoints) if choice == len(shared) else shared[choice])
        cases.append(CaseResult(**fields, fixpoint=fixpoint))
    return make_report(cases)


def covering_report() -> SweepReport:
    """Every shape the writer special-cases, in one report."""
    shared = FixpointResult(
        traces=[Trace(AWKWARD, (Hop("S", None, "A"), Hop("A", "S", AWKWARD)),
                      Outcome.DELIVERED, AWKWARD)],
        rounds=0,
    )
    looped = FixpointResult(
        traces=[
            Trace("S->D", (Hop("S", None, "A"), Hop("A", "S", "S"), Hop("S", "A", "A")),
                  Outcome.LOOP, "A", loop_inport="S"),
            Trace("S->D", (), Outcome.DROPPED, "S"),
        ],
        rounds=1,
        changes_per_round=[[RuleChange("S", "A", old_start=0, new_start=1)],
                           [RuleChange(AWKWARD, None)]],
    )
    return make_report([
        CaseResult("S->D", "link:A-B", "delivered", 2, 2, 1.0, 1.0, 0, fixpoint=shared),
        CaseResult("S->D", "link:A-C", "delivered", 2, 2, 1.0, 1.0, 0, fixpoint=shared),
        CaseResult("S->D", "link:S-A", "shortcut_failed", 3, 0, 1.5, None, 1,
                   violations=["not_delivered"], fixpoint=looped),
        CaseResult("S->D", "node:B", "frr_failed", 3, fixpoint=looped),
        CaseResult("S->D", "node:C", "delivered", 3, 2, 1.5, 1.0, 1,
                   violations=["not_simple", "rounds_mismatch"], fixpoint=shared),
        CaseResult(AWKWARD, AWKWARD, "exception", violations=["exception"],
                   error=f"ValueError: {AWKWARD}"),
    ])


@settings(derandomize=True, database=None, deadline=None, max_examples=60,
          suppress_health_check=[HealthCheck.too_slow])
@given(reports())
@example(make_report([]))
@example(covering_report())
def test_artefacts_equal_the_reference_writer(report):
    assert_same_artefacts(report)


def test_artefacts_do_not_depend_on_the_c_accelerator(monkeypatch):
    monkeypatch.setattr(json.encoder, "c_make_encoder", None)
    monkeypatch.setattr(json.encoder, "encode_basestring_ascii",
                        json.encoder.py_encode_basestring_ascii)
    assert_same_artefacts(covering_report())


def sweep(tmp_path: Path, config: dict) -> tuple[Path, SweepReport]:
    """The output directory and the report of ``frrsim run`` on ``config``."""
    path = tmp_path / "config.json"
    path.write_text(json.dumps(config))
    return cli._load_and_sweep(str(path), None, None, str(tmp_path / "out"))


@pytest.fixture(scope="module")
def greedy_hypercube3(tmp_path_factory) -> SweepReport:
    """Greedy on hypercube(3), all pairs x link failures: most of a flow's
    cases hold its failure-free fixpoint."""
    return sweep(tmp_path_factory.mktemp("greedy"), GENERATED["greedy_hypercube3"])[1]


@pytest.mark.parametrize("name,per_distinct,per_case", [
    ("greedy_hypercube3", 184, 704),
    ("node_sweep_with_differing_stretches", 192, 378),
])
def test_each_distinct_fixpoint_is_serialised_once(name, per_distinct, per_case, request,
                                                   tmp_path, monkeypatch):
    """One ``to_json_dict`` per trace of each distinct ``FixpointResult``,
    not one per trace of each case, nor once more for each held copy of a
    template with a stretch of its own (206 on the node sweep)."""
    report = SWEPT_REPORTS[name](request)
    distinct = {id(c.fixpoint): c.fixpoint for c in report.cases if c.fixpoint}
    assert sum(len(fp.traces) for fp in distinct.values()) == per_distinct
    assert sum(len(c.fixpoint.traces) for c in report.cases if c.fixpoint) == per_case

    calls = []
    to_json_dict = Trace.to_json_dict
    monkeypatch.setattr(Trace, "to_json_dict", lambda self: calls.append(self) or to_json_dict(self))
    cli._write_run_outputs(tmp_path, report)
    assert len(calls) == per_distinct


def test_chunks_that_split_a_shared_fixpoint_write_the_same_bytes(greedy_hypercube3,
                                                                  monkeypatch):
    monkeypatch.setattr(analysis, "WRITE_CHUNK", 7)
    cases = greedy_hypercube3.sorted_cases
    last_and_first = list(zip(cases[6::7], cases[7::7]))
    assert any(a.fixpoint is not None and a.fixpoint is b.fixpoint for a, b in last_and_first)
    assert any(a.flow_id != b.flow_id for a, b in last_and_first)
    assert_same_artefacts(greedy_hypercube3)


def node_sweep_with_differing_stretches() -> SweepReport:
    """Arborescences on a random graph, every ordered pair x every node
    failure: some templates have stretch 1.5, and some of their reused cases
    a stretch of their own, where the failed node held every shortest path."""
    t = build_topology({"kind": "random", "n": 8, "p": 0.45, "seed": 2,
                        "min_edge_connectivity": 2})
    report = run_failure_sweep(t, SCHEME_COMPILERS["arborescence"](t), all_pairs(t),
                               enumerate_node_failures(t))
    assert any(flow.template.stretch_before != 1.0 for flow in report._flows if flow.reused)
    own = own_stretch_cases(report)
    assert own and all(case.stretch_before != template.stretch_before for template, case in own)
    return report


def own_stretch_cases(report: SweepReport) -> list[tuple[CaseResult, CaseResult]]:
    """(template, case) of each held copy of a flow's template: a reused
    case with a stretch of its own, which shares the template's fixpoint."""
    return [(flow.template, case) for flow in report._flows if flow.template
            for case in flow.held if case.fixpoint is flow.template.fixpoint]


def awkward_link_and_node_sweep() -> SweepReport:
    """Greedy on torus(3,3) with node names that need escaping in JSON and
    quoting in CSV, every ordered pair x every link and every node failure."""
    torus = build_topology("torus(3,3)")
    names = dict(zip(torus.nodes, ['a"b', "c,d", "e\nf", "g\\h", "i\tj", "\x01k", "é中",
                                   "\U0001f600", "m n"]))
    t = Topology(names.values(), [(names[a], names[b]) for a, b in torus.links])
    return run_failure_sweep(t, SCHEME_COMPILERS["greedy"](t), all_pairs(t),
                             enumerate_link_failures(t) + enumerate_node_failures(t))


@pytest.mark.parametrize("chunk", [1, 7, 256])
@pytest.mark.parametrize("build", [node_sweep_with_differing_stretches,
                                   awkward_link_and_node_sweep])
def test_swept_reports_equal_the_reference_writer(build, chunk, monkeypatch):
    monkeypatch.setattr(analysis, "WRITE_CHUNK", chunk)
    assert_same_artefacts(build())


SWEPT_REPORTS = {
    "greedy_hypercube3": lambda request: request.getfixturevalue("greedy_hypercube3"),
    "node_sweep_with_differing_stretches": lambda request: node_sweep_with_differing_stretches(),
    "awkward_link_and_node_sweep": lambda request: awkward_link_and_node_sweep(),
}


@pytest.mark.parametrize("name", ["greedy_hypercube3", "node_sweep_with_differing_stretches"])
def test_writing_builds_no_reused_case(name, request, tmp_path, monkeypatch):
    """A reused case is written as its template's text with its own label,
    and one with a stretch of its own is held since the sweep, so writing
    builds no case at all."""
    report = SWEPT_REPORTS[name](request)
    assert report.total_cases > 3 * sum(len(flow.held) for flow in report._flows)

    built = []
    init = CaseResult.__init__
    monkeypatch.setattr(CaseResult, "__init__",
                        lambda self, *a, **k: built.append(self) or init(self, *a, **k))
    cli._write_run_outputs(tmp_path, report)
    assert built == []


@pytest.mark.parametrize("name", list(SWEPT_REPORTS))
def test_a_report_built_from_a_swept_ones_cases_is_the_same_report(name, request, tmp_path):
    """``SweepReport(cases, violations_by_kind)`` holds each case it is
    given, and reads and writes as the swept report it took them from."""
    swept = SWEPT_REPORTS[name](request)
    listed = SweepReport(swept.cases, swept.violations_by_kind)
    assert listed.summary_dict() == swept.summary_dict()
    for view in ("cases", "sorted_cases"):
        got, expected = getattr(listed, view), getattr(swept, view)
        assert got == expected
        assert all(a.fixpoint is b.fixpoint for a, b in zip(got, expected))
    for outdir, report in ((tmp_path / "swept", swept), (tmp_path / "listed", listed)):
        outdir.mkdir()
        cli._write_run_outputs(outdir, report)
    for file in RUN_FILES:
        assert (tmp_path / "listed" / file).read_bytes() == (
            tmp_path / "swept" / file).read_bytes(), file


def test_writer_memory_is_a_fraction_of_what_it_writes(tmp_path):
    """Greedy on torus(4,4), all pairs x link failures (7,680 cases): the
    whole-document writer peaked at about 2.74 times the bytes it wrote."""
    outdir, report = sweep(tmp_path, _all_pairs_sweep({"kind": "torus", "a": 4, "b": 4},
                                                      {"kind": "greedy"}))
    tracemalloc.start()
    try:
        cli._write_run_outputs(outdir, report)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    written = sum((outdir / name).stat().st_size for name in RUN_FILES)
    assert written > 6_000_000
    assert peak < 0.5 * written


def test_timeline_writer_memory_is_a_fraction_of_what_it_writes(tmp_path):
    """Partition k=2 on torus(5,5), all pairs, one failed link (108,000 rows):
    the writer that paged 8,192 rows at a time peaked at about 0.27 times
    the bytes it wrote."""
    config = _all_pairs_sweep({"kind": "torus", "a": 5, "b": 5}, {"kind": "partition", "k": 2})
    config["failures"] = {"kind": "explicit", "links": [["1_1", "1_2"]], "nodes": []}
    config["throughput"] = {"capacities": "unit"}
    timeline = cli.build_timeline(cli.ScenarioConfig.from_dict(config))
    path = tmp_path / "timeline.csv"
    with open(path, "w", encoding="utf-8") as file:
        tracemalloc.start()
        try:
            timeline.write_csv(file)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
    written = path.stat().st_size
    assert written > 1_000_000
    assert peak < 0.1 * written


def test_streamed_timeline_equals_to_csv(tmp_path):
    config = GENERATED["timeline_torus44"]
    path = tmp_path / "timeline.json"
    path.write_text(json.dumps(config))
    result = CliRunner().invoke(cli.main, ["timeline", str(path), "--output-dir", str(tmp_path)])
    assert result.exit_code == 0, result.output
    expected = cli.build_timeline(cli.ScenarioConfig.from_dict(config)).to_csv()
    assert (tmp_path / "timeline.csv").read_text(encoding="utf-8") == expected
