"""Metrics, exhaustive failover verification, and the throughput timeline.

The sweep engine enumerates failures, runs the shortcut fixpoint for every
(flow, failure) case, and checks the guarantees the mechanism promises: the
final route is delivered, is a simple path, uses only directed edges of the
initial reroute walk, is that walk's chronological loop erasure, and needed
exactly one truncating round if the initial walk looped and none if it did
not, whatever the failure set.
Violations are data in the report, never exceptions.

Throughput is modelled as fluid max-min fairness over per-direction unit
link capacities; the timeline stitches piecewise-constant rate segments for
the three recovery regimes (control plane only, plain fast reroute,
fast reroute plus shortcutting), all of which the control plane eventually
overwrites.
"""

from __future__ import annotations

import bisect
import csv
import functools
import heapq
import io
import itertools
import json
import operator
from array import array
from dataclasses import dataclass, field, fields, replace
from fractions import Fraction
from typing import Callable, Iterable, Iterator, Mapping, Sequence, TextIO, TypeVar

from .forwarding import ForwardingState, Outcome, Trace
from .shortcut import FixpointResult, revert_changes, shortcut_fixpoint
from .topology import (
    FailureSet,
    Flow,
    Topology,
    bfs_distances,
    canon_link,
    residual_adjacency,
    shortest_path_length,
    shortest_routes,
)


_T = TypeVar("_T")


def stretch(trace: Trace, topology: Topology, failures: FailureSet, flow: Flow) -> float:
    """Delivered hop count over the residual shortest-path hop count."""
    if trace.outcome is not Outcome.DELIVERED:
        raise ValueError("stretch is defined for delivered traces only")
    optimal = shortest_path_length(topology, failures, flow.source, flow.destination)
    return _over_optimal(trace, optimal)


def _over_optimal(trace: Trace, optimal: int | None) -> float:
    if not optimal:
        raise ValueError("destination unreachable in residual graph")
    return trace.hop_count / optimal


def link_loads(traces: Iterable[Trace]) -> dict[tuple[str, str], int]:
    """Traversal count per directed edge across all traces."""
    loads: dict[tuple[str, str], int] = {}
    for trace in traces:
        for edge in trace.directed_edges():
            loads[edge] = loads.get(edge, 0) + 1
    return loads


# ---------------------------------------------------------------------------
# Failure sweeps
# ---------------------------------------------------------------------------

def enumerate_link_failures(topology: Topology) -> list[FailureSet]:
    return [FailureSet.of(links=[link]) for link in topology.links]


def enumerate_node_failures(topology: Topology, exclude: Iterable[str] = ()) -> list[FailureSet]:
    skip = set(exclude)
    return [FailureSet.of(nodes=[n]) for n in topology.nodes if n not in skip]


ROW_FIELDS = ("flow", "failure", "verdict", "hops_before", "hops_after",
              "stretch_before", "stretch_after", "rounds")


@dataclass(slots=True)
class CaseResult:
    """Outcome of one (flow, failure) fixpoint run. ``violations`` is the
    only record of a failed guarantee, one kind per guarantee broken."""

    flow_id: str
    failure: str
    verdict: str  # delivered | frr_failed | shortcut_failed | exception
    hops_before: int | None = None
    hops_after: int | None = None
    stretch_before: float | None = None
    stretch_after: float | None = None
    rounds: int = 0
    looped_before: bool = False
    violations: list[str] = field(default_factory=list)
    error: str | None = None
    fixpoint: FixpointResult | None = field(default=None, repr=False, compare=False)

    def to_row(self) -> dict:
        """The ``ROW_FIELDS`` of report.csv, in that order."""
        fmt = lambda x: "" if x is None else (f"{x:.6g}" if isinstance(x, float) else x)
        return {
            "flow": self.flow_id,
            "failure": self.failure,
            "verdict": self.verdict,
            "hops_before": fmt(self.hops_before),
            "hops_after": fmt(self.hops_after),
            "stretch_before": fmt(self.stretch_before),
            "stretch_after": fmt(self.stretch_after),
            "rounds": self.rounds,
        }


class _FlowCases:
    """One flow's cases in a report, by index: the case objects ``held`` at
    the ascending indices ``held_at``, and ``template``, the flow's case
    with nothing failed, at ``reused`` more indices. Those are not stored:
    they are every index below the report's set count that is neither held
    nor ``skipped`` (the sets that fail an endpoint of the flow). A swept
    report's indices are those of its failure sets, a list-built one's
    those of the list it was given, where no case is reused."""

    __slots__ = ("flow_id", "template", "held", "held_at", "skipped", "reused")

    def __init__(self, flow_id: str, template: CaseResult | None = None):
        self.flow_id, self.template = flow_id, template
        self.held: list[CaseResult] = []
        self.held_at = array("i")
        self.skipped: tuple[int, ...] = ()
        self.reused = 0

    def hold(self, index: int, case: CaseResult) -> None:
        self.held.append(case)
        self.held_at.append(index)

    def walk(self, labels: Sequence[str]) -> list[tuple]:
        """``(index, case, label)`` of each of the flow's cases, in index
        order: a held case under its own ``failure``, the template under
        ``labels[index]``. No two entries share an index, so the sort never
        compares cases."""
        entries = [(index, case, case.failure) for index, case in zip(self.held_at, self.held)]
        if self.reused:
            template, taken = self.template, {*self.held_at, *self.skipped}
            entries += [(index, template, label) for index, label in enumerate(labels)
                        if index not in taken]
            entries.sort()
        return entries


def _copies(entries: Iterable[tuple]) -> Iterator[CaseResult]:
    """A new case for each entry of ``_FlowCases.walk``: its case under the
    entry's label, with a ``violations`` list of its own and the same
    ``fixpoint``."""
    names = [f.name for f in fields(CaseResult) if f.name not in ("failure", "violations")]
    last = None
    for _, case, label in entries:
        if case is not last:  # a template's entries often follow one another
            last, kept = case, {name: getattr(case, name) for name in names}
        yield CaseResult(**kept, failure=label, violations=list(case.violations))


class SweepReport:
    """Aggregate of a failure sweep; violations are expected to be zero.

    The cases are kept per flow (``_FlowCases``): the case objects the
    report holds, and the number of cases that reuse the flow's template,
    whose indices are derived, not stored. A held trace is a node path (see
    ``Trace``), so a swept report grows with its held cases and its labels,
    not with its reused cases. ``SweepReport(cases, violations_by_kind)``
    holds each case it is given, one record per run of consecutive cases
    with one ``flow_id``; ``run_failure_sweep`` fills a report as it runs.
    ``violations_by_kind`` is taken as given; ``total_cases`` and
    ``frr_failures`` are counted from the records on each read.

    ``cases`` (in the order given, or sweep order), ``iter_sorted_cases()``
    and ``sorted_cases`` build new copies on every read, each with its own
    ``violations`` list, so a change to one never reaches the report. A copy
    shares its case's ``fixpoint``, which is read-only, as every
    ``fixpoint`` is. The writers read ``iter_labelled_cases()`` instead,
    which copies nothing.
    """

    def __init__(self, cases: Iterable[CaseResult], violations_by_kind: dict[str, int]):
        self.violations_by_kind = violations_by_kind
        self._flows: list[_FlowCases] = []
        # the label of each index, read for reused cases only
        self._labels: Sequence[str] = ()
        for index, case in enumerate(cases):
            if not self._flows or self._flows[-1].flow_id != case.flow_id:
                self._flows.append(_FlowCases(case.flow_id))
            self._flows[-1].hold(index, case)

    @property
    def total_cases(self) -> int:
        return sum(len(flow.held) + flow.reused for flow in self._flows)

    @property
    def frr_failures(self) -> int:
        """Held cases with verdict ``frr_failed``: a reused case was delivered."""
        return sum(case.verdict == "frr_failed" for flow in self._flows for case in flow.held)

    @property
    def total_violations(self) -> int:
        return sum(self.violations_by_kind.values())

    @property
    def cases(self) -> list[CaseResult]:
        """New copies of the cases, flow by flow, each flow's in index order."""
        return list(_copies(entry for flow in self._flows
                            for entry in flow.walk(self._labels)))

    def _sorted_walk(self) -> Iterator[tuple]:
        """The entries of every flow's ``walk`` in (flow, failure) order, the
        order of every run artefact: one flow id at a time, that id's
        entries, collected in flow order and then index order, stably sorted
        by label. This is the order of a stable sort of ``cases``."""
        by_id: dict[str, list[_FlowCases]] = {}
        for flow in self._flows:
            by_id.setdefault(flow.flow_id, []).append(flow)
        for flow_id in sorted(by_id):
            yield from sorted((entry for flow in by_id[flow_id]
                               for entry in flow.walk(self._labels)),
                              key=operator.itemgetter(2))

    def iter_sorted_cases(self) -> Iterator[CaseResult]:
        """``cases`` in (flow, failure) order; ties keep the order of ``cases``."""
        return _copies(self._sorted_walk())

    @property
    def sorted_cases(self) -> list[CaseResult]:
        """``iter_sorted_cases()`` as a list, built on each read."""
        return list(self.iter_sorted_cases())

    def iter_labelled_cases(self) -> Iterator[tuple[CaseResult, str]]:
        """``(case, failure label)`` of each case, in ``iter_sorted_cases()``
        order, for writers only. The case is an object the report holds, a
        held case or its flow's template, so it must not be changed; every
        field of it but ``failure`` is the labelled case's."""
        return ((case, label) for _, case, label in self._sorted_walk())

    def summary_dict(self) -> dict:
        return {
            "cases": self.total_cases,
            "frr_precondition_failures": self.frr_failures,
            "violations": self.total_violations,
            "violations_by_kind": dict(sorted(self.violations_by_kind.items())),
        }


def loop_erasure(walk: Sequence[str]) -> tuple[str, ...]:
    """The chronological loop erasure of a walk: on revisiting a node, pop
    the path back to it."""
    path: list[str] = []
    for node in walk:
        if node in path:
            del path[path.index(node) + 1:]
        else:
            path.append(node)
    return tuple(path)


def _check_case(case: CaseResult, fp: FixpointResult) -> None:
    initial = fp.initial_trace
    final = fp.final_trace
    case.looped_before = not initial.is_simple()
    case.rounds = fp.rounds
    case.hops_before = initial.hop_count
    case.hops_after = final.hop_count

    if final.outcome is not Outcome.DELIVERED:
        case.verdict = "shortcut_failed"
        case.violations.append("not_delivered")
        return
    case.verdict = "delivered"
    if len(fp.traces) == 1:
        # the walk is its own final walk: on its own edges, with the same
        # loads, so it is simple, lighter and its own loop erasure exactly
        # when it did not loop
        if case.looped_before:
            case.violations += ["not_simple", "load_not_reduced", "not_loop_erased"]
    else:
        if not final.is_simple():
            case.violations.append("not_simple")
        loads0 = link_loads([initial])
        loads1 = link_loads([final])
        if not loads1.keys() <= loads0.keys():
            case.violations.append("not_subpath")
        if any(loads1.get(e, 0) > n for e, n in loads0.items()):
            case.violations.append("load_increase")
        if case.looped_before and all(loads1.get(e, 0) >= n for e, n in loads0.items()):
            case.violations.append("load_not_reduced")
        if case.looped_before and final.nodes != loop_erasure(initial.nodes):
            case.violations.append("not_loop_erased")
    if fp.rounds != (1 if case.looped_before else 0):
        case.violations.append("rounds_mismatch")


def run_failure_sweep(
    topology: Topology,
    compile_state: Callable[[Flow], ForwardingState],
    flows: Sequence[Flow],
    failure_sets: Sequence[FailureSet],
) -> SweepReport:
    """Run the shortcut fixpoint for every (flow, failure) pair and verify it.

    ``compile_state`` returns the pristine state for a flow. It is called
    once per flow and again after a case that raised, and the flow's cases
    run on the state it returned: after each case, the rule changes its
    fixpoint recorded are undone in reverse order, which restores that
    state, and a case that raised before its fixpoint returned is followed
    by a fresh state instead. Cases where the base reroute already fails to
    deliver are reported as frr_failed and excluded from the guarantee
    checks; an exception is recorded as the case's verdict.

    Every delivered case is also held to the one-round guarantee, whatever
    its failure set: one truncating round if its initial walk looped, none
    otherwise. A delivered case whose walk looped must end on that walk's
    ``loop_erasure``; ``not_loop_erased`` marks one that does not.

    Each flow first runs, unreported, the case with nothing failed. If it
    is delivered in 0 rounds with no violation, it is the template of every
    failure set that fails no node and no link of its walk: such a reused
    case is the template's fields under its own label. This is exact
    because shortcutting is local. With nothing failed, each hop took the
    first entry of its suffix (greedy state skips only the return edge,
    never a dead entry), and that entry is still live, so the walk is the
    same. Zero rounds means no inport saw an exit deeper than its start,
    which no failure can change, so no rule changes either. The template did
    not loop (a looped walk left as it was is a violation) and needed no
    round, so its rounds check holds for every reused case. If the case with
    nothing failed raises, drops, needs a round or violates a guarantee,
    every case of the flow runs its own fixpoint.

    The failure sets are indexed by element: each node and each link maps
    to the indices of the sets that fail it. A flow skips the sets of its
    two endpoints, runs the sets of its template walk's nodes and links,
    in index order, and reuses every other set without visiting it.

    A reused case keeps the template's stretch when it is 1.0, that is when
    the walk's hop count h is the failure-free distance: the walk survives,
    so the residual distance is at most h, and removing links lengthens no
    path, so it is at least h. Otherwise a reused case looks up a residual
    distance only if its set fails a node or link of one failure-free
    shortest path from the source; a set that misses that path leaves the
    distance, and so the stretch, as it was. The residual graph of a failure
    set (the topology itself for nothing failed) is built once per sweep,
    and its distances to a destination once per (failure set, destination).

    The report (see ``SweepReport``) holds, per flow, the template, the
    cases that ran their own fixpoint, the sets it skipped, and the number
    of failure sets whose case is the template under its own label: every
    set it neither held nor skipped, so their indices are not stored. A
    reused case whose stretch differs from the template's is held instead,
    as a copy of the template with its own label and stretch. Only the
    violations are counted as the sweep runs, by kind. Every case reused or
    copied from the template shares its ``FixpointResult`` object, so a
    ``CaseResult.fixpoint`` must be treated as read-only.
    """
    report = SweepReport([], {})
    violations = report.violations_by_kind
    labels = report._labels = [failures.label() for failures in failure_sets]
    # keyed by index into failure_sets, None for nothing failed
    residuals: dict[int | None, Mapping[str, Sequence[str]]] = {None: topology.arc_adjacency()}
    distances: dict[tuple[int | None, str], dict[str, int]] = {}
    failing: dict[str | tuple[str, str], list[int]] = {}  # element -> sets that fail it
    for index, failures in enumerate(failure_sets):
        for element in itertools.chain(failures.failed_nodes, failures.failed_links):
            failing.setdefault(element, []).append(index)

    def hit(path: Sequence[str]) -> set[int]:
        """The indices of the sets that fail a node or a link of ``path``."""
        found = set()
        for element in itertools.chain(path, map(canon_link, path, path[1:])):
            found.update(failing.get(element, ()))
        return found

    def distance(index: int | None, flow: Flow) -> int | None:
        key = (index, flow.destination)
        if key not in distances:
            if index not in residuals:
                residuals[index] = residual_adjacency(topology, failure_sets[index])
            distances[key] = bfs_distances(residuals[index], flow.destination)
        return distances[key].get(flow.source)

    def shortest_path(flow: Flow) -> list[str]:
        """The failure-free shortest path from the source that takes the
        first neighbour one hop nearer at each node."""
        near, adjacency = distances[(None, flow.destination)], residuals[None]
        path = [flow.source]
        while path[-1] != flow.destination:
            step = near[path[-1]] - 1
            path.append(next(v for v in adjacency[path[-1]] if near.get(v) == step))
        return path

    def run_case(case: CaseResult, flow: Flow, failures: FailureSet, index: int | None,
                 state: ForwardingState) -> ForwardingState:
        """Run, check and measure one case; return the state for the flow's next case."""
        fp = None
        try:
            fp = case.fixpoint = shortcut_fixpoint(state, topology, failures, flow)
            if fp.initial_trace.outcome is not Outcome.DELIVERED:
                case.verdict = "frr_failed"
                case.hops_before = fp.initial_trace.hop_count
            else:
                _check_case(case, fp)
                optimal = distance(index, flow)
                case.stretch_before = _over_optimal(fp.initial_trace, optimal)
                if fp.delivered:
                    case.stretch_after = _over_optimal(fp.final_trace, optimal)
        except Exception as exc:  # exceptions are violations, not aborts
            case.verdict = "exception"
            case.error = f"{type(exc).__name__}: {exc}"
            case.violations.append("exception")
        if fp is None:
            return compile_state(flow)
        revert_changes(state, fp.all_changes())
        return state

    every = range(len(failure_sets))
    for flow in flows:
        template = CaseResult(flow_id=flow.flow_id, failure="", verdict="")
        state = run_case(template, flow, FailureSet(), None, compile_state(flow))
        reusable = template.verdict == "delivered" and not (template.rounds or template.violations)
        record = _FlowCases(flow.flow_id, template if reusable else None)
        report._flows.append(record)
        skipped = {*failing.get(flow.source, ()), *failing.get(flow.destination, ())}
        if reusable:
            walk = template.fixpoint.final_trace
            fresh = hit(walk.nodes)
            visit = fresh
            if template.stretch_before != 1.0:
                visit = fresh | hit(shortest_path(flow))
            visit = sorted(visit - skipped)
        else:
            fresh, visit = every, [index for index in every if index not in skipped]
        for index in visit:
            if index not in fresh:
                ratio = _over_optimal(walk, distance(index, flow))
                if ratio != template.stretch_before:
                    record.hold(index, replace(
                        template, failure=labels[index], stretch_before=ratio,
                        stretch_after=ratio, violations=[]))
                continue
            case = CaseResult(flow_id=flow.flow_id, failure=labels[index], verdict="")
            state = run_case(case, flow, failure_sets[index], index, state)
            for kind in case.violations:
                violations[kind] = violations.get(kind, 0) + 1
            record.hold(index, case)
        if reusable:
            # held and skipped sets are disjoint; every other set is reused
            record.skipped = tuple(skipped)
            record.reused = len(failure_sets) - len(record.held) - len(skipped)
    return report


# Run artefacts print as json.dumps(..., indent=2, sort_keys=True) would, but
# with ``indent`` set CPython drops to its pure-Python encoder. Here the C
# encoder prints flat records of scalars with ",\n" and the padding of their
# fields as item separator, which is the indent=2 text of those fields; the
# brackets, their line breaks and nested values are spliced in around them.
# Encoded strings never hold a raw newline, so the separator only ever falls
# between fields.

@functools.cache
def _encoder(depth: int) -> json.JSONEncoder:
    """Flat containers whose brackets sit ``depth`` levels deep."""
    return json.JSONEncoder(sort_keys=True, separators=(",\n" + "  " * (depth + 1), ": "))


def json_items(items: Sequence[str], depth: int, brackets: str = "[]") -> str:
    """Already encoded list items (or object fields, with ``brackets`` "{}"),
    each printed ``depth + 1`` deep, in brackets that sit ``depth`` deep."""
    body = _encoder(depth).item_separator.join(items)
    if not body:  # [] and {} print alike at every depth
        return brackets
    pad = "\n" + "  " * depth
    return f"{brackets[0]}{pad}  {body}{pad}{brackets[1]}"


def json_fields(records: Sequence, depth: int) -> list[str]:
    """The fields of each flat record (keys sorted) or the items of each flat
    list, printed ``depth + 1`` deep and joined by that depth's separator."""
    if not records:
        return []
    encoder = _encoder(depth)
    # Within a record the separator is followed by a key or a scalar, so a
    # closing bracket, the separator and an opening bracket mark a boundary.
    text = encoder.encode(records)[2:-2]
    close, open_ = ("}", "{") if isinstance(records[0], dict) else ("]", "[")
    return text.split(close + encoder.item_separator + open_)


# Run artefacts are written WRITE_CHUNK cases at a time, so a writer holds one
# chunk's text and cases, never a whole document or every case.
WRITE_CHUNK = 256


def in_chunks(items: Iterable[_T]) -> Iterator[list[_T]]:
    """``items`` as consecutive lists of ``WRITE_CHUNK`` (the last may be shorter)."""
    items = iter(items)
    while chunk := list(itertools.islice(items, WRITE_CHUNK)):
        yield chunk


class Spliced:
    """The text of each ``(case, label)`` pair of ``iter_labelled_cases()``:
    the case's text in two halves around its ``failure`` value, from
    ``render``, with the label's text from ``encode`` between them.

    The cases of a flow are rendered once per distinct ``key`` (by default
    the case object itself, by ``id``), so cases with one key must render
    alike; each label is encoded once, however many pairs hold it. Called
    one chunk of pairs at a time, in order; only the halves of the last
    flow seen are kept between chunks, since a case serves one flow.
    """

    def __init__(self, render: Callable[[list[CaseResult]], Iterable[Sequence[str]]],
                 encode: Callable[[str], str], key: Callable[[CaseResult], object] = id):
        self._render, self._encode, self._key = render, encode, key
        self._labels: dict[str, str] = {}
        # key -> (case, head, tail); holding the case keeps the ids in its key its own
        self._halves: dict[object, tuple[CaseResult, str, str]] = {}

    def __call__(self, pairs: Sequence[tuple[CaseResult, str]]) -> list[str]:
        """The texts of a non-empty chunk of pairs."""
        labels, halves, texts = self._labels, self._halves, []
        keys = [self._key(case) for case, _ in pairs]
        new = {key: case for key, (case, _) in zip(keys, pairs) if key not in halves}
        for (key, case), (head, tail) in zip(new.items(), self._render(list(new.values()))):
            halves[key] = case, head, tail
        for key, (_, label) in zip(keys, pairs):
            if (text := labels.get(label)) is None:
                text = labels[label] = self._encode(label)
            _, head, tail = halves[key]
            texts.append(head + text + tail)
        last = pairs[-1][0].flow_id
        if any(case.flow_id != last for case, _, _ in halves.values()):
            self._halves = {key: entry for key, entry in halves.items()
                            if entry[0].flow_id == last}
        return texts


def json_string(text: str) -> str:
    """``text`` as a JSON string, as every run artefact prints it."""
    return _encoder(0).encode(text)


def _trace_json(trace: Trace) -> str:
    """One trace as traces.json prints it, three levels deep."""
    doc = trace.to_json_dict()
    hops = [json_items([h], 5) for h in json_fields(doc.pop("hops"), 5)]
    # "hops" sorts between the scalar fields, so it goes between two halves
    head, tail = json_fields([{k: v for k, v in doc.items() if k < "hops"},
                              {k: v for k, v in doc.items() if k > "hops"}], 3)
    return json_items([head, f'"hops": {json_items(hops, 4)}', tail], 3, "{}")


def _trace_docs(cases: list[CaseResult]) -> Iterator[list[str]]:
    """traces.json's doc of each case: its flow, rounds, verdict and fixpoint's traces."""
    heads = json_fields([{"flow": c.flow_id, "rounds": c.rounds} for c in cases], 1)
    verdicts = json_fields([{"verdict": c.verdict} for c in cases], 1)
    for case, head, verdict in zip(cases, heads, verdicts):
        fp = case.fixpoint
        fragment = "[]" if fp is None else json_items([_trace_json(t) for t in fp.traces], 2)
        # "failure" sorts first; encoded JSON never holds a raw NUL
        yield json_items(['"failure": \0', head, f'"traces": {fragment}', verdict],
                         1, "{}").split("\0")


_AUDIT = json.JSONEncoder(sort_keys=True)


def _audit_lines(pairs: list[tuple[CaseResult, str]]) -> list[str]:
    """audit.jsonl's line of each rule change of each pair's fixpoint."""
    return [_AUDIT.encode({"flow": case.flow_id, "failure": label,
                           "round": round_no, **change.to_json_dict()}) + "\n"
            for case, label in pairs if case.fixpoint
            for round_no, changes in enumerate(case.fixpoint.changes_per_round, start=1)
            for change in changes]


CSV_HEADER = ",".join(ROW_FIELDS) + "\n"


def _csv_lines(rows: Iterable[Iterable]) -> list[str]:
    """report.csv's line of each row."""
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")  # holds a 128 KiB buffer while it lives
    lines = []
    for row in rows:
        buf.seek(0)
        buf.truncate()
        writer.writerow(row)
        lines.append(buf.getvalue())
    return lines


def _csv_rows(cases: list[CaseResult]) -> Iterator[tuple[str, str]]:
    """report.csv's row of each case. The csv module quotes each field on
    its own, so a row splits cleanly around the ``failure`` field."""
    rows = [case.to_row().values() for case in cases]
    lines = _csv_lines(part for flow, _, *rest in rows for part in ([flow, ""], ["", *rest]))
    return zip([head[:-1] for head in lines[::2]], lines[1::2])


def _case_records(cases: list[CaseResult]) -> Iterator[list[str]]:
    """report.json's record of each case: its row, error and violations."""
    errors = json_fields([{"error": case.error} for case in cases], 2)
    rows = json_fields([{k: v for k, v in case.to_row().items() if k != "failure"}
                        for case in cases], 2)
    violations = json_fields([case.violations for case in cases], 3)
    for error, row, v in zip(errors, rows, violations):
        # "failure" sorts between "error" and the other fields of the row,
        # "violations" after them all; encoded JSON never holds a raw NUL
        yield json_items([error, '"failure": \0', row, f'"violations": {json_items([v], 3)}'],
                         2, "{}").split("\0")


def _json_list(texts: Spliced, depth: int, before: str = "", after: str = "") -> tuple:
    """The parts of the list of ``texts``, ``depth`` deep, between ``before`` and ``after``."""
    head, tail = json_items(["\0"], depth).split("\0")
    return f"{before}[]{after}", before + head, texts, _encoder(depth).item_separator, tail + after


def _report_json(report: SweepReport) -> tuple:
    """report.json: the records in ``{"cases": [...], "summary": summary_dict()}``."""
    summary = report.summary_dict()
    by_kind = json_items(json_fields([summary.pop("violations_by_kind")], 2), 2, "{}")
    summary = json_items([*json_fields([summary], 1), f'"violations_by_kind": {by_kind}'], 1, "{}")
    head, tail = json_items(['"cases": \0', f'"summary": {summary}'], 0, "{}").split("\0")
    return _json_list(Spliced(_case_records, json_string), 1, head, tail + "\n")


# The parts of each run artefact, made anew for each write: its text when
# there are no cases, its head, the texts of one chunk of (case, label)
# pairs, the separator between texts (so also before each later chunk), and
# its tail. A traces.json doc reads only its case's fixpoint, flow, rounds
# and verdict, so a held copy of a template is not rendered again.
_ARTEFACTS: dict[str, Callable[[SweepReport], tuple]] = {
    "traces.json": lambda report: _json_list(Spliced(
        _trace_docs, json_string, lambda c: (id(c.fixpoint), c.flow_id, c.rounds, c.verdict)),
        0, after="\n"),
    "audit.jsonl": lambda report: ("", "", _audit_lines, "", ""),
    "report.csv": lambda report: (CSV_HEADER, CSV_HEADER, Spliced(
        _csv_rows, lambda label: _csv_lines([[label, ""]])[0][:-2]), "", ""),
    "report.json": _report_json,
}

RUN_ARTEFACTS = ("traces.json", "audit.jsonl", "report.csv", "report.json")
"""The files of ``frrsim run`` in the order ``write_run`` writes them, with
report.json, the file that marks a complete set, last."""


def write_run(report: SweepReport, files: Mapping[str, TextIO]) -> None:
    """Write each of ``RUN_ARTEFACTS`` that ``files`` maps to an open text
    file, all from one pass over ``report.iter_labelled_cases()``,
    ``WRITE_CHUNK`` pairs at a time, so no list of every case is held. A
    reused case comes as its flow's template, so each distinct case's text
    is rendered once per flow and its label spliced in (``Spliced``)."""
    artefacts = [(files[name], *_ARTEFACTS[name](report)) for name in RUN_ARTEFACTS
                 if name in files]
    written = False
    for chunk in in_chunks(report.iter_labelled_cases()):
        for file, _, head, texts, separator, _ in artefacts:
            file.write(separator if written else head)
            file.write(separator.join(texts(chunk)))
        written = True
    for file, empty, _, _, _, tail in artefacts:
        file.write(tail if written else empty)


def _text(report: SweepReport, name: str) -> str:
    buf = io.StringIO()
    write_run(report, {name: buf})
    return buf.getvalue()


def report_csv(report: SweepReport) -> str:
    """CSV rows: flow, failure, verdict, hops and stretch before/after, rounds."""
    return _text(report, "report.csv")


def report_json(report: SweepReport) -> str:
    """``{"cases": [row + error + violations, ...], "summary": summary_dict()}``."""
    return _text(report, "report.json")


# ---------------------------------------------------------------------------
# Max-min fair throughput
# ---------------------------------------------------------------------------

def as_fraction(value) -> Fraction:
    if isinstance(value, Fraction):
        return value
    if isinstance(value, int):
        return Fraction(value)
    return Fraction(str(value))


def maxmin_throughput(
    routes: Mapping[str, Sequence[tuple[str, str]]],
    capacities: Mapping[tuple[str, str], object],
    demands: Mapping[str, object] | None = None,
) -> dict[str, Fraction]:
    """Event-driven water-filling max-min allocation with exact arithmetic.

    ``routes`` maps a flow id to the directed edges it traverses (an edge
    listed twice counts once); ``capacities`` gives per directed edge rates.
    All flows rise together until a link saturates or a demand (default 1)
    is met; those flows freeze and the rest continue. Since every active
    flow sits at the same level, an edge saturates at (capacity - frozen
    load) / active users, which changes only when one of its flows
    freezes. A heap of these levels and the demands yields each freezing
    level in turn; freezing updates only the edges of the frozen flows.
    The rates are exact ``Fraction``s, equal to progressive filling's.
    """
    demand = {f: as_fraction((demands or {}).get(f, 1)) for f in routes}
    residual: dict[tuple[str, str], Fraction] = {}
    users: dict[tuple[str, str], set[str]] = {}
    for flow_id, edges in routes.items():
        for edge in edges:
            if edge not in capacities:
                raise ValueError(f"no capacity defined for edge {edge}")
            cap = as_fraction(capacities[edge])
            if cap <= 0:
                raise ValueError(f"flow {flow_id!r} routed over zero-capacity edge {edge}")
            residual[edge] = cap
            users.setdefault(edge, set()).add(flow_id)

    # residual[e] is capacity minus frozen load, users[e] holds active flows,
    # and latest[e] is the tick of e's current event; older ones are stale.
    ticks = itertools.count()
    events = [(demand[f], next(ticks), f, None) for f in routes]
    latest: dict[tuple[str, str], int] = {}

    def schedule(edge: tuple[str, str]) -> None:
        latest[edge] = next(ticks)
        heapq.heappush(events, (residual[edge] / len(users[edge]), latest[edge], None, edge))

    heapq.heapify(events)
    for edge in users:
        schedule(edge)
    rates = dict.fromkeys(routes, Fraction(0))
    active = set(routes)
    while active:
        level = None
        frozen: set[str] = set()
        while events:
            at, tick, flow_id, edge = events[0]
            live = flow_id in active if edge is None else latest[edge] == tick and users[edge]
            if live:
                if level is not None and at != level:
                    break
                level = at
                frozen |= users[edge] if edge else {flow_id}
            heapq.heappop(events)
        active -= frozen
        touched: dict[tuple[str, str], int] = {}
        for flow_id in frozen:
            rates[flow_id] = level
            for edge in set(routes[flow_id]):
                users[edge].discard(flow_id)
                touched[edge] = touched.get(edge, 0) + 1
        for edge, count in touched.items():
            residual[edge] -= level * count
            if users[edge]:
                schedule(edge)
    return rates


# ---------------------------------------------------------------------------
# Convergence timeline
# ---------------------------------------------------------------------------

REGIME_CONTROL = "control_plane"
REGIME_FRR = "frr_only"
REGIME_SHORTCUT = "frr_shortcut"
REGIMES = (REGIME_CONTROL, REGIME_FRR, REGIME_SHORTCUT)


@dataclass(frozen=True)
class FlowTimelinePlan:
    """Routes one flow uses in each phase of the recovery story."""

    flow_id: str
    pre_route: tuple[tuple[str, str], ...]
    frr_route: tuple[tuple[str, str], ...] | None
    shortcut_route: tuple[tuple[str, str], ...] | None
    converged_route: tuple[tuple[str, str], ...] | None
    affected: bool


@dataclass(frozen=True)
class TimelineSegment:
    start: Fraction
    end: Fraction
    regime: str
    rates: Mapping[str, Fraction]
    routes: Mapping[str, tuple[tuple[str, str], ...]]


@dataclass
class Timeline:
    segments: dict[str, list[TimelineSegment]]
    sample_step: Fraction
    horizon: Fraction

    def samples(self) -> list[tuple[Fraction, str, Fraction, str]]:
        """(time, flow, rate, regime) rows at sample_step granularity.

        Rows are ordered by regime (``REGIMES`` order, which is also
        alphabetical), then flow id, then time; times run from 0 up to but
        excluding the horizon.
        """
        times = self._sample_times()
        return [
            (t, flow_id, rate, regime)
            for first, stop, flow_id, rate, regime in self._blocks(times)
            for t in times[first:stop]
        ]

    def to_csv(self) -> str:
        """``samples()`` as CSV with a header, in the same row order.

        Times and rates are written as ``repr(float(...))``. Each sample
        time is formatted once, and each segment's rate once per flow.
        """
        return "".join(self._csv_blocks())

    def write_csv(self, file: TextIO) -> None:
        """Write ``to_csv()`` into ``file`` one block of rows at a time."""
        file.writelines(self._csv_blocks())

    def _csv_blocks(self) -> Iterator[str]:
        """The CSV header, then the text of each of ``_blocks`` in row order."""
        times = self._sample_times()
        stamps = [repr(float(t)) for t in times]
        row = io.StringIO()
        writer = csv.writer(row, lineterminator="\n")
        writer.writerow(["time", "flow", "rate", "regime"])
        yield row.getvalue()
        for first, stop, flow_id, rate, regime in self._blocks(times):
            # A block's rows differ only in the time, which never needs quoting.
            row.seek(0)
            row.truncate()
            writer.writerow(("", flow_id, repr(float(rate)), regime))
            tail = row.getvalue()
            yield "".join([stamp + tail for stamp in stamps[first:stop]])

    def _sample_times(self) -> list[Fraction]:
        times, t = [], Fraction(0)
        while t < self.horizon:
            times.append(t)
            t += self.sample_step
        return times

    def _blocks(self, times: list[Fraction]):
        """(first, stop, flow, rate, regime): ``times[first:stop]`` share a rate.

        Yielded in row order. Segments are contiguous from 0, so one
        forward pass maps each sample time to its segment.
        """
        for regime in REGIMES:
            segs = self.segments[regime]
            runs, first = [], 0
            for seg in segs:
                stop = bisect.bisect_left(times, seg.end, first)
                if stop > first:
                    runs.append((first, stop, seg.rates))
                first = stop
            for flow_id in sorted(segs[0].rates):
                for first, stop, rates in runs:
                    yield first, stop, flow_id, rates[flow_id], regime


def path_edges(path: Sequence[str]) -> tuple[tuple[str, str], ...]:
    return tuple((a, b) for a, b in zip(path, path[1:]))


def unit_capacities(topology: Topology) -> dict[tuple[str, str], Fraction]:
    return {edge: Fraction(1) for edge in topology.directed_edges()}


def check_timing(t_eff: Fraction, cp: Fraction, sc: Fraction, step: Fraction,
                 end: Fraction | None) -> None:
    """Reject ``convergence_timeline`` timing (None horizon: default) naming the argument."""
    for name, v in (("failure_effective", t_eff), ("control_plane_delay", cp),
                    ("shortcut_delay", sc), ("sample_step", step)):
        if v < 0:
            raise ValueError(f"{name} must be non-negative")
    if step == 0:
        raise ValueError("sample_step must be positive")
    if end is not None and end <= t_eff:
        raise ValueError("horizon must extend past the failure instant")


def convergence_timeline(
    plans: Sequence[FlowTimelinePlan],
    capacities: Mapping[tuple[str, str], object],
    failure_effective: object,
    control_plane_delay: object,
    shortcut_delay: object,
    sample_step: object = Fraction(1, 10),
    horizon: object | None = None,
) -> Timeline:
    """Piecewise-constant per-flow rates under the three recovery regimes.

    The failure takes effect at ``failure_effective``. Control-plane-only
    blackholes affected flows for ``control_plane_delay`` seconds, then uses
    the converged routes. Plain fast reroute runs the looped walks until the
    control plane converges. With shortcutting, the looped walks last one
    ``shortcut_delay`` and the shortcut routes take over until convergence.

    Each of the five route sets (pre-failure, blackholed, fast reroute,
    shortcut, converged) is solved by ``maxmin_throughput`` at most once,
    and only if some regime keeps a non-empty phase on it; segments of the
    same route set share their ``rates`` and ``routes`` mappings.
    """
    t_eff = as_fraction(failure_effective)
    cp = as_fraction(control_plane_delay)
    sc = as_fraction(shortcut_delay)
    step = as_fraction(sample_step)
    end = as_fraction(horizon) if horizon is not None else t_eff + cp + Fraction(2)
    check_timing(t_eff, cp, sc, step, end)
    caps = {e: as_fraction(c) for e, c in capacities.items()}
    phases = {
        "pre": {p.flow_id: p.pre_route for p in plans},
        "blackhole": {p.flow_id: (None if p.affected else p.pre_route) for p in plans},
        "frr": {p.flow_id: (p.frr_route if p.affected else p.pre_route) for p in plans},
        "scut": {p.flow_id: (p.shortcut_route if p.affected else p.pre_route) for p in plans},
        "conv": {p.flow_id: p.converged_route for p in plans},
    }
    solved: dict[str, tuple[dict, dict]] = {}

    def rates_for(phase: str):
        """Max-min rates and routes of a phase, solved on first use only."""
        if phase not in solved:
            phase_routes = phases[phase]
            present = {f: r for f, r in phase_routes.items() if r is not None}
            rates = maxmin_throughput(present, caps)
            solved[phase] = (
                {f: rates.get(f, Fraction(0)) for f in phase_routes},
                {f: (r or ()) for f, r in phase_routes.items()},
            )
        return solved[phase]

    def build(regime: str, spans: list[tuple[Fraction, Fraction, str]]):
        segs = []
        for start, stop, phase in spans:
            start, stop = min(start, end), min(stop, end)
            if stop <= start:
                continue
            rates, routes = rates_for(phase)
            segs.append(TimelineSegment(start, stop, regime, rates, routes))
        return segs

    control = build(REGIME_CONTROL, [
        (Fraction(0), t_eff, "pre"),
        (t_eff, t_eff + cp, "blackhole"),
        (t_eff + cp, end, "conv"),
    ])
    frr_only = build(REGIME_FRR, [
        (Fraction(0), t_eff, "pre"),
        (t_eff, t_eff + cp, "frr"),
        (t_eff + cp, end, "conv"),
    ])
    frr_shortcut = build(REGIME_SHORTCUT, [
        (Fraction(0), t_eff, "pre"),
        (t_eff, t_eff + min(sc, cp), "frr"),
        (t_eff + min(sc, cp), t_eff + cp, "scut"),
        (t_eff + cp, end, "conv"),
    ])
    return Timeline(
        segments={
            REGIME_CONTROL: control,
            REGIME_FRR: frr_only,
            REGIME_SHORTCUT: frr_shortcut,
        },
        sample_step=step,
        horizon=end,
    )


def build_flow_plan(
    topology: Topology,
    failures: FailureSet,
    flow: Flow,
    pre_trace: Trace,
    fixpoint: FixpointResult,
    routes: Callable[[str, str], tuple[str, ...] | None] | None = None,
) -> FlowTimelinePlan:
    """Timeline plan for a primary flow from its simulated traces.

    The converged route is ``shortest_route`` under ``failures``, taken from
    ``routes`` when given: ``shortest_routes(topology, failures)``, which a
    caller planning many flows builds once."""
    pre_edges = path_edges(pre_trace.node_path())
    affected = any(failures.link_down(u, v) for u, v in pre_edges)
    converged = (routes or shortest_routes(topology, failures))(flow.source, flow.destination)
    return FlowTimelinePlan(
        flow_id=flow.flow_id,
        pre_route=pre_edges,
        frr_route=path_edges(fixpoint.initial_trace.node_path())
        if fixpoint.initial_trace.outcome is Outcome.DELIVERED
        else None,
        shortcut_route=path_edges(fixpoint.final_trace.node_path())
        if fixpoint.delivered
        else None,
        converged_route=path_edges(converged) if converged else None,
        affected=affected,
    )


def background_flow_plan(
    topology: Topology, failures: FailureSet, flow_id: str, path: Sequence[str]
) -> FlowTimelinePlan:
    """Plan for a fixed-route background flow; it must avoid the failure."""
    edges = path_edges(path)
    for a, b in edges:
        if not topology.has_link(a, b):
            raise ValueError(f"background route step ({a}, {b}) is not a link")
    if any(failures.link_down(u, v) for u, v in edges):
        raise ValueError(f"background flow {flow_id!r} route crosses the failure")
    return FlowTimelinePlan(
        flow_id=flow_id,
        pre_route=edges,
        frr_route=edges,
        shortcut_route=edges,
        converged_route=edges,
        affected=False,
    )
