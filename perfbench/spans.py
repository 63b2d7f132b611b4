"""Span recording around frrsim's module-boundary calls, installed from outside.

The tracer replaces attributes that frrsim looks up at call time (module
globals such as ``frrsim.analysis.stretch``, class attributes such as
``ForwardingState.copy``, and the click command callbacks) with thin
wrappers. No frrsim source changes. A wrapper whose target no longer exists
is skipped, so its layer reports zero calls instead of failing.

Each span is five integers in one flat array: name id, start ns, end ns,
parent span index (-1 for a root) and case id. Spans stay in memory and
are written out when the run ends.
"""

from __future__ import annotations

import gzip
import importlib
import time
from array import array
from collections import Counter
from pathlib import Path
from typing import Callable

FIELDS = 5  # name id, start ns, end ns, parent index, case id

# (owner, attribute, layer). The owner is a module path, optionally
# followed by attribute names inside the module (a class or an object).
WRAPS: tuple[tuple[str, str, str], ...] = (
    ("frrsim.analysis", "run_failure_sweep", "analysis.sweep"),
    ("frrsim.analysis", "shortcut_fixpoint", "shortcut.fixpoint"),
    ("frrsim.cli", "shortcut_fixpoint", "shortcut.fixpoint"),
    ("frrsim.analysis", "stretch", "analysis.stretch"),
    ("frrsim.analysis", "shortest_path_length", "topology.shortest_path"),
    ("frrsim.analysis", "trace_stats", "forwarding.trace_stats"),
    ("frrsim.analysis", "maxmin_throughput", "analysis.maxmin"),
    ("frrsim.analysis", "convergence_timeline", "analysis.timeline"),
    ("frrsim.analysis", "shortest_route", "topology.shortest_route"),
    ("frrsim.analysis", "report_csv", "analysis.report"),
    ("frrsim.analysis", "report_json", "analysis.report"),
    ("frrsim.shortcut", "route", "forwarding.route"),
    ("frrsim.cli", "route_packet", "forwarding.route"),
    ("frrsim.frr", "unit_max_flow", "topology.unit_max_flow"),
    ("frrsim.topology", "unit_max_flow", "topology.unit_max_flow"),
    ("frrsim.frr", "edge_connectivity", "topology.edge_connectivity"),
    ("frrsim.frr", "decompose_arborescences", "frr.decompose"),
    ("frrsim.frr", "compile_arborescence_frr", "frr.compile"),
    ("frrsim.frr", "compile_partition_frr", "frr.compile"),
    ("frrsim.frr", "compile_greedy_frr", "frr.compile"),
    ("frrsim.frr", "compute_disjoint_paths", "frr.compile"),
    ("frrsim.forwarding:ForwardingState", "copy", "forwarding.copy"),
    ("frrsim.analysis:Timeline", "to_csv", "analysis.timeline_csv"),
    ("frrsim.cli:cmd_run", "callback", "cli.run"),
    ("frrsim.cli:cmd_timeline", "callback", "cli.timeline"),
)

# Spans that begin a new case id. ``copy`` opens a case in the sweep; a
# fixpoint opens one unless a copy just did (the timeline path has no copy).
CASE_OPENERS = {"forwarding.copy", "shortcut.fixpoint"}


def _resolve(owner: str):
    module_name, _, attrs = owner.partition(":")
    obj = importlib.import_module(module_name)
    for attr in filter(None, attrs.split(".")):
        obj = getattr(obj, attr, None)
        if obj is None:
            return None
    return obj


class Tracer:
    """Records spans and layer counters while its wrappers are installed."""

    def __init__(self) -> None:
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self.spans = array("q")
        self.counters: Counter[str] = Counter()
        self.case = 0
        self._copy_opened_case = False
        self._stack: list[int] = []
        self._installed: list[tuple[object, str, object]] = []
        for _, _, layer in WRAPS:
            self._name_id(layer)

    def _name_id(self, name: str) -> int:
        if name not in self._ids:
            self._ids[name] = len(self.names)
            self.names.append(name)
        return self._ids[name]

    def _open_case(self, layer: str) -> None:
        if layer == "forwarding.copy" or not self._copy_opened_case:
            self.case += 1
        self._copy_opened_case = layer == "forwarding.copy"

    def wrap(self, owner: object, attr: str, layer: str,
             on_result: Callable[[object], None] | None = None) -> bool:
        """Install a span wrapper on ``owner.attr``; False if it is missing."""
        nid = self._name_id(layer)
        original = getattr(owner, attr, None) if owner is not None else None
        if original is None:
            return False
        spans, stack, clock = self.spans, self._stack, time.perf_counter_ns
        opens_case = layer in CASE_OPENERS

        def wrapper(*args, **kwargs):
            if opens_case:
                self._open_case(layer)
            idx = len(spans) // FIELDS
            spans.extend((nid, clock(), 0, stack[-1] if stack else -1, self.case))
            stack.append(idx)
            try:
                result = original(*args, **kwargs)
            finally:
                spans[idx * FIELDS + 2] = clock()
                stack.pop()
            if on_result is not None:
                on_result(result)
            return result

        setattr(owner, attr, wrapper)
        self._installed.append((owner, attr, original))
        return True

    def install(self) -> None:
        """Wrap every target in WRAPS, with the counters each layer keeps."""
        hooks = {
            "shortcut.fixpoint": self._count_fixpoint,
            "forwarding.route": self._count_route,
            "analysis.timeline_csv": self._count_csv,
        }
        for owner, attr, layer in WRAPS:
            self.wrap(_resolve(owner), attr, layer, hooks.get(layer))

    def uninstall(self) -> None:
        while self._installed:
            owner, attr, original = self._installed.pop()
            setattr(owner, attr, original)

    def _count_fixpoint(self, fp) -> None:
        c = self.counters
        c["fixpoint_cases"] += 1
        c["rounds_total"] += fp.rounds
        c["rounds_hist_" + ("ge2" if fp.rounds >= 2 else str(fp.rounds))] += 1
        c["rule_changes"] += sum(len(r) for r in fp.changes_per_round)
        # A truncation step runs after every delivered trace; it is useful
        # when it changed a rule (which is what counts as a round).
        c["steps_attempted"] += fp.rounds + (1 if fp.delivered else 0)
        c["looped_cases"] += not fp.initial_trace.is_simple()

    def _count_route(self, trace) -> None:
        self.counters["hops"] += len(trace.hops)

    def _count_csv(self, text) -> None:
        self.counters["timeline_rows"] += text.count("\n") - 1

    def mark(self) -> tuple[int, Counter[str]]:
        """Position to aggregate from later: span count and counter copy."""
        return len(self.spans) // FIELDS, Counter(self.counters)

    def layer_totals(self, since: tuple[int, Counter[str]]) -> dict[str, float]:
        """Per-layer calls, inclusive and self seconds, and counters since a mark.

        Self time is a span's duration minus the durations of its direct
        children, so the self times of all spans add up to the root spans.
        """
        first, counters_before = since
        spans = self.spans
        n = len(spans) // FIELDS
        child_ns = [0] * (n - first)
        durations = [0] * (n - first)
        for i in range(first, n):
            base = i * FIELDS
            d = spans[base + 2] - spans[base + 1]
            durations[i - first] = d
            parent = spans[base + 3]
            if parent >= first:
                child_ns[parent - first] += d
        out: dict[str, float] = {}
        for name in self.names:
            out[f"{name}.calls"] = 0
            out[f"{name}.s"] = 0.0
            out[f"{name}.self_s"] = 0.0
        for i in range(first, n):
            name = self.names[spans[i * FIELDS]]
            d = durations[i - first]
            out[f"{name}.calls"] += 1
            out[f"{name}.s"] += d / 1e9
            out[f"{name}.self_s"] += (d - child_ns[i - first]) / 1e9
        for key, value in self.counters.items():
            out[f"count.{key}"] = value - counters_before.get(key, 0)
        return out

    def write(self, path: Path, labels: list[tuple[int, str]]) -> None:
        """Write every span as gzipped TSV; ``labels`` maps span index to unit.

        ``labels`` holds (first span index, "execution/unit") pairs in order.
        """
        path.parent.mkdir(parents=True, exist_ok=True)
        spans = self.spans
        bounds = labels + [(len(spans) // FIELDS, "")]
        with gzip.open(path, "wt", encoding="utf-8", compresslevel=1) as fh:
            fh.write("unit\tspan\tparent\tcase\tname\tstart_ns\tend_ns\n")
            for (first, label), (stop, _) in zip(bounds, bounds[1:]):
                for i in range(first, stop):
                    nid, start, end, parent, case = spans[i * FIELDS:(i + 1) * FIELDS]
                    fh.write(f"{label}\t{i}\t{parent}\t{case}\t{self.names[nid]}\t{start}\t{end}\n")
