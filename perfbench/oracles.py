"""Correctness oracles independent of frrsim's own checks, built on networkx.

They run outside the timed region. Each returns a list of problems (empty
when the output is correct), so a caller can count mismatching cases.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Iterable, Mapping, Sequence

import networkx as nx


@dataclass(frozen=True)
class CaseRecord:
    """One sweep case as the program reported it, with both walks."""

    source: str
    destination: str
    failed_links: frozenset[tuple[str, str]]
    failed_nodes: frozenset[str]
    initial_path: tuple[str, ...]
    final_path: tuple[str, ...]
    final_outcome: str
    hops_after: int | None
    stretch_after: float | None


def graph_of(nodes: Iterable[str], links: Iterable[tuple[str, str]]) -> nx.Graph:
    g = nx.Graph()
    g.add_nodes_from(nodes)
    g.add_edges_from(links)
    return g


def _directed_edges(path: Sequence[str]) -> set[tuple[str, str]]:
    return set(zip(path, path[1:]))


def check_case(graph: nx.Graph, case: CaseRecord) -> list[str]:
    """A delivered case: simple final path inside the initial walk, exact stretch.

    The residual graph drops failed nodes and both orientations of failed
    links; stretch_after must equal final hops over the networkx residual
    shortest-path length.
    """
    problems = []
    path = case.final_path
    if case.final_outcome != "delivered" or path[0] != case.source or path[-1] != case.destination:
        return ["final_not_delivered"]
    if len(set(path)) != len(path):
        problems.append("final_not_simple")
    if not _directed_edges(path) <= _directed_edges(case.initial_path):
        problems.append("final_not_in_initial_walk")
    residual = nx.restricted_view(graph, case.failed_nodes, case.failed_links)
    if any(not residual.has_edge(a, b) for a, b in zip(path, path[1:])):
        problems.append("final_uses_dead_link")
    if case.hops_after != len(path) - 1:
        problems.append("hops_after_mismatch")
    optimal = nx.shortest_path_length(residual, case.source, case.destination)
    if case.stretch_after is None or not math.isclose(
        case.stretch_after, (len(path) - 1) / optimal, rel_tol=1e-5
    ):
        problems.append("stretch_mismatch")
    return problems


def check_arborescences(graph: nx.Graph, root: str, k: int,
                        parents: Sequence[Mapping[str, str]], connectivity: int) -> list[str]:
    """k spanning arborescences toward root, pairwise arc-disjoint, k <= lambda."""
    problems = []
    if len(parents) != k:
        problems.append("wrong_count")
    if k > connectivity:
        problems.append("k_exceeds_edge_connectivity")
    used: set[tuple[str, str]] = set()
    for parent in parents:
        arcs = set(parent.items())
        tree = nx.DiGraph()
        tree.add_nodes_from(graph.nodes)
        tree.add_edges_from(arcs)
        if set(parent) != set(graph.nodes) - {root}:
            problems.append("not_spanning")
        elif any(not graph.has_edge(v, p) for v, p in arcs):
            problems.append("arc_not_a_link")
        elif not nx.is_arborescence(tree.reverse(copy=False)) or tree.out_degree(root) != 0:
            problems.append("not_an_arborescence_toward_root")
        if used & arcs:
            problems.append("arcs_shared")
        used |= arcs
    return problems


def check_maxmin(routes: Mapping[str, Sequence[tuple[str, str]]],
                 rates: Mapping[str, Fraction],
                 capacities: Mapping[tuple[str, str], Fraction],
                 demand: Fraction = Fraction(1)) -> set[str]:
    """Flows whose max-min rate is infeasible or not bottlenecked.

    As in frrsim's fluid model, a flow loads each directed edge of its route
    once. Every routed flow must be at its demand or cross a saturated edge
    on which no other flow gets a larger rate. Unrouted flows must get 0.
    """
    load: dict[tuple[str, str], Fraction] = {}
    users: dict[tuple[str, str], list[str]] = {}
    for flow, route in routes.items():
        for edge in set(route):
            load[edge] = load.get(edge, Fraction(0)) + rates[flow]
            users.setdefault(edge, []).append(flow)
    bad = {f for e, users_e in users.items() if load[e] > capacities[e] for f in users_e}
    for flow, route in routes.items():
        rate = rates[flow]
        if not route:
            if rate != 0:
                bad.add(flow)
            continue
        if rate == demand:
            continue
        if not any(
            load[e] == capacities[e] and all(rates[g] <= rate for g in users[e])
            for e in set(route)
        ):
            bad.add(flow)
    return bad
