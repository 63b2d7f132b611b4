"""Graph model, topology generators, failure sets, and connectivity oracles.

Node identifiers are non-empty strings. Links are undirected and stored as
canonically ordered pairs; every link contributes both directed orientations
to the directed-edge view used by the forwarding engine.
"""

from __future__ import annotations

import json
import random
import re
from dataclasses import dataclass
from typing import Callable, Iterable, Mapping, Sequence


def canon_link(a: str, b: str) -> tuple[str, str]:
    """Canonical (sorted) form of an undirected link."""
    return (a, b) if a <= b else (b, a)


class Topology:
    """Immutable undirected graph of nodes and links.

    All iteration orders (neighbors, links, directed edges) are sorted, so
    every algorithm built on top of a Topology is deterministic.
    """

    def __init__(self, nodes: Iterable[str], links: Iterable[tuple[str, str]]):
        node_list = list(nodes)
        for n in node_list:
            if not isinstance(n, str) or not n:
                raise ValueError(f"node ids must be non-empty strings, got {n!r}")
        self.nodes: tuple[str, ...] = tuple(sorted(set(node_list)))
        if len(self.nodes) != len(node_list):
            raise ValueError("duplicate node ids")
        node_set = set(self.nodes)
        seen: set[tuple[str, str]] = set()
        for a, b in links:
            if a == b:
                raise ValueError(f"self-loop on {a!r} not allowed")
            if a not in node_set or b not in node_set:
                raise ValueError(f"link ({a!r}, {b!r}) references undeclared node")
            link = canon_link(a, b)
            if link in seen:
                raise ValueError(f"duplicate link {link}")
            seen.add(link)
        self.links: tuple[tuple[str, str], ...] = tuple(sorted(seen))
        self._link_set = frozenset(seen)
        adj: dict[str, list[str]] = {n: [] for n in self.nodes}
        for a, b in self.links:
            adj[a].append(b)
            adj[b].append(a)
        self._adj: dict[str, tuple[str, ...]] = {
            n: tuple(sorted(vs)) for n, vs in adj.items()
        }

    @property
    def m(self) -> int:
        """Directed-edge count: exactly twice the link count."""
        return 2 * len(self.links)

    def neighbors(self, v: str) -> tuple[str, ...]:
        return self._adj[v]

    def degree(self, v: str) -> int:
        return len(self._adj[v])

    def has_node(self, v: str) -> bool:
        return v in self._adj

    def has_link(self, a: str, b: str) -> bool:
        return canon_link(a, b) in self._link_set

    def directed_edges(self) -> list[tuple[str, str]]:
        out = []
        for u in self.nodes:
            for v in self._adj[u]:
                out.append((u, v))
        return out

    def arc_adjacency(self) -> dict[str, tuple[str, ...]]:
        """Adjacency of the bidirected view (same object as neighbors)."""
        return dict(self._adj)

    def is_connected(self) -> bool:
        if not self.nodes:
            return True
        dist = bfs_distances(self._adj, self.nodes[0])
        return len(dist) == len(self.nodes)

    def to_dict(self) -> dict:
        return {"nodes": list(self.nodes), "links": [list(l) for l in self.links]}

    @classmethod
    def from_dict(cls, data: Mapping) -> "Topology":
        """The topology of ``{"nodes": [n, ...], "links": [[a, b], ...]}``, a
        document with no other fields; a numeric node name becomes its ``str()``."""
        def names(value, name: str, pair: bool = False) -> list[str]:
            if not (isinstance(value, (list, tuple)) and (not pair or len(value) == 2) and all(
                    isinstance(v, (str, int, float)) and not isinstance(v, bool) for v in value)):
                raise ValueError(f"malformed topology document: {name} must be "
                                 f"{'a pair' if pair else 'a list'} of node names, got {value!r}")
            return [str(v) for v in value]

        if not isinstance(data, Mapping) or set(data) != {"nodes", "links"}:
            got = sorted(map(str, data)) if isinstance(data, Mapping) else type(data).__name__
            raise ValueError("malformed topology document: needs the fields nodes and links "
                             f"and no others, got {got}")
        links = data["links"]
        if not isinstance(links, (list, tuple)):
            raise ValueError(f"malformed topology document: links must be a list, got {links!r}")
        return cls(names(data["nodes"], "nodes"),
                   [tuple(names(link, f"links[{i}]", pair=True)) for i, link in enumerate(links)])

    @classmethod
    def from_file(cls, path: str) -> "Topology":
        try:
            with open(path, "r", encoding="utf-8") as fh:
                data = json.load(fh)
        except OSError as exc:
            raise ValueError(f"cannot read topology file {path}: {exc}") from exc
        except json.JSONDecodeError as exc:
            raise ValueError(f"cannot parse topology file {path}: {exc}") from exc
        return cls.from_dict(data)

    def __eq__(self, other: object) -> bool:
        return (
            isinstance(other, Topology)
            and self.nodes == other.nodes
            and self.links == other.links
        )

    def __hash__(self) -> int:
        return hash((self.nodes, self.links))

    def __repr__(self) -> str:
        return f"Topology(n={len(self.nodes)}, links={len(self.links)})"


@dataclass(frozen=True)
class Flow:
    """A forwarding equivalence class: one source/destination pair."""

    source: str
    destination: str
    flow_id: str = ""

    def __post_init__(self):
        if self.source == self.destination:
            raise ValueError("flow source and destination must differ")
        if not self.flow_id:
            object.__setattr__(self, "flow_id", f"{self.source}->{self.destination}")

    def validate(self, topology: Topology) -> None:
        for v in (self.source, self.destination):
            if not topology.has_node(v):
                raise ValueError(f"flow endpoint {v!r} is not a topology node")


@dataclass(frozen=True)
class FailureSet:
    """Failed links and failed nodes; a failed node takes all incident links down."""

    failed_links: frozenset[tuple[str, str]] = frozenset()
    failed_nodes: frozenset[str] = frozenset()

    @classmethod
    def of(cls, links: Iterable[tuple[str, str]] = (), nodes: Iterable[str] = ()) -> "FailureSet":
        return cls(
            failed_links=frozenset(canon_link(a, b) for a, b in links),
            failed_nodes=frozenset(nodes),
        )

    @classmethod
    def none(cls) -> "FailureSet":
        return cls()

    def validate(self, topology: Topology) -> None:
        for link in self.failed_links:
            if not topology.has_link(*link):
                raise ValueError(f"failed link {link} does not exist")
        for node in self.failed_nodes:
            if not topology.has_node(node):
                raise ValueError(f"failed node {node!r} does not exist")

    def link_down(self, u: str, v: str) -> bool:
        """Whether the link u-v is unusable: it failed or an endpoint did."""
        down = self.failed_nodes
        return u in down or v in down or canon_link(u, v) in self.failed_links

    def label(self) -> str:
        parts = [f"link:{a}-{b}" for a, b in sorted(self.failed_links)]
        parts += [f"node:{n}" for n in sorted(self.failed_nodes)]
        return "+".join(parts) if parts else "none"


# ---------------------------------------------------------------------------
# Path and connectivity oracles
# ---------------------------------------------------------------------------

def bfs_distances(adj: Mapping[str, Iterable[str]], source: str) -> dict[str, int]:
    """Hop distances from source over an adjacency mapping."""
    dist = {source: 0}
    frontier = [source]
    while frontier:
        nxt = []
        for u in frontier:
            for v in adj[u]:
                if v not in dist:
                    dist[v] = dist[u] + 1
                    nxt.append(v)
        frontier = nxt
    return dist


def residual_adjacency(topology: Topology, failures: FailureSet) -> dict[str, list[str]]:
    """Adjacency of the graph with failed links and nodes removed."""
    return {
        u: [v for v in topology.neighbors(u) if not failures.link_down(u, v)]
        for u in topology.nodes
        if u not in failures.failed_nodes
    }


def shortest_path_length(
    topology: Topology, failures: FailureSet, a: str, b: str
) -> int | None:
    """Hop count of the shortest residual path, or None if unreachable."""
    for v in (a, b):
        if not topology.has_node(v):
            raise ValueError(f"unknown node {v!r}")
        if v in failures.failed_nodes:
            raise ValueError(f"query endpoint {v!r} is a failed node")
    if a == b:
        return 0
    dist = bfs_distances(residual_adjacency(topology, failures), a)
    return dist.get(b)


def shortest_route(
    topology: Topology, failures: FailureSet, a: str, b: str
) -> tuple[str, ...] | None:
    """Lexicographically smallest shortest residual path, or None."""
    return shortest_routes(topology, failures)(a, b)


def shortest_routes(
    topology: Topology, failures: FailureSet
) -> Callable[[str, str], tuple[str, ...] | None]:
    """``shortest_route`` under one failure set, as a function of the two
    endpoints. The residual graph is built once, and the distances to a
    destination once per destination."""
    adj = residual_adjacency(topology, failures)
    distances: dict[str, dict[str, int]] = {}

    def route(a: str, b: str) -> tuple[str, ...] | None:
        if a not in adj or b not in adj:
            return None
        if b not in distances:
            distances[b] = bfs_distances(adj, b)
        dist = distances[b]
        if a not in dist:
            return None
        path = [a]
        cur = a
        while cur != b:
            cur = min(v for v in adj[cur] if dist.get(v, -1) == dist[cur] - 1)
            path.append(cur)
        return tuple(path)

    return route


def augmenting_path(
    adj: Mapping[str, Iterable[str]],
    order: Mapping[str, Sequence[str]],
    succ: Mapping[str, set[str]],
    pred: Mapping[str, set[str]],
    source: str,
    sink: str,
) -> list[str] | None:
    """A shortest source->sink path in the residual network of a unit flow.

    The flow is kept as net arcs of ``adj``: ``succ[a]`` and ``pred[a]`` hold
    the heads and tails of its arcs out of and into a. The network has the
    arcs of ``adj`` the flow leaves free and the reverse of every flow arc.
    ``order`` lists, in sorted order, a superset of each node's out- and
    in-neighbours in ``adj`` and fixes the search order; the search stops on
    reaching sink, so it never leaves sink. Returns None if sink is cut off.
    """
    parent = {source: source}
    frontier = [source]
    while frontier:
        nxt = []
        for a in frontier:
            out, used, back = adj.get(a, ()), succ.get(a, ()), pred.get(a, ())
            for b in order[a]:
                if b in parent:
                    continue
                if b in back or (b in out and b not in used):
                    parent[b] = a
                    if b == sink:
                        path = [sink]
                        while path[-1] != source:
                            path.append(parent[path[-1]])
                        return path[::-1]
                    nxt.append(b)
        frontier = nxt
    return None


def push_unit(succ: dict[str, set[str]], pred: dict[str, set[str]], path: Sequence[str]) -> None:
    """Send one unit of flow along ``path``, cancelling opposite units."""
    for a, b in zip(path, path[1:]):
        if a in succ.get(b, ()):
            succ[b].remove(a)
            pred[a].remove(b)
        else:
            succ.setdefault(a, set()).add(b)
            pred.setdefault(b, set()).add(a)


def unit_max_flow(
    adj: Mapping[str, Iterable[str]],
    source: str,
    sink: str,
    limit: int | None = None,
    return_flow: bool = False,
    _sorted_adj: Mapping[str, Sequence[str]] | None = None,
):
    """Max flow with unit arc capacities via BFS augmenting paths.

    Opposite flows cancel, so on a bidirected adjacency the value equals the
    number of edge-disjoint undirected paths. Deterministic: neighbors are
    explored in sorted order. Returns the value, or ``(value, flow_arcs)``
    when return_flow is set, where flow_arcs is the set of net-flow arcs.

    ``_sorted_adj`` (internal) lists, in sorted order, a superset of each
    node's out- and in-neighbours in ``adj``, such as the neighbours of the
    topology ``adj`` was cut from. It saves sorting them here; the order,
    and so the result, is the same.
    """
    order = _sorted_adj
    if order is None:
        neighbours: dict[str, set[str]] = {source: set()}
        for a, heads in adj.items():
            for b in heads:
                neighbours.setdefault(a, set()).add(b)
                neighbours.setdefault(b, set()).add(a)
        order = {a: sorted(bs) for a, bs in neighbours.items()}
    succ: dict[str, set[str]] = {}
    pred: dict[str, set[str]] = {}
    value = 0
    while limit is None or value < limit:
        path = augmenting_path(adj, order, succ, pred, source, sink)
        if path is None:
            break
        push_unit(succ, pred, path)
        value += 1
    if return_flow:
        return value, {(a, b) for a, heads in succ.items() for b in heads}
    return value


def edge_connectivity(topology: Topology) -> int:
    """Global edge connectivity: min over max-flow min-cuts from a fixed source.

    Computed once per Topology and cached on it, since topologies are immutable.
    """
    cached = getattr(topology, "_edge_connectivity", None)
    if cached is not None:
        return cached
    lam = 0
    if len(topology.nodes) >= 2 and topology.is_connected():
        adj = topology.arc_adjacency()
        src = topology.nodes[0]
        for target in topology.nodes[1:]:
            # Capped at the running minimum, so each value is the new minimum.
            lam = unit_max_flow(adj, src, target, limit=lam or None, _sorted_adj=adj)
    topology._edge_connectivity = lam
    return lam


# ---------------------------------------------------------------------------
# Generators
# ---------------------------------------------------------------------------

_COMPACT = re.compile(r"^(\w+)(?:\(([\d,\s]*)\))?$")


def _parse_descriptor(spec) -> dict:
    if isinstance(spec, Mapping):
        d = dict(spec)
        if "kind" not in d:
            raise ValueError("topology descriptor needs a 'kind'")
        return d
    if isinstance(spec, str):
        m = _COMPACT.match(spec.strip())
        if not m:
            raise ValueError(f"cannot parse topology descriptor {spec!r}")
        kind, args = m.group(1), m.group(2)
        nums = [int(x) for x in args.split(",")] if args else []
        if kind == "figure1":
            return {"kind": "figure1"}
        if kind == "complete" and len(nums) == 1:
            return {"kind": "complete", "n": nums[0]}
        if kind == "torus" and len(nums) == 2:
            return {"kind": "torus", "a": nums[0], "b": nums[1]}
        if kind == "hypercube" and len(nums) == 1:
            return {"kind": "hypercube", "d": nums[0]}
        raise ValueError(f"cannot parse topology descriptor {spec!r}")
    raise ValueError(f"unsupported topology descriptor type {type(spec)!r}")


def figure1_topology() -> Topology:
    """The bundled 7-node example: S feeds S1, two routes to D rejoin at S4."""
    nodes = ["S", "H", "S1", "S2", "S3", "S4", "D"]
    links = [
        ("S", "S1"),
        ("H", "S1"),
        ("S1", "S2"),
        ("S1", "S3"),
        ("S2", "S4"),
        ("S3", "S4"),
        ("S4", "D"),
    ]
    return Topology(nodes, links)


def _complete(n: int) -> Topology:
    if n < 3:
        raise ValueError("complete(n) requires n >= 3")
    nodes = [str(i) for i in range(n)]
    links = [(nodes[i], nodes[j]) for i in range(n) for j in range(i + 1, n)]
    return Topology(nodes, links)


def _torus(a: int, b: int) -> Topology:
    if a < 3 or b < 3:
        raise ValueError("torus(a, b) requires a >= 3 and b >= 3")
    name = lambda i, j: f"{i}_{j}"
    nodes = [name(i, j) for i in range(a) for j in range(b)]
    links = []
    for i in range(a):
        for j in range(b):
            links.append((name(i, j), name(i, (j + 1) % b)))
            links.append((name(i, j), name((i + 1) % a, j)))
    return Topology(nodes, links)


def _hypercube(d: int) -> Topology:
    if d < 2:
        raise ValueError("hypercube(d) requires d >= 2")
    nodes = [format(i, f"0{d}b") for i in range(2**d)]
    links = []
    for i in range(2**d):
        for bit in range(d):
            j = i ^ (1 << bit)
            if i < j:
                links.append((nodes[i], nodes[j]))
    return Topology(nodes, links)


def _random(n: int, p: float, seed: int, min_edge_connectivity: int = 1,
            max_tries: int = 1000) -> Topology:
    if n < 2 or not (0.0 < p <= 1.0):
        raise ValueError("random(n, p) requires n >= 2 and 0 < p <= 1")
    for attempt in range(max_tries):
        rng = random.Random(seed + attempt)
        nodes = [str(i) for i in range(n)]
        links = [
            (nodes[i], nodes[j])
            for i in range(n)
            for j in range(i + 1, n)
            if rng.random() < p
        ]
        try:
            topo = Topology(nodes, links)
        except ValueError:
            continue
        if topo.is_connected() and edge_connectivity(topo) >= min_edge_connectivity:
            return topo
    raise ValueError(
        f"random generator exhausted {max_tries} seeds without reaching "
        f"edge connectivity {min_edge_connectivity}"
    )


def build_topology(spec) -> Topology:
    """Build a topology from a generator descriptor (dict or compact string).

    A descriptor holds its ``kind`` and the fields that kind takes, no others;
    ``min_edge_connectivity`` (of ``random``, default 1) is the one optional field.
    """
    d = _parse_descriptor(spec)
    kind = d["kind"]
    kinds = {"figure1": (figure1_topology, ()), "complete": (_complete, ("n",)),
             "torus": (_torus, ("a", "b")), "hypercube": (_hypercube, ("d",)),
             "random": (_random, ("n", "p", "seed", "min_edge_connectivity")),
             "from_file": (Topology.from_file, ("path",))}
    if not isinstance(kind, str) or kind not in kinds:
        raise ValueError(f"unknown topology kind {kind!r}")
    build, fields = kinds[kind]
    unknown = sorted(set(d) - {"kind", *fields})
    if unknown:
        raise ValueError(f"unknown topology fields: {unknown}")

    def arg(key: str):
        if key not in d:
            raise ValueError(f"topology descriptor {d!r} is missing {key!r}")
        value, cast = d[key], {"p": float, "path": str}.get(key, int)
        try:
            # int() would truncate a fraction; int() and float() read a
            # boolean as 0 or 1
            if cast is not str and isinstance(value, bool) or (
                    cast is int and isinstance(value, float) and not value.is_integer()):
                raise ValueError
            return cast(value)
        except (TypeError, ValueError):
            what = "an integer" if cast is int else "a number"
            raise ValueError(f"topology.{key} must be {what}, got {value!r}") from None

    return build(**{key: arg(key) for key in fields
                    if key in d or key != "min_edge_connectivity"})
