"""Fast-reroute scheme construction and compilation into forwarding state.

Three schemes are supported:

* ``arborescence`` -- k arc-disjoint spanning arborescences rooted at the
  flow destination; routing walks arborescence 1 and each failure hit
  advances to the next one, encoded purely as inport suffix starts.
* ``partition`` -- k edge-disjoint source-destination paths; a failure on
  path i bounces the packet back along the path, and the divergence point
  emits it on path i+1.
* ``greedy`` -- per node, outports ordered by residual distance to the
  destination; the return edge through the packet's inport is the demoted
  last resort.

Disjointness of arborescences is at the directed-arc level: two
arborescences may use one physical link in opposite orientations, but never
the same directed edge. That is what a k-edge-connected graph can actually
pack for k = edge connectivity, and a single link failure then kills at
most one priority entry per node.
"""

from __future__ import annotations

import heapq
from dataclasses import dataclass, field
from typing import Iterable, Mapping, Sequence

from .forwarding import MODE_GREEDY, MODE_SUFFIX, ForwardingState, PortTable
from .topology import (
    Flow,
    Topology,
    augmenting_path,
    bfs_distances,
    canon_link,
    edge_connectivity,
    push_unit,
    unit_max_flow,
)


class DecompositionError(RuntimeError):
    """Requested packing could not be built; never a silent partial result."""


@dataclass(frozen=True)
class Arborescence:
    """Directed spanning tree oriented toward its root (the flow destination)."""

    root: str
    parent: Mapping[str, str]
    # compile_arborescence_frr's tables of each list this arborescence heads,
    # keyed by the ids of the topology and the list's other arborescences
    _tables: dict = field(default_factory=dict, init=False, repr=False, compare=False)

    def arcs(self) -> set[tuple[str, str]]:
        return {(v, p) for v, p in self.parent.items()}

    def path_to_root(self, v: str) -> list[str]:
        path = [v]
        while path[-1] != self.root:
            path.append(self.parent[path[-1]])
            if len(path) > len(self.parent) + 1:
                raise DecompositionError("parent map contains a cycle")
        return path

    def validate(self, topology: Topology) -> None:
        """Spanning, on topology links, and acyclic, in time linear in n.

        Each node is walked up only to the first node known to reach root.
        """
        expected = set(topology.nodes) - {self.root}
        if set(self.parent) != expected:
            raise DecompositionError("arborescence does not span all nodes")
        for v, p in self.parent.items():
            if not topology.has_link(v, p):
                raise DecompositionError(f"arc ({v}, {p}) is not a topology link")
        reaches = {self.root}
        for v in self.parent:
            walk = []
            while v not in reaches:
                walk.append(v)
                v = self.parent[v]
                if len(walk) > len(self.parent):
                    raise DecompositionError("parent map contains a cycle")
            reaches.update(walk)


def validate_disjoint(arborescences: Sequence[Arborescence], topology: Topology) -> None:
    """Check spanning-ness, rootedness, and pairwise arc-disjointness."""
    if not arborescences:
        raise DecompositionError("empty arborescence list")
    root = arborescences[0].root
    used: set[tuple[str, str]] = set()
    for arb in arborescences:
        if arb.root != root:
            raise DecompositionError("arborescences have differing roots")
        arb.validate(topology)
        arcs = arb.arcs()
        clash = used & arcs
        if clash:
            raise DecompositionError(f"directed edge reused across arborescences: {sorted(clash)}")
        used |= arcs


def _adj_of(arcs: Iterable[tuple[str, str]]) -> dict[str, set[str]]:
    adj: dict[str, set[str]] = {}
    for u, v in arcs:
        adj.setdefault(u, set()).add(v)
    return adj


class _Witnesses:
    """One witness flow per non-root node, carried through every tree of a root.

    The witness of x is a unit flow of ``value[x]`` from root to x inside the
    residual, kept as net arcs: ``succ[x][a]`` and ``pred[x][a]`` hold the
    heads and tails of its arcs out of and into a. Each witness starts with
    ``paths`` units, the first from one BFS tree shared by all nodes and the
    rest by augmenting paths; after that it is repaired, never recomputed.
    """

    def __init__(
        self, residual: Mapping[str, set[str]], order: Mapping[str, Sequence[str]],
        root: str, paths: int,
    ) -> None:
        self.root = root
        self.value: dict[str, int] = {}
        self.succ: dict[str, dict[str, set[str]]] = {}
        self.pred: dict[str, dict[str, set[str]]] = {}
        if paths < 2:
            return  # a lone tree checks no arc
        first = {root: root}
        queue = [root]
        for a in queue:
            for b in order[a]:
                if b not in first and b in residual[a]:
                    first[b] = a
                    queue.append(b)
        for x in order:
            if x == root:
                continue
            succ, pred = self.succ[x], self.pred[x] = {}, {}
            b = x
            while b != root:
                a = first[b]
                succ[a] = {b}
                pred[b] = {a}
                b = a
            for _ in range(1, paths):
                push_unit(succ, pred, augmenting_path(residual, order, succ, pred, root, x))
            self.value[x] = paths

    def users(self, arc: tuple[str, str]) -> list[str]:
        """The nodes whose witness uses ``arc``."""
        u, v = arc
        return [x for x, succ in self.succ.items() if v in succ.get(u, ())]

    def repair(
        self, x: str, arc: tuple[str, str], need: int, residual: Mapping[str, set[str]],
        order: Mapping[str, Sequence[str]],
    ) -> bool:
        """Take ``arc`` = (u, v), already out of ``residual``, out of x's witness.

        Returns True with the witness inside the residual and its value at
        least ``need``, or False, changing nothing, when x has fewer than
        ``need`` arc-disjoint paths from root without arc.

        A witness that does not use arc needs nothing. One of value above
        ``need`` drops a root->x walk through arc: flow conservation leads it
        from v forward to x and from u back to root along the witness's own
        arcs, so no search runs. One of value exactly ``need`` moves its unit
        off arc onto a u->v path in its residual network, which the search
        finds without arc or its reverse. If there is none, let S be the
        nodes the search reached from u: every residual arc leaving S carries
        witness flow, no witness arc enters S, and arc leaves it too. The
        witness's net outflow from S is then positive, so S holds root and not
        x, and that outflow is ``need``: the residual without arc has
        ``need - 1`` arcs leaving S, and by max-flow/min-cut x has at most
        ``need - 1`` paths. So the answer is exact: removing one unit arc
        lowers a max flow by at most one, and the flow keeps its value exactly
        when its unit on arc can be rerouted.
        """
        u, v = arc
        succ, pred = self.succ[x], self.pred[x]
        if v not in succ.get(u, ()):
            return True
        if self.value[x] == need:
            path = augmenting_path(residual, order, succ, pred, u, v)
            if path is None:
                return False
            succ[u].remove(v)
            pred[v].remove(u)
            push_unit(succ, pred, path)
            return True
        succ[u].remove(v)
        pred[v].remove(u)
        a = v
        while a != x:
            b = min(succ[a])
            succ[a].remove(b)
            pred[b].remove(a)
            a = b
        b = u
        while b != self.root:
            a = min(pred[b])
            succ[a].remove(b)
            pred[b].remove(a)
            b = a
        self.value[x] -= 1
        return True


def _arc_safe(
    residual: dict[str, set[str]],
    order: Mapping[str, Sequence[str]],
    need: int,
    arc: tuple[str, str],
    witness: _Witnesses,
) -> bool:
    """True if every node keeps ``need`` arc-disjoint paths from root without arc.

    Removes ``arc`` = (u, v) from ``residual`` and leaves it out only when
    the answer is True, after repairing every witness that used arc; a
    rejected arc is put back and leaves every witness as it was.

    v's witness decides. If removing arc leaves some x below ``need``, a
    min cut separating x from root has fewer than ``need`` arcs without arc
    and at least ``need`` with it, so arc enters the cut's x side: v is on
    that side and below ``need`` too. So once v's witness is repaired, every
    other repair succeeds, and no repair runs for a rejected arc but v's.
    """
    u, v = arc
    residual[u].discard(v)
    if not witness.repair(v, arc, need, residual, order):
        residual[u].add(v)
        return False
    for x in witness.users(arc):
        witness.repair(x, arc, need, residual, order)
    return True


def _grow_out_tree(
    residual: dict[str, set[str]],
    order: Mapping[str, Sequence[str]],
    root: str,
    need: int,
    witness: _Witnesses,
) -> dict[str, str]:
    """Grow one spanning out-tree from root, keeping ``need`` packings possible.

    Returns the tree as parent pointers toward root and removes its arcs
    from ``residual``. An arc is committed only when the residual without it
    keeps ``need`` arc-disjoint root-to-x paths for every node x, so the
    remaining arborescences can still be extracted. A safe arc exists while
    the packing bound holds; if none is left, DecompositionError is raised.

    Candidates are residual arcs (u, v) out of spanned nodes, tried in the
    order (depth of u, u, v). A heap holds them: a node's residual out-arcs
    to unspanned nodes are pushed once, when it is spanned, and a popped arc
    is dropped if v is spanned or the arc is unsafe. A spanned node's
    out-arcs change only by commits, so the heap pops what re-sorting the
    candidates would list.

    ``witness`` is the decomposition's, carried from tree to tree. On entry
    every witness lies inside the residual with value above ``need``, and
    ``_arc_safe`` keeps each inside with value at least ``need``; so the
    next tree, which needs one path fewer, starts with a unit to spare in
    every witness and no flow to recompute.

    A dropped arc is never pushed again, and need not be: within one tree
    the residual only loses arcs (a rejected arc is put back, a committed
    one leaves for good) and max flows only fall as arcs go, so an arc that
    left some node below ``need`` would do so again in any later residual.
    """
    parent: dict[str, str] = {}
    frontier = [(0, root, v) for v in residual[root]]
    heapq.heapify(frontier)
    while len(parent) < len(order) - 1:
        if not frontier:
            raise DecompositionError(
                f"no extendable arc while packing arborescences at root {root!r}"
            )
        depth, u, v = heapq.heappop(frontier)
        if v == root or v in parent:
            continue
        if need and not _arc_safe(residual, order, need, (u, v), witness):
            continue
        residual[u].discard(v)
        parent[v] = u
        for w in residual[v]:
            if w != root and w not in parent:
                heapq.heappush(frontier, (depth + 1, v, w))
    return parent


def decompose_arborescences(topology: Topology, root: str, k: int) -> list[Arborescence]:
    """k pairwise arc-disjoint spanning arborescences oriented toward root.

    Requires k <= edge_connectivity(topology). All k trees are cut from one
    residual adjacency, and tree i leaves k - i arc-disjoint paths to every
    node in it. One witness flow per node proves those paths: it starts
    with k units before the first tree and is then repaired as trees take
    its arcs (see ``_Witnesses.repair``), so no max flow runs per candidate
    arc. The result is validated (spanning, rooted, disjoint) before being
    returned.
    """
    if not topology.has_node(root):
        raise ValueError(f"root {root!r} not in topology")
    if k < 1:
        raise ValueError("k must be >= 1")
    lam = edge_connectivity(topology)
    if k > lam:
        raise ValueError(f"k={k} exceeds edge connectivity {lam}")
    order = topology.arc_adjacency()
    residual = {u: set(vs) for u, vs in order.items()}
    witness = _Witnesses(residual, order, root, paths=k)
    arbs = [
        Arborescence(
            root=root, parent=_grow_out_tree(residual, order, root, k - i, witness)
        )
        for i in range(1, k + 1)
    ]
    validate_disjoint(arbs, topology)
    return arbs


def compile_arborescence_frr(
    topology: Topology, arborescences: Sequence[Arborescence], flow: Flow
) -> ForwardingState:
    """Compile arborescence failover into inport-aware suffix rules.

    At every node the priority list is [arb-1 parent edge, arb-2 parent
    edge, ...]; an inport arriving on arborescence i starts its suffix at
    index i, and inports on no arborescence (including injection) start at 1.

    The tables read only the topology and the arborescences, so they are
    built once per (topology, arborescence list), by identity, and kept on
    the list's first arborescence for as long as it lives. Each call hands
    its flow its own copies of them.
    """
    if not arborescences:
        raise ValueError("need at least one arborescence")
    for arb in arborescences:
        if arb.root != flow.destination:
            raise ValueError("arborescences must be rooted at the flow destination")
    flow.validate(topology)
    memo = arborescences[0]._tables
    key = (id(topology), *map(id, arborescences[1:]))
    if key not in memo:
        # the value holds what the key's ids name, so no id is reused while it lives
        memo[key] = topology, arborescences[1:], _arborescence_tables(topology, arborescences)
    tables = memo[key][2]
    return ForwardingState(flow, MODE_SUFFIX, {v: table.copy() for v, table in tables.items()})


def _arborescence_tables(
    topology: Topology, arborescences: Sequence[Arborescence]
) -> dict[str, PortTable]:
    """The tables of ``compile_arborescence_frr``, for every flow to their root."""
    root = arborescences[0].root
    first: dict[tuple[str, str], int] = {}  # (child, parent) -> first arborescence
    for i, arb in enumerate(arborescences, start=1):
        for arc in arb.parent.items():
            first.setdefault(arc, i)
    tables: dict[str, PortTable] = {}
    for v in topology.nodes:
        if v == root:
            tables[v] = PortTable([], {None: 1})
            continue
        priority = []
        for arb in arborescences:
            if v not in arb.parent:
                raise ValueError(f"node {v!r} not spanned by an arborescence")
            priority.append(arb.parent[v])
        starts: dict[str | None, int] = {None: 1}
        for u in topology.neighbors(v):
            starts[u] = first.get((u, v), 1)
        tables[v] = PortTable(priority, starts)
    return tables


# ---------------------------------------------------------------------------
# Edge-disjoint path partitions
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class PartitionScheme:
    """Ordered edge-disjoint source->destination paths; P1 is the default route.

    ``relaxed`` admits paths that share a common prefix and/or suffix while
    their middles stay edge-disjoint (the bundled figure1 scenario needs
    this: both routes use the S-S1 and S4-D stubs).
    """

    flow: Flow
    paths: tuple[tuple[str, ...], ...]
    relaxed: bool = False

    def validate(self, topology: Topology) -> None:
        if not self.paths:
            raise ValueError("partition scheme needs at least one path")
        for path in self.paths:
            if len(path) < 2:
                raise ValueError(f"path too short: {path}")
            if path[0] != self.flow.source or path[-1] != self.flow.destination:
                raise ValueError(f"path {path} does not join the flow endpoints")
            if len(set(path)) != len(path):
                raise ValueError(f"path {path} is not simple")
            for a, b in zip(path, path[1:]):
                if not topology.has_link(a, b):
                    raise ValueError(f"path step ({a}, {b}) is not a link")
        for i in range(len(self.paths)):
            for j in range(i + 1, len(self.paths)):
                self._check_pair(self.paths[i], self.paths[j])

    def _check_pair(self, pa: tuple[str, ...], pb: tuple[str, ...]) -> None:
        edges_a = {canon_link(x, y) for x, y in zip(pa, pa[1:])}
        edges_b = {canon_link(x, y) for x, y in zip(pb, pb[1:])}
        shared = edges_a & edges_b
        if not shared:
            return
        if not self.relaxed:
            raise ValueError(f"paths share links {sorted(shared)}")
        q = 0
        while q < min(len(pa), len(pb)) and pa[q] == pb[q]:
            q += 1
        r = 0
        while r < min(len(pa), len(pb)) and pa[-1 - r] == pb[-1 - r]:
            r += 1
        allowed = {canon_link(x, y) for x, y in zip(pa[:q], pa[1:q])}
        allowed |= {canon_link(x, y) for x, y in zip(pa[len(pa) - r :], pa[len(pa) - r + 1 :])}
        if not shared <= allowed:
            raise ValueError(
                f"paths share mid-route links {sorted(shared - allowed)}; "
                "only a common prefix/suffix is allowed"
            )


def compute_disjoint_paths(topology: Topology, flow: Flow, k: int) -> PartitionScheme:
    """Extract k pairwise edge-disjoint paths via max-flow decomposition.

    Paths are ordered by (length, node sequence), so P1 is a shortest
    extracted path with lexicographic tie-breaking.
    """
    flow.validate(topology)
    if k < 1:
        raise ValueError("k must be >= 1")
    adj = topology.arc_adjacency()
    # The topology's sorted neighbours are every node's in- and out-neighbours.
    value, flow_arcs = unit_max_flow(
        adj, flow.source, flow.destination, return_flow=True, _sorted_adj=adj
    )
    if k > value:
        raise ValueError(f"k={k} exceeds max-flow value {value}")
    succ = _adj_of(flow_arcs)
    paths: list[tuple[str, ...]] = []
    for _ in range(value):
        path = [flow.source]
        while path[-1] != flow.destination:
            nxt = min(succ[path[-1]])
            succ[path[-1]].discard(nxt)
            path.append(nxt)
        paths.append(tuple(path))
    paths.sort(key=lambda p: (len(p), p))
    return PartitionScheme(flow=flow, paths=tuple(paths[:k]))


def compile_partition_frr(
    topology: Topology, scheme: PartitionScheme, flow: Flow
) -> ForwardingState:
    """Compile path-partition failover into inport suffix rules.

    Forwarding walks P_i; hitting a failed P_i link bounces the packet back
    along P_i until the node where P_{i+1} diverges (the source, for fully
    disjoint paths), which emits it on P_{i+1}. Every rule is a contiguous
    priority-list tail, and each list holds its entries path by path.

    One pass over the paths lays out each node's list: on P_i it lists P_i's
    next hop, then P_i's previous hop unless it is P_i's source or P_{i+1}
    shares P_i's prefix up to it. A packet arriving along P_i starts at P_i's
    next-hop entry. One coming back along P_i starts one entry past it: P_i's
    previous hop, or at a divergence point P_{i+1}'s next hop (laid out right
    after, as P_{i+1} reaches the node next), or on the last path at the
    source past the end, which drops it. Where paths share an inport the
    lowest i wins, so a packet on a shared stretch follows the first path
    it could be on. No inport is both: paths share a link only on a common
    prefix or suffix, where they all cross it the same way.
    """
    if (flow.source, flow.destination) != (scheme.flow.source, scheme.flow.destination):
        raise ValueError("scheme was built for a different flow")
    scheme.validate(topology)
    paths = scheme.paths
    entry_out: dict[str, list[str]] = {v: [] for v in topology.nodes}
    inport_start: dict[tuple[str, str], int] = {}  # (node, inport) -> first entry
    for i, path in enumerate(paths, start=1):
        for p, v in enumerate(path[:-1]):
            entry_out[v].append(path[p + 1])
            here = len(entry_out[v])
            inport_start.setdefault((v, path[p + 1]), here + 1)
            if p > 0:
                inport_start.setdefault((v, path[p - 1]), here)
                if i == len(paths) or paths[i][: p + 1] != path[: p + 1]:
                    entry_out[v].append(path[p - 1])

    tables: dict[str, PortTable] = {}
    for v in topology.nodes:
        starts: dict[str | None, int] = {None: 1}
        for u in topology.neighbors(v):
            starts[u] = inport_start.get((v, u), 1)
        tables[v] = PortTable(entry_out[v], starts)
    return ForwardingState(flow, MODE_SUFFIX, tables)


# ---------------------------------------------------------------------------
# Greedy distance-descent failover
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class GreedyDag:
    """Per-destination next-hop lists ordered by residual distance.

    Only neighbors at equal or smaller distance are listed; the return edge
    is supplied at lookup time as the demoted last resort, so following a
    listed next hop never increases the distance to the destination.
    """

    destination: str
    order: Mapping[str, tuple[str, ...]]
    dist: Mapping[str, int]


def build_greedy_dag(topology: Topology, flow: Flow) -> GreedyDag:
    flow.validate(topology)
    dist = bfs_distances(topology.arc_adjacency(), flow.destination)
    if len(dist) != len(topology.nodes):
        raise ValueError("topology must be connected for greedy failover")
    order: dict[str, tuple[str, ...]] = {}
    for v in topology.nodes:
        if v == flow.destination:
            order[v] = ()
            continue
        nbrs = [w for w in topology.neighbors(v) if dist[w] <= dist[v]]
        nbrs.sort(key=lambda w: (dist[w], w))
        order[v] = tuple(nbrs)
    return GreedyDag(destination=flow.destination, order=order, dist=dist)


def compile_greedy_frr(topology: Topology, flow: Flow) -> ForwardingState:
    """Compile greedy distance-descent failover (inport-demotion semantics)."""
    dag = build_greedy_dag(topology, flow)
    tables: dict[str, PortTable] = {}
    for v in topology.nodes:
        starts: dict[str | None, int] = {None: 1}
        for u in topology.neighbors(v):
            starts[u] = 1
        tables[v] = PortTable(list(dag.order[v]), starts)
    return ForwardingState(flow, MODE_GREEDY, tables)
