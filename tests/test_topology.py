from __future__ import annotations

import itertools
import json
import random
import re

import networkx as nx
import pytest

from frrsim import (
    FailureSet,
    Topology,
    build_topology,
    edge_connectivity,
    shortest_path_length,
    shortest_route,
    topology,
)
from frrsim.topology import bfs_distances, unit_max_flow


def brute_force_edge_connectivity(topology: Topology) -> int:
    """Independent oracle: smallest link set whose removal disconnects."""

    def connected_without(removed) -> bool:
        adj = {
            u: [v for v in topology.neighbors(u) if tuple(sorted((u, v))) not in removed]
            for u in topology.nodes
        }
        return len(bfs_distances(adj, topology.nodes[0])) == len(topology.nodes)

    for size in range(len(topology.links) + 1):
        for subset in itertools.combinations(topology.links, size):
            if not connected_without(set(subset)):
                return size
    return len(topology.links)


class TestGenerators:
    def test_figure1_shape(self, figure1):
        assert set(figure1.nodes) == {"S", "H", "S1", "S2", "S3", "S4", "D"}
        assert len(figure1.links) == 7
        # default route of the example scenario exists
        for a, b in [("S", "S1"), ("S1", "S2"), ("S2", "S4"), ("S4", "D")]:
            assert figure1.has_link(a, b)
        assert figure1.has_link("H", "S1")

    def test_complete_triangle(self):
        t = build_topology("complete(3)")
        assert len(t.nodes) == 3
        assert len(t.links) == 3

    def test_torus_3x3(self):
        t = build_topology("torus(3,3)")
        assert len(t.nodes) == 9
        assert len(t.links) == 18
        assert all(t.degree(v) == 4 for v in t.nodes)

    def test_hypercube(self):
        t = build_topology("hypercube(3)")
        assert len(t.nodes) == 8
        assert len(t.links) == 12
        assert all(t.degree(v) == 3 for v in t.nodes)

    def test_random_meets_requested_connectivity(self):
        desc = {"kind": "random", "n": 9, "p": 0.5, "seed": 7, "min_edge_connectivity": 3}
        t = build_topology(desc)
        assert t.is_connected()
        assert edge_connectivity(t) >= 3

    def test_random_is_seed_deterministic(self):
        desc = {"kind": "random", "n": 8, "p": 0.5, "seed": 3, "min_edge_connectivity": 2}
        assert build_topology(desc) == build_topology(desc)

    def test_random_requires_seed(self):
        with pytest.raises(ValueError, match="seed"):
            build_topology({"kind": "random", "n": 8, "p": 0.5})

    @pytest.mark.parametrize(
        "bad",
        ["complete(2)", "torus(2,3)", "hypercube(1)", "nosuch(3)", {"kind": "nope"},
         {"kind": "figure1", "n": 3}],
    )
    def test_malformed_descriptors(self, bad):
        with pytest.raises(ValueError):
            build_topology(bad)

    SIZES = [
        {"kind": "complete", "n": 4},
        {"kind": "torus", "a": 3, "b": 3},
        {"kind": "hypercube", "d": 3},
        {"kind": "random", "n": 8, "p": 0.5, "seed": 3, "min_edge_connectivity": 2},
    ]
    INTEGER_FIELDS = [(i, key) for i, desc in enumerate(SIZES)
                      for key, value in desc.items() if isinstance(value, int)]

    @pytest.mark.parametrize("index,key", INTEGER_FIELDS)
    @pytest.mark.parametrize("shape", [3.7, True, float("inf")], ids=["fraction", "bool", "inf"])
    def test_non_integral_size_is_rejected(self, index, key, shape):
        desc = {**self.SIZES[index], key: shape}
        with pytest.raises(ValueError, match=rf"^topology\.{key} must be an integer, got {shape!r}$"):
            build_topology(desc)

    @pytest.mark.parametrize("index,key", INTEGER_FIELDS)
    @pytest.mark.parametrize("shape", [float, str], ids=["integral-float", "integer-string"])
    def test_integral_size_in_another_type_is_accepted(self, index, key, shape):
        desc = self.SIZES[index]
        assert build_topology({**desc, key: shape(desc[key])}) == build_topology(desc)

    def test_from_file_roundtrip(self, tmp_path, figure1):
        path = tmp_path / "topo.json"
        path.write_text(json.dumps(figure1.to_dict()))
        assert build_topology({"kind": "from_file", "path": str(path)}) == figure1

    def test_from_file_parse_error(self, tmp_path):
        path = tmp_path / "broken.json"
        path.write_text("{nodes:")
        with pytest.raises(ValueError, match="parse"):
            Topology.from_file(str(path))

    @pytest.mark.parametrize("doc,message", [
        ({"nodes": "abc", "links": []}, "nodes must be a list of node names, got 'abc'"),
        ({"nodes": {"a": 1, "b": 2}, "links": []},
         "nodes must be a list of node names, got {'a': 1, 'b': 2}"),
        ({"nodes": ["a", None], "links": []}, "nodes must be a list of node names"),
        ({"nodes": ["a", True], "links": []}, "nodes must be a list of node names"),
        ({"nodes": ["a", "b"], "links": {"a": "b"}}, "links must be a list, got {'a': 'b'}"),
        ({"nodes": ["a", "b"], "links": ["ab"]},
         "links[0] must be a pair of node names, got 'ab'"),
        ({"nodes": ["a", "b", "c"], "links": [["a", "b"], ["a", "b", "c"]]},
         "links[1] must be a pair of node names, got ['a', 'b', 'c']"),
        ({"nodes": ["a", "b"], "links": [{"a": 1, "b": 2}]}, "links[0] must be a pair"),
        ({"nodes": ["a", "b"], "links": [["a", "b"]], "name": "x"},
         "needs the fields nodes and links and no others, got ['links', 'name', 'nodes']"),
        ({"nodes": ["a", "b"]}, "needs the fields nodes and links and no others, got ['nodes']"),
        (["a", "b"], "needs the fields nodes and links and no others, got list"),
    ], ids=["nodes-string", "nodes-object", "node-null", "node-boolean", "links-object",
            "link-string", "link-triple", "link-object", "unknown-key", "no-links", "list"])
    def test_malformed_document_names_the_field(self, tmp_path, doc, message):
        expected = "^malformed topology document: " + re.escape(message)
        with pytest.raises(ValueError, match=expected):
            Topology.from_dict(doc)
        path = tmp_path / "topo.json"
        path.write_text(json.dumps(doc))
        with pytest.raises(ValueError, match=expected):
            build_topology({"kind": "from_file", "path": str(path)})

    def test_numeric_node_names_become_strings(self):
        doc = {"nodes": [0, 1, 2.5], "links": [[0, 1], (1, 2.5)]}
        assert Topology.from_dict(doc) == Topology(["0", "1", "2.5"], [("0", "1"), ("1", "2.5")])

    @pytest.mark.parametrize("desc", ["figure1", "complete(4)", "torus(3,3)", "hypercube(2)"])
    def test_generated_topologies_are_connected(self, desc):
        assert build_topology(desc).is_connected()


class TestTopologyInvariants:
    def test_validation_rejects_bad_links(self):
        with pytest.raises(ValueError, match="self-loop"):
            Topology(["a", "b"], [("a", "a")])
        with pytest.raises(ValueError, match="undeclared"):
            Topology(["a", "b"], [("a", "c")])
        with pytest.raises(ValueError, match="duplicate"):
            Topology(["a", "b"], [("a", "b"), ("b", "a")])

    @pytest.mark.parametrize("desc", ["figure1", "complete(4)", "torus(3,3)"])
    def test_directed_edges_are_twice_the_links(self, desc):
        t = build_topology(desc)
        directed = t.directed_edges()
        assert len(directed) == 2 * len(t.links) == t.m
        assert {(v, u) for (u, v) in directed} == set(directed)


class TestEdgeConnectivity:
    def test_complete_graphs(self):
        assert edge_connectivity(build_topology("complete(4)")) == 3
        assert edge_connectivity(build_topology("complete(5)")) == 4

    def test_figure1_is_one(self, figure1):
        # node S has degree 1
        assert edge_connectivity(figure1) == 1
        assert brute_force_edge_connectivity(figure1) == 1

    def test_torus_matches_brute_force(self):
        t = build_topology("torus(3,3)")
        assert edge_connectivity(t) == 4
        assert brute_force_edge_connectivity(t) == 4

    @pytest.mark.parametrize("desc", ["complete(4)", "hypercube(2)"])
    def test_small_graphs_match_brute_force(self, desc):
        t = build_topology(desc)
        assert edge_connectivity(t) == brute_force_edge_connectivity(t)

    def test_disconnected_is_zero(self):
        t = Topology(["a", "b", "c", "d"], [("a", "b"), ("c", "d")])
        assert edge_connectivity(t) == 0


class TestShortestPaths:
    def test_figure1_default(self, figure1):
        assert shortest_path_length(figure1, FailureSet.none(), "S", "D") == 4

    def test_figure1_residual_after_failure(self, figure1, s2s4_failure):
        assert shortest_path_length(figure1, s2s4_failure, "S", "D") == 4

    def test_same_node_is_zero(self, figure1):
        assert shortest_path_length(figure1, FailureSet.none(), "S2", "S2") == 0

    def test_unreachable_returns_none(self):
        t = Topology(["a", "b"], [("a", "b")])
        fs = FailureSet.of(links=[("a", "b")])
        assert shortest_path_length(t, fs, "a", "b") is None

    def test_failed_endpoint_is_an_error(self, figure1):
        fs = FailureSet.of(nodes=["S2"])
        with pytest.raises(ValueError, match="failed"):
            shortest_path_length(figure1, fs, "S2", "D")

    def test_symmetry_on_residual_graphs(self, figure1):
        for link in figure1.links:
            fs = FailureSet.of(links=[link])
            for a in figure1.nodes:
                for b in figure1.nodes:
                    assert shortest_path_length(figure1, fs, a, b) == shortest_path_length(
                        figure1, fs, b, a
                    )

    def test_shortest_route_is_lexicographic(self, figure1):
        # both S1-S2-S4 and S1-S3-S4 are shortest; S2 sorts first
        assert shortest_route(figure1, FailureSet.none(), "S", "D") == (
            "S", "S1", "S2", "S4", "D",
        )

    def test_shortest_routes_run_one_bfs_per_destination(self, monkeypatch):
        """Every pair's route is the smallest of its shortest residual paths
        (networkx's, sorted), from one BFS per destination reached."""
        t = build_topology("torus(4,4)")
        failures = FailureSet.of(links=[t.links[0], t.links[5]], nodes=["2_2"])
        searched = []
        monkeypatch.setattr(topology, "bfs_distances", lambda adj, source: (
            searched.append(source) or bfs_distances(adj, source)))
        routes = topology.shortest_routes(t, failures)
        graph = nx.Graph(link for link in t.links if not failures.link_down(*link))
        for b in t.nodes:
            for a in t.nodes:
                expected = None if "2_2" in (a, b) else min(nx.all_shortest_paths(graph, a, b))
                assert routes(a, b) == (expected and tuple(expected))
        assert sorted(searched) == sorted(n for n in t.nodes if n != "2_2")


class TestFailureSet:
    def test_node_failure_kills_incident_links(self, figure1):
        fs = FailureSet.of(nodes=["S4"])
        dead = {link for link in figure1.links if fs.link_down(*link)}
        assert dead == {("S2", "S4"), ("S3", "S4"), ("D", "S4")}

    def test_link_down_covers_failed_links_and_nodes(self, figure1):
        fs = FailureSet.of(links=[("S1", "S2")], nodes=["S4"])
        dead = {("S1", "S2"), ("S2", "S4"), ("S3", "S4"), ("D", "S4")}
        for u, v in figure1.links:
            assert fs.link_down(u, v) == fs.link_down(v, u) == ((u, v) in dead)

    def test_validation(self, figure1):
        with pytest.raises(ValueError):
            FailureSet.of(links=[("S", "D")]).validate(figure1)
        with pytest.raises(ValueError):
            FailureSet.of(nodes=["Z"]).validate(figure1)

    def test_unknown_link_is_named_among_valid_ones(self, figure1):
        FailureSet.of(links=[("S4", "S2"), ("D", "S4")]).validate(figure1)
        with pytest.raises(ValueError, match=r"failed link \('D', 'S'\) does not exist"):
            FailureSet.of(links=[("S2", "S4"), ("S", "D")]).validate(figure1)

    def test_labels_are_stable(self):
        fs = FailureSet.of(links=[("S2", "S4")], nodes=["H"])
        assert fs.label() == "link:S2-S4+node:H"
        assert FailureSet.none().label() == "none"


class TestUnitMaxFlow:
    def test_matches_connectivity_semantics(self, triangle):
        adj = triangle.arc_adjacency()
        assert unit_max_flow(adj, "a", "b") == 2

    def test_limit_short_circuits(self, triangle):
        adj = triangle.arc_adjacency()
        assert unit_max_flow(adj, "a", "b", limit=1) == 1

    def test_flow_arcs_are_net(self, square):
        value, arcs = unit_max_flow(square.arc_adjacency(), "a", "c", return_flow=True)
        assert value == 2
        assert not any((v, u) in arcs for (u, v) in arcs)

    def test_cancelled_arc_is_no_longer_a_reverse_arc(self):
        # The first augmenting path s-a-b-t must be rerouted: the second one,
        # s-c-b-a-d-t, cancels (a, b). After that, b may not step back to a,
        # or s-e-b-a-f-g-t would count a third unit through the cut {a, b}.
        adj = {
            "s": {"a", "c", "e"}, "a": {"b", "d", "f"}, "b": {"t"}, "c": {"b"},
            "d": {"t"}, "e": {"b"}, "f": {"g"}, "g": {"t"},
        }
        value, arcs = unit_max_flow(adj, "s", "t", return_flow=True)
        assert value == 2
        assert arcs == {("s", "a"), ("a", "d"), ("d", "t"), ("s", "c"), ("c", "b"), ("b", "t")}


def _random_arcs(rng: random.Random, n: int, p: float) -> dict[str, set[str]]:
    """Seeded directed arc set on n nodes, each ordered pair kept with probability p."""
    nodes = [str(i) for i in range(n)]
    return {u: {v for v in nodes if v != u and rng.random() < p} for u in nodes}


class TestNetworkxOracle:
    """Differential checks of the max-flow oracles against networkx."""

    @pytest.mark.parametrize("seed", range(6))
    def test_unit_max_flow_matches_networkx(self, seed):
        nx = pytest.importorskip("networkx")
        rng = random.Random(seed)
        adj = _random_arcs(rng, 7 + seed, 0.3)
        graph = nx.DiGraph()
        graph.add_nodes_from(adj)
        graph.add_edges_from(((u, v) for u in adj for v in adj[u]), capacity=1)
        for s, t in itertools.permutations(sorted(adj), 2):
            expected = nx.maximum_flow_value(graph, s, t)
            value, arcs = unit_max_flow(adj, s, t, return_flow=True)
            assert value == expected, (s, t)
            assert all(v in adj[u] for u, v in arcs)
            net = {x: 0 for x in adj}
            for u, v in arcs:
                net[u] -= 1
                net[v] += 1
            assert net[t] == value and net[s] == -value
            assert all(net[x] == 0 for x in adj if x not in (s, t))
            for limit in (1, 2, 3):
                assert unit_max_flow(adj, s, t, limit=limit) == min(limit, expected)

    @pytest.mark.parametrize("seed", range(6))
    def test_presorted_neighbours_on_asymmetric_residuals(self, seed):
        # Arcs of a random topology with some deleted, as decomposition
        # leaves them: out- and in-neighbours differ, and both are subsets
        # of the topology's sorted neighbours.
        nx = pytest.importorskip("networkx")
        rng = random.Random(seed)
        n = 8 + seed
        links = [
            (str(i), str(j)) for i in range(n) for j in range(i + 1, n) if rng.random() < 0.5
        ]
        t = Topology([str(i) for i in range(n)], links)
        adj = {u: {v for v in t.neighbors(u) if rng.random() < 0.7} for u in t.nodes}
        assert any(u not in adj[v] for u in adj for v in adj[u])
        graph = nx.DiGraph()
        graph.add_nodes_from(adj)
        graph.add_edges_from(((u, v) for u in adj for v in adj[u]), capacity=1)
        order = t.arc_adjacency()
        for s, d in itertools.permutations(t.nodes, 2):
            expected = nx.maximum_flow_value(graph, s, d)
            for limit in (None, 2):
                plain = unit_max_flow(adj, s, d, limit=limit, return_flow=True)
                presorted = unit_max_flow(
                    adj, s, d, limit=limit, return_flow=True, _sorted_adj=order
                )
                assert presorted == plain, (s, d, limit)
                assert plain[0] == min(limit or expected, expected)

    @pytest.mark.parametrize("seed", range(8))
    def test_edge_connectivity_matches_networkx(self, seed):
        nx = pytest.importorskip("networkx")
        rng = random.Random(seed)
        n = 6 + seed % 4
        links = [
            (str(i), str(j)) for i in range(n) for j in range(i + 1, n)
            if rng.random() < 0.25 + 0.1 * (seed % 4)
        ]
        t = Topology([str(i) for i in range(n)], links)
        graph = nx.Graph()
        graph.add_nodes_from(t.nodes)
        graph.add_edges_from(t.links)
        assert edge_connectivity(t) == nx.edge_connectivity(graph)
        adj = t.arc_adjacency()
        for s, d in itertools.combinations(t.nodes, 2):
            assert unit_max_flow(adj, s, d) == nx.edge_connectivity(graph, s, d)
