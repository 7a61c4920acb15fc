import random
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import oracles
from conftest import chorded_ring_text, make_random_topology, topologies
from netcrit import metrics
from netcrit.metrics import (
    EIGENVECTOR_TOL,
    SOURCE_BLOCK,
    Direction,
    PowerIterationError,
    _block_pass,
    _graph,
    _pick_pass,
    _queue_pass,
    _shortest_paths,
    betweenness_centrality,
    eccentricity_centrality,
    edge_betweenness,
    eigenvector_centrality,
    rank_with_ties,
)
from netcrit.topology import (NodeRole, Topology, builtin_case, edge_key, natural_key,
                              parse_topology)

# Mirror symmetry of the case-2 tree: swapping the two subtrees under the
# sink maps these routers (and their generators) onto each other.
CASE2_MIRROR = [("1", "2"), ("3", "5"), ("4", "6"), ("7", "11"), ("8", "12"),
                ("9", "13"), ("10", "14")]


def star4() -> Topology:
    return Topology(
        name="star4",
        nodes=(("h", NodeRole.ROUTER), ("S", NodeRole.SINK),
               ("g1", NodeRole.GENERATOR), ("g2", NodeRole.GENERATOR)),
        edges=(("h", "S"), ("h", "g1"), ("h", "g2")),
    )


class TestBetweenness:
    def test_path3_middle_carries_everything(self, path3_topology):
        bet = betweenness_centrality(path3_topology)
        assert bet["b"] == pytest.approx(1.0)
        assert bet["a"] == 0.0 and bet["c"] == 0.0

    def test_star_center(self):
        bet = betweenness_centrality(star4())
        assert bet["h"] == pytest.approx(1.0)
        assert all(bet[leaf] == 0.0 for leaf in ("S", "g1", "g2"))

    def test_case3_cluster_order(self):
        t = builtin_case(3)
        rc = rank_with_ties(betweenness_centrality(t), subset=t.router_ids)
        assert [c.members for c in rc] == [("6", "10"), ("2", "14"), ("1",)]

    def test_case2_cluster_order_with_sink(self):
        t = builtin_case(2)
        rc = rank_with_ties(betweenness_centrality(t), subset=[str(i) for i in range(15)])
        assert [c.members for c in rc] == [
            ("1", "2"), ("0",), ("3", "4", "5", "6"), tuple(str(i) for i in range(7, 15))]

    def test_under_three_nodes_all_zero(self):
        # No pair has an interior node to count.
        one = Topology(name="one", nodes=(("a", NodeRole.ROUTER),), edges=())
        assert betweenness_centrality(one) == {"a": 0.0}
        assert betweenness_centrality(routers("two", [("a", "b")])) == {"a": 0.0, "b": 0.0}


class TestEdgeBetweenness:
    def test_path3_edges(self, path3_topology):
        eb = edge_betweenness(path3_topology)
        assert eb[edge_key("a", "b")] == pytest.approx(2 / 3)
        assert eb[edge_key("b", "c")] == pytest.approx(2 / 3)

    def test_case2_cluster_order(self):
        t = builtin_case(2)
        core = [e for e in t.edge_keys()
                if t.roles[e[0]] is not NodeRole.GENERATOR
                and t.roles[e[1]] is not NodeRole.GENERATOR]
        rc = rank_with_ties(edge_betweenness(t), subset=core)
        assert rc[0].members == (edge_key("0", "1"), edge_key("0", "2"))
        assert rc[1].members == (
            edge_key("1", "3"), edge_key("1", "4"), edge_key("2", "5"), edge_key("2", "6"))
        assert len(rc[2].members) == 8

    def test_case3_cluster_order(self):
        t = builtin_case(3)
        ring = [edge_key(*e) for e in
                [("1", "2"), ("2", "6"), ("6", "10"), ("10", "14"), ("14", "1")]]
        rc = rank_with_ties(edge_betweenness(t), subset=ring)
        # Edge members are in natural order of str(edge): "('10', '14')" < "('2', '6')".
        assert [c.members for c in rc] == [
            (edge_key("6", "10"),),
            (edge_key("10", "14"), edge_key("2", "6")),
            (edge_key("1", "14"), edge_key("1", "2"))]


class TestEccentricity:
    def test_triangle_all_one(self):
        t = Topology(name="triangle", nodes=(("a", NodeRole.ROUTER), ("b", NodeRole.ROUTER),
                                             ("c", NodeRole.ROUTER)),
                     edges=(("a", "b"), ("b", "c"), ("a", "c")))
        assert eccentricity_centrality(t) == {"a": 1, "b": 1, "c": 1}

    def test_case2_exact_values(self):
        ecc = eccentricity_centrality(builtin_case(2))
        assert ecc["0"] == 4
        assert ecc["1"] == ecc["2"] == 5
        assert all(ecc[str(i)] == 6 for i in range(3, 7))
        assert all(ecc[str(i)] == 7 for i in range(7, 15))

    def test_case3_ring_routers_all_three(self):
        t = builtin_case(3)
        ecc = eccentricity_centrality(t)
        assert all(ecc[r] == 3 for r in t.router_ids)

    def test_disconnected_graph_rejected(self):
        # Only eccentricity is undefined here: the shortest-path pass it
        # shares with both betweenness metrics must not raise for them.
        t = Topology(name="split", nodes=(("S", NodeRole.SINK), ("R", NodeRole.ROUTER),
                                          ("G", NodeRole.GENERATOR)),
                     edges=(("S", "R"),))
        with pytest.raises(ValueError, match="cannot reach every node"):
            eccentricity_centrality(t)
        assert betweenness_centrality(t) == {"S": 0.0, "R": 0.0, "G": 0.0}
        assert edge_betweenness(t) == {("R", "S"): 1 / 3}

    def test_unreachable_node_id_is_cut(self):
        v = "v" * 300
        t = Topology(name="split", nodes=((v, NodeRole.ROUTER), ("w", NodeRole.ROUTER)),
                     edges=())
        with pytest.raises(ValueError) as err:
            eccentricity_centrality(t)
        assert str(err.value) == (f"eccentricity undefined: node {'v' * 24}... "
                                  "cannot reach every node")

    def test_matches_floyd_warshall(self):
        rng = random.Random(7)
        for _ in range(25):
            t = make_random_topology(rng)
            assert eccentricity_centrality(t) == oracles.floyd_warshall_eccentricity(t.adjacency)


class TestSharedPass:
    def test_results_survive_mutation_and_alternation(self):
        # The three metrics share one cached shortest-path pass per topology;
        # each call must return a fresh dict that the caller may change.
        t1, t2 = builtin_case(2), builtin_case(3)
        fns = (betweenness_centrality, edge_betweenness, eccentricity_centrality)
        first = {(t.name, f.__name__): dict(f(t)) for t in (t1, t2) for f in fns}
        for t in (t1, t2, t1):
            for f in fns:
                for _ in range(2):
                    got = f(t)
                    assert got == first[t.name, f.__name__]
                    for key in got:
                        got[key] = -1
                    got["stale"] = -1

    def test_four_metrics_number_a_topology_once(self):
        t = parse_topology(chorded_ring_text(12), name="ring12")
        _graph.cache_clear()
        _shortest_paths.cache_clear()
        for f in (eigenvector_centrality, betweenness_centrality, edge_betweenness,
                  eccentricity_centrality):
            f(t)
        assert _graph.cache_info().misses == 1
        _, _, *arrays = _graph(t)
        assert len(arrays) == 4 and not any(a.flags.writeable for a in arrays)


class TestEigenvector:
    def test_cycle4_uniform_half(self):
        eig = eigenvector_centrality(routers("cycle4", [("0", "1"), ("1", "2"), ("2", "3"),
                                                        ("3", "0")]))
        assert np.allclose(list(eig.values()), 0.5, atol=1e-9)

    def test_iteration_budget_exhausted(self, monkeypatch):
        # One iteration from the uniform start does not converge on a path.
        monkeypatch.setattr(metrics, "EIGENVECTOR_MAX_ITER", 1)
        with pytest.raises(PowerIterationError, match="after 1 iterations"):
            eigenvector_centrality(path(5))

    def test_star_center_to_leaf_ratio_sqrt3(self):
        t = star4()
        eig = eigenvector_centrality(t)
        oracle = oracles.dense_dominant_eigenvector(t.adjacency)
        for node, value in eig.items():
            assert value == pytest.approx(oracle[node], abs=1e-8)
        assert eig["h"] / eig["S"] == pytest.approx(np.sqrt(3), abs=1e-6)
        leaves = [eig["S"], eig["g1"], eig["g2"]]
        assert max(leaves) - min(leaves) <= 1e-9
        assert eig["h"] > max(leaves)

    def test_case3_cluster_order(self):
        t = builtin_case(3)
        rc = rank_with_ties(eigenvector_centrality(t), subset=t.router_ids)
        assert [c.members for c in rc] == [("6", "10"), ("2", "14"), ("1",)]

    @pytest.mark.parametrize("t", [builtin_case(1), builtin_case(2), builtin_case(3),
                                   parse_topology(chorded_ring_text(250), name="ring250")],
                             ids=lambda t: t.name)
    def test_matches_reference_iteration_exactly(self, t):
        # Not just close: every float equal, under whatever BLAS kernel runs.
        assert eigenvector_centrality(t) == oracles.reference_eigenvector(t)

    @given(topologies())
    @settings(max_examples=40)
    def test_matches_reference_iteration_on_generated_topologies(self, t):
        assert eigenvector_centrality(t) == oracles.reference_eigenvector(t)

    @given(topologies())
    @settings(max_examples=40)
    def test_residual_norm_and_sign_invariants(self, t):
        tol = EIGENVECTOR_TOL
        eig = eigenvector_centrality(t)
        ids = [nid for nid, _ in t.nodes]
        index = {nid: i for i, nid in enumerate(ids)}
        a = np.zeros((len(ids), len(ids)))
        for u, v in t.edges:
            a[index[u], index[v]] = a[index[v], index[u]] = 1.0
        x = np.array([eig[nid] for nid in ids])
        assert abs(np.linalg.norm(x) - 1.0) <= 1e-9
        assert (x >= 0.0).all()
        lam = float(x @ (a @ x))
        assert float(np.max(np.abs(a @ x - lam * x))) <= 10 * tol


class TestOracleEquivalence:
    def test_brandes_matches_naive_enumeration(self):
        rng = random.Random(2024)
        for _ in range(60):
            t = make_random_topology(rng)
            adj = t.adjacency
            bet = betweenness_centrality(t)
            for node, expected in oracles.naive_betweenness(adj).items():
                assert bet[node] == pytest.approx(expected, abs=1e-9)
            eb = edge_betweenness(t)
            for edge, expected in oracles.naive_edge_betweenness(adj).items():
                assert eb[edge] == pytest.approx(expected, abs=1e-9)


def graph(n: int, seed: int, extra_edges: int = 0) -> Topology:
    """Unvalidated graph on n nodes: a random spanning tree plus extra
    random edges, which may repeat an edge or be a self-loop."""
    rng = random.Random(seed)
    ids = [f"v{i}" for i in range(n)]
    edges = [(ids[rng.randrange(i)], ids[i]) for i in range(1, n)]
    edges += [(rng.choice(ids), rng.choice(ids)) for _ in range(extra_edges)]
    rng.shuffle(edges)
    return Topology(name=f"graph{n}", nodes=tuple((v, NodeRole.ROUTER) for v in ids),
                    edges=tuple(edges))


def routers(name: str, edges: list[tuple[str, str]]) -> Topology:
    """Unvalidated graph of routers, numbered in first-seen order over ``edges``."""
    ids = dict.fromkeys(v for e in edges for v in e)
    return Topology(name=name, nodes=tuple((v, NodeRole.ROUTER) for v in ids),
                    edges=tuple(edges))


def path(n: int) -> Topology:
    """One node per level."""
    return routers(f"path{n}", [(str(i), str(i + 1)) for i in range(n - 1)])


def binary_tree(depth: int) -> Topology:
    return routers(f"tree{depth}", [(str((i - 1) // 2), str(i))
                                    for i in range(1, 2 ** (depth + 1) - 1)])


def feeders(count: int, branches: int, length: int) -> Topology:
    """A radial network: ``count`` feeders from one hub, each splitting into
    ``branches`` chains of ``length`` nodes."""
    edges = []
    for f in range(count):
        edges.append(("hub", f"f{f}"))
        for b in range(branches):
            chain = [f"f{f}"] + [f"f{f}_{b}_{i}" for i in range(length)]
            edges += zip(chain, chain[1:])
    return routers(f"feeders{count}x{branches}x{length}", edges)


def assert_both_passes_exact(t: Topology) -> None:
    nodes, node_acc, edges, edge_acc, ecc = oracles.reference_shortest_paths(t)
    assert _graph(t)[:2] == (nodes, edges)
    assert _block_pass(t) == (node_acc, edge_acc, ecc)
    assert _queue_pass(t) == (node_acc, edge_acc, ecc)


class TestExactOrder:
    """Both shortest-path passes, each called directly, return exactly the
    sums and eccentricities of the queue-based reference pass, in the node
    and edge order of ``_graph``: every float equal, not just close."""

    @given(topologies(max_routers=4 * SOURCE_BLOCK, multihome_prob=0.5))
    @settings(max_examples=100, deadline=None)
    def test_matches_reference_pass(self, t):
        assert_both_passes_exact(t)

    @pytest.mark.parametrize("t", [
        Topology(name="duplicate", nodes=(("a", NodeRole.ROUTER), ("b", NodeRole.ROUTER),
                                          ("c", NodeRole.ROUTER), ("d", NodeRole.ROUTER)),
                 edges=(("a", "b"), ("b", "c"), ("a", "d"), ("d", "c"), ("c", "b"))),
        Topology(name="self-loop", nodes=(("a", NodeRole.ROUTER), ("b", NodeRole.ROUTER),
                                          ("c", NodeRole.ROUTER)),
                 edges=(("a", "b"), ("b", "b"), ("b", "c"))),
        Topology(name="disconnected", nodes=tuple((v, NodeRole.ROUTER) for v in "abcde"),
                 edges=(("a", "b"), ("b", "c"), ("d", "e"))),
        Topology(name="one", nodes=(("a", NodeRole.ROUTER),), edges=()),
        Topology(name="empty", nodes=(), edges=()),
        # Deeper than any generated topology.
        path(40),
        # One very wide level: 300 nodes from the hub, 299 from each leaf.
        Topology(name="star300", nodes=tuple((str(i), NodeRole.ROUTER) for i in range(301)),
                 edges=tuple(("0", str(i)) for i in range(1, 301))),
    ], ids=lambda t: t.name)
    def test_odd_graphs(self, t):
        assert_both_passes_exact(t)
        # Nor may the rule fail: it has no level to measure on the empty
        # graph or on one node.
        assert _pick_pass(t) in (_block_pass, _queue_pass)

    @pytest.mark.parametrize("n", [SOURCE_BLOCK - 1, SOURCE_BLOCK, SOURCE_BLOCK + 1,
                                   2 * SOURCE_BLOCK + 1])
    def test_block_boundaries(self, n):
        for seed, extra in [(0, 0), (1, n // 2), (2, 2 * n)]:
            assert_both_passes_exact(graph(n, seed, extra))

    @pytest.mark.parametrize("t", [builtin_case(1), builtin_case(2), builtin_case(3),
                                   path(600), feeders(3, 2, 60)], ids=lambda t: t.name)
    def test_cases_and_long_chains(self, t):
        assert_both_passes_exact(t)

    @pytest.mark.parametrize("t, chosen", [
        (builtin_case(1), _queue_pass),
        (builtin_case(2), _queue_pass),
        (builtin_case(3), _queue_pass),
        (path(300), _queue_pass),
        # metrics-large's size: 250 routers with 125 chords, a sink and 25
        # generators make 276 nodes and 401 edges.
        (graph(276, 0, 126), _block_pass),
        (binary_tree(7), _block_pass),
    ], ids=lambda x: getattr(x, "name", None) or getattr(x, "__name__", None))
    def test_pass_choice(self, t, chosen):
        assert _pick_pass(t) is chosen

    def test_memory_budget(self):
        # Blocks bound the working set: O(SOURCE_BLOCK x edges), not O(n^2).
        t = parse_topology(chorded_ring_text(250), name="ring250")
        t.adjacency  # built and cached outside the measured call
        tracemalloc.start()
        try:
            _shortest_paths.__wrapped__(t)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 1_000_000

    def test_queue_pass_memory_budget(self):
        # O(n + edges) per source: about 400 bytes a node on a 300-node path,
        # where n^2 float sums alone would take 720,000 bytes. (Under
        # tracemalloc the pure-Python pass runs about 30 times slower, so the
        # path is kept short.)
        t = path(300)
        t.adjacency
        tracemalloc.start()
        try:
            _queue_pass(t)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 200_000

    def test_eigenvector_memory_budget(self):
        # One n x n matrix: A + I is built in place, not as A and a shifted copy.
        t = parse_topology(chorded_ring_text(250), name="ring250")
        n = len(t.nodes)
        tracemalloc.start()
        try:
            eigenvector_centrality(t)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 1.25 * n * n * 8


class TestSymmetryAndRelabeling:
    def test_case2_mirror_pairs_equal(self):
        t = builtin_case(2)
        bet = betweenness_centrality(t)
        ecc = eccentricity_centrality(t)
        eig = eigenvector_centrality(t)
        for a, b in CASE2_MIRROR:
            assert abs(bet[a] - bet[b]) <= 1e-9
            assert ecc[a] == ecc[b]
            assert abs(eig[a] - eig[b]) <= 1e-9
        eb = edge_betweenness(t)
        mirror = dict(CASE2_MIRROR) | {"0": "0"}
        for (u, v), value in eb.items():
            mu, mv = mirror.get(u), mirror.get(v)
            if mu is None or mv is None:  # generator spokes mirror via their routers
                continue
            assert abs(value - eb[edge_key(mu, mv)]) <= 1e-9

    @given(topologies(), st.randoms(use_true_random=False))
    @settings(max_examples=30)
    def test_metrics_invariant_under_relabeling(self, t, rnd):
        new_names = [f"n{i}" for i in range(len(t.nodes))]
        rnd.shuffle(new_names)
        mapping = {old: new for (old, _), new in zip(t.nodes, new_names)}
        relabeled = Topology(
            name=t.name,
            nodes=tuple((mapping[n], r) for n, r in t.nodes),
            edges=tuple((mapping[u], mapping[v]) for u, v in t.edges),
        )
        bet, bet2 = betweenness_centrality(t), betweenness_centrality(relabeled)
        ecc, ecc2 = eccentricity_centrality(t), eccentricity_centrality(relabeled)
        eig, eig2 = eigenvector_centrality(t), eigenvector_centrality(relabeled)
        for old, new in mapping.items():
            assert bet2[new] == pytest.approx(bet[old], abs=1e-9)
            assert ecc2[new] == ecc[old]
            assert eig2[new] == pytest.approx(eig[old], abs=1e-8)
        eb, eb2 = edge_betweenness(t), edge_betweenness(relabeled)
        for (u, v), value in eb.items():
            assert eb2[edge_key(mapping[u], mapping[v])] == pytest.approx(value, abs=1e-9)


class TestRankWithTies:
    def test_simple_clustering(self):
        rc = rank_with_ties({"a": 0.5, "b": 0.5, "c": 0.2})
        assert [(rank, c.members, c.value) for rank, c in enumerate(rc, 1)] == [
            (1, ("a", "b"), 0.5), (2, ("c",), 0.2)]

    def test_lower_is_critical_sorts_ascending(self):
        rc = rank_with_ties({"a": 4, "b": 7, "c": 4}, Direction.LOWER_IS_CRITICAL)
        assert rc[0].members == ("a", "c")
        assert rc[1].members == ("b",)

    def test_empty_input_rejected(self):
        with pytest.raises(ValueError, match="nothing to rank"):
            rank_with_ties({})
        with pytest.raises(ValueError, match="nothing to rank"):
            rank_with_ties({"a": 1.0}, subset=[])

    def test_unknown_subset_id_rejected(self):
        with pytest.raises(ValueError, match="subset ids"):
            rank_with_ties({"a": 1.0}, subset=["b"])

    def test_unknown_subset_ids_are_cut(self):
        with pytest.raises(ValueError) as short:
            rank_with_ties({"a": 1.0}, subset=["a", "b"])
        assert str(short.value) == "subset ids not present in values: ['b']"
        with pytest.raises(ValueError) as long:
            rank_with_ties({"a": 1.0}, subset=[f"id{i}" for i in range(3000)])
        assert str(long.value) == "subset ids not present in values: ['id0', 'id1', 'id2', 'i..."

    def test_negative_epsilon_rejected(self):
        with pytest.raises(ValueError):
            rank_with_ties({"a": 1.0}, tie_epsilon=-1e-3)

    @pytest.mark.parametrize("eps", [float("nan"), float("inf")])
    def test_non_finite_epsilon_rejected(self, eps):
        with pytest.raises(ValueError, match="tie_epsilon must be finite"):
            rank_with_ties({"a": 1.0}, tie_epsilon=eps)

    @given(
        st.dictionaries(st.text(min_size=1, max_size=3),
                        st.sampled_from([0.0, -0.0, 1e-10, -1e-10, 0.5]) | st.floats(-1, 1),
                        min_size=1),
        st.sampled_from(list(Direction)),
        st.sampled_from([0.0, 1e-9, 0.5]),
        st.randoms(use_true_random=False),
    )
    @settings(max_examples=200)
    def test_insertion_order_does_not_matter(self, values, direction, eps, rnd):
        # Ties include 0.0 and -0.0, which compare equal but print apart, so
        # the representative's sign must not depend on insertion order either.
        items = list(values.items())
        rnd.shuffle(items)
        expected = rank_with_ties(values, direction, eps)
        got = rank_with_ties(dict(items), direction, eps)
        assert got == expected
        assert repr(got) == repr(expected)

    @given(
        st.dictionaries(st.text(min_size=1, max_size=3), st.floats(-100, 100), min_size=1),
        st.floats(0, 1.0),
    )
    @settings(max_examples=80)
    def test_clusters_partition_and_are_monotone(self, values, eps):
        rc = rank_with_ties(values, tie_epsilon=eps)
        seen = set()
        for cluster in rc:
            assert list(cluster.members) == sorted(set(cluster.members),
                                                   key=lambda m: natural_key(str(m)))
            assert seen.isdisjoint(cluster.members)
            seen |= set(cluster.members)
            for member in cluster.members:
                assert abs(values[member] - cluster.value) <= eps
        assert seen == set(values)
        reps = [c.value for c in rc]
        assert all(reps[i] > reps[i + 1] for i in range(len(reps) - 1))
