"""Centrality metrics and tie-clustered criticality rankings.

Conventions, fixed for the whole package:

* Node betweenness: sum over unordered pairs (s, t), endpoints excluded, of
  the fraction of s-t shortest paths through the node, normalized by
  (n-1)(n-2)/2 where n counts every node (generators and sink included).
* Edge betweenness: same sum over paths through an edge, normalized by
  n(n-1)/2.
* Eccentricity: longest shortest-path distance in hops over the undirected
  graph; a LOW value marks a critical node. Validated topologies are
  connected, so it is always defined; an unvalidated disconnected graph is
  rejected with ValueError.
* Eigenvector: dominant eigenvector of the adjacency matrix, unit Euclidean
  norm, all entries nonnegative.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass
from enum import Enum
from typing import Hashable, Iterable, Mapping

import numpy as np

from .topology import Topology, edge_key


class PowerIterationError(RuntimeError):
    """Power iteration failed to converge within the iteration budget."""

    def __init__(self, iterations: int, residual: float):
        super().__init__(
            f"power iteration did not converge after {iterations} iterations "
            f"(final residual {residual:.3e})"
        )
        self.iterations = iterations
        self.residual = residual


def _brandes(adj: Mapping[str, Iterable[str]], want_edges: bool):
    """One pass of Brandes' accumulation over all sources.

    Returns ordered-pair sums; callers halve them for undirected graphs.
    """
    nodes = list(adj)
    node_acc = dict.fromkeys(nodes, 0.0)
    edge_acc: dict[tuple[str, str], float] = {}
    if want_edges:
        for v in nodes:
            for w in adj[v]:
                edge_acc[edge_key(v, w)] = 0.0

    for s in nodes:
        dist = {s: 0}
        sigma = dict.fromkeys(nodes, 0.0)
        sigma[s] = 1.0
        preds: dict[str, list[str]] = {v: [] for v in nodes}
        order: list[str] = []
        queue = deque([s])
        while queue:
            v = queue.popleft()
            order.append(v)
            dv = dist[v]
            for w in adj[v]:
                if w not in dist:
                    dist[w] = dv + 1
                    queue.append(w)
                if dist[w] == dv + 1:
                    sigma[w] += sigma[v]
                    preds[w].append(v)
        delta = dict.fromkeys(nodes, 0.0)
        for w in reversed(order):
            coeff = (1.0 + delta[w]) / sigma[w]
            for v in preds[w]:
                c = sigma[v] * coeff
                if want_edges:
                    edge_acc[edge_key(v, w)] += c
                delta[v] += c
            if w != s:
                node_acc[w] += delta[w]

    return node_acc, edge_acc


def betweenness_centrality(t: Topology) -> dict[str, float]:
    """Shortest-path betweenness of every node, normalized to [0, 1]."""
    n = len(t.nodes)
    node_acc, _ = _brandes(t.adjacency, want_edges=False)
    pairs = (n - 1) * (n - 2) / 2.0
    if pairs <= 0:
        return {v: 0.0 for v in node_acc}
    return {v: acc / 2.0 / pairs for v, acc in node_acc.items()}


def edge_betweenness(t: Topology) -> dict[tuple[str, str], float]:
    """Shortest-path betweenness of every edge, normalized to [0, 1]."""
    n = len(t.nodes)
    _, edge_acc = _brandes(t.adjacency, want_edges=True)
    pairs = n * (n - 1) / 2.0
    return {e: acc / 2.0 / pairs for e, acc in edge_acc.items()}


def _bfs_distances(adj: Mapping[str, Iterable[str]], source: str) -> dict[str, int]:
    dist = {source: 0}
    queue = deque([source])
    while queue:
        v = queue.popleft()
        for w in adj[v]:
            if w not in dist:
                dist[w] = dist[v] + 1
                queue.append(w)
    return dist


def eccentricity_centrality(t: Topology) -> dict[str, int]:
    """Eccentricity in hops per node; ValueError if some pair is unreachable."""
    return _eccentricity_from_adj(t.adjacency)


def _eccentricity_from_adj(adj: Mapping[str, Iterable[str]]) -> dict[str, int]:
    ecc: dict[str, int] = {}
    for v in adj:
        dist = _bfs_distances(adj, v)
        if len(dist) < len(adj):
            raise ValueError(f"eccentricity undefined: node {v} cannot reach every node")
        ecc[v] = max(dist.values())
    return ecc


def eigenvector_centrality(
    t: Topology, tol: float = 1e-9, max_iter: int = 10_000
) -> dict[str, float]:
    """Dominant-eigenvector scores via power iteration, unit Euclidean norm.

    The result x satisfies ``max|A x - lambda x| <= 10 * tol`` with lambda the
    Rayleigh quotient. Raises PowerIterationError if that residual bound is
    not reached within ``max_iter`` iterations.
    """
    if tol <= 0:
        raise ValueError("tol must be > 0")
    ids = [nid for nid, _ in t.nodes]
    index = {nid: i for i, nid in enumerate(ids)}
    n = len(ids)
    a = np.zeros((n, n))
    for u, v in t.edges:
        a[index[u], index[v]] = 1.0
        a[index[v], index[u]] = 1.0
    x = _power_iteration(a, tol, max_iter)
    return {nid: float(x[index[nid]]) for nid in ids}


def _power_iteration(a: np.ndarray, tol: float, max_iter: int) -> np.ndarray:
    # Iterate on A + I: the diagonal shift leaves eigenvectors unchanged but
    # guarantees convergence on bipartite graphs (trees), where the raw
    # adjacency spectrum is symmetric and plain power iteration oscillates.
    n = a.shape[0]
    m = a + np.eye(n)
    x = np.full(n, 1.0 / np.sqrt(n))
    residual = np.inf
    for _ in range(max_iter):
        y = m @ x
        y /= np.linalg.norm(y)
        diff = float(np.max(np.abs(y - x)))
        x = y
        if diff < tol:
            ax = a @ x
            lam = float(x @ ax)
            residual = float(np.max(np.abs(ax - lam * x)))
            if residual <= 10.0 * tol:
                return x
    raise PowerIterationError(max_iter, residual)


class Direction(Enum):
    HIGHER_IS_CRITICAL = "higher"
    LOWER_IS_CRITICAL = "lower"


@dataclass(frozen=True)
class RankCluster:
    rank: int
    members: frozenset
    value: float


@dataclass(frozen=True)
class RankedClusters:
    """Criticality ranking as an ordered list of tie clusters."""

    clusters: tuple[RankCluster, ...]
    direction: Direction

    def all_members(self) -> frozenset:
        out: set = set()
        for c in self.clusters:
            out |= c.members
        return frozenset(out)


def rank_with_ties(
    values: Mapping[Hashable, float],
    direction: Direction = Direction.HIGHER_IS_CRITICAL,
    tie_epsilon: float = 1e-9,
    subset: Iterable[Hashable] | None = None,
) -> RankedClusters:
    """Sort by criticality and group values within ``tie_epsilon`` of each
    cluster's representative (its first, most extreme member).

    ``subset`` restricts the ranking, e.g. to router nodes only.
    """
    if tie_epsilon < 0:
        raise ValueError("tie_epsilon must be >= 0")
    if subset is not None:
        keys = list(subset)
        missing = [k for k in keys if k not in values]
        if missing:
            raise ValueError(f"subset ids not present in values: {missing}")
        items = [(k, float(values[k])) for k in keys]
    else:
        items = [(k, float(v)) for k, v in values.items()]
    if not items:
        raise ValueError("nothing to rank")

    descending = direction is Direction.HIGHER_IS_CRITICAL
    items.sort(key=lambda kv: ((-kv[1] if descending else kv[1]), str(kv[0])))

    clusters: list[RankCluster] = []
    members = [items[0][0]]
    rep = items[0][1]
    for key, val in items[1:]:
        if abs(val - rep) <= tie_epsilon:
            members.append(key)
        else:
            clusters.append(RankCluster(len(clusters) + 1, frozenset(members), rep))
            members = [key]
            rep = val
    clusters.append(RankCluster(len(clusters) + 1, frozenset(members), rep))
    return RankedClusters(clusters=tuple(clusters), direction=direction)
