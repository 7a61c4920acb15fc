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

Node betweenness, edge betweenness and eccentricity come from one shared
shortest-path pass per topology (one BFS per source), cached for the last
topology seen.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from enum import Enum
from functools import lru_cache
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


@lru_cache(maxsize=1)
def _shortest_paths(t: Topology):
    """One pass of Brandes' accumulation over every source, on integer ids.

    Each source's BFS and dependency sweep yield node and edge sums at once
    (Brandes 2008, "On variants of shortest-path betweenness centrality and
    their generic computation"), and the BFS also gives its eccentricity.
    Nodes are numbered in adjacency order and edges in first-seen order of
    ``edge_key`` over that adjacency. Returns five tuples, so the cached
    result cannot be mutated: node ids, node sums, edge keys, edge sums (sums
    over ordered pairs; callers halve them for undirected graphs) and each
    node's eccentricity, the distance of the last node its BFS reaches or
    None when it does not reach every node.
    """
    adj = t.adjacency
    nodes = list(adj)
    index = {v: i for i, v in enumerate(nodes)}
    slot: dict[tuple[str, str], int] = {}
    nbrs = [[(index[w], slot.setdefault(edge_key(v, w), len(slot))) for w in adj[v]]
            for v in nodes]
    n = len(nodes)
    node_acc = [0.0] * n
    edge_acc = [0.0] * len(slot)
    ecc = []

    for s in range(n):
        dist = [-1] * n
        dist[s] = 0
        sigma = [0.0] * n
        sigma[s] = 1.0
        preds: list[list[tuple[int, int]]] = [[] for _ in range(n)]
        order = [s]
        for v in order:  # the BFS queue: the loop reads what it appends
            dw = dist[v] + 1
            for w, e in nbrs[v]:
                if dist[w] < 0:
                    dist[w] = dw
                    order.append(w)
                if dist[w] == dw:
                    sigma[w] += sigma[v]
                    preds[w].append((v, e))
        ecc.append(dist[order[-1]] if len(order) == n else None)
        delta = [0.0] * n
        for w in reversed(order):
            coeff = (1.0 + delta[w]) / sigma[w]
            for v, e in preds[w]:
                c = sigma[v] * coeff
                edge_acc[e] += c
                delta[v] += c
            if w != s:
                node_acc[w] += delta[w]

    return tuple(nodes), tuple(node_acc), tuple(slot), tuple(edge_acc), tuple(ecc)


def betweenness_centrality(t: Topology) -> dict[str, float]:
    """Shortest-path betweenness of every node, normalized to [0, 1]."""
    n = len(t.nodes)
    nodes, node_acc, _, _, _ = _shortest_paths(t)
    pairs = (n - 1) * (n - 2) / 2.0
    if pairs <= 0:
        return {v: 0.0 for v in nodes}
    return {v: acc / 2.0 / pairs for v, acc in zip(nodes, node_acc)}


def edge_betweenness(t: Topology) -> dict[tuple[str, str], float]:
    """Shortest-path betweenness of every edge, normalized to [0, 1]."""
    n = len(t.nodes)
    _, _, edges, edge_acc, _ = _shortest_paths(t)
    pairs = n * (n - 1) / 2.0
    return {e: acc / 2.0 / pairs for e, acc in zip(edges, edge_acc)}


def eccentricity_centrality(t: Topology) -> dict[str, int]:
    """Eccentricity in hops per node; ValueError if some pair is unreachable."""
    nodes, _, _, _, ecc = _shortest_paths(t)
    for v, e in zip(nodes, ecc):
        if e is None:
            raise ValueError(f"eccentricity undefined: node {v} cannot reach every node")
    return dict(zip(nodes, ecc))


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

    def all_members(self) -> frozenset:
        out: set = set()
        for c in self.clusters:
            out |= c.members
        return frozenset(out)


# Default tolerance within which values rank as one tie cluster.
TIE_EPSILON = 1e-9


def check_tie_epsilon(tie_epsilon: float) -> None:
    """Raise ValueError unless ``tie_epsilon`` is finite and >= 0."""
    if not (math.isfinite(tie_epsilon) and tie_epsilon >= 0):
        raise ValueError("tie_epsilon must be finite and >= 0")


def rank_with_ties(
    values: Mapping[Hashable, float],
    direction: Direction = Direction.HIGHER_IS_CRITICAL,
    tie_epsilon: float = TIE_EPSILON,
    subset: Iterable[Hashable] | None = None,
) -> RankedClusters:
    """Sort by criticality and group values within ``tie_epsilon`` of each
    cluster's representative (its first, most extreme member).

    ``subset`` restricts the ranking, e.g. to router nodes only.
    """
    check_tie_epsilon(tie_epsilon)
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
    return RankedClusters(clusters=tuple(clusters))
