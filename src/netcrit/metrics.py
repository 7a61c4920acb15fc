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

Every metric numbers a topology's nodes and edges in ``_graph``, which
builds the numbering and its CSR arrays once per topology, cached for the
last topology seen. Node betweenness, edge betweenness and eccentricity come
from one shared shortest-path pass per topology (one BFS per source), cached
the same way. There are two exact passes, and each adds every sum's terms
in the order of a queue-based BFS over one source at a time, so both return
floats bit-identical to that plain pass, the tests' reference:

* ``_queue_pass`` is that plain pass (Brandes 2001, "A faster algorithm for
  betweenness centrality"), in Python lists, O(n + edges) per source.
* ``_block_pass`` runs in numpy over blocks of ``SOURCE_BLOCK`` sources, one
  BFS level at a time, and keeps each level as a one-byte source row and an
  int32 CSR slot per shortest-path pair, so its working set grows with the
  block times the edge count rather than with n^2. Each level costs about 45
  numpy calls however narrow it is.

``_pick_pass`` takes the queue pass when the block pass would average fewer
than ``MIN_PAIRS_PER_LEVEL`` candidate pairs per level call: n * S pairs (n
nodes, S CSR slots) over ceil(n / SOURCE_BLOCK) * D level calls, D a
two-sweep BFS estimate of the diameter. The constant was measured on a
2-core Xeon (CPython 3.11, numpy 2.4) over 13 shapes, and the rule picked
the faster pass on each: the queue pass on the three built-in cases (1.5 to
2 times faster, under 1 ms either way), paths of 100 to 600 nodes (about 3
times faster) and a 3 x 2 x 60 feeder network (1.1 to 1.4 times), the block
pass on generated meshes of 50 to 250 routers (1.2 to 2.5 times faster), a
depth-7 binary tree, a 30 x 5 caterpillar and a 5 x 4 x 20 feeder network.
The eigenvector iterates on A + I, in the one dense n x n matrix it builds
and owns.

A ranking is a plain tuple of ``RankCluster``s, most critical first.
``rank_with_ties`` sorts each cluster's members once, in natural order, and
nothing downstream re-sorts them, so reports and sums over a ranking never
depend on set iteration order or the string hash seed.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from enum import Enum
from functools import lru_cache
from typing import Hashable, Iterable, Mapping

import numpy as np

from .topology import Topology, clip, edge_key, natural_key


class PowerIterationError(RuntimeError):
    """Power iteration failed to converge within the iteration budget."""

    def __init__(self, iterations: int, residual: float):
        super().__init__(
            f"power iteration did not converge after {iterations} iterations "
            f"(final residual {residual:.3e})"
        )
        self.iterations = iterations
        self.residual = residual


# Sources per block of the shortest-path pass: its arrays hold O(SOURCE_BLOCK
# x edges) entries at once, not O(nodes^2).
SOURCE_BLOCK = 24

# The block pass averages about n * S / (ceil(n / SOURCE_BLOCK) * D)
# candidate pairs per level call; below this many, _shortest_paths takes the
# queue pass instead (see the module docstring).
MIN_PAIRS_PER_LEVEL = 200

# Power iteration of eigenvector_centrality: step tolerance and iteration budget.
EIGENVECTOR_TOL = 1e-9
EIGENVECTOR_MAX_ITER = 10_000


@lru_cache(maxsize=1)
def _graph(t: Topology):
    """Node ids in adjacency order, edge keys in first-seen order over the
    slots, and the CSR arrays over them: node v's slots are ``start[v]`` to
    ``start[v+1]``, in adjacency order, and slot k is the entry of node
    ``owner[k]`` for neighbour ``nbr[k]`` on edge ``eid[k]``. Every metric
    shares the cached result: tuples and read-only arrays."""
    adj = t.adjacency
    nodes = tuple(adj)
    index = {v: i for i, v in enumerate(nodes)}
    # Each edge is keyed once, at its first slot; its other slot, and the
    # slots of a repeat of it in an unvalidated graph, find its id by the
    # plain ordered pair.
    ids: dict[tuple[str, str], int] = {}
    keys: list[tuple[str, str]] = []
    start, nbr, eid = [0], [], []  # lists, not np.cumsum: each new numpy kernel pages in 64 KB
    for v in nodes:
        for w in adj[v]:
            pair = (v, w) if v < w else (w, v)
            e = ids.get(pair)
            if e is None:
                e = ids[pair] = len(keys)
                keys.append(edge_key(v, w))
            eid.append(e)
        nbr += map(index.__getitem__, adj[v])
        start.append(len(nbr))
    start, nbr, eid = (np.array(a, dtype=np.intp) for a in (start, nbr, eid))
    owner = np.repeat(np.arange(len(nodes)), [len(adj[v]) for v in nodes])
    for a in (start, owner, nbr, eid):
        a.flags.writeable = False
    return nodes, tuple(keys), start, owner, nbr, eid


@lru_cache(maxsize=1)
def _shortest_paths(t: Topology):
    """One pass of Brandes' accumulation over every source, on integer ids.

    Each source's BFS and dependency sweep yield node and edge sums at once
    (Brandes 2008, "On variants of shortest-path betweenness centrality and
    their generic computation"), and the BFS also gives its eccentricity.
    Returns three tuples in ``_graph``'s numbering, so the cached result
    cannot be mutated: node sums, edge sums (sums over ordered pairs; callers
    halve them for undirected graphs) and each node's eccentricity, the
    distance of the last node its BFS reaches or None when it does not reach
    every node.

    ``_pick_pass`` chooses ``_queue_pass`` or ``_block_pass``. Both return
    exactly the tuples of the queue-based pass kept in the tests as the
    reference, because each sum adds the same terms in the same order.
    """
    return _pick_pass(t)(t)


def _neighbours(t: Topology) -> list[list[int]]:
    """Each node's neighbours, one per CSR slot, in slot order."""
    _, _, start, _, nbr, _ = _graph(t)
    targets, ends = nbr.tolist(), start.tolist()
    return [targets[a:b] for a, b in zip(ends, ends[1:])]


def _pick_pass(t: Topology):
    """``_queue_pass`` when the block pass would average fewer than
    ``MIN_PAIRS_PER_LEVEL`` candidate pairs per level call, else
    ``_block_pass``.

    The block pass scans n * S candidate pairs (n nodes, S CSR slots) in
    about ceil(n / SOURCE_BLOCK) * D level calls, D the diameter, which two
    BFS sweeps estimate: from node 0 to the last node it reaches, and from
    there. On a disconnected graph that is node 0's component. A graph of
    under two nodes has no level and takes the queue pass; D is at least 1.
    """
    nodes, _, _, owner, _, _ = _graph(t)
    n = len(nodes)
    if n < 2:
        return _queue_pass
    adj = _neighbours(t)
    far, _ = _farthest(adj, 0)
    _, d = _farthest(adj, far)
    level_calls = -(-n // SOURCE_BLOCK) * max(d, 1)
    return _queue_pass if n * len(owner) < MIN_PAIRS_PER_LEVEL * level_calls else _block_pass


def _farthest(adj: list[list[int]], s: int) -> tuple[int, int]:
    """The last node a BFS from ``s`` reaches, and its distance."""
    dist = [-1] * len(adj)
    dist[s] = 0
    order = [s]
    for v in order:
        for w in adj[v]:
            if dist[w] < 0:
                dist[w] = dist[v] + 1
                order.append(w)
    return order[-1], dist[order[-1]]


def _queue_pass(t: Topology):
    """Brandes one source at a time in plain Python, as ``_shortest_paths``
    returns it.

    It is the pass ``_pick_pass`` takes on narrow graphs: a FIFO BFS that
    adds each w's path count from its predecessors v in the order it scans
    them, then a sweep in reversed BFS order that applies each w's terms to
    delta[v] and the edge sums, in the order of the tests' reference
    ``oracles.reference_shortest_paths``. The sweep finds w's predecessors
    by their distance rather than in a list kept by the BFS: w's slots
    towards v carry the same edge id and term as v's slots towards w, so
    every sum still gets the same terms in the same order.
    """
    nodes, edges, _, _, _, eid = _graph(t)
    ids = iter(eid.tolist())
    links = [[(w, next(ids)) for w in ws] for ws in _neighbours(t)]
    n = len(nodes)
    node_acc = [0.0] * n
    edge_acc = [0.0] * len(edges)
    ecc: list[int | None] = []
    for s in range(n):
        dist = [-1] * n
        dist[s] = 0
        sigma = [0.0] * n
        sigma[s] = 1.0
        order = [s]
        for v in order:  # the BFS queue: the loop reads what it appends
            dw = dist[v] + 1
            sv = sigma[v]
            for w, _ in links[v]:
                if dist[w] < 0:
                    dist[w] = dw
                    order.append(w)
                if dist[w] == dw:
                    sigma[w] += sv
        ecc.append(dist[order[-1]] if len(order) == n else None)
        delta = [0.0] * n
        for w in reversed(order):
            dv = dist[w] - 1
            coeff = (1.0 + delta[w]) / sigma[w]
            for v, e in links[w]:
                if dist[v] == dv:
                    c = sigma[v] * coeff
                    edge_acc[e] += c
                    delta[v] += c
        for w in order[1:]:
            node_acc[w] += delta[w]
    return tuple(node_acc), tuple(edge_acc), tuple(ecc)


def _block_pass(t: Topology):
    """Brandes over blocks of ``SOURCE_BLOCK`` sources in numpy, as
    ``_shortest_paths`` returns it; ``_accumulate`` runs each block."""
    nodes, edges, start, owner, nbr, eid = _graph(t)
    n = len(nodes)
    node_acc = np.zeros(n)
    edge_acc = np.zeros(len(edges))
    ecc: list[int | None] = []
    for first in range(0, n, SOURCE_BLOCK):
        sources = np.arange(first, min(first + SOURCE_BLOCK, n))
        ecc += _accumulate(sources, start, owner, nbr, eid, node_acc, edge_acc)
    return tuple(node_acc.tolist()), tuple(edge_acc.tolist()), tuple(ecc)


def _accumulate(sources: np.ndarray, start: np.ndarray, owner: np.ndarray, nbr: np.ndarray,
                eid: np.ndarray, node_acc: np.ndarray, edge_acc: np.ndarray) -> list[int | None]:
    """Add the Brandes sums of one block of sources into ``node_acc`` and
    ``edge_acc``; return each source's eccentricity.

    The graph is in CSR form: CSR slot k holds the entry of node ``owner[k]``
    for neighbour ``nbr[k]``, node v's entries are slots ``start[v]`` to
    ``start[v+1]`` in adjacency order, and ``eid[k]`` is the entry's edge.
    Per-source state is one flat array of ``len(sources) * n`` entries, row
    i for the i-th source, so one numpy call serves the whole block.

    BFS, one level at a time: a level's candidate pairs (v, w) come in
    (frontier position, adjacency) order, which is the order a FIFO queue
    visits them. The fresh pairs, those whose w has no distance yet, are
    exactly the level's shortest-path DAG pairs, so the candidates are
    filtered once. A new node's position in its level is its first
    occurrence among them, found with ``np.minimum.at``, which does not
    depend on the order it sees them in. Path counts are summed with
    ``np.bincount`` over the level positions of w; it adds its weights in
    input order, so each sigma[w] is the queue pass's sum from 0.0. A level
    is kept as each pair's row and CSR slot, in sweep order: sorted by
    descending level position of w, the queue pass's reversed order. The sort
    keys are the smallest unsigned type that holds them, so
    ``argsort(kind="stable")`` is numpy's radix sort, which keeps equal keys
    in input order. The sweep goes from the deepest level up, and
    ``bincount`` over the level positions of v sums each level's terms into
    delta; every v gets all of its terms from one level, starting from 0.0.
    Both sums touch only the level's pairs, not every entry of the block.
    Edge sums are shared by every source, so their terms are applied with
    ``np.add.at`` after the sweep, sorted stably by row, that is by source.
    Node sums add one row per source, in source order, with the source's own
    entry zeroed.
    """
    b, n = len(sources), len(node_acc)
    size = b * n
    roots = np.arange(b) * n + sources
    dist = np.full(size, -1, dtype=np.intp)
    dist[roots] = 0
    sigma = np.zeros(size)
    sigma[roots] = 1.0
    pos = np.zeros(size, dtype=np.intp)  # discovery order within the node's level
    pos[roots] = np.arange(b)
    first_seen = np.full(size, np.iinfo(np.intp).max, dtype=np.intp)
    row_type = np.min_scalar_type(b)
    levels = []
    frontier, fnode = roots, sources  # flat index and node id of each frontier entry
    depth = 0
    while frontier.size:
        depth += 1
        first = start[fnode]
        deg = start[fnode + 1] - first
        ends = deg.cumsum()
        k = np.arange(ends[-1]) + (first - ends + deg).repeat(deg)
        base = (frontier - fnode).repeat(deg)  # row * n
        w = base + nbr[k]
        fresh = (dist[w] < 0).nonzero()[0]
        if not fresh.size:  # every candidate reached: this frontier is the last level
            break
        k, base, w = k[fresh], base[fresh], w[fresh]
        idx = np.arange(w.size)
        np.minimum.at(first_seen, w, idx)
        new = (first_seen[w] == idx).nonzero()[0]
        frontier, fnode = w[new], nbr[k[new]]
        dist[frontier] = depth
        pos[frontier] = idx[:new.size]
        at = pos[w]
        sigma[frontier] = np.bincount(at, weights=sigma[base + owner[k]])
        order = (new.size - at).astype(np.min_scalar_type(new.size)).argsort(kind="stable")
        levels.append(((base[order] // n).astype(row_type), k[order].astype(np.int32)))

    delta = np.zeros(size)
    coeffs = []
    for row, k in reversed(levels):
        base = row.astype(np.intp) * n
        v, w = base + owner[k], base + nbr[k]
        c = sigma[v] * ((1.0 + delta[w]) / sigma[w])
        at = pos[v]
        delta[v] = np.bincount(at, weights=c)[at]
        coeffs.append(c)
    if levels:  # a block of isolated sources has none
        row, k = (np.concatenate(parts[::-1]) for parts in zip(*levels))
        by_source = row.argsort(kind="stable")
        np.add.at(edge_acc, eid[k[by_source]], np.concatenate(coeffs)[by_source])
    delta[roots] = 0.0
    for dependencies in delta.reshape(b, n):
        node_acc += dependencies
    dist = dist.reshape(b, n)
    return [int(d) if r else None for d, r in zip(dist.max(axis=1), (dist >= 0).all(axis=1))]


def betweenness_centrality(t: Topology) -> dict[str, float]:
    """Shortest-path betweenness of every node, normalized to [0, 1]."""
    n = len(t.nodes)
    nodes, node_acc = _graph(t)[0], _shortest_paths(t)[0]
    pairs = (n - 1) * (n - 2) / 2.0
    if pairs <= 0:
        return {v: 0.0 for v in nodes}
    return {v: acc / 2.0 / pairs for v, acc in zip(nodes, node_acc)}


def edge_betweenness(t: Topology) -> dict[tuple[str, str], float]:
    """Shortest-path betweenness of every edge, normalized to [0, 1]."""
    n = len(t.nodes)
    edges, edge_acc = _graph(t)[1], _shortest_paths(t)[1]
    pairs = n * (n - 1) / 2.0
    return {e: acc / 2.0 / pairs for e, acc in zip(edges, edge_acc)}


def eccentricity_centrality(t: Topology) -> dict[str, int]:
    """Eccentricity in hops per node; ValueError if some pair is unreachable."""
    nodes, ecc = _graph(t)[0], _shortest_paths(t)[2]
    for v, e in zip(nodes, ecc):
        if e is None:
            raise ValueError(f"eccentricity undefined: node {clip(v)} cannot reach every node")
    return dict(zip(nodes, ecc))


def eigenvector_centrality(t: Topology) -> dict[str, float]:
    """Dominant-eigenvector scores via power iteration, unit Euclidean norm.

    The result x satisfies ``max|A x - lambda x| <= 10 * EIGENVECTOR_TOL``
    with lambda the Rayleigh quotient. Raises PowerIterationError if that
    residual bound is not reached within ``EIGENVECTOR_MAX_ITER`` iterations.
    """
    nodes, _, _, owner, nbr, _ = _graph(t)
    n = len(nodes)
    if not n:
        return {}
    # Iterate on b = A + I: the shift leaves eigenvectors unchanged but
    # guarantees convergence on bipartite graphs (trees), where the raw
    # adjacency spectrum is symmetric and plain power iteration oscillates.
    # The residual is A's too, since (A + I) x - (lambda + 1) x = A x - lambda x.
    b = np.zeros((n, n))
    b[owner, nbr] = 1.0
    b.flat[:: n + 1] += 1.0
    x = np.full(n, 1.0 / np.sqrt(n))
    residual = np.inf
    for _ in range(EIGENVECTOR_MAX_ITER):
        y = b @ x
        # np.linalg.norm of a 1-D float vector is sqrt(y.dot(y)): the same
        # floats, without its Python wrapper.
        y /= math.sqrt(y.dot(y))
        diff = float(np.abs(y - x).max())
        x = y
        if diff < EIGENVECTOR_TOL:
            bx = b @ x
            lam = float(x @ bx)
            residual = float(np.max(np.abs(bx - lam * x)))
            if residual <= 10.0 * EIGENVECTOR_TOL:
                return dict(zip(nodes, x.tolist()))
    raise PowerIterationError(EIGENVECTOR_MAX_ITER, residual)


class Direction(Enum):
    HIGHER_IS_CRITICAL = "higher"
    LOWER_IS_CRITICAL = "lower"


@dataclass(frozen=True)
class RankCluster:
    """One tie cluster of a ranking: its members in natural order and the
    value of its representative."""

    members: tuple
    value: float


# Default tolerance within which values rank as one tie cluster.
TIE_EPSILON = 1e-9


def rank_with_ties(
    values: Mapping[Hashable, float],
    direction: Direction = Direction.HIGHER_IS_CRITICAL,
    tie_epsilon: float = TIE_EPSILON,
    subset: Iterable[Hashable] | None = None,
) -> tuple[RankCluster, ...]:
    """Sort by criticality and group values within ``tie_epsilon`` of each
    cluster's representative (its first, most extreme member).

    Returns the clusters most critical first, so a cluster's rank is its
    position plus one. Each cluster's members are sorted by
    ``natural_key(str(member))``; this is the one place that orders them,
    so every report and statistic built on a ranking sees the same order.

    ``subset`` restricts the ranking, e.g. to router nodes only. Raises
    ValueError unless ``tie_epsilon`` is finite and >= 0.
    """
    if not (math.isfinite(tie_epsilon) and tie_epsilon >= 0):
        raise ValueError("tie_epsilon must be finite and >= 0")
    keys = list(values if subset is None else subset)
    missing = [k for k in keys if k not in values]
    if missing:
        raise ValueError(f"subset ids not present in values: {clip(str(missing))}")
    items = [(k, float(values[k])) for k in keys]
    if not items:
        raise ValueError("nothing to rank")

    descending = direction is Direction.HIGHER_IS_CRITICAL
    items.sort(key=lambda kv: ((-kv[1] if descending else kv[1]), str(kv[0])))

    groups = [([items[0][0]], items[0][1])]
    for key, val in items[1:]:
        if abs(val - groups[-1][1]) <= tie_epsilon:
            groups[-1][0].append(key)
        else:
            groups.append(([key], val))
    return tuple(RankCluster(tuple(sorted(members, key=lambda m: natural_key(str(m))))
                             if len(members) > 1 else (members[0],), rep)
                 for members, rep in groups)


def all_members(ranking: Iterable[RankCluster]) -> frozenset:
    """Every member of a ranking's clusters."""
    return frozenset(m for cluster in ranking for m in cluster.members)
