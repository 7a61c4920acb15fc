"""Independent brute-force oracles for validating the fast implementations.

Betweenness is recomputed by explicitly enumerating every shortest path
(BFS layering plus backtracking) and counting memberships; eccentricity by
Floyd-Warshall; the eigenvector by a dense symmetric eigendecomposition;
each router's packet arrival rate by a dense linear solve of the open
queueing network the simulator's random walk forms; each generator's packet
count and sizes by replaying its random stream alone; each monitor tick's
running mean delays, and the service times a busy router starts, from a
run's event trace. These stay deliberately naive and separate from the
package code paths.

``reference_shortest_paths`` is the one exception: the plain queue-based
Brandes pass, one source at a time, that fixes the order of every float
addition. Both package passes must return exactly its sums.
"""

from __future__ import annotations

import itertools
import math
from collections import deque
from typing import NamedTuple

import numpy as np

from netcrit.rng import stream
from netcrit.simulator import MEAN_PACKET_SIZE, SimConfig
from netcrit.topology import NodeRole, Topology, edge_key


def all_shortest_paths(adj, s, t):
    """Every shortest s-t path as a list of node lists."""
    dist = {s: 0}
    preds = {v: [] for v in adj}
    queue = deque([s])
    while queue:
        v = queue.popleft()
        for w in adj[v]:
            if w not in dist:
                dist[w] = dist[v] + 1
                queue.append(w)
            if dist[w] == dist[v] + 1:
                preds[w].append(v)
    if t not in dist:
        return []
    paths = []

    def back(v, suffix):
        if v == s:
            paths.append([s] + suffix)
            return
        for p in preds[v]:
            back(p, [v] + suffix)

    back(t, [])
    return paths


def naive_betweenness(adj):
    nodes = list(adj)
    n = len(nodes)
    acc = dict.fromkeys(nodes, 0.0)
    for s, t in itertools.combinations(nodes, 2):
        paths = all_shortest_paths(adj, s, t)
        if not paths:
            continue
        sigma = len(paths)
        for path in paths:
            for v in path[1:-1]:
                acc[v] += 1.0 / sigma
    norm = (n - 1) * (n - 2) / 2.0
    return {v: a / norm for v, a in acc.items()}


def naive_edge_betweenness(adj):
    nodes = list(adj)
    n = len(nodes)
    acc = {}
    for v in nodes:
        for w in adj[v]:
            acc[edge_key(v, w)] = 0.0
    for s, t in itertools.combinations(nodes, 2):
        paths = all_shortest_paths(adj, s, t)
        if not paths:
            continue
        sigma = len(paths)
        for path in paths:
            for a, b in zip(path, path[1:]):
                acc[edge_key(a, b)] += 1.0 / sigma
    norm = n * (n - 1) / 2.0
    return {e: a / norm for e, a in acc.items()}


def floyd_warshall_eccentricity(adj):
    """Max distance per node via Floyd-Warshall; None if any pair unreachable."""
    nodes = list(adj)
    n = len(nodes)
    idx = {v: i for i, v in enumerate(nodes)}
    inf = float("inf")
    d = [[0.0 if i == j else inf for j in range(n)] for i in range(n)]
    for v in nodes:
        for w in adj[v]:
            d[idx[v]][idx[w]] = 1.0
    for k in range(n):
        dk = d[k]
        for i in range(n):
            dik = d[i][k]
            if dik == inf:
                continue
            di = d[i]
            for j in range(n):
                alt = dik + dk[j]
                if alt < di[j]:
                    di[j] = alt
    if any(inf in row for row in d):
        return None
    return {v: int(max(d[idx[v]])) for v in nodes}


def dense_dominant_eigenvector(adj):
    """Perron vector from numpy's dense symmetric eigendecomposition."""
    nodes = list(adj)
    idx = {v: i for i, v in enumerate(nodes)}
    n = len(nodes)
    a = np.zeros((n, n))
    for v in nodes:
        for w in adj[v]:
            a[idx[v], idx[w]] = 1.0
    _, vecs = np.linalg.eigh(a)
    x = vecs[:, -1]
    if x.sum() < 0:
        x = -x
    x = np.abs(x)  # connected graph: entries share one sign, strip roundoff
    x /= np.linalg.norm(x)
    return {v: float(x[idx[v]]) for v in nodes}


def reference_shortest_paths(t: Topology):
    """Brandes' accumulation over every source in pure Python, one BFS each.

    Returns five tuples: node ids, node sums, edge keys, edge sums (over
    ordered pairs) and each node's eccentricity, or None when its BFS does
    not reach every node. ``netcrit.metrics._graph`` must give the ids and
    keys, and ``netcrit.metrics._shortest_paths`` the other three.
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


def jackson_arrival_rates(t: Topology, mean_interarrival: float) -> dict[str, float]:
    """Total packet arrival rate of every router, from the traffic equations
    of the open queueing network that the no-backtrack walk forms.

    A state is (router, arrival link), the link None for a packet its
    generator injected; they come from ``t.adjacency`` and the node roles
    alone. From state (r, a) a packet moves, with equal probability, to
    each router or sink adjacent to r other than a, or back to a when that
    leaves nothing; the sink absorbs it. Each generator emits 1 /
    ``mean_interarrival`` packets per second, split evenly over its
    routers. Solves (I - P^T) x = lambda0 and sums x over each router's
    states. With exponential service at rate mu and no router saturated,
    the network has product form, so router i's mean sojourn is
    1 / (mu - rate_i).
    """
    roles, adj = t.roles, t.adjacency
    forwards = {v: [w for w in adj[v] if roles[w] is not NodeRole.GENERATOR]
                for v in adj if roles[v] is NodeRole.ROUTER}
    states = [(r, a) for r, ws in forwards.items()
              for a in (None, *(w for w in ws if w in forwards))]
    index = {state: i for i, state in enumerate(states)}
    p = np.zeros((len(states), len(states)))
    for (r, a), i in index.items():
        nxt = [w for w in forwards[r] if w != a] or [a]
        for w in nxt:
            if w in forwards:
                p[i, index[(w, r)]] += 1.0 / len(nxt)
    lambda0 = np.zeros(len(states))
    for g in adj:
        if roles[g] is NodeRole.GENERATOR:
            for r in adj[g]:
                lambda0[index[(r, None)]] += 1.0 / mean_interarrival / len(adj[g])
    x = np.linalg.solve(np.eye(len(states)) - p.T, lambda0)
    rates = dict.fromkeys(forwards, 0.0)
    for (r, _), rate in zip(states, x):
        rates[r] += float(rate)
    return rates


class GeneratorReplay(NamedTuple):
    """One generator's packets up to the run's duration, from its stream alone."""

    generated: int
    size_total: float
    gaps: list[float]  # every inter-arrival gap drawn, the last one past the end


def replay_generators(t: Topology, config: SimConfig) -> dict[str, GeneratorReplay]:
    """Redraw every generator's stream as the traffic model specifies.

    A generator's stream is ``stream(config.seed, "generator", g)``. It
    first draws a gap; then, for each packet due at or before
    ``config.duration``, a size, redrawn until it is positive, a uniform
    that picks the router when the generator has two or more links (read
    from ``t.adjacency``), and the next gap. Each draw is the inverse CDF
    -mean * log1p(-u) of one uniform u. Nothing here runs the simulator,
    so its packet count and size sum check the run's.
    """
    replays = {}
    for g, role in t.nodes:
        if role is not NodeRole.GENERATOR:
            continue
        draw = stream(config.seed, "generator", g)
        gaps = [-config.mean_interarrival * math.log1p(-draw())]
        due, generated, size_total = gaps[0], 0, 0.0
        while due <= config.duration:
            size = 0.0
            while size <= 0.0:
                size = -MEAN_PACKET_SIZE * math.log1p(-draw())
            size_total += size
            if len(t.adjacency[g]) >= 2:
                draw()
            generated += 1
            gaps.append(-config.mean_interarrival * math.log1p(-draw()))
            due += gaps[-1]
        replays[g] = GeneratorReplay(generated, size_total, gaps)
    return replays


def replay_tick_delays(t: Topology, config: SimConfig,
                       trace) -> tuple[list[float], dict[str, list[float]]]:
    """Rebuild the monitor's tick times and every tick's running mean delay
    per router from a run's ``on_event`` trace of (kind, time, router, packet).

    Ticks fall every ``config.monitor_interval`` up to ``config.duration``.
    A packet's sojourn at a router is its ``forward`` time minus its
    ``arrive`` time there; a ``drop_ttl`` adds none. A tick at T counts only
    the forwards strictly before T, since the tick goes first on a tie. The
    mean is the sojourn sum over the forward count, 0.0 before the first.
    """
    times = []
    now = config.monitor_interval
    while now <= config.duration:
        times.append(now)
        now += config.monitor_interval
    routers = t.router_ids
    arrived = {}
    sojourn = dict.fromkeys(routers, 0.0)
    forwarded = dict.fromkeys(routers, 0)
    delays = {r: [] for r in routers}
    i = 0
    for tick in times:
        while i < len(trace) and trace[i][1] < tick:
            kind, at, router, pid = trace[i]
            i += 1
            if kind == "arrive":
                arrived[router, pid] = at
            elif kind == "forward":
                sojourn[router] += at - arrived.pop((router, pid))
                forwarded[router] += 1
            elif kind == "drop_ttl":
                del arrived[router, pid]
        for r in routers:
            delays[r].append(sojourn[r] / forwarded[r] if forwarded[r] else 0.0)
    return times, delays


def busy_services(trace, router: str) -> list[float]:
    """The service times ``router`` started at a completion, from a run's
    ``on_event`` trace of (kind, time, router, packet).

    The server is FIFO, and a completion is a ``forward`` or a ``drop_ttl``.
    When packet b completes at t2 right after packet a completed at t1, and
    b arrived strictly before t1, b was queued behind a, so its service
    began at t1 and lasted t2 - t1. A packet that arrived at an idle server
    began on arrival and is skipped. Whether b was queued is settled before
    its service is drawn, so the selected times keep the drawn mean.
    """
    arrived = {}
    last = None
    services = []
    for kind, at, r, pid in trace:
        if r != router:
            continue
        if kind == "arrive":
            arrived[pid] = at
        elif kind in ("forward", "drop_ttl"):
            if last is not None and arrived[pid] < last:
                services.append(at - last)
            last = at
    return services
