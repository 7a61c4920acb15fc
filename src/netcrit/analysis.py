"""Delay-based criticality rankings and their comparison to metric rankings.

Routers directly linked to the sink are left out of delay rankings: their
delay mirrors the sink's and says nothing about the topology. The topology
alone fixes which routers those are (``Topology.sink_adjacent_routers``), so
a delay ranking is a plain ``rank_with_ties`` ranking over the rest: a tuple
of ``RankCluster``s, most critical first, members in natural order. Top-k
overlap is cluster-aware, so a tie cluster straddling position k contributes
fractionally rather than by arbitrary tie breaking.

A DoS sweep gives a second simulation-side answer: routers ranked by the
deliveries lost while each one is attacked, relative to the stable runs.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Iterable, Mapping, Sequence

from .metrics import TIE_EPSILON, Direction, RankCluster, all_members, rank_with_ties
from .simulator import RunRecord
from .topology import Topology, clip, natural_key

@dataclass(frozen=True)
class RankingComparison:
    """Agreement between one metric ranking and a delay ranking."""

    k: int
    overlap: float
    spearman: float
    metric_topk: tuple[str, ...]
    delay_topk: tuple[str, ...]


def _check_k(k: int, universe_size: int) -> None:
    if k < 1:
        raise ValueError("k must be >= 1")
    if k > universe_size:
        raise ValueError(f"k={k} larger than ranked universe ({universe_size} routers)")


def ranked_universe(t: Topology, k: int = 1) -> list[str]:
    """Routers a delay ranking of ``t`` covers, in declaration order: every
    router not linked to the sink.

    Raises ValueError if there are none, or fewer than ``k``. The universe
    depends only on the topology, so a campaign can check it before any run.
    """
    excluded = t.sink_adjacent_routers()
    universe = [router for router in t.router_ids if router not in excluded]
    if not universe:
        raise ValueError("every router is sink-adjacent; nothing to rank")
    _check_k(k, len(universe))
    return universe


def rank_by_delay(
    results: Sequence[RunRecord], t: Topology, tie_epsilon: float = TIE_EPSILON
) -> tuple[RankCluster, ...]:
    """Rank routers by final delay averaged across seeds, highest first.

    ``results`` are run records (``execute_manifest`` returns them) or full
    ``SimResult``s, which are records too; only the per-router summaries are
    read. All must come from the same topology ``t``. The ranking covers
    ``ranked_universe(t)``: sink-adjacent routers are left out.
    """
    if not results:
        raise ValueError("need at least one simulation result")
    expected = set(t.router_ids)
    for r in results:
        if r.topology_name != t.name:
            raise ValueError(
                f"result for topology '{clip(r.topology_name)}' does not match '{clip(t.name)}'"
            )
        got = set(r.routers)
        if got != expected:
            differences = [f"{label} {clip(', '.join(sorted(ids, key=natural_key)))}"
                           for label, ids in (("missing", expected - got), ("extra", got - expected))
                           if ids]
            raise ValueError(f"result for topology '{clip(t.name)}' does not match its "
                             f"routers: {'; '.join(differences)}")
    universe = ranked_universe(t)
    return rank_with_ties(mean_final_delays(results, universe),
                          Direction.HIGHER_IS_CRITICAL, tie_epsilon)


def _mean(xs: list) -> float:
    """``statistics.fmean(xs)`` to the bit (CPython's is ``fsum / len``),
    without importing ``statistics`` and the ``decimal`` it loads."""
    return math.fsum(xs) / len(xs)


def mean_final_delays(runs: Sequence[RunRecord], routers: Iterable[str]) -> dict[str, float]:
    """Final delay of each router, averaged over the runs (one per seed).

    ``runs`` are run records or full ``SimResult``s.
    """
    return {router: _mean([res.routers[router].final_delay for res in runs]) for router in routers}


@dataclass(frozen=True)
class OutageImpact:
    """Damage done by a DoS on one router, averaged over seeds.

    ``delivery_loss_pct`` is relative to the stable runs' mean delivery
    count; ``survivor_delay_shift_s`` is the mean change of final delay over
    the other routers, and 0.0 when there are none (a one-router network),
    as the simulator reports 0.0 delay for a router that forwarded nothing.
    """

    router_id: str
    delivered: float
    delivery_loss_pct: float
    survivor_delay_shift_s: float


def stable_delivered(baseline: Sequence[RunRecord]) -> float:
    """Mean delivery count of the stable runs ``baseline``, which a DoS
    sweep's delivery loss is relative to.

    Raises ValueError if it is 0, where that loss is undefined; ``cmd_sweep``
    checks it before any DoS run.
    """
    if delivered := _mean([r.delivered_to_sink for r in baseline]):
        return delivered
    raise ValueError("stable baseline delivered no packets, so delivery loss is "
                     "undefined; run longer (--duration)")


def outage_impacts(
    results: Mapping[str, Sequence[RunRecord]], t: Topology
) -> tuple[float, list[OutageImpact]]:
    """Rank the routers of ``t`` by the delivery loss their DoS causes, worst first.

    ``results`` maps "stable" and "dos:<router>" for every router to its
    runs, as run records (``execute_manifest``'s result) or full
    ``SimResult``s; only delivery counts and final delays are read. Returns
    the stable mean delivery count (``stable_delivered``, which raises
    ValueError if it is 0) and the impacts; ties keep router declaration
    order.
    """
    baseline = results["stable"]
    base_delivered = stable_delivered(baseline)
    base_delay = mean_final_delays(baseline, t.router_ids)
    impacts = []
    for router in t.router_ids:
        runs = results[f"dos:{router}"]
        delivered = _mean([r.delivered_to_sink for r in runs])
        survivors = [x for x in t.router_ids if x != router]
        delay = mean_final_delays(runs, survivors)
        impacts.append(OutageImpact(
            router_id=router,
            delivered=delivered,
            delivery_loss_pct=100.0 * (base_delivered - delivered) / base_delivered,
            survivor_delay_shift_s=_mean([delay[x] - base_delay[x] for x in survivors] or [0.0]),
        ))
    impacts.sort(key=lambda impact: -impact.delivery_loss_pct)
    return base_delivered, impacts


def _positions(ranking: Sequence[RankCluster]):
    """Each cluster with its position: the number of members ranked above it."""
    position = 0
    for cluster in ranking:
        yield position, cluster
        position += len(cluster.members)


def midranks(ranking: Sequence[RankCluster]) -> dict:
    """Mid-rank position of every member (ties share the average position)."""
    return {member: position + (len(cluster.members) + 1) / 2.0
            for position, cluster in _positions(ranking) for member in cluster.members}


def topk_weights(ranking: Sequence[RankCluster], k: int) -> dict:
    """Fractional top-k membership: full clusters above k count 1 per member;
    a cluster straddling position k contributes (k - position)/size per member."""
    return {member: min(1.0, max(0.0, (k - position) / len(cluster.members)))
            for position, cluster in _positions(ranking) for member in cluster.members}


def topk_members(ranking: Sequence[RankCluster], k: int) -> tuple:
    """Members of all clusters intersecting the top k, in rank order."""
    return tuple(member for position, cluster in _positions(ranking) if position < k
                 for member in cluster.members)


def overlap_at_k(a: Sequence[RankCluster], b: Sequence[RankCluster], k: int) -> float:
    """Cluster-aware |top-k(a) and top-k(b)| / k; symmetric in a and b.

    The terms are added in ``a``'s order (rank, then natural order within a
    cluster), never in set order, so the float does not depend on the string
    hash seed. Swapping a and b can change its last bit.
    """
    wa = topk_weights(a, k)
    wb = topk_weights(b, k)
    return sum(min(wa[m], wb.get(m, 0.0)) for m in wa) / k


def spearman_from_clusters(a: Sequence[RankCluster], b: Sequence[RankCluster]) -> float:
    """Spearman rank correlation using mid-ranks for ties.

    Returns 0.0 when either ranking has no rank variation (a single tie
    cluster), where the correlation is undefined.
    """
    ra = midranks(a)
    rb = midranks(b)
    members = sorted(ra, key=lambda x: natural_key(str(x)))
    xs = [ra[m] for m in members]
    ys = [rb[m] for m in members]
    n = len(members)
    mx = sum(xs) / n
    my = sum(ys) / n
    sxx = sum((x - mx) ** 2 for x in xs)
    syy = sum((y - my) ** 2 for y in ys)
    if sxx == 0.0 or syy == 0.0:
        return 0.0
    sxy = sum((x - mx) * (y - my) for x, y in zip(xs, ys))
    return sxy / math.sqrt(sxx * syy)


def compare_rankings(
    metric_ranks: Sequence[RankCluster], delay_ranks: Sequence[RankCluster], k: int
) -> RankingComparison:
    """Overlap@k and Spearman between a metric ranking and a delay ranking.

    Both rankings must cover the same router universe, such as
    ``ranked_universe(t)``, which leaves out the sink-adjacent routers.
    """
    universe = all_members(delay_ranks)
    if all_members(metric_ranks) != universe:
        raise ValueError(
            "rankings cover different universes: "
            f"{clip(str(sorted(all_members(metric_ranks), key=str)))} "
            f"vs {clip(str(sorted(universe, key=str)))}"
        )
    _check_k(k, len(universe))
    return RankingComparison(
        k=k,
        overlap=overlap_at_k(metric_ranks, delay_ranks, k),
        spearman=spearman_from_clusters(metric_ranks, delay_ranks),
        metric_topk=topk_members(metric_ranks, k),
        delay_topk=topk_members(delay_ranks, k),
    )
