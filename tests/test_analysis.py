import dataclasses
import statistics
from array import array

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from netcrit.analysis import (
    _mean,
    compare_rankings,
    midranks,
    overlap_at_k,
    rank_by_delay,
    spearman_from_clusters,
    topk_members,
    topk_weights,
)
from netcrit.metrics import Direction, all_members, eigenvector_centrality, rank_with_ties
from netcrit.simulator import RouterSummary, SimResult
from netcrit.topology import builtin_case, parse_topology

HUB_TEXT = (
    "node S sink\nnode H router\n"
    "node 2 router\nnode 5 router\nnode 9 router\nnode 11 router\n"
    "node g2 generator\nnode g5 generator\nnode g9 generator\nnode g11 generator\n"
    "edge S H\nedge H 2\nedge H 5\nedge H 9\nedge H 11\n"
    "edge g2 2\nedge g5 5\nedge g9 9\nedge g11 11\n"
)


def fake_result(t, delays):
    routers = {
        r: RouterSummary(
            final_delay=float(delays.get(r, 0.0)),
            forwarded=100,
            dropped_attack=0,
            attacked=False,
            sink_adjacent=r in t.sink_adjacent_routers(),
        )
        for r in t.router_ids
    }
    return SimResult(
        topology_name=t.name,
        tick_times=array("d"), tick_delays={r: array("d") for r in t.router_ids},
        routers=routers,
        generated=0, delivered_to_sink=0, dropped_by_attack=0, dropped_by_ttl=0,
        in_flight_at_end=0, event_count=0,
    )


@pytest.fixture
def hub_topology():
    return parse_topology(HUB_TEXT, name="hub")


class TestRankByDelay:
    def test_top3_sorted(self, hub_topology):
        res = fake_result(hub_topology, {"2": 500, "5": 900, "11": 1200, "9": 1000})
        ranking = rank_by_delay([res], hub_topology)
        assert set(topk_members(ranking, 3)) == {"11", "9", "5"}
        assert all_members(ranking) == {"2", "5", "9", "11"}  # H is sink-adjacent

    def test_case2_sink_adjacent_excluded(self):
        t = builtin_case(2)
        res = fake_result(t, {r: float(i) for i, r in enumerate(t.router_ids)})
        ranking = rank_by_delay([res], t)
        assert t.sink_adjacent_routers() == {"1", "2"}
        assert all_members(ranking) == set(t.router_ids) - {"1", "2"}

    def test_mean_aggregation_across_seeds(self, hub_topology):
        a = fake_result(hub_topology, {"2": 10, "5": 0, "9": 0, "11": 0})
        b = fake_result(hub_topology, {"2": 30, "5": 4, "9": 0, "11": 0})
        ranking = rank_by_delay([a, b], hub_topology)
        top = ranking[0]
        assert top.members == ("2",)
        assert top.value == pytest.approx(20.0)

    @given(st.one_of(
        st.lists(st.floats(min_value=-1e300, max_value=1e300), min_size=1, max_size=50),
        st.lists(st.integers(min_value=-2**63, max_value=2**63), min_size=1, max_size=50)))
    def test_mean_is_fmean_to_the_bit(self, xs):
        # delay_by_scenario.csv and attack_sweep.csv print these means with repr.
        assert _mean(xs).hex() == statistics.fmean(xs).hex()

    def test_empty_results_rejected(self, hub_topology):
        with pytest.raises(ValueError, match="at least one"):
            rank_by_delay([], hub_topology)

    def test_mismatched_topology_rejected(self, hub_topology):
        other = builtin_case(3)
        res = fake_result(other, {})
        with pytest.raises(ValueError, match="does not match"):
            rank_by_delay([res], hub_topology)

    @pytest.mark.parametrize("drop, add, message", [
        (["10"], [], "result for topology 'case3' does not match its routers: missing 10"),
        ([], ["99"], "result for topology 'case3' does not match its routers: extra 99"),
        (["2", "14"], ["30", "4"],
         "result for topology 'case3' does not match its routers: missing 2, 14; extra 4, 30"),
    ], ids=["missing", "extra", "both"])
    def test_mismatched_routers_named(self, drop, add, message):
        t = builtin_case(3)
        res = fake_result(t, {})
        routers = {r: s for r, s in res.routers.items() if r not in drop}
        routers.update((r, res.routers["1"]) for r in add)
        with pytest.raises(ValueError) as err:
            rank_by_delay([dataclasses.replace(res, routers=routers)], t)
        assert str(err.value) == message

    def test_mismatched_routers_message_is_cut(self):
        t = builtin_case(3)
        res = fake_result(t, {})
        routers = {**res.routers, **{f"x{i}": res.routers["1"] for i in range(3000)}}
        with pytest.raises(ValueError, match="extra x0, x1, ") as err:
            rank_by_delay([dataclasses.replace(res, routers=routers)], t)
        assert len(str(err.value)) <= 200


class TestCompare:
    def test_identical_rankings(self, hub_topology):
        delays = {"2": 500, "5": 900, "9": 1000, "11": 1200}
        ranking = rank_by_delay([fake_result(hub_topology, delays)], hub_topology)
        metric = rank_with_ties(delays, subset=["2", "5", "9", "11"])
        cmp = compare_rankings(metric, ranking, k=3)
        assert cmp.overlap == pytest.approx(1.0)
        assert cmp.spearman == pytest.approx(1.0)

    def test_reversed_rankings_spearman_minus_one(self, hub_topology):
        delays = {"2": 1.0, "5": 2.0, "9": 3.0, "11": 4.0}
        ranking = rank_by_delay([fake_result(hub_topology, delays)], hub_topology)
        reversed_values = {"2": 4.0, "5": 3.0, "9": 2.0, "11": 1.0}
        metric = rank_with_ties(reversed_values, subset=["2", "5", "9", "11"])
        cmp = compare_rankings(metric, ranking, k=2)
        assert cmp.spearman == pytest.approx(-1.0)

    def test_fractional_straddling_cluster(self):
        tied = rank_with_ties({"a": 1.0, "b": 1.0})
        split = rank_with_ties({"a": 2.0, "b": 1.0})
        assert topk_weights(tied, 1) == {"a": 0.5, "b": 0.5}
        assert overlap_at_k(tied, split, 1) == pytest.approx(0.5)

    def test_overlap_sums_in_natural_order(self):
        # Both rankings hold a tie cluster straddling k = 2. The terms are
        # 1/3, 1/3, 1/3 and 1/2, whose float sum depends on their order: the
        # natural order (2, 6, 10, 14) gives 1.5, while 14 first gives
        # 1.4999999999999998.
        tied = rank_with_ties({"14": 1.0, "10": 1.0, "6": 1.0, "2": 1.0})
        split = rank_with_ties({"14": 2.0, "10": 1.0, "6": 1.0, "2": 1.0})
        assert [c.members for c in split] == [("14",), ("2", "6", "10")]
        wa, wb = topk_weights(tied, 2), topk_weights(split, 2)
        natural = sum(min(wa[m], wb[m]) for m in ("2", "6", "10", "14"))
        assert overlap_at_k(tied, split, 2) == natural / 2 == 0.75

    def test_case3_eigenvector_vs_delay_on_ring(self):
        t = builtin_case(3)
        universe = ["2", "6", "10", "14"]  # router 1 is sink-adjacent
        metric = rank_with_ties(eigenvector_centrality(t), subset=universe)
        delays = {"6": 10.0, "10": 9.0, "2": 1.0, "14": 0.5}
        ranking = rank_by_delay([fake_result(t, delays)], t)
        cmp = compare_rankings(metric, ranking, k=2)
        assert cmp.overlap == pytest.approx(1.0)
        assert set(cmp.metric_topk) == {"6", "10"}

    def test_k_out_of_range(self, hub_topology):
        delays = {"2": 1.0, "5": 2.0, "9": 3.0, "11": 4.0}
        ranking = rank_by_delay([fake_result(hub_topology, delays)], hub_topology)
        metric = rank_with_ties(delays, subset=["2", "5", "9", "11"])
        with pytest.raises(ValueError, match="larger than ranked universe"):
            compare_rankings(metric, ranking, k=5)
        with pytest.raises(ValueError, match=">= 1"):
            compare_rankings(metric, ranking, k=0)

    def test_universe_mismatch_rejected(self, hub_topology):
        delays = {"2": 1.0, "5": 2.0, "9": 3.0, "11": 4.0}
        ranking = rank_by_delay([fake_result(hub_topology, delays)], hub_topology)
        metric = rank_with_ties({"2": 1.0, "5": 2.0}, subset=["2", "5"])
        with pytest.raises(ValueError, match="different universes"):
            compare_rankings(metric, ranking, k=1)

    def test_universe_mismatch_message_is_cut(self, hub_topology):
        delays = {"2": 1.0, "5": 2.0, "9": 3.0, "11": 4.0}
        ranking = rank_by_delay([fake_result(hub_topology, delays)], hub_topology)
        with pytest.raises(ValueError) as short:
            compare_rankings(rank_with_ties({"2": 1.0, "5": 2.0}), ranking, k=1)
        assert str(short.value) == ("rankings cover different universes: "
                                    "['2', '5'] vs ['11', '2', '5', '9']")
        many = {f"r{i}": float(i) for i in range(3000)}
        with pytest.raises(ValueError) as long:
            compare_rankings(rank_with_ties(many), rank_with_ties({**many, "x": 0.0}), k=1)
        assert len(str(long.value)) <= 200

    def test_excluded_never_in_topk(self, hub_topology):
        delays = {"2": 5.0, "5": 4.0, "9": 3.0, "11": 2.0}
        ranking = rank_by_delay([fake_result(hub_topology, delays)], hub_topology)
        for k in (1, 2, 3, 4):
            assert "H" not in topk_members(ranking, k)


class TestRankStatistics:
    def test_midranks_with_ties(self):
        rc = rank_with_ties({"a": 3.0, "b": 3.0, "c": 1.0})
        assert midranks(rc) == {"a": 1.5, "b": 1.5, "c": 3.0}

    def test_spearman_self_is_one(self):
        rc = rank_with_ties({"a": 3.0, "b": 2.0, "c": 1.0})
        assert spearman_from_clusters(rc, rc) == pytest.approx(1.0)

    def test_spearman_degenerate_is_zero(self):
        flat = rank_with_ties({"a": 1.0, "b": 1.0})
        other = rank_with_ties({"a": 2.0, "b": 1.0})
        assert spearman_from_clusters(flat, other) == 0.0

    @given(
        st.lists(st.floats(0, 100), min_size=2, max_size=8, unique=True),
        st.lists(st.floats(0, 100), min_size=8, max_size=8),
        st.integers(1, 8),
    )
    @settings(max_examples=60)
    def test_overlap_symmetric_bounded_and_relabeling_invariant(self, values_a, values_b, k):
        keys = [f"r{i}" for i in range(len(values_a))]
        a = rank_with_ties(dict(zip(keys, values_a)))
        b = rank_with_ties(dict(zip(keys, values_b[: len(keys)])))
        k = min(k, len(keys))
        forward = overlap_at_k(a, b, k)
        backward = overlap_at_k(b, a, k)
        assert forward == pytest.approx(backward)
        assert 0.0 <= forward <= 1.0 + 1e-12
        renamed = {key: f"x{key}" for key in keys}
        a2 = rank_with_ties({renamed[key]: v for key, v in zip(keys, values_a)})
        b2 = rank_with_ties({renamed[key]: v for key, v in zip(keys, values_b[: len(keys)])})
        assert overlap_at_k(a2, b2, k) == pytest.approx(forward)
