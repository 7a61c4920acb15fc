import math
from collections import defaultdict
from statistics import fmean

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import topologies
from netcrit.rng import stream, substream_seed
from netcrit.simulator import (
    Scenario,
    SimConfig,
    SimulationLimitError,
    run,
    sample_exponential,
)
from netcrit.topology import Topology, builtin_case, build_routing_table, parse_topology


class FakeStream:
    """Deterministic uniform source for unit tests."""

    def __init__(self, values):
        self.values = list(values)

    def random(self):
        return self.values.pop(0)


def conserved(result) -> bool:
    return result.generated == (result.delivered_to_sink + result.dropped_by_attack
                                + result.dropped_by_ttl + result.in_flight_at_end)


class TestSampling:
    def test_inverse_cdf_at_zero(self):
        assert sample_exponential(FakeStream([0.0]), 2.0) == 0.0

    def test_inverse_cdf_at_half(self):
        assert sample_exponential(FakeStream([0.5]), 2.0) == pytest.approx(2 * math.log(2))

    def test_nonpositive_mean_rejected(self):
        with pytest.raises(ValueError):
            sample_exponential(FakeStream([0.5]), 0.0)

    def test_empirical_mean(self):
        s = stream(99, "exp-test")
        mean = 0.4545
        draws = [sample_exponential(s, mean) for _ in range(100_000)]
        assert fmean(draws) == pytest.approx(mean, rel=0.02)


class TestStreams:
    def test_scopes_are_independent(self):
        a = stream(7, "router", "1")
        b = stream(7, "router", "2")
        assert [a.random() for _ in range(4)] != [b.random() for _ in range(4)]

    def test_same_scope_reproduces(self):
        assert [stream(7, "x").random() for _ in range(5)] == [
            stream(7, "x").random() for _ in range(5)]

    def test_seed_validation(self):
        with pytest.raises(ValueError):
            substream_seed(-1, "x")
        with pytest.raises(ValueError):
            substream_seed(2**64, "x")


def next_hops(t: Topology, router: str, arrival_link: str | None) -> tuple[str, ...]:
    """Next-hop candidates by node id, read from the compiled forwarding table."""
    table = build_routing_table(t)
    names = table.routers + (t.sink_id,)
    r = names.index(router)
    a = -1 if arrival_link is None else names.index(arrival_link)
    return tuple(names[n] for n in table.hops[r][a])


class TestNextHop:
    def test_excludes_arrival_link(self):
        t = parse_topology(
            "node S sink\nnode r router\nnode a router\nnode b router\nnode c router\n"
            "node g generator\nedge S a\nedge r a\nedge r b\nedge r c\nedge g r\n"
            "edge a b\n", name="t")
        assert next_hops(t, "r", "b") == ("a", "c")

    def test_leaf_fallback_returns_arrival_link(self, mm1_topology):
        assert next_hops(mm1_topology, "R", "S") == ("S",)
        assert next_hops(builtin_case(2), "7", "3") == ("3",)

    def test_injected_packet_uses_all_candidates(self):
        assert next_hops(builtin_case(2), "1", None) == ("0", "3", "4")

    def test_unknown_router_rejected(self, mm1_topology):
        with pytest.raises(ValueError, match="unknown routers: nope"):
            run(mm1_topology, SimConfig(duration=1.0), Scenario.dos("nope"))

    def test_case2_router1_from_3_is_even_coin(self):
        # Router 1 forwards a packet that came from 3 either to the sink 0 or to
        # router 4. A forward to 4 is always followed by that packet's next
        # event at 4 (the arrival lands on the calendar at the same time); a
        # forward to the sink ends the packet's trace.
        trace = defaultdict(list)

        def on_event(kind, _t, router, pid):
            trace[pid].append((kind, router))

        run(builtin_case(2), SimConfig(duration=3000.0, seed=123), Scenario.stable(),
            on_event=on_event)
        decision = [("forward", "3"), ("arrive", "1"), ("forward", "1")]
        outcomes = []
        for events in trace.values():
            for i in range(2, len(events)):
                if events[i - 2:i + 1] == decision:
                    outcomes.append(events[i + 1][1] if i + 1 < len(events) else "0")
        n = len(outcomes)
        assert n > 2000
        assert set(outcomes) == {"0", "4"}
        hits = outcomes.count("0")
        # three-sigma binomial band around 0.5
        assert abs(hits / n - 0.5) <= 3 * math.sqrt(0.25 / n)


class TestScenario:
    def test_from_string_variants(self):
        assert Scenario.from_string("stable") == Scenario.stable()
        assert Scenario.from_string("dos:5").targets == ("5",)
        assert Scenario.from_string("ddos:2,6").targets == ("2", "6")
        assert Scenario.from_string("ddos:14,2").targets == ("2", "14")

    def test_labels_round_trip(self):
        for text in ("stable", "dos:5", "ddos:2,6"):
            assert Scenario.from_string(text).label == text

    @pytest.mark.parametrize("bad", ["dos:", "ddos:", "flood:3", "stable:1", "dos"])
    def test_bad_grammar_rejected(self, bad):
        with pytest.raises(ValueError):
            Scenario.from_string(bad)

    def test_probability_bounds(self):
        with pytest.raises(ValueError):
            Scenario.dos("5", attack_forwarding_probability=0.0)
        with pytest.raises(ValueError):
            Scenario.dos("5", attack_forwarding_probability=1.5)

    def test_run_flags_exact_targets(self):
        t = builtin_case(2)
        cfg = SimConfig(duration=5.0)
        for scenario, expected in ((Scenario.stable(), set()),
                                   (Scenario.ddos(["1", "3"]), {"1", "3"}),
                                   (Scenario.dos("2"), {"2"})):
            res = run(t, cfg, scenario)
            assert {r for r, s in res.routers.items() if s.attacked} == expected

    def test_run_rejects_unknown_target(self, mm1_topology):
        with pytest.raises(ValueError, match="unknown routers: G"):
            run(mm1_topology, SimConfig(duration=1.0), Scenario.dos("G"))


class TestConfig:
    def test_defaults_follow_parameter_table(self):
        cfg = SimConfig(duration=10.0)
        assert cfg.mean_packet_size == 100.0
        assert cfg.mean_interarrival == 2.0
        assert cfg.router_service_rate == 2.2
        assert cfg.monitor_interval == 0.5

    @pytest.mark.parametrize("kwargs", [
        {"duration": 0.0},
        {"duration": 10.0, "mean_interarrival": -1.0},
        {"duration": 10.0, "seed": -1},
        {"duration": 10.0, "ttl": -2},
        {"duration": 10.0, "event_cap": 0},
    ])
    def test_invalid_config_rejected(self, kwargs):
        with pytest.raises(ValueError):
            SimConfig(**kwargs)


class TestRun:
    def test_determinism_same_seed(self):
        t = builtin_case(3)
        cfg = SimConfig(duration=60.0, seed=7)
        assert run(t, cfg, Scenario.stable()) == run(t, cfg, Scenario.stable())

    def test_different_seeds_differ(self):
        t = builtin_case(3)
        r1 = run(t, SimConfig(duration=60.0, seed=1), Scenario.stable())
        r2 = run(t, SimConfig(duration=60.0, seed=2), Scenario.stable())
        assert r1 != r2

    def test_conservation_and_flags_case2(self):
        t = builtin_case(2)
        res = run(t, SimConfig(duration=200.0, seed=3), Scenario.ddos(["2", "6"]))
        assert conserved(res)
        assert {r for r, s in res.routers.items() if s.attacked} == {"2", "6"}
        assert {r for r, s in res.routers.items() if s.sink_adjacent} == {"1", "2"}
        assert res.dropped_by_attack > 0

    @given(topologies(), st.integers(0, 2**32), st.sampled_from(["stable", "dos", "ddos"]))
    @settings(max_examples=15, deadline=None)
    def test_conservation_random_topologies(self, t, seed, kind):
        if kind == "stable":
            scenario = Scenario.stable()
        elif kind == "dos":
            scenario = Scenario.dos(t.router_ids[0])
        else:
            scenario = Scenario.ddos(t.router_ids[: min(2, len(t.router_ids))])
        res = run(t, SimConfig(duration=30.0, seed=seed), scenario)
        assert conserved(res)

    def test_fifo_completion_order_matches_arrival_order(self):
        trace = defaultdict(lambda: {"arrive": [], "done": []})

        def on_event(kind, _t, router, pid):
            if kind == "arrive":
                trace[router]["arrive"].append(pid)
            elif kind in ("forward", "drop_ttl"):
                trace[router]["done"].append(pid)

        run(builtin_case(2), SimConfig(duration=120.0, seed=5), Scenario.stable(),
            on_event=on_event)
        assert trace
        for records in trace.values():
            done = records["done"]
            assert done == records["arrive"][: len(done)]

    def test_monitor_samples_run_on_schedule(self, mm1_topology):
        res = run(mm1_topology, SimConfig(duration=10.0, seed=1), Scenario.stable())
        times = [t for t, _ in res.samples["R"]]
        assert times == pytest.approx([0.5 * i for i in range(1, 21)])

    def test_exponential_sampling_mode(self, mm1_topology):
        cfg = SimConfig(duration=50.0, seed=1, exponential_sampling=True)
        res = run(mm1_topology, cfg, Scenario.stable())
        times = [t for t, _ in res.samples["R"]]
        assert len(times) > 10
        assert any(abs(t / 0.5 - round(t / 0.5)) > 1e-6 for t in times)

    def test_size_and_interarrival_calibration(self):
        res = run(builtin_case(2), SimConfig(duration=1500.0, seed=17), Scenario.stable())
        assert res.generated > 2000
        assert res.mean_packet_size_observed == pytest.approx(100.0, rel=0.05)
        assert res.mean_interarrival_observed == pytest.approx(2.0, rel=0.05)

    def test_interarrival_cap_truncates(self, mm1_topology):
        cfg = SimConfig(duration=300.0, seed=2, interarrival_cap=0.5)
        res = run(mm1_topology, cfg, Scenario.stable())
        assert res.mean_interarrival_observed <= 0.5

    def test_ttl_budget(self):
        text = ("node S sink\nnode R1 router\nnode R2 router\nnode G generator\n"
                "edge G R1\nedge R1 R2\nedge R2 S\n")
        t = parse_topology(text, name="line")
        short = run(t, SimConfig(duration=300.0, seed=4, ttl=1), Scenario.stable())
        assert short.delivered_to_sink == 0
        assert short.dropped_by_ttl > 0
        assert conserved(short)
        enough = run(t, SimConfig(duration=300.0, seed=4, ttl=2), Scenario.stable())
        assert enough.dropped_by_ttl == 0
        assert enough.delivered_to_sink > 0

    def test_event_cap_raises(self):
        with pytest.raises(SimulationLimitError):
            run(builtin_case(2), SimConfig(duration=100.0, seed=1, event_cap=50),
                Scenario.stable())

    def test_packet_sizes_positive_and_recorded(self, mm1_topology):
        res = run(mm1_topology, SimConfig(duration=100.0, seed=9), Scenario.stable())
        assert res.generated_size_total > 0
        assert res.mean_packet_size_observed > 0

    def test_monotone_load_response_case2(self):
        full = builtin_case(2)
        dropped = {"G11", "G12", "G13", "G14"}
        half = Topology(
            name=full.name,
            nodes=tuple((n, r) for n, r in full.nodes if n not in dropped),
            edges=tuple(e for e in full.edges if e[0] not in dropped and e[1] not in dropped),
        )
        seeds = range(1, 11)
        full_delay = fmean(
            fmean(s.final_delay for s in run(full, SimConfig(duration=400.0, seed=sd),
                                             Scenario.stable()).routers.values())
            for sd in seeds)
        half_delay = fmean(
            fmean(s.final_delay for s in run(half, SimConfig(duration=400.0, seed=sd),
                                             Scenario.stable()).routers.values())
            for sd in seeds)
        assert full_delay >= half_delay

    def test_dos_collapse_smoke(self):
        t = builtin_case(2)
        cfg = SimConfig(duration=800.0, seed=6)
        stable = run(t, cfg, Scenario.stable())
        attacked = run(t, cfg, Scenario.dos("3"))
        summary = attacked.routers["3"]
        drop_fraction = summary.dropped_attack / (summary.dropped_attack + summary.forwarded)
        assert drop_fraction >= 0.9
        assert summary.final_delay < stable.routers["3"].final_delay
