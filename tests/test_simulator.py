import gc
import math
import random
import re
import string
import tracemalloc
from collections import defaultdict
from statistics import fmean

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import oracles
from conftest import make_random_topology, scenarios, topologies
from netcrit import simulator
from netcrit.rng import _CHUNK, stream, substream_seed
from netcrit.simulator import (
    MAX_MONITOR_SAMPLES,
    Scenario,
    SimConfig,
    SimulationLimitError,
    check_run_inputs,
    run,
)
from netcrit.topology import Topology, builtin_case, build_routing_table, parse_topology


def conserved(result) -> bool:
    return result.generated == (result.delivered_to_sink + result.dropped_by_attack
                                + result.dropped_by_ttl + result.in_flight_at_end)


class TestStreams:
    def test_scopes_are_independent(self):
        a = stream(7, "router", "1")
        b = stream(7, "router", "2")
        assert [a() for _ in range(4)] != [b() for _ in range(4)]

    def test_same_scope_reproduces(self):
        assert [stream(7, "x")() for _ in range(5)] == [
            stream(7, "x")() for _ in range(5)]

    def test_draws_across_chunk_boundaries(self):
        n = 3 * _CHUNK + 5
        s = stream(42, "router", "7")
        expected = np.random.Generator(
            np.random.PCG64(substream_seed(42, "router", "7"))).random(n).tolist()
        draws = [s() for _ in range(n)]
        assert draws == expected
        # A numpy scalar would print as np.float64(...) and change CSV bytes.
        assert all(type(x) is float for x in draws)

    def test_stream_memory_budget(self):
        # Each stream holds one chunk's 2 KB float64 buffer, not 256 float objects.
        stream(1, "warm-up")()  # imports hashlib and numpy.random's modules
        gc.collect()
        tracemalloc.start()
        try:
            before = tracemalloc.get_traced_memory()[0]
            streams = [stream(1, "router", str(i)) for i in range(25)]
            for s in streams:
                s()
            gc.collect()
            held = tracemalloc.get_traced_memory()[0] - before
        finally:
            tracemalloc.stop()
        assert held <= 25 * 5_000

    def test_interleaved_streams_do_not_interfere(self):
        n = 2 * _CHUNK + 3
        a, b = stream(5, "a"), stream(5, "b")
        alone_a = [a() for _ in range(n)]
        alone_b = [b() for _ in range(n)]
        a, b = stream(5, "a"), stream(5, "b")
        mixed_a, mixed_b = [], []
        for i in range(n):  # b draws at half a's pace, so their refills fall apart
            mixed_a.append(a())
            if i % 2:
                mixed_b.append(b())
        mixed_b += [b() for _ in range(n - len(mixed_b))]
        assert mixed_a == alone_a
        assert mixed_b == alone_b

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
        # event at 4 (its arrival, handled in the same step); a forward to the
        # sink ends the packet's trace.
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

    def test_ddos_targets_have_one_order(self):
        reordered = Scenario(kind="ddos", targets=("6", "2"))
        assert reordered == Scenario.ddos(["2", "6"]) == Scenario.from_string("ddos:6,2")
        assert reordered.label == "ddos:2,6"
        assert Scenario(kind="ddos", targets=("14", "2")).label == "ddos:2,14"

    def test_labels_round_trip(self):
        for text in ("stable", "dos:5", "ddos:2,6"):
            assert Scenario.from_string(text).label == text

    @given(scenarios(st.text(string.ascii_letters + string.digits + "_", min_size=1)))
    @settings(max_examples=200)
    def test_from_string_inverts_label(self, scenario):
        assert Scenario.from_string(scenario.label,
                                    scenario.attack_forwarding_probability) == scenario

    # Each bad scenario string with the start of its message.
    BAD_GRAMMAR = {
        "dos:": "empty target in scenario 'dos:'",
        "ddos:": "empty target in scenario 'ddos:'",
        "flood:3": "unknown scenario kind 'flood'",
        "stable:1": "stable scenario takes no targets",
        "stable:": "stable scenario takes no targets",
        "dos": "dos scenario takes exactly one target",
        "ddos": "ddos scenario needs at least one target",
        "ddos:3,3": "scenario targets must be distinct",
        "ddos:,3": "empty target in scenario",
        "ddos:3,": "empty target in scenario",
        "ddos:1,,2": "empty target in scenario",
        "dos:3,4": "dos scenario takes exactly one target",
    }

    @pytest.mark.parametrize("bad", BAD_GRAMMAR)
    def test_bad_grammar_rejected(self, bad):
        with pytest.raises(ValueError, match=f"^{re.escape(self.BAD_GRAMMAR[bad])}"):
            Scenario.from_string(bad)

    @pytest.mark.parametrize("build", [lambda: Scenario.dos(""),
                                       lambda: Scenario.ddos(["", "3"])],
                             ids=["dos", "ddos"])
    def test_constructors_reject_empty_target(self, build):
        with pytest.raises(ValueError, match="empty target in scenario"):
            build()

    def test_probability_bounds(self):
        with pytest.raises(ValueError):
            Scenario.dos("5", attack_forwarding_probability=0.0)
        with pytest.raises(ValueError):
            Scenario.dos("5", attack_forwarding_probability=1.5)
        with pytest.raises(ValueError):
            Scenario.dos("5", attack_forwarding_probability=math.nan)

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
        assert simulator.MEAN_PACKET_SIZE == 100.0
        assert cfg.mean_interarrival == 2.0
        assert cfg.router_service_rate == 2.2
        assert cfg.monitor_interval == 0.5

    @pytest.mark.parametrize("kwargs", [
        {"duration": 0.0},
        {"duration": 10.0, "mean_interarrival": -1.0},
        {"duration": 10.0, "seed": -1},
        {"duration": 10.0, "ttl": -2},
    ])
    def test_invalid_config_rejected(self, kwargs):
        with pytest.raises(ValueError):
            SimConfig(**kwargs)

    @pytest.mark.parametrize("seed, shown", [
        (2**64, str(2**64)),
        (10**30, "1" + "0" * 23 + "..."),
        # str() of this int raises, so the message must not build it.
        (10**5000, "an integer of 16610 bits"),
    ], ids=["20-digits", "31-digits", "5001-digits"])
    def test_out_of_range_seed_is_cut(self, seed, shown):
        with pytest.raises(ValueError) as err:
            SimConfig(duration=10.0, seed=seed)
        assert str(err.value) == f"seeds must be unsigned 64-bit integers, got {shown}"

    @pytest.mark.parametrize("field", ["duration", "mean_interarrival",
                                       "router_service_rate", "monitor_interval"])
    @pytest.mark.parametrize("value", [math.nan, math.inf])
    def test_non_finite_rejected(self, field, value):
        with pytest.raises(ValueError, match=f"{field} must be finite"):
            SimConfig(**{"duration": 10.0, field: value})


def half_attack(t: Topology, kind: str) -> Scenario:
    """Stable traffic, or a dos or ddos scenario admitting half the packets."""
    if kind == "stable":
        return Scenario.stable()
    if kind == "dos":
        return Scenario.dos(t.router_ids[-1], attack_forwarding_probability=0.5)
    return Scenario.ddos(t.router_ids[:2], attack_forwarding_probability=0.5)


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

    @given(topologies(multihome_prob=0.5), st.integers(0, 2**32),
           st.sampled_from(["stable", "dos", "ddos"]))
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

    @given(topologies(multihome_prob=0.5), st.integers(0, 2**32),
           st.sampled_from(["stable", "dos", "ddos"]))
    @settings(max_examples=15, deadline=None)
    def test_forward_is_followed_by_that_packets_arrival(self, t, seed, kind):
        trace = []
        run(t, SimConfig(duration=30.0, seed=seed), half_attack(t, kind),
            on_event=lambda *event: trace.append(event))
        last_seen = {pid: i for i, (_, _, _, pid) in enumerate(trace)}
        for i, (event, now, router, pid) in enumerate(trace):
            if event != "forward" or last_seen[pid] == i:
                continue  # not a forward, or a forward to the sink
            next_event, next_now, next_router, next_pid = trace[i + 1]
            assert next_pid == pid and next_now == now
            assert next_event in ("arrive", "drop_attack")
            assert next_router in t.adjacency[router]

    @given(topologies(), st.integers(0, 2**32), st.sampled_from(["stable", "dos", "ddos"]))
    @settings(max_examples=15, deadline=None)
    def test_tick_delays_are_never_negative_zero(self, t, seed, kind):
        # A sojourn sum starts at +0.0 and adds only now - arrived_at >= +0.0,
        # so timeseries.csv never holds "-0.0".
        res = run(t, SimConfig(duration=30.0, seed=seed), half_attack(t, kind))
        assert all(math.copysign(1.0, d) == 1.0
                   for column in res.tick_delays.values() for d in column)

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
        assert list(res.tick_times) == pytest.approx([0.5 * i for i in range(1, 21)])
        assert len(res.tick_delays["R"]) == len(res.tick_times)

    def test_monitor_samples_are_float_columns(self):
        t, config = builtin_case(1), SimConfig(duration=400.0, seed=3)
        run(t, config, Scenario.stable())  # warm-up: imports, routing-table memo
        gc.collect()
        tracemalloc.start()
        try:
            before = tracemalloc.get_traced_memory()[0]
            res = run(t, config, Scenario.stable())
            gc.collect()
            held = tracemalloc.get_traced_memory()[0] - before
        finally:
            tracemalloc.stop()
        count = sum(len(delays) for delays in res.tick_delays.values())
        assert count == 18 * 800
        assert held <= 16 * count

    def test_monitor_sample_cap(self):
        t = builtin_case(3)  # 5 routers
        at_cap = MAX_MONITOR_SAMPLES // 5 * 0.5  # duration for exactly the cap at 0.5 s
        count = 5 * (MAX_MONITOR_SAMPLES // 5 + 1)  # one tick more
        check_run_inputs(t, SimConfig(duration=at_cap), Scenario.stable())
        over = SimConfig(duration=at_cap + 0.5)
        with pytest.raises(ValueError, match=f"hold {count:,} monitor samples"):
            check_run_inputs(t, over, Scenario.stable())
        with pytest.raises(ValueError, match="monitor samples"):
            run(t, over, Scenario.stable())
        huge = SimConfig(duration=1e300, monitor_interval=1e-300)  # ratio overflows
        with pytest.raises(ValueError, match="hold inf monitor samples"):
            check_run_inputs(t, huge, Scenario.stable())

    def test_size_and_interarrival_calibration(self):
        # TestGeneratorReplay shows the replay draws the run's uniforms, so
        # its sizes and gaps are the run's.
        t, config = builtin_case(2), SimConfig(duration=1500.0, seed=17)
        res = run(t, config, Scenario.stable())
        replays = oracles.replay_generators(t, config).values()
        sizes = [size for g in replays for size in g.sizes]
        assert res.generated == len(sizes) > 2000
        assert min(sizes) > 0
        inter_mean = fmean(gap for g in replays for gap in g.gaps)
        assert fmean(sizes) == pytest.approx(100.0, rel=0.05)
        assert inter_mean == pytest.approx(2.0, rel=0.05)

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

    def test_event_cap_raises(self, monkeypatch):
        monkeypatch.setattr(simulator, "EVENT_CAP", 50)
        with pytest.raises(SimulationLimitError):
            run(builtin_case(2), SimConfig(duration=100.0, seed=1), Scenario.stable())

    def test_event_cap_checked_at_a_tick(self, mm1_topology, monkeypatch):
        # The second event is the tick at 0.002 s, long before the first
        # packet, so only the check after the calendar pop can stop it. (The
        # run's up-front estimate, 0.2 events, stays under the cap.)
        monkeypatch.setattr(simulator, "EVENT_CAP", 1)
        config = SimConfig(duration=100.0, seed=1, mean_interarrival=1000.0,
                           monitor_interval=0.001)
        with pytest.raises(SimulationLimitError, match=r"^event cap 1 exceeded at t=0\.002s$"):
            run(mm1_topology, config, Scenario.stable())

    def test_in_flight_cap_raises_on_overload(self, monkeypatch):
        # Case 3's default load exceeds its routers' service rate, so its
        # queues grow about 5 packets/s.
        monkeypatch.setattr(simulator, "MAX_IN_FLIGHT", 100)
        with pytest.raises(SimulationLimitError,
                           match=r"^101 packets in flight at t=\d+\.\d{3}s, over the cap of 100: "
                                 r"the routers are overloaded"):
            run(builtin_case(3), SimConfig(duration=2000.0, seed=1), Scenario.stable())
        fast = run(builtin_case(3), SimConfig(duration=2000.0, seed=1, router_service_rate=50.0),
                   Scenario.stable())
        assert conserved(fast)

    @pytest.mark.parametrize("scenario", [Scenario.stable(), Scenario.dos("3")],
                             ids=["stable", "dos"])
    def test_event_cap_is_exact(self, scenario, monkeypatch):
        t = builtin_case(2)
        arrivals = []

        def on_event(kind, now, _router, _pid):
            if kind in ("arrive", "drop_attack"):
                arrivals.append(now)

        run(t, SimConfig(duration=60.0, seed=4), scenario, on_event=on_event)
        # Ending the run at an arrival makes that arrival its last event, so
        # the cap must also be checked where arrivals are counted.
        cfg = SimConfig(duration=arrivals[-1], seed=4)
        full = run(t, cfg, scenario)
        n = full.event_count
        monkeypatch.setattr(simulator, "EVENT_CAP", n)
        assert run(t, cfg, scenario) == full
        monkeypatch.setattr(simulator, "EVENT_CAP", n - 1)
        with pytest.raises(SimulationLimitError, match=f"event cap {n - 1} exceeded"):
            run(t, cfg, scenario)

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


class TestTieRule:
    """Exact-time ties on the calendar break by source: the monitor tick,
    then routers, then generators. With every uniform draw 0.5, the
    generator's gap and the router's service time are both ln 2 / 2 on the
    S-R-G topology, so packet k's completion ties with packet k+1's
    generation at every multiple of ln 2 / 2 from ln 2 on."""

    LN2 = 0.6931471805599453

    def _run(self, monkeypatch, mm1_topology, **config):
        monkeypatch.setattr(simulator, "stream", lambda *_: lambda: 0.5)
        trace = []
        result = run(mm1_topology, SimConfig(duration=5.0, mean_interarrival=0.5,
                                             router_service_rate=2.0, **config),
                     Scenario.stable(), on_event=lambda *event: trace.append(event))
        return result, trace

    def test_completion_precedes_generation_at_the_same_time(self, monkeypatch, mm1_topology):
        _, trace = self._run(monkeypatch, mm1_topology)
        assert ("forward", self.LN2, "R", 0) in trace
        forwards = {pid: i for i, (kind, _, _, pid) in enumerate(trace) if kind == "forward"}
        arrivals = {pid: i for i, (kind, _, _, pid) in enumerate(trace) if kind == "arrive"}
        assert len(forwards) >= 10
        for pid, i in forwards.items():
            if pid + 1 in arrivals:
                assert trace[i][1] == trace[arrivals[pid + 1]][1]  # an exact tie
                assert i < arrivals[pid + 1]

    def test_monitor_tick_goes_first(self, monkeypatch, mm1_topology):
        result, trace = self._run(monkeypatch, mm1_topology, monitor_interval=self.LN2)
        assert ("forward", self.LN2, "R", 0) in trace
        assert result.tick_times[0] == self.LN2
        assert result.tick_delays["R"][0] == 0.0


class TestNetworkOracle:
    """Seed-mean per-router throughput and sojourn against the open
    queueing network's traffic equations (``oracles.jackson_arrival_rates``)
    at a service rate where no router saturates (max utilisation 0.24).

    Tolerances come from the spread over six disjoint five-seed sets
    (1..5 up to 26..30) at this duration: the worst sojourn error was 2.5 %
    and the worst throughput error 4.1 %, both on case 2.
    """

    MU, DURATION, SEEDS = 50.0, 1000.0, range(1, 6)

    @pytest.mark.parametrize("case", [1, 2, 3])
    def test_sojourn_and_throughput_match_jackson(self, case):
        t = builtin_case(case)
        rates = oracles.jackson_arrival_rates(t, SimConfig.mean_interarrival)
        results = [run(t, SimConfig(duration=self.DURATION, seed=seed,
                                    router_service_rate=self.MU), Scenario.stable())
                   for seed in self.SEEDS]
        assert set(rates) == set(t.router_ids)
        for router, rate in rates.items():
            assert rate < 0.25 * self.MU
            delay = fmean(r.routers[router].final_delay for r in results)
            assert delay == pytest.approx(1.0 / (self.MU - rate), rel=0.035), router
            throughput = fmean(r.routers[router].forwarded for r in results) / self.DURATION
            assert throughput == pytest.approx(rate, rel=0.055), router


class TestFluidOracle:
    """``oracles.fluid_rates``, the fluid model that also covers saturated
    routers, against the linear traffic equations where no router
    saturates, and its saturated routers at the defaults."""

    def test_matches_jackson_where_nothing_saturates(self):
        # The iteration stops at n steps with no state moving by delta =
        # FLUID_STEP. If each step shrinks by a factor rho, the states still
        # move by at most delta * rho / (1 - rho) in all. The steps fell by
        # far more than a factor e in n steps, so rho**n < 1/e, 1 / (1 - rho)
        # < n + 1, and a router, the sum of its k states, is within
        # k * (n + 1) * delta of the fixed point that Jackson's solve gives.
        rng = random.Random(22)
        graphs = [builtin_case(case) for case in (1, 2, 3)]
        graphs += [make_random_topology(rng, multihome_prob=0.5) for _ in range(60)]
        assert sum(any(len(t.adjacency[g]) >= 2 for g in t.generator_ids)
                   for t in graphs) >= 20
        config = SimConfig(duration=1.0, router_service_rate=50.0)
        for t in graphs:
            fluid = oracles.fluid_rates(t, config, Scenario.stable())
            rates = oracles.jackson_arrival_rates(t, config.mean_interarrival)
            assert not any(fluid.growth.values())
            for router, rate in rates.items():
                states = 1 + sum(w in rates for w in t.adjacency[router])
                bound = states * (fluid.iterations + 1) * oracles.FLUID_STEP
                assert abs(fluid.arrival[router] - rate) <= bound, (t.name, router)

    @pytest.mark.parametrize("case, saturated", [
        (1, {"2", "5", "9", "10", "11", "12"}), (2, {"3", "4", "5", "6"}),
        (3, {"1", "2", "6", "10", "14"})])
    def test_saturated_routers_at_the_defaults(self, case, saturated):
        # Case 2's set is the top delay cluster that criterion 11 gets from
        # simulation. Whatever the sink does not absorb piles up in queues.
        t = builtin_case(case)
        config = SimConfig(duration=1.0)
        fluid = oracles.fluid_rates(t, config, Scenario.stable())
        assert {r for r, growth in fluid.growth.items() if growth > 0} == saturated
        assert fluid.delivered + sum(fluid.growth.values()) == pytest.approx(
            len(t.generator_ids) / config.mean_interarrival, rel=1e-9)


class TestGeneratorReplay:
    """Every packet's injection against ``oracles.replay_generators``, which
    redraws each generator's stream without the simulator: packet k's first
    event, its arrival or attack drop at injection, must be the k-th
    replayed packet, time and router, exactly. A gap, router or size draw
    that takes another uniform than the replay moves some packet."""

    @staticmethod
    def assert_replayed(t: Topology, config: SimConfig, scenario: Scenario):
        trace = []
        result = run(t, config, scenario, on_event=lambda *event: trace.append(event))
        first = oracles.first_events(trace)
        assert result.generated == len(first)
        assert {kind for kind, _, _ in first} <= {"arrive", "drop_attack"}
        assert [(at, router) for _, at, router in first] == oracles.injection_order(
            oracles.replay_generators(t, config))

    @pytest.mark.parametrize("case, target", [(1, "5"), (2, "3"), (3, "6")])
    def test_builtin_cases(self, case, target):
        t = builtin_case(case)
        for seed in range(1, 6):
            for scenario in (Scenario.stable(), Scenario.dos(target)):
                self.assert_replayed(t, SimConfig(duration=300.0, seed=seed), scenario)

    def test_random_topologies_with_multihomed_generators(self):
        rng = random.Random(22)
        multihomed = 0
        for seed in range(60):
            t = make_random_topology(rng, multihome_prob=0.5)
            multihomed += any(len(t.adjacency[g]) >= 2 for g in t.generator_ids)
            scenario = Scenario.dos(rng.choice(t.router_ids)) if seed % 2 else Scenario.stable()
            self.assert_replayed(t, SimConfig(duration=200.0, seed=seed), scenario)
        assert multihomed >= 20  # so the replay's router draw is exercised


class TestMonitorReplay:
    """Every tick's per-router delay against ``oracles.replay_tick_delays``,
    which rebuilds the running means from the run's event trace alone. Both
    add the same sojourns in the same order, so they must match exactly."""

    @pytest.mark.parametrize("case, target", [(1, "5"), (2, "3"), (3, "6")])
    @pytest.mark.parametrize("ttl", [0, 3])
    def test_tick_delays_match_trace(self, case, target, ttl):
        t = builtin_case(case)
        for seed in range(1, 4):
            for scenario in (Scenario.stable(), Scenario.dos(target, 0.3),
                             Scenario.ddos(["2", "6"], 0.3)):
                config = SimConfig(duration=300.0, seed=seed, ttl=ttl)
                trace = []
                result = run(t, config, scenario, on_event=lambda *event: trace.append(event))
                times, delays = oracles.replay_tick_delays(t, config, trace)
                assert list(result.tick_times) == times
                assert {r: list(d) for r, d in result.tick_delays.items()} == delays
                assert any(any(d) for d in delays.values())


class TestBusyPathService:
    """The mean of the services a router starts at a completion, for a
    packet already queued, against 1 / mu, from ``oracles.busy_services``:
    a single M/M/1 queue at utilisation 0.9, so about 16,000 such services
    a run.

    The tolerance comes from the spread over six disjoint five-seed sets
    (1..5 up to 26..30) at this duration: their pooled means were 0.9954 to
    1.0009 of 1 / mu, the worst 0.46 % off. Service times stretched by 3 %
    on that path alone gave 1.0255 to 1.0312.
    """

    MU, RATE, DURATION, SEEDS = 1.0, 0.9, 20_000.0, range(1, 6)

    def test_mean_is_one_over_mu(self, mm1_topology):
        services = []
        for seed in self.SEEDS:
            config = SimConfig(duration=self.DURATION, seed=seed, mean_interarrival=1 / self.RATE,
                               router_service_rate=self.MU)
            trace = []
            run(mm1_topology, config, Scenario.stable(), on_event=lambda *e: trace.append(e))
            services += oracles.busy_services(trace, "R")
        assert len(services) > 75_000
        assert fmean(services) == pytest.approx(1 / self.MU, rel=0.01)
