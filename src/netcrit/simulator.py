"""Seeded discrete-event simulation of packet traffic on a topology.

Traffic model: every generator emits packets with exponential inter-arrival
times and exponential sizes into its adjacent router. Routers are
single-server FIFO queues with exponential service; a served packet is
forwarded to a uniformly chosen eligible neighbor, never back on its arrival
link unless that is the only option. The sink absorbs packets on arrival.
Packet size is sampled and recorded but does not affect service time, which
is specified in packets per second.

A DoS/DDoS disturbance collapses the forwarding probability of the targeted
routers: an arriving packet is admitted with that probability and otherwise
discarded on the spot, before it consumes queue space or server time. The
attacked router is effectively out of the system, which is what drives its
measured delay toward zero while traffic starves or piles up elsewhere.

Per-router delay is the running mean of sojourn (enter-to-leave) times over
forwarded packets, sampled every ``monitor_interval`` seconds.

The event calendar is a priority queue keyed by (timestamp, insertion
sequence); ties break by insertion order, so a run is fully deterministic
given its seed.
"""

from __future__ import annotations

import itertools
import math
from collections import deque
from dataclasses import dataclass
from heapq import heappop, heappush
from typing import Callable

from .rng import stream
from .topology import Topology, build_routing_table, natural_key


class SimulationLimitError(RuntimeError):
    """The event budget was exhausted before the configured duration elapsed."""


def sample_exponential(rng, mean: float) -> float:
    """Inverse-CDF exponential draw: -mean * ln(1 - u) for one uniform u."""
    if mean <= 0:
        raise ValueError("mean must be > 0")
    return -mean * math.log1p(-rng.random())


@dataclass(frozen=True)
class SimConfig:
    """Run parameters. Times are continuous double-precision seconds.

    ``ttl`` is a hop budget (0 = unlimited). ``interarrival_cap`` optionally
    truncates inter-arrival draws for sensitivity studies; the default keeps
    the plain exponential and with it the Poisson arrival property.
    ``exponential_sampling`` switches the monitor from the default fixed tick
    to exponential sampling gaps with the same mean.
    """

    duration: float
    seed: int = 0
    mean_packet_size: float = 100.0
    mean_interarrival: float = 2.0
    router_service_rate: float = 2.2
    monitor_interval: float = 0.5
    ttl: int = 0
    interarrival_cap: float | None = None
    exponential_sampling: bool = False
    event_cap: int = 100_000_000

    def __post_init__(self):
        if self.duration <= 0:
            raise ValueError("duration must be > 0")
        for name in ("mean_packet_size", "mean_interarrival", "router_service_rate",
                     "monitor_interval"):
            if getattr(self, name) <= 0:
                raise ValueError(f"{name} must be > 0")
        if not 0 <= self.seed < 2**64:
            raise ValueError("seed must be an unsigned 64-bit integer")
        if self.ttl < 0:
            raise ValueError("ttl must be >= 0 (0 = unlimited)")
        if self.interarrival_cap is not None and self.interarrival_cap <= 0:
            raise ValueError("interarrival_cap must be > 0 when set")
        if self.event_cap <= 0:
            raise ValueError("event_cap must be > 0")


@dataclass(frozen=True)
class Scenario:
    """Stable traffic or a DoS/DDoS disturbance on one or more routers."""

    kind: str  # "stable" | "dos" | "ddos"
    targets: tuple[str, ...] = ()
    attack_forwarding_probability: float = 0.01

    def __post_init__(self):
        if self.kind not in ("stable", "dos", "ddos"):
            raise ValueError(f"unknown scenario kind '{self.kind}'")
        if self.kind == "stable" and self.targets:
            raise ValueError("stable scenario takes no targets")
        if self.kind == "dos" and len(self.targets) != 1:
            raise ValueError("dos scenario takes exactly one target")
        if self.kind == "ddos" and not self.targets:
            raise ValueError("ddos scenario needs at least one target")
        if len(set(self.targets)) != len(self.targets):
            raise ValueError("scenario targets must be distinct")
        if not 0.0 < self.attack_forwarding_probability <= 1.0:
            raise ValueError("attack_forwarding_probability must be in (0, 1]")

    @classmethod
    def stable(cls) -> "Scenario":
        return cls(kind="stable")

    @classmethod
    def dos(cls, target: str, attack_forwarding_probability: float = 0.01) -> "Scenario":
        return cls(kind="dos", targets=(target,),
                   attack_forwarding_probability=attack_forwarding_probability)

    @classmethod
    def ddos(cls, targets, attack_forwarding_probability: float = 0.01) -> "Scenario":
        ordered = tuple(sorted(set(targets), key=natural_key))
        return cls(kind="ddos", targets=ordered,
                   attack_forwarding_probability=attack_forwarding_probability)

    @classmethod
    def from_string(cls, text: str, attack_forwarding_probability: float = 0.01) -> "Scenario":
        """Parse the scenario grammar: "stable" | "dos:<id>" | "ddos:<id>,<id>[,...]"."""
        head, _, rest = text.strip().partition(":")
        if head == "stable":
            if rest:
                raise ValueError("stable scenario takes no targets")
            return cls.stable()
        if head == "dos":
            if not rest:
                raise ValueError("dos scenario needs a target, e.g. dos:5")
            return cls.dos(rest, attack_forwarding_probability)
        if head == "ddos":
            targets = [p for p in rest.split(",") if p]
            if not targets:
                raise ValueError("ddos scenario needs targets, e.g. ddos:1,3")
            return cls.ddos(targets, attack_forwarding_probability)
        raise ValueError(f"unknown scenario '{text}' (expected stable | dos:<id> | ddos:<id>,...)")

    @property
    def label(self) -> str:
        if self.kind == "stable":
            return "stable"
        return f"{self.kind}:{','.join(self.targets)}"


@dataclass
class RouterSummary:
    final_delay: float
    forwarded: int
    dropped_attack: int
    attacked: bool
    sink_adjacent: bool


@dataclass
class SimResult:
    """Outcome of one run: delay time series, per-router stats, accounting.

    The packet accounting satisfies
    generated == delivered_to_sink + dropped_by_attack + dropped_by_ttl +
    in_flight_at_end, exactly, for every seed and scenario.
    """

    topology_name: str
    scenario: Scenario
    seed: int
    duration: float
    samples: dict[str, list[tuple[float, float]]]
    routers: dict[str, RouterSummary]
    generated: int
    delivered_to_sink: int
    dropped_by_attack: int
    dropped_by_ttl: int
    in_flight_at_end: int
    event_count: int
    generated_size_total: float
    interarrival_total: float
    interarrival_draws: int

    @property
    def mean_packet_size_observed(self) -> float:
        return self.generated_size_total / self.generated if self.generated else 0.0

    @property
    def mean_interarrival_observed(self) -> float:
        return self.interarrival_total / self.interarrival_draws if self.interarrival_draws else 0.0


# Event kinds, in no particular priority: ties on the calendar break by
# insertion sequence alone.
_GEN, _ARRIVE, _COMPLETE, _MONITOR = 0, 1, 2, 3


def run(
    topology: Topology,
    config: SimConfig,
    scenario: Scenario,
    on_event: Callable[[str, float, str, int], None] | None = None,
) -> SimResult:
    """Execute one simulation run; deterministic given (topology, config, scenario).

    ``on_event``, if given, is called as on_event(kind, time, router, packet_id)
    with kind in {"arrive", "forward", "drop_attack", "drop_ttl"}; it exists
    for tracing and tests and does not affect the run.
    """
    table = build_routing_table(topology)
    routers, sink, hops = table.routers, table.sink, table.hops
    index = {r: i for i, r in enumerate(routers)}
    unknown = [t for t in scenario.targets if t not in index]
    if unknown:
        raise ValueError(f"scenario targets unknown routers: {', '.join(unknown)}")
    # Admit probability of each attacked router; None where not attacked.
    admit = [None] * len(routers)
    for target in scenario.targets:
        admit[index[target]] = scenario.attack_forwarding_probability

    generators = topology.generator_ids
    gen_targets = [tuple(index[r] for r in topology.adjacency[g]) for g in generators]
    gen_streams = [stream(config.seed, "generator", g) for g in generators]
    router_streams = [stream(config.seed, "router", r) for r in routers]
    monitor_streams = ([stream(config.seed, "monitor", r) for r in routers]
                       if config.exponential_sampling else [])

    # Per-router state. A queue holds (packet, arrival time) pairs, with the
    # packet in service at its head, so a router is busy exactly when its
    # queue is non-empty. A packet is an (id, arrival link, hops) tuple; the
    # arrival link is -1 for a packet its generator just injected.
    queues = [deque() for _ in routers]
    forwarded = [0] * len(routers)
    sojourn = [0.0] * len(routers)
    dropped = [0] * len(routers)
    samples = [[] for _ in routers]

    heap: list[tuple] = []
    seq = itertools.count()
    generated = delivered = dropped_attack = dropped_ttl = 0
    size_total = inter_total = 0.0
    mean_service = 1.0 / config.router_service_rate
    duration, ttl, cap = config.duration, config.ttl, config.interarrival_cap

    def interarrival(rng) -> float:
        dt = sample_exponential(rng, config.mean_interarrival)
        return dt if cap is None else min(dt, cap)

    def delay(r: int) -> float:
        return sojourn[r] / forwarded[r] if forwarded[r] else 0.0

    for g, rng in enumerate(gen_streams):
        dt = interarrival(rng)
        inter_total += dt
        heappush(heap, (dt, next(seq), _GEN, g, None))
    if config.exponential_sampling:
        for r, rng in enumerate(monitor_streams):
            heappush(heap, (sample_exponential(rng, config.monitor_interval), next(seq),
                            _MONITOR, r, None))
    else:
        heappush(heap, (config.monitor_interval, next(seq), _MONITOR, None, None))

    events = 0
    while heap and heap[0][0] <= duration:
        now, _, kind, node, pkt = heappop(heap)
        events += 1
        if events > config.event_cap:
            raise SimulationLimitError(
                f"event cap {config.event_cap} exceeded at t={now:.3f}s "
                f"(raise SimConfig.event_cap to continue)"
            )

        if kind == _ARRIVE:
            p = admit[node]
            if p is not None and router_streams[node].random() >= p:
                dropped[node] += 1
                dropped_attack += 1
                if on_event is not None:
                    on_event("drop_attack", now, routers[node], pkt[0])
                continue
            if on_event is not None:
                on_event("arrive", now, routers[node], pkt[0])
            queue = queues[node]
            queue.append((pkt, now))
            if len(queue) == 1:
                done = now + sample_exponential(router_streams[node], mean_service)
                heappush(heap, (done, next(seq), _COMPLETE, node, None))

        elif kind == _COMPLETE:
            queue = queues[node]
            (pid, came_from, hop_count), arrived_at = queue.popleft()
            if ttl and hop_count >= ttl:
                dropped_ttl += 1
                if on_event is not None:
                    on_event("drop_ttl", now, routers[node], pid)
            else:
                sojourn[node] += now - arrived_at
                forwarded[node] += 1
                candidates = hops[node][came_from]
                if len(candidates) == 1:
                    dest = candidates[0]
                else:
                    dest = candidates[int(router_streams[node].random() * len(candidates))]
                if on_event is not None:
                    on_event("forward", now, routers[node], pid)
                if dest == sink:
                    delivered += 1
                else:
                    heappush(heap, (now, next(seq), _ARRIVE, dest, (pid, node, hop_count + 1)))
            if queue:
                done = now + sample_exponential(router_streams[node], mean_service)
                heappush(heap, (done, next(seq), _COMPLETE, node, None))

        elif kind == _GEN:
            rng = gen_streams[node]
            size = 0.0
            while size <= 0.0:  # sizes must be strictly positive
                size = sample_exponential(rng, config.mean_packet_size)
            size_total += size
            targets = gen_targets[node]
            if len(targets) == 1:
                router = targets[0]
            else:
                router = targets[int(rng.random() * len(targets))]
            heappush(heap, (now, next(seq), _ARRIVE, router, (generated, -1, 0)))
            generated += 1
            dt = interarrival(rng)
            inter_total += dt
            heappush(heap, (now + dt, next(seq), _GEN, node, None))

        elif node is None:  # _MONITOR, fixed tick for every router
            for r, series in enumerate(samples):
                series.append((now, delay(r)))
            heappush(heap, (now + config.monitor_interval, next(seq), _MONITOR, None, None))

        else:  # _MONITOR, exponential gap for one router
            samples[node].append((now, delay(node)))
            gap = sample_exponential(monitor_streams[node], config.monitor_interval)
            heappush(heap, (now + gap, next(seq), _MONITOR, node, None))

    # Packets still queued (including any in service) plus any unprocessed
    # arrivals left on the calendar; counted independently so the
    # conservation identity is a real check, not a tautology.
    in_flight = sum(len(q) for q in queues)
    in_flight += sum(1 for entry in heap if entry[2] == _ARRIVE)

    sink_adjacent = topology.sink_adjacent_routers()
    return SimResult(
        topology_name=topology.name,
        scenario=scenario,
        seed=config.seed,
        duration=duration,
        samples=dict(zip(routers, samples)),
        routers={r: RouterSummary(final_delay=delay(i), forwarded=forwarded[i],
                                  dropped_attack=dropped[i], attacked=admit[i] is not None,
                                  sink_adjacent=r in sink_adjacent)
                 for i, r in enumerate(routers)},
        generated=generated,
        delivered_to_sink=delivered,
        dropped_by_attack=dropped_attack,
        dropped_by_ttl=dropped_ttl,
        in_flight_at_end=in_flight,
        event_count=events,
        generated_size_total=size_total,
        interarrival_total=inter_total,
        # One draw per generator at start, then one per generated packet.
        interarrival_draws=len(generators) + generated,
    )
