"""Seeded discrete-event simulation of packet traffic on a topology.

Traffic model: every generator emits packets with exponential inter-arrival
times and exponential sizes into its adjacent router. Routers are
single-server FIFO queues with exponential service; a served packet is
forwarded to a uniformly chosen eligible neighbor, never back on its arrival
link unless that is the only option. The sink absorbs packets on arrival.
Packet size is drawn with the fixed mean ``MEAN_PACKET_SIZE`` and discarded:
service time, in packets per second, ignores it, but the draw fixes which
uniforms its generator's later draws get. Every exponential draw is the
inverse CDF -mean * log1p(-u) of one uniform u from the drawing node's stream.

A DoS/DDoS disturbance collapses the forwarding probability of the targeted
routers: an arriving packet is admitted with that probability and otherwise
discarded on the spot, before it consumes queue space or server time. The
attacked router is effectively out of the system, which is what drives its
measured delay toward zero while traffic starves or piles up elsewhere.

Per-router delay is the running mean of sojourn (enter-to-leave) times over
forwarded packets, sampled every ``monitor_interval`` seconds.

The event calendar is a priority queue of (timestamp, source) entries, one
pending entry per event source: each router's next service completion, each
generator's next packet and the next monitor tick. Ties on the timestamp
break by source, the monitor tick first, then routers in declaration order,
then generators in declaration order, so a run is fully deterministic given
its seed. A packet's arrival at its next router is handled in the same step
that injects or forwards it, at the same timestamp. That gives the same
bytes as queueing the arrival on the calendar: every router draws from its
own random stream, so handling it early can only reorder it against an
event at exactly the same float time.
"""

from __future__ import annotations

import math
from array import array
from collections import deque
from dataclasses import dataclass, fields
from heapq import heappop, heappush
from typing import Callable

from .rng import stream
from .topology import ForwardingTable, Topology, build_routing_table, clip, natural_key


class SimulationLimitError(RuntimeError):
    """The event or in-flight packet budget was exhausted before the
    configured duration elapsed."""


# Most events one run may process before it raises SimulationLimitError.
EVENT_CAP = 100_000_000

# Most packets one run may hold in flight (queued or in service) before it
# raises SimulationLimitError: about 140 bytes each, so about 400 MB. An
# overloaded router's queue grows without bound, so only this bounds it.
MAX_IN_FLIGHT = 3_000_000

# Most monitor samples one run may hold: 8 bytes of delay each, so about
# 400 MB. Checked before a run starts, never by allocating.
MAX_MONITOR_SAMPLES = 50_000_000

# Mean of the exponential packet-size draw, in bytes.
MEAN_PACKET_SIZE = 100.0


def _positive_finite(x: float) -> bool:
    # nan fails every comparison, so "x <= 0" alone would let it through.
    return math.isfinite(x) and x > 0


@dataclass(frozen=True)
class SimConfig:
    """Run parameters. Times are continuous double-precision seconds.

    ``ttl`` is a hop budget (0 = unlimited). Inter-arrival gaps are plain
    exponential draws, so each generator is a Poisson source; the monitor
    samples every router on a fixed ``monitor_interval`` tick. Packet size is
    not a setting: its mean is the constant ``MEAN_PACKET_SIZE``.
    """

    duration: float
    seed: int = 0
    mean_interarrival: float = 2.0
    router_service_rate: float = 2.2
    monitor_interval: float = 0.5
    ttl: int = 0

    def __post_init__(self):
        for name in ("duration", "mean_interarrival", "router_service_rate",
                     "monitor_interval"):
            if not _positive_finite(getattr(self, name)):
                raise ValueError(f"{name} must be finite and > 0")
        if not 0 <= self.seed < 2**64:
            try:
                shown = clip(str(self.seed))
            except ValueError:  # str() refuses an int past sys.get_int_max_str_digits()
                shown = f"an integer of {self.seed.bit_length()} bits"
            raise ValueError(f"seeds must be unsigned 64-bit integers, got {shown}")
        if self.ttl < 0:
            raise ValueError("ttl must be >= 0 (0 = unlimited)")


@dataclass(frozen=True)
class Scenario:
    """Stable traffic or a DoS/DDoS disturbance on one or more routers."""

    kind: str  # "stable" | "dos" | "ddos"
    targets: tuple[str, ...] = ()
    # The constructors below take this field's default as theirs: a default
    # expression is evaluated in the class body, where the name is bound.
    attack_forwarding_probability: float = 0.01

    def __post_init__(self):
        if self.kind not in ("stable", "dos", "ddos"):
            raise ValueError(f"unknown scenario kind '{clip(self.kind)}' "
                             "(expected stable | dos:<id> | ddos:<id>,...)")
        if self.kind == "ddos":  # one canonical target order, so one label per target set
            object.__setattr__(self, "targets", tuple(sorted(self.targets, key=natural_key)))
        if self.kind == "stable" and self.targets:
            raise ValueError("stable scenario takes no targets")
        if "" in self.targets:
            raise ValueError(f"empty target in scenario '{clip(self.label)}' "
                             "(expected dos:<id> | ddos:<id>,<id>[,...])")
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
    def dos(cls, target: str,
            attack_forwarding_probability: float = attack_forwarding_probability) -> "Scenario":
        return cls(kind="dos", targets=(target,),
                   attack_forwarding_probability=attack_forwarding_probability)

    @classmethod
    def ddos(cls, targets,
             attack_forwarding_probability: float = attack_forwarding_probability) -> "Scenario":
        return cls(kind="ddos", targets=tuple(targets),
                   attack_forwarding_probability=attack_forwarding_probability)

    @classmethod
    def from_string(cls, text: str,
                    attack_forwarding_probability: float = attack_forwarding_probability,
                    ) -> "Scenario":
        """Parse the scenario grammar: "stable" | "dos:<id>" | "ddos:<id>,<id>[,...]".

        Splits ``text`` into a kind and, after a ':', its comma-separated
        targets, each stripped of surrounding spaces; the constructor checks
        them.
        """
        kind, colon, rest = text.strip().partition(":")
        targets = tuple(target.strip() for target in rest.split(",")) if colon else ()
        return cls(kind=kind, targets=targets,
                   attack_forwarding_probability=attack_forwarding_probability)

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


def check_run_inputs(topology: Topology, config: SimConfig, scenario: Scenario) -> ForwardingTable:
    """Return the topology's ``build_routing_table``, which validates it.

    Raise TopologyError if that does, ValueError unless every target of
    ``scenario`` is a router of it and the run would hold at most
    ``MAX_MONITOR_SAMPLES`` monitor samples, and SimulationLimitError if the
    generators' traffic alone would exceed ``EVENT_CAP``. ``run`` calls it
    first and runs on the table it returns; ``RunManifest`` calls it for
    each scenario before the first run.

    A run samples each router floor(duration / monitor_interval) times. Each
    packet costs at least two events, its generation and its first arrival,
    so a run expects at least 2 x generators x duration / mean_interarrival
    of them.
    """
    table = build_routing_table(topology)
    routers = topology.router_ids
    unknown = [t for t in scenario.targets if t not in routers]
    if unknown:
        raise ValueError(f"scenario targets unknown routers: {clip(', '.join(unknown))}")
    ticks = config.duration / config.monitor_interval  # inf only on overflow
    count = len(routers) * (math.floor(ticks) if math.isfinite(ticks) else ticks)
    if count > MAX_MONITOR_SAMPLES:
        shown = f"{count:,}" if count < 10**18 else f"{len(routers) * ticks:.3g}"  # not 300 digits
        raise ValueError(
            f"run would hold {shown} monitor samples ({len(routers)} routers x "
            f"duration / monitor_interval), over the cap of {MAX_MONITOR_SAMPLES:,}; "
            "shorten the duration or lengthen the monitor interval")
    generators = len(topology.generator_ids)
    events = 2 * generators * (config.duration / config.mean_interarrival)  # inf on overflow
    if events > EVENT_CAP:
        raise SimulationLimitError(
            f"run would generate {events:.3g} events (2 x {generators} generators x "
            f"duration / mean_interarrival), over the event cap of {EVENT_CAP:,}; "
            "shorten the duration or lengthen the mean inter-arrival")
    return table


@dataclass(frozen=True)
class RunRecord:
    """What a campaign keeps of one run: per-router stats and accounting.

    ``execute_manifest`` returns one per (scenario, seed) once the run's CSV
    files are written, so a campaign holds O(runs x routers) in memory, not
    every run's tick columns. ``SimResult`` is a ``RunRecord``, so whatever
    takes a record, such as the delay rankings and the summary and
    accounting writers, takes a full result too.

    The packet accounting satisfies
    generated == delivered_to_sink + dropped_by_attack + dropped_by_ttl +
    in_flight_at_end, exactly, for every seed and scenario.
    """

    topology_name: str
    routers: dict[str, RouterSummary]
    generated: int
    delivered_to_sink: int
    dropped_by_attack: int
    dropped_by_ttl: int
    in_flight_at_end: int
    event_count: int


@dataclass(frozen=True)
class SimResult(RunRecord):
    """Outcome of one run: its ``RunRecord`` plus the delay time series.

    ``tick_times`` holds the monitor's tick times, and ``tick_delays`` maps
    each router, in declaration order, to its running mean sojourn at each
    tick: ``array('d')`` columns, each as long as ``tick_times``.
    """

    tick_times: array
    tick_delays: dict[str, array]

    def record(self) -> RunRecord:
        """The run's record alone, sharing its ``routers`` dict; the tick
        columns are not referenced from it."""
        return RunRecord(**{f.name: getattr(self, f.name) for f in fields(RunRecord)})


def _over_cap(cap: int, now: float) -> SimulationLimitError:
    return SimulationLimitError(f"event cap {cap} exceeded at t={now:.3f}s")


def _overloaded(cap: int, now: float, routers, queues) -> SimulationLimitError:
    longest = max(range(len(queues)), key=lambda r: len(queues[r]))
    return SimulationLimitError(
        f"{cap + 1:,} packets in flight at t={now:.3f}s, over the cap of {cap:,}: "
        f"the routers are overloaded and their queues grow without bound (router "
        f"'{routers[longest]}' holds {len(queues[longest]):,}); shorten the duration, "
        "lengthen the mean inter-arrival or raise the service rate")


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
    table = check_run_inputs(topology, config, scenario)
    routers, sink, hops, inject = topology.router_ids, table.sink, table.hops, table.inject
    # Admit probability of each attacked router; None where not attacked.
    admit = [None] * len(routers)
    for target in scenario.targets:
        admit[routers.index(target)] = scenario.attack_forwarding_probability

    gen_random = [stream(config.seed, "generator", g) for g in topology.generator_ids]
    router_random = [stream(config.seed, "router", r) for r in routers]

    # Per-router state. A queue holds one (packet id, arrival link, hops,
    # arrival time) tuple per packet, with the packet in service at its head,
    # so a router is busy exactly when its queue is non-empty. The arrival
    # link is -1 for a packet its generator just injected.
    queues = [deque() for _ in routers]
    forwarded = [0] * len(routers)
    sojourn = [0.0] * len(routers)
    dropped = [0] * len(routers)
    # Monitor columns: one time column shared by every router.
    tick_times = array("d")
    delays = [array("d") for _ in routers]

    # Calendar entries are (time, source): source r < sink is router r's
    # next service completion, sink + g generator g's next packet (the sink's
    # index is the router count), -1 the next monitor tick. A source has at
    # most one entry pending, so an exact-time tie breaks by source: the
    # tick, then routers, then generators.
    heap: list[tuple[float, int]] = [(config.monitor_interval, -1)]
    generated = delivered = dropped_attack = dropped_ttl = events = 0
    mean_service = 1.0 / config.router_service_rate
    duration, ttl = config.duration, config.ttl
    log1p = math.log1p

    for g, draw in enumerate(gen_random):
        heappush(heap, (-config.mean_interarrival * log1p(-draw()), sink + g))

    event_cap, max_in_flight = EVENT_CAP, MAX_IN_FLIGHT
    while True:
        # The tick re-arms itself, so the calendar is never empty.
        now, node = heappop(heap)
        if now > duration:
            break
        events += 1
        if events > event_cap:
            raise _over_cap(event_cap, now)

        if node < 0:  # the monitor tick samples every router
            tick_times.append(now)
            for column, s, f in zip(delays, sojourn, forwarded):
                column.append(s / f if f else 0.0)
            heappush(heap, (now + config.monitor_interval, -1))
            continue

        # A completion or a generator ends with packet `pid` bound for
        # router `node`; its arrival is handled below the branches.
        if node < sink:  # router node completes the service at its queue's head
            queue = queues[node]
            pid, came_from, hop_count, arrived_at = queue.popleft()
            if ttl and hop_count >= ttl:
                dropped_ttl += 1
                if on_event is not None:
                    on_event("drop_ttl", now, routers[node], pid)
                dest = sink  # dropped: it arrives nowhere
            else:
                sojourn[node] += now - arrived_at
                forwarded[node] += 1
                candidates = hops[node][came_from]
                if len(candidates) == 1:
                    dest = candidates[0]
                else:
                    dest = candidates[int(router_random[node]() * len(candidates))]
                if on_event is not None:
                    on_event("forward", now, routers[node], pid)
                if dest == sink:
                    delivered += 1
            if queue:
                heappush(heap, (now - mean_service * log1p(-router_random[node]()), node))
            if dest == sink:
                continue
            came_from, node, hop_count = node, dest, hop_count + 1

        else:  # generator node - sink emits a packet and draws its next gap
            draw = gen_random[node - sink]
            size = 0.0
            while size <= 0.0:  # sizes must be strictly positive
                size = -MEAN_PACKET_SIZE * log1p(-draw())
            targets = inject[node - sink]
            if len(targets) == 1:
                router = targets[0]
            else:
                router = targets[int(draw() * len(targets))]
            pid, came_from, hop_count = generated, -1, 0
            generated += 1
            if generated - delivered - dropped_attack - dropped_ttl > max_in_flight:
                raise _overloaded(max_in_flight, now, routers, queues)
            heappush(heap, (now - config.mean_interarrival * log1p(-draw()), node))
            node = router

        # Arrival of packet pid at router node, now. It counts as an event,
        # and its draws come from that router's own stream.
        events += 1
        if events > event_cap:
            raise _over_cap(event_cap, now)
        p = admit[node]
        if p is not None and router_random[node]() >= p:
            dropped[node] += 1
            dropped_attack += 1
            if on_event is not None:
                on_event("drop_attack", now, routers[node], pid)
            continue
        if on_event is not None:
            on_event("arrive", now, routers[node], pid)
        queue = queues[node]
        queue.append((pid, came_from, hop_count, now))
        if len(queue) == 1:
            heappush(heap, (now - mean_service * log1p(-router_random[node]()), node))

    # Packets still queued, including any in service; no arrival is ever left
    # pending. Counted from the queues, not the counters, so the conservation
    # identity is a real check, not a tautology.
    in_flight = sum(len(q) for q in queues)

    return SimResult(
        topology_name=topology.name,
        tick_times=tick_times,
        tick_delays=dict(zip(routers, delays)),
        routers={r: RouterSummary(final_delay=s / f if f else 0.0, forwarded=f,
                                  dropped_attack=d, attacked=p is not None,
                                  sink_adjacent=sink in row[-1])
                 for r, s, f, d, p, row in zip(routers, sojourn, forwarded, dropped, admit, hops)},
        generated=generated,
        delivered_to_sink=delivered,
        dropped_by_attack=dropped_attack,
        dropped_by_ttl=dropped_ttl,
        in_flight_at_end=in_flight,
        event_count=events,
    )
