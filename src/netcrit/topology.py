"""Role-typed graph model for control-network topologies.

A topology is an undirected graph whose nodes are traffic generators,
routers, or the single sink (the balancing authority that all measurement
traffic drains into). This module defines the line-oriented file format,
validation of the structural invariants, the three built-in case-study
networks, and the compilation of a topology into the integer-indexed
``ForwardingTable`` that the random-walk forwarding simulator runs on.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from enum import Enum
from functools import cached_property, lru_cache
from importlib import resources
from pathlib import Path


class NodeRole(Enum):
    GENERATOR = "generator"
    ROUTER = "router"
    SINK = "sink"


class TopologyError(ValueError):
    """Malformed topology text or a violated structural invariant."""


# Most characters of any one input an error message echoes.
_ECHO_CHARS = 24


def clip(text: str) -> str:
    """``text`` cut to ``_ECHO_CHARS`` characters plus '...', for quoting
    input in an error message. Each non-printable character of the result
    is escaped as Python writes it (``\\x1b``, ``\\n``), so the message
    cannot move a terminal's cursor or hide text behind a control code."""
    shown = text if len(text) <= _ECHO_CHARS else text[:_ECHO_CHARS] + "..."
    return "".join(c if c.isprintable() else repr(c)[1:-1] for c in shown)


def natural_key(node_id: str):
    """Sort key that puts integer-like ids in numeric order ("2" before "10")."""
    if node_id.isdecimal():
        return (0, int(node_id), node_id)
    return (1, 0, node_id)


def edge_key(u: str, v: str) -> tuple[str, str]:
    """Canonical unordered representation of an edge."""
    if natural_key(u) <= natural_key(v):
        return (u, v)
    return (v, u)


@dataclass(frozen=True)
class Topology:
    """Undirected graph of generators, routers and exactly one sink.

    Instances are immutable after construction, so runs and metric memos
    share them. ``nodes`` preserves declaration order; ``edges`` holds
    unordered pairs as declared.
    """

    name: str
    nodes: tuple[tuple[str, NodeRole], ...]
    edges: tuple[tuple[str, str], ...]

    def __hash__(self) -> int:
        """Equal topologies share a name and sizes, and ``__eq__`` decides the
        rest, so a memo lookup walks no node or edge list to hash."""
        return hash((self.name, len(self.nodes), len(self.edges)))

    @cached_property
    def roles(self) -> dict[str, NodeRole]:
        return {nid: role for nid, role in self.nodes}

    @cached_property
    def adjacency(self) -> dict[str, tuple[str, ...]]:
        """Neighbors of every node, in edge declaration order. Do not mutate."""
        nbrs: dict[str, list[str]] = {nid: [] for nid, _ in self.nodes}
        for u, v in self.edges:
            nbrs[u].append(v)
            nbrs[v].append(u)
        return {nid: tuple(ns) for nid, ns in nbrs.items()}

    @cached_property
    def sink_id(self) -> str:
        for nid, role in self.nodes:
            if role is NodeRole.SINK:
                return nid
        raise TopologyError(f"topology '{clip(self.name)}' has no sink")

    @property
    def node_ids(self) -> tuple[str, ...]:
        return tuple(nid for nid, _ in self.nodes)

    def ids_with_role(self, role: NodeRole) -> tuple[str, ...]:
        return tuple(nid for nid, r in self.nodes if r is role)

    @cached_property
    def router_ids(self) -> tuple[str, ...]:
        return self.ids_with_role(NodeRole.ROUTER)

    @cached_property
    def generator_ids(self) -> tuple[str, ...]:
        return self.ids_with_role(NodeRole.GENERATOR)

    def sink_adjacent_routers(self) -> frozenset[str]:
        """Routers directly linked to the sink (excluded from delay rankings)."""
        return frozenset(self.adjacency[self.sink_id])


def validate_topology(t: Topology) -> None:
    """Raise TopologyError naming the violated invariant and the offending element."""
    seen: set[str] = set()
    for nid, _ in t.nodes:
        _check_node_id(nid)
        if nid in seen:
            raise TopologyError(f"duplicate node id '{clip(nid)}'")
        seen.add(nid)

    roles = t.roles
    sinks = t.ids_with_role(NodeRole.SINK)
    if len(sinks) == 0:
        raise TopologyError("no sink declared (exactly one required)")
    if len(sinks) > 1:
        raise TopologyError(f"multiple sinks declared: {clip(', '.join(sinks))}")
    if not t.ids_with_role(NodeRole.GENERATOR):
        raise TopologyError("no generator declared (at least one required)")
    if not t.router_ids:
        raise TopologyError("no router declared (at least one required)")

    seen_edges: set[tuple[str, str]] = set()  # each edge as a plain ordered pair
    for u, v in t.edges:
        if u == v:
            raise TopologyError(f"self-loop on node '{clip(u)}'")
        for end in (u, v):
            if end not in roles:
                raise TopologyError(f"edge {clip(u)}-{clip(v)} references undeclared "
                                    f"node '{clip(end)}'")
        pair = (u, v) if u < v else (v, u)
        if pair in seen_edges:
            key = edge_key(u, v)
            raise TopologyError(f"duplicate edge {clip(key[0])}-{clip(key[1])}")
        seen_edges.add(pair)

    adjacency = t.adjacency
    for gid in t.generator_ids:
        nbrs = adjacency[gid]
        if not nbrs:
            raise TopologyError(f"generator '{clip(gid)}' has no link (degree >= 1 required)")
        for n in nbrs:
            if roles[n] is not NodeRole.ROUTER:
                raise TopologyError(
                    f"generator '{clip(gid)}' may connect only to routers "
                    f"(edge {clip(gid)}-{clip(n)})"
                )

    # Connectivity: every node must reach the sink.
    reached = {t.sink_id}
    frontier = [t.sink_id]
    while frontier:
        nxt = []
        for v in frontier:
            for w in adjacency[v]:
                if w not in reached:
                    reached.add(w)
                    nxt.append(w)
        frontier = nxt
    if len(reached) != len(t.nodes):
        missing = sorted(set(roles) - reached, key=natural_key)
        raise TopologyError(
            f"graph not connected; unreachable from sink: {clip(', '.join(missing))}")


_ROLES_BY_NAME = {r.value: r for r in NodeRole}
_NODE_ID = re.compile(r"[A-Za-z0-9_]+")


def _check_node_id(nid: str, lineno: int | None = None) -> None:
    """Node ids are ASCII letters, digits and underscores, so they are safe as
    directory names and never clash with the edge, scenario or CSV syntax.
    The message names ``lineno`` if given."""
    if not _NODE_ID.fullmatch(nid):
        where = "" if lineno is None else f"line {lineno}: "
        raise TopologyError(f"{where}node id '{clip(nid)}' must use only [A-Za-z0-9_]")


def parse_topology(text: str, name: str = "topology") -> Topology:
    """Parse the line-oriented topology format.

    Grammar (UTF-8, '#' starts a comment, blank lines ignored)::

        node <id> <generator|router|sink>
        edge <id> <id>

    Raises TopologyError with the offending line number on syntax errors,
    and with the violated invariant on validation failures.
    """
    nodes: list[tuple[str, NodeRole]] = []
    edges: list[tuple[str, str]] = []
    declared: set[str] = set()

    for lineno, raw in enumerate(text.splitlines(), start=1):
        parts = raw.split("#", 1)[0].split()
        if not parts:
            continue
        if parts[0] == "node":
            if len(parts) != 3:
                raise TopologyError(f"line {lineno}: expected 'node <id> <role>'")
            nid, role_name = parts[1], parts[2]
            _check_node_id(nid, lineno)
            role = _ROLES_BY_NAME.get(role_name)
            if role is None:
                raise TopologyError(f"line {lineno}: unknown role '{clip(role_name)}'")
            nodes.append((nid, role))
            declared.add(nid)
        elif parts[0] == "edge":
            if len(parts) != 3:
                raise TopologyError(f"line {lineno}: expected 'edge <id> <id>'")
            u, v = parts[1], parts[2]
            # A declared id was checked on its node line.
            if u not in declared:
                _check_node_id(u, lineno)
            if v not in declared:
                _check_node_id(v, lineno)
            edges.append((u, v))
        else:
            raise TopologyError(f"line {lineno}: unknown directive '{clip(parts[0])}'")

    topo = Topology(name=name, nodes=tuple(nodes), edges=tuple(edges))
    validate_topology(topo)
    return topo


def serialize_topology(t: Topology) -> str:
    """Render a topology back to the file format (comments are not preserved)."""
    lines = [f"node {nid} {role.value}" for nid, role in t.nodes]
    lines += [f"edge {u} {v}" for u, v in t.edges]
    return "\n".join(lines) + "\n"


def load_topology(path: str | Path) -> Topology:
    """Parse the topology file at ``path``, named by its stem; a file that
    is not UTF-8 fails with a TopologyError naming it and the line of the
    first bad byte."""
    p = Path(path)
    try:
        text = p.read_bytes().decode("utf-8-sig")
    except UnicodeDecodeError as exc:
        # exc.object holds the bytes after any byte-order mark. Lines are
        # counted as parse_topology counts them; the "." ends a line that
        # the bad byte starts.
        read = exc.object[:exc.start].decode("utf-8")
        raise TopologyError(f"'{clip(str(p))}' line {len((read + '.').splitlines())}: "
                            f"not UTF-8 (byte 0x{exc.object[exc.start]:02x})") from None
    return parse_topology(text, name=p.stem)


BUILTIN_CASE_IDS = (1, 2, 3)


def builtin_case(case_id: int) -> Topology:
    """Load one of the built-in case-study topologies (1, 2 or 3).

    Case 1: meshed wide-area network, 18 routers fed by 7 traffic zones
    (approximate layout; see the file header). Case 2: radial network whose
    fourteen routers form a complete binary tree under the sink, one
    generator per leaf router. Case 3: five-router ring with three
    generators on every router except the sink uplink.
    """
    if case_id not in BUILTIN_CASE_IDS:
        raise ValueError(f"invalid case id {case_id!r}; choose one of {BUILTIN_CASE_IDS}")
    text = (
        resources.files("netcrit.data").joinpath(f"case{case_id}.topo").read_text("utf-8")
    )
    return parse_topology(text, name=f"case{case_id}")


@dataclass(frozen=True)
class ForwardingTable:
    """A validated topology compiled to integers: the no-backtrack random
    walk and the generators that feed it. The ids stay on the topology.

    Routers are numbered 0..n-1 in the order of ``Topology.router_ids`` and
    the sink is ``sink`` = n. ``hops[r][a]`` lists, in adjacency order, the
    next-hop candidates of a packet that arrived at router r from node a,
    where a = -1 marks a packet injected by a generator. Candidates are
    every adjacent router plus the sink, except a; when that leaves nothing
    (a leaf router) the packet goes back to a. Generators are never
    candidates, so router r is sink-adjacent exactly when
    ``sink in hops[r][-1]``. Generators are numbered in the order of
    ``Topology.generator_ids``, and ``inject[g]`` lists the routers
    generator g feeds, in adjacency order. ``build_routing_table`` caches
    the last one it built, so every run on the same topology shares it; do
    not mutate.
    """

    sink: int
    hops: tuple[dict[int, tuple[int, ...]], ...]
    inject: tuple[tuple[int, ...], ...]


@lru_cache(maxsize=1)
def build_routing_table(t: Topology) -> ForwardingTable:
    """Validate the topology and compile it into a ForwardingTable.

    Raises TopologyError if ``validate_topology`` does, or if a router has no
    adjacent router or sink to forward to. Memoized on the frozen topology:
    repeated calls validate once and return the same table.
    """
    validate_topology(t)
    routers = t.router_ids
    index = {r: i for i, r in enumerate(routers)}
    index[t.sink_id] = len(routers)
    hops = []
    for router in routers:
        eligible = [index[n] for n in t.adjacency[router] if n in index]
        if not eligible:
            raise TopologyError(
                f"router '{clip(router)}' has no eligible forwarding neighbor "
                "(adjacent routers or sink required)"
            )
        hops.append({a: tuple(n for n in eligible if n != a) or (a,)
                     for a in (-1, *eligible)})
    inject = tuple(tuple(index[r] for r in t.adjacency[g]) for g in t.generator_ids)
    return ForwardingTable(len(routers), tuple(hops), inject)
