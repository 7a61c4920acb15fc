import random
import warnings

import pytest
from hypothesis import strategies as st

from netcrit.simulator import Scenario
from netcrit.topology import NodeRole, Topology, parse_topology, validate_topology

# When a Hypothesis test fails, its report imports hypothesis.extra._patching,
# which imports the installed mypy_extensions, which warns DeprecationWarning.
# Under -W error that warning becomes a pytest INTERNALERROR that hides the
# falsifying example, so import the module once here with the warning ignored.
with warnings.catch_warnings():
    warnings.simplefilter("ignore", DeprecationWarning)
    try:
        import hypothesis.extra._patching  # noqa: F401
    except ImportError:  # absent from some Hypothesis releases or installs
        pass

MM1_TEXT = "node S sink\nnode R router\nnode G generator\nedge S R\nedge R G\n"


@pytest.fixture
def mm1_topology() -> Topology:
    """Single-queue micro topology: one generator, one router, the sink."""
    return parse_topology(MM1_TEXT, name="mm1")


@pytest.fixture
def path3_topology() -> Topology:
    """Path graph a-b-c with valid roles (generator, router, sink)."""
    return parse_topology(
        "node a generator\nnode b router\nnode c sink\nedge a b\nedge b c\n",
        name="path3",
    )


def make_random_topology(
    rng: random.Random,
    max_routers: int = 6,
    max_generators: int = 3,
    extra_edge_prob: float = 0.35,
    multihome_prob: float = 0.0,
) -> Topology:
    """Random valid topology: connected router core, one sink, some generators.

    With probability ``multihome_prob`` a generator also links to a second,
    distinct router. ``rng`` is drawn for that only when the probability is
    above 0, so every seed builds the same topology at the default.
    """
    n_routers = rng.randint(1, max_routers)
    routers = [f"r{i}" for i in range(n_routers)]
    edges: list[tuple[str, str]] = []
    for i in range(1, n_routers):
        edges.append((routers[rng.randrange(i)], routers[i]))
    present = {frozenset(e) for e in edges}
    for i in range(n_routers):
        for j in range(i + 1, n_routers):
            pair = (routers[i], routers[j])
            if frozenset(pair) not in present and rng.random() < extra_edge_prob:
                edges.append(pair)
                present.add(frozenset(pair))
    edges.append(("S", routers[rng.randrange(n_routers)]))
    n_gens = rng.randint(1, max_generators)
    gens = [f"g{i}" for i in range(n_gens)]
    for g in gens:
        first = routers[rng.randrange(n_routers)]
        edges.append((g, first))
        if multihome_prob > 0 and n_routers > 1 and rng.random() < multihome_prob:
            edges.append((g, rng.choice([r for r in routers if r != first])))
    t = Topology(
        name="random",
        nodes=tuple(
            [("S", NodeRole.SINK)]
            + [(r, NodeRole.ROUTER) for r in routers]
            + [(g, NodeRole.GENERATOR) for g in gens]
        ),
        edges=tuple(edges),
    )
    validate_topology(t)
    return t


def chorded_ring_text(routers: int = 80) -> str:
    """Routers 1..n on a ring, with a chord to the router 8 ahead from every
    fourth one and across the ring from every tenth: many equal-length paths,
    so betweenness sums many fractional path counts. The sink links to routers
    1 and n/2 + 1 and a generator hangs off every fifth router."""
    def ahead(i: int, k: int) -> int:
        return (i + k - 1) % routers + 1

    half = routers // 2
    lines = ["node S sink"] + [f"node {i} router" for i in range(1, routers + 1)]
    gens = range(1, routers + 1, 5)
    lines += [f"node G{i} generator" for i in gens]
    lines += [f"edge {i} {ahead(i, 1)}" for i in range(1, routers + 1)]
    lines += [f"edge {i} {ahead(i, 8)}" for i in range(1, routers + 1, 4)]
    lines += [f"edge {i} {ahead(i, half)}" for i in range(3, half + 1, 10)]
    lines += ["edge S 1", f"edge S {half + 1}"]
    lines += [f"edge G{i} {i}" for i in gens]
    return "\n".join(lines) + "\n"


@st.composite
def topologies(draw, max_routers: int = 6, max_generators: int = 3,
               multihome_prob: float = 0.0):
    seed = draw(st.integers(min_value=0, max_value=2**32 - 1))
    return make_random_topology(random.Random(seed), max_routers, max_generators,
                                multihome_prob=multihome_prob)


@st.composite
def scenarios(draw, ids):
    """A scenario built through ``Scenario.stable``, ``.dos`` or ``.ddos``,
    its targets drawn from the strategy ``ids``."""
    kind = draw(st.sampled_from(["stable", "dos", "ddos"]))
    if kind == "stable":
        return Scenario.stable()
    p = draw(st.floats(min_value=0.0, max_value=1.0, exclude_min=True))
    if kind == "dos":
        return Scenario.dos(draw(ids), p)
    return Scenario.ddos(draw(st.lists(ids, min_size=1, max_size=4, unique=True)), p)
