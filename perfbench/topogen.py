"""Seeded generator of large valid topologies for the metrics-large workload.

Every graph has a fixed node and edge count, so the cost of the metrics
(Brandes is O(V·E)) is nearly the same for every seed while the wiring
differs. The router core is a random spanning tree plus random chords, so it
is connected; the one sink and every generator attach only to routers. Ids
match ``[A-Za-z0-9_]+``. Output depends only on the seed: the same seed gives
byte-identical text.
"""

from __future__ import annotations

import random


def generate(seed: int, routers: int, chords: int, generators: int) -> str:
    """Topology text with ``routers`` routers, one sink and ``generators`` generators.

    The router core has ``routers - 1 + chords`` edges. The sink links to two
    routers and each generator to one.
    """
    if routers < 3 or generators < 1 or chords < 0:
        raise ValueError("need at least 3 routers, 1 generator and chords >= 0")
    if chords > routers * (routers - 1) // 2 - (routers - 1):
        raise ValueError("more chords than the router core has free pairs")
    rng = random.Random(seed)
    names = [f"R{i}" for i in range(routers)]
    edges: list[tuple[str, str]] = []
    present: set[tuple[int, int]] = set()

    def link(i: int, j: int) -> bool:
        pair = (min(i, j), max(i, j))
        if i == j or pair in present:
            return False
        present.add(pair)
        edges.append((names[i], names[j]))
        return True

    order = list(range(routers))
    rng.shuffle(order)
    for k in range(1, routers):
        link(order[rng.randrange(k)], order[k])
    added = 0
    while added < chords:
        added += link(rng.randrange(routers), rng.randrange(routers))

    lines = [f"# perfbench topology: seed {seed}, {routers} routers, {chords} chords, "
             f"{generators} generators", "node S sink"]
    lines += [f"node {n} router" for n in names]
    lines += [f"node G{g} generator" for g in range(generators)]
    lines += [f"edge {u} {v}" for u, v in edges]
    for r in rng.sample(range(routers), 2):
        lines.append(f"edge S {names[r]}")
    for g in range(generators):
        lines.append(f"edge G{g} {names[rng.randrange(routers)]}")
    return "\n".join(lines) + "\n"
