"""Reproducible random substreams for the simulator.

Every stochastic actor in a run (each traffic generator and each router)
owns an independent PCG64 stream whose seed is derived from the run seed and
the actor's identity via SHA-256. Splitting this way means adding
or removing one node never perturbs any other node's draws, and a run is a
pure function of (topology, config, scenario, seed).

A stream draws its uniforms from numpy in chunks and hands them out one by
one. The fast path relies on PCG64's ``random(n)`` being chunk-size
independent: k calls of ``random(n)`` yield the same doubles as one call of
``random(k * n)``, so ``_CHUNK`` sets only the buffer size (256 doubles,
one 2 KB numpy buffer per stream), never the draws.
"""

from __future__ import annotations

import functools
import itertools
from typing import Callable

import numpy as np

_CHUNK = 256
_SEP = b"\x1f"  # unit separator; cannot appear in whitespace-free node ids


def substream_seed(seed: int, *scope: str) -> int:
    """Derive a 128-bit PCG64 seed from the run seed and a scope path."""
    # Imported here so that `netcrit metrics`, which seeds no stream, does not map
    # libcrypto (~3.4 MB). A run maps it anyway: numpy.random imports secrets,
    # hmac and _hashlib as soon as it builds a PCG64.
    import hashlib
    if not 0 <= seed < 2**64:
        raise ValueError("seed must be an unsigned 64-bit integer")
    material = seed.to_bytes(8, "little") + _SEP + _SEP.join(s.encode("utf-8") for s in scope)
    return int.from_bytes(hashlib.sha256(material).digest()[:16], "little")


def stream(seed: int, *scope: str) -> Callable[[], float]:
    """Draw callable of one actor's stream, e.g. stream(seed, "router", "5").

    Each call returns the next uniform in [0, 1). It is ``next`` over the
    chained chunks, each read through a ``memoryview`` of its float64 array,
    so a draw is one C-level call that boxes one double as a Python float.
    The stream holds the chunk's 2 KB buffer, not 256 float objects.
    """
    gen = np.random.Generator(np.random.PCG64(substream_seed(seed, *scope)))
    chunks = iter(lambda: memoryview(gen.random(_CHUNK)), None)
    return functools.partial(next, itertools.chain.from_iterable(chunks))
