"""Deterministic random-number handling.

Every stochastic component in this package takes a ``seed`` argument that may
be ``None`` (fresh entropy), an integer, or an existing
:class:`numpy.random.Generator`. :func:`ensure_rng` normalizes all three so
experiments can pin seeds end to end and regenerate identical figures.
"""

from __future__ import annotations

# Imported here, not on the first draw: numpy loads ``numpy.random`` on
# first attribute access, which would land in a caller's first timed call.
from numpy.random import Generator, SeedSequence, default_rng

SeedLike = "int | Generator | SeedSequence | None"


def ensure_rng(seed=None) -> Generator:
    """Return a :class:`numpy.random.Generator` for *seed*.

    Parameters
    ----------
    seed:
        ``None`` (OS entropy), an ``int``, a ``numpy.random.SeedSequence``, or
        an existing ``Generator`` (returned unchanged so callers can thread a
        single stream through a pipeline).
    """
    if isinstance(seed, Generator):
        return seed
    return default_rng(seed)


def spawn_rngs(seed, n: int) -> list[Generator]:
    """Split *seed* into *n* independent generators.

    Used by batch experiments that run *n* trials in a loop but must keep the
    trials statistically independent and individually reproducible.
    """
    if n < 0:
        raise ValueError(f"cannot spawn a negative number of rngs: {n}")
    if isinstance(seed, Generator):
        # Derive children from the generator's own stream.
        seeds = seed.integers(0, 2**63 - 1, size=n)
        return [default_rng(int(s)) for s in seeds]
    ss = SeedSequence(seed)
    return [default_rng(child) for child in ss.spawn(n)]
