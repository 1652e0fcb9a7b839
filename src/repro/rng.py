"""Random-number-generation utilities.

Every stochastic entry point in the library accepts either an integer seed, a
:class:`numpy.random.Generator`, or ``None`` (fresh OS entropy).  This module
centralises the conversion logic and provides helpers to spawn independent
child streams for parallel sweeps, so that experiments are reproducible and
embarrassingly parallel at the same time.

The convention mirrors ``scikit-learn``'s ``check_random_state`` but targets
the modern :class:`numpy.random.Generator` API.
"""

from __future__ import annotations

import numpy as np

__all__ = [
    "SeedLike",
    "as_generator",
    "spawn_generators",
    "spawn_seeds",
    "stable_seed",
]

#: Accepted types for the ``rng`` / ``seed`` arguments across the library.
SeedLike = int | np.random.Generator | np.random.SeedSequence | None


def as_generator(seed: SeedLike = None) -> np.random.Generator:
    """Return a :class:`numpy.random.Generator` for *seed*.

    Parameters
    ----------
    seed:
        ``None`` for fresh OS entropy, an ``int`` for a deterministic stream,
        a :class:`numpy.random.SeedSequence`, or an existing ``Generator``
        which is returned unchanged (not copied).

    Examples
    --------
    >>> gen = as_generator(42)
    >>> gen2 = as_generator(42)
    >>> float(gen.random()) == float(gen2.random())
    True
    """
    if isinstance(seed, np.random.Generator):
        return seed
    if isinstance(seed, np.random.SeedSequence):
        return np.random.default_rng(seed)
    if seed is None:
        return np.random.default_rng()
    if isinstance(seed, (int, np.integer)):
        if seed < 0:
            raise ValueError(f"seed must be non-negative, got {seed}")
        return np.random.default_rng(int(seed))
    raise TypeError(
        "seed must be None, an int, a numpy SeedSequence, or a numpy "
        f"Generator; got {type(seed).__name__}"
    )


def spawn_generators(seed: SeedLike, count: int) -> list[np.random.Generator]:
    """Spawn *count* statistically independent generators from *seed*.

    Independence is guaranteed by :class:`numpy.random.SeedSequence` spawning,
    so workers in a process pool can each receive their own stream without any
    cross-correlation, while the whole sweep stays reproducible from a single
    root seed.
    """
    if count < 0:
        raise ValueError(f"count must be non-negative, got {count}")
    if isinstance(seed, np.random.Generator):
        # Derive a seed sequence from the generator's own bit stream so that
        # repeated calls keep producing fresh, independent children.
        entropy = int(seed.integers(0, 2**63 - 1))
        root = np.random.SeedSequence(entropy)
    elif isinstance(seed, np.random.SeedSequence):
        root = seed
    elif seed is None:
        root = np.random.SeedSequence()
    else:
        root = np.random.SeedSequence(int(seed))
    return [np.random.default_rng(child) for child in root.spawn(count)]


def spawn_seeds(seed: SeedLike, count: int) -> list[int]:
    """Derive *count* independent integer seeds from *seed*.

    Useful when child tasks must be described by picklable plain integers
    (e.g. when dispatching to a process pool).
    """
    generators = spawn_generators(seed, count)
    return [int(gen.integers(0, 2**63 - 1)) for gen in generators]


def stable_seed(*parts: int | str) -> int:
    """Derive a deterministic 63-bit seed from a sequence of labels.

    This lets experiment code derive per-configuration seeds from semantic
    identifiers (experiment id, population size, gap, replicate index) so that
    adding configurations to a sweep never perturbs existing ones.

    Examples
    --------
    >>> stable_seed("T1R1-SD", 1024, 16) == stable_seed("T1R1-SD", 1024, 16)
    True
    >>> stable_seed("T1R1-SD", 1024, 16) != stable_seed("T1R1-SD", 1024, 17)
    True
    """
    if not parts:
        raise ValueError("stable_seed requires at least one part")
    import hashlib

    digest = hashlib.sha256("\x1f".join(str(part) for part in parts).encode("utf-8"))
    return int.from_bytes(digest.digest()[:8], "big") >> 1
