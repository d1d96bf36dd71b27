"""Deterministic random-number-generator plumbing.

Every stochastic routine in the package accepts a ``seed`` argument that may
be ``None``, an integer, or a ready-made :class:`numpy.random.Generator`.
Centralising the conversion here keeps experiment runs reproducible: the
benchmark harness passes integer seeds around and derives independent child
seeds for repeated runs via :func:`derive_seed`.
"""

from __future__ import annotations

from typing import Union

import numpy as np

SeedLike = Union[None, int, np.random.Generator, np.random.SeedSequence]


def as_rng(seed: SeedLike = None) -> np.random.Generator:
    """Coerce ``seed`` into a :class:`numpy.random.Generator`.

    ``None`` produces a non-deterministic generator; an ``int`` or
    :class:`numpy.random.SeedSequence` produces a deterministic one; an
    existing generator is returned unchanged (not copied), so callers that
    share a generator share its stream.
    """
    if isinstance(seed, np.random.Generator):
        return seed
    return np.random.default_rng(seed)


def spawn_rngs(seed: SeedLike, count: int) -> list[np.random.Generator]:
    """Create ``count`` statistically independent generators from one seed.

    Used by the sensitivity experiment (10 runs per configuration) and by the
    simulated threads, each of which owns a private stream.
    """
    if count < 0:
        raise ValueError(f"count must be non-negative, got {count}")
    if isinstance(seed, np.random.Generator):
        # Derive children through the generator itself to stay deterministic
        # with respect to its current state.
        seeds = seed.integers(0, 2**63 - 1, size=count)
        return [np.random.default_rng(int(s)) for s in seeds]
    seq = seed if isinstance(seed, np.random.SeedSequence) else np.random.SeedSequence(seed)
    return [np.random.default_rng(child) for child in seq.spawn(count)]


def derive_seed(seed: int, *components: int) -> int:
    """Derive a new 63-bit seed from ``seed`` and an index path.

    Deterministic and order-sensitive: ``derive_seed(s, 1, 2)`` differs from
    ``derive_seed(s, 2, 1)``. Used to key (graph, algorithm, run-index)
    triples in the benchmark harness.
    """
    seq = np.random.SeedSequence([seed, *components])
    return int(seq.generate_state(1, dtype=np.uint64)[0] & (2**63 - 1))
