"""Deterministic random-number helpers.

Every stochastic component (traffic sources, measurement jitter) takes an
explicit :class:`numpy.random.Generator`.  These helpers centralise creation
so experiments are reproducible bit-for-bit from a single integer seed.
"""

from __future__ import annotations

import numpy as np


def make_rng(seed: "int | np.random.Generator | None" = 0) -> "np.random.Generator":
    """Return a Generator for *seed*.

    Passing an existing Generator returns it unchanged, so APIs can accept
    either a seed or a generator.  ``None`` gives OS entropy (only sensible
    in interactive exploration, never in tests or benchmarks).
    """
    if isinstance(seed, np.random.Generator):
        return seed
    return np.random.default_rng(seed)


def spawn_rng(rng: "np.random.Generator", count: int) -> "list[np.random.Generator]":
    """Derive *count* independent child generators from *rng*.

    Used to give each traffic source its own stream so adding a source does
    not perturb the draws seen by existing ones.
    """
    return [np.random.default_rng(s) for s in rng.bit_generator.seed_seq.spawn(count)]
