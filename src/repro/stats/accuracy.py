"""Estimation-accuracy heuristics.

Remos attaches "a measure of estimation accuracy" to every dynamic value
(§4.4) — e.g. an average over few samples deserves less trust than one over
many.  The heuristic here combines sample count and relative variability;
both the exact shape and its parameters are implementation choices (the
paper prescribes the *existence* of the measure, not a formula).
"""

from __future__ import annotations

import numpy as np

from repro.stats.quartiles import five_number, sorted_with_mean


def quartile_accuracy(n: int, q1: float, median: float, q3: float) -> float:
    """Accuracy in [0, 1] from a (positive) sample count and its inner quartiles.

    * grows with the number of samples (saturating around ~30 samples,
      the usual small-sample threshold);
    * shrinks with relative dispersion (IQR/median), since a highly
      variable series pins down the "true" level less well.
    """
    # numpy's exp, not libm's: the two differ in the last bit for some
    # arguments, and every committed accuracy was computed with numpy's.
    count_term = 1.0 - np.exp(-n / 10.0)
    if n == 1:
        return float(0.5 * count_term)
    scale = max(abs(median), 1e-12)
    dispersion = (q3 - q1) / scale
    dispersion_term = 1.0 / (1.0 + dispersion)
    return min(1.0, max(0.0, float(count_term * dispersion_term)))


def sample_accuracy(values) -> float:
    """:func:`quartile_accuracy` of raw samples (0.0 for none)."""
    ordered, _ = sorted_with_mean(values)
    return quartile_accuracy(len(ordered), *five_number(ordered)[1:4]) if ordered else 0.0
