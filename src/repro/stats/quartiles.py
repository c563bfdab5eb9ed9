"""Quartile-based statistical summaries.

A :class:`StatMeasure` is the unit in which Remos reports every dynamic
quantity: five quartiles (min, q1, median, q3, max), the mean (for
convenience), the sample count, and an *accuracy* in [0, 1] expressing how
much the estimate should be trusted (1 = invariant physical property,
lower = fewer/noisier samples or a prediction).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from typing import Iterable

try:  # numpy is the optional ``repro[fast]`` accelerator
    import numpy as np
except ImportError:  # pragma: no cover - exercised by the no-numpy smoke test
    np = None

from repro.util.errors import ConfigurationError


def percentiles(ordered: "list[float]", percents: Iterable[float]) -> list[float]:
    """Linear-interpolated percentiles of an already-sorted list.

    ``np.percentile``'s default method in its one-sided
    ``a + (b - a) * frac`` form; the quantile-regression forecaster reads
    its residual quartiles with it.  Sample summaries use
    :func:`five_number`, which is exact to the bit.
    """
    n = len(ordered)
    results = []
    for percent in percents:
        rank = (percent / 100.0) * (n - 1)
        low = math.floor(rank)
        high = math.ceil(rank)
        frac = rank - low
        results.append(ordered[low] + (ordered[high] - ordered[low]) * frac)
    return results


def sorted_with_mean(values: Iterable[float]) -> "tuple[list[float], float]":
    """*values* as ascending Python floats, plus their mean (``[], 0.0`` if empty)."""
    if np is not None:
        data = np.asarray(
            values if isinstance(values, np.ndarray) else list(values), dtype=float
        )
        if data.size:
            # add.reduce / n is ndarray.mean()'s own arithmetic (pairwise sum).
            return np.sort(data).tolist(), float(np.add.reduce(data) / data.size)
    else:
        data = [float(v) for v in values]
        if data:
            return sorted(data), sum(data) / len(data)
    return [], 0.0


def five_number(ordered: "list[float]") -> list[float]:
    """``[min, q1, median, q3, max]`` of an already-sorted, non-empty list.

    Bit-for-bit ``np.percentile(data, [0, 25, 50, 75, 100])``: the same
    virtual index ``(n - 1) * q``, the same two-sided interpolation
    (``a + d*g`` below the midpoint, ``b - d*(1 - g)`` from it on, which
    is monotone where the one-sided form is not), the same treatment of
    the top index and of NaN (which sorts last and poisons every
    quantile) — without numpy's ~100 µs of dispatch per call.
    """
    top = len(ordered) - 1
    last = ordered[top]
    if last != last:
        return [last] * 5
    result = []
    for q in (0.0, 0.25, 0.5, 0.75, 1.0):
        rank = top * q
        if rank >= top:
            low = high = last
            gamma = rank + 1.0  # numpy indexes the top element as -1
        else:
            index = int(rank)
            gamma = rank - index
            low, high = ordered[index], ordered[index + 1]
        diff = high - low
        result.append(high - diff * (1 - gamma) if gamma >= 0.5 else low + diff * gamma)
    return result


@dataclass(frozen=True)
class StatMeasure:
    """Five-number summary + accuracy for one network quantity."""

    minimum: float
    q1: float
    median: float
    q3: float
    maximum: float
    mean: float
    n_samples: int
    accuracy: float

    def __post_init__(self) -> None:
        ordered = (self.minimum, self.q1, self.median, self.q3, self.maximum)
        if any(b < a - 1e-9 * max(abs(a), 1.0) for a, b in zip(ordered, ordered[1:])):
            raise ConfigurationError(f"quartiles must be non-decreasing, got {ordered}")
        if not 0.0 <= self.accuracy <= 1.0:
            raise ConfigurationError(f"accuracy must be in [0,1], got {self.accuracy}")
        if self.n_samples < 0:
            raise ConfigurationError("n_samples must be non-negative")

    # -- constructors ---------------------------------------------------------

    @classmethod
    def from_samples(
        cls, values: Iterable[float], accuracy: float | None = None
    ) -> "StatMeasure":
        """Summarise raw samples; accuracy defaults to a sample-count heuristic.

        One sort serves everything: the five quartiles are read off the
        sorted samples and the default accuracy is derived from those same
        quartiles.
        """
        ordered, mean = sorted_with_mean(values)
        if not ordered:
            raise ConfigurationError("cannot summarise zero samples")
        quartiles = five_number(ordered)
        if accuracy is None:
            from repro.stats.accuracy import quartile_accuracy

            accuracy = quartile_accuracy(len(ordered), *quartiles[1:4])
        return cls(*quartiles, mean=mean, n_samples=len(ordered), accuracy=float(accuracy))

    @classmethod
    def presorted(
        cls,
        quartiles: "tuple[float, float, float, float, float] | list[float]",
        mean: float,
        n_samples: int,
        accuracy: float,
    ) -> "StatMeasure":
        """Construct from an already-sorted five-number summary.

        Skips the ``__post_init__`` re-validation: with *quartiles* coming
        out of a sort the ordering invariant holds by construction (and
        NaN entries disable the tolerance comparison exactly as they do in
        the validating path), so this is behaviour-preserving.  The hot
        answer-assembly loop of the vectorized flow evaluator builds tens
        of thousands of these per batch.
        """
        if not 0.0 <= accuracy <= 1.0:
            raise ConfigurationError(f"accuracy must be in [0,1], got {accuracy}")
        self = object.__new__(cls)
        setattr_ = object.__setattr__
        setattr_(self, "minimum", quartiles[0])
        setattr_(self, "q1", quartiles[1])
        setattr_(self, "median", quartiles[2])
        setattr_(self, "q3", quartiles[3])
        setattr_(self, "maximum", quartiles[4])
        setattr_(self, "mean", mean)
        setattr_(self, "n_samples", n_samples)
        setattr_(self, "accuracy", accuracy)
        return self

    @classmethod
    def constant(cls, value: float) -> "StatMeasure":
        """A physically invariant quantity (link capacity): accuracy 1."""
        return cls(
            minimum=value,
            q1=value,
            median=value,
            q3=value,
            maximum=value,
            mean=value,
            n_samples=1,
            accuracy=1.0,
        )

    # -- derived quantities -----------------------------------------------------

    @property
    def iqr(self) -> float:
        """Interquartile range — the paper's preferred variability measure."""
        return self.q3 - self.q1

    @property
    def spread(self) -> float:
        """Full range max - min."""
        return self.maximum - self.minimum

    @property
    def is_constant(self) -> bool:
        """True when all quartiles coincide (no observed variability)."""
        return self.maximum == self.minimum

    # -- arithmetic ---------------------------------------------------------------

    def scaled(self, factor: float) -> "StatMeasure":
        """Multiply every quantile by *factor* (e.g. utilization -> bits/s)."""
        if factor < 0:
            # Negative scaling flips the ordering.
            return StatMeasure(
                minimum=self.maximum * factor,
                q1=self.q3 * factor,
                median=self.median * factor,
                q3=self.q1 * factor,
                maximum=self.minimum * factor,
                mean=self.mean * factor,
                n_samples=self.n_samples,
                accuracy=self.accuracy,
            )
        return replace(
            self,
            minimum=self.minimum * factor,
            q1=self.q1 * factor,
            median=self.median * factor,
            q3=self.q3 * factor,
            maximum=self.maximum * factor,
            mean=self.mean * factor,
        )

    def shifted(self, offset: float) -> "StatMeasure":
        """Add *offset* to every quantile (e.g. add a latency term)."""
        return replace(
            self,
            minimum=self.minimum + offset,
            q1=self.q1 + offset,
            median=self.median + offset,
            q3=self.q3 + offset,
            maximum=self.maximum + offset,
            mean=self.mean + offset,
        )

    def complement_of(self, total: float) -> "StatMeasure":
        """``total - self``, clamped at zero: turns *used* into *available*.

        Used-bandwidth quartiles map to available-bandwidth quartiles with
        the order reversed (heaviest use = least available).
        """
        clamp = lambda v: max(0.0, total - v)
        return StatMeasure(
            minimum=clamp(self.maximum),
            q1=clamp(self.q3),
            median=clamp(self.median),
            q3=clamp(self.q1),
            maximum=clamp(self.minimum),
            mean=clamp(self.mean),
            n_samples=self.n_samples,
            accuracy=self.accuracy,
        )

    def degraded(self, factor: float) -> "StatMeasure":
        """Copy with accuracy multiplied by *factor* (predictions, merges)."""
        if not 0.0 <= factor <= 1.0:
            raise ConfigurationError(f"degradation factor must be in [0,1], got {factor}")
        return replace(self, accuracy=self.accuracy * factor)

    @staticmethod
    def min_of(a: "StatMeasure", b: "StatMeasure") -> "StatMeasure":
        """Element-wise minimum: the bottleneck of two series resources.

        Exact distributional combination is unknowable from quartiles; the
        element-wise min is the standard conservative approximation when
        collapsing a chain of links into one logical link.
        """
        return StatMeasure(
            minimum=min(a.minimum, b.minimum),
            q1=min(a.q1, b.q1),
            median=min(a.median, b.median),
            q3=min(a.q3, b.q3),
            maximum=min(a.maximum, b.maximum),
            mean=min(a.mean, b.mean),
            n_samples=min(a.n_samples, b.n_samples),
            accuracy=min(a.accuracy, b.accuracy),
        )

    def to_dict(self) -> dict:
        """Plain-data form for JSON export."""
        return {
            "min": self.minimum,
            "q1": self.q1,
            "median": self.median,
            "q3": self.q3,
            "max": self.maximum,
            "mean": self.mean,
            "n_samples": self.n_samples,
            "accuracy": self.accuracy,
        }

    def __str__(self) -> str:
        return (
            f"[{self.minimum:.3g} | {self.q1:.3g} | {self.median:.3g} | "
            f"{self.q3:.3g} | {self.maximum:.3g}] "
            f"(n={self.n_samples}, acc={self.accuracy:.2f})"
        )
