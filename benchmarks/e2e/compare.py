"""Compare two sets of benchmark results: ``compare.py BASE NEW``.

BASE and NEW are result files written by ``run.py --out``; each side may be
a comma-separated list of files (several runs of one commit).  For every
(end-to-end metric, workload) the verdict is one of

* ``worse``      — NEW's median is worse than BASE's by more than the
  metric's bound in ``BENCHMARK.json``;
* ``better``     — NEW wins at least nine tenths of the run pairs (ties
  count for neither) and the medians differ by more than the distance
  between BASE's own quartiles (with one run a side: by more than the bound);
* ``unresolved`` — a value is missing, or BASE's own runs spread wider than
  the bound and the two sides overlap;
* ``same``       — none of the above.

Every ratio is printed with its base.  Per-layer metrics are listed below
without a verdict: they have no bound.  Exits 1 if anything is ``worse``.
"""

from __future__ import annotations

import json
import statistics
import sys
from pathlib import Path

SPEC = json.loads((Path(__file__).resolve().parents[2] / "BENCHMARK.json").read_text())


def quartiles(values: list[float]) -> tuple[float, float, float]:
    """``(q1, median, q3)``; one value is its own quartiles."""
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, _, q3 = statistics.quantiles(values, n=4)
    return q1, statistics.median(values), q3


def verdict(base: list[float], new: list[float], better: str, bound: float) -> str:
    """The verdict for one metric on one workload (see the module docstring)."""
    if not base or not new:
        return "unresolved"
    sign = 1.0 if better == "higher" else -1.0
    q1, base_median, q3 = quartiles(base)
    new_median = statistics.median(new)
    gain = sign * (new_median - base_median)  # positive = NEW is better
    allowed = bound * abs(base_median)
    if len(base) > 1 and q3 - q1 > allowed:
        # Too noisy for the bound to mean anything, unless the sides are disjoint.
        if min(sign * v for v in new) > max(sign * v for v in base):
            return "better"
        if max(sign * v for v in new) < min(sign * v for v in base) and -gain > allowed:
            return "worse"
        return "unresolved"
    if -gain > allowed:
        return "worse"
    pairs = [sign * (n - b) for b, n in zip(base, new)]
    wins, losses = sum(p > 0 for p in pairs), sum(p < 0 for p in pairs)
    noise = q3 - q1 if len(base) > 1 else allowed
    if wins and wins >= 0.9 * (wins + losses) and gain > noise:
        return "better"
    return "same"


def load(side: str, section: str) -> dict:
    """``{(workload, metric): [value per file]}`` for one side's files."""
    values: dict[tuple[str, str], list[float]] = {}
    for path in side.split(","):
        summary = json.loads(Path(path).read_text())
        for workload, result in summary["workloads"].items():
            for metric, value in result[section].items():
                if value is not None:
                    values.setdefault((workload, metric), []).append(value)
    return values


def describe(values: list[float]) -> str:
    if not values:
        return f"{'-':>12}"
    q1, median, q3 = quartiles(values)
    return f"{median:12.4f}" + (f" [{q1:.4f}, {q3:.4f}]" if len(values) > 1 else "")


def compare(base_side: str, new_side: str) -> list[tuple]:
    """Rows ``(workload, metric, base values, new values, verdict or None)``."""
    rows = []
    for section in ("end_to_end", "per_layer"):
        base, new = load(base_side, section), load(new_side, section)
        specs = {spec["name"]: spec for spec in SPEC[section]}
        for key in sorted(set(base) | set(new)):
            spec = specs.get(key[1], {})
            decided = (
                verdict(base.get(key, []), new.get(key, []), spec["better"], spec["bound"])
                if "bound" in spec
                else None
            )
            rows.append((*key, base.get(key, []), new.get(key, []), decided))
    return rows


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    if len(argv) != 2:
        print(__doc__.split("\n\n")[0], file=sys.stderr)
        return 2
    rows = compare(*argv)
    for workload, metric, base, new, decided in rows:
        both = base and new and statistics.median(base)
        shown = f"{statistics.median(new) / statistics.median(base):8.4f}x of" if both else " " * 11
        print(
            f"{workload:<13} {metric:<36} {describe(new)}  {shown} {describe(base)}"
            f"  {decided or ''}"
        )
    counts = {
        name: sum(row[4] == name for row in rows)
        for name in ("better", "same", "worse", "unresolved")
    }
    print(" ".join(f"{name}={count}" for name, count in counts.items()))
    return 1 if counts["worse"] else 0


if __name__ == "__main__":
    sys.exit(main())
