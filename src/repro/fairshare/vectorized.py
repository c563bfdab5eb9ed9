"""Numpy water-filling kernel for flow queries: six levels in one run.

The scalar filling loop in :mod:`repro.fairshare.maxmin` is pure-Python
dict arithmetic: fine for one capacity mapping, but the dominant cost of a
256-host ``flow_info_batch`` sweep (hundreds of demands × six load levels
× three stages).  :func:`fill` re-expresses one filling step as a fixed
sequence of array operations —

* per-resource active weight sums via ``np.bincount`` over a CSR-style
  (demand, resource) incidence entry list,
* the uniform increment ``theta`` as a masked min over
  ``remaining / weight_sum`` and capped-flow headroom,
* rate/remaining updates and saturation detection as element-wise kernels
  with frozen demands and unpressured resources masked to ``+0.0`` —

and runs that step for **every capacity level at once**.  A flow query is
one demand set read at six availability levels (five quartiles and the
mean) that differ only in the capacity row, and at 30–360 elements a numpy
call costs its dispatch, not its arithmetic: so ``remaining`` and
``thresholds`` carry a leading level axis, every array above gains that
axis, and one loop — whose trip count is the slowest level's, not the sum —
fills them all.  :func:`fill_stages` chains the kernel through the three
allocation stages over one ``(levels, resources)`` block; both flow-query
evaluators reach the kernel through it — ``StagedProblem.solve_levels``
(:mod:`repro.fairshare.allocator`, under the plan) and the array evaluator
in :mod:`repro.core.snaparrays` — and nothing outside this package calls
:func:`fill` itself.

Answers match the scalar path **bit for bit**, level by level.  Every
float operation is performed by the same IEEE-754 rule in the same order
the scalar loop uses:

* ``np.bincount`` accumulates ``out[id[i]] += w[i]`` sequentially in entry
  order, and the entry list is laid out in (demand order, position) order
  — exactly the order ``MaxMinProblem._weight_sum`` adds weights.  Masked
  (frozen) entries contribute ``+0.0``, which never changes the bits of a
  running sum of positive weights;
* rebuilding every weight sum per step is bitwise identical to the scalar
  loop's incremental maintenance (that is the scalar loop's own documented
  invariant vs the full rebuild);
* ``min`` reductions are order-insensitive for the NaN-free operands that
  can occur here, divisions/multiplications are element-wise IEEE doubles,
  and the eager per-step rate update performs the same multiply-add
  sequence the scalar loop's deferred ``materialise`` replay performs;
* multi-saturation bottleneck attribution orders resources by their first
  active incidence entry, which equals the scalar ``_pressure_rank``
  (entry order **is** (demand, position) lexicographic order).

The level axis adds nothing to any level's operation sequence:

* entries are keyed ``level * R + resource`` (and ``level * n + demand``),
  level-major, so a level's bins receive that level's entries only, in
  entry order — one ``bincount`` is L independent sequential sums — and
  attribution compares keys that carry their level, so levels never
  compete for a demand;
* a level that has finished has every weight masked: its pressure is
  zero, nothing of it is live or capped, its ``theta`` is set to 0, and the
  full-matrix updates add ``0 * (+0.0)`` to its rates and subtract it from
  its residuals — the same bit-preserving no-op frozen demands already
  rely on.  It idles, untouched, until the slowest level is done, and its
  iteration count stops with it;
* a running level whose ``theta`` is inf (only uncapped flows over
  unconstrained resources left) is finished explicitly — rates to inf,
  weights to zero — *before* the multiply, so ``inf * 0`` never forms; and
  capped headroom is computed under its mask only (``caps - rates`` is
  ``inf - inf`` for such a flow);
* the clamp ``max(0.0, theta)`` is written ``where(theta > 0, theta, 0)``:
  Python's semantics exactly (−0.0 and NaN both give +0.0), which
  ``np.maximum`` does not promise for either operand order.

The differential fuzz suite (``tests/fairshare/test_vectorized_maxmin.py``)
asserts exact equality — rates, bottlenecks, residuals, iteration counts —
against the scalar oracle on adversarial demand sets, one level and many.

Which kernel answers
--------------------
The shape of the problem decides, never a setting.  A query against an
epoch (six levels of one demand set) runs this kernel: the array
evaluator in :mod:`repro.core.snaparrays` for every single-cell unicast
scenario, and ``StagedProblem.solve_levels`` from :data:`MIN_DEMANDS`
flows up (multicast and cross-shard scenarios).  A one-shot problem —
``MaxMinProblem.solve``, the simulator's ``weighted_max_min`` — runs the
scalar loop in :mod:`repro.fairshare.maxmin`, which is faster there than
the array setup costs.
"""

from __future__ import annotations

from typing import Hashable

import numpy as np

from repro.util.errors import ConfigurationError

#: ``StagedProblem.solve_levels`` fills every level in one run from this
#: many flows up and solves level by level below: a one-shot problem pays
#: for its array build, which a few flows do not earn back.  The build-
#: included crossover sits between 6 (a tie) and 8 flows (×1.1–1.2):
#: ``evaluator_crossover.one_shot`` in BENCH_scale.json, PERFORMANCE §8.
MIN_DEMANDS = 8


class KeySpace:
    """A growable resource-key ↔ integer-id interning table.

    Shared across the problems of one epoch (see
    :class:`repro.core.snaparrays.SnapshotArrays`) so route→resource rows
    can be materialised once as id arrays and reused by every scenario's
    :class:`DemandArrays` without re-hashing the keys.
    """

    __slots__ = ("index", "keys")

    def __init__(self) -> None:
        self.index: dict[Hashable, int] = {}
        self.keys: list[Hashable] = []

    def intern(self, key: Hashable) -> int:
        """The stable id for *key*, allocating one on first sight."""
        ident = self.index.get(key)
        if ident is None:
            ident = len(self.keys)
            self.index[key] = ident
            self.keys.append(key)
        return ident

    def intern_row(self, resources: tuple) -> "np.ndarray":
        """An int64 id array for a resource tuple (one entry per occurrence)."""
        intern = self.intern
        return np.array([intern(key) for key in resources], dtype=np.int64)

    def __len__(self) -> int:
        return len(self.keys)


class DemandArrays:
    """The frozen array form of one allocation stage's demand set.

    Built once per stage and reused across every capacity level the stage
    is filled at — the same amortisation contract as the scalar crossing
    index.

    The incidence entry list pairs ``ent_dem[i]`` (demand index) with
    ``ent_local[i]`` (position of the resource's interned id in
    ``res_ids``), laid out in (demand order, position-within-tuple) order
    — one entry per occurrence, exactly mirroring the scalar ``_crossing``
    lists.
    """

    __slots__ = (
        "n",
        "weights",
        "caps",
        "capped_mask",
        "ent_dem",
        "res_ids",
        "res_keys",
        "ent_local",
        "init_w_active",
        "n_init_active",
    )

    def __init__(self, demands, keyspace: KeySpace | None = None):
        """Intern *demands*' resources into *keyspace* (a fresh one if None):
        the stages of one staged problem share a keyspace, so their id
        columns index one capacity block."""
        if keyspace is None:
            keyspace = KeySpace()
        n = len(demands)
        weights = np.empty(n, dtype=np.float64)
        caps = np.empty(n, dtype=np.float64)
        rows = []
        for i, demand in enumerate(demands):
            weights[i] = demand.weight
            caps[i] = demand.cap
            rows.append(keyspace.intern_row(demand.resources))
        self._build(weights, caps, rows, keyspace)

    @classmethod
    def from_columns(cls, weights, caps, rows, keyspace: KeySpace) -> "DemandArrays":
        """Build directly from float columns + interned rows (batch path).

        The batched ``flow_info`` evaluator derives weights/caps straight
        from :class:`~repro.core.flows.Flow` fields — same values the
        staged :class:`~repro.fairshare.allocator.FlowRequest` →
        :class:`~repro.fairshare.maxmin.Demand` chain would carry — so no
        per-scenario dataclass objects are materialised.
        """
        self = cls.__new__(cls)
        self._build(
            np.asarray(weights, dtype=np.float64),
            np.asarray(caps, dtype=np.float64),
            rows,
            keyspace,
        )
        return self

    def _build(self, weights, caps, rows, keyspace: KeySpace) -> None:
        from repro.fairshare.maxmin import _RATE_FLOOR

        n = len(weights)
        self.n = n
        self.weights = weights
        self.caps = caps
        init_active = caps > _RATE_FLOOR
        self.capped_mask = init_active & (caps != np.inf)

        counts = np.fromiter((len(row) for row in rows), dtype=np.int64, count=n)
        self.ent_dem = np.repeat(np.arange(n, dtype=np.int64), counts)
        ent_res = np.concatenate(rows) if rows else np.empty(0, dtype=np.int64)
        # Compress the referenced ids to a local 0..R-1 space; ``res_ids``
        # ascends, so ``res_keys`` is deterministic given the keyspace.
        self.res_ids, self.ent_local = np.unique(ent_res, return_inverse=True)
        keys = keyspace.keys
        self.res_keys = [keys[ident] for ident in self.res_ids.tolist()]
        # Pre-masked initial weights, copied (not rebuilt) by every fill.
        self.init_w_active = np.where(init_active, weights, 0.0)
        self.n_init_active = int(np.count_nonzero(init_active))


def fill(arrays: DemandArrays, remaining, present, thresholds):
    """Progressive filling of every capacity level in one loop.

    *remaining* ``(L, R)`` holds one stage-local capacity row per level
    (drained **in place**), *thresholds* ``(L, R)`` the entry-clamped
    relative saturation cutoffs, and *present* ``(R,)`` (every level) or
    ``(L, R)`` (per level) marks the local resources that are
    capacity-constrained; columns index
    ``arrays.res_ids`` positionally.  Returns ``(rates (L, n), bottleneck
    (L, n), iterations (L,))`` where ``bottleneck[l, i]`` is the local
    resource index that froze demand *i* at level *l* (−1 =
    demand-limited).  Each level is bit-identical to the scalar loop run
    on its row alone — see the module docstring for the argument.
    """
    from repro.fairshare.maxmin import _EPS

    L = remaining.shape[0]
    n = arrays.n
    R = len(arrays.res_ids)
    weights = arrays.weights
    caps = arrays.caps
    inf = np.inf
    # ``count(mask)`` for ``mask.any()``: a third of the dispatch cost on
    # arrays this small, and the loop asks four times a step.
    count = np.count_nonzero

    rates = np.zeros((L, n), dtype=np.float64)
    bottleneck = np.full((L, n), -1, dtype=np.int64)
    iterations = np.zeros(L, dtype=np.int64)
    step_frozen = np.zeros((L, n), dtype=bool)
    flat_bottleneck = bottleneck.reshape(-1)
    flat_frozen = step_frozen.reshape(-1)

    # Masked views maintained incrementally: a frozen demand's weight slot
    # and incidence entries are zeroed, so they contribute +0.0 to every
    # later sum, and ``> 0`` reads "still active" (weights are strictly
    # positive).  One row per level; a level with no active demand left is
    # all zeros and takes steps of ``theta = 0`` until the slowest is done.
    w_active = np.empty((L, n), dtype=np.float64)
    w_active[:] = arrays.init_w_active
    flat_w_active = w_active.reshape(-1)
    n_active = np.full(L, arrays.n_init_active, dtype=np.int64)

    # Every incidence entry of every level, keyed ``level * R + resource``
    # and ``level * n + demand``: level-major, entry order within a level.
    level = np.arange(L, dtype=np.int64)
    ent_res = np.add.outer(level * R, arrays.ent_local).reshape(-1)
    ent_dem = np.add.outer(level * n, arrays.ent_dem).reshape(-1)
    ent_weights = flat_w_active[ent_dem]
    firsts = np.empty(L * R, dtype=np.int64)

    capped = arrays.capped_mask if arrays.capped_mask.any() else None
    cap_floor = caps * (1.0 - _EPS)
    ratio = np.empty((L, R), dtype=np.float64)
    headroom = np.empty((L, n), dtype=np.float64)

    running = n_active > 0
    while count(running):
        iterations += running

        # Per-resource pressure: active crossers' weights summed in entry
        # order (bincount accumulates sequentially, a level's bins receive
        # that level's entries only, and frozen entries add +0.0, which
        # cannot perturb a running sum of positive weights).
        wsum = np.bincount(ent_res, weights=ent_weights, minlength=L * R).reshape(L, R)
        live = present & (wsum > 0.0)

        ratio.fill(inf)
        np.divide(remaining, wsum, out=ratio, where=live)
        theta = ratio.min(axis=1, initial=inf)
        if capped is not None:
            # Under the mask only: ``caps - rates`` is ``inf - inf`` for a
            # finished uncapped flow.
            capped_active = capped & (w_active > 0.0)
            headroom.fill(inf)
            np.subtract(caps, rates, out=headroom, where=capped_active)
            np.divide(headroom, weights, out=headroom, where=capped_active)
            theta = np.minimum(theta, headroom.min(axis=1, initial=inf))

        # ``theta`` reads inf for a level that has finished (nothing live,
        # nothing capped: it idles on steps of 0 until the slowest is done)
        # and for a running level with only uncapped flows over
        # unconstrained resources left, which finishes here — before the
        # multiply, so ``inf * 0`` never forms.
        unbounded = theta == inf
        theta[unbounded] = 0.0
        done = unbounded & running
        if count(done):
            rates[(w_active > 0.0) & done[:, None]] = inf
            w_active[done] = 0.0
            if capped is not None:
                # A capped flow here had overflowing headroom; the cap test
                # below must not pull its inf back to the cap.
                capped_active[done] = False
            n_active[done] = 0
            running = n_active > 0
            if not count(running):
                break
            live[done] = False

        # Python's ``max(0.0, theta)``, -0.0 and NaN included.
        theta = np.where(theta > 0.0, theta, 0.0)[:, None]

        # Eager rate update, full-matrix: frozen demands add
        # ``theta * +0.0`` to a rate that is never -0.0 — a bit-preserving
        # no-op — while active demands see the same multiply-add sequence
        # as the scalar loop (eager for capped, deferred-replay for
        # uncapped — the replay performs these exact operations).
        rates += theta * w_active

        # Drain resources, full-matrix: unpressured resources lose
        # ``x - theta*(+0.0) == x`` bitwise (subtracting +0.0 preserves
        # every float, including -0.0); resources outside ``present`` may
        # drift but are never read.  Saturation stays live-masked.
        remaining -= theta * wsum
        sat = live & (remaining <= thresholds)
        if count(sat):
            np.maximum(0.0, remaining, out=remaining, where=sat)
            # Entries of still-active demands crossing a saturated resource.
            hit_ent = ((ent_weights > 0.0) & sat.reshape(-1)[ent_res]).nonzero()[0]
            sat_dem = ent_dem[hit_ent]
            sat_res = ent_res[hit_ent]
            # Attribute each demand to the saturated resource whose first
            # active incidence entry comes earliest == the scalar
            # ``_pressure_rank`` order (entry order is (demand, position)
            # lexicographic order); the demand's first-processed resource
            # wins, exactly as the scalar loop's in-order freeze does.
            # Keys carry the level, so levels never compete.  A repeated
            # index keeps its last assignment: ``hit_ent`` ascends, so
            # assigning it in reverse leaves each resource its first entry,
            # and assigning resources latest-rank-first leaves each demand
            # its earliest.
            firsts[sat_res[::-1]] = hit_ent[::-1]
            order = firsts[sat_res].argsort()[::-1]
            flat_bottleneck[sat_dem[order]] = sat_res[order] % R
            flat_frozen[sat_dem] = True

        # Freeze flows that reached their cap (bottleneck stays None).
        if capped is not None:
            hit = capped_active & ~step_frozen & (rates >= cap_floor)
            if count(hit):
                np.copyto(rates, caps, where=hit)
                step_frozen |= hit

        frozen = step_frozen.sum(axis=1)
        if count(running & (frozen == 0)):  # pragma: no cover - FP stagnation guard
            raise ConfigurationError(
                "max-min allocation failed to make progress; "
                "check for zero-capacity resources with active flows"
            )

        n_active -= frozen
        running = n_active > 0
        w_active[step_frozen] = 0.0
        # One gather re-masks every level's entries (exact copies of the
        # same ``w_active`` values the zeroed slots would hold).
        ent_weights = flat_w_active[ent_dem]
        step_frozen[:] = False

    return rates, bottleneck, iterations


def fill_stages(stages, remaining, present):
    """The staged fixed → variable → independent chain, every level at once.

    *stages* are the non-empty stages' :class:`DemandArrays` in priority
    order, interned in one :class:`KeySpace`; *remaining* ``(L, K)`` holds
    each level's entry-clamped capacity by interned id and is drained **in
    place**, stage after stage, so each stage sees capacities net of the
    earlier stages' allocations; *present* ``(K,)`` or ``(L, K)`` marks the
    constrained ids.  Returns one :func:`fill` result per stage: one
    filling run per stage over all L levels.
    """
    from repro.fairshare.maxmin import _EPS

    results = []
    for stage in stages:
        local_ids = stage.res_ids
        # ``take``, not ``[:, ids]``: the kernel's row-wise passes want
        # the C layout a fancy column index does not give.
        local_remaining = remaining.take(local_ids, axis=1)
        # Saturation thresholds are relative to this stage's entry-clamped
        # limits, as each scalar stage's own entry clamp makes them.
        thresholds = _EPS * np.maximum(local_remaining, 1.0)
        results.append(
            fill(stage, local_remaining, present.take(local_ids, axis=-1), thresholds)
        )
        remaining[:, local_ids] = local_remaining
    return results

