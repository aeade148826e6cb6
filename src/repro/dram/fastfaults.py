"""Array-backed fast path for the VRD device model.

:class:`~repro.dram.faults.RowVrdProcess` is the *specification* of the
device: readable, row-at-a-time, trap-object-per-trap. This module is the
third leg of the repository's equivalence-contract family — alongside
``repro.core.engine`` (parallel campaigns == serial campaigns) and
``repro.memsim.fastcore`` (epoch-batched simulation == per-request loop) —
and promises the same thing at the device layer: every float produced here
is **bit-identical** to the scalar reference, because both paths consume
the same ``numpy.random.Generator`` streams draw for draw.

:class:`BankVrdState` packs the trap parameters, condition-response
coefficients, and weak-cell tables of many rows into flat arrays once, then
serves whole-bank latent-series queries (row-selection guesses, what
``module_campaign``, the Fig. 3-7 histograms/ACF, and the Fig. 25 scatter
consume) without re-deriving per-row state. It is the only fast mirror of
the row constructor; ``RowVrdProcess`` stays the oracle.

The stream-mirror rule
----------------------

Anything that draws from a ``Generator`` in ``RowVrdProcess.__init__``,
``latent_series``, or the sequential path (``_state`` /
``begin_measurement`` / ``_refresh_latent`` / ``trial_flips``) MUST be
mirrored here in the exact same draw order, because numpy Generators
consume their bit stream element-sequentially: a run of scalar draws
equals one array draw of the same distributions, and vice versa. The
mirrors used here are:

* ``standard_normal(k) * sigmas`` for a run of ``normal(0, sigma_i)``
  draws (``loc + scale * z`` with ``loc == 0``);
* for ``rng.geometric(p)`` with ``p >= 1/3`` (numpy's search branch, one
  uniform per value): ``np.searchsorted(T, u, side="left") + 1`` where
  ``T`` is the cumulative table of the search recurrence, built with the
  same sequential IEEE operations by ``np.multiply.accumulate`` /
  ``np.add.accumulate`` (see :func:`_build_run_tables`);
* for series of at most 16 measurements (row-selection guesses), a pure
  Python walk of the same search recurrence over bulk uniforms, computed
  only until the series is covered (see :func:`_short_occupancy`);
* everything else falls back to the reference's own numpy calls with
  identical argument arrays.

The searchsorted tables and the short walk are gated on
:func:`repro.dram.faults.geometric_mirror_ok` (a once-per-process probe of
numpy's private geometric sampler); when the mirror is off, run lengths
come from ``rng.geometric`` itself — slower, still bit-identical.

``tests/dram/test_fastfaults.py`` and the ``fastfaults``/``guess`` pairs of
``tests/differential/`` assert exact equality against the scalar path
across patterns, tAggOn, temperatures, voltages, cell layouts, and both
series streams, plus the sequential begin/threshold/flip trials.
"""

from __future__ import annotations

import math
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from numpy.random import PCG64, Generator

from repro import obs
from repro.dram.cells import CellLayout
from repro.dram.faults import (
    PATTERN_VICTIM_BYTE,
    REFERENCE_T_AGG_ON,
    REFERENCE_TEMPERATURE,
    REFERENCE_WORDLINE_VOLTAGE,
    _GEOM_SEARCH_P,
    Condition,
    VrdModelParams,
    geometric_mirror_ok,
)
from repro.dram.traps import _MAX_P, _MIN_P, expand_runs
from repro.errors import ConfigurationError
from repro.rng import encode_element, hasher_prefix, seed_from_prefix

#: Uniform length of the precomputed cumulative run-length tables. The
#: search branch only applies for ``p >= 1/3`` (``q <= 2/3``), where the
#: residual tail ``q**K`` drops below one double ULP after at most
#: ``ceil(53 / -log2(2/3)) ~ 91`` terms; 128 leaves generous margin, and a
#: construction-time saturation check (below) demotes any table that still
#: fails to cover the largest possible uniform.
_RUN_TABLE_K = 128

#: The largest value ``Generator.random()`` can return (1 - 2**-53). A run
#: table whose final entry reaches this covers every drawable uniform, so
#: ``searchsorted`` can never fall off its end.
_MAX_UNIFORM = 1.0 - 2.0 ** -53

#: Longest series served by :func:`_short_occupancy`: every trap's first
#: geometric batch holds at least 16 runs of length >= 1, so it always
#: covers the series.
_SHORT_SERIES = 16

# Prebuilt alternating-state template: sample_occupancy_series fills a
# fresh bool array with [state, not state, state, ...] per batch; slicing a
# shared template yields the same values without the per-batch strided
# stores. Grown on demand by _alt() for very long series.
_ALT = np.empty(1 << 16, dtype=bool)
_ALT[0::2] = True
_ALT[1::2] = False


def _alt(size: int) -> np.ndarray:
    """The alternating template, at least ``size`` elements long."""
    global _ALT
    if size > _ALT.shape[0]:
        grown = np.empty(1 << int(size - 1).bit_length(), dtype=bool)
        grown[0::2] = True
        grown[1::2] = False
        _ALT = grown
    return _ALT


def _build_run_tables(ps: np.ndarray) -> np.ndarray:
    """Cumulative search-recurrence tables for many probabilities at once.

    For one ``p``, numpy's geometric search branch draws ``u`` and runs
    ``total_p = prod = p; while u > total_p: prod *= q; total_p += prod``.
    Row ``i`` of the result holds exactly the successive ``total_p`` values
    of that recurrence for ``ps[i]``: ``np.multiply.accumulate`` over
    ``[p, q, q, ...]`` reproduces the sequential ``prod`` updates and
    ``np.add.accumulate`` the sequential ``total_p`` sums, in the same IEEE
    order (ufunc accumulation is defined element-sequentially along the
    axis). The drawn value is then
    ``np.searchsorted(table, u, side="left") + 1`` — the index of the
    first ``total_p >= u`` — matching the scalar loop's exit condition
    ``u <= total_p``.
    """
    arr = np.repeat((1.0 - ps)[:, None], _RUN_TABLE_K, axis=1)
    arr[:, 0] = ps
    return np.add.accumulate(np.multiply.accumulate(arr, axis=1), axis=1)


class _TrapPlan:
    """Precomputed sampling plan for one trap of one row.

    Raw transition probabilities feed the stationary distribution and the
    sequential path (``Trap.step`` uses them unclamped); the clamped pair
    feeds run-length sampling, mirroring ``sample_occupancy_series``.
    ``search`` marks a trap whose clamped pair both sit on the geometric
    search branch. ``table_occ``/``table_rel`` are the searchsorted run
    tables, or ``None`` when this trap must use ``rng.geometric`` directly
    (inversion-branch probability, unsaturated table, mirror disabled, or
    tables not built yet).
    """

    __slots__ = (
        "depth", "p_occupy", "p_release", "p_occ", "p_rel",
        "stationary", "mean_run", "search", "table_occ", "table_rel",
    )

    def __init__(self, depth: float, p_occupy: float, p_release: float):
        self.depth = depth
        self.p_occupy = p_occupy
        self.p_release = p_release
        self.p_occ = p_occ = min(max(p_occupy, _MIN_P), _MAX_P)
        self.p_rel = p_rel = min(max(p_release, _MIN_P), _MAX_P)
        self.stationary = p_occupy / (p_occupy + p_release)
        self.mean_run = 0.5 * (1.0 / p_occ + 1.0 / p_rel)
        self.search = p_occ >= _GEOM_SEARCH_P and p_rel >= _GEOM_SEARCH_P
        self.table_occ: Optional[np.ndarray] = None
        self.table_rel: Optional[np.ndarray] = None

    def batch(self, remaining: int) -> int:
        """Geometric batch size for ``remaining`` uncovered measurements
        (``sample_occupancy_series``'s sizing rule)."""
        return max(16, int(remaining / self.mean_run * 1.5) + 8)


def _attach_run_tables(plans: Sequence[_TrapPlan]) -> None:
    """Give every eligible plan its searchsorted run tables, in one batch.

    Eligible means a search-branch plan while the process-wide mirror probe
    passed; a trap whose built table does not saturate to
    :data:`_MAX_UNIFORM` keeps ``None`` tables and takes the direct
    ``rng.geometric`` route.
    """
    if not geometric_mirror_ok():
        return
    eligible = [plan for plan in plans if plan.search]
    if not eligible:
        return
    ps = np.empty(2 * len(eligible))
    ps[0::2] = [plan.p_occ for plan in eligible]
    ps[1::2] = [plan.p_rel for plan in eligible]
    tables = _build_run_tables(ps)
    saturated = tables[:, -1] >= _MAX_UNIFORM
    for i, plan in enumerate(eligible):
        if saturated[2 * i] and saturated[2 * i + 1]:
            plan.table_occ = tables[2 * i]
            plan.table_rel = tables[2 * i + 1]


def _trap_column(plan: _TrapPlan, n: int, rng: Generator) -> np.ndarray:
    """Mirror of ``traps.sample_occupancy_series`` for one planned trap.

    Same draws in the same order: the initial-state uniform, then per batch
    either one bulk uniform array resolved against the run tables (search
    branch) or the reference's own ``rng.geometric`` on the identical
    alternating probability array.
    """
    if n == 0:
        return np.zeros(0, dtype=bool)
    state = rng.random() < plan.stationary
    states_list = None
    covered = 0
    while True:
        batch = plan.batch(n - covered)
        if plan.table_occ is not None:
            table_a = plan.table_rel if state else plan.table_occ
            table_b = plan.table_occ if state else plan.table_rel
            u = rng.random(batch)
            batch_lengths = np.empty(batch, dtype=np.int64)
            batch_lengths[0::2] = np.searchsorted(table_a, u[0::2], side="left")
            batch_lengths[1::2] = np.searchsorted(table_b, u[1::2], side="left")
            batch_lengths += 1
        else:
            leave_probs = np.empty(batch)
            leave_probs[0::2] = plan.p_rel if state else plan.p_occ
            leave_probs[1::2] = plan.p_occ if state else plan.p_rel
            batch_lengths = rng.geometric(leave_probs)
        template = _alt(batch)[:batch]
        batch_states = template if state else ~template
        covered += int(batch_lengths.sum())
        state = not bool(batch_states[-1])
        if states_list is None:
            if covered >= n:  # single-batch common case
                return expand_runs(batch_states, batch_lengths, n, covered)
            states_list = [batch_states]
            lengths_list = [batch_lengths]
        else:
            states_list.append(batch_states)
            lengths_list.append(batch_lengths)
            if covered >= n:
                return expand_runs(
                    np.concatenate(states_list),
                    np.concatenate(lengths_list),
                    n,
                    covered,
                )


def _short_occupancy(
    plans: Sequence[_TrapPlan], n: int, rng: Generator
) -> np.ndarray:
    """``np.stack([_trap_column(plan, n, rng) for plan in plans], axis=1)``
    for ``1 <= n <= 16``, with the run-length expansion in plain Python.

    Every trap draws its initial-state uniform and then exactly one
    geometric batch, which covers the series. A search-branch trap (both
    probabilities ``>= 1/3``) consumes one uniform per batch element — a
    straight run of ``next_double`` calls that one bulk ``rng.random()``
    serves for whole stretches of adjacent such traps, including the next
    trap's initial-state gate; its run lengths then follow numpy's search
    recurrence verbatim, computed only until the series is covered. Any
    other trap takes the reference's own ``rng.geometric`` call.
    Requires :func:`repro.dram.faults.geometric_mirror_ok`.
    """
    n_traps = len(plans)
    columns: List[List[bool]] = []
    k = 0
    while k < n_traps:
        stretch = k
        batches = []
        while stretch < n_traps and plans[stretch].search:
            batches.append(plans[stretch].batch(n))
            stretch += 1
        # One bulk draw: each search trap's gate and batch, then the next
        # trap's initial-state gate.
        total = len(batches) + sum(batches) + (stretch < n_traps)
        bulk = rng.random(total).tolist() if total > 1 else [rng.random()]
        offset = 0
        for plan, batch in zip(plans[k:stretch], batches):
            state = bulk[offset] < plan.stationary
            # Leave probabilities alternate with the run state.
            a, b = (plan.p_rel, plan.p_occ) if state else (plan.p_occ, plan.p_rel)
            column: List[bool] = []
            covered = 0
            element = 0
            while covered < n:
                u = bulk[offset + 1 + element]
                total_p = prod = b if element & 1 else a
                q = 1.0 - total_p
                length = 1
                while u > total_p:
                    prod *= q
                    total_p += prod
                    length += 1
                length = min(length, n - covered)
                column += [state] * length
                covered += length
                state = not state
                element += 1
            columns.append(column)
            offset += 1 + batch
        k = stretch
        if k == n_traps:
            break
        plan = plans[k]
        state = bulk[offset] < plan.stationary
        leave = np.empty(plan.batch(n))
        leave[0::2] = plan.p_rel if state else plan.p_occ
        leave[1::2] = plan.p_occ if state else plan.p_rel
        column = []
        covered = 0
        for length in rng.geometric(leave).tolist():
            length = min(length, n - covered)
            column += [state] * length
            covered += length
            if covered == n:
                break
            state = not state
        if covered < n:
            # Only zero-length inversion draws (standard_exponential() ==
            # 0.0, ~2**-64) get here; the reference would continue with a
            # second batch, so fail loudly rather than diverge.
            raise ConfigurationError("short series walk under-covered a trap")
        columns.append(column)
        k += 1
    # The reference stacks per-trap columns into a C-ordered (n, traps)
    # matrix; the same layout keeps the matmul that follows bit-identical.
    return np.array(list(zip(*columns)), dtype=bool)


class _SeqRowState:
    """Sequential latent state of one row under one condition."""

    __slots__ = ("occupancy", "latent_rdt", "rng", "measurement_index")

    def __init__(self, occupancy: List[bool], rng: Generator):
        self.occupancy = occupancy
        self.rng = rng
        self.latent_rdt: float = math.nan
        self.measurement_index: int = 0


class BankVrdState:
    """All rows of one bank, packed for bulk device-model queries.

    Construction mirrors ``RowVrdProcess.__init__`` draw for draw per row
    and stores the results columnar: base RDTs, residual sigmas, jittered
    condition-response coefficients, weak-cell bit/margin tables, and
    per-trap sampling plans. Only the draws run per row; the arithmetic
    on them runs once over whole columns, with the reference's elementwise
    operation order. Weak-cell polarity and the searchsorted run tables
    are built on first need. Condition factors are then resolved once per
    canonical condition for every row at once, and
    :meth:`latent_series_bulk` emits a whole bank's series matrix.

    The sequential path (:meth:`begin_measurement` /
    :meth:`current_threshold` / :meth:`trial_flips`) is mirrored too, so
    engine workers can stay on the packed state for bit-level trials.

    Rows may repeat (deterministic streams make re-measurement identical);
    ``rows``-keyed lookups resolve to the *last* occurrence.
    """

    def __init__(
        self,
        params: VrdModelParams,
        row_bits: int,
        seed: int,
        module_id: str,
        bank: int,
        rows: Sequence[int],
        true_cell_lookup=None,
    ):
        if row_bits < params.weak_cells:
            raise ConfigurationError(
                f"row has {row_bits} bits but model needs {params.weak_cells} weak cells"
            )
        self.params = params
        self.row_bits = row_bits
        self.module_id = module_id
        self.bank = bank
        self.rows: Tuple[int, ...] = tuple(int(row) for row in rows)
        n_rows = len(self.rows)
        self._index_of = {row: index for index, row in enumerate(self.rows)}
        self._true_cell_lookup = true_cell_lookup

        row_prefix = hasher_prefix(seed, "vrd-row", module_id, bank)
        self._series_prefix = hasher_prefix(seed, "vrd-series", module_id, bank)
        self._seq_prefix = hasher_prefix(seed, "vrd-seq", module_id, bank)
        self._row_tails = [encode_element(row) for row in self.rows]

        # ---- constants of the per-row constructor mirror
        depth_keys = list(params.pattern_depth)
        rdt_keys = list(params.pattern_rdt)
        # One batched standard_normal covers the constructor's run of
        # scalar normal draws (sigma_resid, pattern depth/rdt jitters,
        # taggon slope, temp coeff).
        normal_sigmas = np.array(
            [0.4] + [0.30] * len(depth_keys) + [0.02] * len(rdt_keys) + [0.01, 0.3]
        )
        i_slope = 1 + len(depth_keys) + len(rdt_keys)
        log_rare_lo = np.log(params.rare_pi_lo)
        log_rare_hi = np.log(params.rare_pi_hi)
        log_big_lo = np.log(0.002)
        log_big_hi = np.log(0.2)
        n_cells = params.weak_cells
        small_scale = params.depth_scale * params.severity

        base_rdt = np.empty(n_rows)
        coupling_col = np.empty(n_rows)
        penalty_col = np.empty(n_rows)
        normals = np.empty((n_rows, len(normal_sigmas)))
        weak_bits = np.empty((n_rows, n_cells), dtype=np.int64)
        gaps = np.empty((n_rows, n_cells))
        row_plans: List[List[_TrapPlan]] = []
        row_depths: List[np.ndarray] = []

        for index, tail in enumerate(self._row_tails):
            rng = Generator(PCG64(seed_from_prefix(row_prefix, tail)))

            # -- draw mirror of RowVrdProcess.__init__ -------------------
            base = float(params.mean_rdt * np.exp(rng.normal(0.0, params.spatial_sigma)))
            coupling = (params.mean_rdt / base) ** params.vulnerability_coupling
            coupling = min(max(coupling, 0.5), 3.0)

            plans: List[_TrapPlan] = []
            n_small = int(rng.poisson(params.trap_count_mean))
            trap_scale = small_scale * coupling
            for _ in range(n_small):
                depth = float(min(max(rng.exponential(trap_scale), 1e-4), 0.5))
                pi = float(rng.beta(2.0, 2.0))
                plans.append(_TrapPlan(depth, max(1e-6, pi), max(1e-6, 1.0 - pi)))
            if rng.random() < params.rare_trap_prob:
                depth = float(min(max(
                    rng.uniform(0.85, 1.15) * params.rare_trap_depth * coupling,
                    5e-3), 0.3))
                pi = float(np.exp(rng.uniform(log_rare_lo, log_rare_hi)))
                speed = float(rng.uniform(0.8, 1.0))
                plans.append(_TrapPlan(
                    depth, max(1e-7, speed * pi), max(1e-7, speed * (1.0 - pi))
                ))
            if rng.random() < params.big_trap_prob:
                depth = float(min(max(
                    rng.uniform(0.5, 1.0) * params.big_trap_depth * params.severity,
                    0.02), 0.8))
                pi = float(np.exp(rng.uniform(log_big_lo, log_big_hi)))
                speed = float(rng.uniform(0.2, 1.0))
                plans.append(_TrapPlan(
                    depth, max(1e-6, speed * pi), max(1e-6, speed * (1.0 - pi))
                ))

            normals[index] = rng.standard_normal(len(normal_sigmas))
            bits = np.sort(rng.choice(row_bits, size=n_cells, replace=False))
            rng.shuffle(bits)
            weak_bits[index] = bits
            gaps[index] = rng.exponential(params.cell_margin_scale, n_cells)
            penalty_col[index] = rng.uniform(0.03, 0.15)
            # -- end of the constructor mirror ---------------------------

            base_rdt[index] = base
            coupling_col[index] = coupling
            row_plans.append(plans)
            row_depths.append(np.array([plan.depth for plan in plans]))

        # Column arithmetic, elementwise identical to the per-row scalar
        # expressions of the constructor (same operands, same order).
        normals *= normal_sigmas
        exp_normals = np.exp(normals)
        gaps *= 2.0 ** np.arange(n_cells)
        gaps[:, 0] = 0.0

        recorder = obs.active()
        if recorder.enabled:
            recorder.counter_add("fastfaults.states_built")
            recorder.counter_add("fastfaults.rows_packed", n_rows)

        self.base_rdt = base_rdt
        self.sigma_resid = params.sigma_resid * coupling_col * exp_normals[:, 0]
        self._pattern_depth = {
            key: params.pattern_depth[key] * exp_normals[:, 1 + j]
            for j, key in enumerate(depth_keys)
        }
        self._pattern_rdt = {
            key: params.pattern_rdt[key] * exp_normals[:, 1 + len(depth_keys) + j]
            for j, key in enumerate(rdt_keys)
        }
        self._taggon_depth_slope = params.taggon_depth_slope + normals[:, i_slope]
        self._temp_depth_coeff = params.temp_depth_coeff * exp_normals[:, i_slope + 1]
        self.weak_cell_bits = weak_bits
        self.weak_cell_margins = np.cumsum(gaps, axis=1)
        self._weak_cell_true: Optional[np.ndarray] = None
        self.uncharged_penalty = penalty_col
        self._row_plans = row_plans
        self._row_depths = row_depths
        self._run_tables_built = False
        self._ones = np.ones(n_rows)
        self._factors_cache: Dict[Condition, tuple] = {}
        self._suffix_cache: Dict[Tuple[Condition, str], bytes] = {}
        self._seq_states: Dict[Tuple[int, Condition], _SeqRowState] = {}

    @property
    def weak_cell_true(self) -> np.ndarray:
        """Per-row weak-cell polarity (``True`` = true cell), built on
        first use: one vectorized call per row for a
        :class:`~repro.dram.cells.CellLayout` lookup, one call per bit for
        any other callable."""
        if self._weak_cell_true is None:
            lookup = self._true_cell_lookup
            true = np.ones(self.weak_cell_bits.shape, dtype=bool)
            rows_bits = zip(self.rows, self.weak_cell_bits)
            if getattr(lookup, "__func__", None) is CellLayout.bit_is_true_cell:
                layout = lookup.__self__
                for index, (row, bits) in enumerate(rows_bits):
                    true[index] = layout.bits_are_true_cells(row, bits)
            elif lookup is not None:
                for index, (row, bits) in enumerate(rows_bits):
                    true[index] = [lookup(row, int(bit)) for bit in bits]
            self._weak_cell_true = true
        return self._weak_cell_true

    def _ensure_run_tables(self) -> None:
        """Attach the searchsorted run tables of every trap (once)."""
        if self._run_tables_built:
            return
        self._run_tables_built = True
        plans = [plan for plans in self._row_plans for plan in plans]
        _attach_run_tables(plans)
        recorder = obs.active()
        if recorder.enabled:
            mirrored = sum(1 for plan in plans if plan.table_occ is not None)
            recorder.counter_add("fastfaults.traps.mirror", mirrored)
            recorder.counter_add("fastfaults.traps.fallback", len(plans) - mirrored)
            recorder.gauge_set(
                "faults.geometric_mirror",
                1.0 if geometric_mirror_ok() else 0.0,
            )

    # ------------------------------------------------------------------
    # Condition factors, resolved for every row at once
    # ------------------------------------------------------------------

    def _factors(self, condition: Condition) -> tuple:
        """``(rdt_factor, depth_factor, margins, first_flip_margin, level)``
        arrays for a canonical condition; cached.

        Every operation matches ``RowVrdProcess.factors`` elementwise: the
        products keep the reference's left-to-right association (scalar *
        array binary ops are applied per element in the same order), and
        ``np.maximum`` equals the scalar ``max`` floor per element.
        """
        cached = self._factors_cache.get(condition)
        if cached is not None:
            return cached
        params = self.params
        pattern = condition.pattern

        def g(t: float) -> float:
            return 1.0 / (1.0 + (t / params.taggon_rdt_tau_ns) ** params.taggon_rdt_alpha)

        taggon_rdt_factor = g(condition.t_agg_on) / g(REFERENCE_T_AGG_ON)
        delta_t = condition.temperature - REFERENCE_TEMPERATURE
        undervolt = REFERENCE_WORDLINE_VOLTAGE - condition.wordline_voltage
        temp_rdt_term = max(0.05, 1.0 + params.temp_rdt_coeff * delta_t)
        volt_rdt_term = max(0.05, 1.0 + params.voltage_rdt_coeff * undervolt)
        volt_depth_term = max(0.05, 1.0 + params.voltage_depth_coeff * undervolt)
        decades = math.log10(condition.t_agg_on / REFERENCE_T_AGG_ON)

        pattern_rdt = self._pattern_rdt.get(pattern, self._ones)
        rdt_factor = (
            pattern_rdt * taggon_rdt_factor * temp_rdt_term * volt_rdt_term
        )
        taggon_term = (
            1.0
            + self._taggon_depth_slope * decades
            + params.taggon_depth_quad * decades * decades
        )
        pattern_depth = self._pattern_depth.get(pattern, self._ones)
        depth_factor = (
            pattern_depth
            * np.maximum(0.05, taggon_term)
            * np.maximum(0.05, 1.0 + self._temp_depth_coeff * delta_t)
            * volt_depth_term
        )

        if pattern in PATTERN_VICTIM_BYTE:
            byte = PATTERN_VICTIM_BYTE[pattern]
            bit_values = (byte >> (self.weak_cell_bits % 8)) & 1
            charged = (bit_values == 1) == self.weak_cell_true
        else:
            charged = np.ones(self.weak_cell_bits.shape, dtype=bool)
        margins = self.weak_cell_margins + np.where(
            charged, 0.0, self.uncharged_penalty[:, None]
        )
        first_flip_margin = margins.min(axis=1)
        level = self.base_rdt * rdt_factor * (1.0 + first_flip_margin)
        resolved = (rdt_factor, depth_factor, margins, first_flip_margin, level)
        self._factors_cache[condition] = resolved
        return resolved

    def _series_suffix(self, condition: Condition, stream: str) -> bytes:
        key = (condition, stream)
        suffix = self._suffix_cache.get(key)
        if suffix is None:
            elements = [
                condition.pattern, str(condition.t_agg_on),
                str(condition.temperature), str(condition.wordline_voltage),
            ]
            if stream:  # the sequential stream has no stream element
                elements.append(stream)
            suffix = b"".join(encode_element(element) for element in elements)
            self._suffix_cache[key] = suffix
        return suffix

    def _local_indices(self, rows: Optional[Sequence[int]]) -> Sequence[int]:
        if rows is None:
            return range(len(self.rows))
        return [self._index_of[int(row)] for row in rows]

    # ------------------------------------------------------------------
    # Fast path: bulk latent series
    # ------------------------------------------------------------------

    def latent_series_bulk(
        self,
        condition: Condition,
        n: int,
        stream: str = "series",
        rows: Optional[Sequence[int]] = None,
    ) -> np.ndarray:
        """Latent series of every row (or a subset), as an ``(R, n)`` matrix.

        Row ``k`` is bit-identical to
        ``RowVrdProcess(...).latent_series(condition, n, stream)`` for the
        corresponding physical row.
        """
        if n < 0:
            raise ConfigurationError(f"series length must be >= 0, got {n}")
        condition = condition.canonical()
        _, depth_factor, _, _, level = self._factors(condition)
        suffix = self._series_suffix(condition, stream)
        indices = self._local_indices(rows)
        short = 0 < n <= _SHORT_SERIES and geometric_mirror_ok()
        if not short:
            self._ensure_run_tables()
        recorder = obs.active()
        if recorder.enabled:
            recorder.counter_add("fastfaults.series_rows", len(indices))
            recorder.counter_add("fastfaults.series_values", len(indices) * n)
        out = np.empty((len(indices), n))
        for k, i in enumerate(indices):
            srng = Generator(PCG64(seed_from_prefix(
                self._series_prefix, self._row_tails[i], suffix
            )))
            plans = self._row_plans[i]
            if not plans:
                mult = np.ones(n)
            else:
                if short:
                    occupancy = _short_occupancy(plans, n, srng)
                else:
                    occupancy = np.stack(
                        [_trap_column(plan, n, srng) for plan in plans], axis=1
                    )
                effective = np.minimum(self._row_depths[i] * depth_factor[i], 0.95)
                mult = np.exp(occupancy @ np.log1p(-effective))
            noise = np.exp(srng.normal(0.0, self.sigma_resid[i], n))
            out[k] = level[i] * mult * noise
        return out

    def latent_series(
        self,
        row: int,
        condition: Condition,
        n: int,
        stream: str = "series",
    ) -> np.ndarray:
        """Single-row convenience wrapper around :meth:`latent_series_bulk`."""
        return self.latent_series_bulk(condition, n, stream=stream, rows=[row])[0]

    def guess_means(
        self,
        condition: Condition,
        repeats: int = 10,
        rows: Optional[Sequence[int]] = None,
    ) -> np.ndarray:
        """Guess-stream series means (the ``guess_rdt`` quantity) per row."""
        if repeats < 1:
            raise ConfigurationError(f"guess repeats must be >= 1, got {repeats}")
        samples = self.latent_series_bulk(
            condition, repeats, stream="guess", rows=rows
        )
        recorder = obs.active()
        if recorder.enabled:
            recorder.counter_add("faults.probe_rows", len(samples))
            if repeats > _SHORT_SERIES or not geometric_mirror_ok():
                recorder.counter_add("faults.probe.fallback")
        return samples.mean(axis=1)

    # ------------------------------------------------------------------
    # Sequential path: bit-level trials on packed state
    # ------------------------------------------------------------------

    def _seq_state(self, i: int, condition: Condition) -> _SeqRowState:
        key = (i, condition)
        state = self._seq_states.get(key)
        if state is None:
            rng = Generator(PCG64(seed_from_prefix(
                self._seq_prefix, self._row_tails[i],
                self._series_suffix(condition, ""),
            )))
            occupancy = [
                bool(rng.random() < plan.stationary)
                for plan in self._row_plans[i]
            ]
            state = _SeqRowState(occupancy, rng)
            self._refresh_latent(i, condition, state)
            self._seq_states[key] = state
        return state

    def _refresh_latent(
        self, i: int, condition: Condition, state: _SeqRowState
    ) -> None:
        rdt_factor, depth_factor, _, _, _ = self._factors(condition)
        df = float(depth_factor[i])
        log_mult = 0.0
        for plan, occupied in zip(self._row_plans[i], state.occupancy):
            if occupied:
                log_mult += math.log1p(-min(plan.depth * df, 0.95))
        noise = math.exp(state.rng.normal(0.0, float(self.sigma_resid[i])))
        state.latent_rdt = (
            float(self.base_rdt[i]) * float(rdt_factor[i])
            * math.exp(log_mult) * noise
        )

    def begin_measurement(self, row: int, condition: Condition) -> None:
        """Mirror of ``RowVrdProcess.begin_measurement``."""
        condition = condition.canonical()
        i = self._index_of[int(row)]
        state = self._seq_state(i, condition)
        random = state.rng.random
        occupancy = []
        for plan, occupied in zip(self._row_plans[i], state.occupancy):
            p_leave = plan.p_release if occupied else plan.p_occupy
            occupancy.append(not occupied if random() < p_leave else occupied)
        state.occupancy = occupancy
        self._refresh_latent(i, condition, state)
        state.measurement_index += 1

    def current_threshold(self, row: int, condition: Condition) -> float:
        """Mirror of ``RowVrdProcess.current_threshold``."""
        condition = condition.canonical()
        i = self._index_of[int(row)]
        state = self._seq_state(i, condition)
        _, _, _, first_flip_margin, _ = self._factors(condition)
        return state.latent_rdt * (1.0 + float(first_flip_margin[i]))

    def trial_flips(
        self,
        row: int,
        condition: Condition,
        effective_hammers: float,
        already_flipped: Optional[set] = None,
    ) -> List[int]:
        """Mirror of ``RowVrdProcess.trial_flips``."""
        if effective_hammers < 0:
            raise ConfigurationError("effective hammer count must be >= 0")
        condition = condition.canonical()
        i = self._index_of[int(row)]
        state = self._seq_state(i, condition)
        margins = self._factors(condition)[2][i]
        weakest = int(np.argmin(margins))
        jitter_sigma = self.params.cell_jitter_sigma
        flips: List[int] = []
        for index, (bit, margin) in enumerate(
            zip(self.weak_cell_bits[i], margins)
        ):
            bit = int(bit)
            if already_flipped is not None and bit in already_flipped:
                continue
            threshold = state.latent_rdt * (1.0 + margin)
            if index != weakest:
                jitter = math.exp(abs(state.rng.normal(0.0, jitter_sigma)))
                threshold *= jitter
            if effective_hammers >= threshold:
                flips.append(bit)
        return flips
