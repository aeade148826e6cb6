"""Tests for the packed device-model fast path (repro.dram.fastfaults).

The scalar :class:`~repro.dram.faults.RowVrdProcess` is the specification;
every fast-path query must be *bit-identical* to it — same RNG draws in
the same order, same floats out — across conditions, streams, and both
geometric-sampler routes (searchsorted run tables and the direct
``rng.geometric`` fallback).
"""

import os
import subprocess
import sys
import textwrap

import numpy as np
import pytest

import repro
from repro.dram import faults, fastfaults, traps
from repro.dram.faults import (
    Condition,
    ModuleFaultModel,
    RowVrdProcess,
    VrdModelParams,
)
from repro.dram.fastfaults import (
    BankVrdState,
    _attach_run_tables,
    _trap_column,
    _TrapPlan,
)
from repro.dram.traps import Trap, sample_occupancy_series
from repro.errors import ConfigurationError
from repro.rng import derive

ROW_BITS = 8192
SEED = 11
MODULE = "FF"
BANK = 2
ROWS = list(range(0, 48, 3))

REF = Condition("checkered0", 35.0, 50.0)
CONDITIONS = [
    REF,
    Condition("rowstripe1", 35.0, 50.0),
    Condition("custom", 35.0, 50.0),  # canonicalizes to "other"
    Condition("checkered0", 7.2, 85.0),
    Condition("checkered1", 120.0, 30.0),
    Condition("checkered0", 35.0, 50.0, wordline_voltage=2.2),
]


def make_params(**overrides) -> VrdModelParams:
    return VrdModelParams(mean_rdt=4000.0, **overrides)


def make_state(params=None, rows=ROWS) -> BankVrdState:
    params = params or make_params()
    return BankVrdState(params, ROW_BITS, SEED, MODULE, BANK, rows)


def make_process(row: int, params=None) -> RowVrdProcess:
    params = params or make_params()
    return RowVrdProcess(params, ROW_BITS, SEED, (MODULE, BANK, row))


class TestLatentSeriesBitIdentity:
    @pytest.mark.parametrize("condition", CONDITIONS)
    @pytest.mark.parametrize("stream", ["series", "guess"])
    def test_matches_scalar_process(self, condition, stream):
        state = make_state()
        bulk = state.latent_series_bulk(condition, 200, stream=stream)
        for index, row in enumerate(ROWS):
            reference = make_process(row).latent_series(
                condition, 200, stream=stream
            )
            np.testing.assert_array_equal(bulk[index], reference)

    def test_row_subset_and_single_row(self):
        state = make_state()
        subset = [ROWS[5], ROWS[1], ROWS[5]]
        bulk = state.latent_series_bulk(REF, 64, rows=subset)
        assert bulk.shape == (3, 64)
        np.testing.assert_array_equal(bulk[0], bulk[2])
        for index, row in enumerate(subset):
            np.testing.assert_array_equal(
                bulk[index], state.latent_series(row, REF, 64)
            )
            np.testing.assert_array_equal(
                bulk[index], make_process(row).latent_series(REF, 64)
            )

    def test_guess_means_match_scalar_guess_stream(self):
        state = make_state()
        means = state.guess_means(REF, repeats=10)
        for index, row in enumerate(ROWS):
            series = make_process(row).latent_series(REF, 10, stream="guess")
            assert means[index] == float(series.mean())

    def test_empty_and_single_measurement_series(self):
        state = make_state()
        assert state.latent_series_bulk(REF, 0).shape == (len(ROWS), 0)
        bulk = state.latent_series_bulk(REF, 1)
        for index, row in enumerate(ROWS):
            np.testing.assert_array_equal(
                bulk[index], make_process(row).latent_series(REF, 1)
            )

    def test_negative_length_rejected(self):
        with pytest.raises(ConfigurationError):
            make_state().latent_series_bulk(REF, -1)

    def test_zero_trap_rows(self):
        params = make_params(
            trap_count_mean=0.0, rare_trap_prob=0.0, big_trap_prob=0.0
        )
        state = make_state(params=params)
        bulk = state.latent_series_bulk(REF, 100)
        for index, row in enumerate(ROWS):
            reference = make_process(row, params=params).latent_series(
                REF, 100
            )
            np.testing.assert_array_equal(bulk[index], reference)


class TestSequentialMirror:
    def test_stepping_and_thresholds(self):
        state = make_state()
        for row in ROWS[:4]:
            process = make_process(row)
            for _ in range(30):
                process.begin_measurement(REF)
                state.begin_measurement(row, REF)
                assert state.current_threshold(row, REF) == (
                    process.current_threshold(REF)
                )

    def test_trial_flips_with_accumulating_set(self):
        state = make_state()
        for row in ROWS[:4]:
            process = make_process(row)
            flipped_ref, flipped_fast = set(), set()
            for step in range(5):
                process.begin_measurement(REF)
                state.begin_measurement(row, REF)
                hammers = process.current_threshold(REF) * (
                    1.0 + 0.05 * step
                )
                ref_flips = process.trial_flips(
                    REF, hammers, already_flipped=flipped_ref
                )
                fast_flips = state.trial_flips(
                    row, REF, hammers, already_flipped=flipped_fast
                )
                assert fast_flips == ref_flips
                flipped_ref.update(ref_flips)
                flipped_fast.update(fast_flips)


class TestTrapColumnMirror:
    # Edge cases around the traps module's probability clamps plus one
    # probability on each geometric-sampler branch.
    EDGE_TRAPS = [
        Trap(depth=0.2, p_occupy=1e-9, p_release=1.0),  # at _MIN_P / _MAX_P
        Trap(depth=0.2, p_occupy=1e-12, p_release=1.0),  # clamped up/down
        Trap(depth=0.2, p_occupy=1.0, p_release=1.0),  # both at _MAX_P
        Trap(depth=0.2, p_occupy=0.5, p_release=0.7),  # search branch
        Trap(depth=0.2, p_occupy=0.01, p_release=0.02),  # inversion branch
        Trap(depth=0.2, p_occupy=0.9, p_release=0.05),  # mixed branches
    ]

    @pytest.mark.parametrize("trap", EDGE_TRAPS)
    @pytest.mark.parametrize("n", [0, 1, 5, 500])
    def test_with_run_tables(self, trap, n):
        plan = _TrapPlan(trap.depth, trap.p_occupy, trap.p_release)
        _attach_run_tables([plan])
        fast = _trap_column(plan, n, derive(3, "trapcol", n))
        reference = sample_occupancy_series(trap, n, derive(3, "trapcol", n))
        np.testing.assert_array_equal(fast, reference)

    @pytest.mark.parametrize("trap", EDGE_TRAPS)
    def test_direct_route_without_tables(self, trap):
        plan = _TrapPlan(trap.depth, trap.p_occupy, trap.p_release)
        assert plan.table_occ is None and plan.table_rel is None
        fast = _trap_column(plan, 300, derive(4, "direct"))
        reference = sample_occupancy_series(trap, 300, derive(4, "direct"))
        np.testing.assert_array_equal(fast, reference)

    @pytest.mark.parametrize("n", [1, 5, 16])
    def test_short_walk_matches_reference_columns(self, n):
        plans = [
            _TrapPlan(trap.depth, trap.p_occupy, trap.p_release)
            for trap in self.EDGE_TRAPS
        ]
        fast_rng = derive(5, "short", n)
        fast = fastfaults._short_occupancy(plans, n, fast_rng)
        ref_rng = derive(5, "short", n)
        reference = np.stack(
            [sample_occupancy_series(trap, n, ref_rng) for trap in self.EDGE_TRAPS],
            axis=1,
        )
        np.testing.assert_array_equal(fast, reference)
        assert fast.flags.c_contiguous
        # Same draws consumed: both streams continue identically.
        assert fast_rng.random() == ref_rng.random()

    def test_tiny_probability_memory_scales_with_length(self):
        """At the 1e-9 clamp one run lasts ~1e9 steps; both samplers must
        still return 5 values within a 1 GiB address-space limit (memory
        follows the requested length, not 1/p)."""
        code = textwrap.dedent("""
            import resource
            import numpy as np
            from repro.dram.fastfaults import _TrapPlan, _attach_run_tables, _trap_column
            from repro.dram.traps import Trap, sample_occupancy_series
            from repro.rng import derive

            resource.setrlimit(resource.RLIMIT_AS, (1 << 30, 1 << 30))
            trap = Trap(depth=0.2, p_occupy=1e-9, p_release=1.0)
            plan = _TrapPlan(trap.depth, trap.p_occupy, trap.p_release)
            _attach_run_tables([plan])
            reference = sample_occupancy_series(trap, 5, derive(3, "trapcol", 5))
            fast = _trap_column(plan, 5, derive(3, "trapcol", 5))
            assert reference.shape == (5,)
            assert np.array_equal(fast, reference)
        """)
        src = os.path.dirname(os.path.dirname(repro.__file__))
        env = dict(os.environ, OPENBLAS_NUM_THREADS="1", PYTHONPATH=src)
        result = subprocess.run(
            [sys.executable, "-c", code], env=env, capture_output=True,
            text=True, timeout=120,
        )
        assert result.returncode == 0, result.stderr


class TestMirrorGate:
    def test_forced_fallback_still_bit_identical(self, monkeypatch):
        monkeypatch.setattr(faults, "_MIRROR_OK", False)
        state = make_state()
        bulk = state.latent_series_bulk(REF, 150)
        assert all(
            plan.table_occ is None
            for plans in state._row_plans
            for plan in plans
        )
        for index, row in enumerate(ROWS):
            np.testing.assert_array_equal(
                bulk[index], make_process(row).latent_series(REF, 150)
            )

    def test_probe_result_cached_per_process(self, monkeypatch):
        monkeypatch.setattr(faults, "_MIRROR_OK", None)
        first = faults.geometric_mirror_ok()
        assert faults._MIRROR_OK is first
        assert faults.geometric_mirror_ok() is first


class TestModuleFacade:
    def test_latent_series_bank_matches_processes(self):
        model = ModuleFaultModel(make_params(), ROW_BITS, SEED, MODULE)
        bulk = model.latent_series_bank(BANK, ROWS, REF, 120)
        for index, row in enumerate(ROWS):
            reference = model.process(BANK, row).latent_series(REF, 120)
            np.testing.assert_array_equal(bulk[index], reference)

    def test_bank_state_cached_by_rows_tuple(self):
        model = ModuleFaultModel(make_params(), ROW_BITS, SEED, MODULE)
        first = model.bank_state(BANK, ROWS)
        assert model.bank_state(BANK, ROWS) is first
        other = model.bank_state(BANK, ROWS[:4])
        assert other is not first
        assert model.bank_state(BANK, ROWS[:4]) is other
