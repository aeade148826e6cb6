"""Property-based tests on the VRD fault model's invariants."""

import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.dram.faults import Condition, RowVrdProcess, VrdModelParams
from repro.dram.traps import _MAX_P, _MIN_P, Trap
from repro.rng import derive


def make_process(seed=7):
    return RowVrdProcess(
        VrdModelParams(mean_rdt=2000.0),
        row_bits=8192,
        seed=seed,
        identity=("P", 0, 3),
    )


conditions = st.builds(
    Condition,
    pattern=st.sampled_from(
        ["rowstripe0", "rowstripe1", "checkered0", "checkered1", "other"]
    ),
    t_agg_on=st.floats(min_value=33.0, max_value=70_200.0),
    temperature=st.floats(min_value=20.0, max_value=95.0),
    wordline_voltage=st.floats(min_value=2.0, max_value=2.8),
)


@given(condition=conditions)
@settings(max_examples=80, deadline=None)
def test_factors_positive_and_margin_nonnegative(condition):
    process = make_process()
    factors = process.factors(condition)
    assert factors.rdt_factor > 0
    assert factors.depth_factor > 0
    assert factors.first_flip_margin >= 0


@given(condition=conditions)
@settings(max_examples=40, deadline=None)
def test_canonicalization_idempotent(condition):
    canon = condition.canonical()
    assert canon.canonical() == canon


@given(condition=conditions)
@settings(max_examples=30, deadline=None)
def test_latent_series_positive_and_reproducible(condition):
    process = make_process()
    a = process.latent_series(condition, 50)
    b = make_process().latent_series(condition, 50)
    assert np.all(a > 0)
    assert np.array_equal(a, b)


@given(
    t_short=st.floats(min_value=35.0, max_value=500.0),
    scale=st.floats(min_value=2.0, max_value=100.0),
)
@settings(max_examples=50, deadline=None)
def test_rowpress_monotone_in_on_time(t_short, scale):
    """Longer aggressor-on-time never raises the RDT factor."""
    process = make_process()
    short = process.factors(Condition("checkered0", t_short, 50.0))
    long = process.factors(Condition("checkered0", t_short * scale, 50.0))
    assert long.rdt_factor <= short.rdt_factor + 1e-12


@given(volts=st.floats(min_value=2.0, max_value=2.5))
@settings(max_examples=40, deadline=None)
def test_undervolting_monotone(volts):
    process = make_process()
    nominal = process.factors(Condition("checkered0", 35.0, 50.0, 2.5))
    under = process.factors(Condition("checkered0", 35.0, 50.0, volts))
    assert under.rdt_factor >= nominal.rdt_factor - 1e-12


@given(
    hammers=st.floats(min_value=0.0, max_value=1e6),
    condition=conditions,
)
@settings(max_examples=40, deadline=None)
def test_trial_flips_monotone_in_drive(hammers, condition):
    """More hammers never flip fewer cells (same latent state)."""
    process = make_process()
    process.begin_measurement(condition)
    fewer = set(process.trial_flips(condition, hammers))
    # Re-query at double the drive WITHOUT advancing the fault clock; the
    # jitter draws differ, but the deterministic weakest cell and all
    # no-jitter invariants must hold.
    more = set(process.trial_flips(condition, hammers * 2 + 1))
    threshold = process.current_threshold(condition)
    if hammers >= threshold:
        assert fewer  # at/above threshold, something must flip
        assert more
    assert len(more) >= (1 if hammers * 2 + 1 >= threshold else 0)


def test_weak_cell_margins_sorted_and_growing():
    process = make_process()
    margins = process.weak_cell_margins
    assert margins[0] == 0.0
    assert np.all(np.diff(margins) >= 0)
    # Geometric growth: the last gap dwarfs the first nonzero one.
    gaps = np.diff(margins)
    nonzero = gaps[gaps > 0]
    if nonzero.size >= 2:
        assert nonzero[-1] > nonzero[0]


#: The whole ``Trap`` domain, with the sampler clamp edges and depths that
#: the condition's depth factor scales past the 0.95 cap drawn explicitly.
trap_lists = st.lists(
    st.builds(
        Trap,
        depth=st.one_of(
            st.sampled_from([0.9, 0.95, 0.99]),
            st.floats(0.0, 1.0, exclude_min=True, exclude_max=True),
        ),
        p_occupy=st.one_of(
            st.sampled_from([_MIN_P, _MAX_P, 1.0]),
            st.floats(0.0, 1.0, exclude_min=True),
        ),
        p_release=st.one_of(
            st.sampled_from([_MIN_P, _MAX_P, 1.0]),
            st.floats(0.0, 1.0, exclude_min=True),
        ),
    ),
    max_size=6,
)


@given(traps=trap_lists, condition=conditions, steps=st.integers(0, 12))
@settings(max_examples=60, deadline=None)
def test_clock_matches_trap_step_reference(traps, condition, steps):
    """``steps`` fault-clock ticks equal, bit for bit, a reference loop of
    scalar ``Trap.step`` draws plus the per-step latent arithmetic: the
    clock's single uniform-array draw per step and its once-resolved log
    terms change no value."""
    process = make_process()
    process.traps = traps
    canon = condition.canonical()
    factors = process.factors(condition)
    module_id, bank, row = process.identity
    rng = derive(
        process._seed, "vrd-seq", module_id, bank, row, canon.pattern,
        str(canon.t_agg_on), str(canon.temperature),
        str(canon.wordline_voltage),
    )
    occupancy = [trap.sample_initial(rng) for trap in traps]

    def threshold():
        log_mult = 0.0
        for trap, occupied in zip(traps, occupancy):
            if occupied:
                log_mult += math.log1p(
                    -min(trap.depth * factors.depth_factor, 0.95)
                )
        noise = math.exp(rng.normal(0.0, process.sigma_resid))
        latent = (
            process.base_rdt * factors.rdt_factor * math.exp(log_mult) * noise
        )
        return latent * (1.0 + factors.first_flip_margin)

    expected = [threshold()]
    observed = [process.current_threshold(condition)]
    for _ in range(steps):
        occupancy = [trap.step(occupied, rng)
                     for trap, occupied in zip(traps, occupancy)]
        expected.append(threshold())
        process.begin_measurement(condition)
        observed.append(process.current_threshold(condition))
    assert observed == expected
