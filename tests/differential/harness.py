"""Unified fast-path/oracle differential harness.

Every fast path in this codebase carries the same promise: *bit-identical*
results to a scalar oracle. Each subsystem already asserts its own pair in
its own test file; this harness gives all of them one uniform shape — one
seed builds one workload, the workload runs down both paths, and each
outcome is reduced to a plain hashable fingerprint — so a single
parametrized test sweeps every pair over randomized seeds, and a tracing
on/off run of the same case proves instrumentation never perturbs results.

The pairs covered:

==================  ==================================  =========================
name                oracle                              fast path
==================  ==================================  =========================
engine              serial ``Campaign.run``             ``CampaignEngine`` (2 jobs)
memsim              ``MemorySystem.run``                ``memsim.fastcore.run_fast``
fastfaults          per-row ``RowVrdProcess``           packed ``BankVrdState``
guess               per-row guess-stream means          ``probe_guess_means`` batch
clock               ``BankVrdState`` sequential twin    ``RowVrdProcess`` fault clock
bender              scalar ``Interpreter`` trials       compiled trial replay
ecc                 per-codeword encode/decode          ``encode_batch``/``decode_batch``
adaptive            serial ``AdaptiveScheduler``        ``CampaignEngine`` adaptive (2 jobs)
store               legacy file-per-entry caches        sqlite ``ResultStore`` shims
fleet               ``run_fleet_naive`` (materialized)  ``run_fleet`` streamed (2 jobs)
==================  ==================================  =========================

Cross-protocol variants rerun the fastfaults and bender pairs on catalog
devices whose geometry exercises DDR5 bank groups (``D0``) and HBM2
pseudo channels (``Chip0``); the ``checker-*`` pairs run the same
workload with ``VRD_TIMING_CHECK=1`` forced on versus off, proving the
opt-in timing validation pass never perturbs a single bit. The
``guess-fallback`` pair reruns the guess pair with the geometric-sampler
mirror forced off, so the direct ``rng.geometric`` route stays exact too.
The ``clock`` pair runs on a DDR4, a DDR5 and an HBM2 catalog device plus
a zero-trap model.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from typing import Callable, List

#: Deterministically randomized seeds: drawn from a fixed-seed PRNG so runs
#: are reproducible while still exercising arbitrary workload shapes.
SEEDS: List[int] = random.Random(0x56524431).sample(range(1, 100_000), 3)


@dataclass(frozen=True)
class DifferentialCase:
    """One fast-path/oracle pair under the unified harness."""

    name: str
    oracle: Callable[[int], object]
    fast: Callable[[int], object]


# ----------------------------------------------------------------------
# engine: serial campaign loop vs parallel campaign engine
# ----------------------------------------------------------------------

_ENGINE_ROWS = [3, 17, 40]
_ENGINE_N = 25


def _engine_workload(seed: int):
    from repro.chips import build_module
    from repro.core import CHECKERED0, TestConfig

    module = build_module("M1", seed=seed)
    module.disable_interference_sources()
    configs = [TestConfig(CHECKERED0, t_agg_on_ns=module.timing.tRAS)]
    return module, configs


def _campaign_fingerprint(result) -> tuple:
    return tuple(
        (
            observation.bank,
            observation.row,
            observation.config.label(),
            tuple(observation.series.values.tolist()),
            observation.series.grid_step,
        )
        for observation in result.observations
    )


def engine_oracle(seed: int) -> tuple:
    from repro.core.campaign import Campaign

    module, configs = _engine_workload(seed)
    campaign = Campaign(module, configs, n_measurements=_ENGINE_N)
    return _campaign_fingerprint(campaign.run(_ENGINE_ROWS))


def engine_fast(seed: int) -> tuple:
    from repro.core.engine import CampaignEngine

    module, configs = _engine_workload(seed)
    engine = CampaignEngine(
        "M1", configs, n_measurements=_ENGINE_N, seed=seed, n_jobs=2,
    )
    return _campaign_fingerprint(engine.run(_ENGINE_ROWS))


# ----------------------------------------------------------------------
# memsim: reference request loop vs epoch-batched fast core
# ----------------------------------------------------------------------

_MEMSIM_MITIGATIONS = ["Graphene", "PRAC", "PARA", "MINT", "BlockHammer"]


def _memsim_workload(seed: int):
    from repro.memsim.system import MemorySystem, SystemConfig
    from repro.memsim.trace import standard_mixes
    from repro.mitigations import build_mitigation

    pick = random.Random(seed)
    mix = pick.choice(standard_mixes(3))
    name = pick.choice(_MEMSIM_MITIGATIONS)
    threshold = pick.choice([256.0, 1024.0])
    config = SystemConfig(window_ns=5_000.0, seed=seed)
    return MemorySystem(mix, config, build_mitigation(name, threshold))


def _memsim_fingerprint(result) -> tuple:
    return (
        result.mix_name,
        result.mitigation_name,
        tuple(result.requests_per_core),
        tuple(result.total_latency_per_core),
        result.row_hits,
        result.row_misses,
        result.preventive_refreshes,
        result.rank_blocks,
    )


def memsim_oracle(seed: int) -> tuple:
    return _memsim_fingerprint(_memsim_workload(seed).run())


def memsim_fast(seed: int) -> tuple:
    return _memsim_fingerprint(_memsim_workload(seed).run_fast())


# ----------------------------------------------------------------------
# fastfaults: per-row scalar VRD processes vs packed bank state
# ----------------------------------------------------------------------

_FAULT_SERIES_N = 40


def _fault_workload(seed: int):
    from tests.conftest import make_module

    module = make_module("DIFF", seed=seed)
    module.disable_interference_sources()
    pick = random.Random(seed + 1)
    rows = sorted(pick.sample(range(module.geometry.n_rows), 4))
    from repro.core import CHECKERED0, TestConfig

    config = TestConfig(
        CHECKERED0,
        t_agg_on_ns=module.timing.tRAS,
        temperature_c=pick.choice([50.0, 80.0]),
    )
    return module, rows, config.condition(module.timing)


def fastfaults_oracle(seed: int) -> tuple:
    module, rows, condition = _fault_workload(seed)
    model = module.fault_model
    return tuple(
        tuple(
            model.process(0, row)
            .latent_series(condition, _FAULT_SERIES_N)
            .tolist()
        )
        for row in rows
    )


def fastfaults_fast(seed: int) -> tuple:
    module, rows, condition = _fault_workload(seed)
    matrix = module.fault_model.latent_series_bank(
        0, rows, condition, _FAULT_SERIES_N
    )
    return tuple(tuple(series.tolist()) for series in matrix)


def _catalog_fault_workload(seed: int, module_id: str):
    """Like :func:`_fault_workload` but on a catalog device, so the pair
    runs under the device's real protocol geometry (DDR5 bank groups,
    HBM2 pseudo channels)."""
    from repro.chips import build_module
    from repro.core import CHECKERED0, TestConfig

    module = build_module(module_id, seed=seed)
    module.disable_interference_sources()
    pick = random.Random(seed + 7)
    rows = sorted(pick.sample(range(module.geometry.n_rows), 4))
    config = TestConfig(
        CHECKERED0,
        t_agg_on_ns=module.timing.tRAS,
        temperature_c=pick.choice([50.0, 80.0]),
    )
    return module, rows, config.condition(module.timing)


def _catalog_fault_series(seed: int, module_id: str, fast: bool) -> tuple:
    module, rows, condition = _catalog_fault_workload(seed, module_id)
    model = module.fault_model
    if fast:
        matrix = model.latent_series_bank(
            0, rows, condition, _FAULT_SERIES_N
        )
        return tuple(tuple(series.tolist()) for series in matrix)
    return tuple(
        tuple(
            model.process(0, row)
            .latent_series(condition, _FAULT_SERIES_N)
            .tolist()
        )
        for row in rows
    )


def fastfaults_ddr5_oracle(seed: int) -> tuple:
    return _catalog_fault_series(seed, "D0", fast=False)


def fastfaults_ddr5_fast(seed: int) -> tuple:
    return _catalog_fault_series(seed, "D0", fast=True)


def fastfaults_hbm2_oracle(seed: int) -> tuple:
    return _catalog_fault_series(seed, "Chip0", fast=False)


def fastfaults_hbm2_fast(seed: int) -> tuple:
    return _catalog_fault_series(seed, "Chip0", fast=True)


# ----------------------------------------------------------------------
# guess: per-row scalar guess stream vs the batched guess probe
# ----------------------------------------------------------------------

#: Guess lengths on both sides of the single-batch cut (n <= 16).
_GUESS_REPEATS = (1, 10, 16, 17, 64)
_GUESS_PATTERNS = ("checkered0", "checkered1", "rowstripe0", "rowstripe1", "other")


def _guess_lookups():
    """Every cell layout kind's polarity lookup, plus no lookup (all true
    cells) and an arbitrary per-bit callable that is not a layout method."""
    from repro.dram.cells import CellLayout, CellLayoutKind

    lookups = [
        (kind.value, CellLayout(kind, block_rows=256).bit_is_true_cell)
        for kind in CellLayoutKind
    ]
    lookups.append(("none", None))
    lookups.append(("callable", lambda row, bit: (row * 7 + bit) % 3 != 0))
    return lookups


def _guess_workload(seed: int):
    from repro.dram.faults import Condition, VrdModelParams

    pick = random.Random(seed + 13)
    params = VrdModelParams(mean_rdt=pick.choice([2000.0, 9000.0]))
    rows = sorted(pick.sample(range(1024), 6))
    condition = Condition(
        pick.choice(_GUESS_PATTERNS),
        t_agg_on=pick.choice([35.0, 7.2, 120.0]),
        temperature=pick.choice([50.0, 80.0]),
    )
    return params, rows, condition


def _guess_means(seed: int, fast: bool) -> tuple:
    from repro.dram.faults import ModuleFaultModel

    params, rows, condition = _guess_workload(seed)
    outcome = []
    for name, lookup in _guess_lookups():
        for repeats in _GUESS_REPEATS:
            model = ModuleFaultModel(
                params, 1024, seed, "GUESS", true_cell_lookup=lookup
            )
            if fast:
                means = model.probe_guess_means(1, rows, condition, repeats)
                values = tuple(float(mean) for mean in means)
            else:
                values = tuple(
                    float(
                        model.process(1, row)
                        .latent_series(condition, repeats, stream="guess")
                        .mean()
                    )
                    for row in rows
                )
            outcome.append((name, repeats, values))
    return tuple(outcome)


def guess_oracle(seed: int) -> tuple:
    return _guess_means(seed, fast=False)


def guess_fast(seed: int) -> tuple:
    return _guess_means(seed, fast=True)


def guess_fallback_fast(seed: int) -> tuple:
    """The batched probe with the geometric-sampler mirror forced off."""
    from repro.dram import faults

    saved = faults._MIRROR_OK
    faults._MIRROR_OK = False
    try:
        return _guess_means(seed, fast=True)
    finally:
        faults._MIRROR_OK = saved


# ----------------------------------------------------------------------
# clock: packed sequential twin vs the per-row scalar fault clock
# ----------------------------------------------------------------------

_CLOCK_ROUNDS = 6
_CLOCK_SERIES_N = 8


def _clock_models(seed: int):
    """One fault model per protocol, plus one whose rows carry no traps."""
    from repro.chips import build_module
    from repro.dram.faults import ModuleFaultModel, VrdModelParams

    models = [
        (module_id, build_module(module_id, seed=seed).fault_model)
        for module_id in ("M1", "D0", "Chip0")
    ]
    trapless = VrdModelParams(
        mean_rdt=3000.0, trap_count_mean=0.0, rare_trap_prob=0.0,
        big_trap_prob=0.0,
    )
    models.append(("trapless", ModuleFaultModel(trapless, 8192, seed, "CLK")))
    return models


def _clock_conditions(pick: random.Random):
    """Two conditions plus a raw one that canonicalizes onto the first, so
    the fast side's alias must share the first condition's chain."""
    from repro.dram.faults import Condition

    first = Condition("checkered0", t_agg_on=36.0, temperature=50.0)
    second = Condition(
        pick.choice(_GUESS_PATTERNS), t_agg_on=pick.choice([7.2, 120.0]),
        temperature=80.0,
    )
    alias = Condition("checkered0", t_agg_on=36.04, temperature=50.2)
    assert alias != first and alias.canonical() == first
    return first, second, alias


def _clock_run(seed: int, fast: bool) -> tuple:
    outcome = []
    for name, model in _clock_models(seed):
        pick = random.Random(seed + 9)
        rows = sorted(pick.sample(range(1024), 3))
        conditions = _clock_conditions(pick)
        if fast:
            def begin(row, condition):
                model.process(0, row).begin_measurement(condition)

            def threshold(row, condition):
                return model.process(0, row).current_threshold(condition)

            def flips(row, condition, drive, already):
                return model.process(0, row).trial_flips(
                    condition, drive, already_flipped=already
                )

            def series(row, condition, drive, n):
                process = model.process(0, row)
                matrix = process.trial_flip_series(condition, drive, n)
                bits = process.weak_cell_bits.tolist()
                return [
                    [bit for bit, hit in zip(bits, trial) if hit]
                    for trial in matrix.tolist()
                ]
        else:
            twin = model.bank_state(0, rows)
            begin = twin.begin_measurement
            threshold = twin.current_threshold

            def flips(row, condition, drive, already):
                return twin.trial_flips(
                    row, condition, drive, already_flipped=already
                )

            def series(row, condition, drive, n):
                trials = []
                for _ in range(n):
                    twin.begin_measurement(row, condition)
                    trials.append(twin.trial_flips(row, condition, drive))
                return trials

        flipped = {}
        for _ in range(_CLOCK_ROUNDS):
            for row in rows:
                for condition in conditions:
                    begin(row, condition)
                    value = threshold(row, condition)
                    drive = value * pick.choice([0.9, 1.0, 1.4])
                    already = flipped.setdefault(
                        (row, condition.canonical()), set()
                    )
                    hits = flips(row, condition, drive, already)
                    already.update(hits)
                    outcome.append((name, row, value, tuple(hits)))
        for row in rows:
            condition = pick.choice(conditions)
            drive = threshold(row, condition) * pick.choice([1.0, 1.5])
            trials = series(row, condition, drive, _CLOCK_SERIES_N)
            begin(row, condition)
            after = threshold(row, condition)
            outcome.append((name, row, tuple(map(tuple, trials)), after))
    return tuple(outcome)


def clock_oracle(seed: int) -> tuple:
    return _clock_run(seed, fast=False)


def clock_fast(seed: int) -> tuple:
    return _clock_run(seed, fast=True)


# ----------------------------------------------------------------------
# bender: scalar interpreter trials vs compiled replay
# ----------------------------------------------------------------------

def _bender_trials(
    seed: int, compiled: bool, module_id: "str | None" = None
) -> tuple:
    """Interpreter/compiled trial fingerprint.

    ``module_id`` selects a catalog device (protocol, timing table, and
    bank-group topology included); ``None`` keeps the small ad-hoc DDR4
    module the original case was tuned for.
    """
    from repro.bender.host import DramBender
    from repro.core import CHECKERED0, TestConfig

    pick = random.Random(seed + 3)
    victim = pick.randrange(50, 200)
    if module_id is None:
        from tests.conftest import make_module

        # Straddle the small module's ~2000-activation mean RDT so some
        # trials flip and some survive, with seed-dependent counts.
        counts = sorted(pick.sample(range(500, 8000), 3)) + [12_000]
        module = make_module(seed=seed)
    else:
        from repro.chips import build_module, spec

        # Same idea, scaled to the device's catalog RDT floor.
        floor = int(spec(module_id).min_rdt_tras)
        counts = sorted(
            pick.sample(range(floor // 3, floor + floor // 5), 3)
        ) + [3 * floor]
        module = build_module(module_id, seed=seed)
    module.disable_interference_sources()
    bender = DramBender(module)
    config = TestConfig(CHECKERED0, t_agg_on_ns=module.timing.tRAS)
    bender.begin_measurement(0, victim, config.pattern, config.t_agg_on_ns)
    flips = tuple(
        tuple(bender.run_trial(
            0, victim, config.pattern, count, config.t_agg_on_ns,
            compiled=compiled,
        ))
        for count in counts
    )
    totals = tuple(sorted(bender.interpreter.total_counts.items()))
    return flips, bender.interpreter.now, totals


def bender_oracle(seed: int) -> tuple:
    return _bender_trials(seed, compiled=False)


def bender_fast(seed: int) -> tuple:
    return _bender_trials(seed, compiled=True)


def bender_ddr5_oracle(seed: int) -> tuple:
    return _bender_trials(seed, compiled=False, module_id="D0")


def bender_ddr5_fast(seed: int) -> tuple:
    return _bender_trials(seed, compiled=True, module_id="D0")


def bender_hbm2_oracle(seed: int) -> tuple:
    return _bender_trials(seed, compiled=False, module_id="Chip0")


def bender_hbm2_fast(seed: int) -> tuple:
    return _bender_trials(seed, compiled=True, module_id="Chip0")


# ----------------------------------------------------------------------
# checker: timing validation on vs off must be invisible in results
# ----------------------------------------------------------------------

def _checked(workload: Callable[[int], tuple], seed: int) -> tuple:
    """Run ``workload`` with ``VRD_TIMING_CHECK=1`` forced on — results
    must match the unchecked run bit for bit (and legal streams must not
    raise)."""
    import os

    from repro.dram.checker import TIMING_CHECK_ENV_VAR

    previous = os.environ.get(TIMING_CHECK_ENV_VAR)
    os.environ[TIMING_CHECK_ENV_VAR] = "1"
    try:
        return workload(seed)
    finally:
        if previous is None:
            del os.environ[TIMING_CHECK_ENV_VAR]
        else:
            os.environ[TIMING_CHECK_ENV_VAR] = previous


def checker_bender_oracle(seed: int) -> tuple:
    return _bender_trials(seed, compiled=True, module_id="D0")


def checker_bender_fast(seed: int) -> tuple:
    return _checked(
        lambda s: _bender_trials(s, compiled=True, module_id="D0"), seed
    )


def checker_memsim_oracle(seed: int) -> tuple:
    return memsim_oracle(seed)


def checker_memsim_fast(seed: int) -> tuple:
    return _checked(memsim_oracle, seed)


# ----------------------------------------------------------------------
# adaptive: serial scheduler vs sharded engine adaptive mode
# ----------------------------------------------------------------------

_ADAPTIVE_N_MAX = 100


def _adaptive_workload(seed: int):
    from repro.core import AdaptiveConfig

    pick = random.Random(seed + 4)
    rows = sorted(pick.sample(range(256), 4))
    adaptive = AdaptiveConfig(
        max_measurements=_ADAPTIVE_N_MAX,
        budget=pick.choice([None, 400]),
    )
    return rows, adaptive


def _adaptive_fingerprint(result) -> tuple:
    return (
        result.rounds,
        result.budget_reallocations,
        tuple(
            (
                estimate.bank,
                estimate.row,
                estimate.config.label(),
                estimate.estimate,
                estimate.ci_half_width,
                estimate.n_measured,
                estimate.trials,
                estimate.stopping_reason,
            )
            for estimate in result.estimates
        ),
    )


def adaptive_oracle(seed: int) -> tuple:
    from repro.core import AdaptiveScheduler

    module, configs = _engine_workload(seed)
    rows, adaptive = _adaptive_workload(seed)
    scheduler = AdaptiveScheduler(module, configs, adaptive)
    return _adaptive_fingerprint(scheduler.run(rows))


def adaptive_fast(seed: int) -> tuple:
    from repro.core.engine import CampaignEngine

    _, configs = _engine_workload(seed)
    rows, adaptive = _adaptive_workload(seed)
    engine = CampaignEngine(
        "M1", configs, n_measurements=_ADAPTIVE_N_MAX, seed=seed,
        n_jobs=2, schedule="adaptive", adaptive=adaptive,
    )
    return _adaptive_fingerprint(engine.run(rows))


# ----------------------------------------------------------------------
# ecc: scalar per-codeword decode vs vectorized batch decode
# ----------------------------------------------------------------------

_ECC_TRIALS = 4096


class _ScalarOnly:
    """Hides ``encode_batch``/``decode_batch`` to force the scalar path."""

    def __init__(self, inner):
        self._inner = inner

    def __getattr__(self, name):
        if name in ("encode_batch", "decode_batch"):
            raise AttributeError(name)
        return getattr(self._inner, name)


def _ecc_outcomes(seed: int, scalar: bool) -> tuple:
    import numpy as np

    from repro.ecc.analysis import default_codec, monte_carlo_outcomes

    pick = random.Random(seed + 2)
    code = default_codec(pick.choice(["SEC", "SECDED", "SSC"]))
    ber = pick.choice([5e-5, 2e-4, 1e-3])
    if scalar:
        code = _ScalarOnly(code)
    outcome = monte_carlo_outcomes(
        code, ber, trials=_ECC_TRIALS, rng=np.random.default_rng(seed)
    )
    return (
        outcome.trials,
        outcome.uncorrectable,
        outcome.undetectable,
        outcome.detected,
    )


def ecc_oracle(seed: int) -> tuple:
    return _ecc_outcomes(seed, scalar=True)


def ecc_fast(seed: int) -> tuple:
    return _ecc_outcomes(seed, scalar=False)


# ----------------------------------------------------------------------
# store: legacy file-per-entry caches vs sqlite ResultStore shims
# ----------------------------------------------------------------------

_STORE_ROWS = [3, 11]
_STORE_N = 10


def _store_workloads(seed: int):
    """One (campaign, adaptive, sweep) result triple per seed, computed
    once and round-tripped through both storage backends. Cached because
    the backends must see the *same* in-memory results — the case is
    about storage fidelity, not measurement."""
    cached = _STORE_WORKLOADS.get(seed)
    if cached is not None:
        return cached

    from repro.core import AdaptiveConfig
    from repro.core.engine import CampaignEngine
    from repro.memsim.sweep import SweepSpec, run_sweep

    _, configs = _engine_workload(seed)
    campaign = CampaignEngine(
        "M1", configs, n_measurements=_STORE_N, seed=seed, n_jobs=1,
    ).run(_STORE_ROWS)
    adaptive = CampaignEngine(
        "M1", configs, n_measurements=_STORE_N * 2, seed=seed, n_jobs=1,
        schedule="adaptive",
        adaptive=AdaptiveConfig(max_measurements=_STORE_N * 2),
    ).run(_STORE_ROWS)
    pick = random.Random(seed + 5)
    spec = SweepSpec(
        mitigations=("PARA",), rdts=(1024.0,),
        margins=(pick.choice([0.0, 0.25]),),
        n_mixes=1, window_ns=2_000.0, n_rows=1 << 8,
        seed=seed % 997 + 1,
    )
    sweep = run_sweep(spec)
    _STORE_WORKLOADS[seed] = (configs, campaign, adaptive, spec, sweep)
    return _STORE_WORKLOADS[seed]


_STORE_WORKLOADS: dict = {}


def _store_roundtrip(seed: int, backend: str) -> tuple:
    """Store the seed's three results through ``backend``, reload them,
    and fingerprint the reloaded payloads as canonical JSON."""
    import json
    import tempfile
    from pathlib import Path

    from repro.core.engine import CampaignCache
    from repro.core.store import campaign_to_dict
    from repro.memsim.sweep import SweepCache

    configs, campaign, adaptive, spec, sweep = _store_workloads(seed)
    pairs = [(0, row) for row in _STORE_ROWS]
    keyer = CampaignCache.resolve(".")  # key() is pure: no I/O
    campaign_key = keyer.key(
        seed=seed, module_id="M1", configs=configs,
        n_measurements=_STORE_N, pairs=pairs,
    )
    adaptive_key = keyer.key(
        seed=seed, module_id="M1", configs=configs,
        n_measurements=_STORE_N * 2, pairs=pairs,
        schedule="adaptive", adaptive=adaptive.adaptive,
    )

    with tempfile.TemporaryDirectory() as tmp:
        sweep_key = SweepCache(Path(tmp)).key(spec)
        if backend == "file":
            from repro.store.legacy import FileCampaignCache, FileSweepCache

            caches = FileCampaignCache(tmp), FileSweepCache(tmp)
        else:
            campaign_cache = CampaignCache(Path(tmp))
            caches = (
                campaign_cache,
                SweepCache(store=campaign_cache.result_store),
            )
        campaign_cache, sweep_cache = caches
        campaign_cache.store(campaign_key, campaign)
        campaign_cache.store_adaptive(adaptive_key, adaptive)
        sweep_cache.store(sweep_key, sweep)

        reloaded = {
            "campaign": campaign_to_dict(campaign_cache.load(campaign_key)),
            "adaptive": campaign_cache.load_adaptive(
                adaptive_key
            ).to_payload(),
            "sweep": sweep_cache.load(sweep_key).to_payload(),
        }
    return (json.dumps(reloaded, sort_keys=True),)


def store_oracle(seed: int) -> tuple:
    return _store_roundtrip(seed, "file")


def store_fast(seed: int) -> tuple:
    return _store_roundtrip(seed, "sqlite")


# ----------------------------------------------------------------------
# fleet: materialize-everything oracle vs streamed shard-merge runner
# ----------------------------------------------------------------------

def _fleet_spec(seed: int):
    from repro.fleet import FleetSpec

    pick = random.Random(seed + 6)
    return FleetSpec(
        n_modules=pick.choice([5, 9]),
        seed=seed,
        rows_per_module=2,
        n_measurements=pick.choice([6, 10]),
        shard_size=pick.choice([2, 3]),
    )


def _fleet_fingerprint(result) -> tuple:
    import json

    return (json.dumps(
        {"summary": result.summary,
         "margins": {f"{m:g}": v for m, v in sorted(result.margins.items())}},
        sort_keys=True,
    ),)


def fleet_oracle(seed: int) -> tuple:
    from repro.fleet import run_fleet_naive

    return _fleet_fingerprint(run_fleet_naive(_fleet_spec(seed)))


def fleet_fast(seed: int) -> tuple:
    from repro.fleet import run_fleet

    return _fleet_fingerprint(
        run_fleet(_fleet_spec(seed), n_jobs=2, checkpoint=False)
    )


# ----------------------------------------------------------------------

CASES: List[DifferentialCase] = [
    DifferentialCase("engine", engine_oracle, engine_fast),
    DifferentialCase("memsim", memsim_oracle, memsim_fast),
    DifferentialCase("fastfaults", fastfaults_oracle, fastfaults_fast),
    DifferentialCase(
        "fastfaults-ddr5", fastfaults_ddr5_oracle, fastfaults_ddr5_fast
    ),
    DifferentialCase(
        "fastfaults-hbm2", fastfaults_hbm2_oracle, fastfaults_hbm2_fast
    ),
    DifferentialCase("guess", guess_oracle, guess_fast),
    DifferentialCase("guess-fallback", guess_oracle, guess_fallback_fast),
    DifferentialCase("clock", clock_oracle, clock_fast),
    DifferentialCase("bender", bender_oracle, bender_fast),
    DifferentialCase("bender-ddr5", bender_ddr5_oracle, bender_ddr5_fast),
    DifferentialCase("bender-hbm2", bender_hbm2_oracle, bender_hbm2_fast),
    DifferentialCase(
        "checker-bender", checker_bender_oracle, checker_bender_fast
    ),
    DifferentialCase(
        "checker-memsim", checker_memsim_oracle, checker_memsim_fast
    ),
    DifferentialCase("ecc", ecc_oracle, ecc_fast),
    DifferentialCase("adaptive", adaptive_oracle, adaptive_fast),
    DifferentialCase("store", store_oracle, store_fast),
    DifferentialCase("fleet", fleet_oracle, fleet_fast),
]
