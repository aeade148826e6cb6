"""``attack``: the paper's Sec. 6 security implication, one victim per op.

Each op builds a module, profiles one victim with Algorithm 1 through
compiled DRAM Bender (``RdtMeter(DramBender(m), compiled=True)``),
configures graphene/prac/para/mint from the observed minimum minus a
guardband, and runs ``attack_escape`` for up to a fixed number of refresh
windows. This is where the per-window scalar ``RowVrdProcess`` clock and
Bender replay do their work; the bulk series path is not used.
"""

from __future__ import annotations

import math
from typing import Tuple

from perfbench.harness import Record, Workload, require

WARMUP_OP = {
    "id": "warmup", "repeat": False, "device": "M1", "module_seed": 7,
    "victim": 100, "pattern": "checkered0", "kind": "para", "margin": 0.1,
    "guess_repeats": 2, "profile_measurements": 2, "windows": 50,
    "attack_seed": 1,
}


def _outcome_fields(outcome) -> list:
    return [outcome.kind, outcome.threshold, outcome.windows, outcome.flipped,
            outcome.first_flip_window, outcome.min_rdt_seen,
            outcome.min_exposure_margin]


class Attack(Workload):

    name = "attack"

    def prepare(self) -> None:
        self.run_op(WARMUP_OP)

    def install_tracing(self, tracer) -> None:
        from repro.chips import catalog
        from repro.core.rdt import RdtMeter
        from repro.dram.faults import RowVrdProcess
        from repro.security import attack

        tracer.wrap(catalog, "build_module", "chips.build")
        tracer.wrap(RdtMeter, "guess_rdt", "bender.profile")
        tracer.wrap(RdtMeter, "measure_series", "bender.profile")
        tracer.wrap(RowVrdProcess, "begin_measurement", "dram.clock")
        tracer.wrap(RowVrdProcess, "current_threshold", "dram.clock")
        tracer.wrap(attack, "attack_escape", "security.attack")

    @staticmethod
    def _attack(op: dict, batched: bool = True):
        import numpy as np

        from repro.bender import DramBender
        from repro.chips import catalog
        from repro.core import HammerSweep, RdtMeter, TestConfig
        from repro.core.patterns import pattern_by_name
        from repro.security import attack

        module = catalog.build_module(op["device"], seed=op["module_seed"])
        module.disable_interference_sources()
        meter = RdtMeter(DramBender(module), compiled=True)
        config = TestConfig(pattern_by_name(op["pattern"]),
                            t_agg_on_ns=module.timing.tRAS)
        victim = op["victim"]
        guess = meter.guess_rdt(victim, config, repeats=op["guess_repeats"])
        series = meter.measure_series(
            victim, config, op["profile_measurements"],
            sweep=HammerSweep.from_guess(guess),
        )
        observed = series.values[~np.isnan(series.values)]
        require(observed.size > 0, f"victim {victim}: profile never flipped")
        threshold = max(1.0, float(observed.min()) * (1.0 - op["margin"]))
        outcome = attack.attack_escape(
            module, victim, config, op["kind"], threshold,
            windows=op["windows"], seed=op["attack_seed"], batched=batched,
        )
        return guess, series.values, outcome

    def run_op(self, op: dict) -> Tuple[float, tuple, dict]:
        guess, values, outcome = self._attack(op)
        windows = op["windows"]
        require(1 <= outcome.windows <= windows, f"windows {outcome.windows}")
        if outcome.flipped:
            require(outcome.first_flip_window == outcome.windows - 1,
                    "first flip is the last window attacked")
        else:
            require(outcome.windows == windows, "survivor attacked every window")
        require(math.isfinite(outcome.min_rdt_seen) and outcome.min_rdt_seen > 0,
                f"min RDT {outcome.min_rdt_seen}")
        profile = [None if math.isnan(v) else v for v in values.tolist()]
        return outcome.windows, (guess, profile, _outcome_fields(outcome)), {}

    def layer_extras(self, records) -> dict:
        return {"security.windows": sum(r.units for r in records
                                        if r.error is None)}

    def oracle(self, op: dict, record: Record) -> None:
        """Batched exposure draws vs ``attack_escape(batched=False)``."""
        _, _, fast = self._attack(op)
        _, _, slow = self._attack(op, batched=False)
        require(_outcome_fields(fast) == _outcome_fields(slow),
                "batched vs scalar attack_escape outcome")
