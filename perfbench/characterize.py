"""``characterize``: the paper's Sec. 5 protocol, one fresh module per op.

Each op builds a catalog DDR4 module, selects its most vulnerable rows
per block (``select_vulnerable_rows`` -> ``probe_guess_means``), measures
exhaustive 1000-measurement RDT series over a pattern x tAggOn x
temperature grid (``Campaign`` -> the bulk ``latent_series_bank`` path),
computes the VRD statistics (CV, Ljung-Box), then runs adaptive discovery
(``AdaptiveScheduler``) on the same rows and configurations. The scalar
fault clock, Bender, memsim, the store and the service are not used.
"""

from __future__ import annotations

import math
from typing import Tuple

from perfbench.harness import Record, Workload, require

#: A small op run before timing so lazy imports and caches are warm.
WARMUP_OP = {
    "id": "warmup", "repeat": False, "device": "M1", "module_seed": 7,
    "block_rows": 16, "per_block": 1, "patterns": ["checkered0"],
    "t_agg_on": [0], "temperatures": [50.0], "n_measurements": 100,
}


def _series_bytes(values) -> bytes:
    import numpy as np

    return np.nan_to_num(np.asarray(values, dtype=float), nan=-1.0).tobytes()


class Characterize(Workload):

    name = "characterize"

    def prepare(self) -> None:
        self.run_op(WARMUP_OP)

    def install_tracing(self, tracer) -> None:
        from repro.chips import catalog
        from repro.core import adaptive, campaign, stats
        from repro.dram.faults import ModuleFaultModel

        tracer.wrap(catalog, "build_module", "chips.build")
        tracer.wrap(ModuleFaultModel, "probe_guess_means", "dram.select")
        tracer.wrap(ModuleFaultModel, "latent_series_bank", "dram.series")
        tracer.wrap(campaign, "select_vulnerable_rows", "core.campaign")
        tracer.wrap(campaign.Campaign, "run", "core.campaign")
        tracer.wrap(stats, "coefficient_of_variation", "core.stats")
        tracer.wrap(stats, "ljung_box_test", "core.stats")
        tracer.wrap(adaptive.AdaptiveScheduler, "run", "core.adaptive")

    @staticmethod
    def _module(op: dict):
        from repro.chips import catalog

        module = catalog.build_module(op["device"], seed=op["module_seed"])
        module.disable_interference_sources()
        return module

    @staticmethod
    def _configs(op: dict, module):
        from repro.core.config import standard_configs, standard_t_agg_on_values
        from repro.core.patterns import pattern_by_name

        on_values = standard_t_agg_on_values(module.timing)
        return list(standard_configs(
            module.timing,
            patterns=[pattern_by_name(name) for name in op["patterns"]],
            temperatures=op["temperatures"],
            t_agg_on_values=[on_values[index] for index in op["t_agg_on"]],
        ))

    @staticmethod
    def _select(op: dict, module, configs, batched: bool = True):
        from repro.core import campaign

        return campaign.select_vulnerable_rows(
            module, configs[0], block_rows=op["block_rows"],
            per_block=op["per_block"], batched=batched,
        )

    def _exhaustive(self, op: dict, batched: bool = True):
        from repro.core import campaign

        module = self._module(op)
        configs = self._configs(op, module)
        rows = self._select(op, module, configs, batched)
        result = campaign.Campaign(
            module, configs, n_measurements=op["n_measurements"],
            batched=batched,
        ).run(rows)
        return module, configs, rows, result

    def run_op(self, op: dict) -> Tuple[float, tuple, dict]:
        from repro.core import adaptive, stats

        module, configs, rows, result = self._exhaustive(op)
        n = op["n_measurements"]
        require(len(rows) == 3 * op["per_block"] == len(set(rows)),
                f"selected rows {rows}")
        require(all(len(obs.series) == n for obs in result.observations),
                "series length")

        vrd_stats = []
        for obs in result.observations:
            valid = obs.series.require_valid()
            cv = stats.coefficient_of_variation(valid)
            require(math.isfinite(cv) and cv >= 0.0, f"CV {cv}")
            # The program's Ljung-Box test is undefined (raises) for a
            # constant series: a row without VRD at this configuration.
            if valid.size > 21 and cv > 0.0:
                q, p = stats.ljung_box_test(valid)
                require(0.0 <= p <= 1.0, f"Ljung-Box p {p}")
            else:
                q, p = None, None
            vrd_stats.append((obs.row, obs.config.label(), cv, q, p))

        plan = adaptive.AdaptiveScheduler(
            module, configs,
            adaptive.AdaptiveConfig(max_measurements=n),
        ).run(rows)
        require(len(plan.estimates) == len(rows) * len(configs),
                "adaptive estimates per (row, config)")
        trials = int(plan.trials_spent)
        require(trials > 0, "adaptive plan spent no trials")

        measurements = len(rows) * len(configs) * n + sum(
            int(estimate.n_measured) for estimate in plan.estimates
        )
        outputs = (
            rows,
            [(obs.row, obs.config.label()) for obs in result.observations],
            b"".join(_series_bytes(obs.series.values)
                     for obs in result.observations),
            vrd_stats,
            plan.to_payload(),
        )
        return measurements, outputs, {"trials": trials}

    def layer_extras(self, records) -> dict:
        return {"core.adaptive.trials": sum(r.info.get("trials", 0)
                                            for r in records)}

    def oracle(self, op: dict, record: Record) -> None:
        """Batched selection and bulk series vs the scalar per-row
        ``RowVrdProcess`` reference (``batched=False``)."""
        import numpy as np

        _, _, rows, fast = self._exhaustive(op)
        _, _, slow_rows, slow = self._exhaustive(op, batched=False)
        require(rows == slow_rows, "batched vs per-row row selection")
        require(len(fast.observations) == len(slow.observations),
                "observation count vs scalar campaign")
        for a, b in zip(fast.observations, slow.observations):
            require(
                (a.row, a.config) == (b.row, b.config)
                and np.array_equal(a.series.values, b.series.values,
                                   equal_nan=True),
                f"row {a.row} {a.config.label()}: bulk vs scalar series",
            )
