"""``fleet``: one streaming fleet study per op, checkpointed to a fresh store.

Each op runs ``run_fleet`` over many small modules at ``n_jobs`` worker
processes (at most two), writing shard checkpoints to a store file of its
own, so store traffic is writes only. Module builds with tiny series
dominate -- the opposite of ``characterize``'s few large ones -- and this
is the only workload that exercises ``fleet.population``/``runner``/``agg``,
the process pool and the cross-process fold.
"""

from __future__ import annotations

import os
from typing import Tuple

from perfbench.gen import MAX_PARALLEL
from perfbench.harness import (
    CONCURRENT_PROBE_REF_MS, ConcurrentProbe, Record, Workload, digest_of,
    require,
)

WARMUP_OP = {
    "id": "warmup", "repeat": False, "n_modules": 4, "shard_size": 2,
    "rows_per_module": 2, "n_measurements": 8, "seed": 3,
}


def worker_count() -> int:
    return max(1, min(MAX_PARALLEL, len(os.sched_getaffinity(0))))


def _spec(op: dict):
    from repro.fleet import FleetSpec

    return FleetSpec(
        n_modules=op["n_modules"], seed=op["seed"],
        rows_per_module=op["rows_per_module"],
        n_measurements=op["n_measurements"], shard_size=op["shard_size"],
    )


def _outputs(result) -> tuple:
    return result.summary, sorted(result.margins.items())


class Fleet(Workload):

    name = "fleet"

    spawns = True

    def __init__(self, tmp_dir: str):
        super().__init__(tmp_dir)
        self.parallelism = worker_count()
        self._stores = 0
        # Both workers run at once, so the host is probed on both CPUs at once.
        self.probe = ConcurrentProbe()
        self.probe_ref_ms = CONCURRENT_PROBE_REF_MS

    def prepare(self) -> None:
        self.run_op(WARMUP_OP)

    def rss_exclude(self):
        return self.probe.pids()

    def close(self) -> None:
        self.probe.close()

    def install_tracing(self, tracer) -> None:
        from repro.dram.faults import ModuleFaultModel
        from repro.fleet import population, runner
        from repro.fleet.stats import FleetAggregator
        from repro.store.db import ResultStore

        tracer.wrap(runner, "run_fleet", "fleet.runner")
        tracer.wrap(runner, "build_module", "chips.build")
        tracer.wrap(runner, "simulate_module", "fleet.simulate")
        tracer.wrap(population, "assignment", "fleet.population")
        tracer.wrap(ModuleFaultModel, "latent_series_bank", "dram.series")
        for method in ("update", "merge", "finalize", "to_payload",
                       "from_payload", "margin_failure_rate"):
            tracer.wrap(FleetAggregator, method, "fleet.agg")
        tracer.wrap(ResultStore, "put", "store.put")

    def run_op(self, op: dict) -> Tuple[float, tuple, dict]:
        from repro.fleet import runner
        from repro.store.db import ResultStore

        self._stores += 1
        path = os.path.join(self.tmp_dir,
                            f"fleet-{os.getpid()}-{self._stores}.sqlite")
        store = ResultStore(path)
        try:
            spec = _spec(op)
            result = runner.run_fleet(spec, n_jobs=self.parallelism, store=store)
        finally:
            store.close()
        shards = -(-op["n_modules"] // op["shard_size"])
        require(result.n_shards == result.computed_shards == shards
                and result.resumed_shards == 0,
                f"shards {result.computed_shards}/{result.n_shards}")
        require(result.summary["modules"] == op["n_modules"], "module count")
        return op["n_modules"], _outputs(result), {}

    def oracle(self, op: dict, record: Record) -> None:
        """Streamed, sharded run vs the materialize-everything scalar oracle
        (``run_fleet_naive`` over ``simulate_module_oracle``)."""
        from repro.fleet import iter_assignments, runner

        spec = _spec(op)
        require(digest_of(*_outputs(runner.run_fleet_naive(spec))) == record.digest,
                "run_fleet vs run_fleet_naive summary")
        first = next(iter_assignments(spec, 0, 1))
        fast = runner.simulate_module(first, spec)
        slow, _ = runner.simulate_module_oracle(first, spec)
        require(fast == slow, "simulate_module vs simulate_module_oracle")
