#!/usr/bin/env python3
"""End-to-end benchmark of the VRD reproduction.

Run from the repository root::

    python3 perfbench/run.py --workload characterize --seed 1 --seconds 12 --trace 0

Workloads: ``characterize``, ``attack``, ``serve``, ``fleet`` (see
``perfbench/README.md``). Each run builds its op list from ``--seed`` and
``--seconds``, sets up in a fresh temporary directory inside the checkout,
times every op, checks outputs against the program's own oracles, and
prints one JSON object as the last line of standard output::

    {"correct": true, "attempted": 96, "failed": 0, "metrics": {...}}

``--trace 0`` reports the end-to-end metrics (tracing off); ``--trace 1``
reports the per-layer breakdown from layer timers installed around the
program's public functions. A human summary goes to standard error.
"""

from __future__ import annotations

import argparse
import contextlib
import json
import math
import os
import shutil
import signal
import sys
import tempfile
import time

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SRC = os.path.join(ROOT, "src")
TMP_PARENT = os.path.join(ROOT, ".perfbench-tmp")

#: Numeric-library thread pools pinned to one thread: numpy here links a
#: multithreaded OpenBLAS, which would contend for the host's two cores.
THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS",
               "NUMEXPR_NUM_THREADS", "VECLIB_MAXIMUM_THREADS")

END_TO_END = (
    ("setup_s", "s"),
    ("peak_rss_mb", "MB"),
    ("work_per_s", "1/s"),
    ("op_p50_ms", "ms"),
    ("op_tail_ms", "ms"),
    ("hit_p50_ms", "ms"),
    ("hit_tail_ms", "ms"),
    ("compute_p50_ms", "ms"),
)

#: Per-op self time (ms) of each traced layer.
LAYER_MS = (
    "chips.build", "dram.select", "dram.series", "core.campaign",
    "core.stats", "core.adaptive", "bender.profile", "dram.clock",
    "security.attack", "fleet.runner", "fleet.population", "fleet.simulate",
    "fleet.agg", "store.put",
)

#: Program ``repro.obs`` counters reported by the traced run.
OBS_COUNTERS = (
    "fastfaults.traps.fallback", "fastfaults.traps.mirror",
    "faults.probe.fallback", "faults.process.build", "rdt.measurements",
    "adaptive.rounds", "fleet.checkpoints", "store.put",
)

PER_LAYER = tuple(
    [(f"{layer}_ms", "ms") for layer in LAYER_MS]
    + [
        ("fleet.pool_idle_ms", "ms"),
        ("dram.window_us", "us"),
        ("core.adaptive.trials", "count"),
        ("bender.trials", "count"),
        ("security.windows", "count"),
        ("service.accept_ms", "ms"),
        ("service.overhead_ms", "ms"),
        ("store.fetch_raw_ms", "ms"),
        ("store.hit_bytes", "bytes"),
        ("memsim.sweep_ms", "ms"),
        ("core.engine_ms", "ms"),
        ("service.computed", "count"),
        ("service.hits", "count"),
        ("service.deduped", "count"),
        ("host.probe_ms", "ms"),
        ("trace.coverage_pct", "%"),
        ("trace.work_per_s", "1/s"),
        ("op.count", "count"),
        ("op.tail_pct", "%"),
        ("hit.tail_pct", "%"),
    ]
    + [(f"obs.{name}", "count") for name in OBS_COUNTERS]
)


def hermetic_environment(tmp_dir: str) -> None:
    """Unset every program switch, pin thread pools, point temporary files
    into ``tmp_dir``. Must run before numpy is imported."""
    for name in list(os.environ):
        if name.startswith("VRD_"):
            del os.environ[name]
    for name in THREAD_VARS:
        os.environ[name] = "1"
    os.environ["PYTHONPATH"] = SRC
    os.environ["TMPDIR"] = tmp_dir
    tempfile.tempdir = tmp_dir
    for path in (SRC, ROOT):
        if path not in sys.path:
            sys.path.insert(0, path)
    os.chdir(tmp_dir)


def workload_class(name: str):
    if name == "characterize":
        from perfbench.characterize import Characterize
        return Characterize
    if name == "attack":
        from perfbench.attack import Attack
        return Attack
    if name == "serve":
        from perfbench.serve import Serve
        return Serve
    from perfbench.fleet import Fleet
    return Fleet


def _per_op_ms(total_ns: float, n_ops: int) -> float:
    return total_ns / max(1, n_ops) / 1e6


def layer_metrics(workload, records, recorder, work_per_s) -> dict:
    from perfbench.harness import median, tail
    from perfbench.trace import ROOT as ROOT_FRAME, layer_totals, nested_ns

    counters = recorder.counters
    totals = layer_totals(counters)
    n_ops = len(records)
    metrics = {
        f"{layer}_ms": _per_op_ms(totals.get(layer, {}).get("self_ns", 0.0), n_ops)
        for layer in LAYER_MS
    }
    metrics["bender.trials"] = counters.get("bender.trial.compiled", 0) + \
        counters.get("bender.trial.interpreted", 0)
    for name, _ in PER_LAYER:
        metrics.setdefault(name, 0)
    metrics["host.probe_ms"] = median(workload.probe_ms)

    latency_ns = sum(r.latency_s for r in records) * 1e9
    # Named layers only, not ``op`` (the untimed remainder of each op).
    layers = {layer: entry for layer, entry in totals.items()
              if layer != ROOT_FRAME}
    # Time the workers spent in the runner's worker entry point, from the
    # program's own ``fleet.worker`` spans.
    worker_ns = sum(stats.wall_ns for path, stats in recorder.spans.items()
                    if path.endswith("fleet.worker"))
    if worker_ns:
        # Parallel ops: the workers' named layers against the pool's
        # capacity (op time x workers). The capacity the workers spent
        # outside their entry point (pool start and stop, waiting at the
        # tail of an op) is reported on its own, as idle; the parent's
        # layers run beside the workers and are reported per layer.
        capacity_ns = latency_ns * workload.parallelism
        metrics["fleet.pool_idle_ms"] = _per_op_ms(capacity_ns - worker_ns, n_ops)
        covered = sum(entry["worker_ns"] for entry in layers.values())
        metrics["trace.coverage_pct"] = 100.0 * covered / capacity_ns
    else:
        covered = sum(entry["self_ns"] for entry in layers.values())
        metrics["trace.coverage_pct"] = 100.0 * covered / latency_ns
    # Service metrics come from the requests themselves (the server runs in
    # its own process); ``serve`` also reports its own coverage.
    metrics.update(workload.layer_extras(records))
    windows = metrics["security.windows"]
    clock_ns = nested_ns(counters, "security.attack", "dram.clock")
    metrics["dram.window_us"] = clock_ns / windows / 1e3 if windows else 0.0
    metrics["trace.work_per_s"] = work_per_s
    metrics["op.count"] = n_ops
    metrics["op.tail_pct"] = tail([r.latency_s for r in records])[1]
    metrics["hit.tail_pct"] = tail([r.latency_s for r in records
                                    if r.role == "hit"])[1]
    for name in OBS_COUNTERS:
        metrics[f"obs.{name}"] = counters.get(name, 0)
    return metrics


def check_repeats(records) -> int:
    """Re-requests must reproduce their first request's output exactly;
    returns how many did not (each also marked failed)."""
    first = {record.op_id: record.digest for record in records
             if record.error is None and not record.repeat}
    mismatches = 0
    for record in records:
        if record.error is None and record.repeat \
                and first.get(record.op_id) != record.digest:
            record.error = "re-request output differs from first request"
            mismatches += 1
    return mismatches


def run(args, tmp_dir: str) -> dict:
    from perfbench import gen
    from perfbench.harness import (
        SETUP_REPS, RssSampler, calibrated, digest_of, host_probe, median,
        tail, tree_hwm_mb,
    )

    streams = gen.make_ops(args.workload, args.seed, args.seconds)
    workload = workload_class(args.workload)(tmp_dir)
    try:
        setup, setup_raw = [], []
        if not args.trace:
            for _ in range(SETUP_REPS):
                before = host_probe()
                seconds = workload.setup_once()
                setup_raw.append(seconds)
                setup.append(calibrated(seconds, median([before, host_probe()])))
        if not workload.spawns:
            # A single-threaded in-process workload runs on one CPU, and the
            # host probe then samples just that CPU: the calibration sees
            # the speed the ops ran at, not the other CPU's.
            os.sched_setaffinity(0, {max(os.sched_getaffinity(0))})
        workload.prepare()

        recorder = tracer = None
        if args.trace:
            from repro import obs
            from perfbench.trace import LayerTracer

            recorder = obs.enable()
            tracer = LayerTracer(obs)
            workload.install_tracing(tracer)
            workload.root_frame = tracer.root

        sampler = RssSampler(workload.rss_root(), workload.rss_exclude)
        started = time.perf_counter()
        with sampler if workload.spawns else contextlib.nullcontext():
            records = workload.execute(streams)
        wall = time.perf_counter() - started
        peak_rss = max(sampler.peak_mb, tree_hwm_mb(workload.rss_root(),
                                                    workload.rss_exclude()))

        if tracer is not None:
            tracer.restore()
            obs.disable()

        mismatches = check_repeats(records)
        distinct = [r for r in records if not r.repeat]
        pick = gen.oracle_pick(args.workload, args.seed, len(distinct))
        ops_by_id = {op["id"]: op for ops in streams.values() for op in ops}
        oracle_error = None
        try:
            if distinct[pick].error is not None:
                raise RuntimeError("the sampled op failed")
            workload.oracle(ops_by_id[distinct[pick].op_id], distinct[pick])
        except Exception as error:  # noqa: BLE001 — reported as incorrect
            oracle_error = f"{type(error).__name__}: {error}"

        ok = [r for r in records if r.error is None]
        failed = len(records) - len(ok)

        def latencies(subset):
            return [calibrated(r.latency_s, r.host_ms, workload.probe_ref_ms)
                    * 1000.0 for r in subset]

        work_per_s = sum(r.units for r in ok) / max(1e-9, workload.busy_s)
        if args.trace:
            metrics = layer_metrics(workload, records, recorder, work_per_s)
            units = dict(PER_LAYER)
        else:
            metrics = {
                "setup_s": median(setup),
                "peak_rss_mb": peak_rss,
                "work_per_s": work_per_s,
                "op_p50_ms": median(latencies(ok)),
                "op_tail_ms": tail(latencies(ok))[0],
                "hit_p50_ms": median(latencies(r for r in ok if r.role == "hit")),
                "hit_tail_ms": tail(latencies(r for r in ok if r.role == "hit"))[0],
                "compute_p50_ms": median(
                    latencies(r for r in ok if r.role == "compute")),
            }
            units = dict(END_TO_END)

        run_digest = digest_of([r.digest for r in records])
        summary = {
            "workload": args.workload, "seed": args.seed, "trace": args.trace,
            "ops": len(records), "failed": failed, "repeat_mismatches": mismatches,
            "oracle": oracle_error or "ok", "digest": run_digest,
            "timed_s": round(wall, 3),
            "raw_setup_s": [round(s, 3) for s in setup_raw],
            "raw_op_p50_ms": round(median([r.latency_s * 1000.0 for r in ok]), 3),
            "raw_work_per_s": round(sum(r.units for r in ok) / wall, 3),
            "probe_ms": round(median(workload.probe_ms), 3),
            "tail_pct": round(tail(latencies(ok))[1], 1),
            "errors": sorted({r.error for r in records if r.error})[:5],
        }
        print(json.dumps(summary, sort_keys=True), file=sys.stderr)
        for name, value in metrics.items():
            if isinstance(value, float) and not math.isfinite(value):
                metrics[name] = 0.0
        return {
            "correct": failed == 0 and oracle_error is None,
            "attempted": len(records),
            "failed": failed,
            "metrics": {name: {"value": metrics[name], "unit": unit}
                        for name, unit in units.items()},
        }
    finally:
        workload.close()


def parse_args(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[1])
    parser.add_argument("--workload",
                        choices=("characterize", "attack", "serve", "fleet"))
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=int, default=12)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-child", metavar="WORKLOAD", default=None,
                        help=argparse.SUPPRESS)
    parser.add_argument("--probe-helper", metavar="CPU", type=int, default=None,
                        help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    if args.setup_child is None and args.probe_helper is None \
            and args.workload is None:
        parser.error("--workload is required")
    if not 1 <= args.seconds <= 600:
        parser.error("--seconds must be in [1, 600]")
    return args


def main(argv=None) -> int:
    args = parse_args(argv)
    if not os.path.isfile(os.path.join(SRC, "repro", "__init__.py")):
        print(f"perfbench: no program source at {SRC}/repro; run from a "
              "checkout of the repository", file=sys.stderr)
        return 2

    if args.probe_helper is not None:
        # A concurrent-probe helper of the parent (see harness.ConcurrentProbe).
        sys.path.insert(0, ROOT)
        from perfbench.harness import probe_helper
        probe_helper(args.probe_helper)
        return 0

    if args.setup_child:
        # A fresh interpreter timed by the parent: it runs in the parent's
        # temporary directory with the parent's hermetic environment.
        hermetic_environment(os.getcwd())
        workload = workload_class(args.setup_child)(os.getcwd())
        try:
            workload.prepare()
        finally:
            workload.close()
        return 0

    # A terminated run still unwinds: the service it started is stopped and
    # its temporary directory removed.
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(128 + signal.SIGTERM))
    os.makedirs(TMP_PARENT, exist_ok=True)
    tmp_dir = tempfile.mkdtemp(prefix=f"{args.workload}-{args.seed}-",
                               dir=TMP_PARENT)
    try:
        hermetic_environment(tmp_dir)
        result = run(args, tmp_dir)
    finally:
        os.chdir(ROOT)
        shutil.rmtree(tmp_dir, ignore_errors=True)
        try:
            os.rmdir(TMP_PARENT)
        except OSError:
            pass
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
