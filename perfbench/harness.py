"""Measurement machinery shared by the workloads.

* :class:`Record` — one executed op: latency, work units, output digest.
* :func:`tail` — the highest percentile with at least ten samples beyond.
* :func:`host_probe` — a fixed pure-Python + numpy kernel, timed between
  ops; :func:`calibrated` rescales a time by it (see ``README.md``,
  "Host calibration"). :class:`ConcurrentProbe` runs the same kernel on
  every CPU at once, for the workload whose ops keep every CPU busy.
* :class:`RssSampler` — peak resident memory summed over the benchmark
  process and every process it started (the program's servers and
  pool workers).
* :class:`Workload` — the sequential closed loop three workloads use;
  ``serve`` overrides :meth:`Workload.execute` with two client threads.
"""

from __future__ import annotations

import contextlib
import hashlib
import json
import math
import os
import statistics
import subprocess
import sys
import threading
import time
from dataclasses import dataclass, field
from typing import Callable, Dict, List, Optional, Sequence, Tuple

#: Samples on each side of the tail percentile; see :func:`tail`.
TAIL_BEYOND = 10

#: Set-ups per run; ``setup_s`` is their median.
SETUP_REPS = 9

#: The host probe's median time (ms) on the 2-vCPU reference host: 150
#: probes, 0.4 s apart, took 2.37 to 5.41 ms (5th percentile 2.50, median
#: 3.00, 95th percentile 3.54). Calibrated times therefore read as
#: milliseconds on that host at its median speed.
PROBE_REF_MS = 3.0

#: The concurrent probe's reference (ms): :data:`PROBE_REF_MS` times the
#: ratio of the two probes' medians when interleaved on the reference host
#: (150 pairs, 0.2 s apart: 1.687 / 1.921 ms = 0.878), so both calibrations
#: read at the same host speed.
CONCURRENT_PROBE_REF_MS = 2.63

#: Kernel runs per CPU in one concurrent probe (about 10 ms): long enough
#: that both CPUs run at once for most of it.
CONCURRENT_PROBE_REPS = 4


class CheckFailed(Exception):
    """An op's output broke an invariant or disagreed with an oracle."""


def require(condition: bool, message: str) -> None:
    if not condition:
        raise CheckFailed(message)


@dataclass
class Record:
    """One executed op."""

    op_id: object
    repeat: bool
    #: ``compute`` (first request), ``hit`` (re-request) or, in ``serve``,
    #: ``join`` (attached to the same job while in flight).
    role: str = ""
    latency_s: float = 0.0
    units: float = 0.0
    digest: str = ""
    #: Host-probe time (ms) around this op; see :func:`calibrated`.
    host_ms: float = PROBE_REF_MS
    error: Optional[str] = None
    info: dict = field(default_factory=dict)

    def __post_init__(self):
        if not self.role:
            self.role = "hit" if self.repeat else "compute"


def digest_of(*parts) -> str:
    """Stable digest of JSON-able values and raw byte strings."""
    hasher = hashlib.sha256()
    for part in parts:
        if isinstance(part, (bytes, bytearray, memoryview)):
            hasher.update(bytes(part))
        else:
            hasher.update(json.dumps(part, sort_keys=True).encode("utf-8"))
        hasher.update(b"\x00")
    return hasher.hexdigest()


def median(values: Sequence[float]) -> float:
    return float(statistics.median(values)) if values else math.nan


def tail(values: Sequence[float]) -> Tuple[float, float, int]:
    """``(value, percentile, n)`` of the highest percentile that still has
    :data:`TAIL_BEYOND` samples above it.

    With ``n`` samples that is the ``(n - TAIL_BEYOND)``-th smallest, the
    ``100 * (n - TAIL_BEYOND) / n`` percentile. Fewer than
    ``TAIL_BEYOND + 1`` samples have no such percentile; the maximum is
    returned with percentile 100.
    """
    ordered = sorted(values)
    n = len(ordered)
    if n == 0:
        return math.nan, math.nan, 0
    if n <= TAIL_BEYOND:
        return ordered[-1], 100.0, n
    rank = n - TAIL_BEYOND
    return ordered[rank - 1], 100.0 * rank / n, n


# ---------------------------------------------------------------------------
# Host probe
# ---------------------------------------------------------------------------

_PROBE_ARRAY = None


def _probe_kernel_ms() -> float:
    global _PROBE_ARRAY
    import numpy as np

    if _PROBE_ARRAY is None:
        _PROBE_ARRAY = np.random.default_rng(12345).random(40_000)
    started = time.perf_counter()
    total = 0
    for index in range(15_000):
        total += index * index % 7
    values = _PROBE_ARRAY
    for _ in range(4):
        values = np.sort(values * 1.0001)[::-1]
    elapsed = time.perf_counter() - started
    if total != 30_001 or values.size != 40_000:  # keeps the work live
        raise CheckFailed("host probe kernel changed")
    return elapsed * 1000.0


def host_probe() -> float:
    """Time (ms) of a fixed kernel -- an interpreter loop plus numpy sorts
    -- averaged over one run pinned to each CPU this process may use.

    Its inputs never change, so its time moves only with the host. The
    virtual CPUs drift independently and the workloads use both (pool
    workers, the service), so the probe samples each of them.
    """
    cpus = os.sched_getaffinity(0)
    times = []
    try:
        for cpu in sorted(cpus):
            os.sched_setaffinity(0, {cpu})
            times.append(_probe_kernel_ms())
    finally:
        os.sched_setaffinity(0, cpus)
    return sum(times) / len(times)


def calibrated(seconds: float, host_ms: float,
               ref_ms: float = PROBE_REF_MS) -> float:
    """``seconds`` rescaled to the reference host speed, where the probe
    that gave ``host_ms`` takes ``ref_ms``.

    The host's CPU speed drifts by tens of percent within minutes (shared
    virtual CPUs), and the probe slows with it. The probe runs no program
    code, so a program regression moves the numerator only.
    """
    return seconds * ref_ms / host_ms


def probe_helper(cpu: int) -> None:
    """Body of a :class:`ConcurrentProbe` helper process: pinned to
    ``cpu``, it answers each line on standard input with the times (ms) of
    :data:`CONCURRENT_PROBE_REPS` kernel runs, until standard input
    closes."""
    os.sched_setaffinity(0, {cpu})
    _probe_kernel_ms()
    for _ in sys.stdin:
        times = [_probe_kernel_ms() for _ in range(CONCURRENT_PROBE_REPS)]
        sys.stdout.write(" ".join(repr(t) for t in times) + "\n")
        sys.stdout.flush()


class ConcurrentProbe:
    """The host probe run on every CPU at the same time.

    :func:`host_probe` runs the kernel on one CPU at a time, so it misses a
    host state in which the virtual CPUs are fast alone but slow together.
    Pool workers keep both CPUs busy at once and do see it. This probe runs
    the kernel in this process, pinned to the first CPU, while one helper
    process per other CPU runs it pinned there; the mean of all runs is the
    host time. The helpers start at the first probe, so set-up does not pay
    for them, and are no part of the program's memory
    (:meth:`pids` lists them).
    """

    def __init__(self):
        self.cpus = sorted(os.sched_getaffinity(0))
        self._helpers: List[subprocess.Popen] = []

    def _start(self) -> None:
        run_py = os.path.join(os.path.dirname(os.path.abspath(__file__)),
                              "run.py")
        for cpu in self.cpus[1:]:
            self._helpers.append(subprocess.Popen(
                [sys.executable, run_py, "--probe-helper", str(cpu)],
                stdin=subprocess.PIPE, stdout=subprocess.PIPE, text=True,
                bufsize=1,
            ))

    def pids(self) -> List[int]:
        return [helper.pid for helper in self._helpers]

    def __call__(self) -> float:
        if len(self._helpers) < len(self.cpus) - 1:
            self._start()
        mask = os.sched_getaffinity(0)
        os.sched_setaffinity(0, {self.cpus[0]})
        try:
            for helper in self._helpers:
                helper.stdin.write("probe\n")
                helper.stdin.flush()
            times = [_probe_kernel_ms() for _ in range(CONCURRENT_PROBE_REPS)]
            for helper in self._helpers:
                line = helper.stdout.readline()
                if not line:
                    raise RuntimeError("probe helper exited")
                times.extend(float(value) for value in line.split())
        finally:
            os.sched_setaffinity(0, mask)
        return sum(times) / len(times)

    def close(self) -> None:
        for helper in self._helpers:
            with contextlib.suppress(OSError):
                helper.stdin.close()
        for helper in self._helpers:
            try:
                helper.wait(timeout=10)
            except subprocess.TimeoutExpired:
                helper.kill()
                helper.wait()
            helper.stdout.close()
        self._helpers = []


def local_host_ms(probes: Sequence[float], index: int) -> float:
    """Host speed around op ``index`` of a stream where ``probes[i]`` ran
    just before op ``i`` and ``probes[i + 1]`` just after it: the median of
    the probes before the previous op, before this op and after it."""
    return median(probes[max(0, index - 1):index + 2])


# ---------------------------------------------------------------------------
# Memory
# ---------------------------------------------------------------------------

def _hwm_kib(pid: int) -> int:
    try:
        with open(f"/proc/{pid}/status", "r", encoding="ascii") as handle:
            for line in handle:
                if line.startswith("VmHWM:"):
                    return int(line.split()[1])
    except (OSError, ValueError):
        pass
    return 0


def _children(pid: int) -> List[int]:
    found: List[int] = []
    try:
        tasks = os.listdir(f"/proc/{pid}/task")
    except OSError:
        return found
    for task in tasks:
        try:
            with open(f"/proc/{pid}/task/{task}/children", "r",
                      encoding="ascii") as handle:
                found.extend(int(child) for child in handle.read().split())
        except (OSError, ValueError):
            continue
    return found


def tree_hwm_mb(root_pid: int, exclude: Sequence[int] = ()) -> float:
    """Sum of per-process peak RSS (VmHWM) over a process tree, in MiB,
    leaving out the processes in ``exclude``."""
    pending = [root_pid]
    seen = set(exclude)
    total_kib = 0
    while pending:
        pid = pending.pop()
        if pid in seen:
            continue
        seen.add(pid)
        total_kib += _hwm_kib(pid)
        pending.extend(_children(pid))
    return total_kib / 1024.0


class RssSampler:
    """Background sampler of :func:`tree_hwm_mb`; keeps the maximum.

    Only workloads that start processes need it (a pool worker's peak is
    gone once it exits); for the others the final reading is exact.
    """

    def __init__(self, root_pid: int, exclude: Callable[[], Sequence[int]],
                 interval_s: float = 0.05):
        self.root_pid = root_pid
        self.exclude = exclude
        self.interval_s = interval_s
        self.peak_mb = 0.0
        self._stop = threading.Event()
        self._thread = threading.Thread(target=self._run, daemon=True,
                                        name="perfbench-rss")

    def _run(self) -> None:
        while not self._stop.is_set():
            self.peak_mb = max(self.peak_mb,
                               tree_hwm_mb(self.root_pid, self.exclude()))
            self._stop.wait(self.interval_s)

    def __enter__(self) -> "RssSampler":
        self._thread.start()
        return self

    def __exit__(self, *exc) -> bool:
        self._stop.set()
        self._thread.join(timeout=10)
        self.peak_mb = max(self.peak_mb,
                           tree_hwm_mb(self.root_pid, self.exclude()))
        return False


# ---------------------------------------------------------------------------
# Set-up timing
# ---------------------------------------------------------------------------

def time_setup_child(workload: str) -> float:
    """Wall time of one fresh interpreter that imports the workload's
    layers and runs its warm-up op (what a user pays once). It inherits
    this process's environment and working directory."""
    run_py = os.path.join(os.path.dirname(os.path.abspath(__file__)), "run.py")
    started = time.perf_counter()
    completed = subprocess.run(
        [sys.executable, run_py, "--setup-child", workload],
        stdin=subprocess.DEVNULL, stdout=subprocess.DEVNULL,
        stderr=subprocess.PIPE, text=True, timeout=120,
    )
    elapsed = time.perf_counter() - started
    if completed.returncode != 0:
        raise RuntimeError(
            f"set-up child failed ({completed.returncode}): "
            f"{completed.stderr.strip()[-2000:]}"
        )
    return elapsed


# ---------------------------------------------------------------------------
# Workloads
# ---------------------------------------------------------------------------

class Workload:
    """Base class: a sequential closed loop over one op stream.

    Subclasses implement :meth:`run_op` (execute one op and return its
    units, its outputs as :func:`digest_of` parts, and info; raise
    :class:`CheckFailed` on a broken invariant) and :meth:`oracle` (re-check
    one op against the program's reference path).
    """

    #: Workload name (``--workload``).
    name = ""
    #: Worker processes or client threads the workload uses.
    parallelism = 1
    #: Whether the workload starts processes (needs :class:`RssSampler`).
    spawns = False

    def __init__(self, tmp_dir: str):
        self.tmp_dir = tmp_dir
        self.probe_ms: List[float] = []
        #: Host probe timed between ops, and its time at the reference speed.
        self.probe: Callable[[], float] = host_probe
        self.probe_ref_ms = PROBE_REF_MS
        #: Host-calibrated seconds the timed phase spent executing ops.
        self.busy_s = 0.0
        self.root_frame: Callable = contextlib.nullcontext

    def setup_once(self) -> float:
        """One timed set-up (seconds); see ``setup_s``."""
        return time_setup_child(self.name)

    def prepare(self) -> None:
        """Imports and warm-up ops before timing (untimed)."""

    def rss_root(self) -> int:
        """Root of the process tree whose memory counts as the program's."""
        return os.getpid()

    def rss_exclude(self) -> Sequence[int]:
        """Processes under :meth:`rss_root` that are not the program's."""
        return ()

    def layer_extras(self, records: List[Record]) -> dict:
        """Workload-specific per-layer metrics (traced run)."""
        return {}

    def install_tracing(self, tracer) -> None:
        """Wrap this workload's layer functions with ``tracer``."""

    def run_op(self, op: dict) -> Tuple[float, tuple, dict]:
        raise NotImplementedError

    def oracle(self, op: dict, record: Record) -> None:
        raise NotImplementedError

    def close(self) -> None:
        """Stop everything the workload started."""

    def _timed(self, op: dict) -> Record:
        record = Record(op_id=op["id"], repeat=op["repeat"])
        outputs = ()
        started = time.perf_counter()
        try:
            with self.root_frame():
                record.units, outputs, record.info = self.run_op(op)
        except Exception as error:  # noqa: BLE001 — counted as a failed op
            record.error = f"{type(error).__name__}: {error}"
        record.latency_s = time.perf_counter() - started
        record.digest = digest_of(*outputs)  # outside the timed region
        return record

    def execute(self, streams: Dict[int, List[dict]]) -> List[Record]:
        """Run the op stream closed-loop, probing the host between ops."""
        (ops,) = streams.values()
        records = []
        probes = [self.probe()]
        for op in ops:
            records.append(self._timed(op))
            probes.append(self.probe())
        for index, record in enumerate(records):
            record.host_ms = local_host_ms(probes, index)
        self.probe_ms.extend(probes)
        self.busy_s = sum(calibrated(r.latency_s, r.host_ms, self.probe_ref_ms)
                          for r in records)
        return records
