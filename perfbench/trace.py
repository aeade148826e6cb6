"""Layer timers for the traced run, installed from outside the program.

The traced run wraps public functions of each layer (``build_module``,
``ModuleFaultModel.probe_guess_means``, ``attack_escape``, ...) with a timer
that keeps a stack of open layer frames, so every frame's *self* time (its
duration minus the time of the layer frames it encloses) can be charged to
the layer. Times and call counts land as counters on the program's own
:mod:`repro.obs` recorder, under ``perfbench.ns|<role>|<parent>|<layer>``,
where ``role`` is
``main`` in the benchmark process and ``worker`` in any process forked
from it. Pool workers forked after the wrappers are installed record into
their own recorder, and the program already ships worker recorder
snapshots home and merges them (counters add), so worker-side layer time
reaches the benchmark process unchanged.

The stack is per process and not thread-safe; only single-threaded
workload code runs under it.
"""

from __future__ import annotations

import contextlib
import functools
import inspect
import os
import time
from typing import Dict, List, Tuple

NS_PREFIX = "perfbench.ns|"
ROOT = "op"


class LayerTracer:
    """Install layer timers; :meth:`restore` takes them out again."""

    def __init__(self, obs_module):
        self._obs = obs_module
        # Each open frame is [layer name, child ns accumulated].
        self._frames: List[list] = []
        self._patched: List[Tuple[object, str, object]] = []
        self._home_pid = os.getpid()

    def _record(self, layer: str, elapsed_ns: int) -> None:
        frame = self._frames.pop()
        parent = self._frames[-1][0] if self._frames else "-"
        if self._frames:
            self._frames[-1][1] += elapsed_ns
        role = "main" if os.getpid() == self._home_pid else "worker"
        self._obs.active().counter_add(f"{NS_PREFIX}{role}|{parent}|{layer}",
                                       elapsed_ns - frame[1])

    def wrap(self, owner, attr: str, layer: str) -> None:
        """Replace ``owner.attr`` (a module function, or a class's method,
        classmethod or staticmethod) with a timed wrapper charging
        ``layer``."""
        static = inspect.getattr_static(owner, attr)
        descriptor = type(static) if isinstance(
            static, (classmethod, staticmethod)) else None
        original = static.__func__ if descriptor else static
        clock = time.perf_counter_ns
        frames = self._frames
        record = self._record

        @functools.wraps(original)
        def timed(*args, **kwargs):
            frames.append([layer, 0])
            started = clock()
            try:
                return original(*args, **kwargs)
            finally:
                record(layer, clock() - started)

        self._patched.append((owner, attr, static))
        setattr(owner, attr, descriptor(timed) if descriptor else timed)

    @contextlib.contextmanager
    def root(self):
        """Frame one op, so its untraced remainder is charged to the ``op``
        pseudo-layer."""
        self._frames.append([ROOT, 0])
        started = time.perf_counter_ns()
        try:
            yield
        finally:
            self._record(ROOT, time.perf_counter_ns() - started)

    def restore(self) -> None:
        for owner, attr, original in reversed(self._patched):
            setattr(owner, attr, original)
        self._patched.clear()


def layer_totals(counters: Dict[str, float]) -> Dict[str, Dict[str, float]]:
    """Fold recorder counters into ``{layer: {"self_ns", "worker_ns"}}``;
    ``worker_ns`` is the part of ``self_ns`` spent in forked workers."""
    totals: Dict[str, Dict[str, float]] = {}
    for name, value in counters.items():
        if name.startswith(NS_PREFIX):
            role, _, layer = name[len(NS_PREFIX):].split("|", 2)
            entry = totals.setdefault(layer, {"self_ns": 0.0, "worker_ns": 0.0})
            entry["self_ns"] += value
            if role == "worker":
                entry["worker_ns"] += value
    return totals


def nested_ns(counters: Dict[str, float], parent: str, layer: str) -> float:
    """Self time of ``layer`` directly inside ``parent``, all roles."""
    return sum(value for name, value in counters.items()
               if name.startswith(NS_PREFIX)
               and name[len(NS_PREFIX):].split("|", 1)[1] == f"{parent}|{layer}")
