"""``serve``: two closed-loop clients against ``python -m repro serve -j 1``.

The clients submit a seeded mix of Fig. 14 sweeps (memsim + mitigations
compute, small payload) and campaign jobs (large payload) to a service on
a fresh store, half of the distinct jobs shared between the clients. Each
distinct job is computed once; its re-requests are store hits (from either
client) or, once per round, an in-flight join. Rounds and a barrier fix the
compute/hit/join split by the seed (``gen._serve_streams``). This is the
only workload with store reads, in-flight dedup, event fan-out to several
subscribers and memsim compute, with writes beside reads.
"""

from __future__ import annotations

import os
import signal
import subprocess
import sys
import threading
import time
from typing import Callable, Dict, List, Optional, Tuple

from perfbench.gen import SERVE_CLIENTS
from perfbench.harness import (
    CheckFailed, Record, Workload, calibrated, digest_of, host_probe,
    local_host_ms, median, require,
)

#: Warm-up job: a one-cell sweep with a seed outside the op seed ranges.
WARMUP_REQUEST = {
    "kind": "sweep",
    "spec": {"mitigations": ["graphene"], "rdts": [1000.0], "margins": [0.1],
             "n_mixes": 1, "seed": 0},
}

READY_TIMEOUT_S = 60.0
BARRIER_TIMEOUT_S = 120.0

def _default_sigint() -> None:
    signal.signal(signal.SIGINT, signal.SIG_DFL)


class ServiceProcess:
    """One ``python -m repro serve`` process on a free port.

    Started in its own session so that :meth:`stop` can also reap any
    pool worker a crashed server left behind.
    """

    def __init__(self, store_path: str, log_path: str):
        self.log_path = log_path
        self._log = open(log_path, "w", encoding="utf-8")
        self.proc = subprocess.Popen(
            [sys.executable, "-m", "repro", "serve", "--port", "0",
             "-j", "1", "--store", store_path],
            stdin=subprocess.DEVNULL, stdout=subprocess.DEVNULL,
            stderr=self._log,
            start_new_session=True,
            # A shell starts background jobs with SIGINT ignored, and the
            # server would inherit that; it stops gracefully on SIGINT.
            preexec_fn=_default_sigint,
        )
        self.port = self._wait_ready()

    def _wait_ready(self) -> int:
        deadline = time.monotonic() + READY_TIMEOUT_S
        while time.monotonic() < deadline:
            with open(self.log_path, "r", encoding="utf-8") as handle:
                for line in handle:
                    if line.startswith("serving on "):
                        return int(line.split()[2].rsplit(":", 1)[1])
            if self.proc.poll() is not None:
                break
            time.sleep(0.005)
        self.stop()
        with open(self.log_path, "r", encoding="utf-8") as handle:
            raise RuntimeError(f"service did not start: {handle.read()[-2000:]}")

    def stop(self) -> None:
        if self.proc.poll() is None:
            self.proc.send_signal(signal.SIGINT)
            try:
                self.proc.wait(timeout=30)
            except subprocess.TimeoutExpired:
                self.proc.kill()
                self.proc.wait(timeout=30)
        try:
            os.killpg(self.proc.pid, signal.SIGKILL)
        except (ProcessLookupError, PermissionError):
            pass
        self._log.close()


def _client(port: int):
    from repro.service.client import ServiceClient

    return ServiceClient("127.0.0.1", port, timeout=120.0)


def submit(client, request: dict, on_accepted: Optional[Callable] = None
           ) -> Tuple[dict, float, float, bool]:
    """Submit one job; returns ``(terminal event, latency s, accept s,
    deduped)``. ``on_accepted`` runs when the ``accepted`` event arrives."""
    started = time.perf_counter()
    accepted = None
    deduped = False
    last = None
    for event in client.events(request):
        if accepted is None and event.get("event") == "accepted":
            accepted = time.perf_counter() - started
            deduped = bool(event.get("deduped"))
            if on_accepted is not None:
                on_accepted()
        last = event
    latency = time.perf_counter() - started
    if last.get("event") != "result":
        raise CheckFailed(f"service error: {last.get('error')}")
    return last, latency, accepted if accepted is not None else latency, deduped


class Serve(Workload):

    name = "serve"

    spawns = True
    parallelism = SERVE_CLIENTS

    def __init__(self, tmp_dir: str):
        super().__init__(tmp_dir)
        self.service: Optional[ServiceProcess] = None
        self._starts = 0

    def _start(self) -> ServiceProcess:
        self._starts += 1
        stem = os.path.join(self.tmp_dir, f"serve-{os.getpid()}-{self._starts}")
        return ServiceProcess(stem + ".sqlite", stem + ".log")

    def _warm(self, service: ServiceProcess) -> None:
        with _client(service.port) as client:
            require(client.ping(), "service ping")
            event, _, _, _ = submit(client, WARMUP_REQUEST)
            require(event["status"] == "computed", "warm-up job computed")

    def setup_once(self) -> float:
        """Service start to its first computed result (pool forked)."""
        started = time.perf_counter()
        service = self._start()
        try:
            self._warm(service)
            return time.perf_counter() - started
        finally:
            service.stop()

    def prepare(self) -> None:
        self.service = self._start()
        self._warm(self.service)

    @property
    def store_path(self) -> str:
        return self.service.log_path[:-len(".log")] + ".sqlite"

    def rss_root(self) -> int:
        return self.service.proc.pid

    def execute(self, streams: Dict[int, List[dict]]) -> List[Record]:
        """Both clients closed-loop, round by round (see
        ``gen._serve_streams``), meeting at a barrier after every round;
        the host probe runs there, while no request is in flight."""
        rounds = 1 + max(op["round"] for ops in streams.values() for op in ops)
        probes: List[float] = []
        marks: List[Tuple[float, float]] = []  # (probe start, probe end)
        # Set once the owner of a joined job has it accepted (in flight).
        in_flight = {op["after"]: threading.Event()
                     for ops in streams.values() for op in ops
                     if op["role"] == "join"}

        def probe() -> None:
            started = time.perf_counter()
            probes.append(host_probe())
            marks.append((started, time.perf_counter()))

        barrier = threading.Barrier(len(streams), action=probe)
        results: Dict[int, List[List[Record]]] = {}
        errors: List[BaseException] = []

        def drive(client_id: int, ops: List[dict]) -> None:
            try:
                with _client(self.service.port) as client:
                    barrier.wait(timeout=BARRIER_TIMEOUT_S)
                    chunks = results.setdefault(client_id, [])
                    for index in range(rounds):
                        chunks.append([self._request(client, op, in_flight)
                                       for op in ops if op["round"] == index])
                        barrier.wait(timeout=BARRIER_TIMEOUT_S)
            except BaseException as error:  # noqa: BLE001 — re-raised below
                errors.append(error)
                barrier.abort()
                for event in in_flight.values():
                    event.set()

        threads = [threading.Thread(target=drive, args=(cid, ops),
                                    name=f"perfbench-client{cid}")
                   for cid, ops in streams.items()]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        if errors:
            raise errors[0]
        self.probe_ms.extend(probes)
        self.busy_s = 0.0
        for index in range(rounds):
            host_ms = local_host_ms(probes, index)
            self.busy_s += calibrated(marks[index + 1][0] - marks[index][1], host_ms)
            for cid in results:
                for record in results[cid][index]:
                    record.host_ms = host_ms
        return [record for cid in sorted(results)
                for chunk in results[cid] for record in chunk]

    def _request(self, client, op: dict, in_flight: Dict[str, threading.Event]
                 ) -> Record:
        role = op["role"]
        record = Record(op_id=op["id"], repeat=op["repeat"], units=1,
                        role=role)
        on_accepted = in_flight[op["id"]].set if (
            role == "compute" and op["id"] in in_flight) else None
        started = time.perf_counter()
        try:
            if role == "join":
                require(in_flight[op["after"]].wait(timeout=BARRIER_TIMEOUT_S),
                        f"job {op['id']} never accepted")
            event, latency, accept, deduped = submit(
                client, op["request"], on_accepted)
            record.latency_s = latency
            # A join normally attaches to the running job; should that job
            # have finished first, the store answers it instead.
            expected = {"compute": ("computed",), "hit": ("hit",),
                        "join": ("computed", "hit")}[role]
            require(event["status"] in expected,
                    f"job {op['id']} ({role}): {event['status']}")
            record.digest = digest_of(event["payload"])
            record.info = {
                "kind": event["kind"], "key": event["key"],
                "status": event["status"], "deduped": deduped,
                "elapsed_ms": float(event["elapsed_ms"]),
                "accept_ms": accept * 1000.0,
            }
        except Exception as error:  # noqa: BLE001 — counted as a failed op
            record.error = f"{type(error).__name__}: {error}"
            record.latency_s = time.perf_counter() - started
        finally:
            if on_accepted is not None:
                on_accepted()  # never leave the joining client waiting
        return record

    def layer_extras(self, records: List[Record]) -> dict:
        ok = [r for r in records if r.error is None]
        hits = [r for r in ok if r.role == "hit"]
        computes = [r for r in ok if r.role == "compute"]
        fetch_ms, sizes = self._fetch_raw([(r.info["key"], r.info["kind"])
                                           for r in hits])
        # Named layers of a request: request sent -> ``accepted`` received
        # (service.accept), then the server's job (``elapsed_ms``: memsim
        # sweep, campaign engine or store fetch). The rest -- result
        # transfer, client decode, event-loop hops -- is not covered. A
        # join's job started before it was sent, hence the cap.
        covered = sum(min(r.latency_s * 1000.0,
                          r.info["accept_ms"] + r.info["elapsed_ms"])
                      for r in ok)
        return {
            "service.accept_ms": median([r.info["accept_ms"] for r in ok]),
            "service.overhead_ms": median(
                [r.latency_s * 1000.0 - r.info["elapsed_ms"] for r in hits]),
            "store.fetch_raw_ms": median(fetch_ms),
            "store.hit_bytes": sum(sizes) / max(1, len(sizes)),
            "memsim.sweep_ms": median([r.info["elapsed_ms"] for r in computes
                                       if r.info["kind"] == "sweep"]),
            "core.engine_ms": median([r.info["elapsed_ms"] for r in computes
                                      if r.info["kind"] == "campaign"]),
            "service.computed": len(computes),
            "service.hits": len(hits),
            "service.deduped": sum(r.info["deduped"] for r in ok),
            "trace.coverage_pct": 100.0 * covered / max(
                1e-9, sum(r.latency_s * 1000.0 for r in ok)),
        }

    def _fetch_raw(self, keys: List[Tuple[str, str]]) -> Tuple[List[float], List[int]]:
        """Read-only ``ResultStore.fetch_raw`` of each hit key from this
        process (the store the service writes): ms and payload bytes."""
        from repro.store.db import ResultStore

        store = ResultStore(self.store_path)
        times, sizes = [], []
        try:
            for key, kind in keys:
                started = time.perf_counter()
                raw, _ = store.fetch_raw(key, kind)
                times.append((time.perf_counter() - started) * 1000.0)
                require(raw is not None, f"stored payload for {key}")
                sizes.append(len(raw))
        finally:
            store.close()
        return times, sizes

    def oracle(self, op: dict, record: Record) -> None:
        """Stored bytes and a direct library run vs the service payload."""
        import json

        from repro.store.db import ResultStore

        request = op["request"]
        store = ResultStore(self.store_path)
        try:
            raw, _ = store.fetch_raw(record.info["key"], request["kind"])
        finally:
            store.close()
        require(raw is not None and digest_of(json.loads(raw)) == record.digest,
                "stored payload bytes vs computed payload")
        require(digest_of(direct_payload(request)) == record.digest,
                f"direct {request['kind']} run vs service payload")

    def close(self) -> None:
        if self.service is not None:
            self.service.stop()
            self.service = None


def direct_payload(request: dict) -> dict:
    """The job computed in this process through the library, no service."""
    import json

    if request["kind"] == "sweep":
        from repro.memsim.sweep import run_sweep
        from repro.service.jobs import sweep_spec_from_payload

        payload = run_sweep(sweep_spec_from_payload(request["spec"]),
                            n_jobs=1).to_payload()
    else:
        from repro.core.engine import CampaignEngine
        from repro.core.store import campaign_to_dict, config_from_dict

        engine = CampaignEngine(
            request["module_id"],
            [config_from_dict(entry) for entry in request["configs"]],
            n_measurements=request["n_measurements"],
            seed=request["seed"], n_jobs=1,
        )
        payload = campaign_to_dict(
            engine.run_pairs([tuple(pair) for pair in request["pairs"]])
        )
    # The wire form: what a client decodes from the service's JSON line.
    return json.loads(json.dumps(payload, sort_keys=True))
