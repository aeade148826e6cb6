"""Tests of the benchmark itself: op generation, the tail rule, the serve
generator's hit guarantee, and a tiny-scale smoke run of every workload.

Run from the repository root::

    python3 -m pytest perfbench/tests -q
"""

from __future__ import annotations

import json
import os
import random
import shutil
import subprocess
import sys

import pytest

from perfbench import gen
from perfbench.harness import TAIL_BEYOND, tail

ROOT = os.path.dirname(os.path.dirname(os.path.dirname(os.path.abspath(__file__))))
RUN = os.path.join(ROOT, "perfbench", "run.py")


def _run(workload: str, trace: int):
    return subprocess.run(
        [sys.executable, RUN, "--workload", workload, "--seed", "3",
         "--seconds", "1", "--trace", str(trace)],
        cwd=ROOT, capture_output=True, text=True, timeout=300,
    )


def _result(completed):
    assert completed.returncode == 0, completed.stderr[-3000:]
    result = json.loads(completed.stdout.strip().splitlines()[-1])
    summary = json.loads(completed.stderr.strip().splitlines()[-1])
    return result, summary


@pytest.mark.parametrize("workload", gen.WORKLOADS)
def test_generation_is_deterministic_from_the_seed(workload):
    assert gen.make_ops(workload, 7, 4) == gen.make_ops(workload, 7, 4)
    assert gen.make_ops(workload, 7, 4) != gen.make_ops(workload, 8, 4)
    total = sum(len(s) for s in gen.make_ops(workload, 7, 4).values())
    assert total == gen.n_distinct(workload, 4) * (1 + gen.REPEATS[workload])


def test_tail_has_ten_samples_beyond_and_is_the_highest_such():
    rng = random.Random(5)
    for n in range(TAIL_BEYOND + 1, 400, 7):
        values = [rng.random() for _ in range(n)]
        value, percentile, count = tail(values)
        assert count == n
        assert sum(v > value for v in values) >= TAIL_BEYOND
        higher = sorted(values)[sorted(values).index(value) + 1]
        assert sum(v > higher for v in values) < TAIL_BEYOND
        assert percentile == pytest.approx(100.0 * (n - TAIL_BEYOND) / n)


@pytest.mark.parametrize("seed", range(12))
def test_serve_never_re_requests_an_uncomputed_key(seed):
    streams = gen.make_ops("serve", seed, 6)
    # Round in which each job's first request ran, and its position there.
    first = {}
    for client, stream in streams.items():
        for op in stream:
            if op["role"] == "compute":
                assert op["id"] not in first, "a distinct job issued twice"
                first[op["id"]] = (client, op["round"])
    requests = {}
    for client, stream in streams.items():
        seen = set()
        for position, op in enumerate(stream):
            requests.setdefault(op["id"], []).append(client)
            owner, round_ = first[op["id"]]
            if op["role"] == "compute":
                seen.add(op["id"])
            elif op["role"] == "hit":
                # Completed earlier in this client's own closed loop, or in
                # an earlier round of the other client (rounds end at a
                # barrier).
                assert op["id"] in seen or (owner != client and round_ < op["round"]), \
                    f"re-request of {op['id']} before it completed"
            else:
                # A join runs first in its round, while the owner's first
                # request, also first in that round, is in flight.
                assert op["role"] == "join" and op["after"] == op["id"]
                assert owner != client and round_ == op["round"]
                assert position == 0 or stream[position - 1]["round"] < op["round"]
    assert {len(clients) for clients in requests.values()} == {1 + gen.REPEATS["serve"]}
    shared = [clients for clients in requests.values() if len(set(clients)) > 1]
    # Half of the distinct jobs are shared between the clients.
    assert 2 * len(shared) == len(requests)
    joins = [op for stream in streams.values() for op in stream if op["role"] == "join"]
    assert len(joins) == gen.n_serve_rounds(6)


def test_benchmark_json_matches_the_runner():
    sys.path.insert(0, os.path.join(ROOT, "perfbench"))
    try:
        import run
    finally:
        sys.path.pop(0)
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as handle:
        spec = json.load(handle)
    assert [w["name"] for w in spec["workloads"]] == list(gen.WORKLOADS)
    assert [(m["name"], m["unit"]) for m in spec["end_to_end"]] == list(run.END_TO_END)
    assert [(m["name"], m["unit"]) for m in spec["per_layer"]] == list(run.PER_LAYER)


@pytest.mark.parametrize("workload", gen.WORKLOADS)
def test_smoke_run_has_a_stable_digest_and_exact_counts(workload):
    plain, plain_summary = _result(_run(workload, trace=0))
    traced, traced_summary = _result(_run(workload, trace=1))
    again, again_summary = _result(_run(workload, trace=1))
    for result in (plain, traced, again):
        assert result["correct"] and result["failed"] == 0
        assert result["attempted"] == plain["attempted"] >= 1
    # Tracing is a pure observer, and the same seed reproduces every output.
    digests = {plain_summary["digest"], traced_summary["digest"],
               again_summary["digest"]}
    assert len(digests) == 1
    for name in ("core.adaptive.trials", "security.windows", "service.computed",
                 "service.hits", "op.count", "obs.rdt.measurements"):
        assert traced["metrics"][name]["value"] == again["metrics"][name]["value"]
    assert all(m["value"] > 0 for m in plain["metrics"].values())
    assert not os.path.exists(os.path.join(ROOT, ".perfbench-tmp"))


def test_refuses_to_run_without_the_program(tmp_path):
    shutil.copytree(os.path.join(ROOT, "perfbench"), tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    completed = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "fleet", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert completed.returncode != 0
    assert completed.stdout.strip() == ""
