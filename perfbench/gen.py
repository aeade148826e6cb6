"""Seeded op lists for the four workloads (pure stdlib, no program imports).

Every workload runs a fixed list of ops that depends only on the workload,
``--seed`` and ``--seconds``: the op count is a per-workload rate times the
seconds, never a loop that runs until a deadline. Each distinct op appears
once as a first request (``repeat=False``) and then, later, as re-requests
of the identical inputs (``repeat=True``): once for ``characterize``,
``attack`` and ``fleet``, three times for ``serve``, whose traffic is laid
out in rounds (:func:`_serve_streams`). A re-request is only ever placed
where its first request has completed, so the hit/compute split of
``serve`` is a function of the seed, not of timing.

Structural sizes (rows, configurations, windows, modules) are the same for
every op of a workload, and categorical choices (device, patterns,
temperatures, mitigation, guardband) rotate with the op index; ``serve``
alternates sweeps and campaigns and draws the rest from the seed over a
few hundred jobs per run. The seed picks module seeds, rows, victims and
op order. Runs of one length thus
share the same mix of work whatever the seed, which keeps the figures
close across seeds.
"""

from __future__ import annotations

import itertools
import random
from typing import Dict, List

WORKLOADS = ("characterize", "attack", "serve", "fleet")

#: Distinct ops per measured second, sized on a 2-core host so that one
#: run's timed phase takes roughly ``--seconds``.
DISTINCT_OPS_PER_SECOND = {
    "characterize": 2.0,
    "attack": 3.2,
    "fleet": 2.25,
}

#: ``serve`` rounds per measured second (each round: every client issues
#: :data:`SERVE_NEW_PER_ROUND` new jobs and about three re-requests each).
SERVE_ROUNDS_PER_SECOND = 7.0

#: Re-requests of each distinct op.
REPEATS = {"characterize": 1, "attack": 1, "serve": 3, "fleet": 1}

#: The benchmark drives at most two threads, connections or worker
#: processes (the reference host has two cores).
MAX_PARALLEL = 2
SERVE_CLIENTS = MAX_PARALLEL

DDR4_DEVICES = tuple(
    f"{vendor}{index}" for vendor in "HMS" for index in range(7)
)
PATTERNS = ("rowstripe0", "rowstripe1", "checkered0", "checkered1")
PATTERN_PAIRS = tuple(itertools.combinations(PATTERNS, 2))
MITIGATIONS = ("graphene", "prac", "para", "mint")
MITIGATION_PAIRS = tuple(itertools.combinations(MITIGATIONS, 2))

# -- per-op sizes ------------------------------------------------------------

CHAR_BLOCK_ROWS = 64
CHAR_PER_BLOCK = 2
CHAR_MEASUREMENTS = 1000
TEMPERATURE_PAIRS = ((50.0, 65.0), (50.0, 80.0), (65.0, 80.0))

ATTACK_PROFILE_MEASUREMENTS = 8
ATTACK_GUESS_REPEATS = 3
ATTACK_WINDOWS = 2000
ATTACK_MARGINS = (0.0, 0.10, 0.30)

SERVE_NEW_PER_ROUND = 4
#: Most requests per client in one of the rounds that flush the last
#: re-requests.
SERVE_ROUND_OPS = 16
SERVE_CAMPAIGN_ROWS = 4
SERVE_SWEEP_MIXES = 1
SERVE_CAMPAIGN_MEASUREMENTS = 1000
SERVE_SWEEP_RDTS = (500.0, 1000.0, 2000.0, 4000.0)
SERVE_SWEEP_MARGINS = (0.0, 0.10, 0.20, 0.30)

FLEET_MODULES = 192
FLEET_SHARD_SIZE = 24
FLEET_ROWS = 6
FLEET_MEASUREMENTS = 48


def n_distinct(workload: str, seconds: int) -> int:
    """Distinct ops (over both clients for ``serve``) in one run."""
    if workload == "serve":
        return n_serve_rounds(seconds) * SERVE_NEW_PER_ROUND * SERVE_CLIENTS
    return max(1, round(DISTINCT_OPS_PER_SECOND[workload] * seconds))


def n_serve_rounds(seconds: int) -> int:
    return max(1, round(SERVE_ROUNDS_PER_SECOND * seconds))


def _rng(workload: str, seed: int, stream: str) -> random.Random:
    # String seeds hash through SHA-512: stable across processes and
    # independent of PYTHONHASHSEED.
    return random.Random(f"perfbench:{workload}:{seed}:{stream}")


def _interleave(distinct: List[dict], rng: random.Random,
                repeats: int) -> List[dict]:
    """First requests in order, each of its ``repeats`` re-requests later.

    After each first request, a few pending re-requests (of ops issued
    earlier) are emitted, on average ``repeats`` of them; the rest are
    flushed at the end.
    """
    stream: List[dict] = []
    pending: List[dict] = []
    for op in distinct:
        stream.append(dict(op, repeat=False))
        pending.extend([op] * repeats)
        for _ in range(rng.choice(range(2 * repeats + 1))):
            if len(pending) > repeats:  # never the op just issued
                index = rng.randrange(len(pending) - repeats)
                stream.append(dict(pending.pop(index), repeat=True))
    rng.shuffle(pending)
    stream.extend(dict(op, repeat=True) for op in pending)
    return stream


def _pick(options, index: int, stride: int = 1):
    """Rotate through ``options`` by op index: the same multiset of
    categorical choices in every run of a given length, whatever the seed."""
    return options[(index // stride) % len(options)]


def _characterize_op(index: int, rng: random.Random) -> dict:
    return {
        "id": index,
        "device": _pick(DDR4_DEVICES, index),
        "module_seed": rng.randrange(1, 2**31),
        "block_rows": CHAR_BLOCK_ROWS,
        "per_block": CHAR_PER_BLOCK,
        "patterns": list(_pick(PATTERN_PAIRS, index)),
        # Indices into repro.core.config.standard_t_agg_on_values: tRAS
        # always, plus one of the two long on-times.
        "t_agg_on": [0, _pick((1, 2), index)],
        "temperatures": list(_pick(TEMPERATURE_PAIRS, index)),
        "n_measurements": CHAR_MEASUREMENTS,
    }


def _attack_op(index: int, rng: random.Random) -> dict:
    return {
        "id": index,
        "device": _pick(DDR4_DEVICES, index),
        "module_seed": rng.randrange(1, 2**31),
        "victim": rng.randrange(64, 4096 - 64),
        "pattern": _pick(PATTERNS, index, len(MITIGATIONS) * len(ATTACK_MARGINS)),
        "kind": _pick(MITIGATIONS, index),
        "margin": _pick(ATTACK_MARGINS, index, len(MITIGATIONS)),
        "guess_repeats": ATTACK_GUESS_REPEATS,
        "profile_measurements": ATTACK_PROFILE_MEASUREMENTS,
        "windows": ATTACK_WINDOWS,
        "attack_seed": rng.randrange(1, 2**31),
    }


def _serve_job(kind: int, rng: random.Random) -> dict:
    """One service request: a Fig. 14 sweep (``kind`` 0) or a campaign."""
    seed = rng.randrange(1, 2**30)
    if kind == 0:
        cell = rng.randrange(len(MITIGATION_PAIRS) * len(SERVE_SWEEP_RDTS))
        return {
            "kind": "sweep",
            "spec": {
                "mitigations": list(_pick(MITIGATION_PAIRS, cell)),
                "rdts": [_pick(SERVE_SWEEP_RDTS, cell)],
                "margins": [_pick(SERVE_SWEEP_MARGINS, cell, 3)],
                "n_mixes": SERVE_SWEEP_MIXES,
                "seed": seed,
            },
        }
    rows = sorted(rng.sample(range(0, 4096), SERVE_CAMPAIGN_ROWS))
    return {
        "kind": "campaign",
        "module_id": rng.choice(DDR4_DEVICES),
        "seed": seed,
        "pairs": [[0, row] for row in rows],
        "configs": [
            {"pattern": rng.choice(PATTERNS), "t_agg_on_ns": 36.0,
             "temperature_c": temperature, "wordline_voltage_v": 2.5}
            for temperature in (50.0, 80.0)
        ],
        "n_measurements": SERVE_CAMPAIGN_MEASUREMENTS,
    }


def _serve_streams(seed: int, seconds: int) -> Dict[int, List[dict]]:
    """Rounds of closed-loop requests for both clients.

    The traffic follows the service's documented use (``docs/service.md``:
    several clients with overlapping jobs, sweeps and campaigns alternating).
    In every round each client issues :data:`SERVE_NEW_PER_ROUND` new jobs,
    alternating sweep and campaign; half of them are shared, i.e. the other
    client requests them too, so half of the distinct jobs are shared, as in
    the documented 50 % overlap. Each job is requested ``1 + REPEATS`` times
    in all: a private job three more times by its owner, a shared one once
    more by its owner and twice by the other client.

    Which request computes and which one hits is fixed here, not by timing,
    because clients meet at a barrier after every round:

    * ``compute``: the first request of a new job;
    * ``hit``: a re-request of a job whose first request finished earlier in
      the same client's stream, or in an earlier round of the other client;
    * ``join``: at the start of each round, one client's first new job is
      submitted by the other client too, as soon as the owner's request is
      accepted and while it computes, so the service's in-flight dedup
      attaches it to the running job and fans events out to both
      subscribers. ``after`` names the owner's op.
    """
    rng = _rng("serve", seed, "ops")
    streams: Dict[int, List[dict]] = {c: [] for c in range(SERVE_CLIENTS)}
    # Re-request tickets per client: (first round it may be issued in, op).
    tickets: Dict[int, List[tuple]] = {c: [] for c in range(SERVE_CLIENTS)}

    def emit(client: int, round_: int, op: dict, role: str, **extra) -> None:
        streams[client].append(dict(op, round=round_, role=role,
                                    repeat=role != "compute", **extra))

    for round_ in range(n_serve_rounds(seconds)):
        owner = round_ % SERVE_CLIENTS
        new = {
            client: [
                {"id": f"{client}:{round_}:{k}", "client": client,
                 "shared": k % 2 == 0,
                 "request": _serve_job((k + round_ // 2) % 2, rng)}
                for k in range(SERVE_NEW_PER_ROUND)
            ]
            for client in range(SERVE_CLIENTS)
        }
        joined = new[owner][0]
        for client in range(SERVE_CLIENTS):
            other = (client + 1) % SERVE_CLIENTS
            order = _rng("serve", seed, f"order{client}:{round_}")
            ready = [op for r, op in tickets[client] if r <= round_]
            tickets[client] = [(r, op) for r, op in tickets[client]
                               if r > round_]
            if client != owner:
                emit(client, round_, joined, "join", after=joined["id"])
            for op in new[client]:
                emit(client, round_, op, "compute")
                if not op["shared"]:
                    ready.extend([op] * REPEATS["serve"])
                else:
                    ready.append(op)
                    cross = 1 if op is joined else 2
                    tickets[other].extend([(round_ + 1, op)] * cross)
                for _ in range(order.choice(range(2 * REPEATS["serve"] + 1))):
                    if ready:
                        emit(client, round_, ready.pop(order.randrange(len(ready))),
                             "hit")
            tickets[client].extend((round_ + 1, op) for op in ready)
    # Flush the remaining re-requests, at most SERVE_ROUND_OPS per client
    # per round.
    round_ = n_serve_rounds(seconds)
    while any(tickets.values()):
        for client in range(SERVE_CLIENTS):
            order = _rng("serve", seed, f"order{client}:{round_}")
            ready = [op for r, op in tickets[client] if r <= round_]
            order.shuffle(ready)
            for op in ready[:SERVE_ROUND_OPS]:
                emit(client, round_, op, "hit")
            tickets[client] = [(r, op) for r, op in tickets[client]
                               if r > round_] + [(round_ + 1, op) for op in
                                                 ready[SERVE_ROUND_OPS:]]
        round_ += 1
    return streams


def _fleet_op(index: int, rng: random.Random) -> dict:
    return {
        "id": index,
        "n_modules": FLEET_MODULES,
        "shard_size": FLEET_SHARD_SIZE,
        "rows_per_module": FLEET_ROWS,
        "n_measurements": FLEET_MEASUREMENTS,
        "seed": rng.randrange(1, 2**31),
    }


def make_ops(workload: str, seed: int, seconds: int) -> Dict[int, List[dict]]:
    """The op streams of one run, keyed by client (one client except for
    ``serve``, whose ops also carry ``round`` and ``role``). Pure in
    ``(workload, seed, seconds)``."""
    if workload not in WORKLOADS:
        raise ValueError(f"unknown workload {workload!r}")
    if workload == "serve":
        return _serve_streams(seed, seconds)
    count = n_distinct(workload, seconds)
    rng = _rng(workload, seed, "ops")
    if workload == "characterize":
        distinct = [_characterize_op(i, rng) for i in range(count)]
    elif workload == "attack":
        distinct = [_attack_op(i, rng) for i in range(count)]
    else:
        distinct = [_fleet_op(i, rng) for i in range(count)]
    return {0: _interleave(distinct, _rng(workload, seed, "order"),
                           REPEATS[workload])}


def oracle_pick(workload: str, seed: int, n_ops: int) -> int:
    """Index of the distinct op whose outputs are checked against the
    program's oracle after the timed phase."""
    return _rng(workload, seed, "oracle").randrange(n_ops)
