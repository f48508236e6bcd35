"""Seeded operation streams for the benchmark's workloads.

Every workload is a deterministic function of its seed: the same seed gives
a byte-identical stream of encoded HTTP requests, so the oracle process
regenerates exactly the calls the run sent instead of receiving them.

Each :class:`Op` is one HTTP call over the benchmark's keep-alive
connection.  ``kind`` names its operation class; every latency metric is
computed over one class only:

``select``
    ``POST /v1/select``.  On inline-altr it carries a fresh inline pool; on
    registry-zipf-rw it reads a named pool that has had no write since that
    pool's last read.
``fresh_read``
    ``POST /v1/select`` of a named pool that was written since its last read
    (read-after-write: the server pays the delta repair).
``mutate``
    ``POST /v1/pool`` single-juror update.
``batch``
    ``POST /v1/select_many`` with a fixed composition (``BATCH_MIX``).

This module imports nothing from ``repro``: building the inputs must not
touch any state of the program under test.
"""

from __future__ import annotations

import itertools
import json
from collections.abc import Iterator
from dataclasses import dataclass

import numpy as np

#: Operation classes each workload sends, by workload name (in the order
#: BENCHMARK.json lists them).  The first class is the one the end-to-end
#: latency metrics cover.
CLASSES = {
    "inline-altr": ("select",),
    "batch-mixed": ("batch",),
    "registry-zipf-rw": ("select", "fresh_read", "mutate"),
}
WORKLOADS = tuple(CLASSES)

#: Candidates per inline AltrM / PayM pool.
INLINE_POOL_SIZE = 121
#: Candidates per exact (PayM optimum) pool: enumeration stays interactive.
EXACT_POOL_SIZE = 20
#: Per-call composition of a select_many batch: (model, count), in order.
BATCH_MIX = (("altr", 12), ("pay", 3), ("exact", 1))
PAY_BUDGET = (1.0, 5.0)
EXACT_BUDGET = (1.5, 2.5)

#: registry-zipf-rw: named pools, their size, popularity and op mix.
REGISTRY_POOLS = 32
REGISTRY_POOL_SIZE = 401
ZIPF_S = 1.1
READ_SHARE = 0.8
#: Updates per pool written in the untimed preparation step, so set-up
#: recovery replays a real WAL tail (below the default snapshot interval).
PREP_UPDATES_PER_POOL = 64

ERROR_RATE = (0.05, 0.6)
REQUIREMENT = (0.05, 1.0)
#: Decimal places on generated numbers: short bodies, exact float round trip.
DIGITS = 6

# Stream tags keep the timed stream, the warm-up stream and the registry
# contents independent for one seed.
_TIMED, _WARMUP, _CONTENTS = 0, 1, 2


@dataclass(frozen=True)
class Op:
    """One HTTP call: its class, its encoded bytes and its oracle inputs."""

    kind: str
    request: bytes
    #: Requests answered by this call (each request inside a batch counts).
    count: int
    #: Inputs the oracle needs to recompute the answer (see ``oracle.py``).
    check: tuple


def encode_post(path: str, payload: dict) -> bytes:
    """A complete keep-alive HTTP/1.1 POST with a compact JSON body."""
    body = json.dumps(payload, separators=(",", ":")).encode("utf-8")
    head = (
        f"POST {path} HTTP/1.1\r\n"
        "Host: bench\r\n"
        "Content-Type: application/json\r\n"
        f"Content-Length: {len(body)}\r\n"
        "\r\n"
    )
    return head.encode("ascii") + body


def juror_ids(size: int) -> tuple[str, ...]:
    return tuple(f"j{i}" for i in range(size))


def _draw(rng: np.random.Generator, bounds: tuple[float, float], size: int) -> list[float]:
    return np.round(rng.uniform(*bounds, size=size), DIGITS).tolist()


def _draw_one(rng: np.random.Generator, bounds: tuple[float, float]) -> float:
    return round(float(rng.uniform(*bounds)), DIGITS)


def _task(rng: np.random.Generator, model: str, tag: str) -> tuple[dict, tuple]:
    """One inline selection request and its oracle spec."""
    if model == "altr":
        eps = _draw(rng, ERROR_RATE, INLINE_POOL_SIZE)
        ids = juror_ids(INLINE_POOL_SIZE)
        payload = {
            "v": 1,
            "task": tag,
            "candidates": [{"id": i, "error_rate": e} for i, e in zip(ids, eps)],
            "model": "altr",
        }
        return payload, ("altr", tuple(eps), None, None)
    size = INLINE_POOL_SIZE if model == "pay" else EXACT_POOL_SIZE
    eps = _draw(rng, ERROR_RATE, size)
    reqs = _draw(rng, REQUIREMENT, size)
    budget = _draw_one(rng, PAY_BUDGET if model == "pay" else EXACT_BUDGET)
    payload = {
        "v": 1,
        "task": tag,
        "candidates": [
            {"id": i, "error_rate": e, "requirement": r}
            for i, e, r in zip(juror_ids(size), eps, reqs)
        ],
        "model": model,
        "budget": budget,
    }
    return payload, (model, tuple(eps), tuple(reqs), budget)


def inline_altr(seed: int, stream: int = _TIMED) -> Iterator[Op]:
    """``POST /v1/select`` with a new 121-candidate AltrM pool every call."""
    rng = np.random.default_rng([seed, stream])
    for index in itertools.count():
        payload, spec = _task(rng, "altr", f"t{index}")
        yield Op("select", encode_post("/v1/select", payload), 1, (spec,))


def batch_mixed(seed: int, stream: int = _TIMED) -> Iterator[Op]:
    """``POST /v1/select_many`` calls of identical composition."""
    rng = np.random.default_rng([seed, stream])
    for index in itertools.count():
        payloads, specs = [], []
        for model, count in BATCH_MIX:
            for position in range(count):
                payload, spec = _task(rng, model, f"b{index}-{model}{position}")
                payloads.append(payload)
                specs.append(spec)
        request = encode_post("/v1/select_many", {"requests": payloads})
        yield Op("batch", request, len(payloads), tuple(specs))


def pool_name(index: int) -> str:
    return f"p{index:02d}"


def registry_contents(seed: int) -> dict[str, list[float]]:
    """The named pools' error rates (ids are ``juror_ids(size)``)."""
    rng = np.random.default_rng([seed, _CONTENTS])
    return {
        pool_name(k): _draw(rng, ERROR_RATE, REGISTRY_POOL_SIZE)
        for k in range(REGISTRY_POOLS)
    }


def registry_prep_updates(seed: int) -> list[tuple[str, int, float]]:
    """``(pool, juror index, error rate)`` updates of the preparation step."""
    rng = np.random.default_rng([seed, _CONTENTS, 1])
    updates = []
    for _ in range(PREP_UPDATES_PER_POOL):
        for k in range(REGISTRY_POOLS):
            juror = int(rng.integers(REGISTRY_POOL_SIZE))
            updates.append((pool_name(k), juror, _draw_one(rng, ERROR_RATE)))
    return updates


def registry_prepared(seed: int) -> dict[str, list[float]]:
    """Pool contents after the preparation step: the state set-up recovers."""
    pools = registry_contents(seed)
    for name, juror, eps in registry_prep_updates(seed):
        pools[name][juror] = eps
    return pools


def zipf_cdf(count: int = REGISTRY_POOLS, s: float = ZIPF_S) -> np.ndarray:
    weights = 1.0 / np.arange(1, count + 1) ** s
    return np.cumsum(weights) / weights.sum()


def registry_zipf_rw(seed: int, stream: int = _TIMED) -> Iterator[Op]:
    """Zipf-popular reads (80%) and single-juror updates (20%) of named pools.

    The generator keeps a shadow copy of every pool, so each read carries
    the exact pool contents the server must answer from, and the number of
    updates the pool took since set-up (for its echoed version).
    """
    rng = np.random.default_rng([seed, stream])
    cdf = zipf_cdf()
    shadow = {name: tuple(eps) for name, eps in registry_prepared(seed).items()}
    writes = dict.fromkeys(shadow, 0)
    dirty = dict.fromkeys(shadow, False)
    for index in itertools.count():
        name = pool_name(min(int(np.searchsorted(cdf, rng.random(), side="right")),
                             REGISTRY_POOLS - 1))
        if rng.random() < READ_SHARE:
            kind = "fresh_read" if dirty[name] else "select"
            dirty[name] = False
            payload = {"v": 1, "task": f"r{index}", "pool": name, "model": "altr"}
            yield Op(kind, encode_post("/v1/select", payload), 1,
                     (("pool", name, writes[name], shadow[name]),))
        else:
            juror = int(rng.integers(REGISTRY_POOL_SIZE))
            eps = _draw_one(rng, ERROR_RATE)
            pool = list(shadow[name])
            pool[juror] = eps
            shadow[name] = tuple(pool)
            writes[name] += 1
            dirty[name] = True
            payload = {
                "v": 1,
                "cmd": "pool",
                "action": "update",
                "name": name,
                "set": [{"id": f"j{juror}", "error_rate": eps}],
            }
            yield Op("mutate", encode_post("/v1/pool", payload), 1,
                     (("ack", name, writes[name]),))


STREAMS = {
    "inline-altr": inline_altr,
    "batch-mixed": batch_mixed,
    "registry-zipf-rw": registry_zipf_rw,
}


def stream(workload: str, seed: int) -> Iterator[Op]:
    """The timed operation stream of ``workload`` for ``seed``."""
    return STREAMS[workload](seed)


def warmup_stream(workload: str, seed: int) -> Iterator[Op]:
    """Untimed warm-up calls, independent of the timed stream.

    registry-zipf-rw has none here: its warm-up is one read per pool, which
    leaves the catalog on disk untouched so set-up can be repeated.
    """
    if workload == "registry-zipf-rw":
        return iter(())
    return STREAMS[workload](seed, _WARMUP)
