"""Set-up, the closed-loop client and the timed phase of one run.

The server (``HttpServer`` -> ``AsyncJuryService`` -> ``JuryService``) runs
in the benchmark's own process and event loop.  One client holds one
keep-alive loopback connection and sends the next request only after the
previous answer arrived (a closed loop with one client).  Requests are
encoded before the clock starts, a chunk at a time; between chunks, with
the clock stopped, the answers go to the oracle process to be checked.

Importing this module imports ``repro``: ``run.py`` pins the environment
first.
"""

from __future__ import annotations

import asyncio
import gc
import itertools
import json
import shutil
import statistics
import time
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np
from repro.api import AsyncJuryService, JuryService, PoolCommand
from repro.api.server import HttpServer
from repro.core import kernels
from repro.core.juror import Juror
from repro.plan.frontier import DEFAULT_FRONTIER_CACHE_SIZE
from repro.storage import PoolCatalog

import oracle
import workloads

#: Set-ups per run; ``setup_s`` is their median.
SETUP_REPEATS = 9
#: Untimed warm-up calls after set-up (registry-zipf-rw: one read per pool).
WARMUP_CALLS = {"inline-altr": 64, "batch-mixed": 8}
#: Calls encoded per chunk.  The first chunk of the timed phase is the
#: counter window: a fixed number of calls, so /v1/stats deltas repeat
#: exactly for a given seed.
CHUNK_CALLS = {
    "inline-altr": 256,
    "batch-mixed": 32,
    "registry-zipf-rw": 1024,
}
#: Calls per statistics block.  Rates and percentiles are taken per block of
#: consecutive calls and reported as the median over the run's full blocks,
#: so a stretch of host slowdown shorter than half the run does not move
#: them.  Each block holds at least ten calls beyond its p90.
BLOCK_CALLS = {
    "inline-altr": 256,
    "batch-mixed": 96,
    "registry-zipf-rw": 1024,
}

#: Shard scheduling policy every run pins.
SCHEDULER = "cost"


#: Shard workers every run pins: one, so while the clock runs the server's
#: process is the only busy one on a 2-vCPU host.
WORKERS = 1


def config(session: "Session") -> dict:
    """The configuration a run measured, read from the live service."""
    service = session.server.service.service
    catalog = service.catalog
    return {
        "frontier_size": service.engine.frontier.maxsize,
        "kernel_backend": kernels.requested_backend(),
        "kernel_active": kernels.ensure_ready(),
        "scheduler": service.engine.scheduler_policy,
        "workers": WORKERS,
        "catalog": None if catalog is None else {
            "fsync_batch": catalog.fsync_batch,
            "snapshot_interval": catalog.snapshot_interval,
        },
        "connections": 1,
        "loop": "closed",
    }


_STATS_REQUEST = b"GET /v1/stats HTTP/1.1\r\nHost: bench\r\nContent-Length: 0\r\n\r\n"


class Connection:
    """The client half: one keep-alive connection, raw pre-encoded bytes."""

    def __init__(self, reader: asyncio.StreamReader, writer: asyncio.StreamWriter) -> None:
        self.reader = reader
        self.writer = writer

    async def call(self, request: bytes) -> tuple[int, bytes]:
        self.writer.write(request)
        await self.writer.drain()
        reader = self.reader
        status = int((await reader.readline()).split(None, 2)[1])
        length = 0
        while True:
            line = await reader.readline()
            if line == b"\r\n":
                break
            if not line:
                raise ConnectionError("server closed the connection")
            if line[:15].lower() == b"content-length:":
                length = int(line[15:])
        return status, await reader.readexactly(length)

    async def stats(self) -> bytes:
        status, body = await self.call(_STATS_REQUEST)
        if status != 200:
            raise RuntimeError(f"GET /v1/stats answered HTTP {status}")
        return body

    async def close(self) -> None:
        self.writer.close()
        await self.writer.wait_closed()


@dataclass
class Session:
    workload: str
    server: HttpServer
    conn: Connection
    base_versions: dict[str, int] = field(default_factory=dict)

    async def close(self) -> None:
        await self.conn.close()
        await self.server.aclose()


def prepare_catalog(seed: int, data_dir: Path) -> None:
    """Untimed: write the registry-zipf-rw catalog set-up will recover."""
    shutil.rmtree(data_dir, ignore_errors=True)
    catalog = PoolCatalog(data_dir, fsync_batch=0)
    service = JuryService(catalog=catalog, workers=1)
    ids = workloads.juror_ids(workloads.REGISTRY_POOL_SIZE)
    try:
        for name, eps in workloads.registry_contents(seed).items():
            jurors = tuple(Juror(e, 0.0, juror_id=i) for i, e in zip(ids, eps))
            service.pool(PoolCommand("create", name, candidates=jurors))
        for name, juror, eps in workloads.registry_prep_updates(seed):
            service.pool(PoolCommand("update", name, updates=((ids[juror], eps, None),)))
    finally:
        service.close()
        catalog.close()


async def open_session(workload: str, seed: int, data_dir: Path) -> tuple[Session, float]:
    """Build and warm the whole stack; returns it with its set-up seconds.

    Set-up runs from constructing the service to the first timed call: on
    registry-zipf-rw that is catalog open, recovery of every pool (lazy, on
    its warm read) and one warm read per pool.
    """
    start = time.perf_counter()
    registry = workload == "registry-zipf-rw"
    service = JuryService(
        workers=WORKERS,
        scheduler=SCHEDULER,
        frontier_size=DEFAULT_FRONTIER_CACHE_SIZE,
        data_dir=data_dir if registry else None,
    )
    server = await HttpServer(AsyncJuryService(service), port=0).start()
    conn = Connection(*await asyncio.open_connection(server.host, server.port))
    session = Session(workload, server, conn)
    gc.collect()
    if registry:
        for k in range(workloads.REGISTRY_POOLS):
            name = workloads.pool_name(k)
            request = workloads.encode_post(
                "/v1/select", {"v": 1, "task": f"warm-{name}", "pool": name}
            )
            status, body = await conn.call(request)
            answer = json.loads(body) if status == 200 else {}
            if answer.get("status") != "ok":
                raise RuntimeError(f"warm read of {name} failed: HTTP {status} {body[:200]!r}")
            session.base_versions[name] = answer["pool_version"]
    else:
        warm = workloads.warmup_stream(workload, seed)
        for op in itertools.islice(warm, WARMUP_CALLS[workload]):
            status, body = await conn.call(op.request)
            if status != 200:
                raise RuntimeError(f"warm-up call failed: HTTP {status} {body[:200]!r}")
    return session, time.perf_counter() - start


@dataclass
class Phase:
    """What one timed phase measured."""

    seconds: float = 0.0
    calls: int = 0
    requests: int = 0
    #: (operation class, client-side round trip in seconds, requests) of
    #: every call, in the order sent.
    records: list[tuple[str, float, int]] = field(default_factory=list)
    request_bytes: int = 0
    response_bytes: int = 0
    gc_pause_s: float = 0.0
    gc_gen2: int = 0
    #: Calls of the last chunk left unsent when time ran out.
    unsent: list = field(default_factory=list)


class GcWatch:
    """Times garbage-collector pauses through ``gc.callbacks``.

    Only collections that start while ``active`` count: the timed calls,
    not the encoding and checking between chunks.
    """

    def __init__(self) -> None:
        self.active = False
        self.pause_s = 0.0
        self.gen2 = 0
        self._start: float | None = None

    def __call__(self, phase: str, info: dict) -> None:
        if phase == "start":
            self._start = time.perf_counter() if self.active else None
        elif self._start is not None:
            self.pause_s += time.perf_counter() - self._start
            self.gen2 += info["generation"] == 2

    def __enter__(self) -> "GcWatch":
        gc.callbacks.append(self)
        return self

    def __exit__(self, *exc_info) -> None:
        gc.callbacks.remove(self)


def blocks(records: list, size: int) -> list[list]:
    """The full blocks of ``size`` consecutive calls (all calls if none is full)."""
    full = [records[i:i + size] for i in range(0, len(records) - size + 1, size)]
    return full or [records]


def block_median(records: list, size: int, kind: str | None = None, q: float | None = None):
    """Median over blocks of the request rate (``q`` None) or of the ``q``-th
    latency percentile of class ``kind``, in ms."""
    values = []
    for block in blocks(records, size):
        if q is None:
            values.append(sum(n for _, _, n in block) / sum(t for _, t, _ in block))
            continue
        latencies = [t for k, t, _ in block if k == kind]
        if latencies:
            values.append(float(np.percentile(latencies, q)) * 1e3)
    return statistics.median(values) if values else 0.0


async def timed_phase(
    conn: Connection,
    ops,
    seconds: float,
    chunk: int,
    judge: oracle.RemoteOracle,
    *,
    tracer=None,
    window: list | None = None,
) -> Phase:
    """Closed-loop calls from ``ops`` until ``seconds`` of timed work.

    The clock runs only while calls are in flight.  Between chunks, untimed,
    the next chunk is encoded and the last one is checked by ``judge``, so
    the timed work is spread over the run's whole wall time.  Calls taken
    from ``ops`` but not sent are left in ``Phase.unsent``.  When ``window``
    is a list, the first chunk runs whole and /v1/stats is read just before
    and just after it (appended to ``window``).
    """
    phase = Phase()
    first = window is not None
    with GcWatch() as watch:
        while phase.seconds < seconds:
            batch = list(itertools.islice(ops, chunk))
            if first:
                window.append(await conn.stats())
            answers = []
            call = conn.call
            watch.active = True
            chunk_start = time.perf_counter()
            for op in batch:
                if tracer is not None:
                    tracer.begin_call(phase.calls + len(answers))
                start = time.perf_counter()
                status, body = await call(op.request)
                end = time.perf_counter()
                if tracer is not None:
                    tracer.end_call(start, end)
                answers.append((op, status, body, end - start))
                if not first and phase.seconds + (end - chunk_start) >= seconds:
                    phase.unsent = batch[len(answers):]
                    break
            phase.seconds += time.perf_counter() - chunk_start
            watch.active = False
            if first:
                window.append(await conn.stats())
                first = False
            judge.check([(status, body) for _, status, body, _ in answers])
            for op, _, body, latency in answers:
                phase.records.append((op.kind, latency, op.count))
                phase.calls += 1
                phase.requests += op.count
                phase.request_bytes += len(op.request)
                phase.response_bytes += len(body)
    phase.gc_pause_s = watch.pause_s
    phase.gc_gen2 = watch.gen2
    return phase
