"""Per-layer metrics: traced entry points and /v1/stats counters.

``install`` wraps the public entry points of each layer (see the layer
table in README.md).  ``per_layer`` and ``counters`` turn the spans of the
traced phase and the /v1/stats counter window into the per-layer metrics
BENCHMARK.json lists; every workload reports every one of them, zero where
a layer does no work.
"""

from __future__ import annotations

import json
from pathlib import Path

from spans import Patcher, outside_seconds, self_times

KERNELS = ("sweep", "jury_jer", "extend_block", "score_block", "convolve", "pay_scan")
BACKENDS = ("numpy", "native")

#: Span name of each traced entry point -> the layer time its self time adds
#: to.  The ``AsyncJuryService.*`` spans are not in it: see ``per_layer``.
SPAN_LAYER = {
    "http.call": "server.self_ms",
    "json.loads": "protocol.decode_ms",
    "SelectionRequest.from_dict": "protocol.decode_ms",
    "PoolCommand.from_dict": "protocol.decode_ms",
    "SelectionResponse.to_dict": "protocol.encode_ms",
    "json.dumps": "protocol.encode_ms",
    "JuryService.select_many": "service.self_ms",
    "JuryService.pool": "service.self_ms",
    "BatchSelectionEngine.run": "engine.self_ms",
    "pool_fingerprint": "engine.fingerprint_ms",
    "plan_query": "plan.plan_ms",
    "execute_plan": "plan.execute_ms",
    "LivePool.add_juror": "registry.mutate_ms",
    "LivePool.remove_juror": "registry.mutate_ms",
    "LivePool.update_juror": "registry.mutate_ms",
    "LivePool.answer_frontier": "registry.repair_ms",
    "LivePool.sweep_profile": "registry.repair_ms",
    "WalWriter.append": "storage.wal_append_ms",
    "run_pay_greedy": "selection.pay_ms",
    "enumerate_optimal": "selection.exact_ms",
    "branch_and_bound_optimal": "selection.exact_ms",
    **{f"kernel.{name}": "kernels.self_ms" for name in KERNELS},
}

def install(patcher: Patcher) -> None:
    """Wrap every traced entry point (undone by ``patcher.restore()``)."""
    from repro.api import server
    from repro.api.aio import AsyncJuryService
    from repro.api.protocol import PoolCommand, SelectionRequest, SelectionResponse
    from repro.api.service import JuryService
    from repro.core.kernels._native import NativeBackend
    from repro.core.kernels._reference import NumpyBackend
    from repro.core.selection import base, exact, pay
    from repro.plan import operators, planner
    from repro.service.batch import BatchSelectionEngine
    from repro.service.registry import LivePool
    from repro.storage.wal import WalWriter

    patcher.json_of(server, "json.loads", "json.dumps")
    for cls, attrs in (
        (SelectionRequest, ("from_dict",)),
        (PoolCommand, ("from_dict",)),
        (SelectionResponse, ("to_dict",)),
        (AsyncJuryService, ("select", "select_many", "pool")),
        (JuryService, ("select_many", "pool")),
        (BatchSelectionEngine, ("run",)),
        (LivePool, ("add_juror", "remove_juror", "update_juror",
                    "answer_frontier", "sweep_profile")),
        (WalWriter, ("append",)),
    ):
        for attr in attrs:
            patcher.method(f"{cls.__name__}.{attr}", cls, attr)
    for backend in (NumpyBackend, NativeBackend):
        for name in KERNELS:
            if name in vars(backend):
                patcher.method(f"kernel.{name}", backend, name)
    for fn in (
        base.pool_fingerprint,
        planner.plan_query,
        operators.execute_plan,
        pay.run_pay_greedy,
        exact.enumerate_optimal,
        exact.branch_and_bound_optimal,
    ):
        patcher.function(fn.__name__, fn)


def _flat(obj, prefix: str = "") -> dict[str, float]:
    out: dict[str, float] = {}
    if isinstance(obj, dict):
        for key, value in obj.items():
            out.update(_flat(value, f"{prefix}{key}."))
    elif isinstance(obj, list):
        for index, value in enumerate(obj):
            out.update(_flat(value, f"{prefix}{index}."))
    elif isinstance(obj, (int, float)) and not isinstance(obj, bool):
        out[prefix[:-1]] = float(obj)
    return out


def _ratio(hits: float, misses: float) -> float:
    return hits / (hits + misses) if hits + misses else 0.0


def counters(before: bytes, after: bytes) -> dict[str, float]:
    """Layer counters over the counter window, from two /v1/stats reads.

    Monotonic counters are differences across the window; ``entries``
    gauges are the value at its end.
    """
    start = _flat(json.loads(before))
    end = _flat(json.loads(after))

    def delta(key: str) -> float:
        return end.get(key, 0.0) - start.get(key, 0.0)

    out = {
        "async.batches": delta("async.batches"),
        "async.answered": delta("async.answered"),
        "planner.entries": end.get("planner.entries", 0.0),
    }
    batches = out["async.batches"]
    out["aio.batch_size"] = out["async.answered"] / batches if batches else 0.0
    for key in ("batch_sweeps", "pools_swept", "queries_run", "frontier_hits",
                "live_profiles"):
        out[f"engine.{key}"] = delta(f"engine.{key}")
    for block, keys in (
        ("planner", ("hits", "misses")),
        ("frontier", ("hits", "misses", "builds", "repairs", "rebuilds", "evictions")),
        ("cache", ("hits", "misses", "evictions")),
    ):
        for key in keys:
            out[f"{block}.{key}"] = delta(f"{block}.{key}")
        out[f"{block}.hit_ratio"] = _ratio(out[f"{block}.hits"], out[f"{block}.misses"])
    out["storage.wal_appends"] = delta("catalog.wal_appends")
    out["storage.fsyncs"] = delta("catalog.fsyncs")
    out["storage.snapshots"] = delta("catalog.snapshots")
    out["storage.records_replayed"] = end.get("catalog.records_replayed", 0.0)
    out["storage.recovery_ms"] = end.get("catalog.recovery_ms", 0.0)
    for kernel in KERNELS:
        for backend in BACKENDS:
            key = f"kernels.dispatch.{kernel}.{backend}"
            out[f"kernels.{kernel}.{backend}.calls"] = delta(key)
    return out


def per_layer(spans, requests: int) -> dict[str, float]:
    """Per-request layer times (ms) from the traced phase's spans.

    The async tier's time is, per HTTP call, the time covered by its
    ``AsyncJuryService.*`` spans and by no ``JuryService.*`` span (queue
    wait and thread hops).
    """
    per_request = 1e3 / max(requests, 1)
    out = {name: 0.0 for name in set(SPAN_LAYER.values())}
    for name, seconds in self_times(spans).items():
        if not name.startswith("AsyncJuryService."):
            out[SPAN_LAYER[name]] += seconds * per_request
    out["aio.queue_wait_ms"] = (
        outside_seconds(spans, "AsyncJuryService.", "JuryService.") * per_request
    )
    return out


def wal_bytes_per_mutation(data_dir) -> float:
    """Mean encoded size of the update records in the pools' WALs."""
    from repro.storage.wal import _encode, scan_wal

    sizes = [
        len(_encode(record))
        for path in sorted(Path(data_dir).glob("pools/*/wal.log"))
        for record in scan_wal(path).records
        if record.get("op") == "update"
    ]
    return sum(sizes) / len(sizes) if sizes else 0.0
