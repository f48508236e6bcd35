#!/usr/bin/env python3
"""One benchmark run of the jury-selection HTTP service.

    python3 perfbench/run.py --workload inline-altr --seed 1 --seconds 20 --trace 0

Drives the real ``HttpServer`` -> ``AsyncJuryService`` -> ``JuryService``
stack, in this process, from one keep-alive loopback connection in a closed
loop, and checks every answer against the paper's core functions.  Prints
a table of the run's metrics (name, value, unit, samples), one
``perfbench-run {...}`` detail line, and as the last line the JSON result:
end-to-end metrics with ``--trace 0``; per-layer metrics with ``--trace 1``,
whose run times half its seconds untraced and half with every layer's
entry points wrapped.  Exits 1 when an answer is wrong, 2 when the
repository's ``src/repro`` is missing.  See perfbench/README.md.
"""

from __future__ import annotations

import argparse
import asyncio
import gc
import itertools
import json
import os
import shutil
import statistics
import sys
import tempfile
import time
from pathlib import Path

import workloads

ROOT = Path(__file__).resolve().parent.parent
BUILD = ROOT / ".bench_build" / "perfbench"


def metric_units() -> tuple[dict[str, str], dict[str, str]]:
    """(end-to-end, per-layer) metric name -> unit, from BENCHMARK.json."""
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    return tuple({m["name"]: m["unit"] for m in spec[key]}
                 for key in ("end_to_end", "per_layer"))


def pin_environment() -> None:
    """Ignore ambient ``REPRO_*`` settings; keep every file in the checkout.

    Runs before anything imports ``repro``, which reads these variables.
    """
    for key in [key for key in os.environ if key.startswith("REPRO_")]:
        del os.environ[key]
    tmp = BUILD / "tmp"
    tmp.mkdir(parents=True, exist_ok=True)
    os.environ["REPRO_KERNEL_BACKEND"] = "auto"
    os.environ["REPRO_KERNEL_CACHE_DIR"] = str(BUILD / "kernels")
    os.environ["TMPDIR"] = str(tmp)
    tempfile.tempdir = None
    sys.path.insert(0, str(ROOT / "src"))


def host_probe() -> float:
    """Seconds for a fixed pure-Python loop: a host-speed diagnostic."""
    start = time.perf_counter()
    total = 0
    for i in range(2_000_000):
        total += i * i % 7
    return time.perf_counter() - start


def reset_peak_rss() -> None:
    """Restart the kernel's peak-RSS count (Linux ``clear_refs`` code 5)."""
    with open("/proc/self/clear_refs", "w") as control:
        control.write("5")


def peak_rss_mb() -> float:
    """Peak resident memory since the last :func:`reset_peak_rss`."""
    with open("/proc/self/status") as status:
        for line in status:
            if line.startswith("VmHWM:"):
                return int(line.split()[1]) / 1024.0
    raise RuntimeError("no VmHWM in /proc/self/status")


async def measure(workload: str, seed: int, seconds: float, trace: bool) -> dict:
    """Prepare, set up, run the timed phase(s); returns the raw results."""
    import harness
    import layers
    import oracle
    from repro.service.shard import shutdown_shared_pools
    from spans import Patcher, Tracer

    data_dir = BUILD / f"catalog-{os.getpid()}"
    out: dict = {}
    judge = oracle.RemoteOracle(workload, seed)
    try:
        if workload == "registry-zipf-rw":
            harness.prepare_catalog(seed, data_dir)
        out["setups"] = []
        for repeat in range(harness.SETUP_REPEATS):
            # Memory counts from the start of the set-up that serves the
            # timed phase: preparation and earlier set-ups do not count.
            gc.collect()
            last = repeat == harness.SETUP_REPEATS - 1
            if last:
                reset_peak_rss()
            session, setup = await harness.open_session(workload, seed, data_dir)
            out["setups"].append(setup)
            if not last:
                await session.close()
        out["config"] = harness.config(session)
        judge.start(session.base_versions)
        ops = workloads.stream(workload, seed)
        chunk = harness.CHUNK_CALLS[workload]
        window: list[bytes] = []
        try:
            untraced = await harness.timed_phase(
                session.conn, ops, seconds / 2 if trace else seconds, chunk, judge,
                window=window,
            )
            out["phases"] = [untraced]
            out["peak_rss_mb"] = peak_rss_mb()
            out["window"] = layers.counters(*window)
            if trace:
                tracer = Tracer()
                patcher = Patcher(tracer)
                layers.install(patcher)
                try:
                    traced = await harness.timed_phase(
                        session.conn, itertools.chain(untraced.unsent, ops), seconds / 2,
                        chunk, judge, tracer=tracer,
                    )
                finally:
                    patcher.restore()
                out["phases"].append(traced)
                out["per_layer"] = layers.per_layer(tracer.spans, traced.requests)
                spans_path = BUILD / f"spans-{workload}-seed{seed}.jsonl"
                tracer.write(spans_path)
                out["spans_file"] = str(spans_path.relative_to(ROOT))
        finally:
            await session.close()
        if workload == "registry-zipf-rw":
            out["wal_bytes_per_mutation"] = layers.wal_bytes_per_mutation(data_dir)
        out["attempted"], out["failed"] = judge.attempted, judge.failed
    finally:
        judge.close()
        shutdown_shared_pools()
        shutil.rmtree(data_dir, ignore_errors=True)
    return out


def summarise(workload: str, trace: bool, raw: dict, probe: float, names):
    """(end-to-end metrics, per-layer metrics ``names``, table rows).

    Both latency metrics cover the workload's main operation class only.
    """
    import harness

    main = raw["phases"][0]
    rows = []

    def add(name, value, unit, samples):
        rows.append((name, value, unit, samples))
        return value

    size = harness.BLOCK_CALLS[workload]
    rate = harness.block_median(main.records, size)
    e2e = {"ops_per_s": add("ops_per_s", rate, "1/s", main.requests)}
    for kind in workloads.CLASSES[workload]:
        samples = sum(k == kind for k, _, _ in main.records)
        for q in (50, 90):
            value = add(f"{kind}_p{q}_ms", harness.block_median(main.records, size, kind, q),
                        "ms", samples)
            if kind == workloads.CLASSES[workload][0]:
                e2e[f"latency_p{q}_ms"] = value
    e2e["setup_s"] = add("setup_s", statistics.median(raw["setups"]), "s", len(raw["setups"]))
    e2e["peak_rss_mb"] = add("peak_rss_mb", raw["peak_rss_mb"], "MB", 1)
    attempted, failed = raw["attempted"], raw["failed"]
    add("ok_share", (attempted - failed) / attempted, "ratio", attempted)
    add("host_probe_s", probe, "s", 1)
    if not trace:
        return e2e, {}, rows

    traced = raw["phases"][1]
    per_layer = {**raw["window"], **raw["per_layer"]}
    per_layer["protocol.request_bytes"] = traced.request_bytes / traced.requests
    per_layer["protocol.response_bytes"] = traced.response_bytes / traced.requests
    per_layer["storage.wal_bytes_per_mutation"] = raw.get("wal_bytes_per_mutation", 0.0)
    per_layer["gc.pause_ms"] = main.gc_pause_s * 1e3 / main.requests
    per_layer["gc.gen2_per_1k_requests"] = main.gc_gen2 * 1e3 / main.requests
    per_layer["trace.overhead"] = (
        (traced.requests / traced.seconds) / (main.requests / main.seconds)
    )
    for kind in ("fresh_read", "mutate"):
        for q in (50, 90):
            per_layer[f"class.{kind}_p{q}_ms"] = harness.block_median(main.records, size, kind, q)
    return e2e, {name: float(per_layer[name]) for name in names}, rows


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (ROOT / "src" / "repro" / "__init__.py").is_file():
        print(f"perfbench: {ROOT / 'src' / 'repro'} not found; run from a checkout of "
              "the repository", file=sys.stderr)
        return 2
    end_to_end, layer_units = metric_units()
    pin_environment()

    probe = host_probe()
    raw = asyncio.run(measure(args.workload, args.seed, args.seconds, bool(args.trace)))
    e2e, per_layer, rows = summarise(args.workload, bool(args.trace), raw, probe, layer_units)

    print(f"perfbench {args.workload} seed={args.seed} seconds={args.seconds:g} "
          f"trace={args.trace}")
    for name, value, unit, samples in rows:
        print(f"  {name:<20} {value:>12.4f} {unit:<6} n={samples}")
    for name, value in per_layer.items():
        print(f"  {name:<32} {value:>14.4f} {layer_units[name]}")
    detail = {
        "workload": args.workload,
        "seed": args.seed,
        "trace": args.trace,
        "config": raw["config"],
        "host_probe_s": probe,
        "table": {name: value for name, value, _, _ in rows},
        "samples": {name: samples for name, _, _, samples in rows},
        "setups": raw["setups"],
        "counters": raw["window"],
        "spans_file": raw.get("spans_file"),
    }
    print("perfbench-run " + json.dumps(detail))
    if args.trace:
        metrics = {name: {"value": value, "unit": layer_units[name]}
                   for name, value in per_layer.items()}
    else:
        metrics = {name: {"value": e2e[name], "unit": unit} for name, unit in end_to_end.items()}
    correct = raw["failed"] == 0
    print(json.dumps({
        "correct": correct,
        "attempted": raw["attempted"],
        "failed": raw["failed"],
        "metrics": metrics,
    }))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
