#!/usr/bin/env python3
"""Steadiness report: two interleaved sets of runs of the same code.

    python3 perfbench/steady.py --runs 10 [--workloads inline-altr,...]

Runs ``perfbench/run.py`` as A B A B ... with BENCHMARK.json's
``run_seconds``: for run i of each workload, set A and then set B both use
seed ``1 + i``, so the two sets see the same inputs.  For each workload and
metric it prints each set's median and quartiles, the spread (interquartile
distance over the median, the figure BENCHMARK.json's ``bound`` is checked
against), and how much worse set B's median is than set A's, against the
bound.  It also prints each set's host-speed probe and flags every
/v1/stats counter that did not repeat exactly between the two runs of one
seed.  Exits 1 when a run fails or a spread or a median difference exceeds
its bound.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SETS = ("A", "B")
#: Seed of each workload's first run.
FIRST_SEED = 1


def one_run(workload: str, seed: int, seconds: int) -> dict:
    command = [
        sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed", str(seed),
        "--seconds", str(seconds), "--trace", "0",
    ]
    done = subprocess.run(command, cwd=ROOT, capture_output=True, text=True, timeout=600)
    lines = done.stdout.strip().splitlines()
    if done.returncode != 0 or not lines:
        raise RuntimeError(
            f"{workload} seed {seed}: exit {done.returncode}\n{done.stdout[-2000:]}"
            f"{done.stderr[-2000:]}"
        )
    detail = next(json.loads(line.split(" ", 1)[1]) for line in lines
                  if line.startswith("perfbench-run "))
    return {"result": json.loads(lines[-1]), "detail": detail}


def spread(values: list[float]) -> tuple[float, float, float, float]:
    """(median, q1, q3, (q3 - q1) / median)."""
    q1, median, q3 = statistics.quantiles(values, n=4)
    return median, q1, q3, (q3 - q1) / median if median else 0.0


def worse_by(a: float, b: float, better: str) -> float:
    """How much worse ``b`` is than ``a``, as a share of ``a``."""
    if not a:
        return 0.0
    return (b - a) / a if better == "lower" else (a - b) / a


def main(argv=None) -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    names = [w["name"] for w in spec["workloads"]]
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workloads", default=",".join(names))
    parser.add_argument("--runs", type=int, default=10, help="runs per set and workload")
    args = parser.parse_args(argv)
    chosen = args.workloads.split(",")
    if args.runs < 2:
        parser.error("--runs must be at least 2")
    metrics = {m["name"]: m for m in spec["end_to_end"]}
    seconds = spec["run_seconds"]

    runs: dict[str, dict[str, list[dict]]] = {w: {s: [] for s in SETS} for w in chosen}
    for i in range(args.runs):
        for workload in chosen:
            for side in SETS:
                run = one_run(workload, FIRST_SEED + i, seconds)
                runs[workload][side].append(run)
                shown = {k: round(v["value"], 4) for k, v in run["result"]["metrics"].items()}
                print(f"[{side}{i}] {workload} seed={FIRST_SEED + i} "
                      f"probe={run['detail']['host_probe_s']:.4f}s {shown}", flush=True)

    failed = False
    for workload in chosen:
        print(f"\n== {workload}  ({args.runs} runs per set, {seconds}s each)")
        for side in SETS:
            probe = [r["detail"]["host_probe_s"] for r in runs[workload][side]]
            median, q1, q3, share = spread(probe)
            print(f"   host probe {side}: median {median:.4f}s [{q1:.4f}, {q3:.4f}] "
                  f"spread {share:.1%}")
        print(f"   {'metric':<26}{'A median [q1, q3]':>32}{'spread':>8}"
              f"{'B median [q1, q3]':>32}{'spread':>8}{'B worse':>9}{'bound':>7}  verdict")
        for name, metric in metrics.items():
            values = {s: [r["result"]["metrics"][name]["value"] for r in runs[workload][s]]
                      for s in SETS}
            stats = {s: spread(values[s]) for s in SETS}
            bound = metric["bound"]
            worse = worse_by(stats["A"][0], stats["B"][0], metric["better"])
            widest = max(stats[s][3] for s in SETS)
            noisy = widest > bound
            tight = widest <= bound / 3
            verdict = "NOISY" if noisy else "steady" if tight else "within bound"
            if worse > bound:
                verdict += ", SETS DISAGREE"
            failed = failed or noisy or worse > bound
            cells = "".join(
                f"{stats[s][0]:>14.4f} [{stats[s][1]:.4f}, {stats[s][2]:.4f}]"[-32:].rjust(32)
                + f"{stats[s][3]:>8.1%}" for s in SETS
            )
            print(f"   {name:<26}{cells}{worse:>+9.1%}{bound:>7.2f}  {verdict}")
        unsteady = set()
        for a, b in zip(runs[workload]["A"], runs[workload]["B"]):
            ca, cb = a["detail"]["counters"], b["detail"]["counters"]
            unsteady.update(k for k in ca.keys() | cb.keys() if ca.get(k) != cb.get(k))
        print("   counters differing between runs of one seed: "
              + (", ".join(sorted(unsteady)) if unsteady else "none"))
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
