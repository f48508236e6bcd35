"""Tests of the benchmark's workload generator (numpy only, no server).

Run:  python -m pytest -q perfbench/test_perfbench_workloads.py
"""

from __future__ import annotations

import itertools
import json
import sys
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).resolve().parent))

import workloads  # noqa: E402


def _bodies(stream, count: int) -> list[bytes]:
    return [op.request for op in itertools.islice(stream, count)]


def _json_body(op) -> dict:
    return json.loads(op.request.split(b"\r\n\r\n", 1)[1])


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_same_seed_gives_identical_bytes(workload):
    assert _bodies(workloads.stream(workload, 7), 40) == _bodies(workloads.stream(workload, 7), 40)


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_other_seed_gives_other_bytes(workload):
    assert _bodies(workloads.stream(workload, 7), 40) != _bodies(workloads.stream(workload, 8), 40)


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_calls_belong_to_the_workload_classes(workload):
    kinds = {op.kind for op in itertools.islice(workloads.stream(workload, 2), 500)}
    assert kinds == set(workloads.CLASSES[workload])


@pytest.mark.parametrize("workload", ["inline-altr", "batch-mixed"])
def test_warmup_stream_differs_from_timed_stream(workload):
    assert _bodies(workloads.warmup_stream(workload, 7), 8) != _bodies(
        workloads.stream(workload, 7), 8
    )


def test_http_framing_matches_body_length():
    op = next(workloads.stream("inline-altr", 1))
    head, body = op.request.split(b"\r\n\r\n", 1)
    assert head.startswith(b"POST /v1/select HTTP/1.1\r\n")
    assert f"Content-Length: {len(body)}".encode() in head


def test_inline_altr_sends_a_new_pool_every_call():
    ops = list(itertools.islice(workloads.stream("inline-altr", 3), 50))
    pools = {op.check[0][1] for op in ops}
    assert len(pools) == 50
    body = _json_body(ops[0])
    assert len(body["candidates"]) == workloads.INLINE_POOL_SIZE
    assert body["model"] == "altr"
    assert {op.kind for op in ops} == {"select"}


def test_batch_mixed_composition_is_fixed():
    for op in itertools.islice(workloads.stream("batch-mixed", 5), 20):
        assert op.kind == "batch"
        requests = _json_body(op)["requests"]
        assert op.count == len(requests) == 16
        models = [r["model"] for r in requests]
        assert models == ["altr"] * 12 + ["pay"] * 3 + ["exact"]
        for request in requests:
            size = len(request["candidates"])
            if request["model"] == "exact":
                assert size == workloads.EXACT_POOL_SIZE
                assert 1.5 <= request["budget"] <= 2.5
            else:
                assert size == workloads.INLINE_POOL_SIZE
            if request["model"] == "pay":
                assert 1.0 <= request["budget"] <= 5.0


def test_registry_shares():
    """80% reads; a read is fresh (read-after-write) about 20% of the time.

    Ops on one pool are independent reads (p=0.8) and writes (p=0.2), so a
    read follows a write on its pool with probability 0.2 whatever the pool's
    popularity; README.md documents this share.
    """
    ops = list(itertools.islice(workloads.stream("registry-zipf-rw", 11), 10000))
    kinds = [op.kind for op in ops]
    reads = kinds.count("select") + kinds.count("fresh_read")
    assert reads / len(ops) == pytest.approx(workloads.READ_SHARE, abs=0.015)
    assert kinds.count("fresh_read") / reads == pytest.approx(0.2, abs=0.015)
    popular = sum(_json_body(op)["name" if op.kind == "mutate" else "pool"] == "p00" for op in ops)
    expected = workloads.zipf_cdf()[0]
    assert popular / len(ops) == pytest.approx(expected, abs=0.015)


def test_registry_reads_carry_the_shadow_state():
    """Each read's oracle input is the prepared pool plus every earlier update."""
    state = {name: list(eps) for name, eps in workloads.registry_prepared(4).items()}
    writes = dict.fromkeys(state, 0)
    for op in itertools.islice(workloads.stream("registry-zipf-rw", 4), 1500):
        body = _json_body(op)
        if op.kind == "mutate":
            update = body["set"][0]
            state[body["name"]][int(update["id"][1:])] = update["error_rate"]
            writes[body["name"]] += 1
            assert op.check == (("ack", body["name"], writes[body["name"]]),)
        else:
            _, name, count, eps = op.check[0]
            assert name == body["pool"]
            assert count == writes[name]
            assert list(eps) == state[name]
