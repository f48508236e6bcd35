"""The oracle check: every timed answer against the paper's core functions.

The check runs in a child process (:class:`RemoteOracle`), so its memory
and its calls into ``repro`` (planner memo, kernel counters) stay out of
the measured process.  The child is this file run as a script over a
socket pair; no ``multiprocessing`` start method is used, so no helper
process (such as its resource tracker) outlives the run.  Between chunks of
the timed phase, with the clock stopped, the run sends the chunk's answers
and waits while the child regenerates the same calls from the seed,
reduces each answer to a digest (:func:`digest`) and compares it with the
digest :class:`Oracle` recomputes with ``select_jury_altr``,
``select_jury_pay`` and ``select_jury_optimal``.  A run is correct only if
every digest matches.
"""

from __future__ import annotations

import hashlib
import json
import os
import socket
import subprocess
import sys
from multiprocessing.connection import Connection
from pathlib import Path

from repro import select_jury_altr, select_jury_optimal, select_jury_pay
from repro.core import kernels
from repro.core.juror import Juror

import workloads
from workloads import REGISTRY_POOL_SIZE, juror_ids


def _ids_hash(ids) -> str:
    return hashlib.blake2b("\x1f".join(ids).encode("utf-8"), digest_size=8).hexdigest()


def _answer(obj: dict) -> tuple:
    """(status, size, jer, member-id hash, pool version) of one response."""
    return (
        obj.get("status"),
        obj.get("size"),
        obj.get("jer"),
        _ids_hash(m["id"] for m in obj.get("members", ())),
        obj.get("pool_version"),
    )


def digest(kind: str, status: int, body: bytes) -> tuple:
    """What the oracle compares for one HTTP answer."""
    if status != 200:
        return (status,)
    obj = json.loads(body)
    if kind == "mutate":
        return (status, obj.get("ok"), obj.get("version"), obj.get("size"))
    if kind == "batch":
        return (status,) + tuple(_answer(row) for row in obj["responses"])
    return (status, _answer(obj))


class Oracle:
    """Recomputes expected digests and counts the requests that differ.

    ``base_versions`` are the named pools' versions read at set-up.
    """

    def __init__(self, base_versions: dict[str, int] | None = None) -> None:
        self._base = base_versions or {}
        #: Per named pool: (writes, answer) of its latest read state.
        self._pool_memo: dict[str, tuple[int, tuple]] = {}
        self.attempted = 0
        self.failed = 0

    def check(self, op, got: tuple) -> None:
        """Compare one call's digest; every request of a batch counts."""
        want = self.expected(op)
        self.attempted += op.count
        if got[0] != want[0] or len(got) != len(want):
            self.failed += op.count
        else:
            self.failed += sum(a != b for a, b in zip(got[1:], want[1:]))

    def _select(self, spec: tuple, pool_version=None) -> tuple:
        model, eps, reqs, budget = spec
        ids = juror_ids(len(eps))
        if reqs is None:
            reqs = (0.0,) * len(eps)
        candidates = tuple(Juror(e, r, juror_id=i) for i, e, r in zip(ids, eps, reqs))
        if model == "altr":
            result = select_jury_altr(candidates)
        elif model == "pay":
            result = select_jury_pay(candidates, budget)
        else:
            result = select_jury_optimal(candidates, budget)
        return ("ok", result.size, result.jer, _ids_hash(result.juror_ids), pool_version)

    def _answer(self, spec: tuple) -> tuple:
        if spec[0] != "pool":
            return self._select(spec)
        _, name, writes, eps = spec
        memo = self._pool_memo.get(name)
        if memo is None or memo[0] != writes:
            version = self._base[name] + writes
            memo = self._pool_memo[name] = (writes, self._select(("altr", eps, None, None), version))
        return memo[1]

    def expected(self, op) -> tuple:
        """The digest a correct server returns for ``op``."""
        if op.kind == "mutate":
            _, name, writes = op.check[0]
            return (200, True, self._base[name] + writes, REGISTRY_POOL_SIZE)
        answers = tuple(self._answer(spec) for spec in op.check)
        return (200,) + answers


def serve(conn, workload: str, seed: int) -> None:
    """Child process: check each chunk of answers in stream order."""
    kernels.ensure_ready()
    conn.send("ready")
    judge = Oracle(conn.recv())
    ops = workloads.stream(workload, seed)
    while (answers := conn.recv()) is not None:
        for status, body in answers:
            op = next(ops)
            judge.check(op, digest(op.kind, status, body))
        conn.send((judge.attempted, judge.failed))


class RemoteOracle:
    """The run's handle on the checking child process."""

    def __init__(self, workload: str, seed: int) -> None:
        ours, theirs = socket.socketpair()
        here = Path(__file__).resolve().parent
        env = dict(os.environ, PYTHONPATH=str(here.parent / "src"))
        try:
            self._process = subprocess.Popen(
                [sys.executable, str(here / "oracle.py"), str(theirs.fileno()), workload,
                 str(seed)],
                pass_fds=(theirs.fileno(),), env=env,
            )
        finally:
            theirs.close()
        self._conn = Connection(ours.detach())
        self.attempted = 0
        self.failed = 0
        try:
            if self._conn.recv() != "ready":
                raise RuntimeError("oracle process failed to start")
        except BaseException:
            self.close()
            raise

    def start(self, base_versions: dict[str, int]) -> None:
        self._conn.send(base_versions)

    def check(self, answers: list[tuple[int, bytes]]) -> None:
        """Check one chunk's ``(status, body)`` answers; waits for the verdict."""
        self._conn.send(answers)
        self.attempted, self.failed = self._conn.recv()

    def close(self) -> None:
        """Stop the child and wait until it has ended."""
        if self._process.poll() is None:
            try:
                self._conn.send(None)
            except OSError:
                pass
            try:
                self._process.wait(timeout=30)
            except subprocess.TimeoutExpired:
                self._process.kill()
                self._process.wait()
        self._conn.close()


if __name__ == "__main__":
    fd, workload, seed = sys.argv[1:]
    try:
        serve(Connection(int(fd)), workload, int(seed))
    except EOFError:
        pass  # the run ended early; its side of the socket is closed
