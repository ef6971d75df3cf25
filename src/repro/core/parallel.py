"""Worker-pool sharding for step 1 and the argkmin engine.

Section 7.4's step 1 is embarrassingly parallel: every object's k-NN
query (or every distance-matrix tile) is independent of the others, and
the dataset is read-only. This module provides two fan-out primitives:

:func:`map_sharded`
    a ``multiprocessing`` pool using the **fork** start method, so
    workers inherit the dataset (and any fitted index) as copy-on-write
    memory — nothing is pickled on the way in except the shard
    descriptors. Used by the per-object query loop, whose cost is
    Python-level and therefore GIL-bound.
:func:`map_threaded`
    a thread pool sharing this process. Used by the chunked argkmin
    engine (:mod:`repro.index.argkmin`), whose per-tile cost is NumPy /
    BLAS kernels that release the GIL — threads avoid the fork pool's
    process spin-up and counter-merging entirely.

Determinism contract
--------------------
Shard results are returned in submission order and every shard computes
exactly what the serial path computes for its rows, so parallel and
serial materialization are **bit-identical** — the pool changes wall
clock, never values. This holds for both primitives.

Instrumentation contract
------------------------
Fork workers run their shard inside an isolated
:func:`repro.obs.collect` scope and ship the scoped counters back with
the payload; :func:`map_sharded` merges them into the parent registry
via ``obs.incr``. Counter totals (``distance.kernel_calls``,
``knn.queries``, ...) therefore match the serial
run exactly — profiles stay truthful under ``n_jobs > 1``. Worker span
*timers* are deliberately dropped: per-process wall clock does not add
up across a pool. Thread workers need no merge step at all: the obs
registry is process-global and lock-guarded, so their increments land
directly and totals are identical to a serial run (counter increments
are additive and order-independent).

On platforms without ``fork`` (e.g. Windows), ``map_sharded`` silently
degrades to the serial path — same results, no parallelism.
``map_threaded`` works everywhere.
"""

from __future__ import annotations

import multiprocessing
import os
from concurrent.futures import ThreadPoolExecutor
from typing import Callable, List, Sequence, TypeVar

import numpy as np

from .. import obs
from ..exceptions import ValidationError

T = TypeVar("T")
R = TypeVar("R")

__all__ = [
    "resolve_n_jobs",
    "resolve_n_threads",
    "fork_available",
    "fork_workers",
    "wait_workers",
    "map_sharded",
    "map_threaded",
]


def _resolve_worker_count(value, name: str) -> int:
    if value is None:
        return 1
    if not isinstance(value, (int, np.integer)) or isinstance(value, bool):
        raise ValidationError(f"{name} must be an integer or None, got {value!r}")
    if value == -1:
        return max(1, os.cpu_count() or 1)
    if value < 1:
        raise ValidationError(f"{name} must be >= 1 or -1, got {value}")
    return int(value)


def resolve_n_jobs(n_jobs) -> int:
    """Normalize an ``n_jobs`` parameter to a worker count >= 1.

    ``None`` means serial (1); ``-1`` means one worker per available
    CPU; any other value must be a positive integer.
    """
    return _resolve_worker_count(n_jobs, "n_jobs")


def resolve_n_threads(n_threads) -> int:
    """Normalize an ``n_threads`` parameter to a thread count >= 1.

    Same convention as :func:`resolve_n_jobs`: ``None`` serial, ``-1``
    one thread per available CPU, otherwise a positive integer.
    """
    return _resolve_worker_count(n_threads, "n_threads")


def fork_available() -> bool:
    """Whether the copy-on-write ``fork`` start method exists here."""
    return "fork" in multiprocessing.get_all_start_methods()


def fork_workers(n: int, target: Callable[[int], int]) -> List[int]:
    """Fork ``n`` long-lived worker processes running ``target(index)``.

    The raw-``os.fork`` sibling of :func:`map_sharded` for workers that
    *serve* rather than compute-and-return: each child inherits the
    parent's open file descriptors (a pre-bound listening socket, in the
    serving fleet) copy-on-write, calls ``target`` with its worker
    index, and exits with its return value (a crashed worker exits 1).
    Returns the child pids; reap them with :func:`wait_workers`. Callers
    must check :func:`fork_available` first.
    """
    pids: List[int] = []
    for index in range(int(n)):
        pid = os.fork()
        if pid == 0:  # pragma: no cover - child process, exits below
            code = 1
            try:
                code = int(target(index) or 0)
            finally:
                # _exit, not sys.exit: never unwind into the parent's
                # atexit handlers / buffered IO from a forked child.
                os._exit(code)
        pids.append(pid)
    return pids


def wait_workers(pids: Sequence[int]) -> int:
    """Reap forked workers; the exit code is the worst worker's.

    Blocks until every pid exits. A signal-killed worker counts as
    ``128 + signum`` (shell convention), so the fleet's exit status is 0
    iff every worker finished cleanly.
    """
    worst = 0
    for pid in pids:
        _, status = os.waitpid(pid, 0)
        code = os.waitstatus_to_exitcode(status)
        if code < 0:  # killed by signal -code
            code = 128 - code
        worst = max(worst, code)
    return worst


# The shard function is handed to workers by fork inheritance, not
# pickling: it is stashed in this module global immediately before the
# pool is created, so closures over large read-only arrays cost nothing.
_ACTIVE_FN: Callable = None


def _invoke_shard(task):
    with obs.collect() as snap:
        payload = _ACTIVE_FN(task)
    return payload, snap["counters"]


def map_sharded(fn: Callable[[T], R], tasks: Sequence[T], n_jobs: int) -> List[R]:
    """``[fn(t) for t in tasks]``, fanned across a fork pool.

    Results come back in task order. With ``n_jobs <= 1``, a single
    task, or no ``fork`` support, ``fn`` runs inline in this process and
    its instrumentation lands in the registry directly; otherwise each
    worker's counters are merged back so totals match a serial run.
    """
    tasks = list(tasks)
    n_jobs = min(n_jobs, len(tasks))
    if n_jobs <= 1 or not fork_available():
        return [fn(t) for t in tasks]

    global _ACTIVE_FN
    _ACTIVE_FN = fn
    try:
        ctx = multiprocessing.get_context("fork")
        with ctx.Pool(processes=n_jobs) as pool:
            shipped = pool.map(_invoke_shard, tasks, chunksize=1)
    finally:
        _ACTIVE_FN = None

    payloads: List[R] = []
    for payload, counters in shipped:
        for name, value in counters.items():
            obs.incr(name, value)
        payloads.append(payload)
    return payloads


def map_threaded(fn: Callable[[T], R], tasks: Sequence[T], n_threads: int) -> List[R]:
    """``[fn(t) for t in tasks]``, fanned across a thread pool.

    Results come back in task order; exceptions propagate. With
    ``n_threads <= 1`` or a single task, ``fn`` runs inline. Threads
    share the process-global obs registry (lock-guarded), so counter
    totals match a serial run without any merge step — but per-task
    instrumentation must be additive: a task may ``obs.incr``, never
    read-modify-write a counter.
    """
    tasks = list(tasks)
    n_threads = min(n_threads, len(tasks))
    if n_threads <= 1:
        return [fn(t) for t in tasks]
    with ThreadPoolExecutor(max_workers=n_threads) as pool:
        return list(pool.map(fn, tasks))
