"""Traced launcher: layer spans around the program's entry points.

Run a program under tracing with::

    python perfbench/tracer.py SPANS.json -m repro serve store.rlof ...
    python perfbench/tracer.py SPANS.json perfbench/fitchild.py fit ...

Before the program starts, :func:`install` replaces each entry point in
:data:`TARGETS` with a wrapper, at the place its callers look it up (a
class attribute, or the module global a caller imported by name). Each
call records a span: name, thread, start, end, the span open on the
same thread when it began (its parent), and the ``repro.obs`` counter
increments made while it was the innermost open span. Spans stay in
memory and are written to ``SPANS.json`` when the program exits.

A span's *self time* is its duration minus the part of it covered by
its child spans; :func:`summarize` turns self times, durations and
attributed counters into the per-layer metrics of ``BENCHMARK.json``.
Nothing under ``src/`` is modified.
"""

from __future__ import annotations

import functools
import json
import os
import runpy
import sys
import threading
import time
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from loadgen import percentile_ms

#: (module, owner attribute path or None for a module global, attribute,
#: span name). The span name's first dotted part is the layer.
TARGETS: Tuple[Tuple[str, Optional[str], str, str], ...] = (
    # index: k-NN entry points and the argkmin engine
    ("repro.index.base", "NNIndex", "fit", "index.build"),
    ("repro.index.base", "NNIndex", "query", "index.query"),
    ("repro.index.base", "NNIndex", "query_with_ties", "index.query"),
    ("repro.index.base", "NNIndex", "query_radius", "index.query"),
    ("repro.index.base", "NNIndex", "query_batch", "index.query_batch"),
    ("repro.index.base", "NNIndex", "query_batch_with_ties", "index.query_batch"),
    ("repro.index.argkmin", None, "argkmin_with_ties", "index.argkmin"),
    ("repro.index.brute", None, "argkmin_with_ties", "index.argkmin"),
    ("repro.index.argkmin", None, "argkmin_self", "index.argkmin"),
    ("repro.core.blocked", None, "argkmin_self", "index.argkmin"),
    # materialize: the step-1 drivers (query loops, blocked fast path)
    ("repro.core.materialization", "MaterializationDB", "materialize", "materialize.loop"),
    ("repro.core.materialization", "MaterializationDB", "materialize_batched",
     "materialize.batched"),
    ("repro.core.blocked", None, "fast_materialize", "materialize.blocked"),
    ("repro.core.graph", "NeighborhoodGraph", "from_index", "materialize.graph_loop"),
    ("repro.core.graph", "NeighborhoodGraph", "from_index_batched",
     "materialize.graph_batched"),
    # graph: columnar neighborhood-graph construction
    ("repro.core.graph", "NeighborhoodGraph", "from_rows", "graph.from_rows"),
    ("repro.core.graph", "NeighborhoodGraph", "from_csr_blocks", "graph.from_csr_blocks"),
    # sweep: step 2 over the MinPts range
    ("repro.core.estimator", None, "score_range", "sweep.score_range"),
    ("repro.core.range_lof", None, "score_range", "sweep.score_range"),
    # store
    ("repro.store", None, "save_model", "store.save"),
    ("repro.store", None, "load_model", "store.load"),
    ("repro.serve", None, "load_model", "store.load"),
    # estimator glue (validation, range resolution)
    ("repro.core.estimator", "LocalOutlierFactor", "fit", "estimator.fit"),
    ("repro.core.estimator", "LocalOutlierFactor", "save", "estimator.save"),
    # serve
    ("repro.serve", "_Handler", "do_POST", "http.post"),
    ("repro.serve", "ScoreBatcher", "submit", "batcher.submit"),
    ("repro.serve", "_PendingScore", "result", "wait.result"),
    ("repro.serve", "ScoreBatcher", "_execute", "batcher.execute"),
    ("repro.serve", "OnlineScorer", "score_new", "scorer.score_new"),
    ("repro.serve", "_ModelHTTPServer", "reload_store", "reload.store"),
    # stream
    ("repro.stream", "StreamingDetector", "observe", "stream.observe"),
    ("repro.stream", "StreamingDetector", "_run_refit", "stream.refit"),
    ("repro.core.streaming", "SlidingWindowLOF", "push", "window.push"),
)

#: Counters whose per-span value is the largest increment, not the sum.
MAX_COUNTERS = ("argkmin.tile_bytes",)


class Tracer:
    """Span recorder with per-thread stacks and counter attribution."""

    def __init__(self, clock=time.perf_counter):
        self.clock = clock
        self.spans: List[list] = []   # [id, parent, name, tid, t0, t1, counters]
        self.waits: List[Tuple[float, float]] = []  # (batch start, queue wait)
        self._submitted: Dict[int, float] = {}
        self._executed: Dict[int, float] = {}
        self._local = threading.local()
        self._lock = threading.Lock()
        self._next = 0

    def _stack(self) -> list:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def open(self, name: str) -> list:
        stack = self._stack()
        with self._lock:
            self._next += 1
            sid = self._next
        parent = stack[-1][0] if stack else 0
        rec = [sid, parent, name, threading.get_ident(), self.clock(), 0.0, {}]
        stack.append(rec)
        return rec

    def close(self, rec: list) -> None:
        rec[5] = self.clock()
        stack = self._stack()
        stack.pop()
        with self._lock:
            self.spans.append(rec)

    def count(self, name: str, n: int) -> None:
        stack = self._stack()
        if not stack:
            return
        counters = stack[-1][6]
        if name in MAX_COUNTERS:
            counters[name] = max(counters.get(name, 0), int(n))
        else:
            counters[name] = counters.get(name, 0) + int(n)

    # -- batcher queue wait ---------------------------------------------------
    # A request's queue wait runs from entering ``ScoreBatcher.submit``
    # to the start of the ``_execute`` call that scores it. The batcher
    # thread can start that call before ``submit`` returns, so whichever
    # side comes second completes the pair.

    def note_submit(self, pending, t_sub: float) -> None:
        with self._lock:
            t_exec = self._executed.pop(id(pending), None)
            if t_exec is None:
                self._submitted[id(pending)] = t_sub
            else:
                self.waits.append((t_exec, t_exec - t_sub))

    def note_execute(self, batch) -> None:
        now = self.clock()
        with self._lock:
            for entry in batch:
                t_sub = self._submitted.pop(id(entry[3]), None)
                if t_sub is None:
                    self._executed[id(entry[3])] = now
                else:
                    self.waits.append((now, now - t_sub))

    # -- wrapping -------------------------------------------------------------

    def wrap(self, func, name: str):
        tracer = self

        @functools.wraps(func)
        def traced(*args, **kwargs):
            rec = tracer.open(name)
            try:
                if name == "batcher.execute":
                    tracer.note_execute(args[1])
                result = func(*args, **kwargs)
                if name == "batcher.submit":
                    tracer.note_submit(result, rec[4])
                elif name == "store.save":
                    rec[6]["bytes"] = os.path.getsize(result)
                return result
            finally:
                tracer.close(rec)

        return traced

    def install(self) -> None:
        """Wrap every entry point in :data:`TARGETS` and attribute
        ``repro.obs`` counter increments to the innermost open span."""
        import importlib

        from repro import obs

        for module_name, owner_path, attr, name in TARGETS:
            module = importlib.import_module(module_name)
            owner = module if owner_path is None else getattr(module, owner_path)
            raw = owner.__dict__[attr] if owner_path else getattr(owner, attr)
            if isinstance(raw, classmethod):
                setattr(owner, attr, classmethod(self.wrap(raw.__func__, name)))
            else:
                setattr(owner, attr, self.wrap(raw, name))

        obs.enable()
        real_incr, real_kernel = obs.incr, obs.record_kernel
        tracer = self

        def incr(name: str, n: int = 1) -> None:
            real_incr(name, n)
            tracer.count(name, n)

        def record_kernel(n_evaluations: int = 1) -> None:
            real_kernel(n_evaluations)
            tracer.count("distance.kernel_calls", 1)
            tracer.count("distance.evaluations", n_evaluations)

        obs.incr, obs.record_kernel = incr, record_kernel

    def dump(self, path: str) -> None:
        with self._lock:
            payload = {"spans": list(self.spans), "waits": list(self.waits)}
        with open(path, "w") as fh:
            json.dump(payload, fh)


# -- span arithmetic ----------------------------------------------------------


def covered(intervals: Sequence[Tuple[float, float]], lo: float, hi: float) -> float:
    """Length of the union of ``intervals`` clipped to ``[lo, hi]``."""
    clipped = sorted((max(a, lo), min(b, hi)) for a, b in intervals)
    total, end = 0.0, lo
    for a, b in clipped:
        if b <= end:
            continue
        a = max(a, end)
        total += b - a
        end = b
    return total


def self_times(spans: Sequence[list]) -> Dict[int, float]:
    """Span id -> duration minus the time its child spans cover."""
    children: Dict[int, List[Tuple[float, float]]] = {}
    for sid, parent, _name, _tid, t0, t1, _c in spans:
        children.setdefault(parent, []).append((t0, t1))
    return {
        sid: (t1 - t0) - covered(children.get(sid, ()), t0, t1)
        for sid, _parent, _name, _tid, t0, t1, _c in spans
    }


#: Layer self-time metrics that partition a fit: their sum is
#: ``fit.layer_sum_s``; the rest of a fit is estimator glue.
FIT_LAYERS = (
    "index.knn_s", "materialize.self_s", "graph.build_s", "sweep.s",
    "store.save_s", "store.load_s",
)


def summarize(trace: Dict, lo: float = -np.inf, hi: float = np.inf) -> Dict[str, float]:
    """Per-layer metrics over the spans that start inside ``[lo, hi]``."""
    spans = trace["spans"]
    selfs = self_times(spans)
    inside = [s for s in spans if lo <= s[4] <= hi]

    def of(prefix: str):
        return [s for s in inside if s[2].startswith(prefix)]

    def self_sum(prefix: str) -> float:
        return float(sum(selfs[s[0]] for s in of(prefix)))

    def dur(prefix: str) -> List[float]:
        return [s[5] - s[4] for s in of(prefix)]

    def counted(prefix: str, counter: str) -> int:
        return int(sum(s[6].get(counter, 0) for s in of(prefix)))

    scored = of("scorer.score_new")
    hits = counted("scorer.score_new", "serve.cache.hits")
    misses = counted("scorer.score_new", "serve.cache.misses")
    novel = counted("scorer.score_new", "serve.points_scored") - hits
    batches = counted("batcher.execute", "serve.batch.batches")
    waits = [w for t, w in trace["waits"] if lo <= t <= hi]
    out = {
        "index.knn_s": self_sum("index."),
        "index.distance_evals": counted("index.", "distance.evaluations"),
        "index.kernel_calls": counted("index.", "distance.kernel_calls"),
        "index.tile_bytes": max(
            [s[6].get("argkmin.tile_bytes", 0) for s in inside] or [0]
        ),
        "materialize.self_s": self_sum("materialize."),
        "graph.build_s": self_sum("graph."),
        "sweep.s": self_sum("sweep."),
        "sweep.passes": counted("sweep.", "mscan.passes"),
        "store.save_s": self_sum("store.save"),
        "store.load_s": self_sum("store.load"),
        "store.bytes": counted("store.save", "bytes"),
        "http.handler_ms.p50": percentile_ms([selfs[s[0]] for s in of("http.post")], 50),
        "http.handler_ms.p99": percentile_ms([selfs[s[0]] for s in of("http.post")], 99),
        "batcher.wait_ms.p50": percentile_ms(waits, 50),
        "batcher.wait_ms.p99": percentile_ms(waits, 99),
        "batcher.requests_per_batch": (
            counted("batcher.submit", "serve.batch.requests") / batches
            if batches else 0.0
        ),
        "scorer.score_new_ms.p50": percentile_ms([s[5] - s[4] for s in scored], 50),
        "scorer.score_new_ms.p99": percentile_ms([s[5] - s[4] for s in scored], 99),
        "scorer.distance_evals_per_point": (
            counted("scorer.score_new", "distance.evaluations") / novel
            if novel > 0 else 0.0
        ),
        "cache.hit_ratio": hits / (hits + misses) if hits + misses else 0.0,
        "reload.s": float(sum(dur("reload."))),
        "stream.observe_ms.p50": percentile_ms(dur("stream.observe"), 50),
        "stream.observe_ms.p99": percentile_ms(dur("stream.observe"), 99),
        "window.push_ms.p50": percentile_ms(dur("window.push"), 50),
        "stream.refit_s": float(sum(dur("stream.refit"))),
        "stream.refits": counted("stream.refit", "stream.refits"),
        "stream.drift_checks": counted("stream.observe", "stream.drift.checks"),
    }
    out["fit.layer_sum_s"] = float(sum(out[k] for k in FIT_LAYERS))
    return out


def main(argv: Sequence[str]) -> int:
    out, target = argv[0], list(argv[1:])
    tracer = Tracer()
    tracer.install()
    code = 0
    try:
        if target[0] == "-m":
            sys.argv = target[1:]
            runpy.run_module(target[1], run_name="__main__", alter_sys=True)
        else:
            sys.argv = target
            runpy.run_path(target[0], run_name="__main__")
    except SystemExit as exc:
        code = exc.code if isinstance(exc.code, int) else (0 if exc.code is None else 1)
    finally:
        tracer.dump(out)
    return code


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
