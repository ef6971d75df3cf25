"""repro.serve — online LOF scoring against a persisted model store.

Section 7.4's punchline is that once the materialization database M is
built, "the original database D is not needed" for step 2. This module
pushes that one step further: with the store of :mod:`repro.store`
(which carries M *plus* the dataset snapshot), unseen query points can
be scored in a fresh process without ever re-running the fit.

Scoring a query point q against a fitted model follows the paper's
definitions verbatim, with the fitted model supplying every ingredient
about the training objects:

1. find q's tie-inclusive MinPts-distance neighborhood N(q) among the
   stored vectors (Definition 4, same ``(distance, id)`` order and the
   same tie kernels as the batch builders — :mod:`repro.index.batch`);
2. hand the per-query :class:`~repro.core.graph.NeighborhoodView` to
   the active registry scorer's ``score_query`` (:mod:`repro.scorers`)
   — for LOF that is ``reach-dist(q, o) = max(k-distance(o), d(q, o))``
   over the *stored* k-distances (Definition 5) followed by the shared
   lrd/LOF kernels of :mod:`repro.core.scoring` (Definitions 6-7); this
   module re-implements no ratio math for any scorer.

The active scorer defaults to what the store was fitted with (header
``scorer``, ``lof`` for v2 stores); a per-request ``scorer`` selector
overrides it, so one loaded model answers for the whole zoo.

Scoring a query that *is* a stored object (``exclude=i`` with bitwise
equal coordinates) reuses row i of the stored neighborhood graph, so the
result is bit-for-bit the fitted LOF value — the invariant the
differential tests pin down.

Concurrency model
-----------------
The frozen model (neighborhood graph, k-distance/lrd vectors, the
dataset snapshot — read-only memmaps under ``mmap=True``) is immutable
after :meth:`OnlineScorer._ensure_ks` warms the per-MinPts caches, so
the scoring path itself runs **without any lock**: N threads score
concurrently, each through its own kernel calls. The only mutable state
is the LRU result cache and the Theorem-1 extrema memo, guarded by one
small lock (RL005-annotated). Cache misses are *single-flight*: the
first thread to miss a key installs an in-flight placeholder and
computes; concurrent requesters of the same key count a hit and wait on
the placeholder instead of recomputing — which keeps the hit/miss
counters exactly the serial values under any interleaving.

Scoring is embarrassingly batchable (each query row is independent in
every kernel), which :class:`ScoreBatcher` exploits on the HTTP path:
concurrent ``/score`` requests are coalesced for up to
``batch_window_ms`` (or ``max_batch`` points) into one stacked
``score_new`` call and demultiplexed back — bit-identical to
per-request scoring by construction and by test.

The HTTP surface (``repro-lof serve``) is a stdlib
:class:`~http.server.ThreadingHTTPServer` speaking persistent
HTTP/1.1 JSON::

    POST /score         {"points": [[...], ...], "min_pts": 12?,
                         "scorer": "ldof"?}
                        -> {"scores": [...], "min_pts": [...],
                            "aggregate": "max", "scorer": "ldof"}
    POST /admin/reload  {"path": "...?"} -> hot-swap the store
    GET  /model         store metadata (kind, n points, grid, ...)
    GET  /stats         cache, batcher and scoring counters
    GET  /healthz       liveness probe

``repro-lof serve --workers N`` forks N worker processes that all
memmap-load the same store file (the OS page cache backs every worker
with the same physical pages, so marginal RSS per worker is near zero)
and accept on one shared listening socket (``SO_REUSEPORT`` when the
platform has it; the pre-fork inherited socket works either way).

Malformed requests get a 400 with ``{"error": ...}``; scoring a store
saved without a dataset snapshot fails at startup with
:class:`~repro.exceptions.StoreMismatchError`.
"""

from __future__ import annotations

import json
import os
import queue
import signal
import socket
import threading
import time
from collections import OrderedDict
from contextlib import contextmanager
from dataclasses import dataclass
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer
from pathlib import Path
from typing import Callable, Dict, List, Optional, Tuple

import numpy as np

from . import obs
from ._validation import check_data
from .core import scoring
from .core.bounds import reach_extrema
from .core.duplicates import distinct_ball
from .core.graph import NeighborhoodView
from .core.parallel import fork_available, fork_workers, wait_workers
from .core.range_lof import _AGGREGATES
from .exceptions import ReproError, ServeError, ValidationError
from .index.batch import apply_exclusions, select_tie_inclusive, tie_threshold
from .scorers import ScorerContext, get_scorer, list_scorers
from .store import StoredModel, load_model, store_fingerprint

try:  # pragma: no cover - absent only on non-POSIX platforms
    import resource as _resource
except ImportError:  # pragma: no cover
    _resource = None

__all__ = [
    "LRUCache",
    "OnlineScorer",
    "ClassifyResult",
    "ScoreBatcher",
    "make_server",
    "run_server",
    "run_fleet",
]

_MISSING = object()

#: Largest request body a handler will read. A longer ``Content-Length``
#: is refused with 413 before any of the body is read.
MAX_BODY_BYTES = 64 << 20


class _PendingScore:
    """A score another thread is computing right now (single-flight).

    The first thread to miss a cache key installs one of these as the
    cache entry and computes; every concurrent requester of the same key
    waits on it instead of duplicating the kernel work. Resolution
    happens exactly once, under the scorer's lock.
    """

    __slots__ = ("_event", "_value", "_error")

    def __init__(self):
        self._event = threading.Event()
        self._value: Optional[float] = None
        self._error: Optional[BaseException] = None

    def resolve(self, value: float) -> None:
        self._value = value
        self._event.set()

    def fail(self, exc: BaseException) -> None:
        self._error = exc
        self._event.set()

    def result(self) -> float:
        self._event.wait()
        if self._error is not None:
            raise self._error
        return self._value


class LRUCache:
    """A small least-recently-used result cache with exact counters.

    Deliberately minimal: ``get``/``put`` move entries to the MRU end of
    an :class:`~collections.OrderedDict` and evict from the LRU end.
    ``hits``/``misses`` are plain ints maintained by the caller's lock
    discipline (the scorer guards every cache touch with its lock), so
    tests can assert exact values. ``capacity <= 0`` disables caching
    entirely. Entries may transiently hold a :class:`_PendingScore`
    while the first requester computes.
    """

    def __init__(self, capacity: int = 1024):
        self.capacity = int(capacity)
        self.hits = 0
        self.misses = 0
        self._data: "OrderedDict" = OrderedDict()

    def get(self, key):
        if self.capacity <= 0:
            self.misses += 1
            return _MISSING
        try:
            value = self._data[key]
        except KeyError:
            self.misses += 1
            return _MISSING
        self._data.move_to_end(key)
        self.hits += 1
        return value

    def put(self, key, value) -> None:
        if self.capacity <= 0:
            return
        self._data[key] = value
        self._data.move_to_end(key)
        while len(self._data) > self.capacity:
            self._data.popitem(last=False)

    def discard(self, key, expected) -> None:
        """Drop ``key`` if it still maps to ``expected`` (cleanup of a
        failed in-flight placeholder; a real value put by someone else
        in the meantime survives)."""
        if self._data.get(key) is expected:
            del self._data[key]

    def __len__(self) -> int:
        return len(self._data)

    def clear(self) -> None:
        self._data.clear()
        self.hits = 0
        self.misses = 0

    def cache_info(self) -> Dict[str, int]:
        return {
            "hits": self.hits,
            "misses": self.misses,
            "size": len(self._data),
            "capacity": self.capacity,
        }


@dataclass
class ClassifyResult:
    """Outcome of :meth:`OnlineScorer.classify_new`.

    ``labels`` follows the estimator's convention (+1 inlier, -1
    outlier). ``lower``/``upper`` are the aggregated Theorem 1 brackets;
    ``scores`` holds the exact LOF only for queries whose bracket
    straddled the threshold (NaN where the bounds alone decided).
    """

    labels: np.ndarray
    lower: np.ndarray
    upper: np.ndarray
    scores: np.ndarray
    pruned: int
    exact: int


class OnlineScorer:
    """Score unseen points against a loaded model store.

    Parameters
    ----------
    model : a :class:`~repro.store.StoredModel` from
        :func:`~repro.store.load_model`; it must carry the dataset
        snapshot (estimator stores always do).
    cache_size : LRU entries for per-point score reuse (0 disables).
    scorer : registry scorer name to serve by default (``None`` takes
        the store's fitted scorer). Any registered scorer can still be
        requested per call via ``score_new(..., scorer=...)``.

    The MinPts grid and aggregate default to what the stored estimator
    was fitted with; a bare materialization store scores at its
    ``min_pts_ub``. All public methods are thread-safe. The frozen
    model is read without locking (it is immutable once the per-k
    caches are warmed); only the LRU cache and the Theorem-1 extrema
    memo take the lock, and in-flight misses are single-flight, so N
    concurrent threads produce bit-identical scores and exactly the
    serial cache/obs counters.
    """

    def __init__(self, model: StoredModel, cache_size: int = 1024, scorer=None):
        self.model = model
        self.mat = model.mat
        self.X = np.ascontiguousarray(model.require_snapshot(), dtype=np.float64)
        self.metric = model.metric_object()
        # None means "whatever the store says" — remembered separately
        # so a hot-swap reload re-resolves against the new store, while
        # an explicit override survives the swap.
        self._scorer_override = None if scorer is None else get_scorer(scorer).name
        self._scorer = get_scorer(self._scorer_override or model.scorer)
        meta = model.estimator or {}
        lb = int(meta.get("min_pts_lb", self.mat.min_pts_ub))
        ub = int(meta.get("min_pts_ub", self.mat.min_pts_ub))
        self.min_pts_grid: Tuple[int, ...] = tuple(range(lb, ub + 1))
        self.aggregate = str(meta.get("aggregate", "max"))
        if self.aggregate not in _AGGREGATES:
            raise ValidationError(
                f"unknown aggregate {self.aggregate!r} in store metadata"
            )
        self.threshold = float(meta.get("threshold", 1.5))
        self._lock = threading.Lock()
        self.cache = LRUCache(cache_size)  # reprolint: lock-guarded
        self._extrema: Dict[int, Tuple[np.ndarray, np.ndarray]] = {}  # reprolint: lock-guarded
        self._warmed_ks: set = set()  # reprolint: lock-guarded
        self._scorer_points: Dict[str, int] = {}  # reprolint: lock-guarded

    @property
    def scorer_name(self) -> str:
        """Name of the scorer this instance serves by default."""
        return self._scorer.name

    @classmethod
    def from_path(
        cls,
        path,
        mmap: bool = False,
        verify: bool = True,
        cache_size: int = 1024,
        scorer=None,
    ) -> "OnlineScorer":
        """Load a store file and build a scorer for it."""
        return cls(
            load_model(path, mmap=mmap, verify=verify),
            cache_size=cache_size,
            scorer=scorer,
        )

    # -- scoring --------------------------------------------------------------

    def score_new(
        self,
        Xq,
        min_pts: Optional[int] = None,
        exclude=None,
        use_cache: bool = True,
        scorer=None,
    ) -> np.ndarray:
        """Score each row of ``Xq`` relative to the stored model.

        ``min_pts=None`` sweeps the stored grid and aggregates exactly
        like the fitted estimator; an int scores a single MinPts.
        ``exclude`` (per-row stored-object id, -1 for none) removes that
        object from the query's candidate neighbors — pass ``exclude=i``
        with the stored row i itself to recover the fitted value
        bit-for-bit. ``scorer`` picks any registered scorer for this
        call (``None`` = the instance default, normally the store's
        fitted scorer).

        Thread-safe without serializing the kernels: concurrent callers
        compute disjoint cache misses in parallel; a key being computed
        by one thread is awaited by the others (single-flight), so the
        cache counters stay exactly the serial values.
        """
        active = self._scorer if scorer is None else get_scorer(scorer)
        Xq, exclude, ks = self._check_query(Xq, exclude, min_pts)
        self._ensure_ks(ks, active)
        m = Xq.shape[0]
        if not use_cache:
            out = self._score_rows(Xq, exclude, ks, active)
            self._note_points(active.name, m)
            return out
        out = np.empty(m, dtype=np.float64)
        keys = [
            (active.name, Xq[i].tobytes(), int(exclude[i]), ks) for i in range(m)
        ]
        miss_rows: List[int] = []
        waiting: List[Tuple[int, _PendingScore]] = []
        owned: Dict = {}
        with self._lock:
            for i, key in enumerate(keys):
                hit = self.cache.get(key)
                if hit is _MISSING:
                    obs.incr("serve.cache.misses")
                    miss_rows.append(i)
                    if key not in owned:
                        pending = _PendingScore()
                        owned[key] = pending
                        self.cache.put(key, pending)
                elif isinstance(hit, _PendingScore):
                    obs.incr("serve.cache.hits")
                    waiting.append((i, hit))
                else:
                    obs.incr("serve.cache.hits")
                    out[i] = hit
        if miss_rows:
            try:
                # The expensive part — kernels over the frozen model,
                # deliberately outside the lock so threads overlap.
                scores = self._score_rows(Xq[miss_rows], exclude[miss_rows], ks, active)
            except BaseException as exc:
                with self._lock:
                    for key, pending in owned.items():
                        pending.fail(exc)
                        self.cache.discard(key, pending)
                raise
            with self._lock:
                for pos, i in enumerate(miss_rows):
                    value = float(scores[pos])
                    out[i] = value
                    self.cache.put(keys[i], value)
                    pending = owned.pop(keys[i], None)
                    if pending is not None:
                        pending.resolve(value)
        for i, pending in waiting:
            out[i] = pending.result()
        self._note_points(active.name, m)
        return out

    def classify_new(
        self,
        Xq,
        min_pts: Optional[int] = None,
        threshold: Optional[float] = None,
        exclude=None,
        scorer=None,
    ) -> ClassifyResult:
        """Label queries inlier/outlier, short-circuiting with Theorem 1.

        For every query the direct bounds come from its own neighborhood
        reach-dists and the indirect bounds from the stored per-object
        reach extrema; ``direct_min/indirect_max <= LOF <=
        direct_max/indirect_min`` holds per MinPts, and the aggregators
        are componentwise monotone, so the aggregated brackets bound the
        aggregated score. Only queries whose bracket straddles the
        threshold pay for the exact kernels
        (``serve.bounds.pruned`` / ``serve.bounds.exact`` counters).

        Theorem 1 brackets LOF specifically; for a scorer without bound
        support the method degrades gracefully to exact scoring — every
        query is scored, the bracket collapses to the score itself, and
        ``pruned`` is 0.
        """
        active = self._scorer if scorer is None else get_scorer(scorer)
        Xq, exclude, ks = self._check_query(Xq, exclude, min_pts)
        self._ensure_ks(ks, active)
        thr = self.threshold if threshold is None else float(threshold)
        m = Xq.shape[0]
        if not active.supports_bounds:
            exact_scores = self.score_new(
                Xq, min_pts=min_pts, exclude=exclude, scorer=active.name
            )
            labels = np.where(exact_scores > thr, -1, 1).astype(np.int64)
            obs.incr("serve.bounds.exact", m)
            return ClassifyResult(
                labels=labels,
                lower=exact_scores.copy(),
                upper=exact_scores.copy(),
                scores=exact_scores,
                pruned=0,
                exact=m,
            )
        lowers = np.empty((len(ks), m))
        uppers = np.empty((len(ks), m))
        for row_k, k in enumerate(ks):
            view, kdist_q = self._query_view(Xq, exclude, k)
            reach = scoring.reach_dist_values(
                view.dists, self.mat.k_distances(k)[view.ids]
            )
            starts = view.offsets[:-1]
            direct_min = np.minimum.reduceat(reach, starts)
            direct_max = np.maximum.reduceat(reach, starts)
            rmin, rmax = self._reach_extrema(k)
            indirect_min = np.minimum.reduceat(rmin[view.ids], starts)
            indirect_max = np.maximum.reduceat(rmax[view.ids], starts)
            with np.errstate(divide="ignore", invalid="ignore"):
                lo = direct_min / indirect_max
                hi = direct_max / indirect_min
            # 0/0 (duplicate-saturated neighborhoods) gives NaN; the
            # uninformative bracket [0, inf] keeps the bounds sound.
            lowers[row_k] = np.where(np.isnan(lo), 0.0, lo)
            uppers[row_k] = np.where(np.isnan(hi), np.inf, hi)
        agg = _AGGREGATES[self.aggregate]
        lower = agg(lowers)
        upper = agg(uppers)
        labels = np.zeros(m, dtype=np.int64)
        labels[upper <= thr] = 1
        labels[lower > thr] = -1
        undecided = np.flatnonzero(labels == 0)
        scores = np.full(m, np.nan)
        if len(undecided):
            scores[undecided] = self.score_new(
                Xq[undecided], min_pts=min_pts, exclude=exclude[undecided]
            )
            labels[undecided] = np.where(scores[undecided] > thr, -1, 1)
        pruned = m - len(undecided)
        obs.incr("serve.bounds.pruned", pruned)
        obs.incr("serve.bounds.exact", len(undecided))
        return ClassifyResult(
            labels=labels,
            lower=lower,
            upper=upper,
            scores=scores,
            pruned=pruned,
            exact=len(undecided),
        )

    def stats(self) -> Dict:
        """Cache info plus the model's scoring identity."""
        with self._lock:
            cache_info = self.cache.cache_info()
            per_scorer = dict(self._scorer_points)
        return {
            "n_points": int(self.mat.n_points),
            "min_pts_grid": [int(k) for k in self.min_pts_grid],
            "aggregate": self.aggregate,
            "threshold": self.threshold,
            "duplicate_mode": self.mat.duplicate_mode,
            "scorer": self.scorer_name,
            "scorers": per_scorer,
            "cache": cache_info,
        }

    def model_info(self) -> Dict:
        """The store's header metadata, JSON-ready."""
        header = dict(self.model.header)
        header.pop("sections", None)
        header.pop("obs_snapshot", None)
        header["fingerprint"] = store_fingerprint(self.model.header)
        header["scorer"] = self.scorer_name
        header["registered_scorers"] = list_scorers()
        return header

    # -- internals ------------------------------------------------------------

    def _check_query(self, Xq, exclude, min_pts):
        Xq = check_data(Xq, name="Xq", min_rows=1)
        if Xq.shape[1] != self.X.shape[1]:
            raise ValidationError(
                f"query points have {Xq.shape[1]} features; the stored "
                f"model was fitted on {self.X.shape[1]}"
            )
        m = Xq.shape[0]
        if exclude is None:
            exclude = np.full(m, -1, dtype=np.int64)
        else:
            exclude = np.asarray(exclude, dtype=np.int64)
            if exclude.shape != (m,):
                raise ValidationError(
                    f"exclude must have one entry per query row, got "
                    f"shape {exclude.shape} for {m} rows"
                )
            if np.any(exclude >= self.mat.n_points):
                raise ValidationError("exclude entries must be stored object ids")
        if min_pts is None:
            ks = self.min_pts_grid
        else:
            ks = (self.mat._check_k(int(min_pts)),)
        return Xq, exclude, ks

    def _ensure_ks(self, ks, scorer) -> None:
        """Warm the frozen per-(scorer, MinPts) inputs once, under the lock.

        The materialization's per-k caches (view, k-distances, and
        whatever the scorer's ``warm`` adds — lrd for LOF, the
        pdist/nPLOF aux state for LoOP) fill lazily on first touch;
        serializing that first touch here keeps the step-2 scan counters
        (``mscan.passes``) exactly serial and makes every later read on
        the scoring path a pure read of immutable arrays — which is what
        lets the kernels run lock-free.
        """
        with self._lock:
            for k in ks:
                if (scorer.name, k) not in self._warmed_ks:
                    scorer.warm(self._scorer_context(k))
                    self._warmed_ks.add((scorer.name, k))

    def _scorer_context(self, k: int) -> ScorerContext:
        return ScorerContext(mat=self.mat, k=k, X=self.X, metric=self.metric)

    def _note_points(self, scorer_name: str, m: int) -> None:
        obs.incr("serve.points_scored", m)
        with self._lock:
            self._scorer_points[scorer_name] = (
                self._scorer_points.get(scorer_name, 0) + m
            )

    def _score_rows(self, Xq, exclude, ks, scorer) -> np.ndarray:
        matrix = np.empty((len(ks), Xq.shape[0]))
        for row_k, k in enumerate(ks):
            view, kdist_q = self._query_view(Xq, exclude, k)
            matrix[row_k] = scorer.score_query(self._scorer_context(k), view, kdist_q)
        if len(ks) == 1:
            return matrix[0]
        return _AGGREGATES[self.aggregate](matrix)

    def _query_view(self, Xq, exclude, k):
        """The per-query NeighborhoodView at MinPts=k.

        Rows whose ``exclude`` id is a stored object with bitwise equal
        coordinates reuse that object's stored neighborhood row — the
        self-consistent path that reproduces fitted values exactly.
        Novel rows run the same tie kernels as the batch builders over a
        fresh distance block. Pure frozen-model reads: no lock.
        """
        m = Xq.shape[0]
        rows_ids = [None] * m
        rows_dists = [None] * m
        kdist_q = np.empty(m, dtype=np.float64)
        kd_train = self.mat.k_distances(k)
        stored_view = self.mat.view(k)
        novel = []
        for i in range(m):
            j = int(exclude[i])
            if j >= 0 and Xq[i].tobytes() == self.X[j].tobytes():
                ids, dists = stored_view.row(j)
                rows_ids[i] = ids
                rows_dists[i] = dists
                kdist_q[i] = kd_train[j]
            else:
                novel.append(i)
        if novel:
            # One row-local kernel per novel query rather than one GEMM
            # over the stacked block: BLAS picks different kernels for
            # different block shapes (GEMV for one row, GEMM for many),
            # which perturbs last-ulp distances — so a block kernel
            # would make a query's score depend on how many neighbors it
            # shared a coalesced batch with. The row kernel is
            # shape-independent, which is what makes batched scoring
            # bit-identical to per-request scoring by construction.
            D = np.stack(
                [self.metric.pairwise_to_point(self.X, Xq[i]) for i in novel]
            )
            apply_exclusions(D, exclude[novel])
            if self.mat.duplicate_mode == "distinct":
                for pos, i in enumerate(novel):
                    ids, dists, radius = distinct_ball(
                        D[pos], self.mat.coord_keys, k
                    )
                    rows_ids[i] = ids
                    rows_dists[i] = dists
                    kdist_q[i] = radius
            else:
                self._check_row_budget(D, k)
                kth = tie_threshold(D, k)
                flat_ids, flat_dists, counts = select_tie_inclusive(D, k)
                offsets = np.zeros(len(counts) + 1, dtype=np.int64)
                np.cumsum(counts, out=offsets[1:])
                for pos, i in enumerate(novel):
                    sl = slice(offsets[pos], offsets[pos + 1])
                    rows_ids[i] = flat_ids[sl]
                    rows_dists[i] = flat_dists[sl]
                    kdist_q[i] = kth[pos]
        return NeighborhoodView.from_ragged(k, rows_ids, rows_dists, kdist_q), kdist_q

    def _check_row_budget(self, D: np.ndarray, k: int) -> None:
        finite = np.isfinite(D).sum(axis=1)
        if np.any(finite < k):
            bad = int(np.flatnonzero(finite < k)[0])
            raise ValidationError(
                f"query row {bad} has only {int(finite[bad])} candidate "
                f"neighbors but MinPts={k}"
            )

    def _reach_extrema(self, k: int):
        with self._lock:
            if k not in self._extrema:
                self._extrema[k] = reach_extrema(self.mat, k)
            return self._extrema[k]


# ---------------------------------------------------------------------------
# request coalescing


class ScoreBatcher:
    """Coalesce concurrent ``/score`` requests into stacked kernel calls.

    Requests enter a bounded queue (backpressure: a full queue blocks
    the submitting HTTP thread rather than growing without bound). One
    batcher thread drains it: starting from the first waiting request it
    accumulates more for up to ``batch_window_ms`` (or until
    ``max_batch`` points are gathered), groups compatible requests
    (same ``min_pts`` selector and same requested scorer), stacks each
    group's points into one ``Xq`` and runs a **single** ``score_new``
    per group, then demultiplexes the score slices back to the
    per-request futures.

    Every query row is independent in every kernel on the scoring path
    (pairwise block rows, tie selection, reach/lrd/LOF row reductions),
    so batched results are bit-identical to per-request scoring —
    guaranteed by construction here and pinned by
    ``tests/test_serve.py::TestBatcher``.

    ``scorer_ref`` is a callable returning the *current* scorer, so a
    hot-swap (``/admin/reload``) between enqueue and execution scores
    against the store version live at execution time.
    """

    def __init__(
        self,
        scorer_ref: Callable[[], OnlineScorer],
        batch_window_ms: float = 2.0,
        max_batch: int = 64,
        max_queue: int = 1024,
    ):
        self._scorer_ref = scorer_ref
        self.batch_window_s = max(float(batch_window_ms), 0.0) / 1000.0
        self.max_batch = max(int(max_batch), 1)
        self._queue: "queue.Queue" = queue.Queue(maxsize=max(int(max_queue), 1))
        self._closed = False
        # Batch statistics: written only by the single batcher thread,
        # read (atomically, CPython int loads) by /stats.
        self.requests = 0
        self.batches = 0
        self.coalesced = 0
        self.points = 0
        self._thread = threading.Thread(
            target=self._run, name="repro-serve-batcher", daemon=True
        )
        self._thread.start()

    def submit(self, points, min_pts: Optional[int], scorer=None) -> _PendingScore:
        """Validate and enqueue one request; returns its future.

        Validation happens eagerly against the current scorer so a
        malformed request (including an unknown ``scorer`` name) fails
        its own caller (HTTP 400) instead of poisoning the batch it
        would have joined. ``scorer=None`` means "whatever scorer is
        active at execution time" — consistent with hot-swap semantics.
        """
        if self._closed:
            raise ServeError("the scoring service is shutting down")
        online = self._scorer_ref()
        if scorer is not None:
            scorer = get_scorer(scorer).name
        Xq, _, _ = online._check_query(points, None, min_pts)
        pending = _PendingScore()
        obs.incr("serve.batch.requests")
        self._queue.put((Xq, min_pts, scorer, pending))
        return pending

    def queue_depth(self) -> int:
        return self._queue.qsize()

    def stats(self) -> Dict:
        return {
            "window_ms": self.batch_window_s * 1000.0,
            "max_batch": self.max_batch,
            "queue_depth": self.queue_depth(),
            "queue_capacity": self._queue.maxsize,
            "requests": self.requests,
            "batches": self.batches,
            "coalesced": self.coalesced,
            "points": self.points,
        }

    def close(self, timeout: float = 5.0) -> None:
        """Stop accepting, flush what is queued, join the thread."""
        if self._closed:
            return
        self._closed = True
        self._queue.put(None)
        self._thread.join(timeout=timeout)

    # -- batcher thread -------------------------------------------------------

    def _run(self) -> None:
        while True:
            item = self._queue.get()
            if item is None:
                return
            batch = [item]
            rows = item[0].shape[0]
            deadline = time.monotonic() + self.batch_window_s
            while rows < self.max_batch:
                remaining = deadline - time.monotonic()
                try:
                    if remaining > 0:
                        nxt = self._queue.get(timeout=remaining)
                    else:
                        nxt = self._queue.get_nowait()
                except queue.Empty:
                    break
                if nxt is None:
                    self._execute(batch)
                    return
                batch.append(nxt)
                rows += nxt[0].shape[0]
            self._execute(batch)

    def _execute(self, batch) -> None:
        online = self._scorer_ref()
        groups: "OrderedDict" = OrderedDict()
        for entry in batch:
            groups.setdefault((entry[1], entry[2]), []).append(entry)
        for (min_pts, scorer_name), group in groups.items():
            stacked = (
                group[0][0]
                if len(group) == 1
                else np.concatenate([e[0] for e in group], axis=0)
            )
            obs.incr("serve.batch.batches")
            obs.incr("serve.batch.coalesced", len(group) - 1)
            self.requests += len(group)
            self.batches += 1
            self.coalesced += len(group) - 1
            self.points += stacked.shape[0]
            try:
                scores = online.score_new(
                    stacked, min_pts=min_pts, scorer=scorer_name
                )
            except BaseException as exc:
                for _, _, _, pending in group:
                    pending.fail(exc)
                continue
            offset = 0
            for Xq, _, _, pending in group:
                pending.resolve(scores[offset:offset + Xq.shape[0]])
                offset += Xq.shape[0]


# ---------------------------------------------------------------------------
# HTTP surface


class _ModelHTTPServer(ThreadingHTTPServer):
    """ThreadingHTTPServer that owns an :class:`OnlineScorer`.

    ``max_requests`` (None = unlimited) shuts the server down after that
    many successfully scored POSTs — the hook that makes the CLI smoke
    test deterministic; shutdown *drains*: in-flight requests finish
    and get their responses before the server closes.

    ``sock`` adopts an already-listening socket instead of binding one
    — the multi-worker fleet path, where every forked worker accepts on
    the socket the parent bound (``SO_REUSEPORT``/pre-fork sharing).
    """

    daemon_threads = True
    allow_reuse_address = True

    def __init__(
        self,
        address,
        scorer: OnlineScorer,
        max_requests=None,
        sock: Optional[socket.socket] = None,
        batch_window_ms: Optional[float] = 2.0,
        max_batch: int = 64,
        max_queue: int = 1024,
        worker_index: int = 0,
        workers: int = 1,
    ):
        if sock is None:
            super().__init__(address, _Handler)
        else:
            super().__init__(address, _Handler, bind_and_activate=False)
            self.socket.close()
            self.socket = sock
            self.server_address = sock.getsockname()
            # server_bind() would normally fill these (used in handler
            # headers); the adopted socket is already bound and listening.
            self.server_name = self.server_address[0]
            self.server_port = self.server_address[1]
        # The current scorer. Reads are bare attribute loads (atomic
        # reference reads in CPython); the swap itself is serialized by
        # _admin_lock so concurrent reloads cannot interleave. In-flight
        # requests keep whichever scorer they dereferenced at entry.
        self.scorer = scorer
        self.max_requests = max_requests
        self.worker_index = int(worker_index)
        self.workers = int(workers)
        self._admin_lock = threading.Lock()
        self._reloads = 0  # reprolint: lock-guarded
        self._state_lock = threading.Lock()
        self._served = 0  # reprolint: lock-guarded
        self._active = 0  # reprolint: lock-guarded
        self.batcher: Optional[ScoreBatcher] = None
        if batch_window_ms is not None:
            self.batcher = ScoreBatcher(
                lambda: self.scorer,
                batch_window_ms=batch_window_ms,
                max_batch=max_batch,
                max_queue=max_queue,
            )
        # The online lifecycle (repro.stream.StreamingDetector), attached
        # by make_server when --stream is on: /score feeds served points
        # back into it, and its refits hot-swap through reload_store.
        self.stream = None

    # -- request accounting ---------------------------------------------------

    @contextmanager
    def track_request(self):
        """Count a request as in-flight while its handler runs, so
        shutdown can drain instead of cutting responses off."""
        with self._state_lock:
            self._active += 1
        try:
            yield
        finally:
            with self._state_lock:
                self._active -= 1

    def wait_drained(self, timeout: float = 10.0) -> bool:
        """Block until no request is mid-handler (or the timeout ends);
        idle keep-alive connections do not count as in-flight."""
        deadline = time.monotonic() + timeout
        while True:
            with self._state_lock:
                if self._active == 0:
                    return True
            if time.monotonic() >= deadline:
                return False
            time.sleep(0.005)

    def note_scored(self) -> None:
        if self.max_requests is None:
            return
        with self._state_lock:
            self._served += 1
            if self._served >= self.max_requests:
                threading.Thread(target=self.shutdown, daemon=True).start()

    # -- hot swap -------------------------------------------------------------

    def reload_store(self, path=None, mmap: Optional[bool] = None) -> Dict:
        """Atomically swap in a freshly loaded (and checksum-verified)
        store. In-flight requests finish against the scorer they
        started with; requests arriving after the swap see the new one.
        """
        with self._admin_lock:
            current = self.scorer
            target = Path(path) if path else current.model.path
            new_scorer = OnlineScorer.from_path(
                target,
                mmap=current.model.mmap if mmap is None else mmap,
                cache_size=current.cache.capacity,
                # An explicit --scorer override outlives the swap; a
                # store-default scorer re-resolves against the new store.
                scorer=current._scorer_override,
            )
            self.scorer = new_scorer
            self._reloads += 1
            obs.incr("serve.reloads")
            reloads = self._reloads
        return {
            "reloaded": str(target),
            "fingerprint": store_fingerprint(new_scorer.model.header),
            "n_points": int(new_scorer.mat.n_points),
            "reloads": reloads,
        }

    # -- observability --------------------------------------------------------

    def stats_payload(self) -> Dict:
        payload = self.scorer.stats()
        with self._admin_lock:
            reloads = self._reloads
        with self._state_lock:
            active = self._active
        rss_kb = None
        if _resource is not None:
            rss_kb = int(_resource.getrusage(_resource.RUSAGE_SELF).ru_maxrss)
        payload["server"] = {
            "pid": os.getpid(),
            "worker_index": self.worker_index,
            "workers": self.workers,
            "reloads": reloads,
            "active_requests": active,
            "rss_kb": rss_kb,
            "batcher": None if self.batcher is None else self.batcher.stats(),
        }
        payload["stream"] = None if self.stream is None else self.stream.stats()
        return payload

    def server_close(self) -> None:
        if self.batcher is not None:
            self.batcher.close()
        if self.stream is not None:
            # Let an in-flight background refit land its swap so the
            # lineage chain on disk is complete at shutdown.
            self.stream.wait_refit(timeout=10.0)
        super().server_close()


class _Handler(BaseHTTPRequestHandler):
    server: _ModelHTTPServer

    # Persistent connections: every reply carries an exact
    # Content-Length, so HTTP/1.1 keep-alive is sound and a load
    # generator pays connection setup once, not per request.
    protocol_version = "HTTP/1.1"
    # An idle keep-alive connection parks its handler thread in
    # readline(); time it out so abandoned connections release threads.
    timeout = 60
    # Status line / headers / body go out as separate writes; with
    # Nagle on, the segment carrying the body waits ~40ms for the
    # client's delayed ACK, putting a hard latency floor under every
    # keep-alive request. TCP_NODELAY removes it.
    disable_nagle_algorithm = True

    def log_message(self, format, *args):  # noqa: A002 - stdlib signature
        pass  # request logging off; /stats carries the counters

    def _reply(self, status: int, payload: Dict, close: bool = False) -> None:
        body = json.dumps(payload).encode("utf-8")
        self.send_response(status)
        self.send_header("Content-Type", "application/json")
        self.send_header("Content-Length", str(len(body)))
        if close:
            # Also sets close_connection: the handler loop ends after
            # this reply instead of reading the next request.
            self.send_header("Connection", "close")
        self.end_headers()
        self.wfile.write(body)

    def do_GET(self) -> None:  # noqa: N802 - stdlib casing
        with self.server.track_request():
            self._handle_get()

    def do_POST(self) -> None:  # noqa: N802 - stdlib casing
        with self.server.track_request():
            if self._body_length_ok():
                self._handle_post()

    def _body_length_ok(self) -> bool:
        """Refuse a ``Content-Length`` that cannot be read safely.

        A negative or non-integer length gets 400 and one above
        :data:`MAX_BODY_BYTES` gets 413. The body is left unread and the
        connection closed, since the next request's start is unknown.
        """
        header = self.headers.get("Content-Length", "0")
        try:
            length = int(header)
        except ValueError:
            length = -1
        if 0 <= length <= MAX_BODY_BYTES:
            return True
        status = 413 if length > MAX_BODY_BYTES else 400
        self._reply(status, {"error": f"bad Content-Length {header!r}"}, close=True)
        return False

    def _handle_get(self) -> None:
        scorer = self.server.scorer
        if self.path == "/healthz":
            self._reply(200, {"status": "ok", "n_points": int(scorer.mat.n_points)})
        elif self.path == "/stats":
            self._reply(200, self.server.stats_payload())
        elif self.path == "/model":
            self._reply(200, scorer.model_info())
        else:
            self._reply(404, {"error": f"unknown path {self.path!r}"})

    def _read_json_body(self):
        length = int(self.headers.get("Content-Length", 0))
        raw = self.rfile.read(length) if length else b""
        if not raw:
            return {}
        return json.loads(raw.decode("utf-8"))

    def _handle_post(self) -> None:
        if self.path == "/admin/reload":
            self._handle_reload()
            return
        if self.path != "/score":
            self._reply(404, {"error": f"unknown path {self.path!r}"})
            return
        scorer = self.server.scorer
        try:
            request = self._read_json_body()
        except (ValueError, UnicodeDecodeError) as exc:
            self._reply(400, {"error": f"request body is not valid JSON: {exc}"})
            return
        if not isinstance(request, dict) or "points" not in request:
            self._reply(400, {"error": 'request must be {"points": [[...], ...]}'})
            return
        min_pts = request.get("min_pts")
        scorer_name = request.get("scorer")
        try:
            if min_pts is not None:
                min_pts = int(min_pts)
            if scorer_name is not None and not isinstance(scorer_name, str):
                raise ValidationError("scorer must be a registered scorer name")
            if scorer_name is not None:
                # Resolve eagerly: an unknown scorer is the caller's
                # mistake (400), never a 500 from deep in a batch.
                scorer_name = get_scorer(scorer_name).name
            batcher = self.server.batcher
            if batcher is not None:
                scores = batcher.submit(
                    request["points"], min_pts, scorer=scorer_name
                ).result()
            else:
                scores = scorer.score_new(
                    request["points"], min_pts=min_pts, scorer=scorer_name
                )
        except ServeError as exc:
            self._reply(503, {"error": str(exc)})
            return
        except (ReproError, TypeError, ValueError) as exc:
            self._reply(400, {"error": str(exc)})
            return
        stream = self.server.stream
        if stream is not None:
            # Ingest before the reply: a caller that saw the 200 knows
            # its points entered the lifecycle (exact counters for the
            # replay wall; a drift-triggered refit runs off-thread).
            self._stream_ingest(stream, request["points"], scores)
        ks = [min_pts] if min_pts is not None else list(scorer.min_pts_grid)
        self._reply(
            200,
            {
                "scores": [float(s) for s in scores],
                "min_pts": [int(k) for k in ks],
                "aggregate": scorer.aggregate if min_pts is None else None,
                "scorer": scorer_name or scorer.scorer_name,
            },
        )
        self.server.note_scored()

    def _stream_ingest(self, stream: "StreamingDetector", points, scores) -> None:
        """Feed just-scored points into the online lifecycle. The reply
        path already validated and scored them, so failures here (e.g.
        distinct-mode coverage in a tiny window) must never turn a
        successful scoring into an error response."""
        try:
            pts = np.asarray(points, dtype=np.float64)
            if pts.ndim == 1:
                pts = pts[None, :]
            for row, value in zip(pts, scores):
                stream.observe(row, score=float(value))
        except ReproError:
            obs.incr("stream.ingest.errors")

    def _handle_reload(self) -> None:
        try:
            request = self._read_json_body()
        except (ValueError, UnicodeDecodeError) as exc:
            self._reply(400, {"error": f"request body is not valid JSON: {exc}"})
            return
        if not isinstance(request, dict):
            self._reply(400, {"error": 'request must be {} or {"path": "..."}'})
            return
        try:
            info = self.server.reload_store(path=request.get("path"))
        except ReproError as exc:
            # A bad replacement store must never take down the serving
            # fleet: the old scorer stays live, the caller learns why.
            self._reply(500, {"error": str(exc)})
            return
        self._reply(200, info)


def _make_listening_socket(host: str, port: int) -> socket.socket:
    """Bind a listening TCP socket, opting into ``SO_REUSEPORT`` where
    the platform offers it (lets the kernel load-balance accepts across
    fleet workers; the pre-fork shared socket works without it)."""
    sock = socket.socket(socket.AF_INET, socket.SOCK_STREAM)
    sock.setsockopt(socket.SOL_SOCKET, socket.SO_REUSEADDR, 1)
    if hasattr(socket, "SO_REUSEPORT"):  # pragma: no branch - platform const
        try:
            sock.setsockopt(socket.SOL_SOCKET, socket.SO_REUSEPORT, 1)
        except OSError:  # pragma: no cover - kernel without support
            pass
    sock.bind((host, port))
    sock.listen(128)
    return sock


def make_server(
    store_path,
    host: str = "127.0.0.1",
    port: int = 0,
    mmap: bool = False,
    max_requests=None,
    cache_size: int = 1024,
    sock: Optional[socket.socket] = None,
    batch_window_ms: Optional[float] = 2.0,
    max_batch: int = 64,
    max_queue: int = 1024,
    worker_index: int = 0,
    workers: int = 1,
    scorer=None,
    stream: Optional[Dict] = None,
) -> _ModelHTTPServer:
    """Build (but do not start) the scoring server; ``port=0`` binds an
    ephemeral port, readable from ``server.server_address``.
    ``batch_window_ms=None`` disables request coalescing (each request
    scores by itself, the pre-fleet behavior). ``scorer`` overrides the
    store's fitted scorer as the service default.

    ``stream``, when given (a dict, possibly empty), attaches a
    :class:`repro.stream.StreamingDetector` wired to this server: every
    scored ``/score`` point is ingested into its sliding window, drift
    triggers a background refit, and each refit hot-swaps the serving
    model through :meth:`_ModelHTTPServer.reload_store`. Dict keys
    override the detector's constructor arguments; the model recipe
    (scorer, duplicate mode, metric, aggregate, MinPts grid) defaults
    to the store's own."""
    scorer = OnlineScorer.from_path(
        store_path, mmap=mmap, cache_size=cache_size, scorer=scorer
    )
    server = _ModelHTTPServer(
        (host, port),
        scorer,
        max_requests=max_requests,
        sock=sock,
        batch_window_ms=batch_window_ms,
        max_batch=max_batch,
        max_queue=max_queue,
        worker_index=worker_index,
        workers=workers,
    )
    if stream is not None:
        server.stream = _make_stream(server, store_path, stream)
    return server


def _make_stream(server: _ModelHTTPServer, store_path, options: Dict):
    """Build the serve-attached :class:`StreamingDetector`: recipe from
    the loaded store, swap wired to ``reload_store``, refits on a
    background thread (overridable via ``options``)."""
    # Local import: repro.stream sits above repro.serve in the layer
    # diagram and imports OnlineScorer from here.
    from .stream import StreamingDetector

    opts = dict(options)
    online = server.scorer
    grid = [int(k) for k in online.min_pts_grid]
    min_pts = int(opts.pop("min_pts", max(grid)))
    window = int(opts.pop("window", max(4 * min_pts, 64)))
    store_dir = Path(opts.pop("store_dir", None) or Path(store_path).parent)
    meta = online.model.estimator or {}
    opts.setdefault("background", True)
    return StreamingDetector(
        min_pts,
        window,
        store_dir,
        scorer=online.scorer_name,
        duplicate_mode=online.mat.duplicate_mode,
        metric=online.model.metric_object(),
        aggregate=online.aggregate,
        threshold=float(meta.get("threshold", 1.5)),
        refit_min_pts=(min(grid), max(grid)),
        initial_store=Path(store_path),
        swap=server.reload_store,
        **opts,
    )


def _serve_until_done(server: _ModelHTTPServer, drain_timeout: float = 10.0) -> int:
    try:
        server.serve_forever()
    except KeyboardInterrupt:  # pragma: no cover - interactive only
        pass
    finally:
        # Drain before close: handler threads mid-request finish and
        # flush their responses; idle keep-alive connections are not
        # in-flight and simply die with the process.
        server.wait_drained(timeout=drain_timeout)
        server.server_close()
    return 0


def run_server(
    store_path,
    host: str = "127.0.0.1",
    port: int = 8000,
    mmap: bool = False,
    max_requests=None,
    cache_size: int = 1024,
    batch_window_ms: Optional[float] = 2.0,
    max_batch: int = 64,
    max_queue: int = 1024,
    scorer=None,
    stream: Optional[Dict] = None,
) -> int:
    """Load a store and serve it over HTTP until interrupted (or until
    ``max_requests`` scored POSTs; shutdown drains in-flight requests).
    ``stream`` (see :func:`make_server`) turns on the online lifecycle:
    ingest → drift detection → background refit → hot-swap."""
    server = make_server(
        store_path,
        host=host,
        port=port,
        mmap=mmap,
        max_requests=max_requests,
        cache_size=cache_size,
        batch_window_ms=batch_window_ms,
        max_batch=max_batch,
        max_queue=max_queue,
        scorer=scorer,
        stream=stream,
    )
    bound_host, bound_port = server.server_address[:2]
    print(
        f"serving {store_path} on http://{bound_host}:{bound_port} "
        f"(n={server.scorer.mat.n_points}, "
        f"min_pts={list(server.scorer.min_pts_grid)}, "
        f"scorer={server.scorer.scorer_name})",
        flush=True,
    )
    if server.stream is not None:
        print(
            f"stream lifecycle on (window={server.stream.window}, "
            f"check_every={server.stream.check_every}, "
            f"drift_factor={server.stream.drift_factor}, "
            f"refits -> {server.stream.store_dir})",
            flush=True,
        )
    return _serve_until_done(server)


def run_fleet(
    store_path,
    host: str = "127.0.0.1",
    port: int = 8000,
    workers: int = 1,
    max_requests=None,
    cache_size: int = 1024,
    batch_window_ms: Optional[float] = 2.0,
    max_batch: int = 64,
    max_queue: int = 1024,
    scorer=None,
    stream: Optional[Dict] = None,
) -> int:
    """Serve one store from ``workers`` forked processes on one port.

    The parent binds the listening socket once (``SO_REUSEPORT`` set
    when available) and forks; every worker memmap-loads the same store
    file — the kernel page cache backs all of them with the same
    physical pages, so the marginal RSS of an extra worker is the
    handler state, not the model — and accepts on the shared socket.
    ``max_requests`` applies per worker. Falls back to the in-process
    threaded server when ``workers <= 1`` or ``fork`` is unavailable.

    The ``stream`` lifecycle is per-process state (window, drift
    counters, refit single-flight), so it only composes with the
    single-process path: with ``workers > 1`` each fork would refit
    against the fraction of traffic the kernel happened to hand it.
    """
    workers = int(workers)
    if stream is not None and workers > 1 and fork_available():
        raise ValidationError(
            "--stream requires a single worker: the drift/refit "
            "lifecycle is per-process and forked workers would each "
            "see only a slice of the traffic"
        )
    if workers <= 1 or not fork_available():
        return run_server(
            store_path,
            host=host,
            port=port,
            mmap=True,
            max_requests=max_requests,
            cache_size=cache_size,
            batch_window_ms=batch_window_ms,
            max_batch=max_batch,
            max_queue=max_queue,
            scorer=scorer,
            stream=stream,
        )
    sock = _make_listening_socket(host, port)
    bound_host, bound_port = sock.getsockname()[:2]
    print(
        f"serving {store_path} on http://{bound_host}:{bound_port} "
        f"(workers={workers}, mmap shared)",
        flush=True,
    )

    def worker(index: int) -> int:
        # Loaded after the fork: every worker opens its own read-only
        # memmap of the same file, deduplicated by the page cache.
        server = make_server(
            store_path,
            mmap=True,
            max_requests=max_requests,
            cache_size=cache_size,
            sock=sock,
            batch_window_ms=batch_window_ms,
            max_batch=max_batch,
            max_queue=max_queue,
            worker_index=index,
            workers=workers,
            scorer=scorer,
        )
        return _serve_until_done(server)

    pids = fork_workers(workers, worker)
    for _ in pids:
        obs.incr("serve.workers")
    sock.close()  # the parent never accepts; workers hold their own fd

    # Terminating the parent must take the fleet down with it: forward
    # SIGTERM/SIGINT to every worker, then fall through to the reap.
    def _forward(signum, frame):  # pragma: no cover - signal path
        for pid in pids:
            try:
                os.kill(pid, signal.SIGTERM)
            except ProcessLookupError:
                pass

    for signum in (signal.SIGTERM, signal.SIGINT):
        signal.signal(signum, _forward)
    return wait_workers(pids)
