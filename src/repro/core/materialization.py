"""The materialization database M and the two-step LOF algorithm.

Section 7.4 of the paper describes the production algorithm:

    *Step 1* — for every object p, materialize its MinPtsUB-nearest
    neighborhood (neighbor ids and distances) into a database M of size
    n · MinPtsUB. This is the only step that touches the raw vectors, and
    its cost is n times the cost of one k-NN query against the chosen
    access method.

    *Step 2* — for every MinPts value in [MinPtsLB, MinPtsUB], scan M
    twice: the first scan computes every object's local reachability
    density (Definition 6), the second computes the LOF values
    (Definition 7). The original database D is not needed. Each scan is
    O(n).

:class:`MaterializationDB` is that database M — since the columnar
refactor, a thin *policy layer*: neighborhood storage and per-k slice
views live in :class:`~repro.core.graph.NeighborhoodGraph`, all lrd/LOF
arithmetic in the :mod:`~repro.core.scoring` kernels, and this class
adds the duplicate-mode policy, per-MinPts caching and persistence
metadata on top.

Tie semantics follow Definition 4: the k-distance neighborhood contains
*every* object at distance not greater than the k-distance, so rows can
be longer than MinPtsUB and per-k neighborhoods longer than k.

Duplicate handling (the remark after Definition 6) is a per-database
mode:

``"inf"``
    the paper's plain definition; MinPts-fold duplicates produce
    lrd = inf, and LOF ratios use the convention inf/inf := 1 so scores
    remain well-defined;
``"distinct"``
    the paper's proposed fix: neighborhoods are based on the
    k-*distinct*-distance, the smallest radius containing k neighbors
    with mutually different spatial coordinates, which keeps every lrd
    finite;
``"error"``
    raise :class:`DuplicatePointsError` when an infinite lrd would arise.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Tuple

import numpy as np

from .. import obs
from .._validation import check_data, check_min_pts
from ..exceptions import ValidationError
from . import scoring
from .duplicates import distinct_ball
from .graph import NeighborhoodGraph

_DUPLICATE_MODES = ("inf", "distinct", "error")


def _check_duplicate_mode(duplicate_mode: str) -> str:
    if duplicate_mode not in _DUPLICATE_MODES:
        raise ValidationError(
            f"duplicate_mode must be one of {_DUPLICATE_MODES}, got {duplicate_mode!r}"
        )
    return duplicate_mode


def _coord_keys_for(X: np.ndarray) -> np.ndarray:
    """Exact-coordinate group keys for the 'distinct' duplicate policy."""
    _, coord_keys = np.unique(X, axis=0, return_inverse=True)
    coord_keys = coord_keys.astype(np.int64)
    if np.max(np.bincount(coord_keys)) == X.shape[0]:
        raise ValidationError(
            "all points are identical; no distinct neighborhood exists"
        )
    return coord_keys


class MaterializationDB:
    """The neighborhood materialization database M of Section 7.4.

    Build it once with :meth:`materialize` (or the module-level
    :func:`materialize` convenience) for the largest MinPts value you
    intend to use, then query LOF statistics for any smaller MinPts
    without touching the original vectors again.

    Attributes
    ----------
    n_points, min_pts_ub, duplicate_mode : as constructed.
    graph : the underlying :class:`~repro.core.graph.NeighborhoodGraph`
        holding the columnar neighborhood storage and per-k views.
    padded_ids, padded_dists : (n, L) arrays padded with -1 / +inf; row i
        holds the tie-inclusive ``min_pts_ub``-distance neighborhood of
        object i sorted by (distance, id). Views into ``graph``.
    """

    def __init__(
        self,
        padded_ids: np.ndarray,
        padded_dists: np.ndarray,
        min_pts_ub: int,
        duplicate_mode: str = "inf",
        coord_keys: Optional[np.ndarray] = None,
    ):
        _check_duplicate_mode(duplicate_mode)
        if duplicate_mode == "distinct" and coord_keys is None:
            raise ValidationError("duplicate_mode='distinct' requires coord_keys")
        self.graph = NeighborhoodGraph(padded_ids, padded_dists, k_max=min_pts_ub)
        self.min_pts_ub = int(min_pts_ub)
        self.duplicate_mode = duplicate_mode
        self.coord_keys = coord_keys
        self.n_points = self.graph.n_points
        self._kdist_cache: Dict[int, np.ndarray] = {}
        self._lrd_cache: Dict[int, np.ndarray] = {}
        self._lof_cache: Dict[int, np.ndarray] = {}
        self._scorer_scores: Dict[Tuple[str, int], np.ndarray] = {}
        self._scorer_aux: Dict[Tuple[str, int], Dict[str, np.ndarray]] = {}

    @classmethod
    def from_graph(
        cls,
        graph: NeighborhoodGraph,
        duplicate_mode: str = "inf",
        coord_keys: Optional[np.ndarray] = None,
    ) -> "MaterializationDB":
        """Wrap a prebuilt neighborhood graph in the database policy layer."""
        db = cls.__new__(cls)
        _check_duplicate_mode(duplicate_mode)
        if duplicate_mode == "distinct" and coord_keys is None:
            raise ValidationError("duplicate_mode='distinct' requires coord_keys")
        db.graph = graph
        db.min_pts_ub = graph.k_max
        db.duplicate_mode = duplicate_mode
        db.coord_keys = coord_keys
        db.n_points = graph.n_points
        db._kdist_cache = {}
        db._lrd_cache = {}
        db._lof_cache = {}
        db._scorer_scores = {}
        db._scorer_aux = {}
        return db

    # -- columnar storage (delegated to the graph) ---------------------------

    @property
    def padded_ids(self) -> np.ndarray:
        return self.graph.padded_ids

    @property
    def padded_dists(self) -> np.ndarray:
        return self.graph.padded_dists

    @property
    def _row_lengths(self) -> np.ndarray:
        return self.graph.row_lengths

    # -- construction --------------------------------------------------------

    @classmethod
    def materialize(
        cls,
        X,
        min_pts_ub: int,
        index="brute",
        metric="euclidean",
        duplicate_mode: str = "inf",
        n_jobs=None,
    ) -> "MaterializationDB":
        """Step 1 of the two-step algorithm: build M from dataset ``X``.

        One tie-inclusive ``query_with_ties`` per object against the
        chosen index (:meth:`NeighborhoodGraph.from_index`). ``index``
        may be a registry name ('brute', 'grid', 'kdtree', 'balltree',
        'rstar', 'xtree', 'vafile'), an :class:`NNIndex` class, or a
        fitted/unfitted instance. ``n_jobs`` shards the per-object query
        loop across a fork-based process pool (``None``/1 serial, ``-1``
        one worker per CPU); the fitted index is shared with workers
        copy-on-write and the result is bit-identical to the serial run.
        ``duplicate_mode='distinct'`` then extends the few rows whose
        plain neighborhoods do not cover MinPtsUB distinct locations
        (see :func:`ensure_distinct_coverage`).
        """
        X = check_data(X, min_rows=2)
        n = X.shape[0]
        ub = check_min_pts(min_pts_ub, n, name="min_pts_ub")
        _check_duplicate_mode(duplicate_mode)
        coord_keys = _coord_keys_for(X) if duplicate_mode == "distinct" else None
        with obs.span("materialize.query_loop"):
            graph = NeighborhoodGraph.from_index(
                X, ub, index=index, metric=metric, n_jobs=n_jobs
            )
            if coord_keys is not None:
                graph = ensure_distinct_coverage(graph, X, metric, coord_keys, ub)
        return cls.from_graph(
            graph, duplicate_mode=duplicate_mode, coord_keys=coord_keys
        )

    # The retired batched builder's name stays resolvable for callers
    # that look builders up by name (perfbench/tracer.py wraps it); it
    # is the one builder above.
    materialize_batched = materialize

    # -- Definition 3: k-distance ---------------------------------------------

    def k_distances(self, min_pts: int) -> np.ndarray:
        """The MinPts-distance of every object (Definition 3), from M."""
        k = self._check_k(min_pts)
        if k not in self._kdist_cache:
            if self.duplicate_mode == "distinct":
                self._kdist_cache[k] = self._distinct_k_distances(k)
            else:
                self._kdist_cache[k] = self.graph.k_distances(k)
        return self._kdist_cache[k]

    def _distinct_k_distances(self, k: int) -> np.ndarray:
        lengths = self.graph.row_lengths
        return np.array(
            [
                distinct_ball(
                    self.padded_dists[i, : lengths[i]],
                    self.coord_keys[self.padded_ids[i, : lengths[i]]],
                    k,
                )[2]
                for i in range(self.n_points)
            ]
        )

    # -- Definition 4: neighborhoods (CSR layout for vectorized math) ----------

    def view(self, min_pts: int):
        """The per-MinPts :class:`~repro.core.graph.NeighborhoodView`.

        Under the 'distinct' policy the cutoff radii are the
        k-distinct-distances rather than the plain k-distances.
        """
        k = self._check_k(min_pts)
        if self.duplicate_mode == "distinct":
            return self.graph.view(k, kdist=self.k_distances(k))
        return self.graph.view(k)

    def neighborhoods(self, min_pts: int) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Tie-inclusive MinPts-distance neighborhoods of all objects.

        Returns ``(flat_ids, flat_dists, offsets)`` in CSR form: the
        neighborhood of object i is ``flat_ids[offsets[i]:offsets[i+1]]``.
        """
        view = self.view(min_pts)
        return view.ids, view.dists, view.offsets

    def neighborhood_of(self, i: int, min_pts: int) -> Tuple[np.ndarray, np.ndarray]:
        """Ids and distances of N_MinPts(i), sorted by (distance, id)."""
        return self.view(min_pts).row(int(i))

    # -- Definition 5/6: reachability distances and lrd -------------------------

    def reach_dists(self, min_pts: int) -> Tuple[np.ndarray, np.ndarray]:
        """reach-dist_MinPts(p, o) for every neighborhood pair, CSR-flat.

        Returns ``(flat_reach, offsets)`` aligned with
        :meth:`neighborhoods`.
        """
        k = self._check_k(min_pts)
        view = self.view(k)
        kdist = self.k_distances(k)
        return scoring.reach_dist_values(view.dists, kdist[view.ids]), view.offsets

    def lrd(self, min_pts: int) -> np.ndarray:
        """Local reachability density of every object (Definition 6).

        This is the first O(n) scan of step 2, one
        :func:`repro.core.scoring.lrd_values` kernel pass.
        """
        k = self._check_k(min_pts)
        if k not in self._lrd_cache:
            obs.incr("mscan.passes")
            flat_reach, offsets = self.reach_dists(k)
            self._lrd_cache[k] = scoring.lrd_values(
                flat_reach, offsets, duplicate_mode=self.duplicate_mode
            )
        return self._lrd_cache[k]

    def lof(self, min_pts: int) -> np.ndarray:
        """Local outlier factor of every object (Definition 7).

        This is the second O(n) scan of step 2, one
        :func:`repro.core.scoring.lof_values` kernel pass. Ratio
        convention for duplicate-heavy data in mode 'inf':
        inf/inf := 1, finite/inf := 0.

        Results are cached per ``min_pts`` (like k-distances and lrd), so
        a repeated call — e.g. the Section 6.2 max-LOF sweep revisiting a
        value — reads M zero additional times; ``mscan.passes`` counts
        only cache misses.
        """
        k = self._check_k(min_pts)
        if k not in self._lof_cache:
            lrd = self.lrd(k)
            obs.incr("mscan.passes")
            view = self.view(k)
            self._lof_cache[k] = scoring.lof_values(lrd, lrd[view.ids], view.offsets)
        return self._lof_cache[k]

    def lof_range(self, min_pts_lb: int, min_pts_ub: int) -> Dict[int, np.ndarray]:
        """LOF vectors for every MinPts in [lb, ub] (Section 6.2 sweep)."""
        lb = self._check_k(min_pts_lb)
        ub = self._check_k(min_pts_ub)
        if lb > ub:
            raise ValidationError(f"min_pts_lb={lb} exceeds min_pts_ub={ub}")
        return {k: self.lof(k) for k in range(lb, ub + 1)}

    # -- the scorer registry (repro.scorers) -----------------------------------

    def _scorer_context(self, k: int, X=None, metric=None):
        from ..scorers import ScorerContext

        if X is not None:
            X = np.asarray(X, dtype=np.float64)
            if X.ndim != 2 or X.shape[0] != self.n_points:
                raise ValidationError(
                    f"dataset snapshot X must be 2-D with {self.n_points} "
                    f"rows to match this materialization"
                )
        metric_obj = None
        if metric is not None:
            from ..index import get_metric

            metric_obj = get_metric(metric)
        return ScorerContext(mat=self, k=k, X=X, metric=metric_obj)

    def scores(self, min_pts: int, scorer="lof", X=None, metric=None) -> np.ndarray:
        """Per-object scores of any registered scorer (Section 7.4 step 2,
        generalized): cached per ``(scorer, MinPts)``, computed from the
        one materialized neighborhood graph.

        ``scorer='lof'`` reads the classic :meth:`lof` cache, so routing
        LOF through the registry is bit-identical to calling :meth:`lof`
        directly. Scorers with ``requires_data`` (LDOF) additionally
        need the dataset snapshot ``X`` and the ``metric``.
        """
        from ..scorers import get_scorer

        scorer = get_scorer(scorer)
        k = self._check_k(min_pts)
        key = (scorer.name, k)
        if key not in self._scorer_scores:
            vec, aux = scorer.fit(self._scorer_context(k, X=X, metric=metric))
            self._scorer_scores[key] = np.asarray(vec, dtype=np.float64)
            self._scorer_aux.setdefault(
                key, {name: np.asarray(v, dtype=np.float64) for name, v in aux.items()}
            )
        return self._scorer_scores[key]

    def scorer_aux(self, scorer, min_pts: int, X=None, metric=None) -> Dict[str, np.ndarray]:
        """The aux arrays a scorer persists for its query path (for
        example LoOP's per-object pdist vector and nPLOF scalar),
        computed and cached alongside :meth:`scores`."""
        from ..scorers import get_scorer

        scorer = get_scorer(scorer)
        k = self._check_k(min_pts)
        key = (scorer.name, k)
        if key not in self._scorer_aux:
            vec, aux = scorer.fit(self._scorer_context(k, X=X, metric=metric))
            self._scorer_scores.setdefault(key, np.asarray(vec, dtype=np.float64))
            self._scorer_aux[key] = {
                name: np.asarray(v, dtype=np.float64) for name, v in aux.items()
            }
        return self._scorer_aux[key]

    # -- persistence (repro.store) ----------------------------------------------

    def cached_lrd(self) -> Dict[int, np.ndarray]:
        """Copy of the per-MinPts lrd cache (what a save persists)."""
        return dict(self._lrd_cache)

    def cached_lof(self) -> Dict[int, np.ndarray]:
        """Copy of the per-MinPts LOF cache (what a save persists)."""
        return dict(self._lof_cache)

    def seed_caches(self, lrd=None, lof=None) -> None:
        """Pre-populate the per-MinPts caches from persisted vectors.

        Used by :mod:`repro.store` on load so step-2 queries against a
        reloaded M serve the exact vectors computed at fit time without
        a recompute (``mscan.passes`` stays 0 for seeded values). Every
        key must be a valid MinPts for this database and every vector
        must cover all ``n_points`` objects.
        """
        for cache, seeds in ((self._lrd_cache, lrd), (self._lof_cache, lof)):
            for k, vec in (seeds or {}).items():
                k = self._check_k(int(k))
                vec = np.asarray(vec, dtype=np.float64)
                if vec.shape != (self.n_points,):
                    raise ValidationError(
                        f"cache vector for MinPts={k} has shape {vec.shape}, "
                        f"expected ({self.n_points},)"
                    )
                cache[k] = vec

    def cached_scorer_scores(self) -> Dict[Tuple[str, int], np.ndarray]:
        """Copy of the per-(scorer, MinPts) score cache (what a save persists)."""
        return dict(self._scorer_scores)

    def cached_scorer_aux(self) -> Dict[Tuple[str, int], Dict[str, np.ndarray]]:
        """Copy of the per-(scorer, MinPts) aux cache (what a save persists)."""
        return {key: dict(mapping) for key, mapping in self._scorer_aux.items()}

    def seed_scorer_caches(self, scores=None, aux=None) -> None:
        """Pre-populate the registry caches from persisted sections, so a
        reloaded store serves every scorer's fitted vectors (and aux
        state such as LoOP's pdist/nPLOF) without a recompute."""
        for (name, k), vec in (scores or {}).items():
            k = self._check_k(int(k))
            vec = np.asarray(vec, dtype=np.float64)
            if vec.shape != (self.n_points,):
                raise ValidationError(
                    f"score vector for scorer={name!r}, MinPts={k} has shape "
                    f"{vec.shape}, expected ({self.n_points},)"
                )
            self._scorer_scores[(str(name), k)] = vec
        for (name, k), mapping in (aux or {}).items():
            k = self._check_k(int(k))
            self._scorer_aux[(str(name), k)] = {
                str(a): np.asarray(v, dtype=np.float64) for a, v in mapping.items()
            }

    def save(self, path, X=None, metric="euclidean"):
        """Persist M (plus an optional dataset snapshot ``X`` for online
        scoring) via :func:`repro.store.save_model`."""
        from ..store import save_model

        return save_model(path, self, X=X, metric=metric)

    @classmethod
    def load(cls, path, mmap: bool = False, verify: bool = True) -> "MaterializationDB":
        """Reload a persisted M; answers every MinPts <= its bound
        exactly as the original did (estimator stores load fine too —
        their embedded materialization is returned)."""
        from ..store import load_model

        return load_model(path, mmap=mmap, verify=verify).mat

    # -- misc -------------------------------------------------------------------

    def size_in_records(self) -> int:
        """Number of (id, distance) records stored — the paper's n·MinPtsUB
        figure, plus any tie overhang."""
        return self.graph.size_in_records()

    def _check_k(self, min_pts: int) -> int:
        k = check_min_pts(min_pts, self.n_points)
        if k > self.min_pts_ub:
            raise ValidationError(
                f"min_pts={k} exceeds the materialized bound "
                f"min_pts_ub={self.min_pts_ub}; re-materialize with a larger bound"
            )
        return k

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return (
            f"MaterializationDB(n={self.n_points}, min_pts_ub={self.min_pts_ub}, "
            f"records={self.size_in_records()}, mode={self.duplicate_mode!r})"
        )


def ensure_distinct_coverage(
    graph: NeighborhoodGraph,
    X: np.ndarray,
    metric,
    coord_keys: np.ndarray,
    k: int,
) -> NeighborhoodGraph:
    """Extend rows that do not cover ``k`` distinct coordinate locations.

    A plain tie-inclusive k-NN row already covers the k-distinct-distance
    ball whenever it contains ``k`` distinct (positive-distance)
    locations — the k-th distinct location sits within the row's radius,
    and tie inclusion guarantees the row holds *every* point inside it.
    Only duplicate-saturated rows fall short; each of those is rebuilt
    from one full distance row (the ``pairwise_to_point`` kernel the
    index queries use, so distances match the query loop bit for bit)
    as the closed ball of :func:`~repro.core.duplicates.distinct_ball`.
    """
    from ..index import get_metric

    metric_obj = get_metric(metric)
    rows_ids: List[np.ndarray] = []
    rows_dists: List[np.ndarray] = []
    extended = False
    for i in range(graph.n_points):
        length = graph.row_lengths[i]
        ids = graph.padded_ids[i, :length]
        dists = graph.padded_dists[i, :length]
        if len(np.unique(coord_keys[ids[dists > 0.0]])) < k:
            row = metric_obj.pairwise_to_point(X, X[i])
            row[i] = np.inf
            ids, dists, _ = distinct_ball(row, coord_keys, k)
            extended = True
        rows_ids.append(ids)
        rows_dists.append(dists)
    if not extended:
        return graph
    return NeighborhoodGraph.from_rows(rows_ids, rows_dists, k_max=k)


def materialize(
    X,
    min_pts_ub: int,
    index="brute",
    metric="euclidean",
    duplicate_mode: str = "inf",
    n_jobs=None,
) -> MaterializationDB:
    """Convenience alias for :meth:`MaterializationDB.materialize`."""
    return MaterializationDB.materialize(
        X,
        min_pts_ub,
        index=index,
        metric=metric,
        duplicate_mode=duplicate_mode,
        n_jobs=n_jobs,
    )
