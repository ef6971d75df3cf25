"""The shared columnar neighborhood representation.

Section 7.4 separates *neighborhood materialization* from *scoring*;
this module is the materialized side of that split, factored out of the
individual surfaces so the whole repository shares ONE tie-inclusive
neighborhood structure:

* :class:`NeighborhoodView` — an immutable CSR slice (flat ids, flat
  distances, row offsets, per-row k-distances) that the scoring kernels
  of :mod:`repro.core.scoring` consume directly;
* :class:`NeighborhoodGraph` — the static columnar graph: padded
  ``(n, width)`` id/distance arrays covering every ``k <= k_max``, with
  cached per-k slice views. Built from padded arrays, from ragged rows,
  from CSR blocks, or — step 1 itself — from one tie-inclusive query
  per object against an :class:`~repro.index.NNIndex`;
* :class:`DynamicNeighborhoodGraph` — the mutable flavor for
  insert/delete workloads: per-row updates over a sparse integer handle
  space, and ``subview(handles)`` to hand any dirty subset to the same
  scoring kernels.

Every construction of a static graph increments the ``graph.builds``
obs counter, so pipelines can assert they share one graph instead of
silently rebuilding per surface.

Layering: ``index`` produces neighbor candidates, ``graph`` stores
them, ``scoring`` turns views into densities, and the user surfaces
(materialization, topn, range, incremental, streaming, handshake,
estimator, CLI) compose the three — see
``docs/architecture.md``.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from .. import obs
from .._validation import check_data, check_min_pts
from ..exceptions import ValidationError
from ..index import make_index
from ..index.batch import scatter_padded
from .parallel import map_sharded, resolve_n_jobs


@dataclass(frozen=True)
class NeighborhoodView:
    """Tie-inclusive k-distance neighborhoods of a row set, in CSR form.

    Row ``i`` of the view (an object with global id ``row_ids[i]``) owns
    the slice ``offsets[i]:offsets[i+1]`` of ``ids`` / ``dists``, sorted
    by ``(distance, id)``; ``kdist[i]`` is its k-distance.
    """

    k: int
    ids: np.ndarray
    dists: np.ndarray
    offsets: np.ndarray
    kdist: np.ndarray
    row_ids: np.ndarray

    @property
    def n_rows(self) -> int:
        return len(self.row_ids)

    @property
    def counts(self) -> np.ndarray:
        """Neighborhood cardinality per row (``>= k`` by Definition 4)."""
        return np.diff(self.offsets)

    def row(self, i: int) -> Tuple[np.ndarray, np.ndarray]:
        """(ids, dists) of view row ``i`` (positional, not global id)."""
        sl = slice(self.offsets[i], self.offsets[i + 1])
        return self.ids[sl], self.dists[sl]

    @classmethod
    def from_ragged(
        cls,
        k: int,
        rows_ids: Sequence[np.ndarray],
        rows_dists: Sequence[np.ndarray],
        kdist: np.ndarray,
        row_ids: Optional[np.ndarray] = None,
    ) -> "NeighborhoodView":
        """Pack ragged per-row (ids, dists) neighborhoods into one CSR view.

        The external-row entry point to the scoring kernels: online
        scoring (:mod:`repro.serve`) packs *query* neighborhoods — rows
        that are not objects of the graph — into the same
        ``NeighborhoodView`` the kernels consume, so new points are
        scored by the exact arithmetic that scored the training set.
        ``row_ids`` defaults to ``-1`` per row ("not a stored object").
        """
        counts = np.array([len(r) for r in rows_ids], dtype=np.int64)
        offsets = np.zeros(len(counts) + 1, dtype=np.int64)
        np.cumsum(counts, out=offsets[1:])
        if len(counts) and counts.sum():
            ids = np.concatenate([np.asarray(r, dtype=np.int64) for r in rows_ids])
            dists = np.concatenate(
                [np.asarray(r, dtype=np.float64) for r in rows_dists]
            )
        else:
            ids = np.empty(0, dtype=np.int64)
            dists = np.empty(0, dtype=np.float64)
        if row_ids is None:
            row_ids = np.full(len(counts), -1, dtype=np.int64)
        return cls(
            k=int(k),
            ids=ids,
            dists=dists,
            offsets=offsets,
            kdist=np.asarray(kdist, dtype=np.float64),
            row_ids=np.asarray(row_ids, dtype=np.int64),
        )


class NeighborhoodGraph:
    """Static columnar k-NN graph: one build, every ``k <= k_max`` view.

    Stores the tie-inclusive ``k_max``-distance neighborhood of each of
    ``n`` objects as padded ``(n, width)`` arrays (ids padded with -1,
    distances with inf), rows sorted by ``(distance, id)``. Per-k
    k-distance vectors and CSR views are computed lazily and cached, so
    a MinPts sweep re-reads the columnar storage instead of the dataset.
    """

    def __init__(
        self,
        padded_ids: np.ndarray,
        padded_dists: np.ndarray,
        k_max: int,
    ):
        padded_ids = np.asarray(padded_ids, dtype=np.int64)
        padded_dists = np.asarray(padded_dists, dtype=np.float64)
        if padded_ids.ndim != 2 or padded_ids.shape != padded_dists.shape:
            raise ValidationError(
                "padded_ids and padded_dists must be 2-D arrays of the "
                f"same shape, got {padded_ids.shape} and {padded_dists.shape}"
            )
        k_max = int(k_max)
        if not 1 <= k_max <= padded_ids.shape[1]:
            raise ValidationError(
                f"k_max={k_max} must be in [1, {padded_ids.shape[1]}] "
                "(the padded row width)"
            )
        self.padded_ids = padded_ids
        self.padded_dists = padded_dists
        self.k_max = k_max
        self.n_points = padded_ids.shape[0]
        self.width = padded_ids.shape[1]
        self.row_lengths = (padded_ids >= 0).sum(axis=1)
        self._kdist_cache: Dict[int, np.ndarray] = {}
        self._view_cache: Dict[int, NeighborhoodView] = {}
        obs.incr("graph.builds")

    # -- construction --------------------------------------------------------

    @classmethod
    def from_rows(
        cls,
        rows_ids: Sequence[np.ndarray],
        rows_dists: Sequence[np.ndarray],
        k_max: int,
    ) -> "NeighborhoodGraph":
        """Pack ragged per-object (ids, dists) rows into the padded layout."""
        width = max((len(r) for r in rows_ids), default=0)
        n = len(rows_ids)
        padded_ids = np.full((n, width), -1, dtype=np.int64)
        padded_dists = np.full((n, width), np.inf, dtype=np.float64)
        for i, (ids, dists) in enumerate(zip(rows_ids, rows_dists)):
            padded_ids[i, : len(ids)] = ids
            padded_dists[i, : len(dists)] = dists
        return cls(padded_ids, padded_dists, k_max=k_max)

    @classmethod
    def from_csr_blocks(
        cls,
        blocks: Sequence[Tuple[np.ndarray, np.ndarray, np.ndarray]],
        k_max: int,
    ) -> "NeighborhoodGraph":
        """Assemble a graph from row-contiguous CSR blocks.

        Each block is ``(flat_ids, flat_dists, counts)`` as produced by
        :func:`repro.index.batch.select_tie_inclusive` or
        :func:`repro.index.argkmin.argkmin_self`; blocks cover the
        object ids ``0..n-1`` in order. The global row width is known
        only once every block is in, so the padded output is allocated
        at its final size and each block scattered straight in.
        """
        n = sum(len(counts) for _, _, counts in blocks)
        width = max(int(counts.max()) for _, _, counts in blocks)
        padded_ids = np.full((n, width), -1, dtype=np.int64)
        padded_dists = np.full((n, width), np.inf, dtype=np.float64)
        row_start = 0
        for flat_ids, flat_dists, counts in blocks:
            scatter_padded(
                padded_ids, padded_dists, row_start, flat_ids, flat_dists, counts
            )
            row_start += len(counts)
        return cls(padded_ids, padded_dists, k_max=k_max)

    @classmethod
    def from_index(
        cls,
        X,
        k_max: int,
        index="brute",
        metric="euclidean",
        n_jobs=None,
    ) -> "NeighborhoodGraph":
        """Build via one tie-inclusive query per object (step 1's loop).

        ``index`` may be a registry name, an :class:`~repro.index.NNIndex`
        class, or a fitted/unfitted instance; ``n_jobs`` shards the loop
        across a fork-based process pool with bit-identical results.
        """
        X = check_data(X, min_rows=2)
        n = X.shape[0]
        k_max = check_min_pts(k_max, n, name="k_max")
        jobs = resolve_n_jobs(n_jobs)
        nn_index = _resolve_index(index, metric, X)

        def query_shard(ids):
            shard_ids: List[np.ndarray] = []
            shard_dists: List[np.ndarray] = []
            for i in ids:
                hood = nn_index.query_with_ties(X[int(i)], k_max, exclude=int(i))
                shard_ids.append(hood.ids.astype(np.int64))
                shard_dists.append(hood.distances.astype(np.float64))
            return shard_ids, shard_dists

        rows_ids: List[np.ndarray] = []
        rows_dists: List[np.ndarray] = []
        shards = np.array_split(np.arange(n), jobs) if jobs > 1 else [range(n)]
        for shard_ids, shard_dists in map_sharded(query_shard, shards, jobs):
            rows_ids.extend(shard_ids)
            rows_dists.extend(shard_dists)
        return cls.from_rows(rows_ids, rows_dists, k_max=k_max)

    # The retired batched builder's name stays resolvable for callers
    # that look builders up by name (perfbench/tracer.py wraps it); it
    # is the one builder above.
    from_index_batched = from_index

    # -- per-k access ---------------------------------------------------------

    def k_distances(self, k: int) -> np.ndarray:
        """Definition 3 for every object, straight off the columns."""
        k = self._check_k(k)
        if k not in self._kdist_cache:
            self._kdist_cache[k] = self.padded_dists[:, k - 1].copy()
        return self._kdist_cache[k]

    def view(self, k: int, kdist: Optional[np.ndarray] = None) -> NeighborhoodView:
        """The tie-inclusive k-distance neighborhoods of all objects.

        ``kdist`` overrides the per-object cutoff radius (used by the
        k-*distinct*-distance duplicate policy, whose radii exceed the
        plain k-distances); overridden views are not cached.
        """
        k = self._check_k(k)
        if kdist is None:
            if k not in self._view_cache:
                self._view_cache[k] = self._build_view(k, self.k_distances(k))
            return self._view_cache[k]
        return self._build_view(k, np.asarray(kdist, dtype=np.float64))

    def _build_view(self, k: int, kdist: np.ndarray) -> NeighborhoodView:
        mask = self.padded_dists <= kdist[:, None]
        counts = mask.sum(axis=1)
        offsets = np.zeros(self.n_points + 1, dtype=np.int64)
        np.cumsum(counts, out=offsets[1:])
        return NeighborhoodView(
            k=k,
            ids=self.padded_ids[mask],
            dists=self.padded_dists[mask],
            offsets=offsets,
            kdist=kdist,
            row_ids=np.arange(self.n_points, dtype=np.int64),
        )

    def neighborhood_of(self, i: int, k: int) -> Tuple[np.ndarray, np.ndarray]:
        """Ids and distances of N_k(i), sorted by (distance, id)."""
        view = self.view(k)
        return view.row(int(i))

    # -- dirty-subset protocol (shared with DynamicNeighborhoodGraph) ---------

    def kdist_values(self, ids: np.ndarray) -> np.ndarray:
        """k_max-distance lookup by object id (kernel-facing)."""
        return self.k_distances(self.k_max)[ids]

    def subview(self, rows) -> NeighborhoodView:
        """CSR view of just ``rows`` at ``k = k_max``.

        With :func:`repro.core.scoring.lrd_of` / ``lof_of`` this is the
        static half of the dirty-subset API; use :meth:`pin` for other
        ``k`` values.
        """
        return self.pin(self.k_max).subview(rows)

    def pin(self, k: int) -> "_PinnedGraph":
        """A (graph, k) adapter satisfying the dirty-subset protocol."""
        return _PinnedGraph(self, self._check_k(k))

    # -- misc -----------------------------------------------------------------

    def size_in_records(self) -> int:
        """Stored (id, distance) records — n·k_max plus tie overhang."""
        return int(self.row_lengths.sum())

    def _check_k(self, k: int) -> int:
        k = check_min_pts(k, self.n_points)
        if k > self.k_max:
            raise ValidationError(
                f"k={k} exceeds the materialized bound k_max={self.k_max}; "
                "rebuild the graph with a larger bound"
            )
        return k

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return (
            f"NeighborhoodGraph(n={self.n_points}, k_max={self.k_max}, "
            f"records={self.size_in_records()})"
        )


class _PinnedGraph:
    """A static graph frozen at one ``k`` for the dirty-subset kernels."""

    __slots__ = ("graph", "k")

    def __init__(self, graph: NeighborhoodGraph, k: int):
        self.graph = graph
        self.k = k

    def kdist_values(self, ids: np.ndarray) -> np.ndarray:
        return self.graph.k_distances(self.k)[ids]

    def subview(self, rows) -> NeighborhoodView:
        rows = np.asarray(rows, dtype=np.int64).reshape(-1)
        full = self.graph.view(self.k)
        starts = full.offsets[rows]
        stops = full.offsets[rows + 1]
        counts = stops - starts
        offsets = np.zeros(len(rows) + 1, dtype=np.int64)
        np.cumsum(counts, out=offsets[1:])
        if len(rows):
            take = _flat_slices(starts, counts)
            ids = full.ids[take]
            dists = full.dists[take]
        else:
            ids = np.empty(0, dtype=np.int64)
            dists = np.empty(0, dtype=np.float64)
        return NeighborhoodView(
            k=self.k,
            ids=ids,
            dists=dists,
            offsets=offsets,
            kdist=full.kdist[rows],
            row_ids=rows,
        )


def _flat_slices(starts: np.ndarray, counts: np.ndarray) -> np.ndarray:
    """Indices covering ``[starts[i], starts[i] + counts[i])`` for all i."""
    total = int(counts.sum())
    offsets = np.zeros(len(counts) + 1, dtype=np.int64)
    np.cumsum(counts, out=offsets[1:])
    pos = np.arange(total, dtype=np.int64) - np.repeat(offsets[:-1], counts)
    return np.repeat(starts, counts) + pos


class DynamicNeighborhoodGraph:
    """Mutable neighborhood rows over a sparse integer handle space.

    The incremental/streaming engines maintain one of these: each row is
    the tie-inclusive k-distance neighborhood of a live object (neighbor
    ids are handles), k-distances live in a dense array indexed by
    handle, and ``subview(handles)`` packs any dirty subset into a
    :class:`NeighborhoodView` for the vectorized scoring kernels —
    replacing per-object Python dict math with the batch kernels.
    """

    def __init__(self, k: int):
        self.k = int(k)
        self._ids: Dict[int, np.ndarray] = {}
        self._dists: Dict[int, np.ndarray] = {}
        self._kdist = np.full(0, np.nan, dtype=np.float64)

    # -- mutation -------------------------------------------------------------

    def set_row(self, handle: int, ids, dists, kdist: float) -> None:
        """Insert or replace one object's neighborhood row."""
        handle = int(handle)
        self._ids[handle] = np.asarray(ids, dtype=np.int64)
        self._dists[handle] = np.asarray(dists, dtype=np.float64)
        if handle >= len(self._kdist):
            grown = np.full(max(handle + 1, 2 * len(self._kdist) + 1), np.nan)
            grown[: len(self._kdist)] = self._kdist
            self._kdist = grown
        self._kdist[handle] = float(kdist)

    def drop_row(self, handle: int) -> None:
        """Delete one object's row (no-op if absent)."""
        handle = int(handle)
        self._ids.pop(handle, None)
        self._dists.pop(handle, None)
        if handle < len(self._kdist):
            self._kdist[handle] = np.nan

    def clear(self) -> None:
        self._ids.clear()
        self._dists.clear()
        self._kdist[:] = np.nan

    # -- access ---------------------------------------------------------------

    def __contains__(self, handle: int) -> bool:
        return int(handle) in self._ids

    def __len__(self) -> int:
        return len(self._ids)

    def rows(self):
        """Live handles, ascending."""
        return sorted(self._ids)

    def row(self, handle: int) -> Tuple[np.ndarray, np.ndarray]:
        return self._ids[int(handle)], self._dists[int(handle)]

    def kdist_of(self, handle: int) -> float:
        return float(self._kdist[int(handle)])

    def kdist_values(self, ids: np.ndarray) -> np.ndarray:
        """Dense k-distance lookup by handle (kernel-facing)."""
        return self._kdist[np.asarray(ids, dtype=np.int64)]

    def subview(self, rows) -> NeighborhoodView:
        """Pack the rows of ``handles`` into one CSR view, in order."""
        rows = np.asarray(list(rows), dtype=np.int64).reshape(-1)
        if len(rows) == 0:
            return NeighborhoodView(
                k=self.k,
                ids=np.empty(0, dtype=np.int64),
                dists=np.empty(0, dtype=np.float64),
                offsets=np.zeros(1, dtype=np.int64),
                kdist=np.empty(0, dtype=np.float64),
                row_ids=rows,
            )
        id_rows = [self._ids[int(h)] for h in rows]
        counts = np.array([len(r) for r in id_rows], dtype=np.int64)
        offsets = np.zeros(len(rows) + 1, dtype=np.int64)
        np.cumsum(counts, out=offsets[1:])
        return NeighborhoodView(
            k=self.k,
            ids=np.concatenate(id_rows),
            dists=np.concatenate([self._dists[int(h)] for h in rows]),
            offsets=offsets,
            kdist=self._kdist[rows],
            row_ids=rows,
        )


def _resolve_index(index, metric, X):
    """Shared fit-or-validate dance for index name/class/instance inputs."""
    nn_index = make_index(index, metric=metric)
    if not nn_index.is_fitted:
        nn_index.fit(X)
    elif nn_index.n_points != X.shape[0]:
        raise ValidationError("a pre-fitted index must be fitted on the same dataset")
    return nn_index
