"""The property/differential test wall around the chunked argkmin engine.

Every claim the engine makes is proved here against two independent
referees:

* the **whole-matrix path** (``strategy="whole"``), which is literally
  the pre-existing ``pairwise`` + ``select_tie_inclusive`` code — the
  chunked merge must be *bit-identical* to it for every tile geometry;
* an **in-test naive oracle** that computes plain-form distances and
  does the Definition 3/4 tie-inclusive selection with a per-row Python
  sort — independent of every array kernel under test.

All property data uses integer coordinates: on integers both the plain
form and the expanded BLAS form ``||x||^2 + ||y||^2 - 2<x, y>`` are
exact (every intermediate is a small integer), so "bit-identical" is a
well-posed claim across tile shapes, dtypes and thread counts. Integer
grids in a narrow range are also naturally tie-saturated and
duplicate-heavy — the hard cases for tie-aware merging.
"""

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from repro import obs
from repro.core import MaterializationDB, NeighborhoodGraph, duplicate_groups
from repro.core.materialization import ensure_distinct_coverage
from repro.exceptions import DuplicatePointsError, ValidationError
from repro.index import argkmin_self, argkmin_with_ties

SETTINGS = dict(
    max_examples=40,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)


def integer_datasets(min_n=4, max_n=24, max_d=3, span=4):
    """(n, d) float64 arrays with small integer coordinates — exact
    arithmetic on every distance path, dense with ties and duplicates."""
    return st.integers(1, max_d).flatmap(
        lambda d: st.integers(min_n, max_n).flatmap(
            lambda n: arrays(
                dtype=np.int64, shape=(n, d),
                elements=st.integers(-span, span),
            ).map(lambda A: A.astype(np.float64))
        )
    )


def dataset_and_k():
    return integer_datasets().flatmap(
        lambda X: st.integers(1, min(5, len(X) - 1)).map(lambda k: (X, k))
    )


def assert_csr_equal(a, b, msg=""):
    ids_a, dists_a, counts_a = a
    ids_b, dists_b, counts_b = b
    np.testing.assert_array_equal(counts_a, counts_b, err_msg=f"counts {msg}")
    np.testing.assert_array_equal(ids_a, ids_b, err_msg=f"ids {msg}")
    np.testing.assert_array_equal(dists_a, dists_b, err_msg=f"dists {msg}")


def chunked_db(X, k, duplicate_mode="inf", **argkmin_kw):
    """M from one ``argkmin_self`` call; 'distinct' rows are extended by
    the same coverage post-pass the one builder runs."""
    graph = NeighborhoodGraph.from_csr_blocks([argkmin_self(X, k, **argkmin_kw)], k)
    coord_keys = None
    if duplicate_mode == "distinct":
        coord_keys = duplicate_groups(X)[0]
        graph = ensure_distinct_coverage(graph, X, "euclidean", coord_keys, k)
    return MaterializationDB.from_graph(
        graph, duplicate_mode=duplicate_mode, coord_keys=coord_keys
    )


def naive_tie_inclusive(X, k, exclude=None):
    """Independent oracle: plain-form distances, per-row Python sort,
    Definition 3/4 tie-inclusive cut. Exact on integer coordinates."""
    n = len(X)
    all_ids, all_dists, counts = [], [], []
    for i in range(n):
        cand = []
        for j in range(n):
            if exclude is not None and j == exclude[i]:
                continue
            diff = X[i] - X[j]
            cand.append((float(np.sqrt(np.dot(diff, diff))), j))
        cand.sort()
        kth = cand[k - 1][0]
        row = [(d, j) for d, j in cand if d <= kth]
        counts.append(len(row))
        all_dists.extend(d for d, _ in row)
        all_ids.extend(j for _, j in row)
    return (
        np.asarray(all_ids, dtype=np.int64),
        np.asarray(all_dists, dtype=np.float64),
        np.asarray(counts, dtype=np.int64),
    )


class TestBitIdenticalToWholeMatrix:
    @settings(**SETTINGS)
    @given(dataset_and_k())
    def test_every_chunk_geometry(self, Xk):
        """Chunk sizes {1, k, n-1, n, oversize} on both axes — the
        chunked merge never diverges from the whole-matrix selection."""
        X, k = Xk
        n = len(X)
        whole = argkmin_self(X, k, strategy="whole")
        for chunk in {1, k, n - 1, n, n + 7}:
            if chunk < 1:
                continue
            for axis_kw in (
                {"x_chunk": chunk},
                {"y_chunk": chunk},
                {"x_chunk": chunk, "y_chunk": chunk},
            ):
                got = argkmin_self(X, k, strategy="chunked", **axis_kw)
                assert_csr_equal(whole, got, msg=f"at {axis_kw}")

    @settings(**SETTINGS)
    @given(dataset_and_k())
    def test_matches_naive_oracle(self, Xk):
        X, k = Xk
        oracle = naive_tie_inclusive(X, k, exclude=np.arange(len(X)))
        for strategy, kw in (
            ("whole", {}),
            ("chunked", {"x_chunk": 3, "y_chunk": 5}),
        ):
            got = argkmin_self(X, k, strategy=strategy, **kw)
            assert_csr_equal(oracle, got, msg=f"strategy {strategy}")

    @settings(**SETTINGS)
    @given(dataset_and_k())
    def test_float32_input_identical_to_float64(self, Xk):
        """float32 inputs are upcast once and accumulated in float64, so
        on integer-valued data the results match float64 exactly."""
        X, k = Xk
        ref = argkmin_self(X, k, strategy="chunked", x_chunk=3, y_chunk=4)
        got = argkmin_self(
            X.astype(np.float32), k, strategy="chunked", x_chunk=3, y_chunk=4
        )
        assert_csr_equal(ref, got, msg="float32 vs float64")

    @settings(**SETTINGS)
    @given(dataset_and_k(), st.sampled_from([2, 4, -1]))
    def test_thread_count_never_changes_results(self, Xk, n_threads):
        X, k = Xk
        serial = argkmin_self(X, k, strategy="chunked", x_chunk=2, y_chunk=3)
        threaded = argkmin_self(
            X, k, strategy="chunked", x_chunk=2, y_chunk=3, n_threads=n_threads
        )
        assert_csr_equal(serial, threaded, msg=f"n_threads={n_threads}")

    @settings(**SETTINGS)
    @given(
        integer_datasets(min_n=6).flatmap(
            lambda X: st.tuples(
                st.just(X),
                st.integers(1, 4),
                st.lists(
                    st.integers(-1, len(X) - 1),
                    min_size=len(X), max_size=len(X),
                ),
            )
        )
    )
    def test_arbitrary_exclusion_vectors(self, Xke):
        """Per-row exclusions (including -1 = none, and ids landing in
        different y-tiles) behave identically on both strategies and
        match the oracle."""
        X, k, exclude = Xke
        exclude = np.asarray(exclude, dtype=np.int64)
        oracle = naive_tie_inclusive(X, k, exclude=exclude)
        whole = argkmin_with_ties(X, X, k, exclude=exclude, strategy="whole")
        chunked = argkmin_with_ties(
            X, X, k, exclude=exclude, strategy="chunked", x_chunk=3, y_chunk=2
        )
        assert_csr_equal(oracle, whole, msg="whole vs oracle")
        assert_csr_equal(whole, chunked, msg="chunked vs whole")

    def test_distinct_query_and_corpus(self):
        rng = np.random.default_rng(3)
        Q = rng.integers(-4, 5, size=(13, 2)).astype(np.float64)
        Y = rng.integers(-4, 5, size=(29, 2)).astype(np.float64)
        whole = argkmin_with_ties(Q, Y, 4, strategy="whole")
        for xc, yc in ((1, 1), (5, 7), (13, 29), (20, 40)):
            got = argkmin_with_ties(
                Q, Y, 4, strategy="chunked", x_chunk=xc, y_chunk=yc
            )
            assert_csr_equal(whole, got, msg=f"tiles {xc}x{yc}")


class TestDuplicateModes:
    def duplicate_heavy(self):
        grid = np.array(
            [[x, y] for x in range(4) for y in range(4)], dtype=np.float64
        )
        dups = np.repeat([[1.0, 2.0], [3.0, 0.0]], 4, axis=0)
        return np.vstack([grid, dups])

    @pytest.mark.parametrize("duplicate_mode", ["inf", "distinct"])
    def test_chunked_matches_loop(self, duplicate_mode):
        X = self.duplicate_heavy()
        loop = MaterializationDB.materialize(
            X, 3, duplicate_mode=duplicate_mode
        )
        chunked = chunked_db(
            X, 3, duplicate_mode=duplicate_mode,
            x_chunk=5, strategy="chunked", tile_bytes=240,
        )
        np.testing.assert_array_equal(loop.padded_ids, chunked.padded_ids)
        np.testing.assert_array_equal(loop.padded_dists, chunked.padded_dists)
        np.testing.assert_array_equal(loop.lof(3), chunked.lof(3))

    def test_error_mode_raises(self):
        X = self.duplicate_heavy()
        chunked = chunked_db(
            X, 3, duplicate_mode="error",
            x_chunk=5, strategy="chunked", tile_bytes=240,
        )
        with pytest.raises(DuplicatePointsError):
            chunked.lof(3)

    def test_inf_mode_duplicate_rows_have_inf_lrd(self):
        X = self.duplicate_heavy()
        chunked = chunked_db(X, 3, x_chunk=5, strategy="chunked", tile_bytes=240)
        lrd = chunked.lrd(3)
        assert np.isinf(lrd[16:]).all()


class TestFloat32ZeroSnapRegression:
    """The exact-duplicate zero-snap lives in the shared tile kernel
    (:func:`repro.index.metrics.euclidean_tile`), so float32-origin
    tiles keep true zero distances between duplicated rows — without it,
    expanded-form cancellation leaves ~1 ulp of ||x||^2 and silently
    breaks lrd = inf duplicate semantics."""

    def large_magnitude_duplicates(self):
        """Coordinates large enough that ||x||^2 cancellation noise
        would dwarf the true zero distance if unsnapped."""
        rng = np.random.default_rng(9)
        base = rng.normal(loc=1e4, scale=50.0, size=(6, 3))
        X = np.vstack([np.repeat(base[:2], 4, axis=0), base[2:]])
        return X.astype(np.float32)

    def test_tiles_report_exact_zero_for_duplicates(self):
        from repro.index.metrics import get_metric

        X32 = self.large_magnitude_duplicates()
        tile = get_metric("euclidean").tile_kernel(X32, X32)
        for y0 in range(0, len(X32), 3):
            D = tile(0, 4, y0, min(y0 + 3, len(X32)))
            for j in range(D.shape[1]):
                gj = y0 + j
                expect_zero = gj < 4  # rows 0..3 duplicate row 0
                assert (D[0, j] == 0.0) == expect_zero, (0, gj)

    def test_chunked_float32_materialize_keeps_inf_lrd(self):
        X32 = self.large_magnitude_duplicates()
        db = chunked_db(X32, 3, x_chunk=4, strategy="chunked", tile_bytes=200)
        lrd = db.lrd(3)
        # Rows 0..7 are two 4-fold duplicate sites: MinPts=3-fold
        # duplicates => lrd = inf (remark after Definition 6).
        assert np.isinf(lrd[:8]).all()
        assert np.isfinite(lrd[8:]).all()


class TestValidationAndCounters:
    def test_rejects_bad_inputs(self):
        X = np.zeros((5, 2))
        with pytest.raises(ValidationError):
            argkmin_self(X, 0)
        with pytest.raises(ValidationError):
            argkmin_self(X, 5)  # k > n-1 with self-exclusion
        with pytest.raises(ValidationError):
            argkmin_self(X, 2, strategy="magic")
        with pytest.raises(ValidationError):
            argkmin_self(X, 2, x_chunk=0)
        with pytest.raises(ValidationError):
            argkmin_self(X, 2, tile_bytes=4)
        with pytest.raises(ValidationError):
            argkmin_with_ties(X, np.zeros((4, 3)), 2)  # width mismatch
        with pytest.raises(ValidationError):
            argkmin_with_ties(X, X, 2, exclude=np.zeros(3, dtype=np.int64))
        with pytest.raises(ValidationError):
            argkmin_with_ties(np.full((4, 2), np.nan), X, 2)

    def test_tile_and_strategy_counters(self):
        rng = np.random.default_rng(2)
        X = rng.integers(-4, 5, size=(30, 2)).astype(np.float64)
        with obs.collect() as snap:
            argkmin_self(X, 3, strategy="chunked", x_chunk=7, y_chunk=11)
        counters = snap["counters"]
        # ceil(30/7) * ceil(30/11) = 5 * 3 tiles, each one kernel call.
        assert counters["argkmin.tiles"] == 15
        assert counters["distance.kernel_calls"] == 15
        assert counters["argkmin.strategy_chunked"] == 1
        assert "argkmin.strategy_whole" not in counters
        # Largest tile: 7 rows x 11 cols x 8 bytes.
        assert counters["argkmin.tile_bytes"] == 7 * 11 * 8
        assert counters["distance.evaluations"] == 30 * 30

    def test_auto_heuristic_picks_whole_below_budget(self):
        X = np.arange(40, dtype=np.float64).reshape(20, 2)
        with obs.collect() as snap:
            argkmin_self(X, 2, strategy="auto")
        assert snap["counters"]["argkmin.strategy_whole"] == 1
        assert snap["counters"]["argkmin.tiles"] == 1

    def test_auto_heuristic_tiles_above_budget(self):
        X = np.arange(40, dtype=np.float64).reshape(20, 2)
        with obs.collect() as snap:
            argkmin_self(X, 2, strategy="auto", tile_bytes=160)
        assert snap["counters"]["argkmin.strategy_chunked"] == 1
        assert snap["counters"]["argkmin.tiles"] > 1
        assert snap["counters"]["argkmin.tile_bytes"] <= 160
