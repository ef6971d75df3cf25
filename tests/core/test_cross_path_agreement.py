"""Cross-path agreement: every scoring surface, one answer.

The tentpole guarantee of the columnar refactor: because every surface
routes density and ratio arithmetic through the ONE kernel module
(:mod:`repro.core.scoring`) over the ONE neighborhood representation
(:mod:`repro.core.graph`), the one step-1 builder (serial, sharded, or
over a tree index), a store served online, top-n mining, an incremental
insert replay and a sliding streaming window must all report
*bit-identical* LOF values — including on tie-saturated, duplicate-heavy data under every
duplicate policy. The naive reference oracle (kept independent on
purpose) is compared with a tight tolerance instead, since its Python
summation order legitimately differs at the last ulp.

Datasets use integer coordinates so that the plain and the expanded-form
(BLAS) distance computations are exact and the bit-identity claim is
well-posed across backends.
"""

import numpy as np
import pytest

from repro.core import (
    IncrementalLOF,
    MaterializationDB,
    NeighborhoodGraph,
    StreamingLOFDetector,
    naive_lof,
    top_n_lof,
)
from repro.exceptions import DuplicatePointsError
from repro.index import argkmin_self


def duplicate_heavy():
    """5x4 integer grid + two 4-fold duplicated sites: ties everywhere,
    several objects with >= MinPts duplicates (lrd = inf in 'inf' mode)."""
    grid = np.array(
        [[x, y] for x in range(5) for y in range(4)], dtype=np.float64
    )
    dups = np.repeat([[1.0, 1.0], [3.0, 2.0]], 4, axis=0)
    return np.vstack([grid, dups])


def tied_only():
    """Integer grid: heavy distance ties, no exact duplicates."""
    return np.array(
        [[x, y] for x in range(6) for y in range(5)], dtype=np.float64
    )


MIN_PTS = 3


def batch_paths(X, duplicate_mode):
    """The one static builder, three ways, labelled: serial, sharded
    across a two-worker fork pool, and querying a kd-tree instead of
    the sequential scan."""
    return {
        "loop": MaterializationDB.materialize(
            X, MIN_PTS, duplicate_mode=duplicate_mode
        ),
        "sharded": MaterializationDB.materialize(
            X, MIN_PTS, duplicate_mode=duplicate_mode, n_jobs=2
        ),
        "kdtree": MaterializationDB.materialize(
            X, MIN_PTS, index="kdtree", duplicate_mode=duplicate_mode
        ),
    }


class TestStaticPathsBitIdentical:
    @pytest.mark.parametrize("dataset", [duplicate_heavy, tied_only])
    @pytest.mark.parametrize("duplicate_mode", ["inf", "distinct"])
    def test_builders_agree_bitwise(self, dataset, duplicate_mode):
        X = dataset()
        mats = batch_paths(X, duplicate_mode)
        ref = mats["loop"].lof(MIN_PTS)
        for name, mat in mats.items():
            np.testing.assert_array_equal(
                mat.lof(MIN_PTS), ref, err_msg=f"path {name!r} diverged"
            )
            np.testing.assert_array_equal(
                mat.lrd(MIN_PTS), mats["loop"].lrd(MIN_PTS),
                err_msg=f"path {name!r} lrd diverged",
            )

    def test_against_naive_oracle(self):
        X = duplicate_heavy()
        expected = naive_lof(X, MIN_PTS)
        got = MaterializationDB.materialize(X, MIN_PTS).lof(MIN_PTS)
        np.testing.assert_allclose(got, expected, rtol=1e-12)

    def test_error_mode_raises_on_every_builder(self):
        X = duplicate_heavy()
        for name, mat in batch_paths(X, "error").items():
            with pytest.raises(DuplicatePointsError):
                mat.lof(MIN_PTS)

    def test_error_mode_clean_data_matches_inf(self):
        X = tied_only()
        ref = MaterializationDB.materialize(X, MIN_PTS).lof(MIN_PTS)
        for name, mat in batch_paths(X, "error").items():
            np.testing.assert_array_equal(mat.lof(MIN_PTS), ref)


class TestTopN:
    @pytest.mark.parametrize("dataset", [duplicate_heavy, tied_only])
    def test_topn_scores_bit_identical_to_full_lof(self, dataset):
        X = dataset()
        full = MaterializationDB.materialize(X, MIN_PTS).lof(MIN_PTS)
        result = top_n_lof(X, n_outliers=5, min_pts=MIN_PTS)
        np.testing.assert_array_equal(result.scores, full[result.ids])
        # And the ranking is the true top-5 (ties broken by ascending id).
        order = np.lexsort((np.arange(len(full)), -full))[:5]
        np.testing.assert_array_equal(result.ids, order)


class TestServeAgainstChunkBuiltStore:
    @pytest.mark.parametrize("dataset", [duplicate_heavy, tied_only])
    def test_score_new_matches_loop_lof(self, dataset, tmp_path):
        """The online scorer over a store whose graph came from the
        chunked argkmin engine reproduces the loop-built fitted LOF
        bit-for-bit (score each stored row with itself excluded)."""
        from repro.serve import OnlineScorer

        X = dataset()
        flat = argkmin_self(
            X, MIN_PTS, x_chunk=7, strategy="chunked", tile_bytes=400
        )
        chunked = MaterializationDB.from_graph(
            NeighborhoodGraph.from_csr_blocks([flat], MIN_PTS)
        )
        path = tmp_path / "chunk_built.rlof"
        chunked.save(path, X=X)
        scorer = OnlineScorer.from_path(path)
        served = scorer.score_new(
            X, min_pts=MIN_PTS, exclude=np.arange(len(X))
        )
        loop = MaterializationDB.materialize(X, MIN_PTS).lof(MIN_PTS)
        np.testing.assert_array_equal(served, loop)


class TestDynamicPathsBitIdentical:
    @pytest.mark.parametrize("dataset", [duplicate_heavy, tied_only])
    def test_incremental_replay_matches_batch(self, dataset):
        X = dataset()
        inc = IncrementalLOF(min_pts=MIN_PTS)
        for row in X:
            inc.insert(row)
        batch = MaterializationDB.materialize(X, MIN_PTS).lof(MIN_PTS)
        replay = np.array([inc.scores[h] for h in inc.handles])
        np.testing.assert_array_equal(replay, batch)

    def test_incremental_after_deletions_matches_batch(self):
        X = duplicate_heavy()
        inc = IncrementalLOF.from_dataset(X, MIN_PTS)
        for h in (2, 21, 25):  # one grid point, two duplicates
            inc.delete(h)
        keep = [h for h in range(len(X)) if h not in (2, 21, 25)]
        batch = MaterializationDB.materialize(X[keep], MIN_PTS).lof(MIN_PTS)
        replay = np.array([inc.scores[h] for h in inc.handles])
        np.testing.assert_array_equal(replay, batch)

    def test_streaming_window_matches_batch(self):
        X = np.vstack([tied_only(), duplicate_heavy()])
        window = 25
        det = StreamingLOFDetector(min_pts=MIN_PTS, window=window, threshold=2.0)
        det.observe_many(X)
        in_window = X[len(X) - window :]
        batch = MaterializationDB.materialize(in_window, MIN_PTS).lof(MIN_PTS)
        np.testing.assert_array_equal(det.current_scores(), batch)
