"""The Section 7.4 two-step algorithm (MaterializationDB)."""

import numpy as np
import pytest

from repro import MaterializationDB, lof_scores, materialize
from repro.exceptions import ValidationError
from repro.index import available_indexes, make_index


class TestConstruction:
    def test_size_in_records(self, random_points):
        mat = materialize(random_points, min_pts_ub=10)
        # Gaussian data has no ties: exactly n * MinPtsUB records.
        assert mat.size_in_records() == len(random_points) * 10

    def test_tie_rows_can_exceed_ub(self, tie_ring):
        mat = materialize(tie_ring, min_pts_ub=4)
        ids, dists = mat.neighborhood_of(0, 4)
        assert len(ids) == 6  # Definition 4's example

    def test_prefitted_index_accepted(self, random_points):
        idx = make_index("kdtree").fit(random_points)
        mat = materialize(random_points, min_pts_ub=5, index=idx)
        np.testing.assert_allclose(mat.lof(5), lof_scores(random_points, 5))

    def test_prefitted_index_size_mismatch_rejected(self, random_points):
        idx = make_index("brute").fit(random_points[:50])
        with pytest.raises(ValidationError):
            materialize(random_points, min_pts_ub=5, index=idx)

    def test_bad_duplicate_mode(self, random_points):
        with pytest.raises(ValidationError):
            materialize(random_points, min_pts_ub=5, duplicate_mode="bogus")


class TestKQueries:
    def test_k_distances_match_direct(self, random_points):
        from repro import k_distance

        mat = materialize(random_points, min_pts_ub=12)
        for k in (1, 5, 12):
            np.testing.assert_allclose(
                mat.k_distances(k), k_distance(random_points, k=k), rtol=1e-12
            )

    def test_k_beyond_ub_rejected(self, random_points):
        mat = materialize(random_points, min_pts_ub=5)
        with pytest.raises(ValidationError):
            mat.lof(6)

    def test_neighborhoods_are_prefixes(self, random_points):
        mat = materialize(random_points, min_pts_ub=10)
        for i in (0, 50, 119):
            ids5, d5 = mat.neighborhood_of(i, 5)
            ids10, d10 = mat.neighborhood_of(i, 10)
            np.testing.assert_array_equal(ids10[: len(ids5)], ids5)

    def test_csr_offsets_consistent(self, random_points):
        mat = materialize(random_points, min_pts_ub=8)
        flat_ids, flat_dists, offsets = mat.neighborhoods(8)
        assert offsets[0] == 0
        assert offsets[-1] == len(flat_ids) == len(flat_dists)
        assert np.all(np.diff(offsets) >= 8)


class TestTwoStepEquivalence:
    def test_lof_range_reuses_materialization(self, random_points):
        # A single UB materialization must answer every smaller MinPts
        # identically to a from-scratch computation.
        mat = materialize(random_points, min_pts_ub=15)
        for k in (2, 7, 15):
            np.testing.assert_allclose(
                mat.lof(k), lof_scores(random_points, k), rtol=1e-9
            )

    @pytest.mark.parametrize("index_name", sorted(available_indexes()))
    def test_every_index_gives_identical_lof(self, random_points, index_name):
        base = lof_scores(random_points, 7, index="brute")
        other = lof_scores(random_points, 7, index=index_name)
        np.testing.assert_allclose(other, base, rtol=1e-9)

    def test_lrd_cache_is_consistent(self, random_points):
        mat = materialize(random_points, min_pts_ub=9)
        first = mat.lrd(4)
        second = mat.lrd(4)
        assert first is second  # cached
        np.testing.assert_allclose(first, mat.lrd(4))


class TestDistinctMode:
    def test_distinct_neighborhood_includes_duplicates_in_radius(self):
        X = np.vstack([np.zeros((3, 2)), [[1.0, 0.0], [2.0, 0.0], [3.0, 0.0]]])
        mat = materialize(X, min_pts_ub=2, duplicate_mode="distinct")
        ids, dists = mat.neighborhood_of(0, 2)
        # 2-distinct-distance of the origin group is 2.0 (locations at 1, 2);
        # the two co-located duplicates (distance 0) are inside that ball.
        assert dists[-1] == pytest.approx(2.0)
        assert (dists == 0.0).sum() == 2

    def test_distinct_k_distances_positive(self):
        X = np.vstack([np.zeros((5, 2)), np.random.default_rng(3).normal(4, 1, (20, 2))])
        mat = materialize(X, min_pts_ub=6, duplicate_mode="distinct")
        assert np.all(mat.k_distances(6) > 0)

    def test_all_identical_rejected(self):
        with pytest.raises(ValidationError):
            materialize(np.zeros((10, 2)), min_pts_ub=3, duplicate_mode="distinct")


def float_duplicate_clusters():
    """Non-integer scatter plus four planted piles of exact duplicates
    (6, 12, 22 and 30 copies): at MinPts 5, 10 and 20 the pile members'
    plain k-NN rows hold nothing but zero-distance copies, so the
    'distinct' rows must reach past them."""
    rng = np.random.default_rng(42)
    scatter = rng.normal(size=(120, 3)) * 1.7 + 0.3
    sites = rng.uniform(-3.0, 3.0, size=(4, 3))
    piles = np.repeat(sites, [6, 12, 22, 30], axis=0)
    return np.vstack([scatter, piles])[rng.permutation(190)]


def k_distinct_distance_of(brute, X, i, k):
    """The k-distinct-distance of object i, walked by hand: the distance
    at which the k-th location with coordinates other than X[i]'s is
    reached, over the full (distance, id)-sorted scan."""
    everything = brute.query_with_ties(X[i], len(X) - 1, exclude=i)
    seen = set()
    for j, dist in zip(everything.ids, everything.distances):
        if dist > 0.0:
            seen.add(tuple(X[j]))
            if len(seen) == k:
                return dist
    raise AssertionError(f"object {i} has fewer than {k} distinct locations")


class TestDistinctModeFloatData:
    @pytest.mark.parametrize("n_jobs", [1, 2])
    @pytest.mark.parametrize("k", [5, 10, 20])
    def test_rows_are_closed_k_distinct_balls(self, k, n_jobs):
        X = float_duplicate_clusters()
        mat = materialize(X, k, duplicate_mode="distinct", n_jobs=n_jobs)
        brute = make_index("brute").fit(X)
        longer_than_plain = 0
        for i in range(len(X)):
            radius = k_distinct_distance_of(brute, X, i, k)
            ball = brute.query_radius(X[i], radius, exclude=i)
            length = mat.graph.row_lengths[i]
            np.testing.assert_array_equal(mat.padded_ids[i, :length], ball.ids)
            np.testing.assert_array_equal(
                mat.padded_dists[i, :length], ball.distances
            )
            assert mat.k_distances(k)[i] == radius
            longer_than_plain += length > len(
                brute.query_with_ties(X[i], k, exclude=i).ids
            )
        # The piles really forced rows past their plain k-NN rows.
        assert longer_than_plain >= 30


class TestLofRangeMethod:
    def test_range_dict(self, random_points):
        mat = materialize(random_points, min_pts_ub=8)
        out = mat.lof_range(3, 8)
        assert sorted(out) == list(range(3, 8 + 1))
        for k, v in out.items():
            np.testing.assert_allclose(v, mat.lof(k))

    def test_reversed_range_rejected(self, random_points):
        mat = materialize(random_points, min_pts_ub=8)
        with pytest.raises(ValidationError):
            mat.lof_range(8, 3)
