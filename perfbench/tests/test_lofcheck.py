"""The benchmark's LOF oracle against the package's naive reference."""

import numpy as np
import pytest

from lofcheck import sample_lof
from repro.core.reference import naive_lof


def tied_grid():
    # Integer coordinates on a 4x4 grid: many equal distances, so
    # Definition 4 neighborhoods routinely hold more than k objects.
    rng = np.random.default_rng(0)
    return rng.integers(0, 4, size=(40, 2)).astype(float)


def with_duplicates():
    # Six copies of one far point: their lrd is inf (k <= 5), which
    # exercises the inf/inf := 1 and finite/inf conventions.
    return np.vstack([tied_grid(), np.repeat([[9.0, 9.0]], 6, axis=0)])


@pytest.mark.parametrize("make", [tied_grid, with_duplicates])
@pytest.mark.parametrize("k", [2, 3, 5, 8])
def test_oracle_matches_naive_lof(make, k):
    X = make()
    expected = naive_lof(X, k)
    got = sample_lof(X, range(len(X)), [k])[0]
    assert np.allclose(got, expected, rtol=1e-12, atol=0.0)


def test_duplicates_produce_infinite_scores():
    X = with_duplicates()
    assert np.isinf(sample_lof(X, range(len(X)), [3])[0]).any()


def test_sampled_rows_match_all_rows_per_k():
    X = np.random.default_rng(1).normal(size=(200, 3))
    ks = [4, 7, 10]
    full = sample_lof(X, range(len(X)), ks)
    sample = [5, 17, 150]
    assert np.array_equal(sample_lof(X, sample, ks), full[:, sample])

