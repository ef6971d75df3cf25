"""Duplicate-point utilities (the remark after Definition 6).

The local reachability density of p becomes infinite when at least
MinPts objects share p's spatial coordinates: every reachability
distance in its neighborhood is 0. The paper proposes basing the
neighborhood on a *k-distinct-distance* instead. These helpers let users
inspect a dataset for that hazard and compute the k-distinct-distance
directly; the policy itself is applied through the ``duplicate_mode``
argument of the LOF entry points.
"""

from __future__ import annotations

from typing import Tuple

import numpy as np

from .._validation import check_data, check_min_pts
from ..exceptions import ValidationError
from ..index import get_metric


def duplicate_groups(X) -> Tuple[np.ndarray, np.ndarray]:
    """Group identical rows of ``X``.

    Returns ``(keys, counts)``: ``keys[i]`` is the group id of row i and
    ``counts[g]`` the multiplicity of group g. Rows compare exactly
    (bitwise float equality), matching "same spatial coordinates" in the
    paper.
    """
    X = check_data(X, min_rows=1)
    _, keys, counts = np.unique(X, axis=0, return_inverse=True, return_counts=True)
    return keys.astype(np.int64), counts


def has_min_pts_duplicates(X, min_pts: int) -> bool:
    """True if some object has >= MinPts duplicates — i.e. plain
    Definition 6 would produce an infinite lrd somewhere."""
    X = check_data(X, min_rows=2)
    min_pts = check_min_pts(min_pts, X.shape[0])
    _, counts = duplicate_groups(X)
    # An object needs MinPts duplicates *besides itself*.
    return bool(np.any(counts >= min_pts + 1))


def k_distinct_distance(X, i: int, k: int, metric="euclidean") -> float:
    """The k-distinct-distance of object ``i``: the smallest radius
    containing at least ``k`` neighbors whose spatial coordinates are
    mutually different (and, being at positive distance, different from
    object i's own).

    Defined analogously to Definition 3 with the additional distinctness
    requirement; always strictly positive.
    """
    X = check_data(X, min_rows=2)
    i = int(i)
    if not 0 <= i < X.shape[0]:
        raise IndexError(f"point index {i} out of range for n={X.shape[0]}")
    keys, _ = duplicate_groups(X)
    distinct_available = len(np.unique(keys)) - 1  # all locations but i's own
    if k > distinct_available:
        raise ValidationError(
            f"k={k} exceeds the {distinct_available} distinct locations "
            f"other than object {i}'s own"
        )
    dists = get_metric(metric).pairwise_to_point(X, X[i])
    return distinct_ball(dists, keys, k)[2]


def distinct_ball(
    dists: np.ndarray, coord_keys: np.ndarray, k: int
) -> Tuple[np.ndarray, np.ndarray, float]:
    """The closed k-distinct-distance ball over one full distance row.

    ``dists[j]`` is the query's distance to object j (``inf`` for an
    excluded object) and ``coord_keys[j]`` its exact-coordinate group.
    The radius is the distance at which the k-th distinct location is
    reached — co-located duplicates of the query (distance 0) do not
    count; the ball is every object within it. Returns ``(ids, dists,
    radius)`` with the ball sorted by (distance, id). The one walk
    behind every k-distinct-distance: stored rows, their radii, and the
    online scorer's query rows.
    """
    order = np.lexsort((np.arange(len(dists)), dists))
    seen: set = set()
    for j in order:
        d = dists[j]
        if d <= 0.0:
            continue
        if not np.isfinite(d):
            break
        key = int(coord_keys[j])
        if key not in seen:
            seen.add(key)
            if len(seen) == k:
                members = np.flatnonzero(dists <= d)
                sub = np.lexsort((members, dists[members]))
                return members[sub].astype(np.int64), dists[members][sub], float(d)
    raise ValidationError(
        f"fewer than k={k} distinct coordinate locations are reachable"
    )
