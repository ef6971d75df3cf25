"""The paper's primary contribution: LOF and its supporting notions.

The package layers as index → graph → kernel → surfaces (see
``docs/architecture.md`` for the full diagram):

* :mod:`~repro.core.graph` — THE columnar neighborhood representation
  (static :class:`~repro.core.graph.NeighborhoodGraph`, dynamic
  :class:`~repro.core.graph.DynamicNeighborhoodGraph`, per-k views)
* :mod:`~repro.core.scoring` — THE vectorized reach-dist/lrd/LOF kernel
  (the only ratio math outside the naive reference oracle)

Module map (paper anchor in parentheses):

* :mod:`~repro.core.neighbors` — k-distance & k-distance neighborhood (Defs 3-4)
* :mod:`~repro.core.reachability` — reachability distance (Def 5)
* :mod:`~repro.core.lrd` — local reachability density (Def 6)
* :mod:`~repro.core.lof` — the local outlier factor (Def 7)
* :mod:`~repro.core.bounds` — Lemma 1, Theorems 1-2 (Section 5)
* :mod:`~repro.core.range_lof` — MinPts-range heuristic (Section 6.2)
* :mod:`~repro.core.materialization` — the two-step algorithm (Section 7.4)
* :mod:`~repro.core.parallel` — ``n_jobs`` process-pool sharding for step 1
* :mod:`~repro.core.estimator` — the fit/score object API
* :mod:`~repro.core.ranking` — ranked outlier reports
* :mod:`~repro.core.duplicates` — k-distinct-distance utilities
* :mod:`~repro.core.incremental` — dynamic insert/delete maintenance
* :mod:`~repro.core.topn` — bound-pruned top-n LOF mining (Section 8)
* :mod:`~repro.core.streaming` — sliding-window stream detection
* :mod:`~repro.core.handshake` — shared LOF/OPTICS computation (Section 8)
* :mod:`~repro.core.reference` — the naive oracle (independent by design)
"""

from .bounds import (
    NeighborhoodBounds,
    PartitionBounds,
    deep_members,
    direct_bounds,
    indirect_bounds,
    lemma1_epsilon,
    theorem1_bounds,
    theorem2_bounds,
)
from .duplicates import duplicate_groups, has_min_pts_duplicates, k_distinct_distance
from .estimator import LocalOutlierFactor
from .graph import DynamicNeighborhoodGraph, NeighborhoodGraph, NeighborhoodView
from .handshake import HandshakeResult, lof_optics_handshake
from .incremental import IncrementalLOF, UpdateReport
from .streaming import SlidingWindowLOF, StreamEvent, StreamingLOFDetector
from .topn import TopNResult, top_n_lof
from .lof import lof_scores
from .lrd import local_reachability_density
from .materialization import MaterializationDB, materialize
from .parallel import fork_available, map_sharded, resolve_n_jobs
from .neighbors import k_distance, k_distance_neighborhood
from .range_lof import RangeLOFResult, lof_range, score_range, suggest_min_pts_range
from .reference import naive_lof, naive_lrd
from .ranking import OutlierRanking, RankedOutlier, rank_outliers
from .reachability import reach_dist, reachability_matrix
from .scoring import lof_values, lrd_values, reach_dist_values

__all__ = [
    "NeighborhoodBounds",
    "PartitionBounds",
    "deep_members",
    "direct_bounds",
    "indirect_bounds",
    "lemma1_epsilon",
    "theorem1_bounds",
    "theorem2_bounds",
    "duplicate_groups",
    "has_min_pts_duplicates",
    "k_distinct_distance",
    "LocalOutlierFactor",
    "DynamicNeighborhoodGraph",
    "NeighborhoodGraph",
    "NeighborhoodView",
    "HandshakeResult",
    "lof_optics_handshake",
    "IncrementalLOF",
    "UpdateReport",
    "SlidingWindowLOF",
    "StreamEvent",
    "StreamingLOFDetector",
    "TopNResult",
    "top_n_lof",
    "lof_scores",
    "local_reachability_density",
    "MaterializationDB",
    "materialize",
    "fork_available",
    "map_sharded",
    "resolve_n_jobs",
    "k_distance",
    "k_distance_neighborhood",
    "RangeLOFResult",
    "lof_range",
    "score_range",
    "suggest_min_pts_range",
    "naive_lof",
    "naive_lrd",
    "OutlierRanking",
    "RankedOutlier",
    "rank_outliers",
    "reach_dist",
    "reachability_matrix",
    "lof_values",
    "lrd_values",
    "reach_dist_values",
]
