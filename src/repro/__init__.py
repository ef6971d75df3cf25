"""repro — a full reproduction of *LOF: Identifying Density-Based Local
Outliers* (Breunig, Kriegel, Ng & Sander, SIGMOD 2000).

Quickstart
----------
>>> import numpy as np
>>> from repro import LocalOutlierFactor
>>> rng = np.random.default_rng(0)
>>> X = np.vstack([rng.normal(size=(200, 2)), [[8.0, 8.0]]])
>>> est = LocalOutlierFactor(min_pts=(10, 30)).fit(X)
>>> int(np.argmax(est.scores_)) == 200
True

Package layout
--------------
:mod:`repro.core`
    the paper's contribution: Definitions 3-7, the Section 5 bounds,
    the Section 6.2 MinPts-range heuristic and the Section 7.4 two-step
    algorithm, plus incremental maintenance. Internally layered as
    index → graph → kernel → surfaces (``docs/architecture.md``): every
    surface shares one :class:`~repro.core.graph.NeighborhoodGraph` and
    the :mod:`repro.core.scoring` kernels.
:mod:`repro.index`
    the k-NN substrates the algorithm runs on: sequential scan, grid,
    kd-tree, ball tree, R*-tree, X-tree and VA-file.
:mod:`repro.baselines`
    the comparators of Sections 2-3 (DB-outliers, kth-NN-distance
    ranking, hull-peeling depth, DBSCAN, OPTICS, z-score/Mahalanobis).
:mod:`repro.datasets`
    seeded synthetic generators for every figure and table, including
    distribution-matched stand-ins for the proprietary NHL and
    Bundesliga data.
:mod:`repro.analysis`
    theory curves (figures 4-5), MinPts sweeps (figures 7-8), empirical
    theorem validation, and per-dimension explanations.
:mod:`repro.io`
    CSV persistence for datasets and score files.
:mod:`repro.store`
    the versioned on-disk model store: checksummed, memmap-loadable
    persistence of a fitted model (see ``docs/serving.md``).
:mod:`repro.serve`
    online scoring of unseen points against a loaded store, plus the
    JSON-over-HTTP scoring service behind ``repro-lof serve``.
:mod:`repro.obs`
    opt-in instrumentation: deterministic op counters, timer spans and
    JSON stats export (see ``docs/observability.md``).
:mod:`repro.scorers`
    the pluggable local-outlier scorer registry — LOF, LDOF, LoOP and
    kth-NN-distance over the one neighborhood graph (see
    ``docs/scorers.md``).
"""

from .core import (
    IncrementalLOF,
    LocalOutlierFactor,
    MaterializationDB,
    NeighborhoodGraph,
    OutlierRanking,
    RangeLOFResult,
    k_distance,
    k_distance_neighborhood,
    lof_range,
    lof_scores,
    local_reachability_density,
    materialize,
    rank_outliers,
    reach_dist,
    reachability_matrix,
    score_range,
    suggest_min_pts_range,
)
from .exceptions import (
    DuplicatePointsError,
    NotFittedError,
    ReproError,
    ServeError,
    SpatialIndexError,
    StoreCorruptionError,
    StoreError,
    StoreFormatError,
    StoreMismatchError,
    StoreVersionError,
    ValidationError,
)
from .index import available_indexes, make_index
from .scorers import Scorer, ScorerContext, get_scorer, list_scorers
from .scorers import register as register_scorer
from . import obs

__version__ = "1.1.0"

# store imports the version string above; keep this import below it.
from .store import load_model, save_model  # noqa: E402

__all__ = [
    "IncrementalLOF",
    "LocalOutlierFactor",
    "MaterializationDB",
    "NeighborhoodGraph",
    "OutlierRanking",
    "RangeLOFResult",
    "k_distance",
    "k_distance_neighborhood",
    "lof_range",
    "lof_scores",
    "local_reachability_density",
    "materialize",
    "rank_outliers",
    "reach_dist",
    "reachability_matrix",
    "score_range",
    "suggest_min_pts_range",
    "Scorer",
    "ScorerContext",
    "get_scorer",
    "list_scorers",
    "register_scorer",
    "DuplicatePointsError",
    "NotFittedError",
    "ReproError",
    "ServeError",
    "SpatialIndexError",
    "StoreCorruptionError",
    "StoreError",
    "StoreFormatError",
    "StoreMismatchError",
    "StoreVersionError",
    "ValidationError",
    "available_indexes",
    "make_index",
    "load_model",
    "save_model",
    "obs",
    "__version__",
]
