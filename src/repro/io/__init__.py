"""Persistence: CSV for datasets/scores and — re-exported from
:mod:`repro.store` — the one binary format, the checksummed model store
that holds the materialization database M (the Section 7.4 intermediate
result) and optionally per-MinPts caches, the dataset snapshot and
estimator results for online serving."""

from ..store import load_model, read_header, save_model
from .csvio import load_dataset, load_scores, save_dataset, save_scores

__all__ = [
    "load_dataset",
    "load_scores",
    "save_dataset",
    "save_scores",
    "load_model",
    "read_header",
    "save_model",
]
