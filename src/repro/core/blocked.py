"""The retired whole-dataset builder's module, kept as two names.

Step 1 has one builder, :meth:`~repro.core.materialization.MaterializationDB.materialize`.
The chunked argkmin engine it used to wrap stays the index's batch-query
API (:func:`repro.index.argkmin.argkmin_self`). The layer tracer in
``perfbench/tracer.py`` wraps both names below by module path, so this
module keeps them resolvable; nothing in the package imports it.
"""

from ..index.argkmin import argkmin_self  # noqa: F401  (looked up by name)
from .materialization import MaterializationDB

fast_materialize = MaterializationDB.materialize
