"""Counter-based proof of the chunked engine's memory envelope.

The claim (docs/performance.md): a chunked ``argkmin_self`` — the
brute backend's batch-query engine — holds at most one
``x_chunk × y_chunk`` distance tile per worker, sized to ``tile_bytes``
— peak temporary allocation is O(chunk · chunk), never O(n²). Proved on
the ``argkmin.tile_bytes`` obs counter (the engine records the byte size
of the largest tile it actually allocated), not the clock and not RSS —
deterministic, RL006-clean, and immune to allocator noise.
"""

import numpy as np

from repro import obs
from repro.core import MaterializationDB
from repro.index import argkmin_self

N, D, UB = 300, 3, 5
BLOCK = 32
BUDGET = 16384  # bytes -> y_chunk = 16384 / (8 * 32) = 64 columns


def data():
    rng = np.random.default_rng(77)
    return rng.integers(-40, 41, size=(N, D)).astype(np.float64)


class TestChunkedPeakIsBudgetBounded:
    def test_tile_bytes_within_budget_and_far_below_n_squared(self):
        X = data()
        with obs.collect() as snap:
            argkmin_self(
                X, UB, x_chunk=BLOCK, strategy="chunked", tile_bytes=BUDGET
            )
        counters = snap["counters"]
        peak = counters["argkmin.tile_bytes"]
        # The largest tile is exactly one full x_chunk x y_chunk slab...
        assert peak == BLOCK * (BUDGET // (8 * BLOCK)) * 8 == BUDGET
        # ...which is a tiny fraction of the whole-matrix footprint:
        # O(chunk * chunk), not O(n^2) — with an order of magnitude in
        # hand, not a squeaker.
        assert peak * 16 <= N * N * 8
        assert counters["argkmin.strategy_chunked"] == 1

    def test_tile_count_matches_geometry(self):
        X = data()
        with obs.collect() as snap:
            argkmin_self(
                X, UB, x_chunk=BLOCK, strategy="chunked", tile_bytes=BUDGET
            )
        y_chunk = BUDGET // (8 * BLOCK)
        expected = int(np.ceil(N / BLOCK)) * int(np.ceil(N / y_chunk))
        assert snap["counters"]["argkmin.tiles"] == expected == 50
        # Tiling never changes the work: still exactly n^2 scalar
        # distance evaluations.
        assert snap["counters"]["distance.evaluations"] == N * N

    def test_whole_strategy_peak_is_block_times_n(self):
        """The whole-slab strategy's envelope, for contrast: one
        x_chunk x n slab — O(chunk * n), which the chunked strategy
        beats whenever n * 8 > tile_bytes / chunk."""
        X = data()
        with obs.collect() as snap:
            argkmin_self(X, UB, x_chunk=BLOCK, strategy="whole")
        assert snap["counters"]["argkmin.tile_bytes"] == BLOCK * N * 8
        assert snap["counters"]["argkmin.strategy_whole"] == 1

    def test_auto_heuristic_switches_on_budget(self):
        X = data()
        with obs.collect() as default_budget:
            argkmin_self(X, UB, x_chunk=BLOCK)  # 8 MiB default
        with obs.collect() as tight_budget:
            argkmin_self(X, UB, x_chunk=BLOCK, tile_bytes=BUDGET)
        # block * n * 8 = 76,800 bytes: under 8 MiB -> whole slabs;
        # over a 16 KiB budget -> tiled.
        assert default_budget["counters"]["argkmin.strategy_whole"] == 1
        assert tight_budget["counters"]["argkmin.strategy_chunked"] == 1
        assert tight_budget["counters"]["argkmin.tile_bytes"] <= BUDGET

    def test_budget_never_changes_results(self):
        X = data()
        ref = MaterializationDB.materialize(X, UB)
        for tile_bytes in (BUDGET, 4096, 8 << 20):
            ids, dists, counts = argkmin_self(
                X, UB, x_chunk=BLOCK, strategy="chunked",
                tile_bytes=tile_bytes,
            )
            # Row i of the CSR result is row i of the query loop's M.
            stored = ref.padded_ids >= 0
            np.testing.assert_array_equal(counts, ref.graph.row_lengths)
            np.testing.assert_array_equal(ids, ref.padded_ids[stored])
            np.testing.assert_array_equal(dists, ref.padded_dists[stored])
