"""Independent LOF oracle for sampled objects (Definitions 3-7).

Computes LOF_k(p) for a few objects p of a dataset straight from the
definitions, touching only the rows of the distance matrix it needs:
p's row, the rows of p's neighbors, and the rows of their neighbors.
It shares no code with ``repro``: distances are ``sqrt(sum((x - y)**2))``
over the raw coordinates, neighborhoods include every object at a
distance not greater than the k-distance (Definition 4's ties), and the
lrd/LOF ratios follow the ``inf`` duplicate convention of the paper's
remark after Definition 6 (inf/inf := 1).
"""

from __future__ import annotations

from typing import Dict, Iterable, Tuple

import numpy as np


class Neighbors:
    """Each fetched object's tie-inclusive ``kmax`` nearest neighbors,
    sorted by distance: enough to read N_k and k-distance for k <= kmax."""

    def __init__(self, X: np.ndarray, kmax: int):
        self.X = np.asarray(X, dtype=np.float64)
        self.kmax = int(kmax)
        self._rows: Dict[int, Tuple[np.ndarray, np.ndarray]] = {}

    def fetch(self, ids: Iterable[int]) -> None:
        todo = sorted({int(i) for i in ids} - self._rows.keys())
        for start in range(0, len(todo), 64):
            block = todo[start:start + 64]
            diff = self.X[None, :, :] - self.X[block][:, None, :]
            dist = np.sqrt(np.sum(diff * diff, axis=2))
            for pos, i in enumerate(block):
                row = dist[pos]
                row[i] = np.inf  # Definition 3 ranges over D \ {p}
                cutoff = np.partition(row, self.kmax - 1)[self.kmax - 1]
                ids = np.flatnonzero(row <= cutoff)
                order = np.argsort(row[ids], kind="stable")
                self._rows[i] = (ids[order], row[ids][order])

    def hood(self, i: int, k: int) -> Tuple[np.ndarray, np.ndarray, float]:
        """(N_k(i) ids, their distances, k-distance(i))."""
        ids, dists = self._rows[i]
        kdist = float(dists[k - 1])
        keep = dists <= kdist
        return ids[keep], dists[keep], kdist


def sample_lof(X: np.ndarray, sample: Iterable[int], ks: Iterable[int]) -> np.ndarray:
    """LOF_k of every object in ``sample`` for every k: shape (len(ks), len(sample))."""
    sample = [int(i) for i in sample]
    ks = [int(k) for k in ks]
    nb = Neighbors(X, max(ks))
    # N_kmax (tie-inclusive) contains N_k for every k <= kmax, so three
    # rounds of fetching cover p, its neighbors and theirs.
    nb.fetch(sample)
    hop1 = {int(o) for p in sample for o in nb.hood(p, nb.kmax)[0]}
    nb.fetch(hop1)
    hop2 = {int(q) for o in hop1 for q in nb.hood(o, nb.kmax)[0]}
    nb.fetch(hop2)
    out = np.empty((len(ks), len(sample)))
    for ki, k in enumerate(ks):
        lrds: Dict[int, float] = {}

        def lrd(i: int) -> float:
            if i not in lrds:
                ids, dists, _ = nb.hood(i, k)
                total = sum(
                    max(nb.hood(int(o), k)[2], float(d)) for o, d in zip(ids, dists)
                )
                lrds[i] = np.inf if total == 0.0 else len(ids) / total
            return lrds[i]

        for si, p in enumerate(sample):
            lrd_p = lrd(p)
            ratios = []
            for o in nb.hood(p, k)[0]:
                lrd_o = lrd(int(o))
                if np.isinf(lrd_o) and np.isinf(lrd_p):
                    ratios.append(1.0)
                elif np.isinf(lrd_p):
                    ratios.append(0.0)
                else:
                    ratios.append(lrd_o / lrd_p)
            out[ki, si] = sum(ratios) / len(ratios)
    return out

