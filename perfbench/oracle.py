"""Reference computations the benchmark checks the program against.

Written with NumPy alone, from an undirected edge list and a labelling,
so no check trusts the code it checks.  ``tests/test_oracle.py`` pins
both functions to ``networkx`` and to hand-computed cases.
"""

from __future__ import annotations

import numpy as np


def modularity(
    u: np.ndarray,
    v: np.ndarray,
    w: np.ndarray,
    labels: np.ndarray,
    resolution: float = 1.0,
) -> float:
    """Newman modularity of ``labels`` on the undirected edges ``(u, v, w)``.

    Each undirected edge appears once.  A self-loop adds ``2w`` to its
    vertex's degree and ``w`` to its community's internal weight, the
    ``networkx`` convention.  An edgeless graph has Q = 0.
    """
    u = np.asarray(u, dtype=np.int64)
    v = np.asarray(v, dtype=np.int64)
    w = np.asarray(w, dtype=np.float64)
    labels = np.asarray(labels, dtype=np.int64)
    m = float(w.sum())
    if m == 0.0:
        return 0.0
    num_labels = int(labels.max()) + 1 if labels.size else 0
    lu, lv = labels[u], labels[v]
    same = lu == lv
    internal = np.bincount(lu[same], weights=w[same], minlength=num_labels)
    degree_sum = np.bincount(lu, weights=w, minlength=num_labels) + np.bincount(
        lv, weights=w, minlength=num_labels
    )
    return float(
        internal.sum() / m - resolution * np.sum((degree_sum / (2.0 * m)) ** 2)
    )


def _entropy(counts: np.ndarray, total: int) -> float:
    p = counts[counts > 0] / total
    return float(-(p * np.log(p)).sum())


def nmi(a: np.ndarray, b: np.ndarray) -> float:
    """Normalized mutual information of two labellings, 2 I / (H_a + H_b).

    Labels may be any integers.  Two single-cluster labellings agree
    perfectly, so their NMI is 1.
    """
    a = np.asarray(a)
    b = np.asarray(b)
    if a.shape != b.shape:
        raise ValueError("labellings must have the same length")
    total = a.size
    if total == 0:
        return 1.0
    _, ai = np.unique(a, return_inverse=True)
    _, bi = np.unique(b, return_inverse=True)
    ha = _entropy(np.bincount(ai), total)
    hb = _entropy(np.bincount(bi), total)
    if ha + hb == 0.0:
        return 1.0
    pairs = ai.astype(np.int64) * (int(bi.max()) + 1) + bi
    joint = _entropy(np.unique(pairs, return_counts=True)[1], total)
    return float(2.0 * (ha + hb - joint) / (ha + hb))


def is_dense_labelling(labels: np.ndarray, num_vertices: int) -> bool:
    """True when ``labels`` gives every vertex a label in ``0..k-1``, each used."""
    labels = np.asarray(labels)
    if labels.shape != (num_vertices,):
        return False
    if num_vertices == 0:
        return True
    if labels.min() < 0:
        return False
    return bool(np.all(np.bincount(labels) > 0))
