"""The benchmark's oracles against networkx and hand-computed values."""

import math

import networkx as nx
import numpy as np
import pytest
from networkx.algorithms.community import modularity as nx_modularity

import oracle


def _nx_graph(u, v, w):
    graph = nx.Graph()
    graph.add_weighted_edges_from(zip(u.tolist(), v.tolist(), w.tolist()))
    return graph


def _communities(labels):
    return [set(np.flatnonzero(labels == c).tolist()) for c in np.unique(labels)]


@pytest.mark.parametrize("seed", range(6))
@pytest.mark.parametrize("resolution", [1.0, 0.5])
def test_modularity_matches_networkx(seed, resolution):
    rng = np.random.default_rng(seed)
    n = 40
    pairs = {tuple(sorted(p)) for p in rng.integers(0, n, size=(150, 2)).tolist()}
    pairs.add((3, 3))  # a self-loop follows the networkx convention too
    u, v = (np.array(x) for x in zip(*sorted(pairs)))
    w = rng.integers(1, 4, size=u.size).astype(float)
    graph = _nx_graph(u, v, w)
    graph.add_nodes_from(range(n))
    labels = rng.integers(0, 5, size=n)
    expected = nx_modularity(graph, _communities(labels), resolution=resolution)
    got = oracle.modularity(u, v, w, labels, resolution)
    assert got == pytest.approx(expected, abs=1e-12)


def test_modularity_two_triangles_by_hand():
    # Two triangles joined by one edge: m = 7, each side has internal weight 3
    # and degree sum 7, so Q = 6/7 - 2 * (7/14)^2 = 6/7 - 1/2.
    u = np.array([0, 0, 1, 3, 3, 4, 2])
    v = np.array([1, 2, 2, 4, 5, 5, 3])
    w = np.ones(7)
    labels = np.array([0, 0, 0, 1, 1, 1])
    assert oracle.modularity(u, v, w, labels) == pytest.approx(6 / 7 - 0.5, abs=1e-15)
    assert oracle.modularity(u, v, w, np.zeros(6, dtype=int)) == pytest.approx(0.0)


def test_modularity_of_edgeless_graph_is_zero():
    empty = np.zeros(0, dtype=int)
    assert oracle.modularity(empty, empty, np.zeros(0), np.arange(3)) == 0.0


def test_nmi_hand_cases():
    a = np.array([0, 0, 1, 1, 2, 2])
    assert oracle.nmi(a, a) == pytest.approx(1.0)
    assert oracle.nmi(a, np.array([5, 5, 9, 9, 7, 7])) == pytest.approx(1.0)
    assert oracle.nmi(np.array([0, 0, 1, 1]), np.array([0, 1, 0, 1])) == pytest.approx(0.0)
    assert oracle.nmi(np.zeros(4), np.zeros(4)) == 1.0
    # a = [0,0,0,1], b = [0,0,1,1]: H(a) = -(3/4 ln 3/4 + 1/4 ln 1/4),
    # H(b) = ln 2, H(a,b) = -(1/2 ln 1/2 + 2 * 1/4 ln 1/4).
    ha = -(0.75 * math.log(0.75) + 0.25 * math.log(0.25))
    hb = math.log(2)
    hab = -(0.5 * math.log(0.5) + 0.5 * math.log(0.25))
    expected = 2 * (ha + hb - hab) / (ha + hb)
    got = oracle.nmi(np.array([0, 0, 0, 1]), np.array([0, 0, 1, 1]))
    assert got == pytest.approx(expected, abs=1e-12)
    assert got == pytest.approx(0.3437, abs=1e-4)


def test_dense_labelling():
    assert oracle.is_dense_labelling(np.array([1, 0, 2, 0]), 4)
    assert not oracle.is_dense_labelling(np.array([0, 2, 2, 0]), 4)  # 1 unused
    assert not oracle.is_dense_labelling(np.array([0, 1]), 3)  # wrong length
    assert not oracle.is_dense_labelling(np.array([-1, 0]), 2)
