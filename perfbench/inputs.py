"""Seeded inputs: graph files and edge-update sequences.

Everything here is a pure function of ``--seed`` (and the quick flag).
Graphs come from the program's own analog generators; update sequences
and the edge bookkeeping that checks the program are the benchmark's.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

#: (short name, ``repro.bench.suite`` entry) of the detect-static graphs.
DETECT_GRAPHS = (("web", "uk-2002"), ("kkt", "nlpkkt200"), ("road", "road_usa"))
DETECT_SCALE = {False: 1.0, True: 0.05}
#: Strong planted partition for the NMI check: (communities, size, p_in, p_out).
PLANTED = {False: (20, 50, 0.3, 0.005), True: (8, 25, 0.5, 0.01)}
#: ``social_network(n, m)`` sizes of the stream-churn and serve-mixed graphs.
#: The graph is the same for every seed (built from ``GRAPH_SEED``); the
#: seed drives the update sequence, so runs differ in what changes, not
#: in the community structure they start from.
STREAM_GRAPH = {False: (20_000, 6), True: (1_500, 6)}
SERVE_GRAPH = {False: (3_000, 6), True: (400, 6)}
GRAPH_SEED = 0

#: One stream-churn round, as (kind, edges) batches.
STREAM_ROUND = (("add", 1), ("remove", 1), ("add", 16), ("remove", 16))
#: One serve-mixed round per connection: writes, with a read after every two.
SERVE_ROUND = (
    ("add", 1), ("remove", 1), ("community", 0),
    ("add", 4), ("remove", 4), ("top", 0),
)


def _canonical_edges(graph) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    u, v, w = graph.edge_list(unique=True)
    if np.any(u == v):
        raise ValueError("benchmark inputs must not contain self-loops")
    return u.astype(np.int64), v.astype(np.int64), w.astype(np.float64)


def write_edge_file(path: Path, n: int, u, v, w) -> None:
    """``# vertices N edges M`` then one ``u v w`` line per undirected edge."""
    with open(path, "w") as handle:
        handle.write(f"# vertices {n} edges {len(u)}\n")
        handle.writelines(f"{a} {b} {c:g}\n" for a, b, c in zip(u, v, w))


def read_edge_file(path: Path) -> tuple[int, np.ndarray, np.ndarray, np.ndarray]:
    """The benchmark's own reader for :func:`write_edge_file` output."""
    with open(path) as handle:
        header = handle.readline().split()
    n = int(header[2])
    data = np.loadtxt(path, comments="#", ndmin=2)
    return n, data[:, 0].astype(np.int64), data[:, 1].astype(np.int64), data[:, 2]


def detect_inputs(seed: int, quick: bool, directory: Path) -> dict:
    """Write the three suite analogs and the planted graph; return the job spec.

    Vertex ids are permuted by the seed, so every seed gives the same
    analog in another vertex order, which changes the sweep order and
    the tie-breaks the program meets.
    """
    from repro.bench.suite import suite_entry
    from repro.graph.generators import planted_partition

    rng = np.random.default_rng(seed)
    graphs = []
    for short, name in DETECT_GRAPHS:
        g = suite_entry(name).load(DETECT_SCALE[quick])
        u, v, w = _canonical_edges(g)
        perm = rng.permutation(g.num_vertices)
        path = directory / f"{short}.txt"
        write_edge_file(path, g.num_vertices, perm[u], perm[v], w)
        graphs.append({"name": short, "path": str(path)})
    comms, size, p_in, p_out = PLANTED[quick]
    g, truth = planted_partition(comms, size, p_in, p_out, rng)
    u, v, w = _canonical_edges(g)
    planted = directory / "planted.txt"
    write_edge_file(planted, g.num_vertices, u, v, w)
    np.save(directory / "planted_truth.npy", truth)
    return {"graphs": graphs, "planted": str(planted)}


@dataclass
class EdgeMap:
    """The benchmark's own record of an undirected unit-weight edge set."""

    n: int
    weight: dict = field(default_factory=dict)
    adj: list = field(default_factory=list)

    @classmethod
    def from_arrays(cls, n: int, u, v, w) -> "EdgeMap":
        emap = cls(n, {}, [[] for _ in range(n)])
        for a, b, c in zip(u.tolist(), v.tolist(), w.tolist()):
            emap.weight[(a, b)] = c
            emap.adj[a].append(b)
            emap.adj[b].append(a)
        return emap

    def add(self, a: int, b: int) -> None:
        key = (a, b) if a < b else (b, a)
        if key in self.weight:
            self.weight[key] += 1.0
            return
        self.weight[key] = 1.0
        self.adj[a].append(b)
        self.adj[b].append(a)

    def remove(self, a: int, b: int) -> None:
        key = (a, b) if a < b else (b, a)
        del self.weight[key]
        self.adj[a].remove(b)
        self.adj[b].remove(a)

    def apply(self, kind: str, us, vs) -> None:
        step = self.add if kind == "add" else self.remove
        for a, b in zip(us, vs):
            step(int(a), int(b))

    def arrays(self) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """``(u, v, w)`` with ``u < v``, sorted by ``(u, v)``."""
        count = len(self.weight)
        uv = np.fromiter(
            (x for key in self.weight for x in key), dtype=np.int64, count=2 * count
        ).reshape(count, 2)
        w = np.fromiter(self.weight.values(), dtype=np.float64, count=count)
        order = np.lexsort((uv[:, 1], uv[:, 0]))
        return uv[order, 0], uv[order, 1], w[order]


class ChurnGenerator:
    """Local edge churn around random anchor vertices.

    Insertions close triangles (``a - c - b`` gains ``a - b``) and
    deletions remove edges at the anchor or its neighbours, so each
    batch touches one neighbourhood.  With ``owner`` set, only pairs
    with ``(u + v) % 2 == owner`` are touched, so two connections that
    each own a parity never touch the same pair.
    """

    def __init__(self, emap: EdgeMap, rng: random.Random, owner: int | None = None):
        self.emap = emap
        self.rng = rng
        self.owner = owner

    def _owned(self, a: int, b: int) -> bool:
        return self.owner is None or (a + b) % 2 == self.owner

    def _anchor(self) -> int:
        adj = self.emap.adj
        while True:
            a = self.rng.randrange(self.emap.n)
            if len(adj[a]) > 1:
                return a

    def _pick(self, k: int, candidate) -> list[tuple[int, int]]:
        chosen: dict[tuple[int, int], None] = {}
        anchor = self._anchor()
        tries = 0
        while len(chosen) < k:
            tries += 1
            if tries > 50 * k:
                anchor, tries = self._anchor(), 0
            pair = candidate(anchor)
            if pair is None or not self._owned(*pair):
                continue
            chosen[(min(pair), max(pair))] = None
        return list(chosen)

    def _triangle(self, anchor: int):
        adj, rng = self.emap.adj, self.rng
        a = anchor if rng.random() < 0.5 else rng.choice(adj[anchor])
        if not adj[a]:
            return None
        c = rng.choice(adj[a])
        b = rng.choice(adj[c])
        if b == a or (min(a, b), max(a, b)) in self.emap.weight:
            return None
        return a, b

    def _incident(self, anchor: int):
        adj, rng = self.emap.adj, self.rng
        a = anchor if rng.random() < 0.5 else rng.choice(adj[anchor])
        if len(adj[a]) < 2:
            return None
        b = rng.choice(adj[a])
        if len(adj[b]) < 2:
            return None
        return a, b

    def batch(self, kind: str, k: int) -> tuple[np.ndarray, np.ndarray]:
        """One batch of ``k`` distinct pairs, applied to the map at once."""
        pairs = self._pick(k, self._triangle if kind == "add" else self._incident)
        us = np.array([p[0] for p in pairs], dtype=np.int64)
        vs = np.array([p[1] for p in pairs], dtype=np.int64)
        self.emap.apply(kind, us, vs)
        return us, vs


@dataclass
class Sequence:
    """A flat list of operations, ``kinds[i]`` over ``us/vs[offsets[i]:offsets[i+1]]``."""

    kinds: list
    offsets: np.ndarray
    us: np.ndarray
    vs: np.ndarray

    def op(self, i: int) -> tuple[str, np.ndarray, np.ndarray]:
        lo, hi = self.offsets[i], self.offsets[i + 1]
        return self.kinds[i], self.us[lo:hi], self.vs[lo:hi]

    def __len__(self) -> int:
        return len(self.kinds)

    def save(self, path: Path) -> None:
        np.savez(path, kinds=np.array(self.kinds), offsets=self.offsets,
                 us=self.us, vs=self.vs)

    @classmethod
    def load(cls, path: Path) -> "Sequence":
        with np.load(path) as data:
            return cls([str(k) for k in data["kinds"]], data["offsets"],
                       data["us"], data["vs"])


def churn_sequence(
    gen: ChurnGenerator, rounds: int, round_spec, read_rng: random.Random | None = None
) -> Sequence:
    """``rounds`` repetitions of ``round_spec``; reads carry a vertex to ask about."""
    kinds: list[str] = []
    offsets = [0]
    us: list[np.ndarray] = []
    vs: list[np.ndarray] = []
    for _ in range(rounds):
        for kind, k in round_spec:
            if kind in ("add", "remove"):
                a, b = gen.batch(kind, k)
            else:
                vertex = read_rng.randrange(gen.emap.n)
                a = b = np.array([vertex], dtype=np.int64)
            kinds.append(kind)
            us.append(a)
            vs.append(b)
            offsets.append(offsets[-1] + a.size)
    return Sequence(kinds, np.array(offsets, dtype=np.int64),
                    np.concatenate(us), np.concatenate(vs))


def social_graph(n: int, m: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Edges of a ``social_network`` analog (the program's generator)."""
    from repro.graph.generators import social_network

    return _canonical_edges(social_network(n, m, np.random.default_rng(GRAPH_SEED)))
