"""Traced mode: timing wrappers at the names each layer is called by.

A :class:`LayerRecorder` replaces a module attribute (or a class
method) with a wrapper that adds the call's wall time to its layer and,
for the optimisers, the work counts of the returned outcome.  It wraps
the name the *calling* module looks up at call time, e.g.
``repro.core.gpu_louvain.modularity_optimization``, so the program's
code is not edited.  Untraced runs never construct a recorder.
"""

from __future__ import annotations

import importlib
import threading
from collections import defaultdict
from time import perf_counter

import numpy as np


def _optimization_counts(prefix: str):
    def observe(counts, args, outcome) -> None:
        sweeps = outcome.profile.sweeps
        scored = sum(s.frontier_size for s in sweeps)
        if scored == 0:
            # The full optimiser leaves SweepStats.frontier_size at 0; each
            # of its sweeps scores every vertex that has an edge.
            graph = args[0]
            scored = outcome.sweeps * int(np.count_nonzero(np.diff(graph.indptr)))
        counts[f"{prefix}.sweeps"] += outcome.sweeps
        counts[f"{prefix}.scored"] += scored
        counts[f"{prefix}.moved"] += sum(s.moved for s in sweeps)

    return observe


def _apply_counts(counts, args, result) -> None:
    counts["stream.frontier_fraction"] += result.frontier_fraction
    counts["stream.full"] += result.mode == "full"


#: (module, attribute, layer, observer) for static detection: the names
#: ``repro.core.gpu_louvain`` calls, plus the loader the benchmark calls.
DETECT_TARGETS = (
    ("repro.graph.io", "load_graph", "graph.io.load", None),
    ("repro.core.gpu_louvain", "modularity_optimization", "core.mod_opt",
     _optimization_counts("core.mod_opt")),
    ("repro.core.gpu_louvain", "aggregate_gpu", "core.aggregate", None),
    ("repro.core.gpu_louvain", "modularity", "metrics.modularity", None),
)

#: The names ``repro.stream.session`` calls inside ``StreamSession.apply``.
STREAM_TARGETS = (
    ("repro.stream.session", "apply_edge_batch", "graph.build.apply", None),
    ("repro.stream.session", "delta_frontier", "stream.frontier.delta", None),
    ("repro.stream.session", "frontier_modularity_optimization", "core.frontier_opt",
     _optimization_counts("core.frontier_opt")),
    ("repro.stream.session", "modularity_optimization", "core.mod_opt",
     _optimization_counts("core.mod_opt")),
    ("repro.stream.session", "aggregate_gpu", "core.aggregate", None),
    ("repro.stream.session", "aggregate_bincount", "core.aggregate", None),
    ("repro.stream.session", "modularity", "metrics.modularity", None),
    ("repro.stream.session", "_partition_modularity", "metrics.modularity", None),
    ("repro.stream.session", "report_from_result", "trace.report", None),
)

#: Extra names for the traced server: the apply itself and the two
#: partition queries the read routes make under the session lock.
SERVE_TARGETS = STREAM_TARGETS + (
    ("repro.stream.session", "StreamSession.apply", "stream.apply", _apply_counts),
    ("repro.stream.session", "StreamSession.community_of", "serve.session_read", None),
    ("repro.stream.session", "StreamSession.top_k_communities", "serve.session_read",
     None),
)

#: Layers whose time counts against the enclosing apply in ``stream.self_pct``.
APPLY_CHILDREN = (
    "graph.build.apply", "stream.frontier.delta", "core.frontier_opt",
    "core.mod_opt", "core.aggregate", "metrics.modularity", "trace.report",
)


#: Work counts the observers accumulate (the traced server publishes each).
COUNT_KEYS = (
    "core.mod_opt.sweeps", "core.mod_opt.scored", "core.mod_opt.moved",
    "core.frontier_opt.sweeps", "core.frontier_opt.scored", "core.frontier_opt.moved",
    "stream.frontier_fraction", "stream.full",
)


def gauge_name(kind: str, key: str) -> str:
    """The traced server's gauge for one layer total, e.g. ``perfbench_seconds_core_mod_opt``."""
    return f"perfbench_{kind}_{key.replace('.', '_')}"


class LayerRecorder:
    """Per-layer seconds, call counts and work counts of wrapped calls."""

    def __init__(self) -> None:
        self.seconds: defaultdict[str, float] = defaultdict(float)
        self.calls: defaultdict[str, int] = defaultdict(int)
        self.counts: defaultdict[str, float] = defaultdict(float)
        self._lock = threading.Lock()
        self._patched: list[tuple[object, str, object]] = []

    def install(self, targets) -> "LayerRecorder":
        for module_name, attr, layer, observe in targets:
            owner = importlib.import_module(module_name)
            *path, name = attr.split(".")
            for part in path:
                owner = getattr(owner, part)
            original = getattr(owner, name)
            setattr(owner, name, self._wrap(original, layer, observe))
            self._patched.append((owner, name, original))
        return self

    def uninstall(self) -> None:
        while self._patched:
            owner, name, original = self._patched.pop()
            setattr(owner, name, original)

    def _wrap(self, original, layer: str, observe):
        seconds, calls, counts, lock = self.seconds, self.calls, self.counts, self._lock

        def wrapper(*args, **kwargs):
            start = perf_counter()
            try:
                out = original(*args, **kwargs)
            finally:
                elapsed = perf_counter() - start
                with lock:
                    seconds[layer] += elapsed
                    calls[layer] += 1
            if observe is not None:
                with lock:
                    observe(counts, args, out)
            return out

        wrapper.__wrapped__ = original
        return wrapper

    def snapshot(self) -> dict:
        with self._lock:
            return {
                "seconds": dict(self.seconds),
                "calls": dict(self.calls),
                "counts": dict(self.counts),
            }

    def reset(self) -> None:
        with self._lock:
            self.seconds.clear()
            self.calls.clear()
            self.counts.clear()


def pct(part: float, whole: float) -> float:
    return 100.0 * part / whole if whole > 0 else 0.0


def ratio(part: float, whole: float) -> float:
    return part / whole if whole > 0 else 0.0


def core_layers(snap: dict, op_seconds: float, ops: int) -> dict[str, float]:
    """The optimiser, aggregation and stream-layer shares common to every workload.

    ``op_seconds`` is the time of the ``ops`` operations the layers ran
    inside (detections or applies); counts are per operation.
    """
    seconds, counts = snap["seconds"], snap["counts"]
    inside = sum(seconds.get(layer, 0.0) for layer in APPLY_CHILDREN)
    return {
        "core.mod_opt.pct": pct(seconds.get("core.mod_opt", 0.0), op_seconds),
        "core.mod_opt.sweeps": ratio(counts.get("core.mod_opt.sweeps", 0.0), ops),
        "core.mod_opt.scored": ratio(counts.get("core.mod_opt.scored", 0.0), ops),
        "core.mod_opt.moved_per_scored": ratio(
            counts.get("core.mod_opt.moved", 0.0), counts.get("core.mod_opt.scored", 0.0)
        ),
        "core.aggregate.pct": pct(seconds.get("core.aggregate", 0.0), op_seconds),
        "metrics.modularity.pct": pct(seconds.get("metrics.modularity", 0.0), op_seconds),
        "graph.build.apply_pct": pct(seconds.get("graph.build.apply", 0.0), op_seconds),
        "stream.frontier.delta_pct": pct(
            seconds.get("stream.frontier.delta", 0.0), op_seconds
        ),
        "core.frontier_opt.pct": pct(seconds.get("core.frontier_opt", 0.0), op_seconds),
        "core.frontier_opt.scored": ratio(
            counts.get("core.frontier_opt.scored", 0.0), ops
        ),
        "core.frontier_opt.moved_per_scored": ratio(
            counts.get("core.frontier_opt.moved", 0.0),
            counts.get("core.frontier_opt.scored", 0.0),
        ),
        "trace.report_pct": pct(seconds.get("trace.report", 0.0), op_seconds),
        "stream.self_pct": (
            pct(op_seconds - inside, op_seconds) if "graph.build.apply" in seconds else 0.0
        ),
    }
