"""The process that runs the program for detect-static and stream-churn.

``python3 perfbench/worker.py JOB.json`` reads the job the benchmark
wrote, runs the program on the input files for ``seconds``, and writes
``<out>.json`` (timings, reported values, peak RSS, layer totals) and
``<out>.npz`` (the memberships the benchmark checks).  It generates no
input and checks nothing, so its resident set is the program's own.
"""

from __future__ import annotations

import gc
import json
import statistics
import sys
from pathlib import Path
from time import perf_counter

import numpy as np

from layers import DETECT_TARGETS, STREAM_TARGETS, LayerRecorder

#: Set-up repetitions whose median is ``setup_s``.
SETUP_REPEATS = 5


def proc_status(pid: int | str = "self") -> dict[str, float]:
    """VmHWM / VmRSS of a process in MiB, from ``/proc/<pid>/status``."""
    out = {}
    with open(f"/proc/{pid}/status") as handle:
        for line in handle:
            key, _, rest = line.partition(":")
            if key in ("VmHWM", "VmRSS"):
                out[key] = int(rest.split()[0]) / 1024.0
    return out


def run_detect(job: dict, recorder: LayerRecorder | None) -> tuple[dict, dict]:
    from repro.bench.runner import SUITE_GPU_DEFAULTS
    from repro.core.gpu_louvain import gpu_louvain
    from repro.graph import io

    paths = [g["path"] for g in job["graphs"]]
    setup = []
    for _ in range(SETUP_REPEATS):
        start = perf_counter()
        graphs = [io.load_graph(p) for p in paths]
        setup.append(perf_counter() - start)
    setup_snap = recorder.snapshot() if recorder else None
    if recorder:
        recorder.reset()
    rss_setup = proc_status()["VmRSS"]

    arrays: dict[str, np.ndarray] = {}
    distinct: list[list[np.ndarray]] = [[] for _ in graphs]
    ops = []  # (graph index, seconds, reported modularity, membership index)
    deadline = perf_counter() + job["seconds"]
    while perf_counter() < deadline:
        for i, graph in enumerate(graphs):
            start = perf_counter()
            result = gpu_louvain(graph, **SUITE_GPU_DEFAULTS)
            elapsed = perf_counter() - start
            seen = distinct[i]
            index = next(
                (j for j, m in enumerate(seen) if np.array_equal(m, result.membership)),
                len(seen),
            )
            if index == len(seen):
                seen.append(result.membership)
                arrays[f"g{i}_m{index}"] = result.membership
            ops.append((i, elapsed, result.modularity, index))
        # The program leaves large arrays in reference cycles, so without a
        # collection the peak RSS depends on when the interpreter's own
        # collector runs (45-60 MB of spread over a 20 s run).  Collecting
        # once per round, outside the timed region, keeps one round's
        # garbage in the peak, so a change to that retention still shows.
        gc.collect()
    status = proc_status()
    layer_snap = recorder.snapshot() if recorder else None

    planted = gpu_louvain(io.load_graph(job["planted"]), **SUITE_GPU_DEFAULTS)
    arrays["planted"] = planted.membership
    out = {
        "setup_seconds": setup,
        "ops": ops,
        "edges": [int(g.num_edges) for g in graphs],
        "peak_rss_mb": status["VmHWM"],
        "rss_growth_mb": status["VmRSS"] - rss_setup,
        "planted_modularity": planted.modularity,
        "layers": layer_snap,
        "setup_layers": setup_snap,
    }
    return out, arrays


def run_stream(job: dict, recorder: LayerRecorder | None) -> tuple[dict, dict]:
    from inputs import Sequence

    from repro.graph.build import from_edges
    from repro.stream.session import StreamSession

    with np.load(job["graph"]) as data:
        graph = from_edges(data["u"], data["v"], data["w"], num_vertices=int(data["n"]))
    seq = Sequence.load(Path(job["sequence"]))
    round_len = job["round_len"]
    sample_every = job["sample_every"]

    setup = []
    for _ in range(SETUP_REPEATS):
        start = perf_counter()
        session = StreamSession(graph)
        setup.append(perf_counter() - start)
    if recorder:
        recorder.reset()
    rss_setup = proc_status()["VmRSS"]

    arrays: dict[str, np.ndarray] = {}
    ops = []  # (seconds, edges, reported modularity, mode, frontier fraction)
    samples = []
    deadline = perf_counter() + job["seconds"]
    i = 0
    while i < len(seq) and (i % round_len or perf_counter() < deadline):
        kind, us, vs = seq.op(i)
        start = perf_counter()
        if kind == "add":
            result = session.apply(add=(us, vs, None))
        else:
            result = session.apply(remove=(us, vs))
        elapsed = perf_counter() - start
        ops.append((elapsed, int(us.size), result.modularity, result.mode,
                    result.frontier_fraction))
        if i % round_len == round_len - 1:
            gc.collect()  # once per round, as in run_detect
        if i % sample_every == 0:
            # Straight to disk, so held samples do not count in the peak RSS.
            np.save(f"{job['out']}.m{i}.npy", result.membership)
            samples.append(i)
        i += 1
    status = proc_status()
    layer_snap = recorder.snapshot() if recorder else None
    np.save(f"{job['out']}.m{i - 1}.npy", session.membership)
    samples.append(i - 1)
    u, v, w = session.graph.edge_list(unique=True)
    arrays.update(final_u=u, final_v=v, final_w=w)
    out = {
        "setup_seconds": setup,
        "ops": ops,
        "exhausted": i == len(seq),
        "samples": samples,
        "peak_rss_mb": status["VmHWM"],
        "rss_growth_mb": status["VmRSS"] - rss_setup,
        "layers": layer_snap,
    }
    return out, arrays


def main(argv: list[str]) -> int:
    job = json.loads(Path(argv[1]).read_text())
    recorder = None
    if job["trace"]:
        targets = DETECT_TARGETS if job["workload"] == "detect" else STREAM_TARGETS
        recorder = LayerRecorder().install(targets)
    run = run_detect if job["workload"] == "detect" else run_stream
    out, arrays = run(job, recorder)
    out["setup_s"] = statistics.median(out["setup_seconds"])
    np.savez(job["out"] + ".npz", **arrays)
    Path(job["out"] + ".json").write_text(json.dumps(out))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
