"""One benchmark command for static detect, stream churn and mixed serve traffic.

    python3 perfbench/run.py --workload detect-static --seed 1 --seconds 10 --trace 0

Run from the root of a source checkout.  ``--trace 0`` measures the
end-to-end metrics with no wrapper installed; ``--trace 1`` runs the
same workload untraced and then traced, and reports the per-layer
metrics and the tracing overhead.  ``--quick`` uses tiny inputs.  Every
output is checked against the benchmark's own computations
(``oracle.py``); the last line of standard output is one JSON object,
and the exit code is 1 when a check failed.
"""

from __future__ import annotations

import argparse
import json
import os
import random
import shutil
import statistics
import subprocess
import sys
from pathlib import Path
from time import perf_counter

# One thread per NumPy pool, in this process and every one it starts.
for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
             "NUMEXPR_NUM_THREADS", "VECLIB_MAXIMUM_THREADS"):
    os.environ[_var] = "1"

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"

WORKLOADS = ("detect-static", "stream-churn", "serve-mixed")

#: (name, unit) of the metrics a ``--trace 0`` run reports, in order.
END_TO_END = (
    ("setup_s", "s"),
    ("peak_rss_mb", "MiB"),
    ("modularity", "Q"),
    ("edges_per_s", "edges/s"),
    ("op_ms_p50", "ms"),
)

#: (name, unit) of the metrics a ``--trace 1`` run reports.  A layer a
#: workload never calls reads 0 there.
PER_LAYER = (
    ("graph.io.load_pct", "%"),
    ("core.mod_opt.pct", "%"),
    ("core.mod_opt.sweeps", "count"),
    ("core.mod_opt.scored", "count"),
    ("core.mod_opt.moved_per_scored", "ratio"),
    ("core.aggregate.pct", "%"),
    ("metrics.modularity.pct", "%"),
    ("graph.build.apply_pct", "%"),
    ("stream.frontier.delta_pct", "%"),
    ("stream.frontier_fraction", "ratio"),
    ("stream.full_fallback_pct", "%"),
    ("core.frontier_opt.pct", "%"),
    ("core.frontier_opt.scored", "count"),
    ("core.frontier_opt.moved_per_scored", "ratio"),
    ("stream.self_pct", "%"),
    ("trace.report_pct", "%"),
    ("serve.apply_pct", "%"),
    ("serve.coalesce_ratio", "ratio"),
    ("serve.transport_pct", "%"),
    ("serve.read_wait_pct", "%"),
    ("serve.snapshot_mb", "MiB"),
    ("rss_growth_mb", "MiB"),
    ("trace.overhead_pct", "%"),
)

#: Reported and recomputed modularity must agree this closely.
Q_TOLERANCE = 1e-9
#: Minimum NMI of the detected partition to the planted one.
PLANTED_NMI = 0.9
#: Pre-generated rounds per second of run: the sequence runs out (and the
#: run ends early) only if the program gets this many times faster.
STREAM_ROUNDS_PER_S = 100
SERVE_ROUNDS_PER_S = 250  # covers the contention phase too


class Run:
    """What one workload run measured and whether its checks passed."""

    def __init__(self) -> None:
        self.metrics: dict[str, float] = {}
        self.attempted = 0
        self.failed = 0
        self.failures: list[str] = []
        self.notes: list[str] = []

    def check(self, ok: bool, message: str) -> None:
        if not ok:
            self.failures.append(message)


def latency_summary(seconds: list[float]) -> tuple[float, str]:
    """Median in ms, and a note with the median and the tail.

    The tail is the highest percentile with ten samples beyond it (the
    median when there are fewer than 21 samples).  It is printed, not
    gated: over ten runs of the same code its interquartile range reached
    42 % (stream-churn) and 27 % (serve-mixed) of its median, past the
    largest bound the benchmark may set, because a few seconds of host
    slowdown move the ten slowest operations.
    """
    ms = sorted(1000.0 * s for s in seconds)
    n = len(ms)
    index = max(n - 11, n // 2)
    p50 = statistics.median(ms)
    percentile = 100.0 * (index + 1) / n
    return p50, f"p50 {p50:.4f} ms, tail p{percentile:.1f} {ms[index]:.4f} ms, n={n}"


def child_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join([str(SRC), str(HERE)])
    return env


def run_worker(job: dict, workdir: Path, name: str, timeout: float) -> tuple[dict, dict]:
    import numpy as np

    job = {**job, "out": str(workdir / name)}
    job_path = workdir / f"{name}.job.json"
    job_path.write_text(json.dumps(job))
    subprocess.run([sys.executable, str(HERE / "worker.py"), str(job_path)],
                   env=child_env(), check=True, timeout=timeout)
    out = json.loads((workdir / f"{name}.json").read_text())
    with np.load(workdir / f"{name}.npz") as data:
        arrays = {key: data[key] for key in data.files}
    return out, arrays


# --------------------------------------------------------------------------- #
# detect-static
# --------------------------------------------------------------------------- #
def detect_static(args, workdir: Path, run: Run) -> dict:
    import inputs
    import numpy as np
    import oracle
    from layers import core_layers, pct

    job = {"workload": "detect", "seconds": args.seconds,
           **inputs.detect_inputs(args.seed, args.quick, workdir)}
    edge_files = [inputs.read_edge_file(Path(g["path"])) for g in job["graphs"]]
    phases = [False, True] if args.trace else [False]
    results = {}
    for traced in phases:
        out, arrays = run_worker({**job, "trace": traced}, workdir,
                                 f"detect-{int(traced)}", timeout=170)
        results[traced] = out
        ops = out["ops"]
        run.attempted += len(ops)
        q_by_graph = []
        for i, (n, u, v, w) in enumerate(edge_files):
            graph_ops = [op for op in ops if op[0] == i]
            run.check(len(graph_ops) > 0, f"graph {i}: no detection ran")
            for index in sorted({op[3] for op in graph_ops}):
                membership = arrays[f"g{i}_m{index}"]
                run.check(oracle.is_dense_labelling(membership, n),
                          f"graph {i}: membership is not a dense labelling")
                q = oracle.modularity(u, v, w, membership)
                for op in graph_ops:
                    if op[3] == index:
                        run.check(abs(q - op[2]) <= Q_TOLERANCE,
                                  f"graph {i}: reported Q {op[2]!r} != recomputed {q!r}")
            q_by_graph.append(statistics.median(op[2] for op in graph_ops))
        n, u, v, w = inputs.read_edge_file(Path(job["planted"]))
        truth = np.load(workdir / "planted_truth.npy")
        score = oracle.nmi(arrays["planted"], truth)
        run.check(score >= PLANTED_NMI, f"planted partition NMI {score:.3f} < {PLANTED_NMI}")
        q = oracle.modularity(u, v, w, arrays["planted"])
        run.check(abs(q - out["planted_modularity"]) <= Q_TOLERANCE,
                  "planted graph: reported Q != recomputed Q")
        # The operation is a round: one detection of each graph.  The median
        # of single detections falls between two graphs of similar cost and
        # moved twice as much between runs (IQR 13 % against 7 %).
        k = len(edge_files)
        rounds = [sum(op[1] for op in ops[r:r + k]) for r in range(0, len(ops), k)]
        p50, note = latency_summary(rounds)
        out["op_ms_p50"] = p50
        if not traced:
            medians = [statistics.median(op[1] for op in ops if op[0] == i)
                       for i in range(k)]
            run.metrics.update(
                setup_s=out["setup_s"],
                peak_rss_mb=out["peak_rss_mb"],
                modularity=statistics.fmean(q_by_graph),
                edges_per_s=sum(out["edges"]) / sum(medians),
                op_ms_p50=p50,
            )
            run.notes.append(f"rounds: {note}; planted NMI {score:.4f}")
            for i, g in enumerate(job["graphs"]):
                _, graph_note = latency_summary([op[1] for op in ops if op[0] == i])
                run.notes.append(f"{g['name']}: {out['edges'][i]} edges, Q "
                                 f"{q_by_graph[i]:.6f}, detect {graph_note}")
    if not args.trace:
        return {}
    out = results[True]
    ops = out["ops"]
    layers = core_layers(out["layers"], sum(op[1] for op in ops), len(ops))
    layers["graph.io.load_pct"] = pct(
        out["setup_layers"]["seconds"].get("graph.io.load", 0.0), sum(out["setup_seconds"])
    )
    layers["rss_growth_mb"] = out["rss_growth_mb"]
    layers["trace.overhead_pct"] = pct(
        out["op_ms_p50"] - results[False]["op_ms_p50"], results[False]["op_ms_p50"]
    )
    return layers


# --------------------------------------------------------------------------- #
# stream-churn
# --------------------------------------------------------------------------- #
def stream_churn(args, workdir: Path, run: Run) -> dict:
    import inputs
    import numpy as np
    import oracle
    from layers import core_layers, pct

    n, m = inputs.STREAM_GRAPH[args.quick]
    u, v, w = inputs.social_graph(n, m)
    np.savez(workdir / "stream_graph.npz", u=u, v=v, w=w, n=n)
    rounds = max(1, int(STREAM_ROUNDS_PER_S * args.seconds))
    gen = inputs.ChurnGenerator(inputs.EdgeMap.from_arrays(n, u, v, w),
                                random.Random(args.seed))
    seq = inputs.churn_sequence(gen, rounds, inputs.STREAM_ROUND)
    seq.save(workdir / "stream_seq.npz")
    round_len = len(inputs.STREAM_ROUND)
    job = {"workload": "stream", "seconds": args.seconds,
           "graph": str(workdir / "stream_graph.npz"),
           "sequence": str(workdir / "stream_seq.npz"),
           "round_len": round_len, "sample_every": 4 * round_len + 1}
    phases = [False, True] if args.trace else [False]
    results = {}
    for traced in phases:
        out, arrays = run_worker({**job, "trace": traced}, workdir,
                                 f"stream-{int(traced)}", timeout=170)
        results[traced] = out
        ops = out["ops"]
        run.attempted += len(ops)
        run.check(not out["exhausted"], "update sequence ran out before the time did")
        emap = inputs.EdgeMap.from_arrays(n, u, v, w)
        samples = set(out["samples"])
        for i, op in enumerate(ops):
            kind, us, vs = seq.op(i)
            emap.apply(kind, us, vs)
            if i in samples:
                membership = np.load(workdir / f"stream-{int(traced)}.m{i}.npy")
                run.check(membership.shape == (n,), f"batch {i}: membership length")
                q = oracle.modularity(*emap.arrays(), membership)
                run.check(abs(q - op[2]) <= Q_TOLERANCE,
                          f"batch {i}: reported Q {op[2]!r} != recomputed {q!r}")
        fu, fv, fw = emap.arrays()
        same = (np.array_equal(fu, arrays["final_u"]) and np.array_equal(fv, arrays["final_v"])
                and np.array_equal(fw, arrays["final_w"]))
        run.check(same, "session edge set differs from the benchmark's edge map")
        p50, note = latency_summary([op[0] for op in ops])
        out["op_ms_p50"] = p50
        if not traced:
            run.metrics.update(
                setup_s=out["setup_s"],
                peak_rss_mb=out["peak_rss_mb"],
                modularity=ops[-1][2],
                edges_per_s=sum(op[1] for op in ops) / sum(op[0] for op in ops),
                op_ms_p50=p50,
            )
            fallbacks = sum(op[3] == "full" for op in ops)
            run.notes.append(f"applies: {note}; {len(samples)} batches checked; "
                             f"{fallbacks} full fallbacks")
            for size in sorted({op[1] for op in ops}):
                _, size_note = latency_summary([op[0] for op in ops if op[1] == size])
                run.notes.append(f"{size}-edge batches: apply {size_note}")
    if not args.trace:
        return {}
    out = results[True]
    ops = out["ops"]
    layers = core_layers(out["layers"], sum(op[0] for op in ops), len(ops))
    layers["stream.frontier_fraction"] = statistics.fmean(op[4] for op in ops)
    layers["stream.full_fallback_pct"] = pct(sum(op[3] == "full" for op in ops), len(ops))
    layers["rss_growth_mb"] = out["rss_growth_mb"]
    layers["trace.overhead_pct"] = pct(
        out["op_ms_p50"] - results[False]["op_ms_p50"], results[False]["op_ms_p50"]
    )
    return layers


# --------------------------------------------------------------------------- #
# serve-mixed
# --------------------------------------------------------------------------- #
READ_VERTICES = 8
#: Length of the two-connection phase, as a share of ``--seconds``.
CONTENTION_SHARE = 0.25


def _is_write(record) -> bool:
    return record[0] in ("add", "remove")


def serve_phase(args, workdir: Path, run: Run, graph, seqs, traced: bool) -> dict:
    """Start a server, create the session, run both loops, check, stop.

    The gated phase is one connection for ``--seconds``: requests then
    never wait for each other, and its figures repeat.  The contention
    phase follows with both connections for a quarter of that; it is
    where reads wait for the apply in flight and writes coalesce, and
    its figures are notes and per-layer metrics only.  With two writers
    the server's own apply time moved by up to 1.6x between runs of the
    same code (mean 12.7-19.8 ms against 10.4-11.2 ms with one), too
    wide for any bound the benchmark may set.
    """
    import inputs
    import numpy as np
    import oracle
    import serve_bench as sb
    from worker import SETUP_REPEATS, proc_status

    from repro.serve.client import ServeClient
    from repro.serve.protocol import ServeError

    n, u, v, w = graph
    body = {"u": u.tolist(), "v": v.tolist(), "w": None, "num_vertices": n}
    round_len = len(inputs.SERVE_ROUND)
    server = sb.ServerProcess(workdir / f"server-{int(traced)}", child_env(), traced)
    try:
        server.start()
        client = ServeClient("127.0.0.1", server.port, timeout=120)
        setup = []
        for k in range(SETUP_REPEATS):
            start = perf_counter()
            client.create_session(f"s{k}", edges=body)
            setup.append(perf_counter() - start)
        name = f"s{SETUP_REPEATS - 1}"
        for k in range(SETUP_REPEATS - 1):
            client.delete(f"s{k}")
        rss_created = proc_status(server.pid)["VmRSS"]
        before = sb.parse_metrics(client.metrics())

        (single,), (reached,), wall = sb.run_closed_loop(
            server.port, name, seqs[:1], [0], round_len, args.seconds)
        middle = sb.parse_metrics(client.metrics())
        status = proc_status(server.pid)
        modularity = client.info(name)["modularity"]
        pair, reached_pair, _ = sb.run_closed_loop(
            server.port, name, seqs, [reached, 0], round_len,
            CONTENTION_SHARE * args.seconds)
        after = sb.parse_metrics(client.metrics())
        rss_end = proc_status(server.pid)["VmRSS"]
        info = client.info(name)

        # Checks: every request 2xx, snapshot CSR == the client's edge map
        # (coalesced, interleaved writes == sequential), server Q == oracle
        # Q, reads unchanged across evict -> restore.
        flat = single + [r for recs in pair for r in recs]
        run.attempted += len(flat)
        failed = sum(not r[2] for r in flat)
        run.failed += failed
        run.check(failed == 0, f"{failed} requests did not return 2xx")
        run.check(all(r < len(seq) for r, seq in zip(reached_pair, seqs)),
                  "request sequence ran out before the time did")
        emap = inputs.EdgeMap.from_arrays(n, u, v, w)
        for seq, count in zip(seqs, reached_pair):
            for i in range(count):
                kind, us, vs = seq.op(i)
                if kind in ("add", "remove"):
                    emap.apply(kind, us, vs)
        probe = np.random.default_rng(args.seed).integers(0, n, size=READ_VERTICES)
        answers = sb.reads(client, name, probe)
        snapshot = client.snapshot(name)
        npz_path = snapshot.removesuffix(".json") + ".npz"
        su, sv, sw, membership = sb.snapshot_edges(npz_path)
        mu, mv, mw = emap.arrays()
        run.check(np.array_equal(su, mu) and np.array_equal(sv, mv)
                  and np.array_equal(sw, mw),
                  "snapshot CSR differs from the client's edge map")
        q = oracle.modularity(mu, mv, mw, membership)
        run.check(abs(q - info["modularity"]) <= Q_TOLERANCE,
                  f"server Q {info['modularity']!r} != recomputed {q!r}")
        snapshot_mb = (Path(npz_path).stat().st_size + Path(snapshot).stat().st_size) / 2**20
        client.evict(name)
        run.check(sb.reads(client, name, probe) == answers,
                  "reads after evict -> restore differ from the reads before")
        client.close()
    except (ServeError, OSError, RuntimeError) as exc:
        run.check(False, f"serve phase failed: {exc!r}")
        return {}
    finally:
        server.stop()

    writes = [r[1] for r in single if _is_write(r)]
    p50, note = latency_summary(writes)
    pair_flat = [r for recs in pair for r in recs]
    return {
        "setup_s": statistics.median(setup),
        "peak_rss_mb": status["VmHWM"],
        "modularity": modularity,
        "edges_per_s": sum(r[3] for r in single if _is_write(r)) / wall,
        "op_ms_p50": p50,
        "note": note,
        "read": latency_summary([r[1] for r in single if not _is_write(r)]),
        "pair_write": latency_summary([r[1] for r in pair_flat if _is_write(r)]),
        "pair_read": latency_summary([r[1] for r in pair_flat if not _is_write(r)]),
        "snapshot_mb": snapshot_mb,
        "rss_growth_mb": rss_end - rss_created,
        "pair_client_seconds": sum(r[1] for r in pair_flat),
        "before": before,
        "middle": middle,
        "after": after,
    }


def serve_layers(phase: dict) -> dict:
    """Stream and core layers from the one-connection phase; the serve
    layers (queueing, coalescing, lock waits) from the contention phase."""
    from layers import COUNT_KEYS, SERVE_TARGETS, core_layers, gauge_name, pct, ratio
    from serve_bench import metric_sum

    def delta(start: dict, end: dict, name: str, **labels) -> float:
        return metric_sum(end, name, **labels) - metric_sum(start, name, **labels)

    before, middle, after = phase["before"], phase["middle"], phase["after"]
    layer_names = {target[2] for target in SERVE_TARGETS}
    snap = {
        "seconds": {k: delta(before, middle, gauge_name("seconds", k)) for k in layer_names},
        "calls": {k: delta(before, middle, gauge_name("calls", k)) for k in layer_names},
        "counts": {k: delta(before, middle, gauge_name("count", k)) for k in COUNT_KEYS},
    }
    applies = snap["calls"]["stream.apply"]
    layers = core_layers(snap, snap["seconds"]["stream.apply"], applies)

    def pair(name: str, **labels) -> float:
        return delta(middle, after, name, **labels)

    route = "repro_serve_request_seconds_sum"
    batch_route = pair(route, route="session/batch")
    read_route = pair(route, route="session/community") + pair(route, route="session/top")
    layers.update({
        "stream.frontier_fraction": ratio(snap["counts"]["stream.frontier_fraction"], applies),
        "stream.full_fallback_pct": pct(snap["counts"]["stream.full"], applies),
        "serve.apply_pct": pct(pair("repro_serve_apply_seconds_sum"), batch_route),
        "serve.coalesce_ratio": ratio(pair("repro_serve_batch_requests_total"),
                                      pair("repro_serve_applies_total")),
        "serve.transport_pct": pct(phase["pair_client_seconds"] - batch_route - read_route,
                                   phase["pair_client_seconds"]),
        "serve.read_wait_pct": pct(
            read_route - pair(gauge_name("seconds", "serve.session_read")), read_route
        ),
        "serve.snapshot_mb": phase["snapshot_mb"],
        "rss_growth_mb": phase["rss_growth_mb"],
    })
    return layers


def serve_mixed(args, workdir: Path, run: Run) -> dict:
    import inputs
    from layers import pct

    n, m = inputs.SERVE_GRAPH[args.quick]
    u, v, w = inputs.social_graph(n, m)
    emap = inputs.EdgeMap.from_arrays(n, u, v, w)
    rounds = max(1, int(SERVE_ROUNDS_PER_S * args.seconds))
    read_rng = random.Random(args.seed + 1)
    seqs = [
        inputs.churn_sequence(
            inputs.ChurnGenerator(emap, random.Random(args.seed * 2 + owner), owner),
            rounds, inputs.SERVE_ROUND, read_rng,
        )
        for owner in (0, 1)
    ]
    graph = (n, u, v, w)
    base = serve_phase(args, workdir, run, graph, seqs, traced=False)
    if not base:
        return {}
    run.metrics.update({k: base[k] for k, _ in END_TO_END})
    run.notes.append(f"one connection, writes (op_ms_p50): {base['note']}")
    for label, key in (("one connection, reads", "read"),
                       ("two connections, writes", "pair_write"),
                       ("two connections, reads", "pair_read")):
        run.notes.append(f"{label}: {base[key][1]}")
    run.notes.append(f"snapshot_mb {base['snapshot_mb']:.4f} MiB")
    if not args.trace:
        return {}
    traced = serve_phase(args, workdir, run, graph, seqs, traced=True)
    if not traced:
        return {}
    layers = serve_layers(traced)
    layers["trace.overhead_pct"] = pct(traced["op_ms_p50"] - base["op_ms_p50"],
                                       base["op_ms_p50"])
    return layers


# --------------------------------------------------------------------------- #
def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--quick", action="store_true",
                        help="tiny inputs, for the benchmark's own tests")
    args = parser.parse_args(argv)

    if not (SRC / "repro" / "__init__.py").is_file():
        print(f"perfbench: no program source at {SRC}; run from a source checkout",
              file=sys.stderr)
        return 2
    sys.path[:0] = [str(SRC), str(HERE)]

    workdir = ROOT / ".bench_tmp" / f"{args.workload}-{os.getpid()}"
    workdir.mkdir(parents=True, exist_ok=True)
    run = Run()
    body = {"detect-static": detect_static, "stream-churn": stream_churn,
            "serve-mixed": serve_mixed}[args.workload]
    try:
        layers = body(args, workdir, run)
    except (subprocess.CalledProcessError, subprocess.TimeoutExpired) as exc:
        run.check(False, f"program process failed: {exc}")
        layers = {}
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    spec = PER_LAYER if args.trace else END_TO_END
    if args.trace and layers:
        layers = {**{name: 0.0 for name, _ in PER_LAYER}, **layers}
    values = layers if args.trace else run.metrics
    missing = [name for name, _ in spec if name not in values]
    run.check(not missing, f"metrics not measured: {missing}")
    run.check(run.attempted >= 1, "no operation was attempted")
    for note in run.notes:
        print(f"# {note}")
    for name, unit in spec:
        if name in values:
            print(f"{name:36s} {values[name]:>16.6f} {unit}")
    print(f"attempted {run.attempted}, failed {run.failed}")
    for failure in run.failures:
        print(f"CHECK FAILED: {failure}")
    correct = not run.failures
    result = {
        "correct": correct,
        "attempted": run.attempted,
        "failed": run.failed,
        "metrics": {name: {"value": float(values[name]), "unit": unit}
                    for name, unit in spec if name in values},
    }
    print(json.dumps(result))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
