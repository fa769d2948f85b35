"""serve-mixed: a ``repro serve`` process driven by two closed-loop connections.

:class:`ServerProcess` starts the server in a scratch directory and
always stops it (``POST /v1/shutdown``, then SIGTERM, then SIGKILL),
also when a check fails.  :func:`parse_metrics` reads the Prometheus
text exposition of ``/v1/metrics``.
"""

from __future__ import annotations

import re
import subprocess
import sys
import threading
import time
from pathlib import Path
from time import perf_counter

import numpy as np

HERE = Path(__file__).resolve().parent
_LISTENING = re.compile(r"listening on http://([\d.]+):(\d+)")
_LABEL = re.compile(r'(\w+)="((?:[^"\\]|\\.)*)"')
_SAMPLE = re.compile(r"^([A-Za-z_:][\w:]*)(\{[^}]*\})?\s+(\S+)")


class ServerProcess:
    """One ``repro serve`` (or traced launcher) process on an ephemeral port."""

    def __init__(self, workdir: Path, env: dict, traced: bool) -> None:
        self.workdir = workdir
        self.env = env
        self.traced = traced
        self.proc: subprocess.Popen | None = None
        self.port: int | None = None

    def start(self, timeout: float = 60.0) -> "ServerProcess":
        self.workdir.mkdir(parents=True, exist_ok=True)
        launcher = [str(HERE / "serve_traced.py")] if self.traced else ["-m", "repro"]
        cmd = [sys.executable, *launcher, "serve", "--port", "0",
               "--snapshot-dir", str(self.workdir / "snapshots")]
        out_path = self.workdir / "server.out"
        with open(out_path, "w") as out, open(self.workdir / "server.log", "w") as log:
            self.proc = subprocess.Popen(cmd, stdout=out, stderr=log, env=self.env,
                                         cwd=self.workdir)
        deadline = time.monotonic() + timeout
        while time.monotonic() < deadline:
            match = _LISTENING.search(out_path.read_text())
            if match:
                self.port = int(match.group(2))
                return self
            if self.proc.poll() is not None:
                break
            time.sleep(0.05)
        raise RuntimeError(
            f"server did not start: {(self.workdir / 'server.log').read_text()[-2000:]}"
        )

    @property
    def pid(self) -> int:
        return self.proc.pid

    def stop(self) -> None:
        """Shut the server down and wait for it; escalate if it hangs."""
        proc = self.proc
        if proc is None or proc.poll() is not None:
            return
        from repro.serve.client import ServeClient
        from repro.serve.protocol import ServeError

        if self.port is not None:
            try:
                ServeClient("127.0.0.1", self.port, timeout=10).shutdown()
            except (ServeError, OSError):
                pass
        for stop in (None, proc.terminate, proc.kill):
            if stop is not None:
                stop()
            try:
                proc.wait(timeout=20)
                return
            except subprocess.TimeoutExpired:
                continue


def parse_metrics(text: str) -> dict[tuple[str, tuple], float]:
    """``{(name, sorted label pairs): value}`` from a text exposition."""
    samples = {}
    for line in text.splitlines():
        if not line or line.startswith("#"):
            continue
        match = _SAMPLE.match(line.split(" # ")[0])
        if match is None:
            continue
        name, labels, value = match.groups()
        pairs = tuple(sorted(_LABEL.findall(labels or "")))
        samples[(name, pairs)] = float(value)
    return samples


def metric_sum(samples: dict, name: str, **labels) -> float:
    """Sum of every series of ``name`` whose labels include ``labels``."""
    want = set(labels.items())
    return sum(v for (n, pairs), v in samples.items()
               if n == name and want <= set(pairs))


def connection_loop(client, name: str, seq, start: int, round_len: int,
                    deadline: float, records: list) -> int:
    """Closed loop over ``seq`` from ``start`` in whole rounds; returns the
    index after the last operation sent."""
    from http.client import HTTPException

    from repro.serve.protocol import ServeError

    i = start
    while i < len(seq) and (i % round_len or perf_counter() < deadline):
        kind, us, vs = seq.op(i)
        start = perf_counter()
        ok = True
        try:
            if kind == "add":
                client.batch(name, add=(us, vs))
            elif kind == "remove":
                client.batch(name, remove=(us, vs))
            elif kind == "community":
                client.community_of(name, int(us[0]))
            else:
                client.top(name, 10)
        except (ServeError, OSError, HTTPException):
            ok = False
        records.append((kind, perf_counter() - start, ok, int(us.size)))
        i += 1
    return i


def run_closed_loop(port: int, name: str, seqs, starts, round_len: int,
                    seconds: float):
    """One thread and one keep-alive connection per sequence, started together.

    Returns each connection's ``(kind, seconds, ok, edges)`` records, the
    index each sequence reached, and the loop's wall time.
    """
    from repro.serve.client import ServeClient

    clients = [ServeClient("127.0.0.1", port, timeout=120) for _ in seqs]
    records = [[] for _ in seqs]
    reached = list(starts)
    barrier = threading.Barrier(len(seqs) + 1)

    def run(k: int) -> None:
        barrier.wait()
        reached[k] = connection_loop(clients[k], name, seqs[k], starts[k], round_len,
                                     perf_counter() + seconds, records[k])

    threads = [threading.Thread(target=run, args=(k,)) for k in range(len(seqs))]
    for thread in threads:
        thread.start()
    barrier.wait()
    start = perf_counter()
    for thread in threads:
        thread.join()
    wall = perf_counter() - start
    for client in clients:
        client.close()
    return records, reached, wall


def snapshot_edges(npz_path: str) -> tuple[np.ndarray, ...]:
    """``(u, v, w, membership)`` of a snapshot's CSR, each edge once (u <= v)."""
    with np.load(npz_path) as data:
        indptr, indices, weights = data["indptr"], data["indices"], data["weights"]
        membership = data["membership"]
    u = np.repeat(np.arange(indptr.size - 1, dtype=np.int64), np.diff(indptr))
    keep = u <= indices
    return u[keep], indices[keep].astype(np.int64), weights[keep], membership


def reads(client, name: str, vertices) -> list:
    return [client.community_of(name, int(v)) for v in vertices] + [client.top(name, 10)]

