"""Launch ``repro serve`` with the stream-layer wrappers installed.

``python3 perfbench/serve_traced.py serve --port 0 ...`` takes the same
arguments as ``python -m repro serve``.  Each layer's running totals are
published as ``perfbench_*`` callback gauges in the process registry, so
one ``GET /v1/metrics`` returns the server's own series and the layer
totals at the same instant.
"""

from __future__ import annotations

import sys

from layers import COUNT_KEYS, SERVE_TARGETS, LayerRecorder, gauge_name


def main(argv: list[str]) -> int:
    from repro.cli import main as repro_main
    from repro.obs.metrics import get_registry

    recorder = LayerRecorder().install(SERVE_TARGETS)
    registry = get_registry()
    for layer in sorted({target[2] for target in SERVE_TARGETS}):
        registry.gauge(gauge_name("seconds", layer), f"Seconds inside {layer}.",
                       fn=lambda layer=layer: recorder.seconds.get(layer, 0.0))
        registry.gauge(gauge_name("calls", layer), f"Calls of {layer}.",
                       fn=lambda layer=layer: float(recorder.calls.get(layer, 0)))
    for key in COUNT_KEYS:
        registry.gauge(gauge_name("count", key), f"Work count {key}.",
                       fn=lambda key=key: recorder.counts.get(key, 0.0))
    return repro_main(argv)


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
