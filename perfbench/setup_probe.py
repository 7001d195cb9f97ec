"""The first ``import curvlab.cli`` of a process, with the host's speed.

    python3 perfbench/setup_probe.py      # prints: kernel_before_ms import_s kernel_after_ms

A builtins-only kernel is timed right before and right after the import,
in the same process, so that the import can be scaled to the reference
speed (see calibrate.py) without importing anything before it: numpy's own
first import is part of what is measured. ``run.py`` uses ``probe`` for
its own first import; ``bench.py`` runs this file in fresh interpreters.
"""

from __future__ import annotations

import gc
import sys
import time
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src"

# The kernel's time at the reference speed of calibrate.py: its usual time on
# a quiet 2-vCPU Intel Xeon VM (Python 3.11.7).
REF_MS = 0.5
RUNS = 8


def _kernel():
    d = {}
    for i in range(2000):
        key = (i % 37, i % 11)
        d[key] = d.get(key, 0) + i * 3 // 7
    return len(d)


def kernel_ms() -> float:
    """Median time of ``RUNS`` kernel runs, in ms, with the collector off."""
    enabled = gc.isenabled()
    gc.disable()
    try:
        times = []
        for _ in range(RUNS):
            t0 = time.perf_counter()
            _kernel()
            times.append(1e3 * (time.perf_counter() - t0))
    finally:
        if enabled:
            gc.enable()
    return sorted(times)[RUNS // 2]


def probe() -> tuple[float, float, float]:
    """(kernel ms before, import seconds, kernel ms after) for this process's
    first import of curvlab.cli. numpy must not be imported yet."""
    if "numpy" in sys.modules:
        raise RuntimeError("numpy imported before the set-up measurement")
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))
    before = kernel_ms()
    t0 = time.perf_counter()
    import curvlab.cli  # noqa: F401
    seconds = time.perf_counter() - t0
    return before, seconds, kernel_ms()


def scaled(before_ms: float, seconds: float, after_ms: float) -> float:
    """The import time at the reference speed."""
    return seconds * 2 * REF_MS / (before_ms + after_ms)


if __name__ == "__main__":
    print(*probe())
