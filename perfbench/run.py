"""curvlab benchmark: time to verdict on three workloads.

    python3 perfbench/run.py --workload frame_exact --seed 1 --seconds 25 --trace 0

Run from the root of a checkout (any directory works; paths are resolved
from this file). One process, one thread, a closed loop with one client:
each ``curvlab.cli.run(argv)`` starts after the previous one returns, with
stdout captured and ``gc.collect()`` between invocations (GC stays on).
Every verdict is checked against ``known_answers.json``.

``--trace 0`` prints the end-to-end metrics; ``--trace 1`` runs an untraced
pass and a traced pass of the same mix and prints the per-layer metrics,
including the tracing overhead. The last stdout line is one JSON object
``{"correct", "attempted", "failed", "metrics"}``. See README.md.
"""

from __future__ import annotations

import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
HERE = Path(__file__).resolve().parent


def main(argv=None) -> int:
    import argparse

    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    if not (SRC / "curvlab" / "cli.py").is_file():
        print(f"no curvlab sources under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(HERE))
    import setup_probe
    try:
        first_import = setup_probe.probe()
    except ImportError as e:
        print(f"cannot import curvlab: {e}", file=sys.stderr)
        return 2

    import bench
    return bench.run(args.workload, args.seed, args.seconds, bool(args.trace),
                     first_import)


if __name__ == "__main__":
    sys.exit(main())
