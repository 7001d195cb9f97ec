"""Closed-loop driver behind ``run.py``: set-up samples, timed passes,
known-answer checks and the two metric sets."""

from __future__ import annotations

import contextlib
import gc
import io
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

import numpy as np

import calibrate
import curvlab.cli as cli
import known
import setup_probe
from tracing import Tracer
from workloads import WORKLOADS, Generator

ROOT = Path(__file__).resolve().parent.parent
WORK = ROOT / ".perfbench_work"

SETUP_SAMPLES = 11         # this process's first import plus ten fresh processes
TAIL_BEYOND = 10           # the tail percentile keeps this many invocations beyond it
MIN_INVOCATIONS = 2 * TAIL_BEYOND + 1   # so the tail percentile is never below the median
# cycles drawn before timing; several times what a 30 s run consumes today
MAX_CYCLES = {"frame_exact": 40, "chart_report": 200, "chart_sweep": 250}
# warm-up invocation per workload: a golden argv of known_answers.json
WARMUP_GOLDEN = {"frame_exact": "identities_h21", "chart_report": "classify_sine_cone",
                 "chart_sweep": "classify_sine_cone"}

END_TO_END_UNITS = {"latency_p50_ms": "ms", "latency_tail_ms": "ms",
                    "checks_per_s": "rows/s", "peak_rss_mb": "MB", "setup_s": "s"}

# per-layer metric -> unit; values are means per traced invocation unless the
# unit says otherwise
PER_LAYER_UNITS = {
    "cli.self_ms": "ms/inv",
    "resolve.calls": "count/inv", "resolve.ms": "ms/inv",
    "expr.parse.calls": "count/inv", "expr.parse.ms": "ms/inv",
    "frame.build.calls": "count/inv", "frame.build.ms": "ms/inv",
    "chart.sample.ms": "ms/inv", "chart.metric_at.calls": "count/inv",
    "chart.eval_field.calls": "count/inv", "chart.eval_field_jets.calls": "count/inv",
    "chart.eval_field_jets.self_ms": "ms/inv",
    "expr.eval.nodes": "count/inv", "expr.eval.ms": "ms/inv", "jet.allocs": "count/inv",
    "geometry.metric_jets.calls": "count/inv", "geometry.metric_jets.self_ms": "ms/inv",
    "geometry.christoffel.calls": "count/inv", "geometry.christoffel.self_ms": "ms/inv",
    "geometry.curvature.calls": "count/inv", "geometry.curvature.self_ms": "ms/inv",
    "geometry.covariant_derivative.calls": "count/inv",
    "geometry.covariant_derivative.self_ms": "ms/inv",
    "geometry.metric_jets_per_point": "ratio",
    "frame.riemann.calls": "count/inv", "frame.curvature_vector.calls": "count/inv",
    "frame.riemann_hit_ratio": "ratio", "frame.self_ms": "ms/inv",
    "structures.classify.self_ms": "ms/inv",
    "structures.contact_point_data.calls": "count/inv",
    "structures.contact_point_data.self_ms": "ms/inv",
    "structures.hermitian_point_data.calls": "count/inv",
    "structures.check_kappa_mu.self_ms": "ms/inv",
    "identities.self_ms": "ms/inv", "identities.quadruples": "count/inv",
    "identities.quadruples_per_ms": "1/ms",
    "identities.exact_rows": "count/inv", "identities.float_rows": "count/inv",
    "constructions.build_cone.ms": "ms/inv",
    "constructions.check_submersion_lift.self_ms": "ms/inv",
    "constructions.induce_hypersurface.self_ms": "ms/inv",
    "trace.overhead_pct": "%",
}

RESOLVE = ("constructions.registry.resolve_target", "manifold_io.load_manifold_file",
           "manifold_io.load_manifold_text")
CHECKERS = ("identities.check_contact", "identities.check_c_alpha",
            "identities.check_hermitian", "identities.consequence_suite")


def setup_seconds(first_import: tuple[float, float, float]
                  ) -> tuple[list[float], list[float]]:
    """First-import times: this process's own, then fresh interpreters, each
    as ``setup_probe.probe`` gives it. Returns (raw, scaled) seconds."""
    probes = [first_import]
    for _ in range(SETUP_SAMPLES - 1):
        done = subprocess.run([sys.executable, setup_probe.__file__],
                              cwd=ROOT, capture_output=True, text=True,
                              timeout=60, check=True)
        probes.append(tuple(float(x) for x in done.stdout.split()))
    return [p[1] for p in probes], [setup_probe.scaled(*p) for p in probes]


class Loop:
    """One client, one invocation at a time; counts attempts and failures.
    ``speed`` samples the calibration kernel around every invocation (and
    during it, unless the run is traced), outside the invocation's time."""

    def __init__(self, trace: bool):
        self.attempted = 0
        self.failed = 0
        self.problems: list[str] = []
        self.speed = calibrate.Speed(during=not trace)

    def invoke(self, argv) -> tuple[int | None, float, str, float]:
        """Returns (exit code, seconds, stdout, scale to the reference speed)."""
        out, err = io.StringIO(), io.StringIO()
        gc.collect()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            self.speed.start()
            t0 = time.perf_counter()
            try:
                code = cli.run(list(argv))
            except Exception as e:  # a raising invocation is a failed one
                code = None
                out.write(f"raised {type(e).__name__}: {e}")
            finally:
                dt = time.perf_counter() - t0
                sampling, scale = self.speed.stop()
        self.attempted += 1
        return code, dt - sampling, out.getvalue(), scale

    def fail(self, label: str, argv, problems: list[str]):
        self.failed += 1
        self.problems.append(f"{label} {' '.join(argv)}: {'; '.join(problems)}")

    def warm_up(self, argv, code_want: int, golden: str):
        code, _, out, _ = self.invoke(argv)
        problems = []
        if code != code_want:
            problems.append(f"exit code {code}, expected {code_want}")
        if out != golden:
            problems.append("stdout differs from the golden file")
        if problems:
            self.fail("golden", argv, problems)

    def run_pass(self, cycles, seconds: float | None, n_cycles: int | None = None,
                 tracer: Tracer | None = None, min_invocations: int = 0):
        """Run whole cycles until ``seconds`` have passed (and at least
        ``min_invocations`` ran) or, if ``n_cycles`` is given, exactly that
        many. Returns (per-invocation raw seconds, their scales to the
        reference speed, rows emitted, cycles run)."""
        times, scales, rows, done = [], [], 0, 0
        t_start = time.perf_counter()
        for cycle in cycles:
            for inv in cycle:
                if tracer is not None:
                    tracer.invocation = self.attempted
                code, dt, out, scale = self.invoke(inv.argv)
                times.append(dt)
                scales.append(scale)
                problems = (known.check_invocation(inv, code, out) if code is not None
                            else [out])
                if problems:
                    self.fail(inv.label, inv.argv, problems)
                rows += out.count('"tag":')
            done += 1
            if n_cycles is not None:
                if done == n_cycles:
                    break
            elif time.perf_counter() - t_start >= seconds and len(times) >= min_invocations:
                break
        return times, scales, rows, done


def tail(times_ms: list[float]) -> tuple[float, float]:
    """Value with exactly TAIL_BEYOND invocations above it, and its percentile."""
    ordered = sorted(times_ms)
    k = max(len(ordered) - 1 - TAIL_BEYOND, 0)
    return ordered[k], 100.0 * (k + 1) / len(ordered)


def per_layer(tracer: Tracer, n_inv: int, traced_s: float, untraced_s: float) -> dict:
    agg = tracer.aggregate()

    def calls(name):
        return tracer.calls.get(name, 0) + tracer.counts.get(name, 0)

    def self_ms(prefix=None, name=None):
        return 1e3 * sum(a[2] for k, a in agg.items()
                         if (name is not None and k == name)
                         or (prefix is not None and k.startswith(prefix)))

    def total_ms(name):
        return 1e3 * agg[name][1] if name in agg else 0.0

    resolve_n, resolve_s = tracer.outermost(RESOLVE)
    _, checker_s = tracer.outermost(CHECKERS)
    riemann = calls("frame.FrameGeometry.riemann")
    jets = calls("geometry.metric_jets")
    totals = {
        "cli.self_ms": self_ms(prefix="cli."),
        "resolve.calls": resolve_n,
        "resolve.ms": 1e3 * resolve_s,
        "expr.parse.calls": calls("expr.parse_expr"),
        "expr.parse.ms": total_ms("expr.parse_expr"),
        "frame.build.calls": calls("frame.FrameGeometry.__init__"),
        "frame.build.ms": total_ms("frame.FrameGeometry.__init__"),
        "chart.sample.ms": total_ms("chart.sample"),
        "chart.metric_at.calls": calls("chart.Chart.metric_at"),
        "chart.eval_field.calls": calls("chart.eval_field"),
        "chart.eval_field_jets.calls": calls("chart.eval_field_jets"),
        "chart.eval_field_jets.self_ms": self_ms(name="chart.eval_field_jets"),
        "expr.eval.nodes": calls("expr.eval_expr"),
        "expr.eval.ms": 1e3 * tracer.eval_outer_s,
        "jet.allocs": calls("jet.Jet2.__init__"),
        "frame.riemann.calls": riemann,
        "frame.curvature_vector.calls": calls("frame.FrameGeometry.curvature_vector"),
        "frame.self_ms": self_ms(prefix="frame."),
        "structures.classify.self_ms": self_ms(name="structures.classify"),
        "structures.contact_point_data.calls": calls("structures.contact_point_data"),
        "structures.contact_point_data.self_ms": self_ms(name="structures.contact_point_data"),
        "structures.hermitian_point_data.calls": calls("structures.hermitian_point_data"),
        "structures.check_kappa_mu.self_ms": self_ms(name="structures.check_kappa_mu"),
        "identities.self_ms": self_ms(prefix="identities."),
        "identities.quadruples": tracer.quadruples,
        "identities.exact_rows": tracer.exact_rows,
        "identities.float_rows": tracer.float_rows,
        "constructions.build_cone.ms": total_ms("constructions.cone.build_cone"),
        "constructions.check_submersion_lift.self_ms":
            self_ms(name="constructions.submersion.check_submersion_lift"),
        "constructions.induce_hypersurface.self_ms":
            self_ms(name="constructions.hypersurface.induce_hypersurface"),
    }
    for g in ("metric_jets", "christoffel", "curvature", "covariant_derivative"):
        totals[f"geometry.{g}.calls"] = calls(f"geometry.{g}")
        totals[f"geometry.{g}.self_ms"] = self_ms(name=f"geometry.{g}")
    out = {k: v / n_inv for k, v in totals.items()}
    out["geometry.metric_jets_per_point"] = jets / len(tracer.points) if tracer.points else 0.0
    out["frame.riemann_hit_ratio"] = 1.0 - tracer.riemann_misses / riemann if riemann else 0.0
    out["identities.quadruples_per_ms"] = (tracer.quadruples / (1e3 * checker_s)
                                           if checker_s else 0.0)
    out["trace.overhead_pct"] = 100.0 * (traced_s / untraced_s - 1.0)
    return {k: {"value": out[k], "unit": unit} for k, unit in PER_LAYER_UNITS.items()}


def _environment(seed: int) -> str:
    return (f"env python={platform.python_version()} numpy={np.__version__} "
            f"nproc={len(os.sched_getaffinity(0))} seed={seed}")


def run(workload: str, seed: int, seconds: float, trace: bool,
        first_import: tuple[float, float, float]) -> int:
    if workload not in WORKLOADS:
        print(f"unknown workload {workload!r}; choose from {', '.join(WORKLOADS)}",
              file=sys.stderr)
        return 2
    warm_up = known.golden(ROOT, WARMUP_GOLDEN[workload])
    setup = None if trace else setup_seconds(first_import)

    workdir = WORK / f"inputs-{workload}-{seed}-{os.getpid()}"
    try:
        gen = Generator(workload, seed, workdir)
        cycles = [gen.cycle() for _ in range(MAX_CYCLES[workload])]
        per_cycle = len(cycles[0])
        loop = Loop(trace)
        loop.warm_up(*warm_up)
        print(f"curvlab benchmark workload={workload} seed={seed} seconds={seconds:g} "
              f"trace={int(trace)}")
        print(_environment(seed))
        if not trace:
            times, scales, rows, n_cycles = loop.run_pass(
                cycles, seconds, min_invocations=MIN_INVOCATIONS)
            metrics = end_to_end(times, scales, rows, setup, loop.speed.log)
            print(f"mix {per_cycle} invocations per cycle, {n_cycles} cycles, "
                  f"{len(times)} timed invocations, 1 warm-up (golden)")
        else:
            untraced, u_scales, _, n_cycles = loop.run_pass(cycles, seconds / 2)
            tracer = Tracer()
            with tracer:
                traced, t_scales, _, _ = loop.run_pass(cycles[n_cycles:], None,
                                                       n_cycles, tracer)
            metrics = per_layer(tracer, len(traced), scaled_sum(traced, t_scales),
                                scaled_sum(untraced, u_scales))
            spans = WORK / f"spans-{workload}.tsv"
            tracer.write_spans(spans)
            print(f"mix {per_cycle} invocations per cycle, {n_cycles} cycles untraced "
                  f"then {n_cycles} traced ({len(traced)} invocations), "
                  f"{len(tracer.span_name)} spans written to {spans.relative_to(ROOT)}")
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    for name, m in metrics.items():
        print(f"  {name:<46} {m['value']:>14.6g} {m['unit']}")
    print(f"  {'error_rate':<46} {loop.failed / loop.attempted:>14.6g} ratio "
          f"({loop.failed} failed of {loop.attempted} attempted)")
    for line in loop.problems[:20]:
        print(f"FAILED {line}")
    print(json.dumps({"correct": loop.failed == 0, "attempted": loop.attempted,
                      "failed": loop.failed, "metrics": metrics}))
    return 0


def scaled_sum(times: list[float], scales: list[float]) -> float:
    return sum(t * k for t, k in zip(times, scales))


def end_to_end(times: list[float], scales: list[float], rows: int,
               setup: tuple[list[float], list[float]], cal_log: list[float]) -> dict:
    ms = [1e3 * t * k for t, k in zip(times, scales)]
    tail_ms, pct = tail(ms)
    setup_raw, setup_scaled = setup
    print(f"latency_tail_ms is p{pct:.1f} of {len(ms)} invocations "
          f"({TAIL_BEYOND} beyond it); setup_s is the median of {len(setup_raw)} first imports")
    raw_ms = [1e3 * t for t in times]
    print(f"times are at the reference speed (kernel {calibrate.REF_MS:g} ms); this run's "
          f"kernel median {statistics.median(cal_log):.3f} ms, min {min(cal_log):.3f}, "
          f"max {max(cal_log):.3f}")
    print(f"unscaled: latency_p50_ms {statistics.median(raw_ms):.6g}, latency_tail_ms "
          f"{tail(raw_ms)[0]:.6g}, checks_per_s {rows / sum(times):.6g}, "
          f"setup_s {statistics.median(setup_raw):.6g}")
    values = {
        "latency_p50_ms": statistics.median(ms),
        "latency_tail_ms": tail_ms,
        "checks_per_s": rows / scaled_sum(times, scales),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "setup_s": statistics.median(setup_scaled),
    }
    return {k: {"value": values[k], "unit": END_TO_END_UNITS[k]} for k in END_TO_END_UNITS}
