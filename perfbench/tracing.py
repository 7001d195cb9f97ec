"""Tracing harness that wraps curvlab's public functions from outside.

``Tracer.install()`` replaces every public function and public method of
every ``curvlab`` module at *every binding site*: the defining module, each
module that imported it by name (``from .structures import classify``) and
the package namespaces. Wrapping only the defining module would miss the
by-name imports; ``identities`` and ``cli`` call ``contact_point_data``,
``check_*``, ``classify``, ``sample`` and ``resolve_target`` that way.

Hot functions get count-only wrappers (``HOT``); ``expr.eval_expr`` also
times its outermost calls. Every other function gets a span: name, start,
end, parent span and invocation id. Spans stay in memory and are written
by ``write_spans`` when the run ends. ``uninstall()`` restores every
original binding.
"""

from __future__ import annotations

import importlib
import inspect
import pkgutil
import time
from array import array
from collections import defaultdict
from pathlib import Path

import numpy as np

# functions that get count-only wrappers instead of spans
HOT = ("expr.eval_expr", "jet.Jet2.__init__", "frame.FrameGeometry.riemann")
# constructors wrapped as spans although their names are private
INITS = ("frame.FrameGeometry.__init__",)
# the scalar rings are eval_expr's per-node dispatch; eval_expr counts them
SKIP_CLASSES = ("expr.Ring", "expr.RealRing", "expr.JetRing", "expr.RationalRing")

# identity checkers whose return values carry n_quadruples / exact
_REPORTING = ("identities.check_contact", "identities.check_c_alpha",
              "identities.check_hermitian", "identities.consequence_suite")


def _short(module_name: str) -> str:
    return module_name.split(".", 1)[1] if "." in module_name else module_name


def curvlab_modules():
    import curvlab
    mods = [curvlab]
    for info in pkgutil.walk_packages(curvlab.__path__, "curvlab."):
        mods.append(importlib.import_module(info.name))
    return mods


def public_callables(modules):
    """(qualified name, owner, attribute, function) for every public function
    defined in ``modules`` and every public method of their public classes."""
    out = []
    for mod in modules:
        short = _short(mod.__name__)
        for name, obj in vars(mod).items():
            if name.startswith("_"):
                continue
            if inspect.isfunction(obj) and obj.__module__ == mod.__name__:
                out.append((f"{short}.{name}", mod, name, obj))
            elif (inspect.isclass(obj) and obj.__module__ == mod.__name__
                  and f"{short}.{name}" not in SKIP_CLASSES):
                for attr, fn in vars(obj).items():
                    qual = f"{short}.{name}.{attr}"
                    if inspect.isfunction(fn) and (not attr.startswith("_") or qual in INITS
                                                   or qual in HOT):
                        out.append((qual, obj, attr, fn))
    return out


class Tracer:
    """Span and counter recorder for one process; install, run, uninstall.

    Spans are stored column-wise, indexed by span id (assigned at span
    start), so a run of a million spans stays within a few tens of MB.
    """

    def __init__(self):
        self.names = []                 # span name code -> qualified name
        self._codes = {}
        self.span_name = array("H")
        self.span_parent = array("q")
        self.span_inv = array("q")
        self.span_start = array("d")
        self.span_end = array("d")
        self.span_self = array("d")
        self.counts = defaultdict(int)
        self.calls = defaultdict(int)
        self.eval_outer_s = 0.0
        self.riemann_misses = 0
        self.quadruples = 0
        self.exact_rows = 0
        self.float_rows = 0
        self.points = set()      # (invocation, id(chart), point bytes) seen by metric_jets
        self.invocation = -1
        self._stack = []         # [span id, child seconds] of open spans
        self._eval_depth = 0
        self._restore = []

    def _code(self, name: str) -> int:
        if name not in self._codes:
            self._codes[name] = len(self.names)
            self.names.append(name)
        return self._codes[name]

    # -- wrappers ------------------------------------------------------------

    def _span(self, name, fn):
        tracer = self
        code = self._code(name)
        hook = self._return_hook if name in _REPORTING else None
        jets = name == "geometry.metric_jets"
        calls, stack = self.calls, self._stack
        s_name, s_parent, s_inv = self.span_name, self.span_parent, self.span_inv
        s_start, s_end, s_self = self.span_start, self.span_end, self.span_self

        def wrapper(*args, **kwargs):
            sid = len(s_name)
            calls[name] += 1
            s_name.append(code)
            s_parent.append(stack[-1][0] if stack else -1)
            s_inv.append(tracer.invocation)
            s_start.append(0.0)
            s_end.append(0.0)
            s_self.append(0.0)
            frame = [sid, 0.0]
            stack.append(frame)
            if jets:
                tracer.points.add((tracer.invocation, id(args[0]),
                                   np.asarray(args[1], dtype=float).tobytes()))
            t0 = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                t1 = time.perf_counter()
                stack.pop()
                dur = t1 - t0
                if stack:
                    stack[-1][1] += dur
                s_start[sid] = t0
                s_end[sid] = t1
                s_self[sid] = dur - frame[1]
            if hook is not None:
                hook(result)
            return result

        return wrapper

    def _return_hook(self, result):
        reports = result.values() if isinstance(result, dict) else (result,)
        for rep in reports:
            self.quadruples += rep.n_quadruples
            if rep.exact is not None:
                self.exact_rows += 1
            else:
                self.float_rows += 1

    def _count(self, name, fn):
        tracer = self
        counts = self.counts
        if name == "expr.eval_expr":
            def wrapper(*args, **kwargs):
                counts[name] += 1
                if tracer._eval_depth:
                    return fn(*args, **kwargs)
                tracer._eval_depth = 1
                t0 = time.perf_counter()
                try:
                    return fn(*args, **kwargs)
                finally:
                    tracer.eval_outer_s += time.perf_counter() - t0
                    tracer._eval_depth = 0
            # nested calls go through the module global, so they see depth 1
            return wrapper
        if name == "frame.FrameGeometry.riemann":
            calls = self.calls

            def wrapper(*args, **kwargs):
                counts[name] += 1
                before = calls["frame.FrameGeometry.curvature_vector"]
                result = fn(*args, **kwargs)
                if calls["frame.FrameGeometry.curvature_vector"] != before:
                    tracer.riemann_misses += 1
                return result
            return wrapper

        def wrapper(*args, **kwargs):
            counts[name] += 1
            return fn(*args, **kwargs)
        return wrapper

    # -- install ---------------------------------------------------------------

    def install(self):
        if self._restore:
            raise RuntimeError("tracer already installed")
        modules = curvlab_modules()
        wrapped = {}
        for qual, owner, attr, fn in public_callables(modules):
            wrapper = self._count(qual, fn) if qual in HOT else self._span(qual, fn)
            wrapper.__wrapped__ = fn
            wrapped[id(fn)] = (fn, wrapper)
            self._restore.append((owner, attr, fn))
            setattr(owner, attr, wrapper)
        # by-name imports: any module attribute still bound to an original
        for mod in modules:
            for attr, obj in list(vars(mod).items()):
                hit = wrapped.get(id(obj))
                if hit is not None and hit[0] is obj:
                    self._restore.append((mod, attr, obj))
                    setattr(mod, attr, hit[1])
        return self

    def uninstall(self):
        for owner, attr, fn in reversed(self._restore):
            setattr(owner, attr, fn)
        self._restore = []

    def __enter__(self):
        return self.install()

    def __exit__(self, *exc):
        self.uninstall()
        return False

    # -- results ---------------------------------------------------------------

    def aggregate(self):
        """name -> [calls, total seconds, self seconds] over all spans."""
        agg = defaultdict(lambda: [0, 0.0, 0.0])
        names = self.names
        for code, t0, t1, self_s in zip(self.span_name, self.span_start,
                                        self.span_end, self.span_self):
            a = agg[names[code]]
            a[0] += 1
            a[1] += t1 - t0
            a[2] += self_s
        return agg

    def outermost(self, names) -> tuple[int, float]:
        """Calls and seconds of spans named in ``names`` with no ancestor in it."""
        codes = {self._codes[n] for n in names if n in self._codes}
        parent, span_name = self.span_parent, self.span_name
        n, total = 0, 0.0
        for sid, code in enumerate(span_name):
            if code not in codes:
                continue
            p = parent[sid]
            while p != -1 and span_name[p] not in codes:
                p = parent[p]
            if p == -1:
                n += 1
                total += self.span_end[sid] - self.span_start[sid]
        return n, total

    def write_spans(self, path: Path):
        """Spans as tab-separated lines, one per span id."""
        path.parent.mkdir(parents=True, exist_ok=True)
        names = self.names
        with open(path, "w", encoding="utf-8") as fh:
            fh.write("id\tname\tparent\tinvocation\tstart_s\tend_s\tself_s\n")
            for sid, (code, parent, inv, t0, t1, self_s) in enumerate(zip(
                    self.span_name, self.span_parent, self.span_inv,
                    self.span_start, self.span_end, self.span_self)):
                fh.write(f"{sid}\t{names[code]}\t{parent}\t{inv}\t"
                         f"{t0:.9f}\t{t1:.9f}\t{self_s:.9f}\n")
