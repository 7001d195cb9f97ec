"""Coordinate charts, tensor fields and deterministic sampling.

A chart is a single coordinate patch: coordinate names, an open box domain
(possibly unbounded) and the metric components as expression ASTs. Tensor
fields (vectors, one-forms, endomorphisms) are expression arrays over the
same chart. Multi-chart atlases are out of scope; every example here fits
one chart up to measure-zero sets that sampling avoids.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass, field
from typing import Sequence

import numpy as np

from . import expr as ex
from . import jet
from .errors import CurvlabError, SamplingError, SingularMetricError

__all__ = [
    "Interval", "Chart", "TensorField",
    "sample", "eval_field", "eval_field_jets",
    "DOMAIN_MARGIN", "POSITIVE_WINDOW", "UNBOUNDED_WINDOW",
]

DOMAIN_MARGIN = 1e-3
POSITIVE_WINDOW = (0.5, 3.0)
UNBOUNDED_WINDOW = (-2.0, 2.0)


@dataclass(frozen=True)
class Interval:
    """Open interval constraint for one coordinate; endpoints may be inf."""

    lo: float = -math.inf
    hi: float = math.inf

    def __post_init__(self):
        if not self.lo < self.hi:
            raise ValueError(f"empty interval ({self.lo}, {self.hi})")

    def sample_window(self) -> tuple[float, float]:
        lo, hi = self.lo, self.hi
        if math.isinf(lo) and math.isinf(hi):
            return UNBOUNDED_WINDOW
        if lo == 0.0 and math.isinf(hi):
            return POSITIVE_WINDOW
        if math.isinf(hi):
            return (lo + 0.5, lo + 3.0)
        if math.isinf(lo):
            return (hi - 3.0, hi - 0.5)
        if hi - lo <= 2 * DOMAIN_MARGIN:
            raise SamplingError(f"interval ({lo}, {hi}) thinner than twice the margin")
        return (lo + DOMAIN_MARGIN, hi - DOMAIN_MARGIN)


class Chart:
    """A coordinate patch with metric component expressions.

    The metric array is symmetrized at construction; entries may be given
    for the upper triangle only (``None`` below the diagonal is filled in).
    """

    def __init__(self, coords: Sequence[str], metric, domain: Sequence[Interval] | None = None,
                 name: str = ""):
        self.coords = tuple(coords)
        self.dim = len(self.coords)
        if self.dim == 0:
            raise ValueError("chart needs at least one coordinate")
        if len(set(self.coords)) != self.dim:
            raise ValueError("duplicate coordinate names")
        for coord in self.coords:   # an expression must be able to name each coordinate
            try:
                named = ex.parse_expr(coord, self.coords) == ex.Var(coord)
            except CurvlabError:
                named = False
            if not named:
                raise ValueError(f"coordinate name {coord!r} does not parse as a variable")
        self.name = name
        if domain is None:
            domain = [Interval()] * self.dim
        if len(domain) != self.dim:
            raise ValueError("one domain interval per coordinate required")
        self.domain = tuple(domain)
        self.metric = self._symmetrize(metric)
        self.upper = tuple((i, j) for i in range(self.dim) for j in range(i, self.dim))

    @functools.cached_property
    def metric_program(self) -> ex.Program:
        """The upper triangle row by row, compiled on first run, for
        ``metric_at`` and ``metric_jets``."""
        return ex.Program(self.metric[ij] for ij in self.upper)

    def _symmetrize(self, metric) -> np.ndarray:
        m = np.empty((self.dim, self.dim), dtype=object)
        for i in range(self.dim):
            for j in range(self.dim):
                m[i, j] = None
        for i in range(self.dim):
            for j in range(self.dim):
                entry = metric[i][j] if not isinstance(metric, np.ndarray) else metric[i, j]
                if entry is None:
                    continue
                if isinstance(entry, str):
                    entry = ex.parse_expr(entry, self.coords)
                if m[j, i] is not None and m[j, i] != entry:
                    raise ValueError(f"metric entries ({i},{j}) and ({j},{i}) disagree")
                m[i, j] = m[j, i] = entry
        for i in range(self.dim):
            for j in range(self.dim):
                if m[i, j] is None:
                    m[i, j] = ex.Num(0)
        return m

    def parse(self, text: str) -> ex.Expr:
        return ex.parse_expr(text, self.coords)

    def env(self, p: Sequence[float], jets: bool = False) -> dict:
        """Coordinate values at a point ``p`` (d,), as floats, or at each row
        of ``p`` (N, d), as arrays over the N points; seeded jets when
        ``jets``."""
        p = np.asarray(p, dtype=float)
        if jets:
            values = jet.seeds(p)
        else:
            values = list(p.T) if p.ndim > 1 else p.tolist()
        return dict(zip(self.coords, values))

    def metric_at(self, p: Sequence[float]) -> np.ndarray:
        """Metric matrix at a point ``p`` (d,), or stacked (N, d, d) at each
        row of ``p`` (N, d); one run (floats) of the metric program."""
        g = np.empty(np.shape(p)[:-1] + (self.dim, self.dim))
        for (i, j), v in zip(self.upper, self.metric_program.run(self.env(p))):
            g[..., i, j] = g[..., j, i] = v
        return g

    def check_spd(self, p: Sequence[float]):
        """Positive definiteness via leading principal minors, at a point or
        at each row of ``p``; names the first failing point and its first
        failing minor. A non-finite minor fails too, NaN included."""
        pts = np.asarray(p, dtype=float).reshape(-1, self.dim)
        g = self.metric_at(pts)
        minors = np.stack([np.linalg.det(g[:, :k, :k]) for k in range(1, self.dim + 1)], axis=1)
        bad = ~(np.isfinite(minors) & (minors > 0.0))
        if bad.any():
            n, k = divmod(int(np.argmax(bad)), self.dim)
            raise SingularMetricError(f"metric not positive definite at "
                                      f"{tuple(pts[n].tolist())} (leading minor {k + 1})")

    def __repr__(self) -> str:
        label = self.name or ",".join(self.coords)
        return f"Chart({label}, dim={self.dim})"


_VALENCE_SHAPES = {"vector": 1, "oneform": 1, "endomorphism": 2}


@dataclass(frozen=True)
class TensorField:
    """Expression-valued tensor field over a chart.

    ``valence`` is one of ``vector`` (components ξ^i), ``oneform``
    (components η_i) or ``endomorphism`` (matrix φ^i_j, row = output index).
    """

    chart: Chart
    valence: str
    components: np.ndarray = field(repr=False)

    def __post_init__(self):
        if self.valence not in _VALENCE_SHAPES:
            raise ValueError(f"unsupported valence {self.valence!r}")
        rank = _VALENCE_SHAPES[self.valence]
        comp = np.asarray(self.components, dtype=object)
        expected = (self.chart.dim,) * rank
        if comp.shape != expected:
            raise ValueError(f"{self.valence} components must have shape {expected}")
        parsed = np.empty(expected, dtype=object)
        for idx in np.ndindex(expected):
            entry = comp[idx]
            if isinstance(entry, str):
                entry = ex.parse_expr(entry, self.chart.coords)
            elif entry is None:
                entry = ex.Num(0)
            parsed[idx] = entry
        object.__setattr__(self, "components", parsed)

    @functools.cached_property
    def program(self) -> ex.Program:
        """The components in C order, compiled on first run."""
        return ex.Program(self.components.flat)


def eval_field(f: TensorField, p: Sequence[float]) -> np.ndarray:
    """All components of ``f`` at a point ``p`` as floats, from one run of
    its program; at each row of ``p`` (N, d), on a leading point axis."""
    out = np.empty(np.shape(p)[:-1] + f.components.shape)
    for idx, v in zip(np.ndindex(f.components.shape), f.program.run(f.chart.env(p))):
        out[(..., *idx)] = v
    return out


def _expr_jets(program: ex.Program, env: dict, hessians: bool = False):
    """Values and coordinate gradients of the roots of ``program`` from one
    run in the jet environment ``env`` (one seed per coordinate, at a point
    or at N points), with the second derivatives too when ``hessians``. A
    root that evaluates to a constant keeps zero derivatives. Batched seeds
    put the point axis first: vals[n, r], grads[n, r, k]."""
    lead = next(iter(env.values())).value.shape
    shape, dim = lead + (len(program.roots),), len(env)
    vals = np.empty(shape)
    grads = np.zeros(shape + (dim,))
    hess = np.zeros(shape + (dim, dim)) if hessians else None
    for r, v in enumerate(program.run(env, ex.JET)):
        at = (slice(None),) * len(lead) + (r,)
        if isinstance(v, jet.Jet2):
            vals[at], grads[at] = v.value, v.grad
            if hessians:
                hess[at] = v.hess
        else:
            vals[at] = float(v)
    return (vals, grads, hess) if hessians else (vals, grads)


def eval_field_jets(f: TensorField, p: Sequence[float]) -> tuple[np.ndarray, np.ndarray]:
    """Components and their coordinate gradients at ``p``, or at each row of
    ``p`` (N, d) on a leading point axis.

    Returns ``(values, grads)`` where ``grads[..., k]`` is the partial
    derivative of the component along coordinate k.
    """
    vals, grads = _expr_jets(f.program, f.chart.env(p, jets=True))
    shape = vals.shape[:-1] + f.components.shape
    return vals.reshape(shape), grads.reshape(shape + grads.shape[-1:])


def sample(chart: Chart, n_points: int, seed: int) -> np.ndarray:
    """Draw points uniformly from the bounded part of the domain, as an
    (n_points, dim) array.

    Deterministic for a fixed ``(chart, n_points, seed)``. Unbounded
    coordinates are drawn from (−2, 2); strictly positive ones from (0.5, 3);
    bounded ones keep a 1e−3 margin from the open ends. Every sampled point
    is checked positive definite. Checks that need directions at a point
    sweep a basis there, never sampled vectors.
    """
    if n_points < 1:
        raise ValueError("n_points must be at least 1")
    lo, hi = np.array([iv.sample_window() for iv in chart.domain]).T
    # one draw of N × d uniforms, row by row: the stream of N·d scalar draws
    pts = np.random.default_rng(seed).uniform(lo, hi, size=(n_points, chart.dim))
    chart.check_spd(pts)
    return pts
