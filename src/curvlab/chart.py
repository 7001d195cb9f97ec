"""Coordinate charts, tensor fields and deterministic sampling.

A chart is a single coordinate patch: coordinate names, an open box domain
(possibly unbounded) and the metric components as expression ASTs. Tensor
fields (vectors, one-forms, endomorphisms) are expression arrays over the
same chart; a structure compiles the programs of its fields (structures.py).
Multi-chart atlases are out of scope; every example here fits one chart up
to measure-zero sets that sampling avoids.

``sample`` draws the points of an invocation and runs the metric program
once over the jet ring there: the positive-definiteness check reads that
run's g, and every later stage reads its ``MetricJets``. ``Chart.metric_at``
is the float ring's run of the same program, which the tests compare the
jet values against bit for bit.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass, field
from typing import Sequence

import numpy as np

from . import expr as ex
from . import geometry, jet
from .errors import CurvlabError, SamplingError, SingularMetricError

__all__ = [
    "Interval", "Chart", "TensorField", "sample",
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
        ``metric_at`` (floats) and ``sample`` and ``metric_jets`` (jets)."""
        return ex.Program(self.metric[ij] for ij in self.upper)

    def _symmetrize(self, metric) -> np.ndarray:
        m = np.empty((self.dim, self.dim), dtype=object)
        for i in range(self.dim):
            for j in range(self.dim):
                entry = metric[i][j]   # a nested list or an array
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

    def env(self, p: Sequence[float], jets: bool = False, hessians: bool = True) -> dict:
        """Coordinate values at a point ``p`` (d,), as floats, or at each row
        of ``p`` (N, d), as arrays over the N points; seeded jets when
        ``jets``, carrying Hessians when ``hessians``."""
        p = np.asarray(p, dtype=float)
        if jets:
            values = jet.seeds(p, hessians)
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



def _check_spd(pts: np.ndarray, g: np.ndarray):
    """Positive definiteness of the metrics g (N, d, d) at the rows of
    ``pts`` (N, d) via leading principal minors; names the first failing
    point and its first failing minor. A non-finite minor fails too, NaN
    included."""
    d = g.shape[-1]
    minors = np.stack([np.linalg.det(g[:, :k, :k]) for k in range(1, d + 1)], axis=1)
    bad = ~(np.isfinite(minors) & (minors > 0.0))
    if bad.any():
        n, k = divmod(int(np.argmax(bad)), d)
        raise SingularMetricError(f"metric not positive definite at "
                                  f"{tuple(pts[n].tolist())} (leading minor {k + 1})")


def sample(chart: Chart, n_points: int, seed: int) -> geometry.MetricJets:
    """Draw points uniformly from the bounded part of the domain, and the
    metric jets there from one jet run of the metric program; the points
    are ``.point``, an (n_points, dim) array.

    Deterministic for a fixed ``(chart, n_points, seed)``. Unbounded
    coordinates are drawn from (−2, 2); strictly positive ones from (0.5, 3);
    bounded ones keep a 1e−3 margin from the open ends. Every sampled point
    is checked positive definite on the run's g, before g is inverted.
    Checks that need directions at a point sweep a basis there, never
    sampled vectors.
    """
    if n_points < 1:
        raise ValueError("n_points must be at least 1")
    lo, hi = np.array([iv.sample_window() for iv in chart.domain]).T
    # one draw of N × d uniforms, row by row: the stream of N·d scalar draws
    pts = np.random.default_rng(seed).uniform(lo, hi, size=(n_points, chart.dim))
    g, dg, d2g = geometry._metric_arrays(chart, pts)
    _check_spd(pts, g)
    return geometry.MetricJets(pts, g, dg, d2g)
