"""Seeded input generator for the three benchmark workloads.

A workload is an endless sequence of *cycles*; a cycle is a fixed list of
invocation classes, each drawn with fresh parameters (a fresh ``--seed``, a
fresh ``(c, s)`` pair or α, freshly written files). Runs consume whole
cycles, so the class mix of every run is exact.

Stated ranges (everything is drawn from ``random.Random(seed)``):

* ``(c, s)``: Euclid pairs ``(m² − n², 2mn) / (m² + n²)`` with
  ``2 ≤ m ≤ 8``, ``1 ≤ n < m``, ``gcd(m, n) = 1``, ``m − n`` odd; the two
  legs are swapped and negated at random. Denominators run from 5 to 113.
* α: ``k/4`` with ``k`` uniform in ``[−8, 8]``; dyadic, so the CLI's float
  conversion keeps it exact and ``c(α) = 1 + |α|`` stays exact on frames.
* ``--seed``: uniform in ``[0, 2³¹)``.
* ``--samples``: within ±15% of a nominal count per invocation class,
  see ``SAMPLES``.
* bare ``[chart]`` files: dimension uniform in ``[3, 6]``; each diagonal
  entry is ``3/2`` plus 1 to 3 squared bounded terms, each off-diagonal
  entry is zero or 1 to 3 bounded terms whose coefficients sum to at most
  ``1/5`` in absolute value. The diagonal therefore dominates every row
  (``3/2 > 5 · 1/5``), so the metric is positive definite at every point.

Each invocation carries what its known answer depends on (the target
family, the checks, α); ``known.py`` turns that into expected verdicts.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass
from fractions import Fraction
from pathlib import Path

WORKLOADS = ("frame_exact", "chart_report", "chart_sweep")

# The chart classes and their nominal --samples, chosen so that every class
# of a workload costs about the same: about 200 ms per invocation on
# chart_report and 100 ms on chart_sweep, measured on a 2-core x86 VM. Each
# draw lies within ±15% of the nominal value. A bare chart of dimension d
# gets BARE_POINTS // d² points, since its cost per point grows like d².
SAMPLES = {
    "chart_report": {
        "classify": {"s5_in_c3": 7, "hopf_pair": 17, "sine_cone_cos": 8,
                     "sine_cone_sin": 8, "r_warped_surface": 17, "flat_cosym5": 15,
                     "h21_chart": 6},
        "report": {"s5_in_c3": 6, "hopf_pair": 12, "sine_cone_cos": 7,
                   "sine_cone_sin": 8, "r_warped_surface": 13, "flat_cosym5": 12,
                   "h21_chart": 9},
    },
    "chart_sweep": {
        "identities": {"s5_in_c3": 5, "h21_chart": 5, "flat_cosym5": 9,
                       "sine_cone_cos": 5, "sine_cone_sin": 6, "r_warped_surface": 11},
        "cone": {"s5_in_c3": 14, "h21_chart": 20, "flat_cosym5": 19,
                 "sine_cone_cos": 12, "sine_cone_sin": 10},
    },
}
BARE_POINTS = 600

SWEEP_CHECKS = ("g1", "g2", "g3", "kappa-mu(1,0)", "consequences")


@dataclass(frozen=True)
class Invocation:
    """One CLI invocation: its argv, its class label (for reports) and the
    facts the known-answer checker needs."""

    argv: tuple
    label: str
    command: str          # classify | identities | report
    family: str           # known-answer family, e.g. "h21", "s5_in_c3", "bare"
    checks: tuple = ()    # identities: parsed --which tokens
    alpha: Fraction | None = None
    cone: bool = False


def euclid_pairs(max_m: int = 8) -> list[tuple[int, int]]:
    return [(m, n) for m in range(2, max_m + 1) for n in range(1, m)
            if math.gcd(m, n) == 1 and (m - n) % 2 == 1]


class Generator:
    """Draws the invocations of one workload from one seed.

    Files go to ``workdir``; every call to :meth:`cycle` writes the files of
    that cycle before returning, so a caller that draws all its cycles
    before timing writes every input before timing starts.
    """

    def __init__(self, workload: str, seed: int, workdir: Path):
        if workload not in WORKLOADS:
            raise ValueError(f"unknown workload {workload!r}")
        self.workload = workload
        self.rng = random.Random(f"{workload}:{seed}")
        self.workdir = Path(workdir)
        self.workdir.mkdir(parents=True, exist_ok=True)
        self.n_files = 0
        self._pairs = euclid_pairs()

    # -- draws -------------------------------------------------------------

    def pythagorean(self) -> tuple[Fraction, Fraction]:
        m, n = self.rng.choice(self._pairs)
        h = m * m + n * n
        c, s = Fraction(m * m - n * n, h), Fraction(2 * m * n, h)
        if self.rng.random() < 0.5:
            c, s = s, c
        if self.rng.random() < 0.5:
            c = -c
        if self.rng.random() < 0.5:
            s = -s
        return c, s

    def alpha(self) -> Fraction:
        return Fraction(self.rng.randint(-8, 8), 4)

    def seed_args(self, nominal: int | None) -> list[str]:
        args = ["--seed", str(self.rng.randrange(2 ** 31)), "--json"]
        if nominal is not None:
            lo, hi = max(1, round(0.85 * nominal)), round(1.15 * nominal)
            args += ["--samples", str(self.rng.randint(lo, hi))]
        return args

    def _path(self, stem: str) -> Path:
        self.n_files += 1
        return self.workdir / f"{stem}_{self.n_files:05d}.txt"

    # -- files -------------------------------------------------------------

    def frame_file(self, c: Fraction, s: Fraction) -> str:
        """The h21 frame of ``frame.heisenberg_h21`` as a ``[frame]`` file."""
        phi = {(3, 1): c, (4, 1): s, (3, 2): s, (4, 2): -c,
               (1, 3): -c, (2, 3): -s, (1, 4): -s, (2, 4): c}
        lines = ["[frame]", "dim = 5",
                 'c[5][1][3] = "2"', 'c[5][2][4] = "2"']
        lines += [f'g[{i}][{i}] = "1"' for i in range(1, 6)]
        lines += [f'phi[{i}][{j}] = "{v}"' for (i, j), v in sorted(phi.items())]
        lines += ['xi[5] = "1"', 'eta[5] = "1"']
        path = self._path("frame")
        path.write_text("\n".join(lines) + "\n", encoding="utf-8")
        return str(path)

    def _bounded_term(self, coords: list[str]) -> str:
        x, y = self.rng.choice(coords), self.rng.choice(coords)
        k = self.rng.randint(1, 3)
        b = self.rng.randint(-3, 3)
        kind = self.rng.randrange(4)
        if kind == 0:
            return f"sin({k}*{x} + {b}/4)"
        if kind == 1:
            return f"cos({k}*{x} - {y}/2)"
        if kind == 2:
            return f"{x}/(1 + {x}^2)"
        return f"{x}*{y}/(1 + {x}^2 + {y}^2)"

    def bare_chart_file(self) -> tuple[str, int]:
        dim = self.rng.randint(3, 6)
        coords = [f"x{i}" for i in range(1, dim + 1)]
        lines = ["[chart]", f"dim = {dim}", f'coords = "{", ".join(coords)}"',
                 "[metric]"]
        for i in range(dim):
            for j in range(i, dim):
                if i == j:
                    terms = [f"{self.rng.randint(1, 4)}/8*({self._bounded_term(coords)})^2"
                             for _ in range(self.rng.randint(1, 3))]
                    text = "3/2 + " + " + ".join(terms)
                elif self.rng.random() < 0.5:
                    n = self.rng.randint(1, 3)
                    # coefficients ±1/(5n): their absolute values sum to 1/5
                    terms = [f"{self.rng.choice((1, -1))}/{5 * n}*{self._bounded_term(coords)}"
                             for _ in range(n)]
                    text = " + ".join(terms)
                else:
                    continue
                lines.append(f'g_{i + 1}_{j + 1} = "{text}"')
        path = self._path("chart")
        path.write_text("\n".join(lines) + "\n", encoding="utf-8")
        return str(path), dim

    # -- cycles ------------------------------------------------------------

    def cycle(self) -> list[Invocation]:
        return getattr(self, f"_cycle_{self.workload}")()

    def _frame(self, command: str, which: str | None, use_file: bool) -> Invocation:
        c, s = self.pythagorean()
        target = self.frame_file(c, s) if use_file else f"h21:{c},{s}"
        argv = [command, target]
        checks, alpha = (), None
        if which is not None:
            if which == "c":
                alpha = self.alpha()
                which = f"c({alpha})"
            argv += ["--which", which]
            checks = (which,)
        label = f"{command}.{which or ''}".rstrip(".")
        return Invocation(argv=tuple(argv + self.seed_args(None)), label=label,
                          command=command, family="h21", checks=checks, alpha=alpha)

    def _cycle_frame_exact(self) -> list[Invocation]:
        return [
            self._frame("classify", None, False),
            self._frame("classify", None, True),
            self._frame("identities", "kappa-mu(1,0)", True),
            self._frame("identities", "g1", False),
            self._frame("identities", "g2", True),
            self._frame("identities", "g3", False),
            self._frame("identities", "c", True),
            self._frame("identities", "c", False),
            self._frame("identities", "consequences", True),
        ]

    def _target(self, name: str) -> str:
        if name == "h21_chart":
            c, s = self.pythagorean()
            return f"h21_chart:{c},{s}"
        return name

    def _cycle_chart_report(self) -> list[Invocation]:
        out = []
        for name in SAMPLES["chart_report"]["classify"]:
            for command in ("classify", "report"):
                target = self._target(name)
                out.append(Invocation(
                    argv=(command, target,
                          *self.seed_args(SAMPLES["chart_report"][command][name])),
                    label=f"{command}.{name}", command=command, family=name))
        return out

    def _cycle_chart_sweep(self) -> list[Invocation]:
        out = []
        for name, nominal in SAMPLES["chart_sweep"]["identities"].items():
            target = self._target(name)
            alpha = self.alpha()
            checks = SWEEP_CHECKS[:3] + (f"c({alpha})",) + SWEEP_CHECKS[3:]
            out.append(Invocation(
                argv=("identities", target, "--which", ",".join(checks),
                      *self.seed_args(nominal)),
                label=f"identities.{name}", command="identities", family=name,
                checks=checks, alpha=alpha))
        for name, nominal in SAMPLES["chart_sweep"]["cone"].items():
            target = self._target(name)
            out.append(Invocation(
                argv=("report", f"cone_of:{target}",
                      *self.seed_args(nominal)),
                label=f"report.cone_of.{name}", command="report", family=name,
                cone=True))
        for _ in range(3):
            path, dim = self.bare_chart_file()
            out.append(Invocation(
                argv=("report", path, *self.seed_args(BARE_POINTS // dim ** 2)),
                label="report.bare_chart", command="report", family="bare"))
        return out
