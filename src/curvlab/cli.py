"""Command-line front end.

Subcommands::

    curvlab list
    curvlab classify <target> [--tol T] [--samples N] [--seed S] [--json]
    curvlab identities <target> --which g1,g2,c(1),kappa-mu(1,0) [...]
    curvlab report <target> [...]

Targets are registry names (``curvlab list``), optionally parameterized
inline (``h21:3/5,4/5``, ``cone_of:s5_in_c3``), or paths to manifold
definition files. Exit status: 0 when every requested verdict holds, 1 when
any check fails, 2 on input errors. The environment variable CURVLAB_SEED
overrides the default sampling seed 42; an explicit --seed wins over both.
A seed must be non-negative.

An invocation is one pipeline: resolve the target to its object, parse the
checks, draw the sample points with the metric jets there (one jet run of
the metric, which also checks it positive definite), reject a check the
target's structure cannot take, build the one point record that every check
reads (one jet run of the structure's fields), sweep every identity row in
one pass (the consequence rows in a second), and emit the rows in the order
asked, each residual checked finite as its row is emitted.
"""

from __future__ import annotations

import argparse
import functools
import json
import math
import os
import re
import sys
from fractions import Fraction

import numpy as np

from .chart import Chart, sample
from .errors import CurvlabError, ManifoldFormatError, RegistryError
from .identities import CONTACT_KINDS, HERMITIAN_KINDS, sweep
from .manifold_io import load_manifold_file
from .structures import (AlmostContactStructure, AlmostHermitianStructure, _checked, _finite,
                         check_kappa_mu, classify, contact_point_data, validate)
from .constructions import (HypersurfaceExample, SubmersionPair, check_submersion_lift,
                            induce_hypersurface, registry_names, resolve_target)
from . import geometry

DEFAULT_SEED = 42
DEFAULT_TOL = 1e-7
DEFAULT_SAMPLES = 20

_CHECK_RE = re.compile(r"^(c|kappa-mu)\(([^)]*)\)$")


def _split_checks(text: str) -> list[str]:
    # commas inside parentheses belong to the check's parameters
    parts, depth, cur = [], 0, []
    for ch in text:
        if ch == "(":
            depth += 1
        elif ch == ")":
            depth -= 1
        if ch == "," and depth == 0:
            parts.append("".join(cur).strip())
            cur = []
        else:
            cur.append(ch)
    if cur:
        parts.append("".join(cur).strip())
    return [p for p in parts if p]


class InputError(Exception):
    pass


def _parse_check(token: str):
    t = token.strip().lower()
    if t in CONTACT_KINDS + HERMITIAN_KINDS or t in ("classify", "consequences"):
        return (t, ())
    m = _CHECK_RE.match(t)
    if m:
        name, args = m.group(1), m.group(2)
        # exact parameters reach the frame engine; each must also be a finite float
        try:
            vals = tuple(Fraction(a.strip()) for a in args.split(",") if a.strip())
            for v in vals:
                float(v)
        except (ValueError, ZeroDivisionError, OverflowError):
            raise InputError(f"bad parameters in check {token!r}") from None
        if name == "c":
            if len(vals) != 1:
                raise InputError(f"c(α) takes one parameter, got {token!r}")
            return ("c_alpha", vals)
        if len(vals) != 2:
            raise InputError(f"kappa-mu takes two parameters, got {token!r}")
        return ("kappa_mu", vals)
    raise InputError(f"unknown check {token!r}")


def _resolve(target: str):
    """The target's object: what a manifold file or registry name defines."""
    if os.path.isfile(target):
        try:
            return load_manifold_file(target)
        except ManifoldFormatError as e:
            raise InputError(f"malformed manifold file: {e}") from None
    try:
        return resolve_target(target)
    except RegistryError as e:
        raise InputError(str(e)) from None


def _witness_json(w):
    if w is None:
        return None
    return {"point": None if w.point is None else [float(x) for x in w.point],
            "vectors": [[float(x) for x in v] for v in w.vectors]}


def _row(tag: str, residual: float, verdict: bool, witness=None, gate=True) -> dict:
    row = {"tag": tag, "residual": float(residual), "verdict": bool(verdict)}
    if witness is not None:
        row["witness"] = witness
    row["_gate"] = gate  # stripped before output
    return row


def _classify_rows(s, rec, tol) -> list[dict]:
    rep = classify(s, rec, tol)
    bools, res = rep.booleans(), rep.residuals()
    rows = [_row("classify.compatibility", res["compatibility"], bools["compatibility"])]
    rows += [_row(f"classify.{tag}", res[tag], res[tag] <= tol, gate=False)
             for tag in ("contact_metric", "contact_metric_raw", "killing_xi",
                         "sasakian_nabla_xi", "sasakian_nabla_phi", "parallel_phi")]
    ric = abs(float(rep.ric_xi_xi) - rep.ric_xi_xi_target)
    return rows + [_row("classify.ric_xi_xi_minus_2n", ric, bools["k_contact_ricci"], gate=False)]


def _identity_rows(s, checks, rec, tol) -> list[dict]:
    if isinstance(s, AlmostHermitianStructure):
        # a Hermitian target takes only k1–k3, so J is validated once, here,
        # as classify validates a contact structure
        compat = max(validate(s, rec).values())
        if compat > tol:
            raise CurvlabError(
                f"structure fails compatibility validation (residual {compat:.3e})")
    reports = iter(sweep([c for c in checks if c[0] not in ("classify", "kappa_mu")], rec, tol))
    rows = []
    for name, args in checks:
        if name == "classify":
            rows.extend(_classify_rows(s, rec, tol))
        elif name == "kappa_mu":
            residual = check_kappa_mu(s, args[0], args[1], rec)
            rows.append(_row(f"kappa-mu({float(args[0]):g},{float(args[1]):g})", residual,
                             residual <= tol))
        else:
            for rep in next(reports):
                residual = _checked(rep.tag, rep.residual)
                witness = None if name == "consequences" else _witness_json(rep.witness)
                rows.append(_row(rep.tag, residual, rep.verdict, witness))
    return rows


def _emit(args, target, seed, tol, rows) -> int:
    gates = [r["verdict"] for r in rows if r.pop("_gate", True)]
    if args.json:
        doc = {"target": target, "seed": seed, "tolerance": tol,
               "checks": [{k: v for k, v in r.items()} for r in rows]}
        print(json.dumps(doc, indent=2))
    else:
        width = max((len(r["tag"]) for r in rows), default=4)
        for r in rows:
            mark = "pass" if r["verdict"] else "FAIL"
            print(f"{r['tag']:<{width}}  {r['residual']:.6e}  {mark}")
            if not r["verdict"] and r.get("witness"):
                w = r["witness"]
                where = "" if w["point"] is None else f" at point {w['point']}"
                print(f"{'':<{width}}  witness{where}: "
                      + "; ".join(str(v) for v in w["vectors"]))
    return 0 if all(gates) else 1


@functools.cache   # one parser per process: parse_args leaves it unchanged
def build_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(prog="curvlab",
                                 description="curvature identity lab")
    sub = ap.add_subparsers(dest="command", required=True)

    def common(p):
        p.add_argument("target", help="registry name or manifold file path")
        p.add_argument("--tol", type=float, default=DEFAULT_TOL)
        p.add_argument("--samples", type=int, default=DEFAULT_SAMPLES,
                       help="sample points for chart sweeps")
        p.add_argument("--seed", type=int, default=None)
        p.add_argument("--json", action="store_true", help="emit a JSON report")

    sub.add_parser("list", help="show registry targets")
    common(sub.add_parser("classify", help="run the classification battery"))
    pi = sub.add_parser("identities", help="run identity checks")
    common(pi)
    pi.add_argument("--which", default="g1,g2,g3",
                    help="comma list, e.g. g1,g2,k1,c(1),kappa-mu(1,0)")
    common(sub.add_parser("report", help="full battery for the target kind"))
    return ap


# a float fault leaves a NaN or inf, which ``_checked`` reports in one line
@np.errstate(all="ignore")
def run(argv=None) -> int:
    ap = build_parser()
    try:
        args = ap.parse_args(argv)
    except SystemExit as e:
        return 2 if e.code not in (0, None) else 0

    if args.command == "list":
        for name in registry_names():
            print(name)
        return 0

    seed = args.seed
    if seed is None:
        env = os.environ.get("CURVLAB_SEED")
        try:
            seed = int(env) if env else DEFAULT_SEED
        except ValueError:
            print(f"bad CURVLAB_SEED {env!r}", file=sys.stderr)
            return 2
    if args.samples < 1 or not 0 < args.tol < math.inf:
        print("need samples >= 1 and a finite tol > 0", file=sys.stderr)
        return 2
    if seed < 0:
        print(f"need a seed >= 0, got {seed}", file=sys.stderr)
        return 2

    try:
        obj = _resolve(args.target)
        # the structure every check reads: a pair's total space, a
        # hypersurface's induced structure, or the target itself
        s = (obj.total if isinstance(obj, SubmersionPair)
             else obj.structure if isinstance(obj, HypersurfaceExample) else obj)
        if args.command == "classify":
            checks = [("classify", ())]
        elif args.command == "identities":
            checks = [_parse_check(tok) for tok in _split_checks(args.which)]
            if not checks:
                raise InputError("no checks requested")
        elif isinstance(s, AlmostHermitianStructure):
            checks = [(k, ()) for k in HERMITIAN_KINDS]
        elif not isinstance(s, Chart):
            checks = [("classify", ()), ("g1", ()), ("g2", ()), ("g3", ())]
        else:   # report on a bare chart: the curvature symmetries
            checks = []
        # sampling runs and checks the metric at the points; a frame samples nothing
        chart = (s.chart if isinstance(s, AlmostHermitianStructure)
                 else s.carrier if isinstance(s, AlmostContactStructure) else s)
        mj = sample(chart, args.samples, seed) if isinstance(chart, Chart) else None
        for name, _ in checks:
            if name in HERMITIAN_KINDS and not isinstance(s, AlmostHermitianStructure):
                raise InputError("target carries no almost Hermitian structure")
            if name not in HERMITIAN_KINDS and not isinstance(s, AlmostContactStructure):
                raise InputError("target carries no almost contact structure")
        rec = contact_point_data(s, mj)
        if isinstance(s, Chart):
            res = geometry.curvature_symmetry_residuals(rec.riem)
            rows = [_row(f"symmetry.{k}", v, v <= 1e-9)
                    for k, v in _finite("symmetry", res).items()]
        else:
            rows = _identity_rows(s, checks, rec, args.tol)
        report = args.command == "report"
        if report and isinstance(obj, SubmersionPair):
            for tag, residual in check_submersion_lift(obj, rec).items():
                rows.append(_row(f"lift.{tag}", residual, residual <= args.tol))
        if report and isinstance(obj, HypersurfaceExample):
            rep = induce_hypersurface(obj.ambient, obj.patch, rec, args.tol)
            for tag, residual in (("umbilicity", rep.umbilicity),
                                  ("beta_plus_one", abs(rep.beta_mean + 1.0)),
                                  ("h_xi", rep.h_xi_residual),
                                  ("pullback", rep.pullback_residual),
                                  ("structure", rep.structure_residual)):
                rows.append(_row(f"hypersurface.{tag}", residual, residual <= args.tol))
        return _emit(args, args.target, seed, args.tol, rows)
    except (InputError, CurvlabError, OverflowError) as e:
        # OverflowError: an exact frame value or residual past the float range
        print(str(e), file=sys.stderr)
        return 2


def main():
    sys.exit(run())


if __name__ == "__main__":
    main()
