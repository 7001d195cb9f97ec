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
"""

from __future__ import annotations

import argparse
import json
import math
import os
import re
import sys
from fractions import Fraction

from .chart import Chart, sample
from .errors import CurvlabError, ManifoldFormatError, RegistryError
from .identities import (check_c_alpha, check_contact, check_hermitian,
                         consequence_suite, CONTACT_KINDS, HERMITIAN_KINDS,
                         WorstResidual)
from .manifold_io import load_manifold_file
from .structures import (AlmostContactStructure, AlmostHermitianStructure,
                         check_kappa_mu, classify)
from .constructions import (check_submersion_lift, induce_hypersurface,
                            registry_names, resolve_target)
from . import geometry

DEFAULT_SEED = 42
DEFAULT_TOL = 1e-7
DEFAULT_SAMPLES = 20
VECS_PER_POINT = 20

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
    if os.path.exists(target) and os.path.isfile(target):
        try:
            obj = load_manifold_file(target)
        except ManifoldFormatError as e:
            raise InputError(f"malformed manifold file: {e}") from None
        if isinstance(obj, AlmostContactStructure):
            return ("contact", obj)
        if isinstance(obj, AlmostHermitianStructure):
            return ("hermitian_structure", obj)
        if isinstance(obj, Chart):
            return ("chart", obj)
        return ("frame", obj)
    try:
        t = resolve_target(target)
    except RegistryError as e:
        raise InputError(str(e)) from None
    return (t.kind, t.obj)


def _contact_of(kind: str, obj):
    if kind == "contact":
        return obj
    if kind == "hypersurface":
        return obj.structure
    if kind == "pair":
        return obj.total
    raise InputError("target carries no almost contact structure")


def _hermitian_of(kind: str, obj):
    if kind == "hermitian":
        return obj.hermitian
    if kind == "hermitian_structure":
        return obj
    raise InputError("target carries no almost Hermitian structure")


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


def _classify_rows(s, samples, tol) -> list[dict]:
    rep = classify(s, samples, tol)
    rows = []
    bools = rep.booleans()
    res = rep.residuals()
    rows.append(_row("classify.compatibility", res["compatibility"],
                     bools["compatibility"]))
    for tag in ("contact_metric", "contact_metric_raw", "killing_xi",
                "sasakian_nabla_xi", "sasakian_nabla_phi", "parallel_phi"):
        verdict = res[tag] <= tol
        rows.append(_row(f"classify.{tag}", res[tag], verdict, gate=False))
    ric_res = abs(float(rep.ric_xi_xi) - rep.ric_xi_xi_target)
    rows.append(_row("classify.ric_xi_xi_minus_2n", ric_res,
                     bools["k_contact_ricci"], gate=False))
    return rows


def _identity_rows(kind: str, obj, checks, samples, tol) -> list[dict]:
    rows = []
    for name, args in checks:
        if name in CONTACT_KINDS:
            s = _contact_of(kind, obj)
            rep = check_contact(s, name, samples if not s.is_frame else None, tol)
            rows.append(_row(rep.tag, rep.residual, rep.verdict,
                             _witness_json(rep.witness)))
        elif name in HERMITIAN_KINDS:
            h = _hermitian_of(kind, obj)
            rep = check_hermitian(h, name, samples, tol)
            rows.append(_row(rep.tag, rep.residual, rep.verdict,
                             _witness_json(rep.witness)))
        elif name == "c_alpha":
            s = _contact_of(kind, obj)
            rep = check_c_alpha(s, args[0], samples if not s.is_frame else None, tol)
            rows.append(_row(rep.tag, rep.residual, rep.verdict,
                             _witness_json(rep.witness)))
        elif name == "kappa_mu":
            s = _contact_of(kind, obj)
            residual = check_kappa_mu(s, args[0], args[1],
                                      samples if not s.is_frame else None)
            rows.append(_row(f"kappa-mu({float(args[0]):g},{float(args[1]):g})", residual,
                             residual <= tol))
        elif name == "classify":
            s = _contact_of(kind, obj)
            rows.extend(_classify_rows(s, samples if not s.is_frame else None, tol))
        elif name == "consequences":
            s = _contact_of(kind, obj)
            for g_kind in CONTACT_KINDS:
                suite = consequence_suite(
                    s, g_kind, samples if not s.is_frame else None, tol)
                for rep in suite.values():
                    rows.append(_row(rep.tag, rep.residual, rep.verdict))
    return rows


def _samples_for(kind: str, obj, n: int, seed: int):
    if kind == "frame":
        return None
    if kind == "contact" and obj.is_frame:
        return None
    if kind == "chart":
        return sample(obj, n, VECS_PER_POINT, seed)
    if kind == "hypersurface":
        return sample(obj.structure.carrier, n, VECS_PER_POINT, seed)
    if kind == "pair":
        return sample(obj.total.carrier, n, VECS_PER_POINT, seed)
    if kind == "hermitian":
        return sample(obj.cone_chart, n, VECS_PER_POINT, seed)
    if kind == "hermitian_structure":
        return sample(obj.chart, n, VECS_PER_POINT, seed)
    return sample(obj.carrier, n, VECS_PER_POINT, seed)


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

    try:
        kind, obj = _resolve(args.target)
        samples = _samples_for(kind, obj, args.samples, seed)

        if args.command == "classify":
            s = _contact_of(kind, obj)
            rows = _classify_rows(s, samples if not s.is_frame else None, args.tol)
            return _emit(args, args.target, seed, args.tol, rows)

        if args.command == "identities":
            checks = [_parse_check(tok) for tok in _split_checks(args.which)]
            if not checks:
                raise InputError("no checks requested")
            rows = _identity_rows(kind, obj, checks, samples, args.tol)
            return _emit(args, args.target, seed, args.tol, rows)

        # report: default battery per target kind
        rows = []
        if kind == "chart":
            worst = {}
            for i in range(samples.n_points):
                curv = geometry.curvature(obj, samples.points[i])
                for k, v in geometry.curvature_symmetry_residuals(curv).items():
                    worst.setdefault(k, WorstResidual(f"symmetry.{k}")).add(v)
            rows = [_row(f"symmetry.{k}", w.value, w.value <= 1e-9)
                    for k, w in worst.items()]
        elif kind in ("hermitian", "hermitian_structure"):
            h = _hermitian_of(kind, obj)
            for k in HERMITIAN_KINDS:
                rep = check_hermitian(h, k, samples, args.tol)
                rows.append(_row(rep.tag, rep.residual, rep.verdict,
                                 _witness_json(rep.witness)))
        else:
            checks = [("classify", ()), ("g1", ()), ("g2", ()), ("g3", ())]
            rows = _identity_rows(kind, obj, checks, samples, args.tol)
            if kind == "pair":
                for tag, residual in check_submersion_lift(
                        obj, n_points=args.samples, seed=seed, tol=args.tol).items():
                    rows.append(_row(f"lift.{tag}", residual, residual <= args.tol))
            if kind == "hypersurface":
                rep = induce_hypersurface(obj.ambient, obj.patch, samples, args.tol)
                rows.append(_row("hypersurface.umbilicity", rep.umbilicity,
                                 rep.umbilicity <= args.tol))
                rows.append(_row("hypersurface.beta_plus_one",
                                 abs(rep.beta_mean + 1.0),
                                 abs(rep.beta_mean + 1.0) <= args.tol))
                rows.append(_row("hypersurface.h_xi", rep.h_xi_residual,
                                 rep.h_xi_residual <= args.tol))
                rows.append(_row("hypersurface.pullback", rep.pullback_residual,
                                 rep.pullback_residual <= args.tol))
                rows.append(_row("hypersurface.structure", rep.structure_residual,
                                 rep.structure_residual <= args.tol))
        return _emit(args, args.target, seed, args.tol, rows)
    except (InputError, CurvlabError) as e:
        print(str(e), file=sys.stderr)
        return 2


def main():
    sys.exit(run())


if __name__ == "__main__":
    main()
