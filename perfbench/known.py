"""Known-answer checker: compares one invocation's exit code and JSON rows
with the expectations in ``known_answers.json``.

An invocation fails if its exit code differs from the expected one, if the
emitted tags differ from the tags its command must print, or if any row's
verdict (or pinned exact residual) differs from its known answer. Rows the
file does not pin are held to three rules: g1 ⇒ g2 ⇒ g3 (k1 ⇒ k2 ⇒ k3 on
cones), the consequence rows of a holding identity hold, and residuals are
finite and non-negative. The expected exit code follows the exit contract:
1 if a gating row is known to fail, 0 if every gating row is known to hold,
otherwise whatever the emitted gating rows imply.
"""

from __future__ import annotations

import json
import math
from fractions import Fraction
from pathlib import Path

from workloads import Invocation

KNOWN = json.loads((Path(__file__).with_name("known_answers.json"))
                   .read_text(encoding="utf-8"))

CLASSIFY_TAGS = ("classify.compatibility", "classify.contact_metric",
                 "classify.contact_metric_raw", "classify.killing_xi",
                 "classify.sasakian_nabla_xi", "classify.sasakian_nabla_phi",
                 "classify.parallel_phi", "classify.ric_xi_xi_minus_2n")
CONSEQUENCE_TAGS = tuple(
    f"{k}.{row}" for k in ("g1", "g2", "g3")
    for row in (("xi_slot_g", "xi_slot_zero", "xi_slot_phi_zero", "restricted")
                if k == "g1" else ("xi_slot_g", "xi_slot_zero", "restricted")))
EXTRA_REPORT_TAGS = {
    "s5_in_c3": tuple(f"hypersurface.{t}" for t in (
        "umbilicity", "beta_plus_one", "h_xi", "pullback", "structure")),
    "hopf_pair": tuple(f"lift.{t}" for t in (
        "dpi_xi", "lift_connection", "lift_xi", "lift_bracket", "lift_curvature",
        "lift_k1_consequence", "lift_k2_consequence", "lift_k3_consequence")),
}
SYMMETRY_TAGS = tuple(f"symmetry.{t}" for t in (
    "antisym_first_pair", "antisym_second_pair", "pair_interchange", "first_bianchi"))


def expected_tags(inv: Invocation) -> list[str]:
    """Tags the command prints, in order; ``c(`` stands for any c(α) tag."""
    if inv.command == "classify":
        return list(CLASSIFY_TAGS)
    if inv.command == "identities":
        tags = []
        for check in inv.checks:
            if check.startswith("c("):
                tags.append("c(")
            elif check == "consequences":
                tags.extend(CONSEQUENCE_TAGS)
            else:
                tags.append(check)
        return tags
    if inv.family == "bare":
        return list(SYMMETRY_TAGS)
    if inv.cone:
        return ["k1", "k2", "k3"]
    return list(CLASSIFY_TAGS) + ["g1", "g2", "g3"] + list(EXTRA_REPORT_TAGS.get(inv.family, ()))


def _c_alpha_answer(inv: Invocation):
    rule, _source = KNOWN["families"][inv.family]["c_alpha"]
    a = inv.alpha
    if rule == "one_plus_abs":
        return (False, 1 + abs(a))
    if rule == "fails":
        return (False, None)
    if rule == "iff_alpha_1":
        return (a == 1, None)
    if rule == "iff_alpha_0":
        return (a == 0, None)
    return (None, None)


def known_answer(inv: Invocation, tag: str):
    """(verdict or None, exact residual or None) for one emitted tag."""
    rows = KNOWN["families"][inv.family]["rows"]
    if inv.cone:
        verdict, _, _ = rows.get("g" + tag[1:], (None, None, None))
        return verdict, None
    if tag.startswith("c("):
        return _c_alpha_answer(inv)
    verdict, exact, _ = rows.get(tag, (None, None, None))
    return verdict, (Fraction(exact) if exact is not None else None)


def _gates(tag: str) -> bool:
    # classify rows other than compatibility are informational (cli._row gate=False)
    return not tag.startswith("classify.") or tag == "classify.compatibility"


def check_invocation(inv: Invocation, code: int, stdout: str) -> list[str]:
    """Problems found in one invocation's result; empty when it is correct."""
    try:
        doc = json.loads(stdout)
        rows = doc["checks"]
        tags = [r["tag"] for r in rows]
    except (ValueError, KeyError, TypeError) as e:
        return [f"unreadable JSON report (exit {code}): {e}"]
    problems = []
    want = expected_tags(inv)
    got = ["c(" if t.startswith("c(") else t for t in tags]
    if got != want:
        problems.append(f"tags {tags} differ from {want}")
    verdicts = {}
    known_fail = False
    all_gates_known = True
    for row in rows:
        tag, residual, verdict = row["tag"], row["residual"], row["verdict"]
        if not isinstance(residual, (int, float)) or not math.isfinite(residual) or residual < 0:
            problems.append(f"{tag}: residual {residual!r} is not a finite non-negative number")
        want_verdict, want_exact = known_answer(inv, tag)
        if want_verdict is not None and verdict != want_verdict:
            problems.append(f"{tag}: verdict {verdict} differs from known {want_verdict}")
        if want_exact is not None and residual != float(want_exact):
            problems.append(f"{tag}: residual {residual!r} differs from exact {want_exact}")
        key = "c(" if tag.startswith("c(") else tag
        verdicts[key] = verdict
        if _gates(tag):
            if want_verdict is None:
                all_gates_known = False
            elif not want_verdict:
                known_fail = True
    for a, b in (("g1", "g2"), ("g2", "g3"), ("k1", "k2"), ("k2", "k3")):
        if verdicts.get(a) is True and verdicts.get(b) is False:
            problems.append(f"{a} holds but {b} fails")
    for kind in ("g1", "g2", "g3"):
        if verdicts.get(kind) is True:
            bad = [t for t in CONSEQUENCE_TAGS
                   if t.startswith(kind + ".") and verdicts.get(t) is False]
            if bad:
                problems.append(f"{kind} holds but its consequences {bad} fail")
    if known_fail:
        want_code = 1
    elif all_gates_known:
        want_code = 0
    else:
        want_code = 0 if all(r["verdict"] for r in rows if _gates(r["tag"])) else 1
    if code != want_code:
        problems.append(f"exit code {code}, expected {want_code}")
    return problems


def golden(root: Path, name: str) -> tuple[list[str], int, str]:
    """(argv, exit code, expected stdout) of one golden report."""
    g = KNOWN["goldens"][name]
    return g["argv"], g["exit"], (root / g["file"]).read_text(encoding="utf-8")
