"""Run a fixed matrix of CLI invocations in-process and record their outputs.

Usage::

    python tests/cli_matrix.py OUT.json
    python tests/cli_matrix.py --update

The first form writes each run as ``[argv, exit, stdout, stderr]`` of one
``curvlab.cli.run`` call, so ``cmp`` on the files written by two trees
checks that they behave byte for byte alike. ``--update`` rewrites the
golden ``golden/cli_matrix.json``, which keeps per run its argv, exit code,
stderr and the sha256 of its stdout, and which
``test_cli_matrix.py`` compares every run with. A change that moves a run
regenerates the golden and says in CHANGES.md which runs moved and why.

The matrix is ``list``; every registry target and parameterized form under
classify, report and four ``--which`` sets at seeds 1 and 2 with
``--samples 5 --json``; a text-mode report per target; the golden files'
invocations; one chart whose metric's log underflows in its jets; a
dimension-11 Heisenberg chart whose ξ and η name indices past 9; and every
file of ``bad_inputs.py``, each under the commands its tests run it with.
pytest does not collect this file.
"""

import contextlib
import hashlib
import io
import json
import os
import sys
import tempfile
from pathlib import Path

HERE = Path(__file__).resolve().parent
GOLDEN = HERE / "golden"
MATRIX_GOLDEN = GOLDEN / "cli_matrix.json"
sys.path.insert(0, str(HERE.parent / "src"))

from curvlab.cli import run  # noqa: E402
from bad_inputs import (FLOAT_FAULTS, FRAME_KEY_ERRORS, FRAME_TEXT, HUGE_FRAME,  # noqa: E402
                        INCOMPATIBLE_CONTACT, INCOMPATIBLE_HERMITIAN, MALFORMED, TOO_DEEP)

TARGETS = ("flat3", "s2_round", "h21", "h21_chart", "flat_cosym5", "sine_cone_cos",
           "sine_cone_sin", "r_warped_surface", "s5_in_c3", "hopf_pair",
           "h21:5/13,12/13", "h21_chart:-5/13,12/13", "cone_of:s5_in_c3",
           "cone_of:h21_chart", "cone_of:sine_cone_cos")
WHICH = ("g1,g2,g3", "k1,k2,k3", "c(1/2),c(-2),kappa-mu(1,0)", "consequences,g1,c(1)")
GOLDENS = (
    ["identities", "h21:3/5,4/5", "--which", "g1,g2,g3", "--json"],
    ["classify", "sine_cone_cos", "--samples", "4", "--json"],
    ["identities", "sine_cone_cos", "--which", "g1,g2,g3,c(1/2),kappa-mu(1,0),consequences",
     "--samples", "5", "--seed", "3", "--json"],
    ["report", "s5_in_c3", "--samples", "7", "--seed", "3", "--json"],
)
# runs in golden/, on the files there
FILE_RUNS = (
    ["report", "bare_trig_chart.ini", "--samples", "6", "--seed", "7", "--json"],
    ["report", "heisenberg_h51.ini", "--samples", "5", "--seed", "1", "--json"],
    ["identities", "heisenberg_h51.ini", "--which", "c(1/2),kappa-mu(1,0),consequences",
     "--samples", "5", "--seed", "2", "--json"],
)
UNDERFLOW = ('[chart]\ndim = 2\ncoords = "x, y"\n[metric]\n'
             'g_11 = "2 + log(x^200)/1000"\ng_22 = "1"\n')


def invocations():
    yield ["list"]
    for target in TARGETS:
        for seed in ("1", "2"):
            tail = ["--samples", "5", "--seed", seed, "--json"]
            yield ["classify", target, *tail]
            yield ["report", target, *tail]
            for which in WHICH:
                yield ["identities", target, "--which", which, *tail]
        yield ["report", target, "--samples", "5"]
    yield from GOLDENS


def invoke(argv):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = run(argv)
    return [argv, code, out.getvalue(), err.getvalue()]


def in_dir(path, argv):
    cwd = os.getcwd()
    os.chdir(path)
    try:
        return invoke(argv)
    finally:
        os.chdir(cwd)


def files():
    """Each file the matrix writes, with its runs as the argv after the
    command, which the file name follows."""
    yield "underflow.ini", UNDERFLOW, [["report", "--seed", "1"]]
    for name, content, _ in MALFORMED:
        yield f"{name}.ini", content, [["classify"]]
    for name, text, _ in FLOAT_FAULTS:
        yield f"{name}.ini", text, [["report"]]
    for name, text, _ in INCOMPATIBLE_HERMITIAN:
        yield f"{name}.ini", text, [["report"], ["identities", "--which", "k3,k1"]]
    for n, (line, _) in enumerate(FRAME_KEY_ERRORS):
        yield f"frame_key_{n}.ini", FRAME_TEXT + line + "\n", [["classify"]]
    tail = ["--samples", "5", "--seed", "1", "--json"]
    for name, text in INCOMPATIBLE_CONTACT:
        yield f"{name}.ini", text, [["classify", *tail]] + [
            ["identities", "--which", which, *tail]
            for which in ("c(0)", "kappa-mu(0,0)", "g2", "consequences")]
    for name, text in TOO_DEEP:
        yield f"{name}.ini", text, [["report"]]
    yield "huge_frame.ini", HUGE_FRAME, [["classify"]]


def runs():
    """Every run of the matrix, in order, as ``[argv, exit, stdout, stderr]``."""
    os.environ.pop("CURVLAB_SEED", None)
    out = [invoke(argv) for argv in invocations()]
    out += [in_dir(GOLDEN, argv) for argv in FILE_RUNS]
    with tempfile.TemporaryDirectory() as tmp:
        for name, content, argvs in files():
            Path(tmp, name).write_bytes(content if isinstance(content, bytes)
                                        else content.encode("utf-8"))
            out += [in_dir(tmp, [command, name, *rest]) for command, *rest in argvs]
    return out


def digest(run_):
    """A run as the golden keeps it: stdout by its sha256."""
    argv, code, stdout, stderr = run_
    return {"argv": argv, "exit": code, "stderr": stderr,
            "stdout_sha256": hashlib.sha256(stdout.encode("utf-8")).hexdigest()}


def main(args):
    if len(args) != 1:
        sys.exit(__doc__)
    result = runs()
    if args[0] == "--update":   # one run a line, so a diff names the runs that moved
        lines = ",\n".join(json.dumps(digest(r)) for r in result)
        MATRIX_GOLDEN.write_text(f"[\n{lines}\n]\n", encoding="utf-8")
    else:
        Path(args[0]).write_text(json.dumps(result, indent=1) + "\n", encoding="utf-8")
    print(f"{len(result)} runs, {sum(r[1] == 0 for r in result)} exit 0", file=sys.stderr)


if __name__ == "__main__":
    main(sys.argv[1:])
