"""Run a fixed matrix of CLI invocations in-process and write their outputs.

Usage::

    python tests/cli_matrix.py OUT.json

Each entry of OUT.json is ``[argv, exit, stdout, stderr]`` of one
``curvlab.cli.run`` call, so ``cmp`` on the files written by two trees
checks that they behave byte for byte alike. The matrix is ``list``; every
registry target and parameterized form under classify, report and four
``--which`` sets at seeds 1 and 2 with ``--samples 5 --json``; a text-mode
report per target; the golden files' invocations; and one chart whose
metric's log underflows in its jets. pytest does not collect this file.
"""

import contextlib
import io
import json
import os
import sys
import tempfile
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))

from curvlab.cli import run  # noqa: E402

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


def main(out_path):
    os.environ.pop("CURVLAB_SEED", None)
    runs = [invoke(argv) for argv in invocations()]
    runs.append(in_dir(HERE / "golden", ["report", "bare_trig_chart.ini", "--samples", "6",
                                          "--seed", "7", "--json"]))
    with tempfile.TemporaryDirectory() as tmp:
        Path(tmp, "underflow.ini").write_text(UNDERFLOW, encoding="utf-8")
        runs.append(in_dir(tmp, ["report", "underflow.ini", "--seed", "1"]))
    Path(out_path).write_text(json.dumps(runs, indent=1) + "\n", encoding="utf-8")
    print(f"{len(runs)} runs, {sum(r[1] == 0 for r in runs)} exit 0", file=sys.stderr)


if __name__ == "__main__":
    if len(sys.argv) != 2:
        sys.exit(__doc__)
    main(sys.argv[1])
