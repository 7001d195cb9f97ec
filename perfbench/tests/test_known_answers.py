"""The benchmark's own inputs and answers: the c(α) closed form on h21, the
seeded generator, the checker and the metric catalogue."""

import json
from fractions import Fraction as F
from itertools import product
from pathlib import Path

import numpy as np
import pytest

import bench
import known
from curvlab.manifold_io import load_manifold_file
from workloads import Generator, Invocation, euclid_pairs

ROOT = Path(__file__).resolve().parents[2]

# criterion 1 (tests/test_acceptance.py): the h21 curvature table up to symmetry
C1_SEEDS = {
    (0, 1, 2, 3): F(-1), (0, 3, 1, 2): F(-1), (0, 2, 1, 3): F(-2),
    (0, 2, 0, 2): F(-3), (1, 3, 1, 3): F(-3),
    (0, 4, 0, 4): F(1), (1, 4, 1, 4): F(1), (2, 4, 2, 4): F(1), (3, 4, 3, 4): F(1),
}


def c1_table():
    table = {}
    for (i, j, k, l), v in C1_SEEDS.items():
        for idx, w in (((i, j, k, l), v), ((j, i, k, l), -v), ((i, j, l, k), -v),
                       ((j, i, l, k), v), ((k, l, i, j), v), ((l, k, i, j), -v),
                       ((k, l, j, i), -v), ((l, k, j, i), v)):
            table[idx] = w
    return table


def h21_c_alpha(c, s, alpha):
    """max |c(α) defect| over all basis quadruples, from the C1 table alone."""
    R = c1_table()
    # φ columns: φX1 = cY1 + sY2, φX2 = sY1 − cY2, φY1 = −cX1 − sX2, φY2 = −sX1 + cX2
    phi = [{2: c, 3: s}, {2: s, 3: -c}, {0: -c, 1: -s}, {0: -s, 1: c}, {}]

    def r4(i, j, zs, ws):
        return sum(a * b * R.get((i, j, k, l), 0)
                   for k, a in zs.items() for l, b in ws.items())

    def g(i, vec):
        return vec.get(i, 0)

    worst = F(0)
    for i, j, k, l in product(range(5), repeat=4):
        pz, pw = phi[k], phi[l]
        block = (int(i == k) * int(j == l) - int(i == l) * int(j == k)
                 - g(i, pz) * g(j, pw) + g(i, pw) * g(j, pz))
        d = R.get((i, j, k, l), 0) - r4(i, j, pz, pw) - alpha * block
        worst = max(worst, abs(d))
    return worst


@pytest.mark.parametrize("m,n", euclid_pairs()[:4])
def test_c_alpha_on_h21_is_one_plus_abs_alpha(m, n):
    h = m * m + n * n
    for c, s in ((F(m * m - n * n, h), F(2 * m * n, h)), (F(-2 * m * n, h), F(m * m - n * n, h))):
        for k in range(-8, 9):
            alpha = F(k, 4)
            assert h21_c_alpha(c, s, alpha) == 1 + abs(alpha)


def _normalized(gen):
    cycles = [gen.cycle() for _ in range(3)]
    texts = [Path(a).read_text() for cyc in cycles for inv in cyc for a in inv.argv
             if a.endswith(".txt")]
    argv = [tuple(a if not a.endswith(".txt") else Path(a).name for a in inv.argv)
            for cyc in cycles for inv in cyc]
    return argv, texts


@pytest.mark.parametrize("workload", ["frame_exact", "chart_report", "chart_sweep"])
def test_generator_is_seeded(tmp_path, workload):
    a = _normalized(Generator(workload, 7, tmp_path / "a"))
    b = _normalized(Generator(workload, 7, tmp_path / "b"))
    c = _normalized(Generator(workload, 8, tmp_path / "c"))
    assert a == b
    assert a != c
    # every argv is new within a run
    argv = [v for v in a[0]]
    assert len(set(argv)) == len(argv)


def test_bare_charts_are_diagonally_dominant(tmp_path):
    gen = Generator("chart_sweep", 3, tmp_path)
    rng = np.random.default_rng(0)
    for _ in range(20):
        path, dim = gen.bare_chart_file()
        chart = load_manifold_file(path)
        assert chart.dim == dim and 3 <= dim <= 6
        for p in rng.uniform(-2.0, 2.0, size=(5, dim)):
            g = chart.metric_at(p)
            off = np.abs(g).sum(axis=1) - np.abs(np.diag(g))
            assert np.all(np.diag(g) - off > 0.2)


def _h21_g2(verdict, residual):
    inv = Invocation(argv=("identities", "h21:3/5,4/5", "--which", "g2"), label="x",
                     command="identities", family="h21", checks=("g2",))
    doc = {"target": "h21:3/5,4/5", "seed": 42, "tolerance": 1e-7,
           "checks": [{"tag": "g2", "residual": residual, "verdict": verdict}]}
    return inv, json.dumps(doc)


def test_checker_accepts_the_known_answer_and_rejects_others():
    inv, out = _h21_g2(True, 0.0)
    assert known.check_invocation(inv, 0, out) == []
    assert known.check_invocation(inv, 1, out)                  # wrong exit code
    inv, out = _h21_g2(False, 0.0)
    assert known.check_invocation(inv, 1, out)                  # wrong verdict
    inv, out = _h21_g2(True, 1e-300)
    assert known.check_invocation(inv, 0, out)                  # not the exact 0
    assert known.check_invocation(inv, 0, "Traceback")          # unreadable


def test_catalogue_matches_benchmark_json():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == bench.END_TO_END_UNITS
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == bench.PER_LAYER_UNITS
    assert [w["name"] for w in spec["workloads"]] == list(bench.WORKLOADS)
