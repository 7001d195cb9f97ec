import math
import re
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest

from curvlab.chart import Chart
from curvlab.cli import run
from curvlab.errors import ManifoldFormatError
from curvlab.frame import FrameGeometry
from curvlab.manifold_io import load_manifold_file, load_manifold_text
from curvlab.structures import AlmostContactStructure, AlmostHermitianStructure
from bad_inputs import FRAME_KEY_ERRORS, FRAME_TEXT, HUGE_FRAME
from reference import eval_field

SINE_CONE_TEXT = """
# cosine-warped flat four-space
[chart]
dim = 5
coords = "x, y, u, v, z"
domain = "z in (-1.5, 1.5)"

[metric]
g_11 = "cos(z)^2"
g_22 = "cos(z)^2"
g_33 = "cos(z)^2"
g_44 = "cos(z)^2"
g_55 = "1"

[phi]
phi^2_1 = "1"
phi^1_2 = "-1"
phi^4_3 = "1"
phi^3_4 = "-1"

[xi]
xi^5 = "1"

[eta]
eta_5 = "1"
"""

def test_load_contact_chart():
    s = load_manifold_text(SINE_CONE_TEXT)
    assert isinstance(s, AlmostContactStructure)
    assert s.carrier.dim == 5
    assert s.carrier.coords == ("x", "y", "u", "v", "z")
    assert s.carrier.domain[4].lo == -1.5 and s.carrier.domain[4].hi == 1.5
    assert s.carrier.domain[0].lo == -math.inf


def test_load_bare_chart():
    text = """
[chart]
dim = 2
coords = "a, b"
[metric]
g_11 = "1"
g_22 = "sin(a)^2"
"""
    c = load_manifold_text(text)
    assert isinstance(c, Chart)
    assert c.dim == 2


def test_load_hermitian():
    text = """
[chart]
dim = 2
coords = "x, y"
[metric]
g_11 = "1"
g_22 = "1"
[hermitian]
J^2_1 = "1"
J^1_2 = "-1"
"""
    h = load_manifold_text(text)
    assert isinstance(h, AlmostHermitianStructure)


def test_load_su2_frame_berger():
    fg = load_manifold_text(FRAME_TEXT)
    assert isinstance(fg, FrameGeometry)
    assert fg.dim == 3
    assert fg.c[2][0][1] == 1 and fg.c[2][1][0] == -1
    # curvature symmetries hold exactly on a loaded frame
    from itertools import product
    for i, j, k, l in product(range(3), repeat=4):
        r = fg.riem[i, j, k, l]
        assert r == -fg.riem[j, i, k, l]
        assert r == fg.riem[k, l, i, j]


def test_unknown_key_is_error():
    text = SINE_CONE_TEXT.replace('g_55 = "1"', 'g_55 = "1"\nwarp = "2"')
    with pytest.raises(ManifoldFormatError):
        load_manifold_text(text)


def test_unknown_section_is_error():
    with pytest.raises(ManifoldFormatError):
        load_manifold_text("[stuff]\nx = \"1\"\n")


def test_expression_error_carries_file_offset():
    text = '[chart]\ndim = 1\ncoords = "x"\n[metric]\ng_11 = "x +* 2"\n'
    with pytest.raises(ManifoldFormatError) as err:
        load_manifold_text(text)
    # offset points inside the metric entry value
    assert err.value.offset >= text.index("x +*")


def test_unknown_identifier_in_entry():
    text = '[chart]\ndim = 1\ncoords = "x"\n[metric]\ng_11 = "w + 1"\n'
    with pytest.raises(ManifoldFormatError) as err:
        load_manifold_text(text)
    assert "w" in str(err.value)


def test_asymmetric_metric_rejected():
    text = """
[chart]
dim = 2
coords = "x, y"
[metric]
g_11 = "1"
g_22 = "1"
g_12 = "x"
g_21 = "y"
"""
    with pytest.raises(ManifoldFormatError):
        load_manifold_text(text)


def test_incomplete_contact_block_rejected():
    text = """
[chart]
dim = 3
coords = "x, y, z"
[metric]
g_11 = "1"
g_22 = "1"
g_33 = "1"
[xi]
xi^3 = "1"
"""
    with pytest.raises(ManifoldFormatError):
        load_manifold_text(text)


def test_dim_coords_mismatch():
    text = '[chart]\ndim = 3\ncoords = "x, y"\n[metric]\ng_11 = "1"\n'
    with pytest.raises(ManifoldFormatError):
        load_manifold_text(text)


def test_domain_bound_with_negative_exponent():
    text = '[chart]\ndim = 1\ncoords = "x"\ndomain = "x in (-1e-1, 5e-1)"\n[metric]\ng_11 = "1"\n'
    c = load_manifold_text(text)
    assert (c.domain[0].lo, c.domain[0].hi) == (-0.1, 0.5)


@pytest.mark.parametrize("text,message", [
    pytest.param(HUGE_FRAME, "frame metric not positive definite", id="huge_dim"),
    pytest.param(FRAME_TEXT.replace('g[3][3] = "4"', 'g[3][3] = "0"'),
                 "frame metric not positive definite", id="zero_diagonal"),
    pytest.param(FRAME_TEXT.replace('g[3][3] = "4"', 'g[1][3] = "4"'),
                 "frame metric not positive definite", id="missing_diagonal"),
    # an entry's own error comes first
    pytest.param(HUGE_FRAME + 'h[1] = "1"\n', "unknown key 'h[1]' in [frame] (at byte offset 31)",
                 id="huge_dim_bad_key"),
])
def test_frame_diagonal_is_checked_before_allocation(text, message):
    """A positive definite frame metric has every g[i][i] > 0. The loader
    checks that once every entry has parsed, before it allocates the dim³
    structure constants, so a huge dim without a metric is an input error
    and not a failed allocation."""
    with pytest.raises(ManifoldFormatError) as err:
        load_manifold_text(text)
    assert str(err.value) == message


def test_unreadable_file_is_format_error(tmp_path):
    with pytest.raises(ManifoldFormatError):
        load_manifold_file(tmp_path / "missing.ini")


def test_frame_rejects_bad_jacobi():
    text = """
[frame]
dim = 3
c[3][1][2] = "1"
c[1][1][3] = "1"
g[1][1] = "1"
g[2][2] = "1"
g[3][3] = "1"
"""
    with pytest.raises(ManifoldFormatError):
        load_manifold_text(text)


@pytest.mark.parametrize("line,message", FRAME_KEY_ERRORS)
def test_frame_key_errors_are_pinned(line, message):
    text = FRAME_TEXT + line + "\n"
    with pytest.raises(ManifoldFormatError) as err:
        load_manifold_text(text)
    offset = text.index(line) + line.index('"') + 1   # the value's first byte
    assert str(err.value) == f"{message} (at byte offset {offset})"


def test_frame_partners_and_optional_tensors():
    """c[k][i][j] sets c[k][j][i] to its negative and g[i][j] sets g[j][i];
    phi, xi and eta exist only when an entry names them."""
    fg = load_manifold_text(FRAME_TEXT.replace('g[3][3] = "4"', 'g[3][3] = "4"\ng[1][2] = "1/3"'))
    assert fg.c[0][1][2] == 1 and fg.c[0][2][1] == -1
    assert fg.g[0][1] == fg.g[1][0] == Fraction(1, 3)
    assert fg.phi is None and fg.xi is None and fg.eta is None
    fg = load_manifold_text(FRAME_TEXT + 'xi[3] = "1/2"\n')
    assert fg.xi.tolist() == [0, 0, Fraction(1, 2)]
    assert fg.phi is None and fg.eta is None


def test_frame_rational_entries_exact():
    text = FRAME_TEXT.replace('g[3][3] = "4"', 'g[3][3] = "9/2"')
    fg = load_manifold_text(text)
    assert fg.g[2][2] == Fraction(9, 2)


H51 = Path(__file__).parent / "golden" / "heisenberg_h51.ini"


def test_rank_one_keys_read_indices_past_nine():
    """A rank-1 key's digit group is one index: the dimension-11 Heisenberg
    chart's xi^11, eta_10 and eta_11 land on ξ^11, η_10 and η_11, while a
    rank-2 key's two-digit group still splits (g_11 is g_1_1), and the
    structure is the Sasakian one that its comments describe."""
    s = load_manifold_file(H51)
    assert isinstance(s, AlmostContactStructure) and s.carrier.dim == 11
    p = np.linspace(-0.9, 1.1, 11)
    assert eval_field(s.xi, p).tolist() == [0.0] * 10 + [2.0]
    assert eval_field(s.eta, p).tolist() == [0.0] * 5 + (-p[:5] / 2).tolist() + [0.5]
    g = s.carrier.metric_at(p)
    assert g[0, 0] == g[10, 10] == 0.25 and g[0, 10] == 0.0 and g[5, 10] == -p[0] / 4
    code = run(["identities", str(H51), "--which", "g1,g2,g3", "--samples", "3"])
    assert code == 0


@pytest.mark.parametrize("key", ["xi^11", "xi^6", "xi^0"])
def test_rank_one_index_out_of_range_is_error(key):
    text = SINE_CONE_TEXT.replace('xi^5 = "1"', f'xi^5 = "1"\n{key} = "1"')
    with pytest.raises(ManifoldFormatError, match=re.escape(f"bad index in '{key}'")):
        load_manifold_text(text)
