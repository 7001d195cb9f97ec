"""Manifold files that curvlab must reject or that pin a known verdict,
each written once: the pytest parameters read these lists, and
``cli_matrix.py`` runs every file through the CLI."""

# (id, file bytes, a fragment of the one line ``classify`` prints), exit 2
MALFORMED = [
    ("expression_syntax", b'[chart]\ndim = 2\ncoords = "x, y"\n[metric]\ng_11 = "x +* 1"\n',
     "byte offset"),
    ("not_utf8", b"\xff\xfe[chart]\n", "not valid UTF-8"),
    ("duplicate_coords", b'[chart]\ndim = 2\ncoords = "x, x"\n[metric]\ng_11 = "1"\ng_22 = "1"\n',
     "duplicate coordinate names"),
    ("not_positive_definite", b'[chart]\ndim = 1\ncoords = "x"\n[metric]\ng_11 = "-1"\n',
     "metric not positive definite at (1."),
    ("coordinate_1x", b'[chart]\ndim = 1\ncoords = "1x"\n[metric]\ng_11 = "1"\n',
     "coordinate name '1x' does not parse"),
    ("coordinate_x_y", b'[chart]\ndim = 1\ncoords = "x y"\n[metric]\ng_11 = "1"\n',
     "coordinate name 'x y' does not parse"),
    ("leading_minor_2", b'[chart]\ndim = 2\ncoords = "x, y"\n[metric]\ng_11 = "1"\ng_12 = "2"\n'
                        b'g_22 = "1"\n', "(leading minor 2)"),
    ("log_of_negative", b'[chart]\ndim = 1\ncoords = "x"\n[metric]\ng_11 = "2 + log(x)"\n',
     "log of out-of-domain value -0."),
    ("nan_metric", b'[chart]\ndim = 2\ncoords = "x, y"\ndomain = "x in (0.99, 1)"\n[metric]\n'
                   b'g_11 = "exp(400*x)*exp(400*x)*0 + 1"\ng_22 = "1"\n',
     "metric not positive definite at (0.99"),
    ("superscript_exponent", '[chart]\ndim = 1\ncoords = "x"\n[metric]\ng_11 = "x^²"\n'.encode(),
     "exponent must be an integer literal"),
    ("frame_dim_zero", b'[frame]\ndim = 0\n', "dim must be a positive integer (at byte offset 13)"),
    ("frame_dim_negative", b'[frame]\ndim = -2\ng[1][1] = "1"\n',
     "dim must be a positive integer (at byte offset 13)"),
]

# the Hessian of exp(700 x) overflows at every sample point
OVERFLOWING_CHART = """[chart]
dim = 3
coords = "x, y, z"
domain = "x in (0.99, 1)"
[metric]
g_11 = "1"
g_22 = "1 + exp(700*x)"
g_33 = "1"
"""
NAN_CONSTANT_CHART = OVERFLOWING_CHART.replace('"1 + exp(700*x)"', '"1"').replace(
    'g_33 = "1"', 'g_33 = "(0)*(1e400)"')

# (id, file text, the one line ``report`` prints at the default seed), exit 2
FLOAT_FAULTS = [
    ("overflowing_hessian", OVERFLOWING_CHART,
     "non-finite residual in symmetry.antisym_first_pair"),
    ("nan_constant", NAN_CONSTANT_CHART,
     "metric not positive definite at (0.9971916483884478, -0.24448624099179073, "
     "1.4343916796455298) (leading minor 3)"),
]

# (id, file text, the residual of the one line ``report`` and
# ``identities --which k3,k1`` print), exit 2
INCOMPATIBLE_HERMITIAN = [
    # g(J·, J·) ≠ g, although J² = −1
    ("incompatible_metric", '[chart]\ndim = 2\ncoords = "x, y"\n[metric]\ng_11 = "1"\n'
                            'g_22 = "4"\n[hermitian]\nJ^2_1 = "1"\nJ^1_2 = "-1"\n', "3.000e+00"),
    # J² ≠ −1: J ∂_z = 0
    ("j_square", '[chart]\ndim = 3\ncoords = "x, y, z"\n[metric]\ng_11 = "1"\ng_22 = "1"\n'
                 'g_33 = "1"\n[hermitian]\nJ^2_1 = "1"\nJ^1_2 = "-1"\n', "1.000e+00"),
]

# a Berger-type metric on the frame of su(2)
FRAME_TEXT = """
[frame]
dim = 3
c[3][1][2] = "1"
c[1][2][3] = "1"
c[2][3][1] = "1"
g[1][1] = "1"
g[2][2] = "1"
g[3][3] = "4"
"""

# (line appended to FRAME_TEXT, the error it raises at its value's first byte)
FRAME_KEY_ERRORS = [
    ('h[1] = "1"', "unknown key 'h[1]' in [frame]"),
    ('c[1] [2] = "1"', "unknown key 'c[1] [2]' in [frame]"),
    ('g[4][1] = "1"', "index out of range in 'g[4][1]'"),
    ('g[0][1] = "1"', "index out of range in 'g[0][1]'"),
    ('g[1][1] = "x"', "bad rational 'x'"),
    ('g[1][1] = "1/0"', "bad rational '1/0'"),
    ('c[1][2] = "1"', "c needs three indices in 'c[1][2]'"),
    ('g[1] = "1"', "g needs two indices in 'g[1]'"),
    ('phi[1][2][3] = "1"', "phi needs two indices in 'phi[1][2][3]'"),
    ('xi[1][1] = "1"', "xi needs one index in 'xi[1][1]'"),
    ('eta[1][2] = "1"', "eta needs one index in 'eta[1][2]'"),
    # the range is checked before the rational, the rational before the rank
    ('c[9][1] = "q"', "index out of range in 'c[9][1]'"),
    ('xi[1][1] = "q"', "bad rational 'q'"),
]

# the Heisenberg frame h21 at (c, s) = (3/5, 4/5)
H21_FRAME = """[frame]
dim = 5
c[5][1][3] = "2"
c[5][2][4] = "2"
g[1][1] = "1"
g[2][2] = "1"
g[3][3] = "1"
g[4][4] = "1"
g[5][5] = "1"
phi[1][3] = "-3/5"
phi[1][4] = "-4/5"
phi[2][3] = "-4/5"
phi[2][4] = "3/5"
phi[3][1] = "3/5"
phi[3][2] = "4/5"
phi[4][1] = "4/5"
phi[4][2] = "-3/5"
xi[5] = "1"
eta[5] = "1"
"""

# contact structures that fail compatibility validation: classify exits 2 on
# both, while c(0) and kappa-mu(0,0) on the chart still exit 0 (ROADMAP
# item 3, one admission gate)
INCOMPATIBLE_CONTACT = [
    # g = diag(1, 4, 1) with φ the rotation of (x, y), ξ = ∂_z and η = dz
    ("incompatible_chart", '[chart]\ndim = 3\ncoords = "x, y, z"\n[metric]\ng_11 = "1"\n'
                           'g_22 = "4"\ng_33 = "1"\n[phi]\nphi^2_1 = "1"\nphi^1_2 = "-1"\n'
                           '[xi]\nxi^3 = "1"\n[eta]\neta_3 = "1"\n'),
    ("incompatible_frame", H21_FRAME.replace('phi[3][1] = "3/5"', 'phi[3][1] = "2"')),
]


def _plane(entries: str) -> str:
    return f'[chart]\ndim = 2\ncoords = "x, y"\n[metric]\n{entries}\ng_22 = "1"\n'


_SUM_3000 = "+".join(["x/9000"] * 3000)

# (id, file text): each exits 2 with one line saying an expression is
# nested too deeply, where the parser, the compiled program or the
# comparison of g_12 with g_21 would exhaust the interpreter's stack
TOO_DEEP = [
    ("sum_990", _plane(f'g_11 = "{"+".join(["x^2"] * 990)}"')),
    ("parentheses_3000", _plane(f'g_11 = "{"(" * 3000}1{")" * 3000}"')),
    ("minus_3000", _plane(f'g_11 = "{"-" * 3000}1"')),
    ("symmetric_sum_3000", _plane(f'g_11 = "1"\ng_12 = "{_SUM_3000}"\ng_21 = "{_SUM_3000}"')),
]

# no metric entry for a frame of ten million dimensions: exit 2 before any
# array of that side is allocated
HUGE_FRAME = "[frame]\ndim = 10000000\n"
