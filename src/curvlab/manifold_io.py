"""Manifold definition files.

Section-based UTF-8 text. A chart-carried structure uses::

    [chart]
    dim = 5
    coords = "x, y, u, v, z"
    domain = "z in (-1.5707, 1.5707)"      # one line per constrained coord

    [metric]                                # upper triangle suffices
    g_11 = "cos(z)^2"
    ...

    [phi]                                   # optional contact block
    phi^2_1 = "1"
    [xi]
    xi^5 = "1"
    [eta]
    eta_5 = "1"

    [hermitian]                             # or a complex structure instead
    J^2_1 = "1"

A frame-carried structure uses a single section::

    [frame]
    dim = 5
    c[5][1][3] = "2"                        # [E_1, E_3] = 2 E_5
    g[1][1] = "1"
    phi[3][1] = "3/5"
    xi[5] = "1"
    eta[5] = "1"

Indices are 1-based. Values are quoted; rationals stay exact in frame
sections. Unknown keys are errors (strict mode), and parse failures carry
byte offsets into the file.
"""

from __future__ import annotations

import math
import re
from fractions import Fraction

import numpy as np

from . import expr as ex
from .chart import Chart, Interval, TensorField
from .frame import FrameGeometry
from .structures import AlmostContactStructure, AlmostHermitianStructure
from .errors import ExprSyntaxError, ManifoldFormatError, UnknownIdentifierError

__all__ = ["load_manifold_text", "load_manifold_file"]

_SECTIONS = ("chart", "metric", "phi", "xi", "eta", "hermitian", "frame")
_DOMAIN_RE = re.compile(
    r"^\s*(\w+)\s+in\s+\(\s*([\w.+-]+)\s*,\s*([\w.+-]+)\s*\)\s*$")
_FRAME_KEY_RE = re.compile(r"^(c|g|phi|xi|eta)((?:\[\d+\])+)$")


def _parse_bound(text: str, offset: int) -> float:
    text = text.strip()
    low = text.lower()
    if low in ("inf", "+inf"):
        return math.inf
    if low == "-inf":
        return -math.inf
    if low == "pi":
        return math.pi
    if low == "-pi":
        return -math.pi
    try:
        return float(text)
    except ValueError:
        raise ManifoldFormatError(f"bad domain bound {text!r}", offset) from None


def _iter_entries(text: str):
    """Yield (section, key, value, byte_offset_of_value, line_offset)."""
    section = None
    offset = 0
    for raw in text.splitlines(keepends=True):
        line = raw.strip()
        line_offset = offset
        offset += len(raw.encode("utf-8"))
        if not line or line.startswith("#"):
            continue
        if line.startswith("["):
            if not line.endswith("]"):
                raise ManifoldFormatError("unterminated section header", line_offset)
            section = line[1:-1].strip().lower()
            if section not in _SECTIONS:
                raise ManifoldFormatError(f"unknown section [{section}]", line_offset)
            continue
        if section is None:
            raise ManifoldFormatError("entry before any section header", line_offset)
        if "=" not in line:
            raise ManifoldFormatError("expected key = \"value\"", line_offset)
        key, _, value = line.partition("=")
        key = key.strip()
        value = value.strip()
        value_offset = line_offset + raw.find("=") + 1
        if value.startswith('"') and value.endswith('"') and len(value) >= 2:
            value = value[1:-1]
            value_offset = line_offset + raw.find('"') + 1
        yield section, key, value, value_offset


def _parse_indexed(key: str, prefixes: tuple[str, ...], offset: int):
    """Keys like g_11, phi^2_1, xi^3, eta_2, J^1_2 -> (prefix, indices).

    A single two-digit group splits into two one-digit indices (dimensions
    here never exceed 8), so g_12 and g_1_2 are the same entry.
    """
    m = re.match(r"^([A-Za-z]+)[\^_](\d+)(?:_(\d+))?$", key)
    if not m or m.group(1) not in prefixes:
        raise ManifoldFormatError(f"unknown key {key!r}", offset)
    if m.group(3):
        idx = (int(m.group(2)), int(m.group(3)))
    elif len(m.group(2)) == 2:
        idx = (int(m.group(2)[0]), int(m.group(2)[1]))
    else:
        idx = (int(m.group(2)),)
    return m.group(1), idx


def load_manifold_text(text: str):
    """Parse a manifold definition; returns a Chart, an
    AlmostContactStructure or an AlmostHermitianStructure."""
    chart_meta: dict = {}
    metric_entries: list = []
    phi_entries: list = []
    xi_entries: list = []
    eta_entries: list = []
    herm_entries: list = []
    frame_entries: list = []
    saw = set()

    for section, key, value, off in _iter_entries(text):
        saw.add(section)
        if section == "chart":
            if key == "dim":
                try:
                    chart_meta["dim"] = int(value)
                except ValueError:
                    raise ManifoldFormatError("dim must be an integer", off) from None
            elif key == "coords":
                chart_meta["coords"] = tuple(c.strip() for c in value.split(",") if c.strip())
            elif key == "domain":
                m = _DOMAIN_RE.match(value)
                if not m:
                    raise ManifoldFormatError(
                        f"bad domain entry {value!r}; expected 'name in (lo, hi)'", off)
                chart_meta.setdefault("domain", {})[m.group(1)] = (
                    _parse_bound(m.group(2), off), _parse_bound(m.group(3), off))
            else:
                raise ManifoldFormatError(f"unknown key {key!r} in [chart]", off)
        elif section == "metric":
            metric_entries.append((key, value, off))
        elif section == "phi":
            phi_entries.append((key, value, off))
        elif section == "xi":
            xi_entries.append((key, value, off))
        elif section == "eta":
            eta_entries.append((key, value, off))
        elif section == "hermitian":
            herm_entries.append((key, value, off))
        elif section == "frame":
            frame_entries.append((key, value, off))

    if "frame" in saw:
        if saw - {"frame"}:
            raise ManifoldFormatError("[frame] cannot be mixed with chart sections")
        return _build_frame(frame_entries)
    if "chart" not in saw or "metric" not in saw:
        raise ManifoldFormatError("need [chart] and [metric] sections")
    if "hermitian" in saw and ({"phi", "xi", "eta"} & saw):
        raise ManifoldFormatError("[hermitian] replaces the contact block")

    dim = chart_meta.get("dim")
    coords = chart_meta.get("coords")
    if dim is None or coords is None:
        raise ManifoldFormatError("[chart] must declare dim and coords")
    if len(coords) != dim:
        raise ManifoldFormatError(
            f"dim = {dim} but {len(coords)} coordinate names declared")
    domain = []
    declared = chart_meta.get("domain", {})
    for name in declared:
        if name not in coords:
            raise ManifoldFormatError(f"domain for undeclared coordinate {name!r}")
    for name in coords:
        lo, hi = declared.get(name, (-math.inf, math.inf))
        try:
            domain.append(Interval(lo, hi))
        except ValueError as e:
            raise ManifoldFormatError(str(e)) from None

    def parse_entry(text_value: str, off: int) -> ex.Expr:
        try:
            return ex.parse_expr(text_value, coords)
        except ExprSyntaxError as e:
            raise ManifoldFormatError(f"expression error: {e}", off + e.offset) from None
        except UnknownIdentifierError as e:
            raise ManifoldFormatError(str(e), off + max(e.offset, 0)) from None

    metric = np.empty((dim, dim), dtype=object)
    metric[:] = None
    for key, value, off in metric_entries:
        prefix, idx = _parse_indexed(key, ("g",), off)
        if len(idx) != 2 or not all(1 <= i <= dim for i in idx):
            raise ManifoldFormatError(f"bad metric index in {key!r}", off)
        i, j = idx[0] - 1, idx[1] - 1
        e = parse_entry(value, off)
        if metric[j, i] is not None and metric[j, i] != e:
            raise ManifoldFormatError(f"metric entries ({j+1},{i+1}) and "
                                      f"({i+1},{j+1}) disagree", off)
        metric[i, j] = e
        if i != j:
            metric[j, i] = e
    try:
        chart = Chart(coords, metric, domain, name=chart_meta.get("name", ""))
    except ValueError as e:
        raise ManifoldFormatError(str(e)) from None

    def tensor(entries, prefixes, rank, valence):
        if not entries:
            return None
        shape = (dim,) * rank
        comp = np.empty(shape, dtype=object)
        comp[(slice(None),) * rank] = None
        for key, value, off in entries:
            _, idx = _parse_indexed(key, prefixes, off)
            if len(idx) != rank or not all(1 <= i <= dim for i in idx):
                raise ManifoldFormatError(f"bad index in {key!r}", off)
            comp[tuple(i - 1 for i in idx)] = parse_entry(value, off)
        return TensorField(chart, valence, comp)

    phi = tensor(phi_entries, ("phi",), 2, "endomorphism")
    xi = tensor(xi_entries, ("xi",), 1, "vector")
    eta = tensor(eta_entries, ("eta",), 1, "oneform")
    J = tensor(herm_entries, ("J",), 2, "endomorphism")

    if J is not None:
        return AlmostHermitianStructure(chart, J)
    if phi is not None or xi is not None or eta is not None:
        if phi is None or xi is None or eta is None:
            raise ManifoldFormatError("contact block needs [phi], [xi] and [eta]")
        return AlmostContactStructure(carrier=chart, phi=phi, xi=xi, eta=eta)
    return chart


def _build_frame(entries):
    dim = None
    values = []
    for key, value, off in entries:
        if key == "dim":
            try:
                dim = int(value)
            except ValueError:
                raise ManifoldFormatError("dim must be an integer", off) from None
            if dim < 1:
                raise ManifoldFormatError("dim must be a positive integer", off)
        else:
            values.append((key, value, off))
    if dim is None:
        raise ManifoldFormatError("[frame] must declare dim first")

    c = [[[Fraction(0)] * dim for _ in range(dim)] for _ in range(dim)]
    g = [[Fraction(0)] * dim for _ in range(dim)]
    phi = None
    xi = None
    eta = None

    def rat(value: str, off: int) -> Fraction:
        try:
            return Fraction(value.strip())
        except (ValueError, ZeroDivisionError):
            raise ManifoldFormatError(f"bad rational {value!r}", off) from None

    for key, value, off in values:
        m = _FRAME_KEY_RE.match(key)
        if not m:
            raise ManifoldFormatError(f"unknown key {key!r} in [frame]", off)
        name = m.group(1)
        idx = [int(s) for s in re.findall(r"\[(\d+)\]", m.group(2))]
        if not all(1 <= i <= dim for i in idx):
            raise ManifoldFormatError(f"index out of range in {key!r}", off)
        v = rat(value, off)
        if name == "c":
            if len(idx) != 3:
                raise ManifoldFormatError(f"c needs three indices in {key!r}", off)
            k, i, j = (x - 1 for x in idx)
            c[k][i][j] = v
            c[k][j][i] = -v
        elif name == "g":
            if len(idx) != 2:
                raise ManifoldFormatError(f"g needs two indices in {key!r}", off)
            i, j = (x - 1 for x in idx)
            g[i][j] = v
            g[j][i] = v
        elif name == "phi":
            if len(idx) != 2:
                raise ManifoldFormatError(f"phi needs two indices in {key!r}", off)
            if phi is None:
                phi = [[Fraction(0)] * dim for _ in range(dim)]
            phi[idx[0] - 1][idx[1] - 1] = v
        elif name == "xi":
            if len(idx) != 1:
                raise ManifoldFormatError(f"xi needs one index in {key!r}", off)
            if xi is None:
                xi = [Fraction(0)] * dim
            xi[idx[0] - 1] = v
        else:
            if len(idx) != 1:
                raise ManifoldFormatError(f"eta needs one index in {key!r}", off)
            if eta is None:
                eta = [Fraction(0)] * dim
            eta[idx[0] - 1] = v

    try:
        fg = FrameGeometry(dim=dim, c=c, g=g, phi=phi, xi=xi, eta=eta)
    except ValueError as e:
        raise ManifoldFormatError(str(e)) from None
    if fg.phi is not None and fg.xi is not None and fg.eta is not None:
        return AlmostContactStructure(carrier=fg)
    return fg


def load_manifold_file(path) -> object:
    try:
        with open(path, "r", encoding="utf-8") as fh:
            text = fh.read()
    except UnicodeDecodeError as e:
        raise ManifoldFormatError(f"not valid UTF-8: {e.reason}", e.start) from None
    except OSError as e:
        raise ManifoldFormatError(f"cannot read {path}: {e.strerror}") from None
    return load_manifold_text(text)
