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
sections. A [frame] key is one of c (three indices: c[k][i][j] also sets
c[k][j][i] to its negative), g (two: g[i][j] also sets g[j][i]), phi (two),
xi and eta (one each); c and g default to zero, while phi, xi and eta exist
only when an entry names them. Unknown keys are errors (strict mode), and
parse failures carry byte offsets into the file.
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
# [frame] keys: name → (rank, sign of the partner entry that swaps the
# last two indices, or None)
_FRAME_KEYS = {"c": (3, -1), "g": (2, 1), "phi": (2, None), "xi": (1, None), "eta": (1, None)}
_FRAME_KEY_RE = re.compile(rf"^({'|'.join(_FRAME_KEYS)})((?:\[\d+\])+)$")
_INDICES = ("one index", "two indices", "three indices")


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


def _parse_indexed(key: str, prefix: str, offset: int, rank: int):
    """Keys like g_11, phi^2_1, xi^3, eta_2, J^1_2 -> their indices.

    A rank-1 key reads its digit group as one index, so xi^11 is ξ^11. In a
    rank-2 key a single two-digit group splits into two one-digit indices,
    so g_12 and g_1_2 are the same entry; an index of 10 or more needs the
    separated form, g_1_11.
    """
    m = re.match(r"^([A-Za-z]+)[\^_](\d+)(?:_(\d+))?$", key)
    if not m or m.group(1) != prefix:
        raise ManifoldFormatError(f"unknown key {key!r}", offset)
    if m.group(3):
        return int(m.group(2)), int(m.group(3))
    digits = m.group(2)
    if rank == 2 and len(digits) == 2:
        return int(digits[0]), int(digits[1])
    return (int(digits),)


def load_manifold_text(text: str):
    """Parse a manifold definition; returns a Chart, an
    AlmostContactStructure or an AlmostHermitianStructure."""
    chart_meta: dict = {}
    entries: dict[str, list] = {}   # section → its (key, value, offset) in file order
    for section, key, value, off in _iter_entries(text):
        entries.setdefault(section, []).append((key, value, off))
        if section != "chart":
            continue
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

    if "frame" in entries:
        if entries.keys() - {"frame"}:
            raise ManifoldFormatError("[frame] cannot be mixed with chart sections")
        return _build_frame(entries["frame"])
    if "chart" not in entries or "metric" not in entries:
        raise ManifoldFormatError("need [chart] and [metric] sections")
    if "hermitian" in entries and ({"phi", "xi", "eta"} & entries.keys()):
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
    for key, value, off in entries["metric"]:
        idx = _parse_indexed(key, "g", off, 2)
        if len(idx) != 2 or not all(1 <= i <= dim for i in idx):
            raise ManifoldFormatError(f"bad metric index in {key!r}", off)
        i, j = idx[0] - 1, idx[1] - 1
        e = parse_entry(value, off)
        try:
            disagree = metric[j, i] is not None and metric[j, i] != e
        except RecursionError:   # == walks both trees
            raise ManifoldFormatError(ex._TOO_DEEP, off) from None
        if disagree:
            raise ManifoldFormatError(f"metric entries ({j+1},{i+1}) and "
                                      f"({i+1},{j+1}) disagree", off)
        metric[i, j] = e
        if i != j:
            metric[j, i] = e
    try:
        chart = Chart(coords, metric, domain)
    except ValueError as e:
        raise ManifoldFormatError(str(e)) from None

    def tensor(section, prefix, rank, valence):
        if section not in entries:
            return None
        comp = np.empty((dim,) * rank, dtype=object)
        for key, value, off in entries[section]:
            idx = _parse_indexed(key, prefix, off, rank)
            if len(idx) != rank or not all(1 <= i <= dim for i in idx):
                raise ManifoldFormatError(f"bad index in {key!r}", off)
            comp[tuple(i - 1 for i in idx)] = parse_entry(value, off)
        return TensorField(chart, valence, comp)

    phi = tensor("phi", "phi", 2, "endomorphism")
    xi = tensor("xi", "xi", 1, "vector")
    eta = tensor("eta", "eta", 1, "oneform")
    J = tensor("hermitian", "J", 2, "endomorphism")

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

    parsed = []
    for key, value, off in values:
        m = _FRAME_KEY_RE.match(key)
        if not m:
            raise ManifoldFormatError(f"unknown key {key!r} in [frame]", off)
        name = m.group(1)
        idx = tuple(int(s) - 1 for s in re.findall(r"\[(\d+)\]", m.group(2)))
        if not all(0 <= i < dim for i in idx):
            raise ManifoldFormatError(f"index out of range in {key!r}", off)
        try:
            v = Fraction(value.strip())
        except (ValueError, ZeroDivisionError):
            raise ManifoldFormatError(f"bad rational {value!r}", off) from None
        rank = _FRAME_KEYS[name][0]
        if len(idx) != rank:
            raise ManifoldFormatError(f"{name} needs {_INDICES[rank - 1]} in {key!r}", off)
        parsed.append((name, idx, v))
    # a positive definite g has g[i][i] > 0 for every i: checked before the
    # tensors, of dim³ entries, are allocated
    diagonal = {idx[0]: v for name, idx, v in parsed if name == "g" and idx[0] == idx[1]}
    if len(diagonal) < dim or min(diagonal.values()) <= 0:
        raise ManifoldFormatError("frame metric not positive definite")

    def zeros(rank):
        return np.full((dim,) * rank, Fraction(0), dtype=object)

    tensors = {"c": zeros(3), "g": zeros(2)}
    for name, idx, v in parsed:
        rank, partner = _FRAME_KEYS[name]
        t = tensors.setdefault(name, zeros(rank))
        t[idx] = v
        if partner:
            t[idx[:-2] + idx[:-3:-1]] = partner * v

    try:
        fg = FrameGeometry(dim=dim, **tensors)
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
