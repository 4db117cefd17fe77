"""Deterministic text emission: 17-digit floats, LF endings, SHA-256.

Every float is written with 17 significant digits so a round trip
through text recovers the exact 64-bit value.  JSON is emitted by a
small recursive writer because the canonical float format (and the
string forms ``inf``/``-inf``/``nan`` for non-finite values) must not
depend on library defaults.
"""

from __future__ import annotations

import dataclasses
import functools
import hashlib
import json
import math

import numpy as np

from .errors import InvalidArgumentError


def format_float(x: float) -> str:
    """17 significant digits; non-finite values as inf / -inf / nan."""
    return f"{float(x):.17g}"


def _emit(obj, indent: int, pieces: list) -> None:
    """Append the JSON of ``obj`` to ``pieces``: dataclasses as objects of
    their fields, numpy arrays as nested lists, tuples as lists and numpy
    scalars as the Python value."""
    pad = "  " * indent
    if obj is None:
        pieces.append("null")
    elif isinstance(obj, (bool, np.bool_)):
        pieces.append("true" if obj else "false")
    elif isinstance(obj, (int, np.integer)):
        pieces.append(str(int(obj)))
    elif isinstance(obj, (float, np.floating)):
        if math.isfinite(obj):
            pieces.append(format_float(obj))
        else:
            pieces.append(json.dumps(format_float(obj)))
    elif isinstance(obj, str):
        pieces.append(json.dumps(obj, ensure_ascii=False))
    elif isinstance(obj, dict):
        if not obj:
            pieces.append("{}")
            return
        pieces.append("{\n")
        for i, (key, value) in enumerate(obj.items()):
            pieces.append(f"{pad}  {json.dumps(str(key), ensure_ascii=False)}: ")
            _emit(value, indent + 1, pieces)
            pieces.append(",\n" if i + 1 < len(obj) else "\n")
        pieces.append(pad + "}")
    elif isinstance(obj, (list, tuple)):
        if not obj:
            pieces.append("[]")
            return
        pieces.append("[\n")
        for i, value in enumerate(obj):
            pieces.append(pad + "  ")
            _emit(value, indent + 1, pieces)
            pieces.append(",\n" if i + 1 < len(obj) else "\n")
        pieces.append(pad + "]")
    elif isinstance(obj, np.ndarray):
        _emit(obj.tolist(), indent, pieces)
    elif dataclasses.is_dataclass(obj) and not isinstance(obj, type):
        _emit({f.name: getattr(obj, f.name) for f in dataclasses.fields(obj)},
              indent, pieces)
    else:
        raise InvalidArgumentError(f"cannot serialize object of type {type(obj).__name__}")


def dumps_json(obj) -> str:
    """Deterministic pretty JSON with canonical float formatting."""
    pieces: list = []
    _emit(obj, 0, pieces)
    return "".join(pieces) + "\n"


def write_json(path, obj) -> None:
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write(dumps_json(obj))


def write_csv(path, header, rows) -> None:
    """Comma-separated text, one header row, floats at 17 digits."""
    lines = []
    if header is not None:
        lines.append(",".join(str(h) for h in header))
    for row in rows:
        cells = []
        for value in row:
            if isinstance(value, (bool, np.bool_)):
                cells.append("true" if value else "false")
            elif isinstance(value, (int, np.integer)):
                cells.append(str(int(value)))
            elif isinstance(value, (float, np.floating)):
                cells.append(format_float(value))
            else:
                cells.append(str(value))
        lines.append(",".join(cells))
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write("\n".join(lines) + "\n")


#: 5**k for the decimal scalings k = 0..26 of the exact window
_POW5 = np.array([5 ** k for k in range(27)], dtype=np.uint64)
#: the exponent suffixes of the exact window's e-form, indexed by X + 10
_EXPONENTS = np.frombuffer(b"".join(b"e-%02d" % -x for x in range(-10, -4)),
                           dtype=np.uint8).reshape(6, 4)
_LO32 = np.uint64(0xFFFFFFFF)
#: cells of a matrix block: its temporaries peak near 2 MB whatever the row
#: length (2**15 cells peaked near 8 MB and wrote no faster)
_BLOCK_CELLS = 2 ** 13
#: bytes of one cell's row in a block: an exact text and its separator end
#: by column 29, a %.17g text and its separator fill at most 25
_WIDTH = 32
#: _KEEP[start * _WIDTH + sep] marks the row columns start..sep
_KEEP = ((np.arange(_WIDTH) >= np.arange(8)[:, None, None])
         & (np.arange(_WIDTH) <= np.arange(_WIDTH)[:, None])).reshape(-1, _WIDTH)


@functools.cache
def _tables():
    """The ASCII digits of 0000..9999 (four bytes each), the trailing zero
    digits of each (4 for 0000), and rows ``before[p]`` that are 1 at the
    columns before column p.

    Built on first use: the numpy calls building them add about 0.5 MB of
    resident memory to a process, which one that writes no matrix skips.
    """
    quads = np.arange(10_000, dtype=np.uint16)
    groups = (quads[:, None] // np.array([1000, 100, 10, 1], dtype=np.uint16) % 10
              + ord("0")).astype(np.uint8).view(np.uint32).ravel()
    trailing_zeros = sum(quads % 10 ** j == 0 for j in range(1, 5))
    before = (np.arange(_WIDTH) < np.arange(_WIDTH)[:, None]).astype(np.uint8)
    return groups, trailing_zeros, before


def _round_scaled(mant, exp2, k):
    """floor(mant * 2**exp2 * 10**k) and whether round-half-even adds one.

    The product mant * 5**k is a 128-bit (hi, lo) pair built from 32-bit
    halves, then shifted right by s = -(exp2 + k).  Moving up to six
    factors of 2 from the shift into mant keeps s in [1, 63], the shifts
    numpy defines, and mant * 5**k below 2**120.
    """
    pre = np.maximum(exp2 + k + 1, 0)
    mant = mant << pre.astype(np.uint64)
    shift = (pre - exp2 - k).astype(np.uint64)
    p = _POW5[k]
    ml, mh, pl, ph = mant & _LO32, mant >> 32, p & _LO32, p >> 32
    ll, lh, hl = ml * pl, ml * ph, mh * pl
    mid = (ll >> 32) + (lh & _LO32) + (hl & _LO32)
    lo = (ll & _LO32) | (mid << 32)
    hi = mh * ph + (lh >> 32) + (hl >> 32) + (mid >> 32)
    d = (hi << (64 - shift)) | (lo >> shift)
    rem = lo & ((np.uint64(1) << shift) - 1)
    half = np.uint64(1) << (shift - 1)
    return d, (rem > half) | ((rem == half) & (d & 1 == 1))


def _trailing_zeros8(v, trailing_zeros):
    """Trailing zero digits of eight-digit groups; 8 for 0."""
    top = v // 10_000
    low = v - top * 10_000
    return trailing_zeros[low] + (low == 0) * trailing_zeros[top]


def _format_cells(x, m) -> np.ndarray:
    """The bytes of ``"%.17g" % v`` for each cell of ``x``, m to a line.

    A finite cell with 1e-10 <= |v| < 1e17 gets its 17 digits
    D = round-half-even(|v| * 10**(16 - X)) by exact integer arithmetic,
    X being the decimal exponent of |v|; every other cell (zeros,
    subnormals, non-finite values and the rest) is formatted by ``%``.
    """
    groups, trailing_zeros, before = _tables()
    n = x.size
    ax = np.abs(x)
    exact = (ax >= 1e-10) & (ax < 1e17)
    fallback = np.flatnonzero(~exact)
    if fallback.size:
        ax[fallback] = 1.0
    bits = ax.view(np.uint64)
    mant = (bits & np.uint64((1 << 52) - 1)) | np.uint64(1 << 52)
    exp2 = (bits >> 52).astype(np.int64) - 1075
    # log10 may miss by one decade next to a power of ten; the truncated
    # D then falls outside [10**16, 10**17) and X moves one decade
    xd = np.clip(np.floor(np.log10(ax)).astype(np.int64), -10, 16)
    d, up = _round_scaled(mant, exp2, 16 - xd)
    miss = (d < 10 ** 16).astype(np.int64) - (d >= 10 ** 17)
    redo = np.flatnonzero(miss)
    if redo.size:
        xd[redo] -= miss[redo]
        d[redo], up[redo] = _round_scaled(mant[redo], exp2[redo], 16 - xd[redo])
    # no double in the window rounds up to 10**17: the largest one below
    # each power of ten from 1e-9 to 1e17 is more than 5e-18 of it below
    d += up

    # cell i's text is laid out in row i of a block of _WIDTH-byte rows:
    # digit j of D at column 7 + j, four zeros before it at columns 3..6
    q8 = d // 10 ** 8
    low8 = (d - q8 * 10 ** 8).astype(np.uint32)
    lead = q8 // 10 ** 8
    high8 = (q8 - lead * 10 ** 8).astype(np.uint32)
    digits = np.empty(4 + n * _WIDTH, dtype=np.uint8)
    words = digits[4:].view(np.uint32).reshape(n, _WIDTH // 4)
    words[:, 0] = groups[0]
    words[:, 1] = groups[lead]
    for i, v in ((2, high8), (4, low8)):
        top = v // 10_000
        words[:, i] = groups[top]
        words[:, i + 1] = groups[v - top * 10_000]
    last = (16 - _trailing_zeros8(low8, trailing_zeros)
            - (low8 == 0) * _trailing_zeros8(high8, trailing_zeros))

    # %g: fixed point for -4 <= X < 17 ("0.000ddd" below 1), else d.ddde-XX;
    # the point goes at column `point`, the text starts at `start`
    # (its sign one before) and ends before `sep`
    e_form = xd < -4
    point = np.where(e_form, 8, xd + 8)
    start = np.where(e_form, 7, 7 + np.minimum(xd, 0))
    sep = np.where(7 + last < point, point, 9 + last)
    # each byte from `point` on moves one column right: out takes the byte
    # before it there, its own byte before `point`
    left = digits[3:-1]
    out = digits[4:] - left
    out *= before.take(point, axis=0).ravel()
    out += left
    row = np.arange(0, n * _WIDTH, _WIDTH)
    out[row + point] = ord(".")
    neg = np.flatnonzero(x < 0)
    start[neg] -= 1
    out[row[neg] + start[neg]] = ord("-")
    e_rows = np.flatnonzero(e_form)
    if e_rows.size:
        out[(row + sep)[e_rows, None] + np.arange(4)] = _EXPONENTS[xd[e_rows] + 10]
        sep[e_rows] += 4
    if fallback.size:
        text = np.array(["%.17g" % v for v in x[fallback].tolist()], dtype="S25")
        out.reshape(n, _WIDTH)[fallback, :25] = text.view(np.uint8).reshape(-1, 25)
        start[fallback] = 0
        sep[fallback] = np.char.str_len(text)
    out[row + sep] = ord(",")
    out[row[m - 1::m] + sep[m - 1::m]] = ord("\n")
    return out[_KEEP.take(start * _WIDTH + sep, axis=0).ravel()]


def write_matrix_csv(path, times, matrix) -> None:
    """Paths-by-times matrix under a header row of grid times.

    Every cell has the bytes of ``format_float``.  The rows go out in
    blocks of about 2**13 cells, each formatted at once by exact integer
    arithmetic: for 1e-10 <= |x| < 1e17, the correctly rounded 17 digits
    of ``%.17g`` are round-half-even(M * 5**k * 2**(E + k)), with M and E
    the significand and binary exponent of x and k = 16 minus its decimal
    exponent, laid out as ``%g`` lays them out.  Cells outside that window
    (zeros, subnormals, non-finite and larger or smaller magnitudes) and
    the header row go through ``"%.17g" % x``.
    """
    matrix = np.asarray(matrix, dtype=float)
    times = np.asarray(times, dtype=float)
    if matrix.ndim != 2 or matrix.shape[1] != times.size:
        raise InvalidArgumentError(
            f"matrix of shape {matrix.shape} does not match {times.size} times")
    m = times.size
    with open(path, "wb") as fh:
        fh.write((",".join(["%.17g"] * m) % tuple(times.tolist()) + "\n").encode("ascii"))
        if m == 0:  # rows without cells
            fh.write(b"\n" * matrix.shape[0])
            return
        step = max(1, _BLOCK_CELLS // m)
        for start in range(0, matrix.shape[0], step):
            fh.write(_format_cells(np.ravel(matrix[start:start + step]), m))


def sha256_file(path) -> str:
    digest = hashlib.sha256()
    with open(path, "rb") as fh:
        for block in iter(lambda: fh.read(1 << 20), b""):
            digest.update(block)
    return digest.hexdigest()
