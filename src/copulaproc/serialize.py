"""Deterministic text emission: 17-digit floats, LF endings, SHA-256.

Every float is written with 17 significant digits so a round trip
through text recovers the exact 64-bit value.  JSON is emitted by a
small recursive writer because the canonical float format (and the
string forms ``inf``/``-inf``/``nan`` for non-finite values) must not
depend on library defaults.
"""

from __future__ import annotations

import dataclasses
import hashlib
import json
import math

import numpy as np

from .errors import InvalidArgumentError


def format_float(x: float) -> str:
    """17 significant digits; non-finite values as inf / -inf / nan."""
    return f"{float(x):.17g}"


def to_jsonable(obj):
    """Reduce dataclasses, numpy containers, and tuples to plain types."""
    if dataclasses.is_dataclass(obj) and not isinstance(obj, type):
        return {f.name: to_jsonable(getattr(obj, f.name))
                for f in dataclasses.fields(obj)}
    if isinstance(obj, dict):
        return {str(k): to_jsonable(v) for k, v in obj.items()}
    if isinstance(obj, np.ndarray):
        return [to_jsonable(v) for v in obj.tolist()]
    if isinstance(obj, (list, tuple)):
        return [to_jsonable(v) for v in obj]
    if isinstance(obj, (bool, np.bool_)):
        return bool(obj)
    if isinstance(obj, (int, np.integer)):
        return int(obj)
    if isinstance(obj, (float, np.floating)):
        return float(obj)
    if obj is None or isinstance(obj, str):
        return obj
    raise InvalidArgumentError(f"cannot serialize object of type {type(obj).__name__}")


def _emit(obj, indent: int, pieces: list) -> None:
    pad = "  " * indent
    if obj is None:
        pieces.append("null")
    elif isinstance(obj, bool):
        pieces.append("true" if obj else "false")
    elif isinstance(obj, int):
        pieces.append(str(obj))
    elif isinstance(obj, float):
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
    else:
        _emit(to_jsonable(obj), indent, pieces)


def dumps_json(obj) -> str:
    """Deterministic pretty JSON with canonical float formatting."""
    pieces: list = []
    _emit(to_jsonable(obj), 0, pieces)
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


def write_matrix_csv(path, times, matrix) -> None:
    """Paths-by-times matrix under a header row of grid times.

    ``"%.17g" % x`` gives the bytes of ``format_float(x)`` for every
    float64, non-finite values included, so one row format serves the
    header and every row; rows are written 1024 at a time.
    """
    matrix = np.asarray(matrix, dtype=float)
    times = np.asarray(times, dtype=float)
    if matrix.ndim != 2 or matrix.shape[1] != times.size:
        raise InvalidArgumentError(
            f"matrix of shape {matrix.shape} does not match {times.size} times")
    row = ",".join(["%.17g"] * times.size) + "\n"
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write(row % tuple(times.tolist()))
        for start in range(0, matrix.shape[0], 1024):
            fh.write("".join([row % tuple(r)
                              for r in matrix[start:start + 1024].tolist()]))


def sha256_file(path) -> str:
    digest = hashlib.sha256()
    with open(path, "rb") as fh:
        for block in iter(lambda: fh.read(1 << 20), b""):
            digest.update(block)
    return digest.hexdigest()
