"""File formats: 16-bit PGM frames, JSON weight documents, CSV tables.

Every writer goes through a temporary file renamed into place on success,
so a failed run never leaves a partial artifact behind.  Numeric text
output uses repr formatting (period decimal separator, shortest
round-trip), which keeps artifacts byte-reproducible and locale-free.
"""

from __future__ import annotations

import json
import os
import tempfile

import numpy as np

from .config import _is_finite, _is_int, _read_document
from .errors import FormatError, ValidationError
from .mapper import BnParams
from .pixel_array import N_CHANNELS

PGM_MAXVAL = 65535
_WHITESPACE = b" \t\r\n\x0b\x0c"


def atomic_write_bytes(path, data: bytes) -> None:
    directory = os.path.dirname(os.path.abspath(path))
    os.makedirs(directory, exist_ok=True)
    fd, tmp = tempfile.mkstemp(dir=directory, prefix=".tmp-", suffix="~")
    try:
        with os.fdopen(fd, "wb") as handle:
            handle.write(data)
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise


def atomic_write_text(path, text: str) -> None:
    atomic_write_bytes(path, text.encode("utf-8"))


# ---------------------------------------------------------------------------
# 16-bit binary PGM (magic P5, maxval 65535, big-endian samples)
# ---------------------------------------------------------------------------

def _next_token(data: bytes, pos: int):
    """Skip whitespace/comments, return (token, token_offset, next_pos)."""
    n = len(data)
    while pos < n:
        byte = data[pos]
        if byte in _WHITESPACE:
            pos += 1
        elif byte == ord("#"):
            while pos < n and data[pos] not in b"\r\n":
                pos += 1
        else:
            break
    if pos >= n:
        raise FormatError("unexpected end of PGM header", pos)
    start = pos
    while pos < n and data[pos] not in _WHITESPACE:
        pos += 1
    return data[start:pos], start, pos


def _int_token(data: bytes, pos: int, what: str):
    token, offset, pos = _next_token(data, pos)
    # Decimal digits only: int() also takes a sign, underscores and
    # non-ASCII digits.  It raises ValueError past its digit limit.
    try:
        if token.isdigit():
            return int(token), offset, pos
    except ValueError:
        pass
    raise FormatError(f"PGM {what} is not a decimal integer: {token!r}", offset)


def load_pgm16(path) -> np.ndarray:
    """Read a 16-bit binary PGM into a (rows, cols) uint16 array."""
    with open(path, "rb") as handle:
        data = handle.read()
    token, offset, pos = _next_token(data, 0)
    if token != b"P5":
        raise FormatError(f"bad PGM magic {token!r}, expected P5", offset)
    width, offset, pos = _int_token(data, pos, "width")
    if width < 1:
        raise FormatError(f"PGM width must be >= 1, got {width}", offset)
    height, offset, pos = _int_token(data, pos, "height")
    if height < 1:
        raise FormatError(f"PGM height must be >= 1, got {height}", offset)
    maxval, offset, pos = _int_token(data, pos, "maxval")
    if maxval != PGM_MAXVAL:
        raise FormatError(f"PGM maxval must be {PGM_MAXVAL} (16-bit), got {maxval}", offset)
    if pos >= len(data) or data[pos] not in _WHITESPACE:
        raise FormatError("PGM header must end with a whitespace byte", pos)
    pos += 1
    expected = width * height * 2
    if len(data) - pos < expected:
        raise FormatError(
            f"truncated PGM raster: expected {expected} bytes, found {len(data) - pos}",
            len(data),
        )
    # Decoded straight from the file's bytes, with no copy of the raster.
    samples = np.frombuffer(data, dtype=">u2", count=width * height, offset=pos)
    return samples.reshape(height, width).astype(np.uint16)


def save_pgm16(path, samples) -> None:
    arr = np.asarray(samples)
    if arr.ndim != 2:
        raise ValidationError("PGM frames are 2-D")
    if not np.issubdtype(arr.dtype, np.integer):
        raise ValidationError("PGM samples must be integers")
    # min() and max() need no bool temporaries but fail on an empty array.
    if arr.size and (arr.min() < 0 or arr.max() > PGM_MAXVAL):
        raise ValidationError(f"PGM samples must be in [0, {PGM_MAXVAL}]")
    rows, cols = arr.shape
    header = f"P5\n{cols} {rows}\n{PGM_MAXVAL}\n".encode("ascii")
    # The file's bytes are built in one buffer: the big-endian samples are
    # cast straight into it after the header, with no copy of the frame.
    data = bytearray(len(header) + 2 * arr.size)
    data[: len(header)] = header
    np.frombuffer(data, dtype=">u2", offset=len(header)).reshape(arr.shape)[...] = arr
    atomic_write_bytes(path, data)


# ---------------------------------------------------------------------------
# Weight + BN document (JSON)
# ---------------------------------------------------------------------------

def _number_array(value):
    """value as an object array, and the indices of its elements that are
    not finite numbers by the config loader's test (no bool, NaN,
    infinity, string or integer beyond float64).  A ragged list's rows
    are such elements."""
    arr = np.array(value, dtype=object)
    return arr, [idx for idx, item in np.ndenumerate(arr) if not _is_finite(item)]


def load_weights(path):
    """Load (weights, BnParams) from a weight document.

    The document is read as a config is.  Validation reports every
    violation found, not only the first.
    """
    doc = _read_document(path)
    problems = []
    shape = doc.get("shape")
    if not isinstance(shape, dict):
        problems.append("missing or invalid 'shape' object")
        shape = {}
    dims = {}
    for name in ("c_o", "c_in", "k"):
        value = shape.get(name)
        if not (_is_int(value) and _is_finite(value) and value >= 1):
            problems.append(f"shape.{name} must be a positive integer, got {value!r}")
        else:
            dims[name] = value
    if dims.get("c_in", N_CHANNELS) != N_CHANNELS:
        problems.append(f"shape.c_in must be {N_CHANNELS} (RGGB planes)")
    weights = None
    if "weights" not in doc:
        problems.append("missing 'weights' array")
    elif len(dims) == 3:
        expected = (dims["c_o"], dims["c_in"], dims["k"], dims["k"])
        arr, bad = _number_array(doc["weights"])
        if arr.shape != expected:
            problems.append(f"weights shape {arr.shape} != declared {expected}")
        elif bad:
            problems.extend(
                f"weight at channel {ch}, plane {plane}, tap ({i}, {j}) is not a finite number"
                for ch, plane, i, j in bad
            )
        else:
            weights = arr.astype(float)
    bn_doc = doc.get("bn")
    bn = None
    if not isinstance(bn_doc, dict):
        problems.append("missing or invalid 'bn' object")
    else:
        arrays = {}
        for name in ("gamma", "beta", "mu", "sigma_sq"):
            arr, bad = _number_array(bn_doc.get(name))
            if arr.ndim != 1 or ("c_o" in dims and arr.shape != (dims["c_o"],)):
                problems.append(
                    f"bn.{name} must be a length-c_o array, got shape {arr.shape}"
                )
            elif bad:
                problems.append(f"bn.{name} must hold finite numbers")
            else:
                arrays[name] = arr.astype(float)
        epsilon = bn_doc.get("epsilon")
        if not (_is_finite(epsilon) and epsilon > 0):
            problems.append(f"bn.epsilon must be a positive number, got {epsilon!r}")
        elif len(arrays) == 4:
            if np.any(arrays["sigma_sq"] < 0):
                problems.append("bn.sigma_sq must be >= 0")
            else:
                bn = BnParams(epsilon=float(epsilon), **arrays)
    if problems:
        raise ValidationError(
            "invalid weight document:\n  " + "\n  ".join(problems)
        )
    return weights, bn


def save_weights(path, weights, bn: BnParams) -> None:
    arr = np.asarray(weights, dtype=float)
    if arr.ndim != 4 or arr.shape[1] != N_CHANNELS or arr.shape[2] != arr.shape[3]:
        raise ValidationError(f"weights must be (c_o, {N_CHANNELS}, k, k), got {arr.shape}")
    doc = {
        "shape": {"c_o": arr.shape[0], "c_in": arr.shape[1], "k": arr.shape[2]},
        "weights": arr.tolist(),
        "bn": {
            "gamma": bn.gamma.tolist(),
            "beta": bn.beta.tolist(),
            "mu": bn.mu.tolist(),
            "sigma_sq": bn.sigma_sq.tolist(),
            "epsilon": bn.epsilon,
        },
    }
    atomic_write_text(path, json.dumps(doc, indent=2, sort_keys=True) + "\n")


# ---------------------------------------------------------------------------
# CSV / JSON artifacts
# ---------------------------------------------------------------------------

def _format_cell(value) -> str:
    if isinstance(value, (bool, np.bool_)):
        return "1" if value else "0"
    if isinstance(value, (int, np.integer)):
        return str(int(value))
    if isinstance(value, (float, np.floating)):
        return repr(float(value))
    return str(value)


_INTEGRAL = (int, np.integer, np.bool_)
_REAL = (float, np.floating)


def _format_column(column: tuple):
    """_format_cell of every cell of a column, in one pass when the column
    holds only numbers of one kind: str(int(v)) is _format_cell's text for
    every bool and integer, repr(float(v)) for every float."""
    types = set(map(type, column))
    if all(issubclass(t, _REAL) for t in types):
        return map(repr, map(float, column))
    if all(issubclass(t, _INTEGRAL) for t in types):
        return map(str, map(int, column))
    return map(_format_cell, column)


def write_csv(path, header, rows) -> None:
    """Write header and rows as CSV text, formatted column by column: bools
    as 1 or 0, integers as decimals, floats by repr, anything else by
    str.  Every row must be as wide as the header."""
    width = len(header)
    rows = [tuple(row) for row in rows]
    bad = next((len(row) for row in rows if len(row) != width), None)
    if bad is not None:
        raise ValidationError(f"CSV row width {bad} != header width {width}")
    # zip(*rows) takes the rows apart into columns, zip(*columns) puts the
    # formatted cells back together; a zero-width table has empty rows.
    cells = zip(*map(_format_column, zip(*rows))) if width else [()] * len(rows)
    lines = [",".join(header), *map(",".join, cells)]
    atomic_write_text(path, "\n".join(lines) + "\n")


def read_csv(path, expected_header):
    """Read a CSV written by write_csv; header must match exactly.  A file
    that is not UTF-8 text, or a cell that is not a number, raises
    FormatError naming the line."""
    with open(path, "rb") as handle:
        data = handle.read()
    try:
        lines = data.decode("utf-8").splitlines()
    except UnicodeDecodeError as exc:
        line = data.count(b"\n", 0, exc.start) + 1
        raise FormatError(f"CSV line {line} is not UTF-8 text", exc.start)
    if not lines:
        raise FormatError("empty CSV file", 0)
    header = lines[0].split(",")
    if header != list(expected_header):
        raise FormatError(f"CSV header {header} != expected {list(expected_header)}", 0)
    rows = []
    for number, line in enumerate(lines[1:], start=2):
        if not line:
            continue
        cells = line.split(",")
        if len(cells) != len(header):
            raise FormatError(
                f"CSV line {number}: row width {len(cells)} != header width {len(header)}"
            )
        try:
            rows.append([float(cell) for cell in cells])
        except ValueError:
            raise FormatError(f"CSV line {number} has a cell that is not a number: {line!r}")
    return rows


def write_json(path, obj) -> None:
    """Write obj as JSON; NaN and Infinity, which JSON lacks, raise
    ValueError instead of reaching the file."""
    atomic_write_text(path, json.dumps(obj, indent=2, sort_keys=True, allow_nan=False) + "\n")
