"""File formats: 16-bit PGM frames, JSON weight documents, CSV tables.

Every writer streams into a temporary file renamed into place on success,
so a failed run, even one that fails partway through, never leaves a
partial artifact behind.  The PGM writer takes a frame in row blocks and
the CSV writer takes rows in chunks, and the PGM reader reads any row
range straight into its result, so no frame- or table-sized buffer of
file bytes or text is built.  Numeric text output uses repr formatting
(period decimal separator, shortest round-trip), which keeps artifacts
byte-reproducible and locale-free.
"""

from __future__ import annotations

import contextlib
import itertools
import json
import os
import sys
import tempfile

import numpy as np

from .config import _is_finite, _is_int, _read_document
from .errors import FormatError, ValidationError
from .mapper import BnParams
from .parallel import row_blocks
from .pixel_array import N_CHANNELS

PGM_MAXVAL = 65535
_WHITESPACE = b" \t\r\n\x0b\x0c"
# Bytes of a PGM file read for its header at first; a longer header is
# read again, twice as long each time.
_HEADER_READ = 4096
# Rows of a CSV table formatted and written at a time.
_CSV_CHUNK_ROWS = 1024


@contextlib.contextmanager
def _atomic_file(path):
    """A binary handle on a temporary file beside path, renamed to path when
    the block completes and removed when it raises."""
    directory = os.path.dirname(os.path.abspath(path))
    os.makedirs(directory, exist_ok=True)
    fd, tmp = tempfile.mkstemp(dir=directory, prefix=".tmp-", suffix="~")
    try:
        with os.fdopen(fd, "wb") as handle:
            yield handle
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise


def atomic_write_text(path, text: str) -> None:
    with _atomic_file(path) as handle:
        handle.write(text.encode("utf-8"))


# ---------------------------------------------------------------------------
# 16-bit binary PGM (magic P5, maxval 65535, big-endian samples)
# ---------------------------------------------------------------------------

class _ShortRead(Exception):
    """The header runs on past the bytes read so far."""


def _next_token(data: bytes, pos: int, eof: bool):
    """Skip whitespace/comments, return (token, token_offset, next_pos).
    Unless data ends at the end of the file (eof), reaching its end raises
    _ShortRead."""
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
    start = pos
    while pos < n and data[pos] not in _WHITESPACE:
        pos += 1
    if pos >= n and not eof:
        raise _ShortRead
    if start >= n:
        raise FormatError("unexpected end of PGM header", start)
    return data[start:pos], start, pos


def _int_token(data: bytes, pos: int, eof: bool, what: str):
    token, offset, pos = _next_token(data, pos, eof)
    # Decimal digits only: int() also takes a sign, underscores and
    # non-ASCII digits.  It raises ValueError past its digit limit.
    try:
        if token.isdigit():
            return int(token), offset, pos
    except ValueError:
        pass
    raise FormatError(f"PGM {what} is not a decimal integer: {token!r}", offset)


def _parse_header(data: bytes, eof: bool):
    """(height, width, raster offset) from the first bytes of a PGM file."""
    token, offset, pos = _next_token(data, 0, eof)
    if token != b"P5":
        raise FormatError(f"bad PGM magic {token!r}, expected P5", offset)
    width, offset, pos = _int_token(data, pos, eof, "width")
    if width < 1:
        raise FormatError(f"PGM width must be >= 1, got {width}", offset)
    height, offset, pos = _int_token(data, pos, eof, "height")
    if height < 1:
        raise FormatError(f"PGM height must be >= 1, got {height}", offset)
    maxval, offset, pos = _int_token(data, pos, eof, "maxval")
    if maxval != PGM_MAXVAL:
        raise FormatError(f"PGM maxval must be {PGM_MAXVAL} (16-bit), got {maxval}", offset)
    if pos >= len(data) or data[pos] not in _WHITESPACE:
        raise FormatError("PGM header must end with a whitespace byte", pos)
    return height, width, pos + 1


def _read_header(handle):
    """(height, width, raster offset) of the open PGM file handle, whose
    raster must be whole."""
    size = os.fstat(handle.fileno()).st_size
    n = _HEADER_READ
    while True:
        handle.seek(0)
        data = handle.read(n)
        try:
            height, width, offset = _parse_header(data, len(data) == size)
            break
        except _ShortRead:
            n *= 2
    expected = width * height * 2
    if size - offset < expected:
        raise FormatError(
            f"truncated PGM raster: expected {expected} bytes, found {size - offset}", size
        )
    return height, width, offset


def pgm16_shape(path) -> tuple:
    """(rows, cols) of a 16-bit binary PGM, checked as load_pgm16 checks
    it, without reading its raster."""
    with open(path, "rb") as handle:
        height, width, _ = _read_header(handle)
    return height, width


def load_pgm16(path, rows=None) -> np.ndarray:
    """Read a 16-bit binary PGM into a (rows, cols) uint16 array, or only
    rows r0..r1-1 when rows is (r0, r1).  The samples are read from the
    file straight into the result and byte-swapped there."""
    with open(path, "rb") as handle:
        height, width, offset = _read_header(handle)
        r0, r1 = (0, height) if rows is None else rows
        if not 0 <= r0 <= r1 <= height:
            raise ValidationError(f"PGM rows {r0}..{r1} are outside 0..{height}")
        frame = np.empty((r1 - r0, width), dtype=np.uint16)
        handle.seek(offset + 2 * width * r0)
        found = handle.readinto(frame)
    if found != frame.nbytes:
        raise FormatError("PGM file shrank while it was read", offset + 2 * width * r0 + found)
    if sys.byteorder == "little":
        frame.byteswap(inplace=True)
    return frame


def _pgm_block(block, cols: int) -> np.ndarray:
    """block's samples as big-endian bytes, once it is checked."""
    arr = np.asarray(block)
    if arr.ndim != 2:
        raise ValidationError("PGM frames are 2-D")
    if not np.issubdtype(arr.dtype, np.integer):
        raise ValidationError("PGM samples must be integers")
    if arr.shape[1] != cols:
        raise ValidationError(f"PGM row block is {arr.shape[1]} columns wide, expected {cols}")
    # min() and max() need no bool temporaries but fail on an empty array.
    if arr.size and (arr.min() < 0 or arr.max() > PGM_MAXVAL):
        raise ValidationError(f"PGM samples must be in [0, {PGM_MAXVAL}]")
    return arr.astype(">u2", order="C")


def save_pgm16(path, samples, shape=None) -> None:
    """Write a 16-bit binary PGM.  samples is a 2-D integer array or, with
    shape (rows, cols), an iterable of 2-D row blocks that stack to that
    shape.  The header and then each block's big-endian samples go into
    the temporary file in turn; a whole array goes in parallel.row_blocks
    blocks, so no frame-sized byte buffer is made."""
    if shape is None:
        frame = np.asarray(samples)
        if frame.ndim != 2:
            raise ValidationError("PGM frames are 2-D")
        shape = frame.shape
        # A frame of no rows is one block, so that its dtype is checked.
        samples = [frame[r0:r1] for r0, r1 in row_blocks(*shape)] or [frame]
    rows, cols = shape
    done = 0
    with _atomic_file(path) as handle:
        handle.write(f"P5\n{cols} {rows}\n{PGM_MAXVAL}\n".encode("ascii"))
        # map() keeps no block alive while the next is made.
        for data in map(_pgm_block, samples, itertools.repeat(cols)):
            done += len(data)
            handle.write(data)
        if done != rows:
            raise ValidationError(f"PGM row blocks hold {done} rows, expected {rows}")


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
    str.  Every row must be as wide as the header.  The rows are taken,
    formatted and written _CSV_CHUNK_ROWS at a time."""
    width = len(header)
    rows = iter(rows)
    with _atomic_file(path) as handle:
        handle.write((",".join(header) + "\n").encode("utf-8"))
        while chunk := [tuple(row) for row in itertools.islice(rows, _CSV_CHUNK_ROWS)]:
            bad = next((len(row) for row in chunk if len(row) != width), None)
            if bad is not None:
                raise ValidationError(f"CSV row width {bad} != header width {width}")
            # zip(*chunk) takes the rows apart into columns, zip(*columns)
            # puts the formatted cells back together; a zero-width table
            # has empty rows.
            cells = zip(*map(_format_column, zip(*chunk))) if width else [()] * len(chunk)
            handle.write(("\n".join(map(",".join, cells)) + "\n").encode("utf-8"))


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
