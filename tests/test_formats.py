import json
import math
import os
import tracemalloc

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from ctia_ipc import formats
from ctia_ipc.errors import FormatError, ValidationError
from ctia_ipc.formats import (
    load_pgm16,
    load_weights,
    pgm16_shape,
    read_csv,
    save_pgm16,
    save_weights,
    write_csv,
    write_json,
)
from ctia_ipc.mapper import BnParams
from ctia_ipc.pixel import frame_to_photocurrents


# PGM header parts: tokens a loader must reject next to well-formed ones,
# and separators with comments.  Decimal digits are the only integer
# syntax the format has.
_PGM_BAD_TOKENS = [b"x", b"1.5", b"+3", b"1_6", b"0x4", b"\xd9\xa3", b"1" * 5000]
_PGM_SEPARATORS = [b" ", b"\n", b"\t", b"\r\n", b"\x0b\x0c", b"\n# a comment\n", b" #x\r", b"#\n"]


@st.composite
def pgm_documents(draw):
    """(bytes, header length, declared (height, width) or None): a header
    of magic, width, height and maxval, a raster that is short, exact or
    long, and sometimes a cut inside the header."""
    magic = draw(st.sampled_from([b"P5", b"P5", b"P2", b"P6", b"p5", b""]))
    dims = [
        draw(st.one_of(st.integers(-1, 5), st.sampled_from([2**40, 10**30]), st.sampled_from(_PGM_BAD_TOKENS)))
        for _ in range(2)
    ]
    maxval = draw(st.one_of(st.just(65535), st.sampled_from([0, 1, 255, 65534, 65536]), st.sampled_from(_PGM_BAD_TOKENS)))
    tokens = [magic] + [str(v).encode() if isinstance(v, int) else v for v in (*dims, maxval)]
    header = draw(st.sampled_from(_PGM_SEPARATORS[:2] + [b"# lead\n"]))
    for i, token in enumerate(tokens):
        header += token + (draw(st.sampled_from(_PGM_SEPARATORS)) if i < 3 else b"")
    header += draw(st.sampled_from([b"\n", b" ", b"\r", b"\t"]))
    width, height = dims
    small = all(isinstance(v, int) and 1 <= v <= 5 for v in dims)
    full = 2 * width * height if small else 60
    size = draw(st.one_of(st.just(full), st.integers(0, full + 3)))
    raster = draw(st.binary(min_size=size, max_size=size))
    cut = draw(st.booleans())
    if cut:
        header = header[: draw(st.integers(0, len(header)))]
        raster = b""
    well_formed = magic == b"P5" and small and maxval == 65535 and not cut
    return header + raster, len(header), (height, width) if well_formed else None


class TestPgm:
    def test_roundtrip_gradient(self, tmp_path):
        frame = (np.arange(64 * 48).reshape(48, 64) % 65536).astype(np.uint16)
        path = tmp_path / "frame.pgm"
        save_pgm16(path, frame)
        assert np.array_equal(load_pgm16(path), frame)

    def test_endpoint_example(self, tmp_path):
        frame = np.array([[65535, 0], [0, 65535]], dtype=np.uint16)
        path = tmp_path / "tiny.pgm"
        save_pgm16(path, frame)
        i_max = 50e-12
        currents = frame_to_photocurrents(load_pgm16(path), i_max)
        assert currents[0, 0] == i_max and currents[1, 1] == i_max
        assert currents[0, 1] == 0.0 and currents[1, 0] == 0.0

    def test_bad_magic(self, tmp_path):
        path = tmp_path / "bad.pgm"
        path.write_bytes(b"P2\n2 2\n65535\n")
        with pytest.raises(FormatError) as err:
            load_pgm16(path)
        assert err.value.offset == 0

    def test_bad_maxval(self, tmp_path):
        path = tmp_path / "bad.pgm"
        path.write_bytes(b"P5\n2 2\n255\n" + bytes(8))
        with pytest.raises(FormatError) as err:
            load_pgm16(path)
        assert "maxval" in str(err.value)
        assert err.value.offset == 7  # offset of the maxval token

    def test_truncated_raster(self, tmp_path):
        path = tmp_path / "short.pgm"
        path.write_bytes(b"P5\n2 2\n65535\n" + bytes(5))
        with pytest.raises(FormatError) as err:
            load_pgm16(path)
        assert "truncated" in str(err.value)

    def test_comments_allowed(self, tmp_path):
        path = tmp_path / "c.pgm"
        path.write_bytes(b"P5\n# a comment\n1 1\n65535\n\x12\x34")
        assert load_pgm16(path)[0, 0] == 0x1234  # big-endian sample order

    def test_save_validates(self, tmp_path):
        with pytest.raises(ValidationError):
            save_pgm16(tmp_path / "x.pgm", np.array([[1.5]]))
        with pytest.raises(ValidationError):
            save_pgm16(tmp_path / "x.pgm", np.array([[-1]]))

    @settings(max_examples=400, deadline=None)
    @given(doc=pgm_documents())
    @example(doc=(b"P5 +3 1 65535\n" + bytes(6), 14, None))
    @example(doc=(b"P5 1_6 1 65535\n" + bytes(32), 15, None))
    def test_any_document_loads_or_is_rejected(self, tmp_path_factory, doc):
        # A document loads to its declared shape and its big-endian
        # samples, or is rejected.
        data, header_len, declared = doc
        path = tmp_path_factory.mktemp("pgm") / "f.pgm"
        path.write_bytes(data)
        try:
            frame = load_pgm16(path)
        except (FormatError, ValidationError):
            return
        assert declared is not None and frame.dtype == np.uint16 and frame.shape == declared
        raster = data[header_len : header_len + 2 * frame.size]
        assert np.array_equal(frame, np.frombuffer(raster, dtype=">u2").reshape(declared))


# Runs of whitespace and comment lines a header may hold between tokens:
# a whitespace byte ends the token before, then anything goes.
_PGM_GAPS = st.tuples(
    st.sampled_from([b" ", b"\t", b"\n", b"\r", b"\x0b", b"\x0c"]),
    st.lists(st.sampled_from(_PGM_SEPARATORS), max_size=3).map(b"".join),
).map(b"".join)
# A comment longer than the reader's first read of the file.
_LONG_COMMENT = b"#" + b"c" * formats._HEADER_READ + b"\n"


@st.composite
def valid_pgm_files(draw):
    """(bytes, frame) of a well-formed PGM from 1x1 up, with comment lines
    and whitespace runs, its header sometimes longer than the reader's
    first read."""
    rows, cols = draw(st.integers(1, 6)), draw(st.integers(1, 6))
    frame = np.array(
        draw(st.lists(st.integers(0, 65535), min_size=rows * cols, max_size=rows * cols)),
        dtype=np.uint16,
    ).reshape(rows, cols)
    lead = draw(st.sampled_from([b"", b"# lead\n", _LONG_COMMENT]))
    header = lead + b"P5"
    for token in (cols, rows):
        header += draw(_PGM_GAPS) + str(token).encode()
    header += draw(st.one_of(_PGM_GAPS, st.just(b"\n" + _LONG_COMMENT)))
    header += b"65535" + draw(st.sampled_from([b"\n", b" ", b"\r", b"\t"]))
    return header + frame.astype(">u2").tobytes(), frame


# Malformed files, after a lead of whitespace and comments, and the error
# the reader gives each: (body, message, offset of the error in body, or
# None for the end of the file).
_MALFORMED_PGM = {
    "bad magic": (b"P2\n2 2\n65535\n" + bytes(8), "bad PGM magic b'P2', expected P5", 0),
    "bad maxval": (b"P5\n2 2\n255\n" + bytes(8), "PGM maxval must be 65535 (16-bit), got 255", 7),
    "no whitespace after the header": (
        b"P5\n2 2\n65535",
        "PGM header must end with a whitespace byte",
        None,
    ),
    "truncated raster": (
        b"P5\n2 2\n65535\n" + bytes(5),
        "truncated PGM raster: expected 8 bytes, found 5",
        None,
    ),
    "header only": (b"P5\n2 2\n", "unexpected end of PGM header", None),
}


class TestPgmRowRanges:
    @settings(max_examples=150, deadline=None)
    @given(doc=valid_pgm_files())
    def test_every_row_range_matches_the_whole_read(self, tmp_path_factory, doc):
        data, frame = doc
        path = tmp_path_factory.mktemp("pgm") / "f.pgm"
        path.write_bytes(data)
        whole = load_pgm16(path)
        assert whole.dtype == np.uint16 and np.array_equal(whole, frame)
        assert pgm16_shape(path) == frame.shape
        rows = len(frame)
        for r0 in range(rows + 1):
            for r1 in range(r0, rows + 1):
                part = load_pgm16(path, (r0, r1))
                assert part.dtype == np.uint16 and np.array_equal(part, whole[r0:r1])

    @pytest.mark.parametrize("rows", [(-1, 1), (1, 0), (0, 4)])
    def test_range_outside_the_frame_rejected(self, tmp_path, rows):
        path = tmp_path / "f.pgm"
        save_pgm16(path, np.zeros((3, 2), dtype=np.uint16))
        with pytest.raises(ValidationError, match="outside 0..3"):
            load_pgm16(path, rows)

    @settings(max_examples=60, deadline=None)
    @given(
        case=st.sampled_from(sorted(_MALFORMED_PGM)),
        lead=st.sampled_from([b"", b" \t\n", b"# a comment\n", _LONG_COMMENT]),
        rows=st.sampled_from([None, (0, 1), (1, 2)]),
    )
    def test_malformed_file_message_and_offset(self, tmp_path_factory, case, lead, rows):
        body, message, offset = _MALFORMED_PGM[case]
        data = lead + body
        path = tmp_path_factory.mktemp("pgm") / "f.pgm"
        path.write_bytes(data)
        expected = len(data) if offset is None else len(lead) + offset
        for read in (lambda: load_pgm16(path, rows), lambda: pgm16_shape(path)):
            with pytest.raises(FormatError) as err:
                read()
            assert err.value.offset == expected
            assert str(err.value) == f"{message} (byte offset {expected})"

    def test_empty_file(self, tmp_path):
        path = tmp_path / "empty.pgm"
        path.write_bytes(b"")
        with pytest.raises(FormatError, match="unexpected end of PGM header") as err:
            load_pgm16(path)
        assert err.value.offset == 0


def _split(frame, cuts):
    """frame's row blocks between the sorted cut rows."""
    bounds = [0, *sorted(cuts), len(frame)]
    return [frame[r0:r1] for r0, r1 in zip(bounds, bounds[1:])]


class TestPgmWriterBlocks:
    @settings(max_examples=100, deadline=None)
    @given(
        shape=st.tuples(st.integers(1, 9), st.integers(1, 5)),
        cuts=st.lists(st.integers(0, 9), max_size=5),
        dtype=st.sampled_from([np.uint16, np.uint8, np.int64]),
    )
    def test_any_split_writes_the_same_bytes(self, tmp_path_factory, shape, cuts, dtype):
        rows, cols = shape
        top = np.iinfo(np.uint8 if dtype == np.uint8 else np.uint16).max + 1
        frame = (np.arange(rows * cols).reshape(shape) * 2621 % top).astype(dtype)
        directory = tmp_path_factory.mktemp("pgm")
        save_pgm16(directory / "whole.pgm", frame)
        cuts = [c for c in cuts if c <= rows]
        save_pgm16(directory / "blocks.pgm", iter(_split(frame, cuts)), shape)
        expected = f"P5\n{cols} {rows}\n65535\n".encode() + frame.astype(">u2").tobytes()
        assert (directory / "whole.pgm").read_bytes() == expected
        assert (directory / "blocks.pgm").read_bytes() == expected

    @pytest.mark.parametrize(
        "bad, error",
        [
            (np.full((2, 3), 65536), "must be in \\[0, 65535\\]"),
            (np.full((2, 3), -1), "must be in"),
            (np.zeros((2, 3)), "must be integers"),
            (np.zeros((2, 4), dtype=np.uint16), "columns wide, expected 3"),
            (np.zeros(3, dtype=np.uint16), "2-D"),
            (np.zeros((9, 3), dtype=np.uint16), "hold 11 rows, expected 6"),
            (None, "boom"),
        ],
        ids=["over", "negative", "float", "width", "1-D", "too many rows", "raises"],
    )
    def test_failing_block_leaves_no_file(self, tmp_path, bad, error):
        def blocks():
            yield np.ones((2, 3), dtype=np.uint16)
            if bad is None:
                raise RuntimeError("boom")
            yield bad

        with pytest.raises((ValidationError, RuntimeError), match=error):
            save_pgm16(tmp_path / "f.pgm", blocks(), (6, 3))
        assert os.listdir(tmp_path) == []

    def test_too_few_rows_leave_no_file(self, tmp_path):
        with pytest.raises(ValidationError, match="hold 2 rows, expected 6"):
            save_pgm16(tmp_path / "f.pgm", [np.ones((2, 3), dtype=np.uint16)], (6, 3))
        assert os.listdir(tmp_path) == []


# Weight-document fields and values that broke load_weights: integers
# beyond float64, bools, non-finite floats, strings, nesting of any shape.
WEIGHT_PATHS = [
    (),
    ("shape",),
    ("shape", "c_o"),
    ("shape", "c_in"),
    ("shape", "k"),
    ("weights",),
    ("weights", 1),
    ("weights", 0, 2),
    ("weights", 1, 3, 0, 0),
    ("bn",),
    *(("bn", name) for name in ("gamma", "beta", "mu", "sigma_sq", "epsilon")),
    *(("bn", name, 1) for name in ("gamma", "beta", "mu", "sigma_sq")),
]
_WEIGHT_SCALARS = st.one_of(
    st.booleans(),
    st.none(),
    st.integers(-2, 3),
    st.floats(),
    st.text(max_size=4),
    st.sampled_from([10**400, -(10**400), 2**64, 1e308, -1e308]),
)
WEIGHT_VALUES = st.one_of(
    _WEIGHT_SCALARS,
    st.lists(_WEIGHT_SCALARS, max_size=3),
    st.lists(st.lists(_WEIGHT_SCALARS, max_size=2), max_size=2),
    st.dictionaries(st.text(max_size=3), _WEIGHT_SCALARS, max_size=2),
)
RAW_DOCUMENTS = [
    b"\xff\xfe{",
    b"[" * 100_000,
    b'{"shape": {"k": ' + b"1" * 5000 + b"}}",
]


def _replaced(doc, keys, value):
    """doc with the item at keys set to value, when every container on the
    way exists; doc unchanged otherwise."""
    if not keys:
        return value
    head, rest = keys[0], keys[1:]
    if isinstance(doc, dict) or (isinstance(doc, list) and isinstance(head, int) and head < len(doc)):
        if isinstance(doc, dict) and rest and head not in doc:
            return doc
        doc[head] = _replaced(doc[head], rest, value) if rest else value
    return doc


class TestWeights:
    def _bn(self, c_o):
        return BnParams(
            gamma=np.linspace(0.5, 1.5, c_o),
            beta=np.linspace(-0.5, 0.5, c_o),
            mu=np.zeros(c_o),
            sigma_sq=np.ones(c_o),
            epsilon=1e-5,
        )

    def test_minimal_document(self, tmp_path):
        path = tmp_path / "w.json"
        save_weights(path, np.ones((1, 4, 1, 1)), self._bn(1))
        weights, bn = load_weights(path)
        assert weights.shape == (1, 4, 1, 1)
        assert bn.gamma.shape == (1,)

    def test_roundtrip_fidelity(self, tmp_path):
        rng = np.random.default_rng(2)
        w = rng.normal(size=(3, 4, 5, 5))
        path = tmp_path / "w.json"
        save_weights(path, w, self._bn(3))
        loaded, _ = load_weights(path)
        assert np.max(np.abs(loaded - w)) <= 1e-12 * np.max(np.abs(w))

    def test_nan_reported_with_location(self, tmp_path):
        w = np.ones((2, 4, 2, 2))
        w[1, 2, 0, 1] = np.nan
        path = tmp_path / "w.json"
        save_weights(path, w, self._bn(2))
        with pytest.raises(ValidationError) as err:
            load_weights(path)
        assert "channel 1" in str(err.value) and "(0, 1)" in str(err.value)

    def test_all_violations_listed(self, tmp_path):
        doc = {
            "shape": {"c_o": 2, "c_in": 3, "k": 0},
            "bn": {"gamma": [1.0], "beta": "x", "mu": [0, 0], "sigma_sq": [1, 1],
                   "epsilon": -1},
        }
        path = tmp_path / "w.json"
        import json

        path.write_text(json.dumps(doc))
        with pytest.raises(ValidationError) as err:
            load_weights(path)
        message = str(err.value)
        assert "c_in" in message
        assert "shape.k" in message
        assert "weights" in message
        assert "epsilon" in message
        assert message.count("\n") >= 4

    @pytest.mark.parametrize("section, key", [("shape", "k"), ("bn", "epsilon")])
    def test_bool_rejected(self, tmp_path, section, key):
        # JSON true would otherwise pass as k=1 or epsilon=1.0.
        path = tmp_path / "w.json"
        save_weights(path, np.ones((1, 4, 1, 1)), self._bn(1))
        doc = json.loads(path.read_text())
        doc[section][key] = True
        path.write_text(json.dumps(doc))
        with pytest.raises(ValidationError) as err:
            load_weights(path)
        assert f"{section}.{key}" in str(err.value)

    def test_not_json(self, tmp_path):
        path = tmp_path / "w.json"
        path.write_text("{not json")
        with pytest.raises(FormatError):
            load_weights(path)

    @settings(max_examples=300, deadline=None)
    @given(edits=st.lists(st.tuples(st.sampled_from(WEIGHT_PATHS), WEIGHT_VALUES), max_size=3))
    def test_any_edit_loads_or_is_rejected(self, tmp_path_factory, edits):
        path = tmp_path_factory.mktemp("weights") / "w.json"
        save_weights(path, np.ones((2, 4, 1, 1)), self._bn(2))
        doc = json.loads(path.read_text())
        for keys, value in edits:
            doc = _replaced(doc, keys, value)
        path.write_text(json.dumps(doc))
        try:
            weights, bn = load_weights(path)
        except (ValidationError, FormatError):
            return
        assert np.all(np.isfinite(weights)) and np.isfinite(bn.epsilon)

    @settings(max_examples=100, deadline=None)
    @given(data=st.one_of(st.binary(max_size=32), st.sampled_from(RAW_DOCUMENTS)))
    def test_any_bytes_load_or_are_rejected(self, tmp_path_factory, data):
        path = tmp_path_factory.mktemp("weights") / "w.json"
        path.write_bytes(data)
        try:
            load_weights(path)
        except (ValidationError, FormatError):
            pass


class TestCsv:
    def test_roundtrip(self, tmp_path):
        path = tmp_path / "t.csv"
        header = ("w_norm", "x_norm", "volts")
        rows = [(0.0, 0.5, 1e-3), (1.0, 0.25, 2.5e-2)]
        write_csv(path, header, rows)
        loaded = read_csv(path, header)
        assert loaded == [[0.0, 0.5, 0.001], [1.0, 0.25, 0.025]]

    def test_header_checked(self, tmp_path):
        path = tmp_path / "t.csv"
        write_csv(path, ("a", "b"), [(1, 2)])
        with pytest.raises(FormatError):
            read_csv(path, ("a", "c"))

    def test_header_always_present(self, tmp_path):
        path = tmp_path / "t.csv"
        write_csv(path, ("a",), [])
        assert path.read_text() == "a\n"

    def test_locale_independent_floats(self, tmp_path):
        path = tmp_path / "t.csv"
        write_csv(path, ("v",), [(0.1,)])
        assert path.read_text().splitlines()[1] == "0.1"


def reference_cell(value) -> str:
    """write_csv's per-cell rules."""
    if isinstance(value, (bool, np.bool_)):
        return "1" if value else "0"
    if isinstance(value, (int, np.integer)):
        return str(int(value))
    if isinstance(value, (float, np.floating)):
        return repr(float(value))
    return str(value)


_FLOATS = st.one_of(
    st.floats(),
    st.sampled_from([0.0, -0.0, math.nan, math.inf, -math.inf, 5e-324, -1e-310, 2.5e-308]),
)
CELLS = {
    "real": st.one_of(_FLOATS, _FLOATS.map(np.float64), st.floats(width=32).map(np.float32)),
    "integral": st.one_of(
        st.booleans(),
        st.booleans().map(np.bool_),
        st.integers(),
        st.integers(-(2**63), 2**63 - 1).map(np.int64),
        st.integers(0, 255).map(np.uint8),
    ),
    "text": st.text(st.characters(codec="utf-8"), max_size=6),
}
CELLS["mixed"] = st.one_of(*CELLS.values())


@st.composite
def tables(draw):
    """A header and rows whose columns hold one kind of cell or a mix."""
    kinds = draw(st.lists(st.sampled_from(sorted(CELLS)), min_size=1, max_size=5))
    rows = draw(st.lists(st.tuples(*(CELLS[kind] for kind in kinds)), max_size=12))
    return tuple(f"c{i}" for i in range(len(kinds))), rows


CSV_CELLS = st.one_of(
    st.floats().map(repr),
    st.integers().map(str),
    st.sampled_from(["abc", "", "nan", "-inf", "1e999", " 1", "1_0", "\x00", "9" * 401]),
    st.text(max_size=4),
)


class TestCsvColumns:
    @settings(max_examples=300, deadline=None)
    @given(table=tables())
    def test_cells_follow_per_cell_rules(self, tmp_path_factory, table):
        header, rows = table
        path = tmp_path_factory.mktemp("csv") / "t.csv"
        write_csv(path, header, iter(rows))
        lines = [",".join(header)] + [",".join(map(reference_cell, row)) for row in rows]
        assert path.read_bytes() == ("\n".join(lines) + "\n").encode("utf-8")

    @pytest.mark.parametrize("bad", [(1.0,), (1.0, 2.0, 3.0), ()])
    def test_wrong_width_rejected(self, tmp_path, bad):
        path = tmp_path / "t.csv"
        rows = [(0.5, 1), (0.25, 2), bad, (0.125, 3)]
        with pytest.raises(ValidationError, match=f"row width {len(bad)} != header width 2"):
            write_csv(path, ("a", "b"), rows)
        assert not path.exists()


class TestCsvChunks:
    def test_chunks_write_the_table_text(self, tmp_path):
        # A column whose kind changes between chunks, and a last chunk
        # that is not full.
        n = 2 * formats._CSV_CHUNK_ROWS + 7
        rows = [(i, i / 7 if i < n // 2 else f"t{i}", bool(i % 3)) for i in range(n)]
        path = tmp_path / "t.csv"
        write_csv(path, ("a", "b", "c"), (row for row in rows))
        lines = ["a,b,c"] + [",".join(map(reference_cell, row)) for row in rows]
        assert path.read_bytes() == ("\n".join(lines) + "\n").encode("utf-8")

    @pytest.mark.parametrize("bad", [(1.0,), ("\ud800", 1.0)], ids=["width", "not-utf-8"])
    def test_failure_in_a_late_chunk_leaves_no_file(self, tmp_path, bad):
        def rows():
            for i in range(3 * formats._CSV_CHUNK_ROWS):
                yield (0.5, i)
            yield bad

        with pytest.raises((ValidationError, UnicodeEncodeError)):
            write_csv(tmp_path / "t.csv", ("a", "b"), rows())
        assert os.listdir(tmp_path) == []

    def test_generator_rows_allocate_no_table(self, tmp_path):
        # 100,000 rows as one list of tuples, or as one text, take well
        # over 2 MB.
        path = tmp_path / "t.csv"
        write_csv(path, ("trial", "v"), [(0, 0.5)])
        tracemalloc.start()
        try:
            write_csv(path, ("trial", "v"), ((i, i * 0.001) for i in range(100_000)))
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 2_000_000
        with open(path, "rb") as handle:
            assert sum(1 for _ in handle) == 100_001


class TestCsvReader:
    """read_csv returns rows or raises FormatError, whatever the file
    holds."""

    @settings(max_examples=300, deadline=None)
    @given(
        rows=st.lists(st.lists(CSV_CELLS, min_size=2, max_size=4), max_size=4),
        tail=st.binary(max_size=4),
    )
    def test_any_file_reads_or_is_rejected(self, tmp_path_factory, rows, tail):
        path = tmp_path_factory.mktemp("csv") / "t.csv"
        text = "\n".join(["a,b,c", *map(",".join, rows)])
        path.write_bytes(text.encode("utf-8", "surrogatepass") + tail)
        try:
            loaded = read_csv(path, ("a", "b", "c"))
        except FormatError:
            return
        assert all(len(row) == 3 for row in loaded)


class TestJson:
    def test_non_finite_never_written(self, tmp_path):
        path = tmp_path / "metrics.json"
        for value in (float("nan"), float("inf")):
            with pytest.raises(ValueError):
                write_json(path, {"gops": value})
            assert not path.exists()
