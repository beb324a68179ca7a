import json
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ctia_ipc.errors import FormatError, ValidationError
from ctia_ipc.formats import (
    load_pgm16,
    load_weights,
    read_csv,
    save_pgm16,
    save_weights,
    write_csv,
    write_json,
)
from ctia_ipc.mapper import BnParams
from ctia_ipc.pixel import frame_to_photocurrents


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


class TestJson:
    def test_non_finite_never_written(self, tmp_path):
        path = tmp_path / "metrics.json"
        for value in (float("nan"), float("inf")):
            with pytest.raises(ValueError):
                write_json(path, {"gops": value})
            assert not path.exists()
