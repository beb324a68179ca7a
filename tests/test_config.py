"""The run-configuration loader: every document is either a config whose
manifest view is strict JSON or a rejection with a reason; the README's
configuration block and the key table name the same keys; and the
manifest of a config that sets every key is pinned."""

import hashlib
import json
import math
import os
import re
import sys
import tempfile

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from ctia_ipc.cli import main
from ctia_ipc.config import KEYS, load_config
from ctia_ipc.errors import FormatError, ValidationError
from ctia_ipc.formats import save_pgm16
from ctia_ipc.metrics import SWEEP_MODES

README = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "README.md")
HUGE = 10**400  # an integer beyond float64

# Every key set away from its default.  Paths are absolute so that the
# manifest does not depend on where the test runs.
EVERY_KEY = {
    "pixel": {"v_rst": 0.9, "c_f": 2e-14, "i_max": 4e-11, "headroom": 0.7},
    "wtc": {"t_step": 2e-6, "window": 1},
    "array": {"rows": 512, "cols": 640, "c1": 2e-14, "c2": 1e-14, "c_f_acc": 3e-14},
    "adc": {"v_fs": 0.32, "out_bits": 5},
    "conv": {"k": 5, "s": 1, "p": 1, "c_o": 8, "p_s": 2, "weight_mag_bits": 3},
    "mismatch": {"sigma_cap": 0.01, "sigma_vrst": 0.002, "sigma_gain": 0.02, "trials": 50},
    "sweep": {"modes": ["vs_weight", "multiwindow"], "x_points": 5},
    "transfer": {"degree": 2, "grid_points": 8, "samples_csv": "measured.csv"},
    "verify": {"max_within": 2},
    "paths": {"frame": "/inputs/frame.pgm", "weights": "/inputs/weights.json", "out_dir": "out"},
    "seed": 11,
    "power_per_pixel_w": 2.5e-6,
    "cycle_time_s": 2e-4,
    "readout_exposure_s": 1e-5,
}


def flat_keys(doc: dict) -> set:
    keys = set()
    for name, value in doc.items():
        if isinstance(value, dict):
            keys.update((name, key) for key in value)
        else:
            keys.add(("", name))
    return keys


def test_every_key_document_sets_every_key():
    assert flat_keys(EVERY_KEY) == set(KEYS)


def test_readme_block_names_every_key(tmp_path):
    # The README's configuration block, comments stripped, loads and
    # names exactly the keys of the table.
    text = open(README, encoding="utf-8").read()
    block = re.search(r"## Configuration.*?```jsonc\n(.*?)```", text, re.S).group(1)
    doc = json.loads(re.sub(r"//.*", "", block))
    config = tmp_path / "config.json"
    config.write_text(json.dumps(doc))
    load_config(str(config))
    assert flat_keys(doc) == set(KEYS)


@pytest.mark.parametrize(
    "argv, digest",
    [
        ([], "bd96c89d48803c44af6f6815999a7557361f407a3315a3790ad84a4dc485c6e7"),
        (["--seed", "99"], "88209584afb0be4102c6cd42204f4e5988ba57e32aa6e16f08a0d4f2eecd1e10"),
    ],
)
def test_manifest_of_every_key_unchanged(tmp_path, argv, digest):
    # The digests come from the loader that wrote each section by hand,
    # re-pinned when conv.n_b left (its "n_b": 5 line was the one change).
    config = tmp_path / "config.json"
    config.write_text(json.dumps(EVERY_KEY))
    out = tmp_path / "out"
    assert main(["metrics", "--config", str(config), *argv, "--out", str(out)]) == 0
    assert hashlib.sha256((out / "manifest.json").read_bytes()).hexdigest() == digest


def _frame_config(tmp_path) -> dict:
    save_pgm16(tmp_path / "frame.pgm", np.zeros((8, 8), dtype=np.uint16))
    return {"array": {"rows": 8, "cols": 8}, "conv": {"k": 3}, "paths": {"frame": "frame.pgm"}}


class TestRejectedDocuments:
    """Each document exits 1 at load or at its input check, names the
    key, shows no traceback and leaves no output directory."""

    @pytest.mark.parametrize(
        "mode, document, key",
        [
            ("sweep", {"sweep": {"x_pointz": 3}}, "sweep.x_pointz"),
            ("metrics", {"verify": {"max_witin": 0}}, "verify.max_witin"),
            ("export-transfer", {"transfer": {"degre": 2}}, "transfer.degre"),
            ("metrics", {"paths": {"frames": "frame.pgm"}}, "paths.frames"),
            ("readout", {"paths": {"frame": 5}}, "paths.frame"),
            ("metrics", {"paths": {"out_dir": 5}}, "paths.out_dir"),
            ("metrics", {"paths": {"out_dir": "a\0b"}}, "paths.out_dir"),
            ("export-transfer", {"transfer": {"samples_csv": None}}, "transfer.samples_csv"),
            ("metrics", {"pixel": {"c_f": "1e-15"}}, "pixel.c_f"),
            ("metrics", {"power_per_pixel_w": 0}, "power_per_pixel_w"),
            ("metrics", {"pixel": {"c_f": HUGE}}, "pixel.c_f"),
            ("metrics", {"power_per_pixel_w": HUGE}, "power_per_pixel_w"),
            ("metrics", {"array": {"rows": HUGE}}, "array.rows"),
            ("metrics", {"conv": {"c_o": HUGE}}, "conv.c_o"),
            ("metrics", {"wtc": {"t_step": 1e308}}, "wtc.t_step"),
            ("readout", {}, "paths.frame"),
            ("readout", {"paths": {"frame": "missing.pgm"}}, "paths.frame"),
            ("simulate", "frame only", "paths.weights"),
            ("export-transfer", {"transfer": {"samples_csv": "missing.csv"}}, "transfer.samples_csv"),
            # Finite and > 0, with an LSB v_fs / 64 that underflows to 0.
            ("sweep", {"adc": {"v_fs": 5e-324}}, "adc.v_fs"),
            # Every mode derives the calibration map at load, so the chain
            # modes reject a map quantity that overflows, as the layer
            # modes do, naming it.
            *[
                (mode, document, quantity)
                for mode in ("sweep", "montecarlo", "export-transfer", "metrics", "readout")
                for document, quantity in (
                    ({"pixel": {"i_max": 1e300}}, "volts_per_unit_product"),
                    ({"adc": {"v_fs": 1e-310}}, "lsb_per_unit"),
                )
            ],
            # i_max * t_step underflows to 0 while i_max * 15 * t_step does
            # not: the clamp's tap product is infinite.
            ("sweep", {"pixel": {"i_max": 1e-162}, "wtc": {"t_step": 2e-162}}, "tap_saturation"),
        ],
    )
    def test_exits_1_naming_the_key(self, tmp_path, capsys, monkeypatch, mode, document, key):
        monkeypatch.chdir(tmp_path)
        if document == "frame only":
            document = _frame_config(tmp_path)
        config = tmp_path / "c.json"
        config.write_text(json.dumps(document))
        out = tmp_path / "o"
        assert main([mode, "--config", str(config), "--out", str(out)]) == 1
        err = capsys.readouterr().err
        assert key in err and "Traceback" not in err
        assert not out.exists()

    def test_integer_too_long_to_parse_is_a_format_error(self, tmp_path, capsys):
        config = tmp_path / "c.json"
        config.write_text('{"seed": ' + "1" * 5000 + "}")
        out = tmp_path / "o"
        assert main(["metrics", "--config", str(config), "--out", str(out)]) == 3
        assert "not valid JSON" in capsys.readouterr().err
        assert not out.exists()


SECTIONS = sorted({section for section, _ in KEYS} - {""})
NAMES = sorted(KEYS) + [(section, "bogus") for section in ["", *SECTIONS]] + [("", s) for s in SECTIONS]
SCALARS = st.one_of(
    st.booleans(),
    st.none(),
    st.sampled_from([math.nan, math.inf, -math.inf, sys.float_info.max, HUGE, -HUGE, 2**64, -1, 0]),
    st.integers(-3, 20),
    st.floats(),
    st.text(max_size=6),
    st.sampled_from(SWEEP_MODES + ("", "frame.pgm", "a\0b")),
)
VALUES = st.one_of(
    SCALARS,
    st.lists(SCALARS, max_size=3),
    st.dictionaries(st.text(max_size=4), SCALARS, max_size=2),
)


def _document(entries: dict) -> dict:
    doc = {}
    for (section, key), value in entries.items():
        if not section:
            doc[key] = value
        elif isinstance(doc.setdefault(section, {}), dict):
            doc[section][key] = value
    return doc


@given(entries=st.dictionaries(st.sampled_from(NAMES), VALUES, max_size=6))
# The derived cycle time of the largest t_step overflows to Infinity.
@example(entries={("wtc", "t_step"): sys.float_info.max})
@settings(max_examples=400, deadline=None)
def test_load_accepts_or_rejects_with_a_reason(entries):
    # Any document: a config whose manifest view is strict JSON, or a
    # ValidationError/FormatError; never another exception.
    with tempfile.TemporaryDirectory() as work:
        path = os.path.join(work, "config.json")
        with open(path, "w", encoding="utf-8") as handle:
            json.dump(_document(entries), handle)
        try:
            cfg = load_config(path)
        except (ValidationError, FormatError):
            return
        json.dumps(cfg.resolved(), allow_nan=False)
