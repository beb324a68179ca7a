"""scripts/make_demo_inputs.py: small frames work, and the frames the
benchmark draws its inputs from stay byte-identical."""

import hashlib
import importlib.util
import os
import subprocess
import sys

import numpy as np
import pytest

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SCRIPT = os.path.join(ROOT, "scripts", "make_demo_inputs.py")


def load_script():
    spec = importlib.util.spec_from_file_location("make_demo_inputs", SCRIPT)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


@pytest.mark.parametrize("rows, cols", [(2, 2), (6, 8), (14, 16)])
def test_small_frame(rows, cols):
    frame = load_script().synthetic_bayer_frame(rows, cols, np.random.default_rng(0))
    assert frame.shape == (rows, cols) and frame.dtype == np.uint16


@pytest.mark.parametrize(
    "rows, cols, seed, digest",
    [
        (16, 20, 0, "067406c20a509358cbffb0d174d5038f9b2770b249d33f0a8991db1ed7cdc98a"),
        (64, 80, 5, "e3d3b025192b2a4abc47caca4878c39cec180683785f890bbfc239eda6331933"),
    ],
)
def test_frames_from_16_rows_unchanged(rows, cols, seed, digest):
    frame = load_script().synthetic_bayer_frame(rows, cols, np.random.default_rng(seed))
    assert hashlib.sha256(frame.tobytes()).hexdigest() == digest


def test_script_writes_6x8_inputs(tmp_path):
    env = dict(os.environ, PYTHONPATH=os.path.join(ROOT, "src"))
    done = subprocess.run(
        [sys.executable, SCRIPT, "--out", str(tmp_path), "--rows", "6", "--cols", "8"],
        env=env,
        capture_output=True,
        text=True,
        timeout=60,
    )
    assert done.returncode == 0, done.stderr
    assert sorted(os.listdir(tmp_path)) == ["config.json", "frame.pgm", "weights.json"]
