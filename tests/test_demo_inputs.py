"""scripts/make_demo_inputs.py: small frames work, and the frames the
benchmark draws its inputs from stay byte-identical, as do the sweep and
transfer artifacts the CLI writes for a demo config."""

import hashlib
import importlib.util
import json
import os
import subprocess
import sys

import numpy as np
import pytest

from ctia_ipc.cli import main

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


def run_script(out_dir, *args):
    env = dict(os.environ, PYTHONPATH=os.path.join(ROOT, "src"))
    done = subprocess.run(
        [sys.executable, SCRIPT, "--out", str(out_dir), *args],
        env=env,
        capture_output=True,
        text=True,
        timeout=60,
    )
    assert done.returncode == 0, done.stderr


def test_script_writes_6x8_inputs(tmp_path):
    run_script(tmp_path, "--rows", "6", "--cols", "8")
    assert sorted(os.listdir(tmp_path)) == ["config.json", "frame.pgm", "weights.json"]


# The default 6x8 inputs, as the script wrote them before it took --stride
# and --padding.
DEFAULT_6X8 = {
    "config.json": "70a58cfaff8928ff23cd3a9da8438853ad85c7ecf77e4e7cd737b1c5b5d55eb7",
    "frame.pgm": "1fdace0c92601194730c400af00d6bc21cc9bc1b1ef5c5e41ca0179832385a6c",
    "weights.json": "6460a017bf4b5f3df4503454ba9ef74c3e51c849f613aa66887f07ba809729b7",
}


def test_stride_and_padding_flags(tmp_path):
    def inputs(name, *args):
        run_script(tmp_path / name, "--rows", "6", "--cols", "8", *args)
        return {
            file: hashlib.sha256((tmp_path / name / file).read_bytes()).hexdigest()
            for file in DEFAULT_6X8
        }

    assert inputs("default") == DEFAULT_6X8
    assert inputs("explicit", "--stride", "2", "--padding", "0") == DEFAULT_6X8
    k5s3p1 = inputs("k5s3p1", "--kernel", "5", "--stride", "3", "--padding", "1")
    config_path = tmp_path / "k5s3p1" / "config.json"
    assert json.loads(config_path.read_text())["conv"] == {"k": 5, "s": 3, "p": 1, "c_o": 16}
    # The flags set the geometry only: the same frame.
    assert k5s3p1["frame.pgm"] == DEFAULT_6X8["frame.pgm"]
    out_dir = tmp_path / "k5s3p1" / "run"
    assert main(["verify", "--config", str(config_path), "--out", str(out_dir)]) == 0


# The clamping pixel puts about two fifths of the sweep rows at code 63.
CLAMPING = {"pixel": {"c_f": 1e-15}, "wtc": {"window": 3}}


@pytest.mark.parametrize(
    "overrides, sweep_digest, transfer_digest, model_digests",
    [
        (
            {},
            "53b3abf347cdbdbeba001a0aa3ddce1bf5028c214ed1c6f18649811ec03ad031",
            "aa09345a752a2255dee8340c57307e8702987944901e74ad72a44145fb05c9e8",
            {
                1: "f6197d96e78734ad8845073026b535bfade92ec9792012097d00cd0ec1a7cedf",
                2: "699ca7de11f4ab74e8b5ad0d70f25885cb24228272f802fb5061bd0d9c58bf88",
            },
        ),
        (
            CLAMPING,
            "2f9da57048ec560dcf4d0222130c1309e0e72ca0c12d0261e74e8b64e8e68816",
            "034ff453d00fe6940051712b84847dbfa00d06201f112524135a29a1ed4691ab",
            {
                1: "c7651843fe954b09d65d46cf6fb436b62a6955d18ac4a455f1db0a43195f3679",
                2: "b9e62ce4dc0cd36bc6e4243400aa1b13ae65e8c419f1293db2d35fff9bac57a6",
            },
        ),
    ],
    ids=["default", "clamping"],
)
def test_characterization_artifacts_unchanged(
    tmp_path, overrides, sweep_digest, transfer_digest, model_digests
):
    run_script(tmp_path, "--rows", "16", "--cols", "20", "--seed", "0")
    config_path = tmp_path / "config.json"
    config = dict(json.loads(config_path.read_text()), **overrides)

    def run(mode, out_name, document):
        config_path.write_text(json.dumps(document))
        out_dir = tmp_path / out_name
        assert main([mode, "--config", str(config_path), "--out", str(out_dir)]) == 0
        return lambda name: hashlib.sha256((out_dir / name).read_bytes()).hexdigest()

    assert run("sweep", "sweep", config)("sweep.csv") == sweep_digest
    for degree, model_digest in model_digests.items():
        digest = run("export-transfer", f"transfer{degree}", dict(config, transfer={"degree": degree}))
        assert digest("transfer_samples.csv") == transfer_digest
        assert digest("transfer_model.json") == model_digest
