import hashlib
import json
import os
import subprocess
import sys
import tracemalloc

import numpy as np
import pytest

from ctia_ipc import parallel
from ctia_ipc.cli import main
from ctia_ipc.formats import load_pgm16, save_pgm16, save_weights
from ctia_ipc.mapper import BnParams

from conftest import call_within, random_frame


def make_inputs(tmp_path, rows=64, cols=64, c_o=2, k=3, seed=0):
    """Write a frame PGM, a weight document, and a config JSON."""
    rng = np.random.default_rng(seed)
    frame_path = tmp_path / "frame.pgm"
    save_pgm16(frame_path, random_frame(rng, rows, cols))
    weights_path = tmp_path / "weights.json"
    weights = rng.normal(size=(c_o, 4, k, k))
    bn = BnParams(
        gamma=rng.uniform(0.5, 2.0, c_o),
        beta=rng.uniform(0.0, 1.0, c_o),
        mu=rng.normal(size=c_o) * 0.1,
        sigma_sq=rng.uniform(0.5, 2.0, c_o),
        epsilon=1e-5,
    )
    save_weights(weights_path, weights, bn)
    config = {
        "array": {"rows": rows, "cols": cols},
        "conv": {"k": k, "s": 2, "c_o": c_o},
        "mismatch": {"sigma_gain": 0.01, "trials": 40},
        "sweep": {"modes": ["vs_product", "multiwindow"], "x_points": 4},
        "paths": {"frame": "frame.pgm", "weights": "weights.json"},
        "seed": 7,
    }
    config_path = tmp_path / "config.json"
    config_path.write_text(json.dumps(config))
    return config_path


def artifact_bytes(out_dir):
    found = {}
    for name in sorted(os.listdir(out_dir)):
        with open(os.path.join(out_dir, name), "rb") as handle:
            found[name] = handle.read()
    return found


class TestDispatch:
    def test_unknown_mode_exits_nonzero(self, capsys):
        assert main(["frobnicate"]) != 0

    def test_missing_input_is_validation_error(self, tmp_path):
        config = tmp_path / "c.json"
        config.write_text("{}")
        code = main(["simulate", "--config", str(config), "--out", str(tmp_path / "o")])
        assert code == 1

    def test_malformed_frame_is_io_error(self, tmp_path):
        config_path = make_inputs(tmp_path)
        (tmp_path / "frame.pgm").write_bytes(b"P5\n2 2\n65535\n\x00")
        code = main(["simulate", "--config", str(config_path), "--out", str(tmp_path / "o")])
        assert code == 3

    def test_invalid_config_collects_problems(self, tmp_path, capsys):
        config = tmp_path / "c.json"
        config.write_text(json.dumps({"adc": {"v_fs": -1}, "bogus": 1}))
        assert main(["metrics", "--config", str(config), "--out", str(tmp_path / "o")]) == 1
        err = capsys.readouterr().err
        assert "v_fs" in err and "bogus" in err


class TestConfigHoles:
    """Non-finite, boolean and non-integral settings exit 1 at load time,
    name the field and leave no artifact."""

    @pytest.mark.parametrize(
        "mode, document, field",
        [
            ("montecarlo", '{"mismatch": {"sigma_cap": Infinity}}', "sigma_cap"),
            ("montecarlo", '{"mismatch": {"sigma_gain": NaN}}', "sigma_gain"),
            ("montecarlo", '{"mismatch": {"sigma_vrst": NaN}}', "sigma_vrst"),
            ("metrics", '{"power_per_pixel_w": NaN}', "power_per_pixel_w"),
            ("metrics", '{"cycle_time_s": Infinity}', "cycle_time_s"),
            ("readout", '{"readout_exposure_s": true}', "readout_exposure_s"),
            ("metrics", '{"conv": {"k": true}}', "conv.k"),
            ("metrics", '{"array": {"rows": Infinity}}', "array.rows"),
            ("metrics", '{"array": {"rows": 64.5}}', "array.rows"),
            ("montecarlo", '{"mismatch": {"trials": 10.5}}', "mismatch.trials"),
            ("verify", '{"conv": {"k": 3.0}}', "conv.k"),
            ("simulate", '{"conv": {"k": 3.0}}', "conv.k"),
            ("export-transfer", '{"transfer": {"degree": true}}', "transfer.degree"),
            ("verify", '{"verify": {"max_within": true}}', "verify.max_within"),
            ("montecarlo", '{"seed": -5}', "seed must be an integer >= 0"),
        ],
    )
    def test_rejected_at_load(self, tmp_path, capsys, mode, document, field):
        config = tmp_path / "c.json"
        config.write_text(document)
        out = tmp_path / "o"
        assert main([mode, "--config", str(config), "--out", str(out)]) == 1
        err = capsys.readouterr().err
        assert field in err and "Traceback" not in err
        assert not out.exists()

    def test_negative_seed_override_rejected(self, tmp_path, capsys):
        out = tmp_path / "o"
        assert main(["montecarlo", "--seed", "-1", "--out", str(out)]) == 1
        err = capsys.readouterr().err
        assert "--seed must be >= 0" in err and "Traceback" not in err
        assert not out.exists()


class TestInputDefects:
    """Malformed weight documents, transfer-sample files and BN preloads
    exit 1 or 3 with a message, never a traceback, and leave no
    artifact."""

    def verify_with_weights(self, tmp_path, capsys, edit):
        config_path = make_inputs(tmp_path, rows=16, cols=16)
        weights = tmp_path / "weights.json"
        weights.write_bytes(edit(weights.read_bytes()))
        out = tmp_path / "o"
        code = main(["verify", "--config", str(config_path), "--out", str(out)])
        err = capsys.readouterr().err
        assert "Traceback" not in err and not out.exists()
        return code, err

    @pytest.mark.parametrize(
        "data",
        [b"\xff\xfe{", b"[" * 100_000, b'{"shape": {"k": ' + b"1" * 5000 + b"}}"],
        ids=["not-utf8", "deep-nesting", "long-integer"],
    )
    def test_unreadable_weight_document(self, tmp_path, capsys, data):
        code, err = self.verify_with_weights(tmp_path, capsys, lambda _: data)
        assert code == 3 and "not valid JSON" in err

    @pytest.mark.parametrize(
        "keys, value, message",
        [
            (("weights", 0, 0, 0, 0), 10**401, "weight at channel 0, plane 0, tap (0, 0)"),
            (("bn", "gamma", 0), 10**401, "bn.gamma"),
            (("bn", "epsilon"), 10**401, "bn.epsilon"),
            # The preload of 1e30 wrapped to -2^63 in both the simulator
            # and the oracle, so verify passed.
            (("bn", "beta", 1), 1e30, "channel 1"),
        ],
        ids=["huge-weight", "huge-gamma", "huge-epsilon", "bn-preload"],
    )
    def test_weight_number_out_of_range(self, tmp_path, capsys, keys, value, message):
        def edit(data):
            doc = json.loads(data)
            target = doc
            for key in keys[:-1]:
                target = target[key]
            target[keys[-1]] = value
            return json.dumps(doc).encode()

        code, err = self.verify_with_weights(tmp_path, capsys, edit)
        assert code == 1 and message in err

    @staticmethod
    def _subnormal_weights(doc):
        doc["weights"] = np.full(np.shape(doc["weights"]), 5e-324).tolist()
        doc["bn"].update(gamma=[1.0, 1.0], sigma_sq=[1.0, 1.0], epsilon=1e-300)

    @staticmethod
    def _overflowing_variance(doc):
        doc["bn"]["sigma_sq"][1] = 1e308
        doc["bn"]["epsilon"] = 1e308

    # Each of these layers quantized to all-zero magnitudes, and verify
    # passed on it.
    @pytest.mark.parametrize(
        "edit, message",
        [
            (_subnormal_weights, "largest fused weight 5e-324"),
            (_overflowing_variance, "channel 1"),
        ],
        ids=["subnormal-weights", "overflowing-variance"],
    )
    def test_layer_that_quantizes_to_nothing(self, tmp_path, capsys, edit, message):
        def rewrite(data):
            doc = json.loads(data)
            edit(doc)
            return json.dumps(doc).encode()

        code, err = self.verify_with_weights(tmp_path, capsys, rewrite)
        assert code == 1 and message in err

    @pytest.mark.parametrize(
        "data, offset",
        [
            ('{"ééé": x}'.encode(), 11),
            (b'{\r\n"a":\r\n x}', 10),
        ],
        ids=["multibyte", "crlf"],
    )
    def test_json_error_names_byte_offset(self, tmp_path, capsys, data, offset):
        config = tmp_path / "c.json"
        config.write_bytes(data)
        out = tmp_path / "o"
        assert main(["metrics", "--config", str(config), "--out", str(out)]) == 3
        err = capsys.readouterr().err
        assert f"(byte offset {offset})" in err and "Traceback" not in err
        assert not out.exists()

    @pytest.mark.parametrize(
        "body, code, message",
        [
            (b"0.0,1.0,0.1\n1.0,1.0,abc\n", 3, "line 3"),
            (b"0.0,1.0,0.1\n1.0,,0.2\n", 3, "line 3"),
            (b"0.0,1.0,0.1\n1.0,1.0,\xff\n", 3, "line 3"),
            (b"0.0,1.0,0.1\n0.5,1.0,nan\n1.0,1.0,0.3\n", 1, "finite"),
            (b"0.0,1.0,-1e308\n0.5,1.0,1e308\n1.0,1.0,-1e308\n", 1, "finite"),
            (b"0.0,1.0,0.0\n1e200,1e200,1.0\n1.0,1.0,2.0\n", 1, "overflow"),
        ],
        ids=["text-cell", "empty-cell", "not-utf8", "nan-sample", "overflowing-fit", "overflowing-product"],
    )
    def test_transfer_samples(self, tmp_path, capsys, body, code, message):
        samples = tmp_path / "samples.csv"
        samples.write_bytes(b"w_norm,x_norm,volts\n" + body)
        config = tmp_path / "c.json"
        config.write_text(json.dumps({"transfer": {"samples_csv": str(samples)}}))
        out = tmp_path / "o"
        assert main(["export-transfer", "--config", str(config), "--out", str(out)]) == code
        err = capsys.readouterr().err
        assert message in err and "Traceback" not in err
        assert not out.exists()


class TestMetricsRange:
    """metrics on accepted configs whose figures are huge: finite figures
    are written, figures beyond the float range exit 1 naming the
    setting and leave no artifact."""

    @pytest.mark.parametrize(
        "document",
        [
            {"array": {"rows": 1024, "cols": 10**200}},
            {"array": {"rows": 200000, "cols": 200000}, "conv": {"k": 99991, "s": 99989}},
        ],
    )
    def test_large_geometry_written(self, tmp_path, document):
        config = tmp_path / "c.json"
        config.write_text(json.dumps(document))
        out = tmp_path / "o"
        assert call_within(30, main, ["metrics", "--config", str(config), "--out", str(out)]) == 0
        report = json.loads((out / "metrics.json").read_text())
        assert report["activation_count_cycle0"] > 0

    @pytest.mark.parametrize(
        "document, field",
        [
            ({"array": {"rows": 10**200, "cols": 10**200}}, "array.rows"),
            ({"power_per_pixel_w": 1e308}, "power_per_pixel_w"),
            ({"cycle_time_s": 1e308}, "cycle_time_s"),
        ],
    )
    def test_beyond_float_range_rejected(self, tmp_path, capsys, document, field):
        config = tmp_path / "c.json"
        config.write_text(json.dumps(document))
        out = tmp_path / "o"
        assert main(["metrics", "--config", str(config), "--out", str(out)]) == 1
        err = capsys.readouterr().err
        assert field in err and "Traceback" not in err
        assert not out.exists()


class TestModes:
    def test_simulate_writes_planes_and_manifest(self, tmp_path):
        config_path = make_inputs(tmp_path)
        out = tmp_path / "out"
        assert main(["simulate", "--config", str(config_path), "--out", str(out)]) == 0
        index = json.loads((out / "activations_index.json").read_text())
        assert len(index["channels"]) == 2
        plane = load_pgm16(out / index["channels"][0]["file"])
        assert plane.shape == tuple(index["dims"])
        manifest = json.loads((out / "manifest.json").read_text())
        assert manifest["mode"] == "simulate"
        assert manifest["seed"] == 7
        assert manifest["config"]["conv"]["k"] == 3
        assert "activations_index.json" in manifest["artifacts"]

    def test_verify_passes_with_headroom_clamp(self, tmp_path, capsys):
        # A small feedback cap and the 8X window drive bright taps into the
        # pixel's headroom clamp, which the golden model must apply too.
        config_path = make_inputs(tmp_path, rows=64, cols=80, seed=5)
        config = json.loads(config_path.read_text())
        config.update(pixel={"c_f": 1e-15}, wtc={"window": 3})
        config_path.write_text(json.dumps(config))
        out = tmp_path / "out"
        assert main(["verify", "--config", str(config_path), "--out", str(out)]) == 0
        report = json.loads((out / "verify_report.json").read_text())
        assert report["passed"] is True and report["max_abs_delta"] <= 1
        assert "PASS" in capsys.readouterr().out

    def test_verify_passes_on_nominal_chain(self, tmp_path, capsys):
        config_path = make_inputs(tmp_path)
        out = tmp_path / "out"
        assert main(["verify", "--config", str(config_path), "--out", str(out)]) == 0
        report = json.loads((out / "verify_report.json").read_text())
        assert report["fraction_within_1"] == 1.0
        assert report["passed"] is True
        assert "PASS" in capsys.readouterr().out

    def test_sweep_csv_contract(self, tmp_path):
        config_path = make_inputs(tmp_path)
        out = tmp_path / "out"
        assert main(["sweep", "--config", str(config_path), "--out", str(out)]) == 0
        lines = (out / "sweep.csv").read_text().splitlines()
        assert lines[0] == "mode,k,w_norm,x_norm,v_cbl,v_adc_in,code"
        assert len(lines) > 1

    def test_montecarlo_outputs(self, tmp_path):
        config_path = make_inputs(tmp_path)
        out = tmp_path / "out"
        assert main(["montecarlo", "--config", str(config_path), "--out", str(out)]) == 0
        lines = (out / "montecarlo.csv").read_text().splitlines()
        assert lines[0] == "trial,v_adc_in"
        assert len(lines) == 41
        summary = json.loads((out / "montecarlo_summary.json").read_text())
        assert summary["trials"] == 40

    def test_metrics_defaults_without_config(self, tmp_path):
        out = tmp_path / "out"
        assert main(["metrics", "--out", str(out)]) == 0
        report = json.loads((out / "metrics.json").read_text())
        assert abs(report["br_bits"] - 12.08) <= 0.01
        assert report["reference"]["paper_gops"] == 1.98e9

    def test_export_transfer(self, tmp_path):
        config_path = make_inputs(tmp_path)
        out = tmp_path / "out"
        assert main(["export-transfer", "--config", str(config_path), "--out", str(out)]) == 0
        model = json.loads((out / "transfer_model.json").read_text())
        assert model["fit"]["r_squared"] >= 0.999
        lines = (out / "transfer_samples.csv").read_text().splitlines()
        assert lines[0] == "w_norm,x_norm,volts"

    def test_export_transfer_model_is_strict_json(self, tmp_path):
        config_path = make_inputs(tmp_path)
        out = tmp_path / "out"
        assert main(["export-transfer", "--config", str(config_path), "--out", str(out)]) == 0

        def reject(constant):
            raise AssertionError(f"{constant} in transfer_model.json")

        model = json.loads((out / "transfer_model.json").read_text(), parse_constant=reject)
        assert model["clamp_hi"] is None  # the fitted line is not clamped above

    def test_export_transfer_from_external_csv(self, tmp_path):
        samples = tmp_path / "samples.csv"
        samples.write_text(
            "w_norm,x_norm,volts\n"
            + "\n".join(f"{w},1.0,{2.0 * w + 0.25}" for w in np.linspace(0, 1, 8))
            + "\n"
        )
        config = tmp_path / "c.json"
        config.write_text(json.dumps({"transfer": {"samples_csv": str(samples)}}))
        out = tmp_path / "out"
        assert main(["export-transfer", "--config", str(config), "--out", str(out)]) == 0
        model = json.loads((out / "transfer_model.json").read_text())
        assert model["slope"] == pytest.approx(2.0, rel=1e-9)
        assert model["intercept"] == pytest.approx(0.25, rel=1e-9)

    def test_readout(self, tmp_path):
        config_path = make_inputs(tmp_path)
        out = tmp_path / "out"
        assert main(["readout", "--config", str(config_path), "--out", str(out)]) == 0
        volts_map = load_pgm16(out / "readout.pgm")
        assert volts_map.shape == (64, 64)
        manifest = json.loads((out / "manifest.json").read_text())
        assert manifest["readout_volts_per_count"] > 0

    @pytest.mark.parametrize("mode", ["verify", "metrics"])
    def test_padding_makes_room_for_kernel(self, tmp_path, mode):
        # A 6x8 frame is smaller than the 7x7 kernel, but p=3 pads it to
        # 12x14; every mode that takes the geometry must accept it.
        config_path = make_inputs(tmp_path, rows=6, cols=8, k=7)
        config = json.loads(config_path.read_text())
        config["conv"] = {"k": 7, "s": 1, "p": 3, "p_s": 1, "c_o": 2}
        config_path.write_text(json.dumps(config))
        assert main([mode, "--config", str(config_path), "--out", str(tmp_path / "o")]) == 0

    def test_frame_array_mismatch_rejected(self, tmp_path):
        config_path = make_inputs(tmp_path)
        config = json.loads(config_path.read_text())
        config["array"]["rows"] = 128
        config_path.write_text(json.dumps(config))
        assert main(["simulate", "--config", str(config_path), "--out", str(tmp_path / "o")]) == 1


class TestDeterminism:
    @pytest.mark.parametrize("mode", ["simulate", "verify", "sweep", "montecarlo", "metrics"])
    def test_reruns_byte_identical(self, tmp_path, mode, monkeypatch):
        config_path = make_inputs(tmp_path)
        out_a = tmp_path / "a"
        out_b = tmp_path / "b"
        monkeypatch.setenv("CTIA_IPC_THREADS", "1")
        code_a = main([mode, "--config", str(config_path), "--out", str(out_a)])
        monkeypatch.setenv("CTIA_IPC_THREADS", "3")
        code_b = main([mode, "--config", str(config_path), "--out", str(out_b)])
        assert code_a == code_b == 0
        bytes_a = artifact_bytes(out_a)
        bytes_b = artifact_bytes(out_b)
        assert set(bytes_a) == set(bytes_b)
        for name in bytes_a:
            if name == "manifest.json":
                # identical except nothing: manifests embed no volatile state
                assert bytes_a[name] == bytes_b[name]
            else:
                assert bytes_a[name] == bytes_b[name], name

    @pytest.mark.parametrize("mode", ["simulate", "verify"])
    def test_byte_identical_across_blas_threads(self, tmp_path, mode):
        # The golden model's matrix product is exact, so the BLAS thread
        # count cannot change an artifact.  Each run is a fresh process,
        # because OpenBLAS reads its thread count once, at load.
        config_path = make_inputs(tmp_path, rows=64, cols=80, c_o=16, k=7)
        src = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")
        outputs = []
        for blas_threads in ("1", "2"):
            out = tmp_path / f"blas{blas_threads}"
            env = dict(
                os.environ, PYTHONPATH=src, CTIA_IPC_THREADS="1",
                OPENBLAS_NUM_THREADS=blas_threads,
            )
            done = subprocess.run(
                [sys.executable, "-c", "import sys; from ctia_ipc.cli import main; sys.exit(main())",
                 mode, "--config", str(config_path), "--out", str(out)],
                env=env, capture_output=True, text=True, timeout=120,
            )
            assert done.returncode == 0, done.stderr
            outputs.append(artifact_bytes(out))
        assert outputs[0] == outputs[1]

    def test_seed_override_changes_manifest(self, tmp_path):
        config_path = make_inputs(tmp_path)
        out = tmp_path / "o"
        assert main(["metrics", "--config", str(config_path), "--seed", "99", "--out", str(out)]) == 0
        manifest = json.loads((out / "manifest.json").read_text())
        assert manifest["seed"] == 99


class TestMonteCarloArtifacts:
    """montecarlo.csv and montecarlo_summary.json are pinned by sha256.
    The digests come from the implementation that built one default_rng
    per trial."""

    @pytest.mark.parametrize(
        "k, seed, csv_digest, summary_digest",
        [
            (
                7,
                3,
                "ee791447b82c31e322f3417c4945ec7873966f2955ec726b09b7131356c34767",
                "7689d6d103c9bb43655fd6f77704ba3bc6e2b228af7fed949a316f0b5b3497f6",
            ),
            (
                7,
                2**70 + 123,
                "889eb0fb49ae3f184a6ca5e4108e70e951f4cc1cb580d3837182b4bba3e63b57",
                "1183e30f859d1eeed49cdca87996e477d53cf4e4a6d34ecfac94fad0de1aca20",
            ),
            (
                3,
                3,
                "8e5c67de22e87365593d59bec6feed1fdaef3d9f70c8611fbf07e3ce9a7ede1a",
                "ad4e3e9e25012fa436196b7691f81ef45ff18e7accea3ac5c7555afc9421b000",
            ),
            (
                3,
                2**70 + 123,
                "3c52105cc73ac8f7bd1910f9423cc8289d8d9a6789413279b1cdbe30e3c5c994",
                "11de7835374fbd9b76d12932c900d978adb002674ced6d738b59f3f1e344dea7",
            ),
        ],
    )
    def test_artifacts_unchanged(self, tmp_path, k, seed, csv_digest, summary_digest):
        config = {
            "conv": {"k": k},
            "mismatch": {"sigma_cap": 0.02, "sigma_vrst": 0.001, "sigma_gain": 0.01, "trials": 300},
            "seed": seed,
        }
        config_path = tmp_path / "config.json"
        config_path.write_text(json.dumps(config))
        out = tmp_path / "out"
        assert main(["montecarlo", "--config", str(config_path), "--out", str(out)]) == 0
        for name, digest in (
            ("montecarlo.csv", csv_digest),
            ("montecarlo_summary.json", summary_digest),
        ):
            assert hashlib.sha256((out / name).read_bytes()).hexdigest() == digest, name


READOUT_CASES = {
    "default": ({}, "efd2a305e89d2c4e53c61ae471c264c4290897bdb9355821f492688a4ffcd110"),
    # 87% of the pixels reach the headroom clamp.
    "clamping": (
        {"pixel": {"c_f": 1e-15}, "wtc": {"window": 3}},
        "7229dc8ee708aa4e7b8ff2da1c6f0ed3c42218919b91be0b6fd92dd7dbf9450e",
    ),
}


@pytest.mark.parametrize(
    "case, block_rows",
    [(case, None) for case in READOUT_CASES] + [(case, 5) for case in READOUT_CASES],
    ids=[*READOUT_CASES, *(f"{case}-5-row-blocks" for case in READOUT_CASES)],
)
def test_readout_artifact_unchanged(tmp_path, monkeypatch, case, block_rows):
    # The digests come from the readout that built a fresh buffer per step,
    # over the whole frame at once.  5-row blocks cut the 64-row frame into
    # 13 blocks, the last of 4 rows.
    if block_rows:
        monkeypatch.setattr(parallel, "ROW_BLOCK_NODES", block_rows * 64)
        assert parallel.row_blocks(64, 64)[-2:] == [(55, 60), (60, 64)]
    overrides, digest = READOUT_CASES[case]
    config_path = make_inputs(tmp_path)
    config_path.write_text(json.dumps(dict(json.loads(config_path.read_text()), **overrides)))
    out = tmp_path / "out"
    assert main(["readout", "--config", str(config_path), "--out", str(out)]) == 0
    assert hashlib.sha256((out / "readout.pgm").read_bytes()).hexdigest() == digest


def test_readout_allocates_no_frame(tmp_path):
    # The readout holds one row block at a time: under 655,360 bytes, the
    # 512x640 frame's uint16 samples, where reading, converting or writing
    # the whole frame at once takes several times that.
    rows, cols = 512, 640
    config_path = make_inputs(tmp_path, rows, cols)
    argv = ["readout", "--config", str(config_path), "--out", str(tmp_path / "out")]
    assert main(argv) == 0  # the imports and caches of a first run
    tracemalloc.start()
    try:
        assert main(argv) == 0
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < rows * cols * 2


def test_start_up_leaves_numpy_random_unimported():
    # numpy.random costs about 13 ms to import; only montecarlo draws.
    # concurrent.futures, with the logging, queue and traceback modules it
    # imports, costs about 8 ms; the threads are plain threading ones.
    src = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")
    code = (
        "import sys, ctia_ipc.cli\n"
        "from ctia_ipc.config import load_config\n"
        "load_config(None)\n"
        "assert 'numpy.random' not in sys.modules, sorted(sys.modules)\n"
        "assert 'concurrent.futures' not in sys.modules, sorted(sys.modules)\n"
    )
    done = subprocess.run(
        [sys.executable, "-c", code],
        env=dict(os.environ, PYTHONPATH=src),
        capture_output=True,
        text=True,
        timeout=60,
    )
    assert done.returncode == 0, done.stderr
