"""Workloads of the benchmark: their inputs, their MAC counts and the checks
that decide whether a run's outputs are correct.

Everything here runs in the benchmark's own process, outside any timed
region.  The simulator itself only ever sees the generated input files.
"""

from __future__ import annotations

import hashlib
import importlib.util
import json
import math
import os
import sys
from dataclasses import dataclass, field

import numpy as np

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SRC = os.path.join(ROOT, "src")
DEMO_INPUTS = os.path.join(ROOT, "scripts", "make_demo_inputs.py")

FULL_ROWS = 1024
FULL_COLS = 1280
CHANNELS = 16

# Mismatch magnitudes of scripts/make_demo_inputs.py.
DEMO_MISMATCH = {"sigma_cap": 0.01, "sigma_vrst": 1e-4, "sigma_gain": 0.01}
# Large enough that the sweep and Monte Carlo each take seconds, so the
# scalar per-node chain dominates chain_characterize.
CHAIN_SWEEP_X_POINTS = 17
CHAIN_MC_TRIALS = 10_000
# Acceptance criterion 4.
MIN_SWEEP_R2 = 0.999
MULTIWINDOW_KERNELS = (3, 5, 7)
N_CHANNELS = 4
MAG_LEVELS = 16


@dataclass(frozen=True)
class Workload:
    name: str
    conv: dict
    modes: tuple
    extra_config: dict = field(default_factory=dict)
    # Trace spans (perfbench/child.py SPANS) a traced run must enter.
    spans: tuple = ()

    @property
    def is_frame(self) -> bool:
        return self.modes in (("verify",), ("simulate",))


FRAME_SPANS = (
    "config.load_config",
    "formats.load_pgm16",
    "formats.load_weights",
    "mapper.fuse_and_quantize",
    "pipeline.simulate_layer",
    "pipeline.photocurrent_channels",
    "pixel_array.mac_node_voltages",
    "adc.cds_signed",
    "adc.relu_requantize",
    "adc.maxpool",
    "formats.write_json",
)

WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            "frame_k7s2_verify",
            {"k": 7, "s": 2, "c_o": CHANNELS},
            ("verify",),
            spans=FRAME_SPANS + ("golden.golden_layer", "golden.compare_runs"),
        ),
        Workload(
            "frame_k3s1_simulate",
            {"k": 3, "s": 1, "c_o": CHANNELS},
            ("simulate",),
            spans=FRAME_SPANS + ("formats.save_pgm16",),
        ),
        Workload(
            "chain_characterize",
            {"k": 7, "s": 2, "c_o": CHANNELS},
            ("sweep", "montecarlo", "export-transfer", "metrics", "readout"),
            {
                "sweep": {"x_points": CHAIN_SWEEP_X_POINTS},
                "mismatch": dict(DEMO_MISMATCH, trials=CHAIN_MC_TRIALS),
            },
            spans=(
                "config.load_config",
                "formats.load_pgm16",
                "formats.save_pgm16",
                "formats.write_csv",
                "formats.write_json",
                "mapper.build_schedule",
                "pipeline.sweep_window_chain",
                "pixel_array.run_mac_cycle",
                "pixel_array.readout_frame",
                "pixel.integrate",
                "adc.quantize",
                "metrics.linearity_sweep",
                "metrics.monte_carlo",
                "metrics.metrics_report",
            ),
        ),
    )
}


def checkout_problem() -> str | None:
    """Why the program cannot be benchmarked from this checkout, or None."""
    for path in (os.path.join(SRC, "ctia_ipc", "cli.py"), DEMO_INPUTS):
        if not os.path.isfile(path):
            return f"missing {os.path.relpath(path, ROOT)}"
    return None


def import_program():
    """Import ctia_ipc from this checkout's src/, never from elsewhere."""
    if SRC not in sys.path:
        sys.path.insert(0, SRC)
    import ctia_ipc

    if not os.path.abspath(ctia_ipc.__file__).startswith(SRC + os.sep):
        raise ImportError(f"ctia_ipc resolved outside the checkout: {ctia_ipc.__file__}")
    return ctia_ipc


def _demo_inputs_module():
    spec = importlib.util.spec_from_file_location("make_demo_inputs", DEMO_INPUTS)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


@dataclass(frozen=True)
class Inputs:
    config_path: str
    out_root: str
    config: dict

    def argv(self, mode: str) -> list:
        return [mode, "--config", self.config_path, "--out", os.path.join(self.out_root, mode)]


def make_inputs(workload: Workload, seed: int, work_dir: str) -> Inputs:
    """Write the FULL_ROWS x FULL_COLS frame, weights and config of one
    workload, all drawn from seed with the generators of
    scripts/make_demo_inputs.py."""
    import_program()
    from ctia_ipc.formats import save_pgm16, save_weights

    demo = _demo_inputs_module()
    rows, cols = FULL_ROWS, FULL_COLS
    rng = np.random.default_rng(seed)
    input_dir = os.path.join(work_dir, "inputs")
    os.makedirs(input_dir, exist_ok=True)
    save_pgm16(os.path.join(input_dir, "frame.pgm"), demo.synthetic_bayer_frame(rows, cols, rng))
    weights, bn = demo.demo_weights(workload.conv["c_o"], workload.conv["k"], rng)
    save_weights(os.path.join(input_dir, "weights.json"), weights, bn)
    config = {
        "array": {"rows": rows, "cols": cols},
        "conv": dict(workload.conv),
        "mismatch": dict(DEMO_MISMATCH, trials=1000),
        "paths": {"frame": "frame.pgm", "weights": "weights.json"},
        "seed": seed,
    }
    config.update(workload.extra_config)
    config_path = os.path.join(input_dir, "config.json")
    with open(config_path, "w", encoding="utf-8") as handle:
        json.dump(config, handle, indent=2, sort_keys=True)
    return Inputs(config_path, os.path.join(work_dir, "out"), config)


def simulated_macs(workload: Workload, inputs: Inputs) -> int:
    """Pixel-tap MACs one run of the workload simulates.

    A MAC is one non-zero weight tap applied at one output node, counted
    over both polarities and all output channels.  For chain_characterize
    it is the non-zero taps of every sweep point, every export-transfer
    sample and every Monte Carlo trial (including the nominal one).
    """
    import_program()
    from ctia_ipc.config import load_config
    from ctia_ipc.formats import load_weights
    from ctia_ipc.mapper import fuse_and_quantize, output_dims

    cfg = load_config(inputs.config_path)
    if workload.is_frame:
        weights, bn = load_weights(cfg.weights_path)
        fused = fuse_and_quantize(weights, bn, cfg.conv.mag_max)
        (out_r, out_c), _ = output_dims(cfg.conv, cfg.array.rows, cfg.array.cols)
        taps = int(np.count_nonzero(fused.pos_mags)) + int(np.count_nonzero(fused.neg_mags))
        return taps * out_r * out_c
    nonzero_levels = MAG_LEVELS - 1
    single_unit = len([m for m in cfg.sweep_modes if m != "multiwindow"])
    sweep_taps = single_unit * nonzero_levels * cfg.sweep_x_points * N_CHANNELS
    if "multiwindow" in cfg.sweep_modes:
        sweep_taps += sum(
            nonzero_levels * cfg.sweep_x_points * N_CHANNELS * k * k for k in MULTIWINDOW_KERNELS
        )
    transfer_taps = cfg.conv.mag_max * cfg.transfer_grid_points * N_CHANNELS
    mc_taps = (cfg.mismatch.trials + 1) * N_CHANNELS * cfg.conv.k**2
    return sweep_taps + transfer_taps + mc_taps


# ---------------------------------------------------------------------------
# Output checks.  Each returns a list of problems; empty means correct.
# ---------------------------------------------------------------------------


def artifact_digest(out_root: str) -> str:
    """sha256 over every artifact under out_root, by relative path.

    manifest.json is left out: it records the absolute input paths, which
    differ between checkouts, and no simulated result.
    """
    digest = hashlib.sha256()
    for dirpath, dirnames, filenames in os.walk(out_root):
        dirnames.sort()
        for name in sorted(filenames):
            if name == "manifest.json":
                continue
            path = os.path.join(dirpath, name)
            digest.update(os.path.relpath(path, out_root).encode() + b"\0")
            with open(path, "rb") as handle:
                digest.update(handle.read())
            digest.update(b"\0")
    return digest.hexdigest()


def artifact_bytes(out_root: str) -> int:
    return sum(
        os.path.getsize(os.path.join(dirpath, name))
        for dirpath, _, filenames in os.walk(out_root)
        for name in filenames
    )


def check_activations(sim: np.ndarray, gold: np.ndarray, max_within: int) -> dict:
    """Compare simulated activations with the golden model's."""
    sim = np.asarray(sim, dtype=np.int64)
    gold = np.asarray(gold, dtype=np.int64)
    if sim.shape != gold.shape or sim.size == 0:
        return {"problems": [f"activation shape {sim.shape} != golden {gold.shape}"]}
    delta = np.abs(sim - gold)
    max_abs_delta = int(delta.max())
    problems = []
    if max_abs_delta > max_within:
        problems.append(f"max |delta| {max_abs_delta} exceeds verify.max_within {max_within}")
    return {
        "problems": problems,
        "max_abs_delta": max_abs_delta,
        "exact_frac": float(np.count_nonzero(delta == 0)) / delta.size,
    }


def _load_json(path: str):
    with open(path, "r", encoding="utf-8") as handle:
        return json.load(handle)


def check_verify(inputs: Inputs) -> dict:
    report = _load_json(os.path.join(inputs.out_root, "verify", "verify_report.json"))
    problems = [] if report.get("passed") is True else [f"verify report did not pass: {report}"]
    return {
        "problems": problems,
        "max_abs_delta": report.get("max_abs_delta"),
        "exact_frac": report.get("fraction_exact"),
    }


def golden_activations(inputs: Inputs) -> tuple:
    """(golden activations, verify.max_within) for the workload's inputs."""
    import_program()
    from ctia_ipc.config import load_config
    from ctia_ipc.formats import load_pgm16, load_weights
    from ctia_ipc.golden import golden_layer
    from ctia_ipc.mapper import fuse_and_quantize

    cfg = load_config(inputs.config_path)
    weights, bn = load_weights(cfg.weights_path)
    fused = fuse_and_quantize(weights, bn, cfg.conv.mag_max)
    chain = cfg.chain()
    gold = golden_layer(
        load_pgm16(cfg.frame_path), fused, cfg.conv, chain.adc, chain.calibration(fused.mag_max)
    )
    return gold, cfg.verify_max_within


def read_activations(inputs: Inputs) -> np.ndarray:
    import_program()
    from ctia_ipc.formats import load_pgm16

    out_dir = os.path.join(inputs.out_root, "simulate")
    index = _load_json(os.path.join(out_dir, "activations_index.json"))
    entries = sorted(index["channels"], key=lambda e: e["channel"])
    return np.stack([load_pgm16(os.path.join(out_dir, e["file"])) for e in entries])


def _read_csv(path: str) -> tuple:
    with open(path, "r", encoding="utf-8") as handle:
        lines = handle.read().splitlines()
    header = lines[0].split(",")
    return header, [line.split(",") for line in lines[1:] if line]


def check_chain(inputs: Inputs) -> dict:
    """Check the chain_characterize artifacts; sweep linearity uses the
    same fit_transfer r^2 as acceptance criterion 4."""
    import_program()
    from ctia_ipc.pixel import fit_transfer

    problems = []
    out = inputs.out_root
    header, cells = _read_csv(os.path.join(out, "sweep", "sweep.csv"))
    rows = [dict(zip(header, c)) for c in cells]
    multi = [r for r in rows if r["mode"] == "multiwindow"]
    r2 = {}
    for k in MULTIWINDOW_KERNELS:
        fit = fit_transfer(
            (float(r["w_norm"]), float(r["x_norm"]), float(r["v_adc_in"]))
            for r in multi
            if int(r["k"]) == k
        )
        r2[k] = fit.r_squared
        if not r2[k] >= MIN_SWEEP_R2:
            problems.append(f"sweep linearity r^2 {r2[k]} < {MIN_SWEEP_R2} at k={k}")
    _, mc = _read_csv(os.path.join(out, "montecarlo", "montecarlo.csv"))
    samples = np.array([float(c[1]) for c in mc])
    trials = inputs.config["mismatch"]["trials"]
    if samples.size != trials:
        problems.append(f"montecarlo wrote {samples.size} samples, expected {trials}")
    if not np.all(np.isfinite(samples)):
        problems.append("montecarlo samples are not all finite")
    model = _load_json(os.path.join(out, "export-transfer", "transfer_model.json"))
    if not all(math.isfinite(model[key]) for key in ("slope", "intercept")):
        problems.append("transfer model is not finite")
    metrics = _load_json(os.path.join(out, "metrics", "metrics.json"))
    if not all(math.isfinite(v) for v in metrics.values() if isinstance(v, float)):
        problems.append("metrics.json holds a non-finite figure")
    with open(os.path.join(out, "readout", "readout.pgm"), "rb") as handle:
        dims = handle.read(32).split()[1:3]
    array = inputs.config["array"]
    if [int(d) for d in dims] != [array["cols"], array["rows"]]:
        problems.append(f"readout.pgm is {dims}, expected {array['cols']}x{array['rows']}")
    return {"problems": problems, "sweep_r2": {str(k): v for k, v in r2.items()}}
