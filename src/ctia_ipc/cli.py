"""Command-line entry point.

    ctia-ipc-sim <mode> --config <path> [--seed N] [--out <dir>]

Modes: simulate, verify, sweep, montecarlo, metrics, export-transfer,
readout.  Exit codes: 0 success, 1 validation error, 2 verification
failure, 3 I/O error.  Every run writes a manifest.json carrying the
fully-resolved configuration, so artifacts are reproducible byte for byte
from the manifest alone.  CTIA_IPC_THREADS caps the worker threads of
the layer tap kernels, simulator and golden model (0 or unset = one per
CPU); the count is also capped at the CPU count.
"""

from __future__ import annotations

import argparse
import os
import sys

import numpy as np

from . import formats
from .config import RunConfig, load_config, require_input
from .errors import FormatError, SimError, ValidationError
from .golden import compare_runs, golden_layer
from .mapper import build_schedule, fuse_and_quantize
from .metrics import SWEEP_HEADER, linearity_sweep, metrics_report, monte_carlo
from .parallel import row_blocks
from .pipeline import simulate_layer, sweep_window_chain
from .pixel import fit_transfer_model, frame_to_photocurrents
from .pixel_array import N_CHANNELS, readout_frame

EXIT_OK = 0
EXIT_VALIDATION = 1
EXIT_VERIFY = 2
EXIT_IO = 3

MC_HEADER = ("trial", "v_adc_in")
TRANSFER_HEADER = ("w_norm", "x_norm", "volts")


class _Parser(argparse.ArgumentParser):
    # argparse exits with status 2 on usage errors, which collides with the
    # verification-failure code; remap to the validation exit code.
    def error(self, message):
        self.print_usage(sys.stderr)
        raise ValidationError(message)


def _write_manifest(cfg: RunConfig, mode: str, out_dir: str, artifacts: list, extra: dict | None = None) -> None:
    manifest = {
        "tool": "ctia-ipc-sim",
        "mode": mode,
        "seed": cfg.seed,
        "config": cfg.resolved(),
        "artifacts": sorted(artifacts),
    }
    if extra:
        manifest.update(extra)
    formats.write_json(os.path.join(out_dir, "manifest.json"), manifest)


def _check_frame_shape(cfg: RunConfig, shape: tuple) -> None:
    if shape != (cfg.array.rows, cfg.array.cols):
        raise ValidationError(
            f"frame is {shape[0]}x{shape[1]} but the array is "
            f"{cfg.array.rows}x{cfg.array.cols}"
        )


def _load_sensor_frame(cfg: RunConfig) -> np.ndarray:
    frame = formats.load_pgm16(require_input(cfg, "frame_path"))
    _check_frame_shape(cfg, frame.shape)
    return frame


def _load_layer(cfg: RunConfig):
    weights, bn = formats.load_weights(require_input(cfg, "weights_path"))
    expected = (cfg.conv.c_o, N_CHANNELS, cfg.conv.k, cfg.conv.k)
    if weights.shape != expected:
        raise ValidationError(
            f"weight document shape {weights.shape} does not match the conv spec {expected}"
        )
    return fuse_and_quantize(weights, bn, cfg.conv.mag_max)


def _run_simulate(cfg: RunConfig, out_dir: str) -> int:
    frame = _load_sensor_frame(cfg)
    fused = _load_layer(cfg)
    activations = simulate_layer(frame, fused, cfg.conv, cfg.chain())
    artifacts = []
    index = {"channels": [], "out_bits": cfg.adc.out_bits, "dims": list(activations.shape[1:])}
    for ch in range(activations.shape[0]):
        name = f"activations_ch{ch:02d}.pgm"
        formats.save_pgm16(os.path.join(out_dir, name), activations[ch].astype(np.uint16))
        index["channels"].append({"channel": ch, "file": name})
        artifacts.append(name)
    formats.write_json(os.path.join(out_dir, "activations_index.json"), index)
    artifacts.append("activations_index.json")
    _write_manifest(cfg, "simulate", out_dir, artifacts)
    return EXIT_OK


def _run_verify(cfg: RunConfig, out_dir: str) -> int:
    frame = _load_sensor_frame(cfg)
    fused = _load_layer(cfg)
    chain = cfg.chain()
    sim_out = simulate_layer(frame, fused, cfg.conv, chain)
    cal = chain.calibration(fused.mag_max)
    gold_out = golden_layer(frame, fused, cfg.conv, chain.adc, cal)
    report = compare_runs(sim_out, gold_out, cfg.verify_max_within)
    formats.write_json(os.path.join(out_dir, "verify_report.json"), report)
    _write_manifest(cfg, "verify", out_dir, ["verify_report.json"])
    print(
        f"verify: max|delta|={report['max_abs_delta']} exact={report['fraction_exact']:.6f} "
        f"within1={report['fraction_within_1']:.6f} nodes={report['n_nodes']} "
        f"-> {'PASS' if report['passed'] else 'FAIL'}"
    )
    return EXIT_OK if report["passed"] else EXIT_VERIFY


def _run_sweep(cfg: RunConfig, out_dir: str) -> int:
    rows = linearity_sweep(cfg.chain(), modes=cfg.sweep_modes, x_points=cfg.sweep_x_points)
    formats.write_csv(os.path.join(out_dir, "sweep.csv"), SWEEP_HEADER, rows)
    _write_manifest(cfg, "sweep", out_dir, ["sweep.csv"])
    return EXIT_OK


def _run_montecarlo(cfg: RunConfig, out_dir: str) -> int:
    samples, summary = monte_carlo(cfg.chain(), cfg.mismatch, k=cfg.conv.k)
    formats.write_csv(os.path.join(out_dir, "montecarlo.csv"), MC_HEADER, enumerate(samples.tolist()))
    formats.write_json(os.path.join(out_dir, "montecarlo_summary.json"), summary)
    _write_manifest(cfg, "montecarlo", out_dir, ["montecarlo.csv", "montecarlo_summary.json"])
    return EXIT_OK


def _run_metrics(cfg: RunConfig, out_dir: str) -> int:
    schedule = build_schedule(cfg.conv, cfg.array.rows, cfg.array.cols)
    report = metrics_report(
        cfg.conv,
        cfg.array.rows,
        cfg.array.cols,
        schedule,
        cfg.power_per_pixel_w,
        cfg.cycle_time(),
        cfg.adc.out_bits,
    )
    formats.write_json(os.path.join(out_dir, "metrics.json"), report)
    _write_manifest(cfg, "metrics", out_dir, ["metrics.json"])
    print(f"br_bits={report['br_bits']:.4f} br_printed={report['br_printed']:.4f}")
    return EXIT_OK


def _transfer_samples(cfg: RunConfig):
    if cfg.transfer_samples_csv:
        path = require_input(cfg, "transfer_samples_csv")
        return [tuple(row) for row in formats.read_csv(path, TRANSFER_HEADER)]
    # No external samples: sample the nominal single-unit chain, every
    # weight level at once.
    mag_max = cfg.conv.mag_max
    x_grid = np.linspace(0.0, 1.0, cfg.transfer_grid_points)
    x_norms = x_grid.tolist()
    _, v_adc_in, _ = sweep_window_chain(cfg.chain(), 1, np.arange(mag_max + 1), x_grid)
    return [
        (mag / mag_max, x, v)
        for mag, volts in enumerate(v_adc_in.tolist())
        for x, v in zip(x_norms, volts)
    ]


def _run_export_transfer(cfg: RunConfig, out_dir: str) -> int:
    samples = _transfer_samples(cfg)
    model = fit_transfer_model(samples, degree=cfg.transfer_fit_degree)
    formats.write_csv(os.path.join(out_dir, "transfer_samples.csv"), TRANSFER_HEADER, samples)
    formats.write_json(os.path.join(out_dir, "transfer_model.json"), model)
    _write_manifest(cfg, "export-transfer", out_dir, ["transfer_samples.csv", "transfer_model.json"])
    return EXIT_OK


def _readout_codes(cfg: RunConfig, path: str, rows: tuple, exposure: float) -> np.ndarray:
    """The uint16 readout codes of rows (r0, r1) of the frame at path."""
    # The raw samples and the photocurrents are freed as soon as the call
    # that takes them returns.
    volts = readout_frame(
        cfg.pixel, frame_to_photocurrents(formats.load_pgm16(path, rows), cfg.pixel.i_max), exposure
    )
    # Voltages are clamped at headroom, so headroom spans the full code
    # range.  Scaled and rounded in place, with the roundings of
    # rint(volts / headroom * 65535).
    volts /= cfg.pixel.headroom
    volts *= 65535
    return np.rint(volts, out=volts).astype(np.uint16)


def _run_readout(cfg: RunConfig, out_dir: str) -> int:
    # One row block at a time is read from the frame's file, read out and
    # written to readout.pgm before the next is read: no frame-sized
    # buffer exists, and no block's buffers outlive its codes.
    path = require_input(cfg, "frame_path")
    shape = formats.pgm16_shape(path)
    _check_frame_shape(cfg, shape)
    exposure = cfg.readout_exposure()
    codes = (_readout_codes(cfg, path, block, exposure) for block in row_blocks(*shape))
    formats.save_pgm16(os.path.join(out_dir, "readout.pgm"), codes, shape)
    _write_manifest(
        cfg,
        "readout",
        out_dir,
        ["readout.pgm"],
        extra={"readout_volts_per_count": cfg.pixel.headroom / 65535},
    )
    return EXIT_OK


_RUNNERS = {
    "simulate": _run_simulate,
    "verify": _run_verify,
    "sweep": _run_sweep,
    "montecarlo": _run_montecarlo,
    "metrics": _run_metrics,
    "export-transfer": _run_export_transfer,
    "readout": _run_readout,
}


def run(cfg: RunConfig, mode: str) -> int:
    if mode not in _RUNNERS:
        raise ValidationError(f"unknown mode {mode!r}; choose from {', '.join(_RUNNERS)}")
    return _RUNNERS[mode](cfg, cfg.out_dir)


def main(argv=None) -> int:
    parser = _Parser(
        prog="ctia-ipc-sim",
        description="Behavioral simulator for a CTIA-based in-pixel computing accelerator",
    )
    parser.add_argument("mode", choices=_RUNNERS, help="run mode")
    parser.add_argument("--config", help="JSON run configuration (defaults when omitted)")
    parser.add_argument("--seed", type=int, help="override the config seed")
    parser.add_argument("--out", help="override the output directory")
    try:
        args = parser.parse_args(argv)
        cfg = load_config(args.config, seed_override=args.seed, out_override=args.out)
        return run(cfg, args.mode)
    except FormatError as exc:
        print(f"ctia-ipc-sim: format error: {exc}", file=sys.stderr)
        return EXIT_IO
    except SimError as exc:
        print(f"ctia-ipc-sim: {exc}", file=sys.stderr)
        return EXIT_VALIDATION
    except OSError as exc:
        print(f"ctia-ipc-sim: i/o error: {exc}", file=sys.stderr)
        return EXIT_IO


if __name__ == "__main__":
    sys.exit(main())
