"""Acceptance suite: one test per criterion, each printing a pass/fail
line with its runtime.  Run with `pytest tests/test_acceptance.py -v -s`.
"""

import math
import time
from contextlib import contextmanager

import numpy as np
import pytest

from ctia_ipc.adc import AdcConfig, cds_signed
from ctia_ipc.cli import main
from ctia_ipc.golden import compare_runs, golden_layer
from ctia_ipc.mapper import BnParams, ConvSpec, build_schedule, fuse_bn
from ctia_ipc.metrics import MismatchSpec, bandwidth_reduction, linearity_sweep, monte_carlo
from ctia_ipc.pipeline import simulate_layer
from ctia_ipc.pixel import PixelParams, fit_transfer
from ctia_ipc.pixel_array import ArrayConfig, run_mac_cycle
from ctia_ipc.wtc import CounterConfig, match_ticks, match_time

from conftest import random_frame, random_layer, small_chain
from test_cli import artifact_bytes, make_inputs


@contextmanager
def criterion(number, name, limit_s):
    start = time.monotonic()
    failed = False
    try:
        yield
    except BaseException:
        failed = True
        raise
    finally:
        elapsed = time.monotonic() - start
        status = "FAIL" if failed or elapsed >= limit_s else "PASS"
        print(f"[criterion {number}] {name}: {status} ({elapsed:.2f}s, limit {limit_s}s)")
    assert elapsed < limit_s, f"criterion {number} exceeded its {limit_s}s runtime budget"


def test_criterion_1_bandwidth_reduction():
    with criterion(1, "bandwidth reduction 12.08x", 1.0):
        spec = ConvSpec(k=7, s=2, p=0, c_o=16, n_b=4, p_s=2)
        br_printed, br_bits = bandwidth_reduction(spec, 1024, 1280)
        # Long-form bit-ratio oracle.
        assert br_bits == pytest.approx((1280 * 1024 * 4 * 12) / (319 * 255 * 16 * 4), rel=1e-12)
        assert abs(br_bits - 12.08) <= 0.01
        # The literal closed-form figure is emitted alongside.
        assert br_printed == pytest.approx(
            (1280 * 1024 * 4) / (637 * 509 * 16) * 0.75 * 3.0 * 0.25, rel=1e-12
        )


def test_criterion_2_activation_count():
    with criterion(2, "cycle-0 activation count 8820", 1.0):
        schedule = build_schedule(ConvSpec(k=7, s=2, p=0), 1024, 1280)
        assert (1280 - 7) // (2 * math.lcm(7, 2)) * 49 * 4 == 8820
        assert schedule.cycle0_active_pixels == 8820


def test_criterion_3_golden_equivalence():
    with criterion(3, "golden-model equivalence over 100 seeds", 60.0):
        spec = ConvSpec()  # 7x7, stride 2, 16 channels
        chain = small_chain(64, 64)
        for seed in range(100):
            rng = np.random.default_rng(seed)
            _, _, fused = random_layer(rng, spec, beta_bias=rng.uniform(-0.5, 1.5))
            frame = random_frame(rng, 64, 64)
            sim = simulate_layer(frame, fused, spec, chain)
            gold = golden_layer(frame, fused, spec, chain.adc, chain.calibration(fused.mag_max))
            report = compare_runs(sim, gold)
            assert report["fraction_within_1"] == 1.0, f"seed {seed}: {report}"


def test_criterion_4_linearity():
    with criterion(4, "linearity r^2 >= 0.999 for k in {3,5,7}", 10.0):
        rows = linearity_sweep(small_chain(), modes=("multiwindow",), x_points=9)
        for k in (3, 5, 7):
            samples = [(w, x, v_adc_in) for _, rk, w, x, _, v_adc_in, _ in rows if rk == k]
            fit = fit_transfer(samples)
            assert fit.r_squared >= 0.999, f"k={k}: r^2={fit.r_squared}"


def test_criterion_5_wtc_exactness():
    with criterion(5, "WTC exposure exactness, 16 magnitudes x 4 windows", 1.0):
        t_step = 1e-6
        for window in range(4):
            cfg = CounterConfig(t_step=t_step, window=window)
            for mag in range(16):
                assert match_ticks(cfg, mag) == mag * (1 << window)
                assert match_time(cfg, mag) == (mag << window) * t_step
        # Window scaling is exactly 1X/2X/4X/8X.
        for mag in range(1, 16):
            base = match_ticks(CounterConfig(t_step=t_step, window=0), mag)
            scales = [
                match_ticks(CounterConfig(t_step=t_step, window=w), mag) / base
                for w in range(4)
            ]
            assert scales == [1, 2, 4, 8]


def test_criterion_6_signed_cds():
    with criterion(6, "signed CDS within +/-1 LSB at single-pixel scale", 5.0):
        pixel = PixelParams()
        wtc = CounterConfig(t_step=1.3e-6, window=3)
        array = ArrayConfig(rows=2, cols=2)
        adc = AdcConfig(v_fs=0.128)
        # Full product stays inside both the headroom and the ADC range.
        v_unit = pixel.i_max * 15 * 8 * wtc.t_step / pixel.c_f / array.divider
        assert pixel.i_max * 15 * 8 * wtc.t_step / pixel.c_f < pixel.headroom
        assert v_unit < adc.v_fs
        lsb_per_unit = v_unit / adc.lsb
        for w in range(-15, 16):
            for x in (0.0, 0.25, 0.5, 0.75, 1.0):
                region = np.zeros((4, 1, 1))
                region[0, 0, 0] = x * pixel.i_max
                pos = np.zeros((4, 1, 1), dtype=np.int64)
                neg = np.zeros((4, 1, 1), dtype=np.int64)
                if w > 0:
                    pos[0, 0, 0] = w
                elif w < 0:
                    neg[0, 0, 0] = -w
                v_pos = run_mac_cycle(array, pixel, wtc, region, pos)
                v_neg = run_mac_cycle(array, pixel, wtc, region, neg)
                code = cds_signed(adc, v_pos, v_neg, 0)
                ideal = (w / 15) * x * lsb_per_unit
                assert abs(code - ideal) <= 1 + 1e-9, f"w={w} x={x}: {code} vs {ideal}"


def test_criterion_7_bn_fusion_identity():
    with criterion(7, "BN fusion identity, 1000 random cases", 10.0):
        rng = np.random.default_rng(2024)
        k, c_o = 3, 2
        for _ in range(1000):
            weights = rng.normal(size=(c_o, 4, k, k))
            bn = BnParams(
                gamma=rng.uniform(0.1, 3.0, c_o),
                beta=rng.normal(size=c_o),
                mu=rng.normal(size=c_o),
                sigma_sq=rng.uniform(0.05, 4.0, c_o),
                epsilon=10 ** rng.uniform(-8, -3),
            )
            x = rng.uniform(0.0, 1.0, (4, 6, 6))
            windows = np.lib.stride_tricks.sliding_window_view(x, (k, k), axis=(1, 2))

            def conv(w):
                return np.einsum("cijxy,ocxy->oij", windows, w)

            scaled, offsets = fuse_bn(weights, bn)
            fused_out = conv(scaled) + offsets[:, None, None]
            inv_std = 1.0 / np.sqrt(bn.sigma_sq + bn.epsilon)
            unfused = (conv(weights) - bn.mu[:, None, None]) * (bn.gamma * inv_std)[
                :, None, None
            ] + bn.beta[:, None, None]
            assert np.allclose(fused_out, unfused, rtol=1e-9, atol=1e-12)
            assert np.allclose(
                np.maximum(fused_out, 0.0), np.maximum(unfused, 0.0), rtol=1e-9, atol=1e-12
            )


def test_criterion_8_monte_carlo_sanity():
    with criterion(8, "Monte Carlo sanity (1000 trials, 1% gain sigma)", 30.0):
        chain = small_chain()
        silent, silent_summary = monte_carlo(chain, MismatchSpec(trials=100, seed=11))
        assert np.all(silent == silent_summary["nominal_v"])
        mm = MismatchSpec(sigma_gain=0.01, trials=1000, seed=11)
        samples_a, run_a = monte_carlo(chain, mm)
        samples_b, _ = monte_carlo(chain, mm)
        assert np.array_equal(samples_a, samples_b)
        assert run_a["std_v"] > 0
        bound = 3 * run_a["std_v"] / math.sqrt(mm.trials)
        assert abs(run_a["mean_v"] - run_a["nominal_v"]) <= bound


def test_criterion_9_determinism(tmp_path, monkeypatch):
    with criterion(9, "byte-identical artifacts at any thread count", 60.0):
        config_path = make_inputs(tmp_path)
        for mode in ("simulate", "verify", "sweep", "montecarlo", "metrics"):
            out_a = tmp_path / f"{mode}-a"
            out_b = tmp_path / f"{mode}-b"
            monkeypatch.setenv("CTIA_IPC_THREADS", "1")
            assert main([mode, "--config", str(config_path), "--out", str(out_a)]) == 0
            monkeypatch.setenv("CTIA_IPC_THREADS", "4")
            assert main([mode, "--config", str(config_path), "--out", str(out_b)]) == 0
            bytes_a = artifact_bytes(out_a)
            bytes_b = artifact_bytes(out_b)
            assert set(bytes_a) == set(bytes_b)
            for name, blob in bytes_a.items():
                assert blob == bytes_b[name], f"{mode}/{name} differs between runs"
