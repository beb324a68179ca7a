import json
import os
import re
import subprocess
import sys

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from numpy.random import PCG64, Generator, SeedSequence, default_rng
from numpy.random.bit_generator import ISeedSequence

from ctia_ipc.errors import ValidationError
from ctia_ipc.golden import compare_runs
from ctia_ipc.mapper import ConvSpec, build_schedule
from ctia_ipc.metrics import (
    MAX_TRIALS,
    MismatchSpec,
    bandwidth_reduction,
    default_cycle_time,
    energy_estimate,
    linearity_sweep,
    metrics_report,
    monte_carlo,
    op_count,
    trial_seed_words,
)
from ctia_ipc.pixel import fit_transfer
from ctia_ipc.pixel_array import N_CHANNELS

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))

HEADLINE_STDOUT = """\
frame 1280x1024, k=7 s=2 p=0 c_o=16 N_b=4 p_s=2

bandwidth reduction (bit ratio)    :    12.0848   [reference 12.08]
bandwidth reduction (closed form)  :     0.5685   [the printed estimate; does not reach the reference figure]
cycle-0 parallel activations       :       8820   [= floor(1273/28) * 7^2 * 4]
operations per frame               : 2033589376
schedule cycles (1 channel pass)   :      10689
frame time (all channels, 2 cycles):    27.0218 s
energy per frame                   :     0.5237 J
throughput                         :     0.0753 GOPS    [measured reference 1.98 GOPS]
efficiency                         :     3.8829 GOPS/W  [measured reference 3.39 GOPS/W]

The throughput/efficiency rows are behavioral-schedule estimates;
the measured silicon figures are carried as metadata only.
"""


def readme_keys(artifact):
    """The keys the README lists for a JSON report, in order."""
    text = open(os.path.join(ROOT, "README.md"), encoding="utf-8").read()
    block = re.search(rf"^`{re.escape(artifact)}`[^\n]*:\n\n((?:- .*\n)+)", text, re.M).group(1)
    return re.findall(r"^- `(\w+)`", block, re.M)


def test_readme_lists_every_report_key(chain):
    spec = ConvSpec()
    report = metrics_report(spec, 64, 64, build_schedule(spec, 64, 64), 3.26e-6, 79e-6)
    _, summary = monte_carlo(chain, MismatchSpec(trials=2))
    grid = np.zeros((2, 3), dtype=np.uint8)
    assert readme_keys("verify_report.json") == list(compare_runs(grid, grid))
    assert readme_keys("metrics.json") == list(report)
    assert readme_keys("montecarlo_summary.json") == list(summary)


def test_headline_script_output_unchanged():
    done = subprocess.run(
        [sys.executable, os.path.join(ROOT, "scripts", "reproduce_headline_metrics.py")],
        env=dict(os.environ, PYTHONPATH=os.path.join(ROOT, "src")),
        capture_output=True,
        timeout=60,
    )
    assert done.returncode == 0, done.stderr
    assert done.stdout == HEADLINE_STDOUT.encode()


class TestBandwidthReduction:
    def test_default_config_reproduces_headline_figure(self):
        spec = ConvSpec()
        br_printed, br_bits = bandwidth_reduction(spec, 1024, 1280)
        # Long-form oracle: (1280*1024*4 elements * 12 bits) over
        # (319*255 pooled nodes * 16 channels * 4 bits).
        expected_bits = (1280 * 1024 * 4 * 12) / (319 * 255 * 16 * 4)
        assert br_bits == pytest.approx(expected_bits, rel=1e-12)
        assert abs(br_bits - 12.08) <= 0.01
        # The closed form evaluates to something entirely different; both
        # are reported so the discrepancy stays visible.
        expected_printed = (1280 * 1024 * 4) / (637 * 509 * 16) * 0.75 * (12 / 4) * 0.25
        assert br_printed == pytest.approx(expected_printed, rel=1e-12)

    def test_passthrough_config(self):
        spec = ConvSpec(k=1, s=1, p=0, c_o=4, n_b=12, p_s=1)
        _, br_bits = bandwidth_reduction(spec, 16, 16)
        assert br_bits == pytest.approx(1.0)

    def test_scale_consistency(self):
        spec = ConvSpec()
        _, base = bandwidth_reduction(spec, 1024, 1280)
        _, doubled = bandwidth_reduction(spec, 2048, 2560)
        assert abs(doubled - base) / base < 0.01

    def test_too_small_rejected(self):
        with pytest.raises(ValidationError):
            bandwidth_reduction(ConvSpec(), 4, 4)


class TestOpCount:
    def test_single_window(self):
        spec = ConvSpec(k=7, s=1, c_o=1)
        assert op_count(spec, 7, 7) == 2 * 49 * 4

    def test_default_frame(self):
        assert op_count(ConvSpec(), 1024, 1280) == 637 * 509 * 16 * 392

    def test_minimal(self):
        # k=1 keeps 2 ops per tap; the RGGB plane count stays at 4.
        spec = ConvSpec(k=1, s=1, c_o=1)
        assert op_count(spec, 1, 2) == 2 * 1 * 4 * 2

    def test_nested_loop_oracle(self):
        for rows, cols in ((16, 16), (32, 24), (64, 64)):
            spec = ConvSpec(k=5, s=2, c_o=3)
            counted = 0
            out_r = (rows - spec.k) // spec.s + 1
            out_c = (cols - spec.k) // spec.s + 1
            for _ in range(out_r):
                for _ in range(out_c):
                    for _ in range(spec.c_o):
                        counted += 2 * spec.k * spec.k * N_CHANNELS
            assert op_count(spec, rows, cols) == counted


class TestEnergyEstimate:
    def test_direct_product_example(self):
        # One cycle of 100 active pixels (5x5 window x 4 planes) at 1 uW and
        # 1 ms: energy = 100 * 1e-6 * 1e-3 * 2 = 2e-7 J.
        spec = ConvSpec(k=5, s=1, c_o=1, p_s=1)
        sched = build_schedule(spec, 5, 5)
        assert sched.n_cycles() == 1
        assert sched.total_active_pixels() == 100
        est = energy_estimate(spec, 5, 5, 1e-6, sched, 1e-3)
        assert est["energy_j"] == pytest.approx(2e-7, rel=1e-12)
        assert est["frame_time_s"] == pytest.approx(2e-3, rel=1e-12)

    def test_cycle_time_scaling(self):
        spec = ConvSpec()
        sched = build_schedule(spec, 64, 64)
        a = energy_estimate(spec, 64, 64, 3.26e-6, sched, 1e-4)
        b = energy_estimate(spec, 64, 64, 3.26e-6, sched, 2e-4)
        assert b["ops_per_s"] == pytest.approx(a["ops_per_s"] / 2, rel=1e-12)

    def test_default_cycle_time(self):
        assert default_cycle_time(1e-6, 0) == pytest.approx(79e-6)
        assert default_cycle_time(1e-6, 3) == pytest.approx((120 + 64) * 1e-6)

    def test_report_carries_reference_metadata(self):
        spec = ConvSpec()
        sched = build_schedule(spec, 64, 64)
        report = metrics_report(spec, 64, 64, sched, 3.26e-6, 79e-6)
        assert report["reference"]["paper_br"] == 12.08
        assert report["reference"]["paper_gops"] == 1.98e9
        assert report["reference"]["paper_gops_w"] == 3.39e9
        # Byte-for-byte deterministic serialization.
        a = json.dumps(report, sort_keys=True)
        b = json.dumps(metrics_report(spec, 64, 64, sched, 3.26e-6, 79e-6), sort_keys=True)
        assert a == b


class TestMonteCarlo:
    def test_zero_sigma_equals_nominal(self, chain):
        mm = MismatchSpec(trials=16, seed=3)
        samples, summary = monte_carlo(chain, mm)
        assert np.all(samples == summary["nominal_v"])
        assert summary["std_v"] == 0.0

    def test_seed_determinism(self, chain):
        mm = MismatchSpec(sigma_cap=0.01, sigma_vrst=1e-4, sigma_gain=0.01, trials=64, seed=9)
        a, _ = monte_carlo(chain, mm)
        b, _ = monte_carlo(chain, mm)
        assert np.array_equal(a, b)

    def test_thread_count_invisible(self, chain, monkeypatch):
        mm = MismatchSpec(sigma_gain=0.01, trials=32, seed=5)
        monkeypatch.setenv("CTIA_IPC_THREADS", "1")
        a, _ = monte_carlo(chain, mm)
        monkeypatch.setenv("CTIA_IPC_THREADS", "4")
        b, _ = monte_carlo(chain, mm)
        assert np.array_equal(a, b)

    def test_mean_near_nominal(self, chain):
        mm = MismatchSpec(sigma_gain=0.01, trials=1000, seed=17)
        _, summary = monte_carlo(chain, mm)
        bound = 3 * summary["std_v"] / np.sqrt(mm.trials)
        assert abs(summary["mean_v"] - summary["nominal_v"]) <= bound

    def test_local_sigma_scales_std(self, chain):
        # Small-perturbation regime: std is linear in sigma.
        _, lo = monte_carlo(chain, MismatchSpec(sigma_gain=0.005, trials=10_000, seed=23))
        _, hi = monte_carlo(chain, MismatchSpec(sigma_gain=0.010, trials=10_000, seed=23))
        assert hi["std_v"] / lo["std_v"] == pytest.approx(2.0, rel=0.10)

    def test_invalid_spec(self):
        with pytest.raises(ValidationError):
            MismatchSpec(trials=0)
        with pytest.raises(ValidationError):
            MismatchSpec(sigma_cap=-0.1)

    @pytest.mark.parametrize("name", ["sigma_cap", "sigma_vrst", "sigma_gain"])
    @pytest.mark.parametrize("value", [float("nan"), float("inf")])
    def test_non_finite_sigma_rejected(self, name, value):
        with pytest.raises(ValidationError, match=name):
            MismatchSpec(**{name: value})

    def test_trial_count_bounded(self):
        # The trial index must fit the one uint32 word of its seed entropy.
        assert MismatchSpec(trials=MAX_TRIALS).trials == 2**32
        with pytest.raises(ValidationError, match="trials must be <= 2\\*\\*32"):
            MismatchSpec(trials=MAX_TRIALS + 1)

    def test_negative_seed_rejected(self):
        with pytest.raises(ValidationError, match="seed must be >= 0"):
            MismatchSpec(seed=-1)


class GivenWords(ISeedSequence):
    """Seeds a bit generator with the words it is handed."""

    def __init__(self, words):
        self.words = words

    def generate_state(self, n_words, dtype=np.uint32):
        return self.words


class TestTrialSeedWords:
    @settings(max_examples=60, deadline=None)
    @given(
        seed=st.integers(0, 2**96),
        t0=st.integers(0, MAX_TRIALS - 1),
        n=st.integers(1, 5),
    )
    @example(seed=0, t0=0, n=3)
    @example(seed=2**32 - 1, t0=MAX_TRIALS - 1, n=1)
    @example(seed=2**32, t0=MAX_TRIALS - 4, n=4)
    @example(seed=2**96, t0=0, n=2)
    def test_equals_seed_sequence(self, seed, t0, n):
        t1 = min(t0 + n, MAX_TRIALS)
        words = trial_seed_words(seed, t0, t1)
        assert words.dtype == np.uint64 and words.shape == (t1 - t0, 4)
        for row, trial in zip(words, range(t0, t1)):
            assert np.array_equal(row, SeedSequence([seed, trial]).generate_state(4, np.uint64))
            draws = Generator(PCG64(GivenWords(row))).standard_normal(591)
            assert np.array_equal(draws, default_rng([seed, trial]).standard_normal(591))

    @pytest.mark.parametrize("seed, t0, t1", [(-1, 0, 1), (0, 0, MAX_TRIALS + 1), (0, 2, 1)])
    def test_out_of_range_rejected(self, seed, t0, t1):
        with pytest.raises(ValidationError):
            trial_seed_words(seed, t0, t1)


class TestLinearitySweep:
    def test_zero_row(self, chain):
        rows = linearity_sweep(chain, modes=("vs_product",), x_points=3)
        zero = [(v_adc_in, code) for _, _, w, x, _, v_adc_in, code in rows if w == x == 0.0]
        assert zero and all(v_adc_in == 0.0 and code == 0 for v_adc_in, code in zero)

    def test_nominal_fit_quality(self, chain):
        rows = linearity_sweep(chain, modes=("vs_product",), x_points=9)
        fit = fit_transfer([(w, x, v_adc_in) for _, _, w, x, _, v_adc_in, _ in rows])
        assert fit.r_squared >= 0.999

    def test_multiwindow_preserves_linearity(self, chain):
        rows = linearity_sweep(chain, modes=("multiwindow",), x_points=5)
        for k in (3, 5, 7):
            sub = [(w, x, v_adc_in) for _, rk, w, x, _, v_adc_in, _ in rows if rk == k]
            assert sub
            assert fit_transfer(sub).r_squared >= 0.999

    def test_column_voltage_consistent(self, chain):
        rows = linearity_sweep(chain, modes=("multiwindow",), x_points=3)
        for _, k, _, _, v_cbl, v_adc_in, _ in rows:
            # k identical columns: v_adc_in = k * v_cbl / divider.
            assert v_adc_in == pytest.approx(k * v_cbl / chain.array.divider, rel=1e-9, abs=1e-18)
