import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ctia_ipc.errors import ScheduleError, ValidationError
from ctia_ipc.mapper import (
    BnParams,
    ConvSpec,
    build_schedule,
    fuse_bn,
    output_dims,
    quantize_weights,
)

from conftest import call_within


def conv_reference(x, weights):
    """Nested-loop dense convolution, stride 1, no padding; x is
    (c_in, rows, cols), weights (c_o, c_in, k, k)."""
    c_o, c_in, k, _ = weights.shape
    rows, cols = x.shape[1:]
    out = np.zeros((c_o, rows - k + 1, cols - k + 1))
    for co in range(c_o):
        for r in range(out.shape[1]):
            for c in range(out.shape[2]):
                out[co, r, c] = np.sum(x[:, r : r + k, c : c + k] * weights[co])
    return out


def reference_cycles(spec, rows, cols):
    """Enumerated schedule: (row_out, col_outs) per cycle.  Each output row
    splits into phases of output columns one lcm(k, s) apart, and each
    phase into chunks of at most max_parallel windows."""
    (out_r, out_c), _ = output_dims(spec, rows, cols)
    pitch = math.lcm(spec.k, spec.s)
    max_parallel = max(1, (cols - spec.k + 2 * spec.p) // (spec.s * pitch))
    cycles = []
    for row_out in range(out_r):
        for phase in range(min(pitch, out_c)):
            col_outs = list(range(phase, out_c, pitch))
            for start in range(0, len(col_outs), max_parallel):
                cycles.append((row_out, tuple(col_outs[start : start + max_parallel])))
    return cycles


def window_pixel_columns(spec, col_out):
    """Pixel columns a window at output column col_out occupies, in
    zero-padded frame coordinates."""
    c0 = col_out * spec.s
    return set(range(c0, c0 + spec.k))


class TestFuseBn:
    def test_identity(self):
        w = np.ones((2, 4, 3, 3))
        bn = BnParams(
            gamma=np.ones(2), beta=np.zeros(2), mu=np.zeros(2), sigma_sq=np.ones(2),
            epsilon=1e-12,
        )
        scaled, offsets = fuse_bn(w, bn)
        assert np.allclose(scaled, w, rtol=1e-9)
        assert np.allclose(offsets, 0.0)

    def test_direct_evaluation(self):
        # gamma=2, sigma_sq=3, eps=1, mu=1, beta=0.5 -> A=1, B=-0.5
        w = np.full((1, 4, 1, 1), 3.0)
        bn = BnParams(gamma=[2.0], beta=[0.5], mu=[1.0], sigma_sq=[3.0], epsilon=1.0)
        scaled, offsets = fuse_bn(w, bn)
        assert np.allclose(scaled, 3.0)
        assert offsets[0] == pytest.approx(-0.5)

    def test_negative_variance_rejected(self):
        with pytest.raises(ValidationError):
            BnParams(gamma=[1.0], beta=[0.0], mu=[0.0], sigma_sq=[-1.0])

    def test_fused_equals_unfused_pipeline(self):
        rng = np.random.default_rng(21)
        for _ in range(10):
            weights = rng.normal(size=(3, 4, 3, 3))
            bn = BnParams(
                gamma=rng.uniform(0.2, 3.0, 3),
                beta=rng.normal(size=3),
                mu=rng.normal(size=3),
                sigma_sq=rng.uniform(0.1, 4.0, 3),
                epsilon=1e-5,
            )
            x = rng.uniform(0, 1, (4, 8, 8))
            scaled, offsets = fuse_bn(weights, bn)
            fused_out = conv_reference(x, scaled) + offsets[:, None, None]
            inv_std = 1.0 / np.sqrt(bn.sigma_sq + bn.epsilon)
            raw = conv_reference(x, weights)
            bn_out = (raw - bn.mu[:, None, None]) * (bn.gamma * inv_std)[:, None, None] \
                + bn.beta[:, None, None]
            assert np.allclose(fused_out, bn_out, rtol=1e-9, atol=1e-12)
            # ReLU threshold shifts to -B: zeroed iff conv(x, A*theta) < -B.
            relu_mask = np.maximum(fused_out, 0) > 0
            assert np.array_equal(relu_mask, conv_reference(x, scaled) > -offsets[:, None, None])


class TestQuantizeWeights:
    def test_symmetric_extremes(self):
        w = np.array([-1.0, 0.0, 1.0]).reshape(1, 1, 1, 3)
        fused = quantize_weights(w, np.zeros(1), mag_max=15)
        assert fused.weight_scale == pytest.approx(1 / 15)
        assert fused.pos_mags.ravel().tolist() == [0, 0, 15]
        assert fused.neg_mags.ravel().tolist() == [15, 0, 0]

    def test_all_zero_is_valid(self):
        fused = quantize_weights(np.zeros((1, 4, 3, 3)), np.zeros(1))
        assert fused.weight_scale == 0.0
        assert not fused.pos_mags.any() and not fused.neg_mags.any()

    def test_planes_disjoint_and_bounded(self):
        rng = np.random.default_rng(23)
        fused = quantize_weights(rng.normal(size=(4, 4, 7, 7)), np.zeros(4))
        assert not np.any((fused.pos_mags > 0) & (fused.neg_mags > 0))
        assert fused.pos_mags.max() <= 15 and fused.neg_mags.max() <= 15

    @given(seed=st.integers(0, 2**32 - 1), scale=st.floats(0.01, 100.0))
    @settings(max_examples=100, deadline=None)
    def test_roundtrip_bound(self, seed, scale):
        rng = np.random.default_rng(seed)
        w = rng.normal(size=(1, 4, 3, 3)) * scale
        fused = quantize_weights(w, np.zeros(1))
        err = np.abs(fused.dequantized() - w)
        assert np.all(err <= fused.weight_scale / 2 + 1e-12 * scale)

    def test_mag_bits_3(self):
        w = np.array([1.0, -0.5]).reshape(1, 1, 1, 2)
        fused = quantize_weights(w, np.zeros(1), mag_max=7)
        assert fused.pos_mags.max() == 7


class TestOutputDims:
    def test_default_frame(self):
        spec = ConvSpec()
        (out_r, out_c), (pool_r, pool_c) = output_dims(spec, 1024, 1280)
        assert (out_c, out_r) == (637, 509)
        assert (pool_c, pool_r) == (319, 255)

    def test_identity(self):
        spec = ConvSpec(k=1, s=1, p=0, p_s=1)
        (out_r, out_c), (pool_r, pool_c) = output_dims(spec, 10, 12)
        assert (out_r, out_c) == (10, 12) and (pool_r, pool_c) == (10, 12)

    def test_nonpositive_rejected(self):
        with pytest.raises(ValidationError):
            output_dims(ConvSpec(k=7, s=2), 4, 4)


class TestSchedule:
    def test_activation_count_formula(self):
        spec = ConvSpec(k=7, s=2, p=0)
        sched = build_schedule(spec, 1024, 1280)
        assert (1280 - 7) // (2 * math.lcm(7, 2)) == 45
        assert sched.cycle0_active_pixels == 45 * 49 * 4 == 8820
        assert sched.n_cycles() == len(reference_cycles(spec, 1024, 1280)) == 10689

    def test_windows_column_disjoint(self):
        for spec in (ConvSpec(k=7, s=2, c_o=1), ConvSpec(k=3, s=2, p=2, c_o=1)):
            for _, col_outs in reference_cycles(spec, 32, 64):
                seen = set()
                for col_out in col_outs:
                    cols = window_pixel_columns(spec, col_out)
                    assert not (seen & cols)
                    seen |= cols

    def test_coverage_exact(self):
        # Union over cycles equals the nested-loop output enumeration.
        spec = ConvSpec(k=7, s=2, c_o=1)
        sched = build_schedule(spec, 32, 64)
        covered = [
            (row_out, c) for row_out, col_outs in reference_cycles(spec, 32, 64) for c in col_outs
        ]
        expected = [
            (r, c) for r in range(sched.out_rows) for c in range(sched.out_cols)
        ]
        assert sorted(covered) == expected
        assert len(covered) == len(set(covered))

    def test_degenerate_kernel(self):
        spec = ConvSpec(k=1, s=1, c_o=1, p_s=1)
        sched = build_schedule(spec, 4, 8)
        # Every window is one column; everything is disjoint, and a row band
        # needs two cycles (the closed-form parallel cap is i-1).
        assert sched.max_parallel == 7
        assert sched.n_cycles() == 4 * 2
        assert sched.cycle0_active_pixels == 7 * 4

    def test_schedule_is_frozen(self):
        sched = build_schedule(ConvSpec(k=3, s=1, c_o=1), 8, 8)
        with pytest.raises(AttributeError):
            sched.out_rows = 1

    def test_too_small_image(self):
        with pytest.raises(ScheduleError):
            build_schedule(ConvSpec(k=7, s=2), 6, 6)

    def test_padding_counts_toward_kernel_fit(self):
        # 6x8 is smaller than k=7, but p=3 pads it to 12x14: a 6x8 grid.
        spec = ConvSpec(k=7, s=1, p=3, c_o=1)
        sched = build_schedule(spec, 6, 8)
        cycles = reference_cycles(spec, 6, 8)
        assert (sched.out_rows, sched.out_cols) == (6, 8)
        assert sched.n_cycles() == len(cycles)
        assert sched.cycle0_active_pixels == len(cycles[0][1]) * 7 * 7 * 4
        with pytest.raises(ScheduleError):
            build_schedule(ConvSpec(k=7, s=1, p=0, c_o=1), 6, 8)

    def test_closed_form_matches_reference_grid(self):
        # One output row per p, every pitch phase from empty to several
        # max_parallel chunks deep.
        for k in range(1, 9):
            for s in range(1, 5):
                for p in range(4):
                    spec = ConvSpec(k=k, s=s, p=p, c_o=1)
                    rows = max(k - 2 * p, 1)
                    for cols in range(max(k - 2 * p, 1), 90, 3):
                        sched = build_schedule(spec, rows, cols)
                        assert sched.n_cycles() == len(reference_cycles(spec, rows, cols))

    def test_large_coprime_kernel_and_stride(self):
        # pitch = lcm(k, s) is about 10^10 phases, of which two hold a
        # column: one cycle each.
        spec = ConvSpec(k=99991, s=99989, c_o=1)
        sched = call_within(10, build_schedule, spec, 200000, 200000)
        assert (sched.out_rows, sched.out_cols, sched.max_parallel) == (2, 2, 1)
        assert sched.cycles_per_row == 2 and sched.n_cycles() == 4

    @given(
        cols=st.integers(16, 96),
        rows=st.integers(16, 48),
        k=st.integers(1, 7),
        s=st.integers(1, 3),
        p=st.integers(0, 3),
    )
    @settings(max_examples=60, deadline=None)
    def test_coverage_property(self, cols, rows, k, s, p):
        spec = ConvSpec(k=k, s=s, p=p, c_o=1)
        sched = build_schedule(spec, rows, cols)
        cycles = reference_cycles(spec, rows, cols)
        assert sum(len(col_outs) for _, col_outs in cycles) == sched.out_rows * sched.out_cols
        assert sched.n_cycles() == len(cycles)
        assert sched.cycle0_active_pixels == len(cycles[0][1]) * k * k * 4
