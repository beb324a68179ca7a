import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from ctia_ipc.adc import ADC_BITS, AdcConfig, cds_signed, maxpool, quantize, relu_requantize
from ctia_ipc.errors import StateError, ValidationError


class TestQuantize:
    def test_zero(self, adc_cfg):
        assert quantize(adc_cfg, 0.0) == 0

    def test_full_scale_clips(self, adc_cfg):
        assert quantize(adc_cfg, adc_cfg.v_fs) == 63
        assert quantize(adc_cfg, 10 * adc_cfg.v_fs) == 63

    def test_hand_example(self):
        # v_fs = 0.64 V -> lsb = 10 mV; 0.35 V -> code 35.
        cfg = AdcConfig(v_fs=0.64)
        assert cfg.lsb == pytest.approx(0.01)
        assert quantize(cfg, 0.35) == 35

    def test_negative_rejected(self, adc_cfg):
        with pytest.raises(StateError):
            quantize(adc_cfg, -0.01)

    @given(v=st.floats(0, 1.0), dv=st.floats(0, 0.5))
    @settings(max_examples=300)
    def test_monotone(self, v, dv):
        cfg = AdcConfig()
        assert quantize(cfg, v) <= quantize(cfg, v + dv)

    @given(v=st.floats(0, 0.6))
    @settings(max_examples=300)
    def test_one_lsb_step(self, v):
        cfg = AdcConfig()
        lo = quantize(cfg, v)
        hi = quantize(cfg, v + cfg.lsb)
        assert hi - lo in (0, 1) or hi == cfg.code_max

    def test_vectorized(self, adc_cfg):
        codes = quantize(adc_cfg, np.array([0.0, 0.005, 0.35, 1.0]))
        assert codes.tolist() == [0, 0, 35, 63]

    @pytest.mark.parametrize(
        "bad, message",
        [
            (np.nan, "must be finite"),
            (-np.inf, "must be finite"),
            (np.inf, "must be finite"),
            (-0.01, "negative voltage"),
        ],
    )
    def test_invalid_voltage_anywhere_in_an_array(self, adc_cfg, bad, message):
        v = np.full((3, 4), 0.1)
        v[2, 1] = bad
        with pytest.raises(StateError, match=message):
            quantize(adc_cfg, v)

    def test_far_above_full_scale_saturates(self, adc_cfg):
        # Beyond 2^63 codes an int64 cast has no meaning; the ceiling comes
        # first.
        codes = quantize(adc_cfg, np.array([1e300, 0.2]))
        assert codes.tolist() == [63, 20]
        assert quantize(adc_cfg, 1e300) == 63

    def test_empty_and_scalar_types(self, adc_cfg):
        empty = quantize(adc_cfg, np.zeros((0, 3)))
        assert empty.shape == (0, 3) and empty.dtype == np.int64
        assert type(quantize(adc_cfg, 0.35)) is int


class TestCdsSigned:
    def test_balanced_cancellation(self, adc_cfg):
        assert cds_signed(adc_cfg, 0.123, 0.123, 0) == 0

    def test_two_quantize_oracle(self):
        cfg = AdcConfig(v_fs=0.64)
        assert cds_signed(cfg, 0.35, 0.10, 0) == 35 - 10

    def test_bn_preload(self):
        cfg = AdcConfig(v_fs=0.64)
        assert cds_signed(cfg, 0.03, 0.0, -5) == 3 - 5
        assert relu_requantize(cfg, cds_signed(cfg, 0.03, 0.0, np.int64(-5))) == 0
        # The counter starts from a whole number of codes.
        for preload in (-5.0, 0.5, None):
            with pytest.raises(ValidationError, match="CDS preload must be an integer"):
                cds_signed(cfg, 0.03, 0.0, preload)

    @pytest.mark.parametrize(
        "bn, dtype", [(0, np.int16), (-100, np.int16), (1 << 15, np.int32), (-(1 << 40), np.int64)]
    )
    def test_grid_counts_narrow_and_exact(self, bn, dtype):
        # int16 counts, widened only as far as the preload needs.
        cfg = AdcConfig()
        v = np.random.default_rng(3).uniform(0, 0.7, (2, 5, 7))
        code = cds_signed(cfg, v[0], v[1], bn)
        assert code.dtype == dtype
        assert np.array_equal(code, quantize(cfg, v[0]) - quantize(cfg, v[1]) + bn)

    @given(
        a=st.floats(0, 0.64),
        b=st.floats(0, 0.64),
        bn=st.integers(-64, 64),
    )
    @settings(max_examples=200)
    def test_antisymmetry(self, a, b, bn):
        cfg = AdcConfig()
        assert cds_signed(cfg, a, b, bn) + cds_signed(cfg, b, a, bn) == 2 * bn

    @given(a=st.floats(0, 0.62), b=st.floats(0, 0.62), bn=st.integers(-16, 16))
    @settings(max_examples=300)
    def test_within_one_lsb_of_ideal(self, a, b, bn):
        # Below saturation the signed code tracks the real difference.
        cfg = AdcConfig()
        code = cds_signed(cfg, a, b, bn)
        ideal = (a - b) / cfg.lsb
        assert abs(code - ideal - bn) <= 1.0 + 1e-9

    @pytest.mark.parametrize("v_fs", [0.64, 0.05, 1.28e6])
    def test_float32_volts_count_as_their_float64_widening(self, v_fs):
        # Every boundary n * lsb rounded to float32, and the float32 values
        # one ulp below and above it, on both inputs of the counter.
        cfg = AdcConfig(v_fs=v_fs)
        edges = (np.arange(70) * cfg.lsb).astype(np.float32)
        v = np.concatenate([
            np.nextafter(edges, np.float32(0)), edges, np.nextafter(edges, np.float32(np.inf))
        ])
        for v_pos, v_neg in ((v, v[::-1]), (v, np.zeros_like(v)), (np.zeros_like(v), v)):
            code = cds_signed(cfg, v_pos, v_neg, 3)
            wide = cds_signed(cfg, v_pos.astype(np.float64), v_neg.astype(np.float64), 3)
            assert code.dtype == wide.dtype
            assert np.array_equal(code, wide)

    def test_float32_pair_is_not_widened(self):
        # One float64 quotient buffer per conversion and the int16 counts:
        # a float64 copy of either input would add 8 B per node.
        cfg = AdcConfig()
        v = np.random.default_rng(4).uniform(0, 0.7, (2, 1, 24, 1280)).astype(np.float32)
        cds_signed(cfg, v[0, :, :1], v[1, :, :1], 0)
        tracemalloc.start()
        try:
            cds_signed(cfg, v[0], v[1], 0)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 13 * v[0].size


class TestReluRequantize:
    def test_relu(self, adc_cfg):
        assert relu_requantize(adc_cfg, -7) == 0

    def test_full_scale(self, adc_cfg):
        assert relu_requantize(adc_cfg, 63) == 15

    def test_shift_example(self, adc_cfg):
        assert relu_requantize(adc_cfg, 25) == 6

    def test_idempotent_after_reexpansion(self, adc_cfg):
        shift = ADC_BITS - adc_cfg.out_bits
        for code in range(-10, 70):
            value = relu_requantize(adc_cfg, code)
            assert relu_requantize(adc_cfg, value << shift) == value

    def test_grid(self, adc_cfg):
        codes = np.array([[-3, 25], [63, 4]])
        out = relu_requantize(adc_cfg, codes)
        assert out.tolist() == [[0, 6], [15, 1]]
        # The result is a fresh array; the signed codes are left as they were.
        assert codes.tolist() == [[-3, 25], [63, 4]]
        assert type(relu_requantize(adc_cfg, np.int64(-7))) is int


class TestMaxpool:
    def test_identity_stride(self):
        grid = np.arange(6).reshape(2, 3)
        assert np.array_equal(maxpool(grid, 1), grid)

    def test_window_max(self):
        assert maxpool(np.array([[1, 2], [3, 4]]), 2).tolist() == [[4]]

    def test_ceiling_dims(self):
        out = maxpool(np.zeros((637, 509), dtype=int), 2)
        assert out.shape == (319, 255)

    def test_ragged_edges_use_partial_window(self):
        grid = np.array([[1, 2, 9], [4, 5, 6]])
        out = maxpool(grid, 2)
        assert out.tolist() == [[5, 9]]

    def test_empty_rejected(self):
        with pytest.raises(ValidationError):
            maxpool(np.zeros((0, 3)), 2)
        with pytest.raises(ValidationError):
            maxpool(np.zeros((2, 2)), 0)

    @given(
        grid=hnp.arrays(np.int64, hnp.array_shapes(min_dims=2, max_dims=2, min_side=1, max_side=12),
                        elements=st.integers(0, 63)),
        stride=st.integers(1, 4),
    )
    @settings(max_examples=200)
    def test_never_exceeds_input_max(self, grid, stride):
        assert maxpool(grid, stride).max() <= grid.max()

    @given(
        grid=hnp.arrays(np.int64, (5, 7), elements=st.integers(0, 63)),
        stride=st.integers(1, 3),
        shift=st.integers(0, 3),
    )
    @settings(max_examples=200)
    def test_commutes_with_monotone_map(self, grid, stride, shift):
        mapped_first = maxpool(grid >> shift, stride)
        pooled_first = maxpool(grid, stride) >> shift
        assert np.array_equal(mapped_first, pooled_first)
