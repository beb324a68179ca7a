import dataclasses
import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from ctia_ipc import parallel
from ctia_ipc.adc import AdcConfig, maxpool, relu_requantize
from ctia_ipc.errors import DimensionError, ValidationError
from ctia_ipc.golden import RAW_MAX, compare_runs, golden_layer
from ctia_ipc.mapper import BnParams, ConvSpec, fuse_and_quantize
from ctia_ipc.pipeline import CalibrationMap, ChainConfig, offset_codes, simulate_layer
from ctia_ipc.pixel import PixelParams
from ctia_ipc.pixel_array import N_CHANNELS, ArrayConfig, tap_grid
from ctia_ipc.wtc import CounterConfig

from conftest import random_frame, random_layer, reference_phase_stacks, small_chain
from test_pipeline import loop_simulate_layer


def reference_layer(frame, fused, spec, adc_cfg, chain):
    """Independently coded nested-loop floating-point reference.

    Recomputes the whole layer from first principles: per-tap product
    voltages, per-polarity floor quantization with saturation, signed CDS,
    ReLU, truncation, explicit-loop pooling.  Shares no helpers with the
    package beyond the config dataclasses.
    """
    pix, wtc = chain.pixel, chain.wtc
    v_unit = pix.i_max * fused.mag_max * (1 << wtc.window) * wtc.t_step / pix.c_f \
        / chain.array.divider
    lsb = adc_cfg.v_fs / 64
    rows, cols = frame.shape
    out_r = (rows - spec.k) // spec.s + 1
    out_c = (cols - spec.k) // spec.s + 1
    bn_codes = []
    for b in fused.offsets:
        if fused.weight_scale == 0:
            bn_codes.append(0)
        else:
            bn_codes.append(round(b * v_unit / (fused.mag_max * fused.weight_scale) / lsb))

    def channel_of(r, c):
        return (r % 2) * 2 + (c % 2)

    def quad_value(r, c, ch):
        dr, dc = divmod(ch, 2)
        return frame[(r // 2) * 2 + dr, (c // 2) * 2 + dc]

    result = []
    for co in range(spec.c_o):
        grid = []
        for ro in range(out_r):
            row = []
            for cok in range(out_c):
                acc_pos = 0.0
                acc_neg = 0.0
                for ch in range(4):
                    for i in range(spec.k):
                        for j in range(spec.k):
                            r, c = ro * spec.s + i, cok * spec.s + j
                            x = quad_value(r, c, ch) / 65535
                            acc_pos += int(fused.pos_mags[co, ch, i, j]) * x
                            acc_neg += int(fused.neg_mags[co, ch, i, j]) * x
                code_pos = min(math.floor(acc_pos / fused.mag_max * v_unit / lsb), 63)
                code_neg = min(math.floor(acc_neg / fused.mag_max * v_unit / lsb), 63)
                signed = code_pos - code_neg + bn_codes[co]
                clipped = max(signed, 0)
                row.append(min(clipped >> (6 - adc_cfg.out_bits), (1 << adc_cfg.out_bits) - 1))
            grid.append(row)
        # explicit pooling
        pr = -(-out_r // spec.p_s)
        pc = -(-out_c // spec.p_s)
        pooled = [[0] * pc for _ in range(pr)]
        for r in range(out_r):
            for c in range(out_c):
                pr_i, pc_i = r // spec.p_s, c // spec.p_s
                pooled[pr_i][pc_i] = max(pooled[pr_i][pc_i], grid[r][c])
        result.append(pooled)
    return np.asarray(result)


def loop_polarity_codes(phases, mags, spec, code_scale, code_max, tap_saturation):
    """One polarity of one channel, tap by tap in int64 over the whole
    grid: each product magnitude*raw capped at int(tap_saturation) where
    magnitude * RAW_MAX exceeds it, then one scale to codes."""
    k, s = spec.k, spec.s
    out_r, out_c = tap_grid(phases, k, s)
    acc = np.zeros((out_r, out_c), dtype=np.int64)
    for j in range(k):
        for i in range(k):
            for ch in range(N_CHANNELS):
                m = int(mags[ch, i, j])
                if m == 0:
                    continue
                plane = phases[i % s][j % s][ch]
                product = plane[i // s : i // s + out_r, j // s : j // s + out_c] * m
                if m * RAW_MAX > tap_saturation:
                    product = np.minimum(product, int(tap_saturation))
                acc += product
    scaled = np.floor(acc * code_scale + 1e-9).astype(np.int64)
    return np.minimum(scaled, code_max)


def loop_golden_layer(frame_raw, fused, spec, adc_cfg, cal):
    """The golden model one output channel and one polarity at a time, on
    int64 phase stacks."""
    raw = np.pad(np.asarray(frame_raw), spec.p)
    phases = reference_phase_stacks(raw.astype(np.int64), spec.s)
    code_scale = cal.lsb_per_unit / (fused.mag_max * RAW_MAX)
    bn_codes = offset_codes(fused, cal, adc_cfg)
    limits = (code_scale, adc_cfg.code_max, cal.tap_saturation)
    result = []
    for ch_out in range(spec.c_o):
        pos = loop_polarity_codes(phases, fused.pos_mags[ch_out], spec, *limits)
        neg = loop_polarity_codes(phases, fused.neg_mags[ch_out], spec, *limits)
        signed = pos - neg + int(bn_codes[ch_out])
        result.append(maxpool(relu_requantize(adc_cfg, signed), spec.p_s))
    return np.asarray(result)


class TestCalibration:
    def test_derived_only(self):
        with pytest.raises(ValidationError):
            CalibrationMap(volts_per_unit_product=-1.0, lsb_per_unit=1.0, tap_saturation=1.0)
        # Every quantity must be finite, and the error names the one that
        # is not.
        names = ("volts_per_unit_product", "lsb_per_unit", "tap_saturation")
        for name in names:
            for bad in (math.inf, -math.inf, math.nan, 0.0):
                values = dict.fromkeys(names, 1.0) | {name: bad}
                with pytest.raises(ValidationError, match=f"calibration {name} must be finite"):
                    CalibrationMap(**values)
        # 1e300 A of full-scale photocurrent overflows the volts of one unit
        # product to inf, which would reach every accumulator.
        pixel = PixelParams(i_max=1e300)
        with pytest.raises(ValidationError, match="volts_per_unit_product must be finite"):
            CalibrationMap.derive(pixel, CounterConfig(), ArrayConfig(), AdcConfig(), 15)

    def test_derivation_values(self, chain):
        cal = chain.calibration(15)
        expected_v = 50e-12 * 15 * 1e-6 / 10e-15 / 7
        assert cal.volts_per_unit_product == pytest.approx(expected_v, rel=1e-12)
        assert cal.lsb_per_unit == pytest.approx(expected_v / 0.01, rel=1e-12)


class TestGoldenLayer:
    def test_zero_frame(self, chain):
        spec = ConvSpec(c_o=2)
        rng = np.random.default_rng(0)
        _, _, fused = random_layer(rng, spec)
        frame = np.zeros((16, 16), dtype=np.uint16)
        out = golden_layer(frame, fused, spec, chain.adc, chain.calibration(fused.mag_max))
        # Only a positive BN preload can make a zero frame fire.
        bn = offset_codes(fused, chain.calibration(fused.mag_max), chain.adc)
        for co in range(2):
            if bn[co] <= 0:
                assert not out[co].any()

    def test_full_scale_single_tap(self):
        # k=1, one +15 weight on channel 0, identity BN, ADC scaled so the
        # unit product spans full range: the activation hits its maximum.
        spec = ConvSpec(k=1, s=1, c_o=1, p_s=1)
        weights = np.zeros((1, 4, 1, 1))
        weights[0, 0, 0, 0] = 1.0
        fused = fuse_and_quantize(weights, BnParams.identity(1), spec.mag_max)
        base = small_chain(rows=4, cols=4)
        chain = ChainConfig(
            pixel=base.pixel, wtc=base.wtc, array=base.array, adc=AdcConfig(v_fs=0.01)
        )
        frame = np.full((4, 4), 65535, dtype=np.uint16)
        cal = chain.calibration(fused.mag_max)
        assert cal.lsb_per_unit >= 63  # full product saturates the converter
        out = golden_layer(frame, fused, spec, chain.adc, cal)
        assert np.all(out == 15)

    def test_against_independent_reference(self, chain):
        rng = np.random.default_rng(31)
        spec = ConvSpec(k=7, s=2, c_o=3)
        _, _, fused = random_layer(rng, spec, beta_bias=1.0)
        frame = random_frame(rng, 32, 32)
        chain32 = small_chain(32, 32)
        gold = golden_layer(frame, fused, spec, chain32.adc, chain32.calibration(fused.mag_max))
        ref = reference_layer(frame, fused, spec, chain32.adc, chain32)
        assert np.max(np.abs(gold - ref)) <= 1

    @given(
        half_rows=st.integers(1, 12),
        half_cols=st.integers(1, 12),
        k=st.integers(1, 7),
        s=st.integers(1, 4),
        p=st.integers(0, 3),
        c_o=st.integers(1, 4),
        p_s=st.integers(1, 3),
        out_bits=st.integers(1, 6),
        v_fs=st.floats(0.005, 1.0),
        saturation=st.floats(1.0, 16.0 * RAW_MAX),
        seed=st.integers(0, 2**32 - 1),
    )
    @settings(max_examples=80, deadline=None)
    def test_matches_tap_loop(
        self, half_rows, half_cols, k, s, p, c_o, p_s, out_bits, v_fs, saturation, seed
    ):
        # Any geometry, any code ceiling and any clamp level: the GEMM over
        # shared tap slices equals the per-channel, per-tap integer loop.
        rows, cols = 2 * half_rows, 2 * half_cols
        assume(rows + 2 * p >= k and cols + 2 * p >= k)
        rng = np.random.default_rng(seed)
        spec = ConvSpec(k=k, s=s, p=p, c_o=c_o, p_s=p_s)
        _, _, fused = random_layer(rng, spec, beta_bias=rng.uniform(-0.5, 1.5))
        frame = random_frame(rng, rows, cols)
        adc_cfg = AdcConfig(v_fs=v_fs, out_bits=out_bits)
        chain = ChainConfig(
            pixel=PixelParams(), wtc=CounterConfig(), array=ArrayConfig(rows=rows, cols=cols),
            adc=adc_cfg,
        )
        cal = dataclasses.replace(chain.calibration(fused.mag_max), tap_saturation=saturation)
        expected = loop_golden_layer(frame, fused, spec, adc_cfg, cal)
        with pytest.MonkeyPatch.context() as patch:
            # Row blocks of a few nodes on three threads.
            patch.setattr(parallel, "ROW_BLOCK_NODES", 8)
            patch.setenv("CTIA_IPC_THREADS", "3")
            got = golden_layer(frame, fused, spec, adc_cfg, cal)
        assert got.shape == expected.shape
        assert np.array_equal(got, expected)

    def test_shape_mismatch(self, chain):
        spec = ConvSpec(c_o=2)
        rng = np.random.default_rng(1)
        _, _, fused = random_layer(rng, ConvSpec(c_o=3))
        with pytest.raises(DimensionError):
            golden_layer(
                np.zeros((16, 16), dtype=np.uint16),
                fused,
                spec,
                chain.adc,
                chain.calibration(fused.mag_max),
            )

    def test_quantization_commutation(self):
        # Halving the frame and doubling i_max leaves output unchanged: the
        # accumulator depends only on the normalized product.  A nonzero BN
        # offset is a fixed network-unit constant, so its code image is the
        # one quantity that legitimately rescales; pin B = 0 here.
        rng = np.random.default_rng(41)
        spec = ConvSpec(k=3, s=1, c_o=2)
        weights = rng.normal(size=(spec.c_o, N_CHANNELS, spec.k, spec.k))
        bn = BnParams(
            gamma=rng.uniform(0.5, 2.0, spec.c_o),
            beta=np.zeros(spec.c_o),
            mu=np.zeros(spec.c_o),
            sigma_sq=rng.uniform(0.5, 2.0, spec.c_o),
        )
        fused = fuse_and_quantize(weights, bn, spec.mag_max)
        frame = (rng.integers(0, 32768, size=(16, 16)) * 2).astype(np.uint16)
        base = small_chain(16, 16)
        doubled = ChainConfig(
            pixel=PixelParams(i_max=2 * base.pixel.i_max),
            wtc=base.wtc,
            array=base.array,
            adc=base.adc,
        )
        out_a = golden_layer(frame, fused, spec, base.adc, base.calibration(fused.mag_max))
        out_b = golden_layer(
            (frame // 2).astype(np.uint16), fused, spec, doubled.adc,
            doubled.calibration(fused.mag_max),
        )
        assert np.array_equal(out_a, out_b)


class TestSimulatorEquivalence:
    def test_relu_threshold_agreement(self):
        # Away from the zero boundary, the oracle fires exactly when the
        # simulator's pre-clip signed code is positive (out_bits=6 keeps the
        # requantizer from masking small codes).  The signed codes come from
        # the per-channel loop, whose activations equal simulate_layer's.
        rng = np.random.default_rng(51)
        spec = ConvSpec(k=3, s=2, c_o=4, p_s=1)
        chain = ChainConfig(
            pixel=PixelParams(),
            wtc=CounterConfig(),
            array=ArrayConfig(rows=32, cols=32),
            adc=AdcConfig(out_bits=6),
        )
        _, _, fused = random_layer(rng, spec)
        frame = random_frame(rng, 32, 32)
        activations, signed = loop_simulate_layer(frame, fused, spec, chain)
        assert np.array_equal(simulate_layer(frame, fused, spec, chain), activations)
        gold = golden_layer(frame, fused, spec, chain.adc, chain.calibration(fused.mag_max))
        away = np.abs(signed) >= 2
        assert np.array_equal((gold > 0)[away], (signed > 0)[away])

    def test_equivalence_with_padding(self):
        # Padding is zero-photocurrent border pixels in both paths.
        rng = np.random.default_rng(61)
        spec = ConvSpec(k=3, s=2, p=1, c_o=3)
        _, _, fused = random_layer(rng, spec, beta_bias=0.5)
        frame = random_frame(rng, 32, 32)
        chain = small_chain(32, 32)
        sim = simulate_layer(frame, fused, spec, chain)
        gold = golden_layer(frame, fused, spec, chain.adc, chain.calibration(fused.mag_max))
        assert compare_runs(sim, gold)["fraction_within_1"] == 1.0

    def test_property_equivalence_sample(self):
        # A slice of the acceptance sweep: random frames/layers, noise off.
        for seed in range(10):
            rng = np.random.default_rng(seed)
            spec = ConvSpec(c_o=4)
            _, _, fused = random_layer(rng, spec, beta_bias=rng.uniform(0, 1))
            frame = random_frame(rng)
            chain = small_chain()
            sim = simulate_layer(frame, fused, spec, chain)
            gold = golden_layer(frame, fused, spec, chain.adc, chain.calibration(fused.mag_max))
            report = compare_runs(sim, gold)
            assert report["fraction_within_1"] == 1.0


class TestCompareRuns:
    def test_identical(self):
        grid = np.arange(12).reshape(3, 4)
        report = compare_runs(grid, grid)
        assert report["max_abs_delta"] == 0 and report["fraction_exact"] == 1.0
        assert report["passed"]

    def test_single_off_by_one(self):
        a = np.zeros((3, 4), dtype=int)
        b = a.copy()
        b[1, 2] = 1
        report = compare_runs(a, b)
        assert report["fraction_within_1"] == 1.0
        assert report["fraction_exact"] < 1.0
        assert report["passed"]

    def test_dimension_mismatch(self):
        with pytest.raises(DimensionError):
            compare_runs(np.zeros((2, 2)), np.zeros((3, 2)))

    def test_threshold(self):
        a = np.zeros((2, 2), dtype=int)
        b = np.full((2, 2), 3, dtype=int)
        assert not compare_runs(a, b)["passed"]
        assert compare_runs(a, b, max_within=3)["passed"]

    def test_uint8_grids_take_a_narrow_difference(self):
        # An int64 difference of two k3s1 activation grids would take
        # 8 bytes per node.
        rng = np.random.default_rng(3)
        sim = rng.integers(0, 16, (16, 511, 639), dtype=np.uint8)
        gold = rng.integers(0, 16, sim.shape, dtype=np.uint8)
        tracemalloc.start()
        try:
            report = compare_runs(sim, gold)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 3 * sim.size
        delta = np.abs(sim.astype(np.int64) - gold)
        assert report["max_abs_delta"] == 15
        assert report["fraction_exact"] == np.count_nonzero(delta == 0) / delta.size
        assert report["fraction_within_1"] == np.count_nonzero(delta <= 1) / delta.size

    @pytest.mark.parametrize("dtype", [np.int64, np.int32, np.uint64])
    def test_wide_differences_do_not_overflow(self, dtype):
        # Differences beyond 2**15, and for 64-bit grids beyond int64.
        a = [0, 40000, 70005, 4, 2**31 - 1]
        b = [0, 0, 0, 5, 0]
        if np.dtype(dtype).itemsize == 8:
            a[-1] = np.iinfo(dtype).max
            b[-1] = 0 if dtype == np.uint64 else np.iinfo(dtype).min
        report = compare_runs(np.array(a, dtype=dtype), np.array(b, dtype=dtype), max_within=70005)
        assert report == {
            "max_abs_delta": max(abs(x - y) for x, y in zip(a, b)),
            "fraction_exact": 0.2,
            "fraction_within_1": 0.4,
            "n_nodes": 5,
            "max_within": 70005,
            "passed": False,
        }
