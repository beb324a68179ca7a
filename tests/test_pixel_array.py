import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ctia_ipc.errors import DimensionError, ScheduleError, ValidationError
from ctia_ipc.pixel import RAW_MAX, PixelParams, integrate
from ctia_ipc.pixel_array import (
    BAYER_OFFSETS,
    ArrayConfig,
    charge_share_divider,
    mac_node_voltages,
    photocurrent_channels,
    readout_frame,
    run_mac_cycle,
    tap_grid,
    tap_plan,
)
from ctia_ipc.wtc import CounterConfig, match_time

from conftest import reference_channels, reference_phase_stacks


def eq1_oracle(c1, c2, cf, volts):
    """Independent evaluation of the charge-sharing divider equation."""
    return math.fsum(volts) / (4 + 2 * c2 / c1 + cf / c1)


def single_row_window(currents, mags):
    """(4, k, k) region and magnitudes whose only active taps are channel 0
    of row 0, so that column j's CBL holds one contribution."""
    k = len(currents)
    region = np.zeros((4, k, k))
    magnitudes = np.zeros((4, k, k), dtype=np.int64)
    region[0, 0] = currents
    magnitudes[0, 0] = mags
    return region, magnitudes


def column_volts(pixel, wtc, currents, mags):
    return [integrate(pixel, i, match_time(wtc, int(m))) for i, m in zip(currents, mags)]


class TestAccumulateColumn:
    """One column's CBL, through run_mac_cycle on windows whose active taps
    all lie in one kernel column."""

    def setup_method(self):
        self.cfg = ArrayConfig(rows=2, cols=2)
        self.pixel = PixelParams()
        self.wtc = CounterConfig()

    def test_empty(self):
        # A column without active taps adds nothing, whatever its currents.
        rng = np.random.default_rng(2)
        region = rng.uniform(0, self.pixel.i_max, (4, 3, 3))
        mags = rng.integers(1, 16, (4, 3, 3))
        mags[:, :, 1] = 0
        other = region.copy()
        other[:, :, 1] = rng.uniform(0, self.pixel.i_max, (4, 3))
        v = run_mac_cycle(self.cfg, self.pixel, self.wtc, region, mags)
        assert v == run_mac_cycle(self.cfg, self.pixel, self.wtc, other, mags)

    def test_additive(self):
        region = np.zeros((4, 3, 3))
        mags = np.zeros((4, 3, 3), dtype=np.int64)
        region[0, :, 0] = self.pixel.i_max * np.array([0.2, 0.4, 0.6])
        mags[0, :, 0] = 15
        dv = self.pixel.i_max * 15 * self.wtc.t_step / self.pixel.c_f
        v = run_mac_cycle(self.cfg, self.pixel, self.wtc, region, mags)
        assert v == pytest.approx(1.2 * dv / self.cfg.divider)

    def test_against_sum_oracle(self):
        rng = np.random.default_rng(3)
        region = rng.uniform(0, self.pixel.i_max, (4, 7, 7))
        mags = np.zeros((4, 7, 7), dtype=np.int64)
        mags[:, :, 3] = rng.integers(0, 16, (4, 7))
        contributions = [
            integrate(self.pixel, region[ch, i, 3], match_time(self.wtc, int(mags[ch, i, 3])))
            for i in range(7)
            for ch in range(4)
        ]
        v = run_mac_cycle(self.cfg, self.pixel, self.wtc, region, mags)
        assert v == pytest.approx(math.fsum(contributions) / self.cfg.divider, rel=1e-12)

    def test_negative_rejected(self):
        region = np.zeros((4, 3, 3))
        region[0, 1, 2] = -1e-12
        mags = np.ones((4, 3, 3), dtype=np.int64)
        with pytest.raises(ValidationError):
            run_mac_cycle(self.cfg, self.pixel, self.wtc, region, mags)

    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
    def test_non_finite_rejected(self, bad):
        region = np.zeros((4, 3, 3))
        region[2, 0, 1] = bad
        mags = np.ones((4, 3, 3), dtype=np.int64)
        with pytest.raises(ValidationError, match="finite"):
            run_mac_cycle(self.cfg, self.pixel, self.wtc, region, mags)


class TestCombineColumns:
    """The switching matrix's column combining, through run_mac_cycle on
    single-row windows."""

    def setup_method(self):
        self.pixel = PixelParams()
        self.wtc = CounterConfig()

    def test_single_input_d7(self):
        cfg = ArrayConfig(rows=2, cols=2)  # equal caps -> divider 7
        assert cfg.divider == 7.0
        region, mags = single_row_window([self.pixel.i_max], [15])
        (dv,) = column_volts(self.pixel, self.wtc, [self.pixel.i_max], [15])
        assert run_mac_cycle(cfg, self.pixel, self.wtc, region, mags) == pytest.approx(dv / 7)

    def test_symmetry_seven_inputs(self):
        cfg = ArrayConfig(rows=2, cols=2)
        region, mags = single_row_window([self.pixel.i_max] * 7, [15] * 7)
        (dv,) = column_volts(self.pixel, self.wtc, [self.pixel.i_max], [15])
        assert run_mac_cycle(cfg, self.pixel, self.wtc, region, mags) == pytest.approx(dv)

    def test_random_against_oracle(self):
        rng = np.random.default_rng(11)
        for _ in range(20):
            c1, c2, cf = rng.uniform(1e-15, 50e-15, 3)
            cfg = ArrayConfig(rows=2, cols=2, c1=c1, c2=c2, c_f_acc=cf)
            currents = rng.uniform(0, self.pixel.i_max, 7)
            mags = rng.integers(0, 16, 7)
            region, magnitudes = single_row_window(currents, mags)
            assert run_mac_cycle(cfg, self.pixel, self.wtc, region, magnitudes) == pytest.approx(
                eq1_oracle(c1, c2, cf, column_volts(self.pixel, self.wtc, currents, mags)),
                rel=1e-12,
            )

    def test_empty_rejected(self):
        with pytest.raises(ScheduleError):
            run_mac_cycle(
                ArrayConfig(rows=2, cols=2), self.pixel, self.wtc, np.zeros((4, 0, 0)),
                np.zeros((4, 0, 0), dtype=np.int64),
            )

    @given(
        a=st.floats(0, 1),
        currents=st.lists(st.floats(0, 50e-12), min_size=1, max_size=7),
    )
    @settings(max_examples=200)
    def test_homogeneity(self, a, currents):
        # Below the headroom clamp, scaling every photocurrent scales V_adc_in.
        cfg = ArrayConfig(rows=2, cols=2)
        mags = [15] * len(currents)
        scaled_window = single_row_window([a * i for i in currents], mags)
        scaled = run_mac_cycle(cfg, self.pixel, self.wtc, *scaled_window)
        nominal = run_mac_cycle(cfg, self.pixel, self.wtc, *single_row_window(currents, mags))
        assert scaled == pytest.approx(a * nominal, rel=1e-12, abs=1e-300)

    def test_divider_invariant(self):
        assert ArrayConfig(rows=1, cols=1, c1=1e-15, c2=1e-18, c_f_acc=1e-18).divider > 4
        assert charge_share_divider(10e-15, 10e-15, 10e-15) == 7.0


class TestBayerView:
    def test_channel_assignment(self):
        frame = np.array([[1, 2], [3, 4]], dtype=np.uint16)
        [[phase]] = photocurrent_channels(frame)
        channels = [phase[ch, :].tolist() for ch in range(4)]
        # R, G1, G2, B from even/even, even/odd, odd/even, odd/odd.
        assert channels == [[[v, v], [v, v]] for v in (1, 2, 3, 4)]
        assert np.array_equal(reference_channels(frame), channels)

    def test_odd_dims_rejected(self):
        # Odd dimensions at strides 1-4, a frame that is not 2-D and
        # stride 0.
        cases = [
            *((np.zeros(shape, dtype=np.uint16), stride, ValidationError)
              for shape in ((3, 4), (4, 5)) for stride in (1, 2, 3, 4)),
            (np.zeros((2, 4, 4), dtype=np.uint16), 1, DimensionError),
            (np.zeros((4, 4), dtype=np.uint16), 0, ValidationError),
        ]
        for frame, stride, error in cases:
            with pytest.raises(error):
                photocurrent_channels(frame, 0, stride)

    @pytest.mark.parametrize("stride", [1, 2, 3, 4])
    def test_phase_stacks_are_strided_channel_view(self, stride):
        # Each phase, expanded whole, is the strided reference channel
        # stack; at an even stride phases a and a ^ 1 are one object.
        frame = np.random.default_rng(stride).integers(0, 65536, (14, 18))
        channels = reference_channels(frame)
        phases = photocurrent_channels(frame, 0, stride)
        assert len(phases) == stride
        for a in range(stride):
            assert len(phases[a]) == stride
            for b in range(stride):
                phase = phases[a][b]
                whole = np.stack([phase[ch, :] for ch in range(4)])
                assert phase.shape == whole.shape
                assert np.array_equal(whole, channels[:, a::stride, b::stride])
                if stride % 2 == 0:
                    assert phase is phases[a ^ 1][b]
                    assert phase is phases[a][b ^ 1]

    @pytest.mark.parametrize("stride", [1, 2, 3, 4])
    @pytest.mark.parametrize("dtype", [np.uint16, np.int64, np.float64])
    @pytest.mark.parametrize("shape", [(2, 2), (6, 10), (14, 18), (16, 8)])
    def test_phase_stacks_match_gather(self, stride, dtype, shape):
        # The reference stacks, in each dtype the tests hand the kernels
        # (uint16 and int64 raw samples, float64 photocurrents), and the
        # phases of photocurrent_channels against a gather of rows and
        # columns by index.
        frame = np.random.default_rng(sum(shape)).integers(0, 65536, shape).astype(dtype)
        rows, cols = shape
        stacks = reference_phase_stacks(frame, stride)
        phases = photocurrent_channels(frame.astype(np.uint16), 0, stride)
        for a in range(stride):
            for b in range(stride):
                row_base = np.arange(a, rows, stride) & ~1
                col_base = np.arange(b, cols, stride) & ~1
                expected = np.stack([
                    frame[np.ix_(row_base + dr, col_base + dc)] for dr, dc in BAYER_OFFSETS
                ])
                assert stacks[a][b].dtype == dtype
                assert np.array_equal(stacks[a][b], expected)
                whole = np.stack([phases[a][b][ch, :] for ch in range(4)])
                assert whole.dtype == np.uint16
                assert np.array_equal(whole, expected)

    @given(
        stride=st.integers(1, 4),
        padding=st.integers(0, 3),
        quads=st.tuples(st.integers(1, 5), st.integers(1, 5)),
        data=st.data(),
    )
    @settings(max_examples=100, deadline=None)
    def test_mosaic_phase_bands_match_stacks(self, stride, padding, quads, data):
        # Every row band [q0, q1) of every phase, its rows cut at the
        # phase's edge as numpy cuts a stack's, a drawn column window of
        # each band, and a drawn slice with a step and negative bounds on
        # rows and columns: the same values, dtype and shape as the slice
        # of the reference stack.
        seed = data.draw(st.integers(0, 2**32 - 1), label="seed")
        shape = (2 * quads[0], 2 * quads[1])
        raw = np.random.default_rng(seed).integers(0, RAW_MAX + 1, shape, dtype=np.uint16)
        phases = photocurrent_channels(raw, padding, stride)
        stacks = reference_phase_stacks(np.pad(raw, padding), stride)

        def strided(n):
            bound = st.none() | st.integers(-n - 1, n + 1)
            step = st.integers(-3, 3).filter(bool)
            return st.builds(slice, bound, bound, step)

        for a in range(stride):
            for b in range(stride):
                phase, stack = phases[a][b], stacks[a][b]
                assert phase.shape == stack.shape
                if stride % 2 == 0:
                    assert phase is phases[a ^ 1][b] and phase is phases[a][b ^ 1]
                n_rows, n_cols = stack.shape[1:]
                u0 = data.draw(st.integers(0, n_cols), label="u0")
                u1 = data.draw(st.integers(u0, n_cols + 1), label="u1")
                rows = data.draw(strided(n_rows), label="rows")
                cols = data.draw(strided(n_cols), label="cols")
                for q0 in range(n_rows + 1):
                    for q1 in range(q0, n_rows + 2):
                        for ch in range(len(BAYER_OFFSETS)):
                            band = phase[ch, q0:q1]
                            window = phase[ch, q0:q1, u0:u1]
                            assert band.dtype == window.dtype == np.uint16
                            assert np.array_equal(band, stack[ch, q0:q1])
                            assert np.array_equal(window, stack[ch, q0:q1, u0:u1])
                for ch in range(len(BAYER_OFFSETS)):
                    got = phase[ch, rows, cols]
                    assert got.dtype == np.uint16
                    assert got.shape == stack[ch, rows, cols].shape
                    assert np.array_equal(got, stack[ch, rows, cols])

    @pytest.mark.parametrize("stride", [1, 2, 3])
    def test_photocurrent_channels_allocates_no_frame(self, stride):
        # The phases read the mosaic itself: building them allocates less
        # than the frame's own bytes, where whole-frame phase stacks would
        # take one frame (stride 2) to four (strides 1 and 3).
        frame = np.random.default_rng(stride).integers(
            0, RAW_MAX + 1, (512, 640), dtype=np.uint16
        )
        tracemalloc.start()
        try:
            phases = photocurrent_channels(frame, 0, stride)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert phases[0][0].shape == (4, -(-512 // stride), -(-640 // stride))
        assert peak < frame.nbytes

    def test_window_bounds(self):
        phases = reference_phase_stacks(np.zeros((8, 8)), 1)
        assert tap_grid(phases, 7, 1) == (2, 2)
        with pytest.raises(ScheduleError):
            tap_grid(phases, 9, 1)


class TestRunMacCycle:
    def setup_method(self):
        self.cfg = ArrayConfig(rows=16, cols=16)
        self.pixel = PixelParams()
        self.wtc = CounterConfig()

    def test_all_zero_weights(self):
        region = np.full((4, 7, 7), self.pixel.i_max)
        mags = np.zeros((4, 7, 7), dtype=np.int64)
        assert run_mac_cycle(self.cfg, self.pixel, self.wtc, region, mags) == 0.0

    def test_single_pixel_hand_path(self):
        # One max-weight, full-scale pixel: dV = i_max*15*t_step/c_f, then /7.
        region = np.zeros((4, 7, 7))
        mags = np.zeros((4, 7, 7), dtype=np.int64)
        region[0, 3, 2] = self.pixel.i_max
        mags[0, 3, 2] = 15
        dv = self.pixel.i_max * 15 * self.wtc.t_step / self.pixel.c_f
        assert dv < self.pixel.headroom
        v = run_mac_cycle(self.cfg, self.pixel, self.wtc, region, mags)
        assert v == pytest.approx(dv / 7.0, rel=1e-12)

    def test_dense_window_against_product_oracle(self):
        rng = np.random.default_rng(5)
        region = rng.uniform(0, self.pixel.i_max, (4, 7, 7))
        mags = rng.integers(0, 16, (4, 7, 7))
        v = run_mac_cycle(self.cfg, self.pixel, self.wtc, region, mags)
        # Brute-force sum of per-tap products through exposure scaling.
        expected = math.fsum(
            region[ch, i, j] * (int(mags[ch, i, j]) << self.wtc.window) * self.wtc.t_step
            / self.pixel.c_f
            for ch in range(4)
            for i in range(7)
            for j in range(7)
        ) / self.cfg.divider
        assert v == pytest.approx(expected, rel=1e-9)

    def test_shape_mismatch(self):
        region = np.zeros((4, 7, 7))
        mags = np.zeros((4, 5, 5), dtype=np.int64)
        with pytest.raises(ScheduleError):
            run_mac_cycle(self.cfg, self.pixel, self.wtc, region, mags)

    def test_partition_additivity(self):
        # Splitting the nonzero weights across two cycles sums to the dense run.
        rng = np.random.default_rng(9)
        region = rng.uniform(0, self.pixel.i_max, (4, 7, 7))
        mags = rng.integers(0, 16, (4, 7, 7))
        mask = rng.integers(0, 2, (4, 7, 7)).astype(bool)
        part_a = np.where(mask, mags, 0)
        part_b = np.where(~mask, mags, 0)
        dense = run_mac_cycle(self.cfg, self.pixel, self.wtc, region, mags)
        split = run_mac_cycle(self.cfg, self.pixel, self.wtc, region, part_a) + run_mac_cycle(
            self.cfg, self.pixel, self.wtc, region, part_b
        )
        assert split == pytest.approx(dense, rel=1e-9)

    def test_signed_pair(self):
        rng = np.random.default_rng(29)
        region = rng.uniform(0, self.pixel.i_max, (4, 3, 3))
        mags = rng.integers(0, 16, (4, 3, 3))
        mask = rng.integers(0, 2, (4, 3, 3)).astype(bool)
        pos = np.where(mask, mags, 0)
        neg = np.where(~mask, mags, 0)
        stack = np.stack([pos, neg])[:, None]
        v_pos, v_neg = run_mac_cycle(self.cfg, self.pixel, self.wtc, region, stack)[:, 0]
        assert v_pos >= 0 and v_neg >= 0
        assert v_pos == run_mac_cycle(self.cfg, self.pixel, self.wtc, region, pos)
        assert v_neg == run_mac_cycle(self.cfg, self.pixel, self.wtc, region, neg)

    def test_window_order_invisible(self):
        # Windows of one cycle are independent; evaluation order cannot matter.
        rng = np.random.default_rng(13)
        regions = [rng.uniform(0, self.pixel.i_max, (4, 3, 3)) for _ in range(5)]
        mags = [rng.integers(0, 16, (4, 3, 3)) for _ in range(5)]
        serial = [
            run_mac_cycle(self.cfg, self.pixel, self.wtc, r, m)
            for r, m in zip(regions, mags)
        ]
        shuffled_idx = [4, 2, 0, 3, 1]
        shuffled = [None] * 5
        for idx in shuffled_idx:
            shuffled[idx] = run_mac_cycle(self.cfg, self.pixel, self.wtc, regions[idx], mags[idx])
        assert serial == shuffled  # bitwise


class TestTapPlan:
    @pytest.mark.parametrize("stride, n_slices", [(1, 196), (2, 64), (3, 196), (4, 64)])
    def test_slices_shared_between_phases(self, stride, n_slices):
        # An even stride shares one stack between phases a and a ^ 1, so
        # taps i and i ^ 1 (and j and j ^ 1) of a 7x7 kernel read one slice,
        # and every distinct stack gives 4 bands: 1 stack at strides 1 and 2,
        # 9 at stride 3, 4 at stride 4.
        n_bands = {1: 4, 2: 4, 3: 36, 4: 16}[stride]
        phases = reference_phase_stacks(np.zeros((32, 32), dtype=np.uint16), stride)
        planes = np.arange(2 * 4 * 7 * 7).reshape(2, 4, 7, 7) % 3
        bands, slices, taps = tap_plan(phases, planes, 7, stride)
        assert len(slices) == n_slices and slices.dtype == np.int64
        assert len(taps) == np.count_nonzero(planes)
        # The bands are distinct (stack, channel) pairs.
        assert len(bands) == n_bands
        assert len({(id(stack), ch) for stack, ch in bands}) == n_bands
        # Summation order: column, row, channel, then plane.
        order = taps[:, [0, 1, 2, 4]].tolist()
        assert order == sorted(order)
        for j, i, ch, value, p, n in taps:
            b, di, dj = slices[n]
            stack, channel = bands[b]
            assert value == planes[p, ch, i, j] != 0
            assert stack is phases[i % stride][j % stride] and channel == ch
            assert (di, dj) == (i // stride, j // stride)


class TestVectorizedPath:
    def test_matches_window_path(self):
        rng = np.random.default_rng(17)
        pixel = PixelParams()
        wtc = CounterConfig()
        cfg = ArrayConfig(rows=16, cols=16)
        frame = rng.uniform(0, pixel.i_max, (16, 16))
        channels = reference_channels(frame)
        mags = rng.integers(0, 16, (4, 5, 5))
        k, s = 5, 2
        grid = mac_node_voltages(cfg, pixel, wtc, reference_phase_stacks(frame, s), mags, k, s)
        for r_out in range(grid.shape[0]):
            for c_out in range(grid.shape[1]):
                region = channels[:, r_out * s : r_out * s + k, c_out * s : c_out * s + k]
                assert grid[r_out, c_out] == run_mac_cycle(cfg, pixel, wtc, region, mags)

    def test_geometry_rejected(self):
        pixel, wtc, cfg = PixelParams(), CounterConfig(), ArrayConfig(rows=4, cols=8)
        mags = np.ones((4, 5, 5), dtype=np.int64)
        frame = np.zeros((4, 8))
        with pytest.raises(ScheduleError):  # kernel taller than the frame
            mac_node_voltages(cfg, pixel, wtc, reference_phase_stacks(frame, 1), mags, 5, 1)
        with pytest.raises(ScheduleError):  # phases built for another stride
            mac_node_voltages(
                cfg, pixel, wtc, reference_phase_stacks(frame, 2), mags[:, :1, :1], 1, 1
            )


class TestReadout:
    def setup_method(self):
        self.pixel = PixelParams()

    def test_dark_frame(self):
        out = readout_frame(self.pixel, np.zeros((8, 8)), 1e-5)
        assert np.all(out == 0.0)

    def test_uniform_half_scale(self):
        exposure = 1e-5
        frame = np.full((8, 8), 0.5 * self.pixel.i_max)
        expected = 0.5 * self.pixel.i_max * exposure / self.pixel.c_f
        assert expected < self.pixel.headroom
        out = readout_frame(self.pixel, frame, exposure)
        assert np.allclose(out, expected, rtol=1e-12)

    def test_independent_of_weights(self):
        # Readout never consults the weight store; nothing to pass in at all.
        frame = np.full((8, 8), 0.25 * self.pixel.i_max)
        a = readout_frame(self.pixel, frame, 2e-5)
        b = readout_frame(self.pixel, frame, 2e-5)
        assert np.array_equal(a, b)
