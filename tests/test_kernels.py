"""The MAC kernel, its one-node wrapper and Monte Carlo against plain loops
that sum in the same order: per column in (row, channel) order, then the
columns in order.  Results must be bit-identical, not merely close."""

import math
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ctia_ipc import parallel
from ctia_ipc.adc import AdcConfig, quantize
from ctia_ipc.golden import RAW_MAX, polarity_codes
from ctia_ipc.mapper import ConvSpec
from ctia_ipc.metrics import MismatchSpec, monte_carlo
from ctia_ipc.pipeline import CalibrationMap, photocurrent_channels, sweep_window_chain
from ctia_ipc.pixel import PixelParams, frame_to_photocurrents, integrate
from ctia_ipc.pixel_array import (
    N_CHANNELS,
    ArrayConfig,
    mac_node_voltages,
    run_mac_cycle,
)
from ctia_ipc.wtc import CounterConfig, match_ticks, match_time

from conftest import random_frame, reference_channels, reference_phase_stacks, small_chain

KERNELS = [1, 2, 3, 5, 7]
STRIDES = [1, 2, 3, 4]
PADDINGS = [0, 1, 3]


def reference_mac_node_voltages(cfg, params, wtc_cfg, channels, magnitudes, k, stride,
                                dtype=np.float64):
    """Strided tap loop over a (4, rows, cols) float64 channel stack, one
    CBL per kernel column, in a working dtype: each product t * x is formed
    in float64 and rounded once to dtype; the divide by c_f, the headroom
    min, the CBL and accumulator adds and the divide by the divider run in
    dtype."""
    mags = np.asarray(magnitudes)
    rows, cols = channels.shape[1:]
    out_r = (rows - k) // stride + 1
    out_c = (cols - k) // stride + 1
    ticks = np.asarray(match_ticks(wtc_cfg, mags), dtype=np.int64)
    c_f, headroom, divider = (dtype(v) for v in (params.c_f, params.headroom, cfg.divider))
    acc = np.zeros((out_r, out_c), dtype)
    for j in range(k):
        cbl = np.zeros((out_r, out_c), dtype)
        for i in range(k):
            for ch in range(N_CHANNELS):
                t = float(ticks[ch, i, j]) * wtc_cfg.t_step
                if t == 0.0:
                    continue
                patch = channels[
                    ch,
                    i : i + stride * (out_r - 1) + 1 : stride,
                    j : j + stride * (out_c - 1) + 1 : stride,
                ]
                cbl += np.minimum((patch * t).astype(dtype) / c_f, headroom)
        acc += cbl
    return acc / divider


def working_dtype_runs(raw, p, s, i_max):
    """(phases, dtype) of both working dtypes on one raw frame: its
    raw-sample phases, which the MAC runs in float32, and the phase stacks
    of its float64 photocurrents, which it runs in float64."""
    currents = np.pad(frame_to_photocurrents(raw, i_max), p)
    return (
        (photocurrent_channels(raw, p, s), np.float32),
        (reference_phase_stacks(currents, s), np.float64),
    )


def reference_run_mac_cycle(cfg, params, wtc_cfg, region, magnitudes):
    """Scalar per-tap loop: integrate each pixel, sum each column's CBL in
    (row, channel) order, add the columns in order and divide once."""
    k = region.shape[1]
    exposures = np.asarray(match_ticks(wtc_cfg, magnitudes), dtype=float) * wtc_cfg.t_step
    total = 0.0
    for j in range(k):
        cbl = 0.0
        for i in range(k):
            for ch in range(N_CHANNELS):
                cbl += integrate(params, region[ch, i, j], exposures[ch, i, j])
        total += cbl
    return total / (4.0 + 2.0 * cfg.c2 / cfg.c1 + cfg.c_f_acc / cfg.c1)


def reference_mc_trial(chain, k, magnitude, x_norm, mm, trial):
    """One perturbed single-window run, trial by trial: caps, then per-pixel
    gain, feedback cap and reset offset, from the (seed, trial) stream."""
    rng = np.random.default_rng([mm.seed, trial])
    g_c1, g_c2, g_cf = 1.0 + mm.sigma_cap * rng.standard_normal(3)
    n_pix = (N_CHANNELS, k, k)
    gain = 1.0 + mm.sigma_gain * rng.standard_normal(n_pix)
    cap = 1.0 + mm.sigma_cap * rng.standard_normal(n_pix)
    vrst_off = mm.sigma_vrst * rng.standard_normal(n_pix)
    pixel = chain.pixel
    exposure = (magnitude << chain.wtc.window) * chain.wtc.t_step
    current = pixel.i_max * x_norm * gain
    dv = np.minimum(current * exposure / (pixel.c_f * cap), pixel.headroom) + vrst_off
    dv = np.maximum(dv, 0.0)
    divider = 4.0 + 2.0 * (chain.array.c2 * g_c2) / (chain.array.c1 * g_c1) \
        + (chain.array.c_f_acc * g_cf) / (chain.array.c1 * g_c1)
    total = 0.0
    for j in range(k):
        cbl = 0.0
        for i in range(k):
            for ch in range(N_CHANNELS):
                cbl += float(dv[ch, i, j])
        total += cbl
    return total / divider


def reference_polarity_codes(channels_raw, mags, spec, code_scale, code_max, tap_saturation):
    """Strided integer tap loop over a (4, rows, cols) int64 channel stack;
    every tap product is capped at floor(tap_saturation)."""
    k, s = spec.k, spec.s
    rows, cols = channels_raw.shape[1:]
    out_r = (rows - k) // s + 1
    out_c = (cols - k) // s + 1
    acc = np.zeros((out_r, out_c), dtype=np.int64)
    for j in range(k):
        for i in range(k):
            for ch in range(N_CHANNELS):
                m = int(mags[ch, i, j])
                if m == 0:
                    continue
                patch = channels_raw[
                    ch,
                    i : i + s * (out_r - 1) + 1 : s,
                    j : j + s * (out_c - 1) + 1 : s,
                ]
                acc += np.minimum(m * patch, math.floor(tap_saturation))
    codes = np.floor(acc * code_scale + 1e-9).astype(np.int64)
    return np.minimum(codes, code_max)


@pytest.fixture(autouse=True)
def many_threaded_blocks(monkeypatch):
    # Blocks of one row (of p_s rows for polarity_codes, which cuts them
    # at multiples of the pooling stride) on three threads: the small test
    # frames then cross many block boundaries.
    monkeypatch.setattr(parallel, "ROW_BLOCK_NODES", 1)
    monkeypatch.setenv("CTIA_IPC_THREADS", "3")


# Default pixel, and one whose headroom clamp engages: 6 V of discharge
# at full scale against 0.8 V of headroom.
PIXEL_CONFIGS = {
    "default": (PixelParams(), CounterConfig()),
    "clamped": (PixelParams(c_f=1e-15), CounterConfig(window=3)),
}


@pytest.mark.parametrize("pixel_config", sorted(PIXEL_CONFIGS))
@pytest.mark.parametrize("p", PADDINGS)
@pytest.mark.parametrize("s", STRIDES)
@pytest.mark.parametrize("k", KERNELS)
def test_mac_node_voltages_bit_exact(k, s, p, pixel_config):
    pixel, wtc = PIXEL_CONFIGS[pixel_config]
    rng = np.random.default_rng(100 * k + 10 * s + p)
    raw = random_frame(rng, 20, 26)
    mags = rng.integers(0, 16, (N_CHANNELS, k, k))
    cfg = ArrayConfig(rows=20, cols=26)
    channels = reference_channels(np.pad(frame_to_photocurrents(raw, pixel.i_max), p))
    if pixel_config == "clamped":
        assert channels.max() * 15 * (1 << wtc.window) * wtc.t_step / pixel.c_f > pixel.headroom
    # Each working dtype equals its reference bit for bit.
    for phases, dtype in working_dtype_runs(raw, p, s, pixel.i_max):
        expected = reference_mac_node_voltages(cfg, pixel, wtc, channels, mags, k, s, dtype)
        got = mac_node_voltages(cfg, pixel, wtc, phases, mags, k, s)
        assert got.shape == expected.shape and got.dtype == dtype
        assert np.array_equal(got, expected)


def test_clamp_skip_checked_in_the_working_dtype():
    # At this c_f the brightest float32 discharge, fl(fl(x * t) / c_f),
    # rounds one ulp above the float32 headroom, though the float64
    # discharge equals headroom: a check in float64 would skip the clamp
    # that the float32 reference applies.
    wtc = CounterConfig()
    x_t = float(frame_to_photocurrents(RAW_MAX, PixelParams().i_max)) * match_time(wtc, 15)
    c_f = 1.0000018e-14
    pixel = PixelParams(c_f=c_f, headroom=x_t / c_f)
    assert np.float32(np.float32(x_t) / np.float32(c_f)) > np.float32(pixel.headroom)
    rng = np.random.default_rng(5)
    raw = random_frame(rng, 20, 26)
    raw[::3, ::4] = RAW_MAX
    mags = rng.integers(0, 16, (N_CHANNELS, 5, 5))
    mags[:, 2, 2] = 15
    cfg = ArrayConfig(rows=20, cols=26)
    channels = reference_channels(frame_to_photocurrents(raw, pixel.i_max))
    expected = reference_mac_node_voltages(cfg, pixel, wtc, channels, mags, 5, 2, np.float32)
    got = mac_node_voltages(cfg, pixel, wtc, photocurrent_channels(raw, 0, 2), mags, 5, 2)
    assert got.dtype == np.float32 and np.array_equal(got, expected)


@given(
    half_rows=st.integers(4, 10),
    half_cols=st.integers(4, 10),
    k=st.sampled_from([3, 5, 7]),
    s=st.sampled_from([1, 2, 3]),
    full_scale=st.booleans(),
    pixel_config=st.sampled_from(sorted(PIXEL_CONFIGS)),
    v_fs=st.sampled_from([0.64]) | st.floats(0.05, 4.0),
    seed=st.integers(0, 2**32 - 1),
)
@settings(max_examples=60, deadline=None)
def test_float32_moves_only_codes_on_a_boundary(
    half_rows, half_cols, k, s, full_scale, pixel_config, v_fs, seed
):
    # The float32 MAC on raw samples against the float64 MAC on the same
    # photocurrents, converted to per-polarity codes.  A code may move by 1
    # only where the float64 count y = v / lsb + guard lies within the
    # float32 kernel's relative error, (4k^2 + 8) * 2^-24, of an integer.
    # With samples of 0 or full scale and the default pixel and v_fs, the
    # count is a sum of magnitudes over 14, so about one node in 14 lies
    # on a boundary.
    rows, cols = 2 * half_rows, 2 * half_cols
    rng = np.random.default_rng(seed)
    raw = random_frame(rng, rows, cols)
    if full_scale:
        raw = np.where(rng.random(raw.shape) < 0.5, RAW_MAX, 0).astype(np.uint16)
    mags = rng.integers(0, 16, (4, N_CHANNELS, k, k))
    pixel, wtc = PIXEL_CONFIGS[pixel_config]
    cfg, adc = ArrayConfig(rows=rows, cols=cols), AdcConfig(v_fs=v_fs)
    single, double = (
        mac_node_voltages(cfg, pixel, wtc, phases, mags, k, s)
        for phases, _ in working_dtype_runs(raw, 0, s, pixel.i_max)
    )
    assert single.dtype == np.float32 and double.dtype == np.float64
    delta = quantize(adc, single) - quantize(adc, double)
    assert np.abs(delta).max() <= 1
    y = double[delta != 0] / adc.lsb + 1e-9
    assert (np.abs(y - np.rint(y)) <= (4 * k * k + 8) * 2.0**-24 * y).all()


@pytest.mark.parametrize("pixel_config", sorted(PIXEL_CONFIGS))
@pytest.mark.parametrize("k", range(1, 8))
def test_run_mac_cycle_bit_exact(k, pixel_config):
    pixel, wtc = PIXEL_CONFIGS[pixel_config]
    cfg = ArrayConfig(rows=2, cols=2)
    rng = np.random.default_rng(k)
    for n in range(40):
        if n % 4 == 0:  # all-equal windows, as the sweeps run them
            region = np.full((N_CHANNELS, k, k), rng.uniform(0, pixel.i_max))
            mags = np.full((N_CHANNELS, k, k), rng.integers(0, 16))
        else:
            region = rng.uniform(0, pixel.i_max, (N_CHANNELS, k, k))
            mags = rng.integers(0, 16, (N_CHANNELS, k, k))
        expected = reference_run_mac_cycle(cfg, pixel, wtc, region, mags)
        assert run_mac_cycle(cfg, pixel, wtc, region, mags) == expected


@pytest.mark.parametrize("k", [1, 3, 7])
def test_monte_carlo_bit_exact(k, monkeypatch):
    # Seven trials per chunk: 25 trials make three full chunks and a short one.
    monkeypatch.setattr(parallel, "ROW_BLOCK_NODES", 7 * N_CHANNELS * k * k)
    chain = small_chain()
    mm = MismatchSpec(sigma_cap=0.05, sigma_vrst=1e-3, sigma_gain=0.05, trials=25, seed=k)
    samples, summary = monte_carlo(chain, mm, k=k, magnitude=11, x_norm=0.7)
    expected = [reference_mc_trial(chain, k, 11, 0.7, mm, t) for t in range(mm.trials)]
    assert np.array_equal(samples, expected)
    nominal = reference_mc_trial(chain, k, 11, 0.7, MismatchSpec(trials=1, seed=k), 0)
    assert summary["nominal_v"] == nominal


# The default chain, window 3, unequal network caps, and a pixel whose
# headroom clamp engages at full scale.
NOMINAL_CHAINS = {
    "default": small_chain(),
    "window3": replace(small_chain(), wtc=CounterConfig(window=3)),
    "caps": replace(small_chain(), array=ArrayConfig(c1=2e-14, c2=7e-15, c_f_acc=3e-14)),
    "clamped": replace(small_chain(), pixel=PixelParams(c_f=1e-15), wtc=CounterConfig(window=3)),
}


@pytest.mark.parametrize("name", sorted(NOMINAL_CHAINS))
@pytest.mark.parametrize("k", [1, 3, 7])
def test_monte_carlo_nominal_is_the_kernel(k, name):
    # _mc_trials computes the window apart from the MAC kernel; at zero
    # sigma its value must be the kernel's, bit for bit.
    chain = NOMINAL_CHAINS[name]
    pixel = chain.pixel
    if name == "clamped":
        assert pixel.i_max * match_time(chain.wtc, 15) / pixel.c_f > pixel.headroom
    for magnitude, x_norm in ((11, 0.7), (15, 1.0), (1, 0.05), (8, 0.5), (0, 0.3)):
        _, summary = monte_carlo(chain, MismatchSpec(trials=1), k=k, magnitude=magnitude, x_norm=x_norm)
        _, v_adc_in, _ = sweep_window_chain(chain, k, magnitude, [x_norm])
        assert summary["nominal_v"] == v_adc_in[0]


@pytest.mark.parametrize("p", PADDINGS)
@pytest.mark.parametrize("s", STRIDES)
@pytest.mark.parametrize("k", KERNELS)
def test_polarity_codes_bit_exact(k, s, p):
    rng = np.random.default_rng(100 * k + 10 * s + p)
    raw = np.pad(random_frame(rng, 20, 26), p)
    mags = rng.integers(0, 16, (N_CHANNELS, k, k))
    spec = ConvSpec(k=k, s=s, p=p, c_o=1)
    channels = reference_channels(raw.astype(np.int64))
    phases = reference_phase_stacks(raw.astype(np.int64), s)
    # The second scale drives the larger kernels into the code ceiling; the
    # second saturation clamps every tap of magnitude 2 or more.
    for code_scale in (63 / (15 * RAW_MAX * 4 * k * k), 20 / (15 * RAW_MAX)):
        for tap_saturation in (15 * RAW_MAX, 1.5 * RAW_MAX + 0.5):
            expected = reference_polarity_codes(
                channels, mags, spec, code_scale, 63, tap_saturation
            )
            blocks = {}
            polarity_codes(
                phases, mags[None], spec, code_scale, 63, tap_saturation,
                lambda r0, r1, p0, codes: blocks.__setitem__(r0, codes[0]),
            )
            got = np.concatenate([blocks[r0] for r0 in sorted(blocks)])
            assert got.shape == expected.shape
            assert np.array_equal(got, expected)


# (k, s, padding, magnitude levels, whether the memory budget rather than
# the floor of ROW_BLOCK_NODES // 4 nodes per team member sets the block
# size, a ROW_BLOCK_NODES that gives each case blocks of 4 rows on a team
# of 3 threads).  33 planes at k3s1 read at most 4 channels x 15 exposures
# of one stack.  At k3s3, k5s3p1 and k7s4 the taps read several stacks at
# many offsets, so they share hundreds of discharges and the floor binds.
# At k2s3 the taps read four stacks of two widths, which fit the budget
# with a single nonzero level.
WALKS = [
    (3, 1, 0, 16, True, 168),
    (3, 3, 0, 16, False, 120),
    (2, 3, 0, 2, True, 20),
    (5, 3, 1, 16, False, 120),
    (7, 4, 0, 16, False, 80),
]
# Test ids name a padding only where there is one.
WALK_IDS = [
    "-".join(map(str, (k, s, *([f"p{p}"] if p else []), levels, budget, scale)))
    for k, s, p, levels, budget, scale in WALKS
]


@pytest.mark.parametrize("pixel_config", sorted(PIXEL_CONFIGS))
@pytest.mark.parametrize("k, s, p, levels, budget, block_scale", WALKS, ids=WALK_IDS)
def test_both_walks_bit_exact(k, s, p, levels, budget, block_scale, pixel_config, monkeypatch):
    # The team size sets the block size, and worker_count caps it at the
    # CPUs: 4 of them keep the 3 threads asked for on any host.
    monkeypatch.setattr(parallel.os, "cpu_count", lambda: 4)
    pixel, wtc = PIXEL_CONFIGS[pixel_config]
    rng = np.random.default_rng(10 * k + s)
    # 64 rows give k7s4 more 4-row blocks than threads.
    raw = random_frame(rng, 64, 52)
    # An odd plane count leaves a lone last plane; plane 5 has no taps.
    mags = rng.integers(0, levels, (33, N_CHANNELS, k, k)) * (15 // (levels - 1))
    mags[5] = 0
    cfg = ArrayConfig(rows=64, cols=52)
    channels = reference_channels(np.pad(frame_to_photocurrents(raw, pixel.i_max), p))
    plans = []  # (block_nodes, blocks) of each kernel's walk
    row_blocks = parallel.row_blocks

    def recording(out_r, out_c, block_nodes, multiple):
        plans.append((block_nodes, row_blocks(out_r, out_c, block_nodes, multiple)))
        return plans[-1][1]

    monkeypatch.setattr(parallel, "row_blocks", recording)
    monkeypatch.setattr(parallel, "ROW_BLOCK_NODES", block_scale)
    # Both working dtypes walk the same tap plan on the same blocks.
    for phases, dtype in working_dtype_runs(raw, p, s, pixel.i_max):
        got = mac_node_voltages(cfg, pixel, wtc, phases, mags, k, s, row_multiple=2)
        size, blocks = plans.pop()
        assert not plans and got.dtype == dtype
        assert (size == 3 * (block_scale // 4)) != budget
        # More blocks than threads, of 4 rows but for a ragged last one.
        assert len(blocks) > 3
        assert {r1 - r0 for r0, r1 in blocks[:-1]} == {4} and blocks[-1][1] - blocks[-1][0] < 4
        for plane, plane_mags in zip(got, mags):
            expected = reference_mac_node_voltages(
                cfg, pixel, wtc, channels, plane_mags, k, s, dtype
            )
            assert np.array_equal(plane, expected)
    # The golden model on the same planes: its features leave a budget
    # below the floor in every case, so the floor sets its blocks.
    cal = CalibrationMap.derive(pixel, wtc, cfg, AdcConfig(), 15)
    limits = (cal.lsb_per_unit / (15 * RAW_MAX), 63, cal.tap_saturation)
    spec = ConvSpec(k=k, s=s, p=p)
    codes = {}  # (r0, plane) -> that block's codes

    def emit(r0, r1, p0, block):
        codes.update(((r0, p0 + i), plane) for i, plane in enumerate(block))

    polarity_codes(photocurrent_channels(raw, p, s), mags, spec, *limits, emit)
    [(size, blocks)] = plans
    assert size == 3 * (block_scale // 4) and len(blocks) > 3
    channels_raw = reference_channels(np.pad(raw, p).astype(np.int64))
    for plane, plane_mags in enumerate(mags):
        got = np.concatenate([codes[r0, plane] for r0, _ in blocks])
        expected = reference_polarity_codes(channels_raw, plane_mags, spec, *limits)
        assert np.array_equal(got, expected)
