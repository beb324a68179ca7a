"""The row-blocked phase-stack tap kernels against the strided tap loops
they replaced.  Both keep every node's summation order, so results must be
bit-identical, not merely close."""

import numpy as np
import pytest

from ctia_ipc import parallel
from ctia_ipc.formats import frame_to_photocurrents
from ctia_ipc.golden import RAW_MAX, _polarity_codes
from ctia_ipc.mapper import ConvSpec
from ctia_ipc.pipeline import photocurrent_channels
from ctia_ipc.pixel import PixelParams
from ctia_ipc.pixel_array import (
    N_CHANNELS,
    ArrayConfig,
    bayer_channel_view,
    bayer_phase_stacks,
    mac_node_voltages,
)
from ctia_ipc.wtc import CounterConfig, match_ticks

from conftest import random_frame

KERNELS = [1, 2, 3, 5, 7]
STRIDES = [1, 2, 3, 4]
PADDINGS = [0, 1, 3]


def reference_mac_node_voltages(cfg, params, wtc_cfg, channels, magnitudes, k, stride):
    """Strided tap loop over a (4, rows, cols) channel stack."""
    mags = np.asarray(magnitudes)
    rows, cols = channels.shape[1:]
    out_r = (rows - k) // stride + 1
    out_c = (cols - k) // stride + 1
    ticks = np.asarray(match_ticks(wtc_cfg, mags), dtype=np.int64)
    acc = np.zeros((out_r, out_c))
    for j in range(k):
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
                acc += np.minimum(patch * t / params.c_f, params.headroom)
    return acc / cfg.divider


def reference_polarity_codes(channels_raw, mags, spec, code_scale, code_max):
    """Strided integer tap loop over a (4, rows, cols) int64 channel stack."""
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
                acc += m * patch
    codes = np.floor(acc * code_scale + 1e-9).astype(np.int64)
    return np.minimum(codes, code_max)


@pytest.fixture(autouse=True)
def many_threaded_blocks(monkeypatch):
    # Blocks of one or two rows on three threads: the small test frames
    # then cross many block boundaries.
    monkeypatch.setattr(parallel, "ROW_BLOCK_NODES", 40)
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
    channels = bayer_channel_view(np.pad(frame_to_photocurrents(raw, pixel.i_max), p))
    if pixel_config == "clamped":
        assert channels.max() * 15 * (1 << wtc.window) * wtc.t_step / pixel.c_f > pixel.headroom
    expected = reference_mac_node_voltages(cfg, pixel, wtc, channels, mags, k, s)
    got = mac_node_voltages(cfg, pixel, wtc, photocurrent_channels(raw, pixel, p, s), mags, k, s)
    assert got.shape == expected.shape
    assert np.array_equal(got, expected)


@pytest.mark.parametrize("p", PADDINGS)
@pytest.mark.parametrize("s", STRIDES)
@pytest.mark.parametrize("k", KERNELS)
def test_polarity_codes_bit_exact(k, s, p):
    rng = np.random.default_rng(100 * k + 10 * s + p)
    raw = np.pad(random_frame(rng, 20, 26), p)
    mags = rng.integers(0, 16, (N_CHANNELS, k, k))
    spec = ConvSpec(k=k, s=s, p=p, c_o=1)
    channels = bayer_channel_view(raw).astype(np.int64)
    phases = bayer_phase_stacks(raw.astype(np.int64), s)
    # The second scale drives the larger kernels into the code ceiling.
    for code_scale in (63 / (15 * RAW_MAX * 4 * k * k), 20 / (15 * RAW_MAX)):
        expected = reference_polarity_codes(channels, mags, spec, code_scale, 63)
        got = _polarity_codes(phases, mags, spec, code_scale, 63)
        assert got.shape == expected.shape
        assert np.array_equal(got, expected)
