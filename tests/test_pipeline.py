"""simulate_layer's one block pass against the layer computed one output
channel and one polarity at a time, as two full-grid tap loops per
channel followed by the ADC periphery.  Codes and activations must be
equal, not merely close."""

import json
import threading

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from ctia_ipc import parallel
from ctia_ipc.adc import ADC_BITS, AdcConfig, maxpool, signed_code_dtype
from ctia_ipc.cli import main
from ctia_ipc.errors import ValidationError
from ctia_ipc.formats import save_pgm16, save_weights
from ctia_ipc.golden import RAW_MAX, polarity_codes
from ctia_ipc.mapper import ConvSpec
from ctia_ipc.pipeline import ChainConfig, offset_codes, simulate_layer
from ctia_ipc.pixel import PixelParams, frame_to_photocurrents
from ctia_ipc.pixel_array import ArrayConfig, mac_node_voltages, photocurrent_channels
from ctia_ipc.wtc import CounterConfig

from conftest import random_frame, random_layer, reference_channels, small_chain
from test_kernels import WALK_IDS, WALKS, reference_mac_node_voltages, reference_polarity_codes


def loop_quantize(adc_cfg, v):
    # The ADC divides every voltage's float64 widening.
    codes = np.floor(np.asarray(v, dtype=float) / adc_cfg.lsb + 1e-9).astype(np.int64)
    return np.minimum(codes, adc_cfg.code_max)


def loop_simulate_layer(frame, fused, spec, chain, dtype=np.float32):
    """Per output channel: both polarity cycles over the whole grid in the
    MAC's working dtype (float32 on a raw frame whose range it holds),
    then quantize, signed CDS from the BN preload, ReLU, requantize and
    pool."""
    channels = reference_channels(
        np.pad(frame_to_photocurrents(frame, chain.pixel.i_max), spec.p)
    )
    bn_codes = offset_codes(fused, chain.calibration(fused.mag_max), chain.adc)
    adc_cfg = chain.adc
    activations, signed_codes = [], []
    for ch_out in range(spec.c_o):
        volts = [
            reference_mac_node_voltages(
                chain.array, chain.pixel, chain.wtc, channels, mags[ch_out], spec.k, spec.s, dtype
            )
            for mags in (fused.pos_mags, fused.neg_mags)
        ]
        signed = loop_quantize(adc_cfg, volts[0]) - loop_quantize(adc_cfg, volts[1])
        signed += int(bn_codes[ch_out])
        relu = np.minimum(np.maximum(signed, 0) >> (ADC_BITS - adc_cfg.out_bits), adc_cfg.out_max)
        activations.append(maxpool(relu, spec.p_s))
        signed_codes.append(signed)
    return np.asarray(activations), np.asarray(signed_codes)


def edge_pixel():
    """A pixel whose largest discharge, a full-scale sample at the longest
    exposure, lands exactly on the headroom clamp."""
    wtc = CounterConfig()
    pixel = PixelParams()
    t_max = float(15 << wtc.window) * wtc.t_step
    return PixelParams(headroom=pixel.i_max * t_max / pixel.c_f), wtc


PIXELS = {
    "default": lambda: (PixelParams(), CounterConfig()),
    # 6 V of discharge at full scale against 0.8 V of headroom.
    "clamped": lambda: (PixelParams(c_f=1e-15), CounterConfig(window=3)),
    "edge": edge_pixel,
}


@given(
    half_rows=st.integers(1, 12),
    half_cols=st.integers(1, 12),
    k=st.integers(1, 7),
    s=st.integers(1, 4),
    p=st.integers(0, 3),
    c_o=st.integers(1, 4),
    p_s=st.integers(1, 3),
    pixel=st.sampled_from(sorted(PIXELS)),
    threads=st.sampled_from(["1", "3"]),
    seed=st.integers(0, 2**32 - 1),
)
@settings(max_examples=80, deadline=None)
def test_block_pass_matches_per_channel_loop(
    half_rows, half_cols, k, s, p, c_o, p_s, pixel, threads, seed
):
    rows, cols = 2 * half_rows, 2 * half_cols
    assume(rows + 2 * p >= k and cols + 2 * p >= k)
    rng = np.random.default_rng(seed)
    spec = ConvSpec(k=k, s=s, p=p, c_o=c_o, p_s=p_s)
    _, _, fused = random_layer(rng, spec, beta_bias=rng.uniform(-0.5, 1.5))
    frame = random_frame(rng, rows, cols)
    # Full-scale samples, so that the edge pixel's clamp is reached.
    frame[rng.random(frame.shape) < 0.2] = 65535
    pixel_params, wtc = PIXELS[pixel]()
    chain = ChainConfig(
        pixel=pixel_params,
        wtc=wtc,
        array=ArrayConfig(rows=rows, cols=cols),
        adc=AdcConfig(v_fs=rng.uniform(0.05, 1.0)),
    )
    expected = loop_simulate_layer(frame, fused, spec, chain)
    with pytest.MonkeyPatch.context() as patch:
        # Row blocks of p_s rows, the fewest that pooling in the block
        # pass allows.
        patch.setattr(parallel, "ROW_BLOCK_NODES", 1)
        patch.setenv("CTIA_IPC_THREADS", threads)
        activations = simulate_layer(frame, fused, spec, chain)
    assert activations.dtype == np.uint8
    assert activations.shape == expected[0].shape
    assert np.array_equal(activations, expected[0])


# Two configs the loader accepts that leave float32's normal range: c_f
# 1e-46 is 0 in float32, and at c_f 1e-40 it and the smallest products are
# subnormal.  The MAC runs both in float64, as on a float64 stack.
OUT_OF_FLOAT32 = {
    "c_f_zero": {"i_max": 1e-36, "c_f": 1e-46},
    "c_f_subnormal": {"i_max": 1e-30, "c_f": 1e-40},
}


@pytest.mark.parametrize("name", sorted(OUT_OF_FLOAT32))
def test_out_of_float32_range_runs_in_float64(tmp_path, capsys, name):
    pixel = dict(OUT_OF_FLOAT32[name], headroom=1.6e6, v_rst=1.6e6)
    rng = np.random.default_rng(21)
    spec = ConvSpec(k=7, s=2, c_o=4)
    weights, bn, fused = random_layer(rng, spec, beta_bias=0.5)
    frame = random_frame(rng, 64, 64)
    chain = ChainConfig(
        pixel=PixelParams(**pixel),
        wtc=CounterConfig(),
        array=ArrayConfig(rows=64, cols=64),
        adc=AdcConfig(v_fs=1.28e6),
    )
    planes = fused.polarity_planes(spec)
    volts = mac_node_voltages(
        chain.array, chain.pixel, chain.wtc, photocurrent_channels(frame, 0, 2), planes, 7, 2
    )
    channels = reference_channels(frame_to_photocurrents(frame, chain.pixel.i_max))
    assert volts.dtype == np.float64
    for plane, plane_volts in zip(planes, volts):
        expected = reference_mac_node_voltages(
            chain.array, chain.pixel, chain.wtc, channels, plane, 7, 2
        )
        assert np.array_equal(plane_volts, expected)
    activations = simulate_layer(frame, fused, spec, chain)
    expected = loop_simulate_layer(frame, fused, spec, chain, np.float64)[0]
    assert activations.any() and np.array_equal(activations, expected)
    # verify on the same inputs matches the oracle at every node.
    save_pgm16(tmp_path / "frame.pgm", frame)
    save_weights(tmp_path / "weights.json", weights, bn)
    config = {
        "pixel": pixel,
        "adc": {"v_fs": 1.28e6},
        "array": {"rows": 64, "cols": 64},
        "conv": {"k": 7, "s": 2, "c_o": 4},
        "paths": {"frame": "frame.pgm", "weights": "weights.json"},
    }
    (tmp_path / "config.json").write_text(json.dumps(config))
    argv = ["verify", "--config", str(tmp_path / "config.json"), "--out", str(tmp_path / "out")]
    assert main(argv) == 0
    report = json.loads((tmp_path / "out" / "verify_report.json").read_text())
    assert report["max_abs_delta"] == 0 and report["passed"] is True
    assert "PASS" in capsys.readouterr().out


def test_rejects_non_integer_frames():
    rng = np.random.default_rng(3)
    spec = ConvSpec(k=3, c_o=2)
    _, _, fused = random_layer(rng, spec)
    frame = random_frame(rng, 16, 16).astype(float)
    with pytest.raises(ValidationError):
        simulate_layer(frame, fused, spec, small_chain(16, 16))


@pytest.mark.parametrize("n_planes", [32, 33])
@pytest.mark.parametrize("k, s, p, levels, budget, block_scale", WALKS, ids=WALK_IDS)
def test_emit_covers_every_plane_row_once(
    k, s, p, levels, budget, block_scale, n_planes, monkeypatch
):
    monkeypatch.setattr(parallel, "ROW_BLOCK_NODES", block_scale)
    monkeypatch.setenv("CTIA_IPC_THREADS", "3")
    rng = np.random.default_rng(n_planes)
    raw = random_frame(rng, 44, 52)
    mags = rng.integers(0, levels, (n_planes, 4, k, k)) * (15 // (levels - 1))
    chain = small_chain(44, 52)
    phases = photocurrent_channels(raw, p, s)
    spec = ConvSpec(k=k, s=s, p=p)
    channels = reference_channels(np.pad(raw, p).astype(np.int64))
    limits = (1 / RAW_MAX, 63, 15 * RAW_MAX)
    # Each layer kernel with the grid it emits, on blocks cut at p_s = 2,
    # and whether it emits one channel pair at a time (the MAC) or a
    # member's run of whole pairs (the golden model).
    kernels = (
        (
            mac_node_voltages(chain.array, chain.pixel, chain.wtc, phases, mags, k, s),
            lambda emit: mac_node_voltages(
                chain.array, chain.pixel, chain.wtc, phases, mags, k, s, emit, row_multiple=2
            ),
            True,
        ),
        (
            np.array([reference_polarity_codes(channels, m, spec, *limits) for m in mags]),
            lambda emit: polarity_codes(phases, mags, spec, *limits, emit),
            False,
        ),
    )
    lock = threading.Lock()
    for expected, walk, one_pair in kernels:
        seen = np.zeros(expected.shape[:2], dtype=int)

        def emit(r0, r1, p0, block):
            n = min(2, n_planes - p0) if one_pair else len(block)
            assert p0 % 2 == 0 and (n % 2 == 0 or p0 + n == n_planes)
            assert block.shape == (n, r1 - r0, expected.shape[2])
            assert np.array_equal(block, expected[p0 : p0 + len(block), r0:r1])
            with lock:
                seen[p0 : p0 + len(block), r0:r1] += 1

        assert walk(emit) is None
        assert (seen == 1).all()


@pytest.mark.parametrize(
    "bn_codes, dtype",
    [
        ([0], np.int8),
        ([-65, 64], np.int8),
        ([-66], np.int16),
        ([65], np.int16),
        ([1 << 15], np.int32),
        ([-(1 << 40)], np.int64),
    ],
)
def test_signed_code_dtype_is_narrowest(bn_codes, dtype):
    assert signed_code_dtype(63, np.array(bn_codes)) == dtype


def test_signed_codes_are_narrow_and_exact():
    rng = np.random.default_rng(12)
    spec = ConvSpec(k=3, s=1, c_o=4, p_s=3)
    _, _, fused = random_layer(rng, spec, beta_bias=0.5)
    frame = random_frame(rng, 30, 34)
    chain = small_chain(30, 34)
    bn_codes = offset_codes(fused, chain.calibration(fused.mag_max), chain.adc)
    assert -65 <= bn_codes.min() and bn_codes.max() <= 64
    # The narrowest dtype for these preloads is int8, and it holds every
    # signed code of the layer.
    assert signed_code_dtype(chain.adc.code_max, bn_codes) == np.int8
    expected, signed = loop_simulate_layer(frame, fused, spec, chain)
    info = np.iinfo(np.int8)
    assert info.min <= signed.min() and signed.max() <= info.max
    assert np.array_equal(simulate_layer(frame, fused, spec, chain), expected)
