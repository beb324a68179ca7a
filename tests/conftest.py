import threading

import numpy as np
import pytest

from ctia_ipc.adc import AdcConfig
from ctia_ipc.mapper import BnParams, ConvSpec, fuse_and_quantize
from ctia_ipc.pipeline import ChainConfig
from ctia_ipc.pixel import PixelParams
from ctia_ipc.pixel_array import N_CHANNELS, ArrayConfig
from ctia_ipc.wtc import CounterConfig


@pytest.fixture
def pixel():
    return PixelParams()


@pytest.fixture
def wtc_cfg():
    return CounterConfig()


@pytest.fixture
def adc_cfg():
    return AdcConfig()


def small_chain(rows=64, cols=64):
    return ChainConfig(
        pixel=PixelParams(),
        wtc=CounterConfig(),
        array=ArrayConfig(rows=rows, cols=cols),
        adc=AdcConfig(),
    )


@pytest.fixture
def chain():
    return small_chain()


def random_layer(rng, spec: ConvSpec, beta_bias=0.0):
    """Random signed weights and BN params, fused and quantized."""
    weights = rng.normal(size=(spec.c_o, N_CHANNELS, spec.k, spec.k))
    bn = BnParams(
        gamma=rng.uniform(0.5, 2.0, spec.c_o),
        beta=rng.normal(size=spec.c_o) * 0.2 + beta_bias,
        mu=rng.normal(size=spec.c_o) * 0.2,
        sigma_sq=rng.uniform(0.5, 2.0, spec.c_o),
        epsilon=1e-5,
    )
    return weights, bn, fuse_and_quantize(weights, bn, spec.mag_max)


def random_frame(rng, rows=64, cols=64):
    return rng.integers(0, 65536, size=(rows, cols), dtype=np.uint16)


def reference_channels(frame):
    """(4, rows, cols) channel stack of an RGGB mosaic of even dimensions,
    in any dtype: channel R, G1, G2 or B repeats each of its samples, at
    even/even, even/odd, odd/even or odd/odd parities, over its 2x2 quad."""
    frame = np.asarray(frame)
    return np.stack([
        frame[dr::2, dc::2].repeat(2, axis=0).repeat(2, axis=1)
        for dr, dc in ((0, 0), (0, 1), (1, 0), (1, 1))
    ])


def reference_phase_stacks(frame, stride):
    """The stride x stride phase stacks of reference_channels(frame):
    stacks[a][b] is channels[:, a::stride, b::stride].  At an even stride
    rows a and a ^ 1 of a phase fall in one quad row, so phases a and a ^ 1
    (and b and b ^ 1) are one object, as in photocurrent_channels."""
    channels = reference_channels(frame)
    shared = ~1 if stride % 2 == 0 else ~0
    stacks = {}
    for a in range(stride):
        for b in range(stride):
            key = (a & shared, b & shared)
            stacks.setdefault(key, channels[:, key[0] :: stride, key[1] :: stride])
    return tuple(
        tuple(stacks[a & shared, b & shared] for b in range(stride)) for a in range(stride)
    )


def call_within(seconds, fn, *args):
    """fn(*args) on a daemon thread: its result, or its exception raised
    here.  Fails the test when fn is still running after `seconds`, so a
    hang shows as a failure."""
    outcome = {}

    def target():
        try:
            outcome["result"] = fn(*args)
        except BaseException as exc:
            outcome["error"] = exc

    thread = threading.Thread(target=target, daemon=True)
    thread.start()
    thread.join(seconds)
    assert not thread.is_alive(), f"still running after {seconds} s"
    if "error" in outcome:
        raise outcome["error"]
    return outcome["result"]
