"""Full analog-chain simulation of the fused first layer.

Every output channel runs as two polarity cycles (positive magnitudes,
then negative magnitudes) over the same pixel exposures.  simulate_layer
makes one pass over row blocks of the output grid: mac_node_voltages
integrates every active pixel for its weight-encoded exposure,
accumulates per column and combines columns through the switching matrix
for all 2*c_o polarity planes at once, ordered (pos_0, neg_0, pos_1,
...), computing a discharge that planes share once per block (see
pixel_array).  Each channel of a block then goes straight to the ADC
periphery, as in hardware: both polarities are digitized, the signed CDS
count runs from the channel's BN preload, and max pooling, ReLU and the
4-bit requantization write the block's pooled rows into the uint8
activation grid (ReLU and requantization are monotone, so pooling before
them changes no code).  Blocks start at multiples of the pooling stride,
so every pooling window lies in one block and no full-resolution node
grid is kept.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .adc import AdcConfig, cds_signed, maxpool, quantize, relu_requantize
from .errors import ValidationError
from .golden import CalibrationMap, offset_codes
from .mapper import ConvSpec, FusedLayer, output_dims
from .pixel import PixelParams
from .pixel_array import ArrayConfig, mac_node_voltages, photocurrent_channels, run_mac_cycle
from .wtc import CounterConfig


@dataclass(frozen=True)
class ChainConfig:
    """Everything the analog chain needs, bundled for convenience."""

    pixel: PixelParams
    wtc: CounterConfig
    array: ArrayConfig
    adc: AdcConfig

    def calibration(self, mag_max: int) -> CalibrationMap:
        return CalibrationMap.derive(self.pixel, self.wtc, self.array, self.adc, mag_max)


def simulate_layer(
    frame_raw: np.ndarray,
    fused: FusedLayer,
    spec: ConvSpec,
    chain: ChainConfig,
) -> np.ndarray:
    """Simulate the full first layer; returns uint8 (c_o, pool_r, pool_c)
    activations."""
    planes = fused.polarity_planes(spec)
    phases = photocurrent_channels(frame_raw, spec.p, spec.s)
    bn_codes = offset_codes(fused, chain.calibration(fused.mag_max), chain.adc)
    # One CDS counter per channel, preloaded with its BN offset.
    counters = [
        AdcConfig(v_fs=chain.adc.v_fs, bn_offset_codes=int(bn), out_bits=chain.adc.out_bits)
        for bn in bn_codes
    ]
    _, pooled_dims = output_dims(spec, *np.asarray(frame_raw).shape)
    activations = np.empty((spec.c_o, *pooled_dims), dtype=np.uint8)

    def digitize(r0: int, r1: int, p0: int, volts: np.ndarray) -> None:
        # Planes p0, p0 + 1 are the positive and negative cycles of one
        # channel; blocks start at multiples of p_s, so they pool whole
        # windows but for the ragged last block.  ReLU and requantization
        # are monotone, so they commute with the max: pooling first gives
        # the same activations from 1/p_s^2 of the work.
        ch_out = p0 // 2
        adc_cfg = counters[ch_out]
        signed = cds_signed(adc_cfg, volts[0], volts[1])
        pooled = relu_requantize(adc_cfg, maxpool(signed, spec.p_s))
        q0 = r0 // spec.p_s
        activations[ch_out, q0 : q0 + len(pooled)] = pooled

    mac_node_voltages(
        chain.array,
        chain.pixel,
        chain.wtc,
        phases,
        planes,
        spec.k,
        spec.s,
        digitize,
        spec.p_s,
    )
    return activations


def sweep_window_chain(chain: ChainConfig, k: int, magnitudes, x_norms):
    """All-equal k x k windows through the analog chain, one per (weight
    level, x_norm).

    Every tap of a window carries the same magnitude and normalized input.
    The windows of one x_norm are the nodes of a batch, and every level is
    one weight plane of a stack, so all of them run as one run_mac_cycle
    call and one quantize call.  magnitudes is a level or an array of
    levels, x_norms is 1-D; returns arrays (v_cbl of one column, v_adc_in,
    digital code) of shape magnitudes.shape + x_norms.shape: one row per
    level, with one entry per x_norm.  This is the primitive behind the
    linearity sweeps and the transfer samples.
    """
    x = np.asarray(x_norms, dtype=float)
    if x.ndim != 1:
        raise ValidationError(f"x_norms must be 1-D, got shape {x.shape}")
    # min and max are NaN when any element is.
    if x.size and not (x.min() >= 0.0 and x.max() <= 1.0):
        raise ValidationError(f"x_norm must be in [0, 1], got values in [{x.min()}, {x.max()}]")
    levels = np.asarray(magnitudes, dtype=np.int64)
    currents = chain.pixel.i_max * x
    fields = np.broadcast_to(currents[:, None, None, None], (x.size, 4, k, k))
    planes = np.broadcast_to(levels.reshape(-1, 1, 1, 1, 1), (levels.size, 1, 4, k, k))
    v_adc_in = run_mac_cycle(chain.array, chain.pixel, chain.wtc, fields, planes)
    v_adc_in = v_adc_in.reshape(levels.shape + x.shape)
    v_cbl = v_adc_in * chain.array.divider / k
    codes = quantize(chain.adc, v_adc_in)
    return v_cbl, v_adc_in, codes
