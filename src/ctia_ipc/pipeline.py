"""Full analog-chain simulation of the fused first layer.

Every output channel runs as two polarity cycles (positive magnitudes,
then negative magnitudes) over the same pixel exposures.  simulate_layer
makes one pass over row blocks of the output grid: mac_node_voltages
integrates every active pixel for its weight-encoded exposure,
accumulates per column and combines columns through the switching matrix
for all 2*c_o polarity planes at once: a discharge that several planes
share at one tap is computed once per block.  Each block then goes
straight to the ADC periphery, as in hardware: per channel both
polarities are digitized, the signed CDS count runs from the channel's BN
preload, and ReLU and the 4-bit requantization write a uint8 node grid.
Pooling runs per channel at the end.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .adc import AdcConfig, cds_signed, maxpool, quantize, relu_requantize
from .errors import DimensionError, ValidationError
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
    return_codes: bool = False,
):
    """Simulate the full first layer; returns uint8 (c_o, pool_r, pool_c)
    activations, or (activations, signed_codes) when return_codes is set.

    The signed codes are the int64 per-node CDS results before ReLU,
    useful for threshold-agreement checks.
    """
    if fused.pos_mags.shape != (spec.c_o, 4, spec.k, spec.k):
        raise DimensionError(
            f"fused planes shape {fused.pos_mags.shape} != {(spec.c_o, 4, spec.k, spec.k)}"
        )
    phases = photocurrent_channels(frame_raw, spec.p, spec.s)
    bn_codes = offset_codes(fused, chain.calibration(fused.mag_max), chain.adc)
    # One CDS counter per channel, preloaded with its BN offset.
    counters = [
        AdcConfig(v_fs=chain.adc.v_fs, bn_offset_codes=int(bn), out_bits=chain.adc.out_bits)
        for bn in bn_codes
    ]
    (out_r, out_c), _ = output_dims(spec, *np.asarray(frame_raw).shape)
    nodes = np.empty((spec.c_o, out_r, out_c), dtype=np.uint8)
    signed_codes = np.empty((spec.c_o, out_r, out_c), dtype=np.int64) if return_codes else None

    def digitize(r0: int, r1: int, volts: np.ndarray) -> None:
        for ch_out, adc_cfg in enumerate(counters):
            signed = cds_signed(adc_cfg, volts[ch_out], volts[spec.c_o + ch_out])
            if return_codes:
                signed_codes[ch_out, r0:r1] = signed
            nodes[ch_out, r0:r1] = relu_requantize(adc_cfg, signed)

    mac_node_voltages(
        chain.array,
        chain.pixel,
        chain.wtc,
        phases,
        np.concatenate([fused.pos_mags, fused.neg_mags]),
        spec.k,
        spec.s,
        digitize,
    )
    activations = np.stack([maxpool(plane, spec.p_s) for plane in nodes])
    if return_codes:
        return activations, signed_codes
    return activations


def sweep_window_chain(chain: ChainConfig, k: int, magnitude: int, x_norms):
    """All-equal k x k windows through the analog chain, one per x_norm.

    Every tap of a window carries the same magnitude and normalized input.
    The windows share one weight plane, so they run as the nodes of one
    batched run_mac_cycle call and one quantize call.  x_norms is 1-D;
    returns arrays (v_cbl of one column, v_adc_in, digital code), one entry
    per x_norm.  This is the primitive behind the linearity sweeps.
    """
    x = np.asarray(x_norms, dtype=float)
    if x.ndim != 1:
        raise ValidationError(f"x_norms must be 1-D, got shape {x.shape}")
    # min and max are NaN when any element is.
    if x.size and not (x.min() >= 0.0 and x.max() <= 1.0):
        raise ValidationError(f"x_norm must be in [0, 1], got values in [{x.min()}, {x.max()}]")
    currents = chain.pixel.i_max * x
    fields = np.broadcast_to(currents[:, None, None, None], (x.size, 4, k, k))
    mags = np.full((4, k, k), magnitude, dtype=np.int64)
    v_adc_in = run_mac_cycle(chain.array, chain.pixel, chain.wtc, fields, mags)
    v_cbl = v_adc_in * chain.array.divider / k
    codes = quantize(chain.adc, v_adc_in)
    return v_cbl, v_adc_in, codes
