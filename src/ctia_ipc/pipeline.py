"""Full analog-chain simulation of the fused first layer.

For each output channel the layer runs as two polarity cycles (positive
magnitudes, then negative magnitudes).  Each cycle integrates every active
pixel for its weight-encoded exposure, accumulates per column, combines
columns through the switching matrix, and digitizes.  The signed CDS
subtraction, BN preload, ReLU clip, 4-bit requantization and pooling then
happen in the ADC periphery exactly as in hardware.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .adc import AdcConfig, cds_signed, maxpool, quantize, relu_requantize
from .errors import DimensionError, ValidationError
from .formats import frame_to_photocurrents
from .golden import RAW_MAX, CalibrationMap, offset_codes
from .mapper import ConvSpec, FusedLayer, output_dims
from .pixel import PixelParams
from .pixel_array import ArrayConfig, bayer_phase_stacks, mac_node_voltages, run_mac_cycle
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


def photocurrent_channels(frame_raw: np.ndarray, pixel: PixelParams, padding: int = 0, stride: int = 1) -> tuple:
    """Photocurrent bayer_phase_stacks of raw mosaic samples; at stride 1,
    [0][0] is the (4, rows, cols) channel stack."""
    raw = np.asarray(frame_raw)
    if raw.ndim != 2:
        raise DimensionError("frame must be 2-D")
    if np.any(raw < 0) or np.any(raw > RAW_MAX):
        raise ValidationError(f"raw samples must be in [0, {RAW_MAX}]")
    if padding:
        raw = np.pad(raw, padding)
    return bayer_phase_stacks(frame_to_photocurrents(raw, pixel.i_max), stride)


def simulate_layer(
    frame_raw: np.ndarray,
    fused: FusedLayer,
    spec: ConvSpec,
    chain: ChainConfig,
    return_codes: bool = False,
):
    """Simulate the full first layer; returns (c_o, pool_r, pool_c)
    activations, or (activations, signed_codes) when return_codes is set.

    The signed codes are the per-node CDS results before ReLU, useful for
    threshold-agreement checks.
    """
    if fused.pos_mags.shape != (spec.c_o, 4, spec.k, spec.k):
        raise DimensionError(
            f"fused planes shape {fused.pos_mags.shape} != {(spec.c_o, 4, spec.k, spec.k)}"
        )
    phases = photocurrent_channels(frame_raw, chain.pixel, spec.p, spec.s)
    cal = chain.calibration(fused.mag_max)
    bn_codes = offset_codes(fused, cal, chain.adc)
    (out_r, out_c), (pool_r, pool_c) = output_dims(spec, *np.asarray(frame_raw).shape)
    activations = np.empty((spec.c_o, pool_r, pool_c), dtype=np.int64)
    signed_codes = np.empty((spec.c_o, out_r, out_c), dtype=np.int64) if return_codes else None
    for ch_out in range(spec.c_o):
        adc_cfg = AdcConfig(
            v_fs=chain.adc.v_fs,
            bn_offset_codes=int(bn_codes[ch_out]),
            out_bits=chain.adc.out_bits,
        )
        v_pos = mac_node_voltages(
            chain.array, chain.pixel, chain.wtc, phases, fused.pos_mags[ch_out], spec.k, spec.s
        )
        v_neg = mac_node_voltages(
            chain.array, chain.pixel, chain.wtc, phases, fused.neg_mags[ch_out], spec.k, spec.s
        )
        signed = cds_signed(adc_cfg, v_pos, v_neg)
        if return_codes:
            signed_codes[ch_out] = signed
        activations[ch_out] = maxpool(relu_requantize(adc_cfg, signed), spec.p_s)
    if return_codes:
        return activations, signed_codes
    return activations


def sweep_window_chain(chain: ChainConfig, k: int, magnitude: int, x_norm: float):
    """One all-equal k x k window through the analog chain.

    Every tap carries the same magnitude and normalized input; returns
    (v_cbl of one column, v_adc_in, digital code).  This is the primitive
    behind the linearity sweeps.
    """
    if not 0.0 <= x_norm <= 1.0:
        raise ValidationError(f"x_norm must be in [0, 1], got {x_norm}")
    current = chain.pixel.i_max * x_norm
    region = np.full((4, k, k), current)
    mags = np.full((4, k, k), magnitude, dtype=np.int64)
    v_adc_in = run_mac_cycle(chain.array, chain.pixel, chain.wtc, region, mags)
    v_cbl = v_adc_in * chain.array.divider / k
    code = quantize(chain.adc, v_adc_in)
    return v_cbl, v_adc_in, code
