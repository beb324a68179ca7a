"""Full analog-chain simulation of the fused first layer.

Every output channel runs as two polarity cycles (positive magnitudes,
then negative magnitudes) over the same pixel exposures.  simulate_layer
makes one pass over row blocks of the output grid: mac_node_voltages
integrates every active pixel for its weight-encoded exposure,
accumulates per column and combines columns through the switching matrix
for all 2*c_o polarity planes at once, ordered (pos_0, neg_0, pos_1,
...), computing a discharge that planes share once per block (see
pixel_array).  Each channel of a block then goes straight to the ADC
periphery, as in hardware: both polarities are digitized and the signed
CDS count runs from the channel's BN preload.

LayerRun serves both layer kernels, this one and golden.golden_layer:
its set-up holds the planes, the frame's MosaicPhases, the BN preloads
and the uint8 activation grid, and its store is the one block tail: max
pooling, ReLU and the 4-bit requantization write a block's pooled rows
into the grid (ReLU and requantization are monotone, so pooling before
them changes no code).  Blocks start at multiples of the pooling stride,
so every pooling window lies in one block and no full-resolution node
grid is kept.  The calibration map is always derived, never free-set, so
the simulator and the oracle cannot drift apart in units.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .adc import AdcConfig, cds_signed, maxpool, quantize, relu_requantize, signed_code_dtype
from .errors import ValidationError
from .mapper import ConvSpec, FusedLayer, output_dims
from .pixel import RAW_MAX, PixelParams
from .pixel_array import ArrayConfig, mac_node_voltages, photocurrent_channels, run_mac_cycle
from .wtc import CounterConfig, match_time


@dataclass(frozen=True)
class CalibrationMap:
    """Bridge between normalized products and ADC codes.

    volts_per_unit_product: ADC-input volts produced by one unit of
    w_norm * x_norm through pixel integration and the column divider.
    lsb_per_unit: the same quantity in ADC codes.
    tap_saturation: the integer tap product magnitude * raw at which one
    pixel's discharge reaches the headroom clamp.
    """

    volts_per_unit_product: float
    lsb_per_unit: float
    tap_saturation: float

    def __post_init__(self):
        for name, value in vars(self).items():
            if not (math.isfinite(value) and value > 0):
                raise ValidationError(f"calibration {name} must be finite and > 0, got {value!r}")

    @classmethod
    def derive(
        cls,
        pixel: PixelParams,
        wtc_cfg: CounterConfig,
        array_cfg: ArrayConfig,
        adc_cfg: AdcConfig,
        mag_max: int,
    ) -> "CalibrationMap":
        """Compute the map from physical parameters (the only constructor
        that should be used; a free-set calibration can silently disagree
        with the simulator)."""
        t_full = match_time(wtc_cfg, mag_max)
        volts = pixel.i_max * t_full / pixel.c_f / array_cfg.divider
        # A tap discharges i_max * (raw / RAW_MAX) * match_time(magnitude) /
        # c_f volts until the pixel clamps it at headroom.
        charge_per_mag = pixel.i_max * match_time(wtc_cfg, 1)
        # An underflowed charge leaves the saturation infinite, rejected below.
        saturation = pixel.headroom * pixel.c_f * RAW_MAX / charge_per_mag if charge_per_mag else math.inf
        return cls(volts, volts / adc_cfg.lsb, saturation)


def offset_codes(fused: FusedLayer, cal: CalibrationMap, adc_cfg: AdcConfig) -> np.ndarray:
    """Per-channel BN offsets converted to preloaded CDS counter codes.

    The fused offset B lives in the network's accumulator units; one such
    unit equals volts_per_unit_product / (mag_max * weight_scale) volts.
    With an all-zero weight tensor there is no voltage scale to map
    through, so the preload degenerates to zero.  A preload that is not
    finite, or whose signed counts int64 cannot hold, raises
    ValidationError naming its channel.
    """
    if fused.weight_scale == 0.0:
        return np.zeros(fused.offsets.shape, dtype=np.int64)
    volts = fused.offsets * cal.volts_per_unit_product / (fused.mag_max * fused.weight_scale)
    codes = np.rint(volts / adc_cfg.lsb)
    # Checked before the cast, which would wrap such a preload silently.
    signed_code_dtype(adc_cfg.code_max, codes)
    return codes.astype(np.int64)


@dataclass(frozen=True)
class ChainConfig:
    """Everything the analog chain needs, bundled for convenience."""

    pixel: PixelParams
    wtc: CounterConfig
    array: ArrayConfig
    adc: AdcConfig

    def calibration(self, mag_max: int) -> CalibrationMap:
        return CalibrationMap.derive(self.pixel, self.wtc, self.array, self.adc, mag_max)


class LayerRun:
    """A layer run's planes (pos_0, neg_0, pos_1, ...), phases, int64 BN
    preload codes and uint8 (c_o, pool_rows, pool_cols) activations."""

    def __init__(
        self, frame_raw, fused: FusedLayer, spec: ConvSpec, cal: CalibrationMap, adc_cfg: AdcConfig
    ):
        self.spec, self.adc_cfg = spec, adc_cfg
        self.planes = fused.polarity_planes(spec)
        self.phases = photocurrent_channels(frame_raw, spec.p, spec.s)
        self.preloads = offset_codes(fused, cal, adc_cfg)
        _, pooled_dims = output_dims(spec, *np.asarray(frame_raw).shape)
        self.activations = np.empty((spec.c_o, *pooled_dims), dtype=np.uint8)

    def store(self, r0: int, ch0: int, signed: np.ndarray) -> None:
        """Pool, rectify and requantize the (n, rows, out_c) signed codes of
        channels ch0 to ch0 + n from node row r0, a multiple of p_s (so
        whole windows but for the ragged last block), into the grid."""
        pooled = relu_requantize(self.adc_cfg, maxpool(signed, self.spec.p_s))
        q0 = r0 // self.spec.p_s
        self.activations[ch0 : ch0 + len(pooled), q0 : q0 + pooled.shape[1]] = pooled


def simulate_layer(
    frame_raw: np.ndarray,
    fused: FusedLayer,
    spec: ConvSpec,
    chain: ChainConfig,
) -> np.ndarray:
    """Simulate the full first layer; returns uint8 (c_o, pool_r, pool_c)
    activations."""
    run = LayerRun(frame_raw, fused, spec, chain.calibration(fused.mag_max), chain.adc)

    def emit(r0: int, r1: int, p0: int, volts: np.ndarray) -> None:
        # Planes p0, p0 + 1 are the two cycles of channel p0 // 2, whose
        # CDS counter runs from its BN preload.
        ch = p0 // 2
        run.store(r0, ch, cds_signed(chain.adc, volts[0::2], volts[1::2], run.preloads[ch]))

    mac_node_voltages(
        chain.array,
        chain.pixel,
        chain.wtc,
        run.phases,
        run.planes,
        spec.k,
        spec.s,
        emit,
        spec.p_s,
    )
    return run.activations


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
