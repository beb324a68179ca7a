"""Bit-exact integer reference model of the fused first layer.

The golden model recomputes the layer with exact integer accumulation
(sum of magnitude * raw-sample products) and converts to ADC codes through
a calibration map derived from the same physical parameters the simulator
uses.  It deliberately mirrors the two-cycle structure of the hardware --
positive and negative magnitudes are quantized separately and meet in the
signed CDS subtraction -- because the +/-1 LSB equivalence contract is
only achievable when both paths quantize at the same points.  For the same
reason it caps each integer tap product where the pixel's headroom clamp
engages.

The calibration map is always derived, never free-set, so the simulator
and the oracle cannot drift apart in units.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .adc import AdcConfig, maxpool, relu_requantize
from .errors import DimensionError, ValidationError
from .mapper import ConvSpec, FusedLayer, output_dims
from .pixel import PixelParams
from .parallel import map_row_blocks
from .pixel_array import ArrayConfig, N_CHANNELS, bayer_phase_stacks, tap_grid
from .wtc import CounterConfig

RAW_MAX = 65535

# Same code-boundary guard the ADC uses for its ramp comparison.
_BOUNDARY_GUARD = 1e-9


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
        if min(self.volts_per_unit_product, self.lsb_per_unit, self.tap_saturation) <= 0:
            raise ValidationError("calibration quantities must be positive")

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
        t_full = mag_max * wtc_cfg.exposure_multiplier * wtc_cfg.t_step
        volts = pixel.i_max * t_full / pixel.c_f / array_cfg.divider
        # A tap discharges i_max * (raw / RAW_MAX) * magnitude * 2^window *
        # t_step / c_f volts until the pixel clamps it at headroom.
        charge_per_mag = pixel.i_max * wtc_cfg.exposure_multiplier * wtc_cfg.t_step
        saturation = pixel.headroom * pixel.c_f * RAW_MAX / charge_per_mag
        return cls(volts, volts / adc_cfg.lsb, saturation)


def offset_codes(fused: FusedLayer, cal: CalibrationMap, adc_cfg: AdcConfig) -> np.ndarray:
    """Per-channel BN offsets converted to preloaded CDS counter codes.

    The fused offset B lives in the network's accumulator units; one such
    unit equals volts_per_unit_product / (mag_max * weight_scale) volts.
    With an all-zero weight tensor there is no voltage scale to map
    through, so the preload degenerates to zero.
    """
    if fused.weight_scale == 0.0:
        return np.zeros(fused.offsets.shape, dtype=np.int64)
    volts = fused.offsets * cal.volts_per_unit_product / (fused.mag_max * fused.weight_scale)
    return np.rint(volts / adc_cfg.lsb).astype(np.int64)


def _polarity_codes(
    phases, mags: np.ndarray, spec: ConvSpec, code_scale: float, code_max: int, tap_saturation: float
) -> np.ndarray:
    """Quantized codes for one polarity: exact integer tap accumulation,
    then a single scale to codes.  Tap products magnitude*raw fit easily
    in int64; each is capped at int(tap_saturation), the pixel's headroom
    clamp, which only taps with magnitude * RAW_MAX above it can reach.
    phases are the bayer_phase_stacks of the int64 frame; taps accumulate
    in (column, row, channel) order over row blocks."""
    k, s = spec.k, spec.s
    out_r, out_c = tap_grid(phases, k, s)
    taps = [
        (phases[i % s][j % s][ch], i // s, j // s, int(mags[ch, i, j]))
        for j in range(k)
        for i in range(k)
        for ch in range(N_CHANNELS)
        if mags[ch, i, j] != 0
    ]
    codes = np.empty((out_r, out_c), dtype=np.int64)

    def accumulate_block(r0: int, r1: int) -> None:
        acc = codes[r0:r1]
        acc.fill(0)
        product = np.empty_like(acc)
        for plane, di, dj, m in taps:
            np.multiply(plane[di + r0 : di + r1, dj : dj + out_c], m, out=product)
            if m * RAW_MAX > tap_saturation:
                np.minimum(product, int(tap_saturation), out=product)
            np.add(acc, product, out=acc)
        scaled = np.floor(acc * code_scale + _BOUNDARY_GUARD).astype(np.int64)
        np.minimum(scaled, code_max, out=acc)

    map_row_blocks(accumulate_block, out_r, out_c)
    return codes


def golden_layer(
    frame_raw: np.ndarray,
    fused: FusedLayer,
    spec: ConvSpec,
    adc_cfg: AdcConfig,
    cal: CalibrationMap,
) -> np.ndarray:
    """Reference activations, shape (c_o, pool_rows, pool_cols).

    frame_raw holds integer samples in [0, 65535].  Padding is zero border
    samples, matching the simulator's zero-photocurrent border.
    """
    raw = np.asarray(frame_raw)
    if raw.ndim != 2:
        raise DimensionError("frame must be 2-D")
    if not np.issubdtype(raw.dtype, np.integer):
        raise ValidationError("golden_layer expects integer raw samples")
    if np.any(raw < 0) or np.any(raw > RAW_MAX):
        raise ValidationError(f"raw samples must be in [0, {RAW_MAX}]")
    if fused.pos_mags.shape != (spec.c_o, N_CHANNELS, spec.k, spec.k):
        raise DimensionError(
            f"fused planes shape {fused.pos_mags.shape} != "
            f"{(spec.c_o, N_CHANNELS, spec.k, spec.k)}"
        )
    if spec.p:
        raw = np.pad(raw, spec.p)
    phases = bayer_phase_stacks(raw.astype(np.int64), spec.s)
    # One unit product is mag_max * RAW_MAX in integer tap units.
    code_scale = cal.lsb_per_unit / (fused.mag_max * RAW_MAX)
    bn_codes = offset_codes(fused, cal, adc_cfg)
    (out_r, out_c), (pool_r, pool_c) = output_dims(spec, *np.asarray(frame_raw).shape)
    result = np.empty((spec.c_o, pool_r, pool_c), dtype=np.int64)
    limits = (code_scale, adc_cfg.code_max, cal.tap_saturation)
    for ch_out in range(spec.c_o):
        pos = _polarity_codes(phases, fused.pos_mags[ch_out], spec, *limits)
        neg = _polarity_codes(phases, fused.neg_mags[ch_out], spec, *limits)
        signed = pos - neg + int(bn_codes[ch_out])
        per_node = relu_requantize(adc_cfg, signed)
        result[ch_out] = maxpool(per_node, spec.p_s)
    return result


@dataclass(frozen=True)
class CompareReport:
    """Element-wise comparison of simulator output against the oracle."""

    max_abs_delta: int
    fraction_exact: float
    fraction_within_1: float
    n_nodes: int
    max_within: int
    passed: bool

    def to_dict(self) -> dict:
        return {
            "max_abs_delta": self.max_abs_delta,
            "fraction_exact": self.fraction_exact,
            "fraction_within_1": self.fraction_within_1,
            "n_nodes": self.n_nodes,
            "max_within": self.max_within,
            "passed": self.passed,
        }


def compare_runs(sim_out: np.ndarray, gold_out: np.ndarray, max_within: int = 1) -> CompareReport:
    """Compare activation grids; passes when every node is within
    max_within codes of the oracle."""
    sim = np.asarray(sim_out)
    gold = np.asarray(gold_out)
    if sim.shape != gold.shape:
        raise DimensionError(f"grid shapes differ: {sim.shape} vs {gold.shape}")
    delta = np.abs(sim.astype(np.int64) - gold.astype(np.int64))
    n = delta.size
    within = float(np.count_nonzero(delta <= max_within)) / n
    return CompareReport(
        max_abs_delta=int(delta.max()) if n else 0,
        fraction_exact=float(np.count_nonzero(delta == 0)) / n,
        fraction_within_1=float(np.count_nonzero(delta <= 1)) / n,
        n_nodes=n,
        max_within=max_within,
        passed=bool(within == 1.0),
    )
