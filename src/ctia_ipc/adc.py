"""Column-parallel 6-bit single-slope ADC with digital CDS.

One conversion compares the charge-bitline voltage against a linear ramp
while a counter runs; the count at the crossing is the code.  Running the
counter up for the positive-weight sample and down for the negative-weight
sample turns the CDS counter into a signed accumulator, and preloading it
with the batch-norm offset folds the BN bias in for free.  ReLU is just
clipping negative counter results to zero, requantization drops the two
LSBs, and max pooling reduces the output grid.

AdcConfig holds what every converter shares, the ramp span and the
requantized width; each channel's BN preload is cds_signed's argument.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass

import numpy as np

from .errors import StateError, ValidationError

ADC_BITS = 6

# Guard against float division landing one ulp below a code boundary; the
# counter itself is exact.
_BOUNDARY_GUARD = 1e-9


@dataclass(frozen=True)
class AdcConfig:
    """v_fs is the ramp span of the ADC_BITS-bit converter; out_bits is
    the requantized activation width."""

    v_fs: float = 0.64
    out_bits: int = 4

    def __post_init__(self):
        if not (math.isfinite(self.v_fs) and self.lsb > 0):
            raise ValidationError(f"adc.v_fs must be finite with an LSB > 0, got {self.v_fs} (LSB {self.lsb})")
        if not 1 <= self.out_bits <= ADC_BITS:
            raise ValidationError(
                f"adc.out_bits must be in [1, {ADC_BITS}], got {self.out_bits}"
            )

    @property
    def lsb(self) -> float:
        return self.v_fs / (1 << ADC_BITS)

    @property
    def code_max(self) -> int:
        return (1 << ADC_BITS) - 1

    @property
    def out_max(self) -> int:
        return (1 << self.out_bits) - 1


def _counts(cfg: AdcConfig, v, dtype) -> np.ndarray:
    """min(floor(v / lsb), code_max) of every voltage, as a dtype array.
    float32 volts are read as they are, with no float64 copy: the divide
    runs in float64 (lsb is a float64 scalar, so NEP 50 picks that loop)
    and each gets the code of its exact float64 widening."""
    arr = np.asarray(v)
    if arr.dtype != np.float32:
        arr = np.asarray(arr, dtype=float)
    if arr.size:
        # min and max are NaN when any element is, so one pair checks all.
        lo, hi = arr.min(), arr.max()
        if not (math.isfinite(lo) and math.isfinite(hi)):
            raise StateError("quantize: voltage must be finite")
        if lo < 0:
            raise StateError("quantize: negative voltage on the ADC input")
    code = np.divide(arr, np.float64(cfg.lsb), out=np.empty(arr.shape))
    code += _BOUNDARY_GUARD
    np.minimum(code, cfg.code_max, out=code)
    # Every count is now finite and >= 0, where truncation is floor.
    return code.astype(dtype)


def signed_code_dtype(code_max: int, bn_codes) -> type:
    """The narrowest integer dtype that holds every signed CDS count,
    [-code_max + min(bn_codes), code_max + max(bn_codes)].  A channel's
    preload that is not finite, or whose counts int64 cannot hold, raises
    ValidationError."""
    codes = np.ravel(bn_codes).tolist()
    widest = np.iinfo(np.int64)
    for ch, code in enumerate(codes):
        # Python compares ints and floats exactly; NaN fails both tests.
        if not widest.min + code_max <= code <= widest.max - code_max:
            raise ValidationError(
                f"BN preload of channel {ch} is {code!r} codes; its signed counts do not fit int64"
            )
    lo = -code_max + int(min(codes))
    hi = code_max + int(max(codes))
    for dtype in (np.int8, np.int16, np.int32):
        info = np.iinfo(dtype)
        if info.min <= lo and hi <= info.max:
            return dtype
    return np.int64


@functools.lru_cache(maxsize=256)
def _cds_dtype(code_max: int, preload: int) -> np.dtype:
    # One lookup per counter preload, not one per conversion block.
    return np.promote_types(np.int16, signed_code_dtype(code_max, preload))


def quantize(cfg: AdcConfig, v):
    """Counter value when the ramp crosses v: min(floor(v / lsb), 63).

    Accepts scalars or arrays.  Charge-bitline voltages are nonnegative by
    construction, so negative input is an invalid analog state.
    """
    code = _counts(cfg, v, np.int64)
    if code.ndim == 0:
        return int(code)
    return code


def cds_signed(cfg: AdcConfig, v_pos, v_neg, preload):
    """Signed CDS result: up-count on the positive-weight sample, down-count
    on the negative-weight sample, starting from the integer BN preload.

    Counts are int16, or the wider signed_code_dtype when the preload needs
    it; a scalar pair gives an int."""
    if not isinstance(preload, (int, np.integer)):
        raise ValidationError(f"the CDS preload must be an integer, got {preload!r}")
    preload = int(preload)
    dtype = _cds_dtype(cfg.code_max, preload)
    code = _counts(cfg, v_pos, dtype)
    code -= _counts(cfg, v_neg, dtype)
    code += preload
    if code.ndim == 0:
        return int(code)
    return code


def relu_requantize(cfg: AdcConfig, code):
    """Clip negative codes to zero, then truncate to out_bits."""
    arr = np.asarray(code)
    if not np.issubdtype(arr.dtype, np.integer):
        raise ValidationError("relu_requantize expects integer codes")
    # One fresh buffer, shifted and capped in place; the input is untouched.
    value = np.maximum(arr, 0)
    if value.ndim == 0:
        return min(int(value) >> (ADC_BITS - cfg.out_bits), cfg.out_max)
    value >>= ADC_BITS - cfg.out_bits
    np.minimum(value, cfg.out_max, out=value)
    return value


def maxpool(grid, stride: int):
    """Non-overlapping stride x stride max pooling of the last two axes
    with ceiling output dimensions; a ragged edge is pooled over the
    partial window."""
    if stride < 1:
        raise ValidationError(f"pooling stride must be >= 1, got {stride}")
    arr = np.asarray(grid)
    if arr.ndim < 2 or arr.size == 0:
        raise ValidationError("maxpool expects a non-empty grid of at least 2 dimensions")
    # Window offset (0, 0) reaches every pooled cell; a later offset's view
    # is one row or column shorter where the edge is ragged.
    pooled = arr[..., ::stride, ::stride].copy()
    for a, b in list(np.ndindex(stride, stride))[1:]:
        view = arr[..., a::stride, b::stride]
        corner = pooled[..., : view.shape[-2], : view.shape[-1]]
        np.maximum(corner, view, out=corner)
    return pooled
