"""Maps a first-layer convolution onto the pixel array.

Covers the algorithm-side preparation (batch-norm fusion into the weight
tensor and a per-channel offset, then symmetric sign-magnitude
quantization to the 4-bit range the weight-to-time converter stores) and
the hardware-side planning (which output windows can run in the same
cycle without sharing a pixel column, and how many cycles cover the whole
output grid).

BN fusion: a BN layer with parameters gamma, beta, running mean mu and
variance sigma_sq implements Y = A*X + B at inference with

    A = gamma / sqrt(sigma_sq + eps)
    B = beta - gamma * mu / sqrt(sigma_sq + eps)

A folds into the weights; B preloads the ADC's CDS counter, which moves
the ReLU threshold to -B.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import DimensionError, ScheduleError, ValidationError
from .pixel_array import N_CHANNELS
from .wtc import MAG_MAX


@dataclass(frozen=True)
class ConvSpec:
    """First-layer convolution geometry and weight precision (the
    activation width is adc.out_bits).

    weight_mag_bits selects the stored magnitude range: 4 uses the full
    0..15 comparator range with sign carried by cycle membership; 3 keeps
    magnitudes in 0..7 for a sign-inclusive 4-bit reading.
    """

    k: int = 7
    s: int = 2
    p: int = 0
    c_o: int = 16
    p_s: int = 2
    weight_mag_bits: int = 4

    def __post_init__(self):
        if self.k < 1:
            raise ValidationError(f"kernel size must be >= 1, got {self.k}")
        if self.s < 1:
            raise ValidationError(f"stride must be >= 1, got {self.s}")
        if self.p < 0:
            raise ValidationError(f"padding must be >= 0, got {self.p}")
        if self.c_o < 1:
            raise ValidationError(f"output channels must be >= 1, got {self.c_o}")
        if self.p_s < 1:
            raise ValidationError(f"pooling stride must be >= 1, got {self.p_s}")
        if self.weight_mag_bits not in (3, 4):
            raise ValidationError("weight_mag_bits must be 3 or 4")

    @property
    def mag_max(self) -> int:
        return (1 << self.weight_mag_bits) - 1


@dataclass(frozen=True)
class BnParams:
    """Per-output-channel batch-norm statistics; epsilon is shared."""

    gamma: np.ndarray
    beta: np.ndarray
    mu: np.ndarray
    sigma_sq: np.ndarray
    epsilon: float = 1e-5

    def __post_init__(self):
        object.__setattr__(self, "gamma", np.asarray(self.gamma, dtype=float))
        object.__setattr__(self, "beta", np.asarray(self.beta, dtype=float))
        object.__setattr__(self, "mu", np.asarray(self.mu, dtype=float))
        object.__setattr__(self, "sigma_sq", np.asarray(self.sigma_sq, dtype=float))
        n = self.gamma.shape
        for name in ("beta", "mu", "sigma_sq"):
            if getattr(self, name).shape != n:
                raise ValidationError("BN parameter arrays must share one shape")
        if np.any(self.sigma_sq < 0):
            raise ValidationError("BN running variance must be >= 0")
        if not (math.isfinite(self.epsilon) and self.epsilon > 0):
            raise ValidationError(f"BN epsilon must be finite and > 0, got {self.epsilon}")

    @classmethod
    def identity(cls, channels: int) -> "BnParams":
        return cls(
            gamma=np.ones(channels),
            beta=np.zeros(channels),
            mu=np.zeros(channels),
            sigma_sq=np.ones(channels),
            epsilon=1e-12,
        )


def fuse_bn(weights: np.ndarray, bn: BnParams):
    """Fold BN scale into the weights; return (scaled_weights, offsets).

    weights has shape (c_o, c_in, k, k); offsets has shape (c_o,).
    """
    w = np.asarray(weights, dtype=float)
    if w.ndim != 4:
        raise ValidationError(f"weight tensor must be 4-D (c_o, c_in, k, k), got {w.shape}")
    if bn.gamma.shape != (w.shape[0],):
        raise ValidationError(
            f"BN arrays must have length c_o={w.shape[0]}, got {bn.gamma.shape}"
        )
    with np.errstate(over="ignore"):
        variance = bn.sigma_sq + bn.epsilon
    beyond = np.flatnonzero(~np.isfinite(variance))
    if beyond.size:
        raise ValidationError(f"BN sigma_sq + epsilon of channel {beyond[0]} is not finite")
    inv_std = 1.0 / np.sqrt(variance)
    scale = bn.gamma * inv_std
    offsets = bn.beta - bn.gamma * bn.mu * inv_std
    scaled = w * scale[:, None, None, None]
    return scaled, offsets


@dataclass(frozen=True)
class FusedLayer:
    """BN-fused, sign-magnitude quantized first layer.

    pos_mags/neg_mags hold the per-cycle magnitude planes, shape
    (c_o, c_in, k, k); a weight is nonzero in at most one of them.
    weight_scale is the shared quantization step (per tensor, because the
    analog path has one global exposure step).
    """

    scaled_weights: np.ndarray
    offsets: np.ndarray
    pos_mags: np.ndarray
    neg_mags: np.ndarray
    weight_scale: float
    mag_max: int

    def dequantized(self) -> np.ndarray:
        signed = self.pos_mags.astype(float) - self.neg_mags.astype(float)
        return signed * self.weight_scale

    def polarity_planes(self, spec: ConvSpec) -> np.ndarray:
        """Both layer kernels' planes, one per polarity cycle: (pos_0, neg_0,
        pos_1, ...).  DimensionError unless they are spec's (c_o, 4, k, k)."""
        expected = (spec.c_o, N_CHANNELS, spec.k, spec.k)
        if self.pos_mags.shape != expected:
            raise DimensionError(f"fused planes shape {self.pos_mags.shape} != {expected}")
        return np.stack([self.pos_mags, self.neg_mags], axis=1).reshape(-1, *expected[1:])


def quantize_weights(scaled_weights: np.ndarray, offsets: np.ndarray, mag_max: int = MAG_MAX) -> FusedLayer:
    """Symmetric sign-magnitude quantization into positive/negative planes.

    weight_scale = max|w| / mag_max; magnitudes round to [0, mag_max] and
    land in the plane matching their sign.  An all-zero tensor is a valid
    degenerate case with weight_scale 0.
    """
    w = np.asarray(scaled_weights, dtype=float)
    if not np.all(np.isfinite(w)):
        raise ValidationError("quantize_weights: weights must be finite")
    if mag_max < 1:
        raise ValidationError("mag_max must be >= 1")
    peak = float(np.max(np.abs(w))) if w.size else 0.0
    if peak == 0.0:
        mags = np.zeros(w.shape, dtype=np.uint8)
        return FusedLayer(
            scaled_weights=w.copy(),
            offsets=np.asarray(offsets, dtype=float).copy(),
            pos_mags=mags,
            neg_mags=mags.copy(),
            weight_scale=0.0,
            mag_max=mag_max,
        )
    scale = peak / mag_max
    if scale == 0.0:
        raise ValidationError(
            f"quantize_weights: largest fused weight {peak!r} is too small for a "
            f"quantization step (max|w| / {mag_max} underflows to 0)"
        )
    mags = np.rint(np.abs(w) / scale).astype(np.int64)
    mags = np.clip(mags, 0, mag_max).astype(np.uint8)
    pos = np.where(w > 0, mags, 0).astype(np.uint8)
    neg = np.where(w < 0, mags, 0).astype(np.uint8)
    return FusedLayer(
        scaled_weights=w.copy(),
        offsets=np.asarray(offsets, dtype=float).copy(),
        pos_mags=pos,
        neg_mags=neg,
        weight_scale=scale,
        mag_max=mag_max,
    )


def fuse_and_quantize(weights: np.ndarray, bn: BnParams, mag_max: int = MAG_MAX) -> FusedLayer:
    scaled, offsets = fuse_bn(weights, bn)
    return quantize_weights(scaled, offsets, mag_max)


def output_dims(spec: ConvSpec, rows: int, cols: int):
    """Convolution and post-pooling output dimensions.

    Conv dims use floor((dim - k + 2p)/s) + 1 per axis; pooling dims use
    ceiling division (ragged edges pool over partial windows).
    """
    out_r = (rows - spec.k + 2 * spec.p) // spec.s + 1
    out_c = (cols - spec.k + 2 * spec.p) // spec.s + 1
    if out_r < 1 or out_c < 1:
        raise ValidationError(
            f"conv output dims nonpositive for {rows}x{cols} with k={spec.k}, s={spec.s}, p={spec.p}"
        )
    pool_r = -(-out_r // spec.p_s)
    pool_c = -(-out_c // spec.p_s)
    return (out_r, out_c), (pool_r, pool_c)


@dataclass(frozen=True)
class Schedule:
    """Column-disjoint window schedule for one channel pass, as counts.

    Each output row takes cycles_per_row cycles; the leading cycle carries
    max_parallel windows.
    """

    spec: ConvSpec
    out_rows: int
    out_cols: int
    max_parallel: int
    cycles_per_row: int

    @property
    def cycle0_active_pixels(self) -> int:
        return self.max_parallel * self.spec.k * self.spec.k * N_CHANNELS

    def total_active_pixels(self) -> int:
        k = self.spec.k
        return self.out_rows * self.out_cols * k * k * N_CHANNELS

    def n_cycles(self) -> int:
        return self.out_rows * self.cycles_per_row


def build_schedule(spec: ConvSpec, rows: int, cols: int) -> Schedule:
    """Count the column-disjoint window cycles covering the output grid.

    Windows scheduled together sit pitch = lcm(k, s) apart in output
    columns (s*pitch raw pixel columns), so no two share a pixel column,
    and at most max_parallel = floor((cols - k + 2p) / (s*pitch)) of them
    run per cycle.  In each output row, phase phi < pitch holds the
    ceil((out_c - phi) / pitch) output columns phi, phi + pitch, ...,
    split into ceil(that / max_parallel) cycles: with a, b = divmod(out_c,
    pitch), the first b phases hold a + 1 columns and the others a.  Phase
    0 holds at least max_parallel columns, so the leading cycle carries
    exactly max_parallel windows and max_parallel * k^2 * 4 active pixels.
    Every output node is covered exactly once.  The counts are closed
    form: neither a cycle nor a phase is enumerated.
    """
    if rows + 2 * spec.p < spec.k or cols + 2 * spec.p < spec.k:
        raise ScheduleError(
            f"padded image {rows}x{cols} (p={spec.p}) smaller than kernel {spec.k}"
        )
    (out_r, out_c), _ = output_dims(spec, rows, cols)
    pitch = math.lcm(spec.k, spec.s)
    max_parallel = max(1, (cols - spec.k + 2 * spec.p) // (spec.s * pitch))
    a, b = divmod(out_c, pitch)
    return Schedule(
        spec=spec,
        out_rows=out_r,
        out_cols=out_c,
        max_parallel=max_parallel,
        cycles_per_row=b * -(-(a + 1) // max_parallel) + (pitch - b) * -(-a // max_parallel),
    )
