"""Behavioral model of a single CTIA pixel.

The pixel front-end is a capacitive transimpedance amplifier: photodiode
current integrates onto a feedback capacitor around an amplifier, so the
integration node discharges linearly from its reset level while the
exposure pulse is active.  The amplifier itself is treated as ideal
(infinite gain, zero offset); mismatch and noise are injected only by the
Monte Carlo analysis, never here.

`integrate` is the analog multiply: photocurrent encodes the input
activation and exposure time encodes the weight, so the discharge
magnitude is proportional to their product until the headroom clamp
engages.  `fit_transfer` recovers the affine transfer curve from sampled
(weight, input, voltage) triples; `fit_transfer_model` builds from it the
model document an external training framework consumes in place of the
first convolution layer.
"""

from __future__ import annotations

import math
from dataclasses import astuple, dataclass

import numpy as np

from .errors import FitError, ValidationError

# Full-scale raw sensor sample (16-bit); it maps to exactly i_max.
RAW_MAX = 65535


@dataclass(frozen=True)
class PixelParams:
    """Electrical parameters of one pixel.

    v_rst: reset voltage of the integration node [V]
    c_f: feedback/integration capacitance [F]
    i_max: photocurrent at full-scale pixel value [A]
    headroom: maximum |dV| excursion before the clamp engages [V]
    """

    v_rst: float = 0.8
    c_f: float = 10e-15
    i_max: float = 50e-12
    headroom: float = 0.8

    def __post_init__(self):
        for name in ("v_rst", "c_f", "i_max", "headroom"):
            value = getattr(self, name)
            if not math.isfinite(value):
                raise ValidationError(f"pixel.{name} must be finite, got {value!r}")
        if self.v_rst <= 0:
            raise ValidationError(f"pixel.v_rst must be > 0, got {self.v_rst}")
        if self.c_f <= 0:
            raise ValidationError(f"pixel.c_f must be > 0, got {self.c_f}")
        if self.i_max <= 0:
            raise ValidationError(f"pixel.i_max must be > 0, got {self.i_max}")
        if not 0 < self.headroom <= self.v_rst:
            raise ValidationError(
                f"pixel.headroom must satisfy 0 < headroom <= v_rst, got {self.headroom}"
            )


def integrate(params: PixelParams, photocurrent, exposure):
    """Discharge magnitude |dV| at the integration node after one exposure.

    dV = min(photocurrent * exposure / c_f, headroom).  Accepts scalars or
    numpy arrays (broadcast together); returns the same shape.
    """
    i = np.asarray(photocurrent, dtype=float)
    t = np.asarray(exposure, dtype=float)
    if not np.all(np.isfinite(i)) or not np.all(np.isfinite(t)):
        raise ValidationError("integrate: photocurrent and exposure must be finite")
    if np.any(i < 0):
        raise ValidationError("integrate: photocurrent must be >= 0")
    if np.any(t < 0):
        raise ValidationError("integrate: exposure must be >= 0")
    # One fresh buffer, divided and clamped in place: each temporary would
    # add the array's size to its caller's peak memory.
    dv = i * t
    if dv.ndim == 0:
        return float(np.minimum(dv / params.c_f, params.headroom))
    dv /= params.c_f
    np.minimum(dv, params.headroom, out=dv)
    return dv


def frame_to_photocurrents(raw, i_max: float) -> np.ndarray:
    """Per-pixel photocurrents: i_max * raw / RAW_MAX (full scale maps to
    exactly i_max)."""
    # One fresh buffer, divided and scaled in place: the layer kernel
    # converts every block's rows, and two temporaries per call add to
    # its peak memory.
    current = np.array(raw, dtype=float)
    current /= RAW_MAX
    current *= i_max
    return current


@dataclass(frozen=True)
class FitResult:
    slope: float
    intercept: float
    r_squared: float
    residual_rms: float


def fit_transfer(samples) -> FitResult:
    """Least-squares line through (w_norm * x_norm, volts) samples.

    ``samples`` is an iterable of (w_norm, x_norm, volts) triples, which
    must be finite.  Raises FitError when fewer than two distinct
    abscissae are present or when a fitted number is not finite.
    """
    arr = np.asarray(list(samples), dtype=float)
    if arr.ndim != 2 or arr.shape[1] != 3:
        raise ValidationError("fit_transfer expects (w_norm, x_norm, volts) triples")
    bad = np.flatnonzero(~np.isfinite(arr).all(axis=1))
    if bad.size:
        raise ValidationError(
            f"transfer samples must be finite; sample {bad[0]} is {tuple(arr[bad[0]].tolist())}"
        )
    if arr.shape[0] < 2:
        raise FitError("fit_transfer needs at least 2 samples")
    # Overflow anywhere below ends in a number that is not finite, which
    # is rejected, so numpy's warnings about it would only add noise.
    with np.errstate(over="ignore", invalid="ignore"):
        product = arr[:, 0] * arr[:, 1]
        volts = arr[:, 2]
        span = np.ptp(product)
        if span == 0:
            raise FitError("all sample abscissae identical; fit is degenerate")
        if not math.isfinite(span):
            raise FitError("sample products w_norm * x_norm overflow float64")
        slope, intercept = np.polyfit(product, volts, 1)
        residuals = volts - (slope * product + intercept)
        ss_res = float(np.dot(residuals, residuals))
        centered = volts - volts.mean()
        ss_tot = float(np.dot(centered, centered))
        # Flat-but-consistent data is a perfect fit, not 0/0; the floor absorbs
        # the one-ulp noise a constant column picks up from the mean.
        vscale = float(np.max(np.abs(volts))) if volts.size else 0.0
        flat_floor = (16 * np.finfo(float).eps * max(vscale, 1e-300)) ** 2 * arr.shape[0]
        r_squared = 1.0 if ss_tot <= flat_floor else 1.0 - ss_res / ss_tot
    fit = FitResult(
        slope=float(slope),
        intercept=float(intercept),
        r_squared=r_squared,
        residual_rms=math.sqrt(ss_res / arr.shape[0]),
    )
    if not all(map(math.isfinite, astuple(fit))):
        raise FitError(f"transfer fit is not finite: {fit}")
    return fit


def fit_transfer_model(samples, degree: int = 1) -> dict:
    """The transfer_model.json document of a polynomial fit to samples.

    Degree 1 gives kind "ideal-linear", the line of fit_transfer, with no
    coeffs.  Higher degrees give kind "fitted-polynomial" (the hook for
    curves extracted from external circuit-simulator data): coeffs
    highest degree first, with slope and intercept their last two.  Either
    way the model reads volts = max(poly(w*x), clamp_lo) with clamp_lo =
    min(0, intercept) and no upper clamp (clamp_hi null), and "fit" holds
    the linear fit.  Raises FitError when a fitted number is not finite.
    """
    if degree < 1:
        raise ValidationError("transfer fit degree must be >= 1")
    arr = np.asarray(list(samples), dtype=float)
    fit = fit_transfer(arr)
    coeffs = []
    slope, intercept = fit.slope, fit.intercept
    if degree > 1:
        if arr.shape[0] <= degree:
            raise FitError(f"need more than {degree} samples for a degree-{degree} fit")
        with np.errstate(over="ignore", invalid="ignore"):
            coeffs = np.polyfit(arr[:, 0] * arr[:, 1], arr[:, 2], degree).tolist()
        slope, intercept = coeffs[-2], coeffs[-1]
    if not all(map(math.isfinite, coeffs)):
        raise FitError(f"degree-{degree} transfer fit is not finite: {coeffs}")
    return {
        "kind": "fitted-polynomial" if coeffs else "ideal-linear",
        "slope": slope,
        "intercept": intercept,
        # In this argument order a -0.0 intercept still gives 0.0.
        "clamp_lo": min(0.0, intercept),
        "clamp_hi": None,
        "coeffs": coeffs,
        "fit": {
            "slope": fit.slope,
            "intercept": fit.intercept,
            "r_squared": fit.r_squared,
            "residual_rms": fit.residual_rms,
        },
    }
