"""Weight-to-time converter.

A stored 4-bit weight magnitude is matched against a sliding 4-bit window
of a free-running 7-bit global counter.  The match fires a reset pulse, so
the exposure seen by the pixel runs from counter start to the first tick
whose windowed value equals the weight: exposure = magnitude * 2**window
ticks.  Window selection rescales every exposure by 1X/2X/4X/8X without
touching the stored weights.

Tick arithmetic is exact integer math; ticks convert to seconds only at
the boundary to the device model.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import ValidationError

COUNTER_BITS = 7
WEIGHT_BITS = 4
MAG_MAX = (1 << WEIGHT_BITS) - 1
# Every 4-bit slice of the 7-bit counter: windows 0..3.
WINDOWS = tuple(range(COUNTER_BITS - WEIGHT_BITS + 1))


@dataclass(frozen=True)
class CounterConfig:
    """Global counter configuration.

    t_step: seconds per counter tick.
    window: which 4-bit slice of the 7-bit counter feeds the comparators;
        window w compares counter bits (3+w)..w, scaling exposure by 2**w.
    """

    t_step: float = 1e-6
    window: int = 0

    def __post_init__(self):
        if self.window not in WINDOWS:
            raise ValidationError(f"counter window must be one of {WINDOWS}, got {self.window}")
        if not (math.isfinite(self.t_step) and self.t_step > 0):
            raise ValidationError(f"counter t_step must be finite and > 0, got {self.t_step}")

    @property
    def exposure_multiplier(self) -> int:
        return 1 << self.window


def _check_magnitude(magnitude) -> None:
    m = np.asarray(magnitude)
    if not np.issubdtype(m.dtype, np.integer):
        raise ValidationError("weight magnitude must be an integer")
    if m.size and (m.min() < 0 or m.max() > MAG_MAX):
        raise ValidationError(f"weight magnitude must be in [0, {MAG_MAX}]")


def match_ticks(cfg: CounterConfig, magnitude):
    """First counter tick at which the selected window equals the weight.

    Exact integer arithmetic: magnitude << window.  Accepts scalars or
    integer arrays.
    """
    _check_magnitude(magnitude)
    ticks = np.asarray(magnitude) << cfg.window
    if ticks.ndim == 0:
        return int(ticks)
    return ticks


def match_time(cfg: CounterConfig, magnitude):
    """Exposure duration in seconds before the weighted reset fires."""
    ticks = match_ticks(cfg, magnitude)
    t = np.asarray(ticks, dtype=float) * cfg.t_step
    if t.ndim == 0:
        return float(t)
    return t
