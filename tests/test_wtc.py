import numpy as np
import pytest

from ctia_ipc.errors import ValidationError
from ctia_ipc.wtc import (
    COUNTER_BITS,
    CounterConfig,
    match_ticks,
    match_time,
)


def first_match_tick(window: int, magnitude: int) -> int:
    """Brute-force oracle: tick the 7-bit counter and compare the selected
    4-bit window bitwise against the stored weight."""
    for tick in range(1 << COUNTER_BITS):
        if (tick >> window) & 0xF == magnitude:
            return tick
    raise AssertionError("no match in a full counter sweep")


class TestMatchTime:
    def test_zero_weight_immediate_reset(self):
        for window in range(4):
            assert match_time(CounterConfig(window=window), 0) == 0.0

    def test_example_full_scale(self):
        cfg = CounterConfig(t_step=1e-6, window=0)
        assert match_time(cfg, 15) == 15 * 1e-6

    def test_example_window3(self):
        cfg = CounterConfig(t_step=1e-6, window=3)
        assert match_ticks(cfg, 5) == 40
        assert match_time(cfg, 5) == 40 * 1e-6

    def test_brute_force_equivalence_exhaustive(self):
        # Full cross product: every counter tick x 16 weights x 4 windows.
        for window in range(4):
            cfg = CounterConfig(window=window)
            for mag in range(16):
                assert match_ticks(cfg, mag) == first_match_tick(window, mag)

    def test_closed_form_exactness(self):
        for window in range(4):
            cfg = CounterConfig(t_step=0.5e-6, window=window)
            for mag in range(16):
                assert match_ticks(cfg, mag) == mag * (1 << window)
                assert match_time(cfg, mag) == (mag << window) * cfg.t_step

    def test_window_scaling_exact(self):
        base = {m: match_ticks(CounterConfig(window=0), m) for m in range(1, 16)}
        for window in range(1, 4):
            cfg = CounterConfig(window=window)
            for mag in range(1, 16):
                assert match_ticks(cfg, mag) == base[mag] * (1 << window)

    def test_rejects_out_of_range(self):
        cfg = CounterConfig()
        with pytest.raises(ValidationError):
            match_ticks(cfg, 16)
        with pytest.raises(ValidationError):
            match_ticks(cfg, -1)
        with pytest.raises(ValidationError):
            match_ticks(cfg, 1.5)

    def test_vectorized(self):
        cfg = CounterConfig(window=2)
        ticks = match_ticks(cfg, np.arange(16))
        assert ticks.tolist() == [m * 4 for m in range(16)]


class TestCounterConfig:
    def test_invalid_window(self):
        with pytest.raises(ValidationError):
            CounterConfig(window=4)

    def test_invalid_t_step(self):
        with pytest.raises(ValidationError):
            CounterConfig(t_step=0.0)

    def test_multipliers(self):
        assert [CounterConfig(window=w).exposure_multiplier for w in range(4)] == [1, 2, 4, 8]
