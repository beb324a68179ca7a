"""The characterization chain's batched kernel calls against per-point
loops: a batch of receptive fields in one run_mac_cycle call against one
call per field, a stack of weight planes against one call per plane, and
the sweeps against the chain run one window at a time through the scalar
tap loop.  Results must be equal, not merely close."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ctia_ipc.adc import AdcConfig
from ctia_ipc.cli import _transfer_samples
from ctia_ipc.config import RunConfig
from ctia_ipc.errors import ScheduleError, ValidationError
from ctia_ipc.metrics import MULTIWINDOW_KERNELS, SWEEP_MODES, linearity_sweep
from ctia_ipc.pipeline import ChainConfig, sweep_window_chain
from ctia_ipc.pixel_array import N_CHANNELS, ArrayConfig, run_mac_cycle

from conftest import small_chain
from test_kernels import reference_run_mac_cycle
from test_pipeline import PIXELS


def pixel_chain(name):
    pixel, wtc = PIXELS[name]()
    return ChainConfig(pixel=pixel, wtc=wtc, array=ArrayConfig(rows=2, cols=2), adc=AdcConfig())


@settings(max_examples=60, deadline=None)
@given(
    k=st.integers(1, 7),
    n=st.integers(1, 40),
    name=st.sampled_from(sorted(PIXELS)),
    seed=st.integers(0, 2**32 - 1),
    zero_frac=st.sampled_from([0.0, 0.3, 1.0]),
)
def test_batch_equals_one_field_calls(k, n, name, seed, zero_frac):
    chain = pixel_chain(name)
    pixel = chain.pixel
    rng = np.random.default_rng(seed)
    fields = rng.uniform(0, pixel.i_max, (n, N_CHANNELS, k, k))
    # Full-scale samples reach the clamp of the clamping and edge pixels.
    fields[rng.random(fields.shape) < 0.1] = pixel.i_max
    fields[rng.random(fields.shape) < zero_frac] = 0.0
    mags = rng.integers(0, 16, (N_CHANNELS, k, k))
    mags.flat[0] = 15
    got = run_mac_cycle(chain.array, pixel, chain.wtc, fields, mags)
    assert got.shape == (n,) and got.dtype == np.float64
    singles = [run_mac_cycle(chain.array, pixel, chain.wtc, field, mags) for field in fields]
    assert all(type(v) is float for v in singles)
    assert got.tolist() == singles
    assert singles[0] == reference_run_mac_cycle(chain.array, pixel, chain.wtc, fields[0], mags)


@pytest.mark.parametrize("k", [1, 3, 5, 7])
@pytest.mark.parametrize("name", ["default", "clamped"])
def test_plane_stack_equals_one_plane_calls(k, name):
    chain = pixel_chain(name)
    pixel = chain.pixel
    rng = np.random.default_rng(k)
    x = rng.uniform(0, 1, (12, N_CHANNELS, k, k))
    x[rng.random(x.shape) < 0.2] = 0.0
    x[rng.random(x.shape) < 0.2] = 1.0
    # A dark field and a full-scale one, where the clamped pixel clamps.
    x[0], x[1] = 0.0, 1.0
    fields = x * pixel.i_max
    # Every level, all-equal planes and mixed ones, and an all-zero plane.
    planes = np.concatenate([
        np.broadcast_to(np.arange(16)[:, None, None, None, None], (16, 1, N_CHANNELS, k, k)),
        rng.integers(0, 16, (5, 1, N_CHANNELS, k, k)),
    ])
    got = run_mac_cycle(chain.array, pixel, chain.wtc, fields, planes)
    assert got.shape == (len(planes), len(fields)) and got.dtype == np.float64
    singles = [run_mac_cycle(chain.array, pixel, chain.wtc, fields, plane[0]) for plane in planes]
    assert np.array_equal(got, np.array(singles))
    # One region on a stack keeps its broadcast (m, 1) shape.
    one = run_mac_cycle(chain.array, pixel, chain.wtc, fields[1], planes)
    assert np.array_equal(one, got[:, 1:2])


@pytest.mark.parametrize("mag_shape", [(0, 1, N_CHANNELS, 3, 3), (2, 2, N_CHANNELS, 3, 3)])
def test_bad_plane_stack_rejected(mag_shape):
    chain = small_chain()
    with pytest.raises(ScheduleError):
        run_mac_cycle(chain.array, chain.pixel, chain.wtc, np.zeros((5, N_CHANNELS, 3, 3)),
                      np.ones(mag_shape, dtype=int))


@pytest.mark.parametrize("name", ["default", "clamped"])
def test_level_axis_equals_one_level_calls(name):
    chain = pixel_chain(name)
    x = np.linspace(0.0, 1.0, 7)
    got = sweep_window_chain(chain, 3, np.arange(16), x)
    for level in range(16):
        single = sweep_window_chain(chain, 3, level, x)
        for stacked, alone in zip(got, single):
            assert stacked.shape == (16, 7) and alone.shape == (7,)
            assert np.array_equal(stacked[level], alone)


def reference_sweep_point(chain, k, magnitude, x_norm):
    """One all-equal window through the scalar tap loop and the ADC."""
    region = np.full((N_CHANNELS, k, k), chain.pixel.i_max * x_norm)
    mags = np.full((N_CHANNELS, k, k), magnitude, dtype=np.int64)
    v_adc_in = reference_run_mac_cycle(chain.array, chain.pixel, chain.wtc, region, mags)
    code = min(math.floor(v_adc_in / chain.adc.lsb + 1e-9), chain.adc.code_max)
    return v_adc_in * chain.array.divider / k, v_adc_in, code


def reference_linearity_sweep(chain, x_points):
    """Every mode point by point, in the CSV's row order."""
    x_grid = np.linspace(0.0, 1.0, x_points)
    by_m = [(m, float(x)) for m in range(16) for x in x_grid]
    points = {
        "vs_weight": by_m,
        "vs_current": [(m, float(x)) for x in x_grid for m in range(16)],
        "vs_product": by_m,
    }
    rows = []
    for mode in SWEEP_MODES:
        kernel_sizes = MULTIWINDOW_KERNELS if mode == "multiwindow" else (1,)
        for k in kernel_sizes:
            for m, x in points.get(mode, by_m):
                rows.append((mode, k, m / 15, x, *reference_sweep_point(chain, k, m, x)))
    return rows


@pytest.mark.parametrize("x_points", [2, 9, 17])
@pytest.mark.parametrize("name", ["default", "clamped"])
def test_linearity_sweep_matches_point_loop(name, x_points):
    chain = pixel_chain(name)
    got = linearity_sweep(chain, x_points=x_points)
    assert got == reference_linearity_sweep(chain, x_points)
    assert all(type(row[-1]) is int and type(row[-2]) is float for row in got)


@pytest.mark.parametrize("grid_points", [2, 16])
@pytest.mark.parametrize("name", ["default", "clamped"])
def test_transfer_samples_match_point_loop(name, grid_points):
    pixel, wtc = PIXELS[name]()
    cfg = RunConfig(pixel=pixel, wtc=wtc, transfer_grid_points=grid_points)
    mag_max = cfg.conv.mag_max
    expected = [
        (m / mag_max, float(x), reference_sweep_point(cfg.chain(), 1, m, float(x))[1])
        for m in range(mag_max + 1)
        for x in np.linspace(0.0, 1.0, grid_points)
    ]
    assert _transfer_samples(cfg) == expected


class TestBatchRejected:
    def setup_method(self):
        self.chain = small_chain()

    def run(self, fields, mags):
        return run_mac_cycle(self.chain.array, self.chain.pixel, self.chain.wtc, fields, mags)

    @pytest.mark.parametrize("bad", [np.nan, -1e-12, np.inf])
    def test_bad_current(self, bad):
        fields = np.full((5, N_CHANNELS, 3, 3), 1e-9)
        fields[3, 2, 1, 0] = bad
        with pytest.raises(ValidationError):
            self.run(fields, np.ones((N_CHANNELS, 3, 3), dtype=int))

    @pytest.mark.parametrize("mag_shape", [(N_CHANNELS, 2, 2), (5, N_CHANNELS, 3, 3), (3, 3, 3)])
    def test_plane_shape_mismatch(self, mag_shape):
        with pytest.raises(ScheduleError):
            self.run(np.zeros((5, N_CHANNELS, 3, 3)), np.ones(mag_shape, dtype=int))

    def test_non_square_fields(self):
        with pytest.raises(ScheduleError):
            self.run(np.zeros((5, N_CHANNELS, 3, 2)), np.ones((N_CHANNELS, 3, 2), dtype=int))

    @pytest.mark.parametrize("bad", [np.nan, -0.25, 1.5, np.inf])
    def test_bad_x_norm(self, bad):
        with pytest.raises(ValidationError, match=r"x_norm must be in \[0, 1\]"):
            sweep_window_chain(self.chain, 3, 7, [0.0, 0.5, bad, 1.0])

    def test_x_norms_must_be_1d(self):
        with pytest.raises(ValidationError):
            sweep_window_chain(self.chain, 3, 7, 0.5)
