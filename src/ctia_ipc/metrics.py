"""Formula-level performance metrics, linearity sweeps, and Monte Carlo
mismatch analysis.

Two bandwidth-reduction figures are reported side by side.  br_printed
evaluates the closed-form estimate

    BR = (I / O) * (3/4) * (12 / N_b) * (1 / p_s^2)

literally, with I the raw element count (rows * cols * 4 channels) and O
the pre-pooling conv output element count.  br_bits is the data-volume
ratio of 12-bit input samples to N_b-bit post-pooling activations, which
is the reading that lands at 12.08x for the default configuration.  The
two do not agree -- the closed form's 3/4 and 1/p_s^2 factors shrink it
well below the bit-ratio -- so both are emitted rather than hiding the
discrepancy.

Throughput and efficiency outputs are contextualized against measured
reference figures carried as metadata; they are not desk-reproducible
targets.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .errors import ValidationError
from .mapper import ConvSpec, Schedule, output_dims
from .parallel import row_blocks
from .pipeline import ChainConfig, sweep_window_chain
from .pixel_array import N_CHANNELS, charge_share_divider

INPUT_SAMPLE_BITS = 12

REFERENCE = {
    "paper_br": 12.08,
    "paper_gops": 1.98e9,
    "paper_gops_w": 3.39e9,
    "paper_power_per_pixel_w": 3.26e-6,
}

SWEEP_MODES = ("vs_weight", "vs_current", "vs_product", "multiwindow")
MULTIWINDOW_KERNELS = (3, 5, 7)


def bandwidth_reduction(spec: ConvSpec, rows: int, cols: int):
    """Return (br_printed, br_bits) for the given frame size."""
    (out_r, out_c), (pool_r, pool_c) = output_dims(spec, rows, cols)
    i_elems = rows * cols * N_CHANNELS
    o_conv = out_r * out_c * spec.c_o
    o_pool = pool_r * pool_c * spec.c_o
    br_printed = (i_elems / o_conv) * 0.75 * (INPUT_SAMPLE_BITS / spec.n_b) / (spec.p_s ** 2)
    br_bits = (i_elems * INPUT_SAMPLE_BITS) / (o_pool * spec.n_b)
    return br_printed, br_bits


def op_count(spec: ConvSpec, rows: int, cols: int) -> int:
    """Multiply+add operation count for one frame (2 ops per kernel tap)."""
    (out_r, out_c), _ = output_dims(spec, rows, cols)
    return out_r * out_c * spec.c_o * 2 * spec.k * spec.k * N_CHANNELS


def default_cycle_time(wtc_t_step: float, window: int, adc_ticks: int = 64) -> float:
    """Worst-case cycle: longest exposure plus one full ADC conversion."""
    return (15 * (1 << window) + adc_ticks) * wtc_t_step


@dataclass(frozen=True)
class EnergyEstimate:
    frame_time: float
    energy: float
    gops: float
    gops_per_watt: float


def energy_estimate(
    spec: ConvSpec,
    rows: int,
    cols: int,
    power_per_pixel: float,
    schedule: Schedule,
    cycle_time: float,
) -> EnergyEstimate:
    """Frame time, energy, and throughput from the cycle schedule.

    The schedule covers one channel pass; the layer repeats it for each of
    the c_o output channels, and every cycle runs twice (positive and
    negative polarity).
    """
    if power_per_pixel <= 0 or cycle_time <= 0:
        raise ValidationError("power_per_pixel and cycle_time must be > 0")
    n_cycles = schedule.n_cycles() * spec.c_o
    frame_time = n_cycles * cycle_time * 2
    active_total = schedule.total_active_pixels() * spec.c_o
    energy = active_total * power_per_pixel * cycle_time * 2
    ops = op_count(spec, rows, cols)
    gops = ops / frame_time
    avg_power = energy / frame_time
    return EnergyEstimate(
        frame_time=frame_time,
        energy=energy,
        gops=gops,
        gops_per_watt=gops / avg_power,
    )


@dataclass(frozen=True)
class MetricsReport:
    br_printed: float
    br_bits: float
    activation_count_cycle0: int
    total_ops: int
    frame_time: float
    energy: float
    gops: float
    gops_per_watt: float
    reference: dict = field(default_factory=lambda: dict(REFERENCE))

    def to_dict(self) -> dict:
        return {
            "br_printed": self.br_printed,
            "br_bits": self.br_bits,
            "activation_count_cycle0": self.activation_count_cycle0,
            "total_ops": self.total_ops,
            "frame_time_s": self.frame_time,
            "energy_j": self.energy,
            "gops": self.gops,
            "gops_per_watt": self.gops_per_watt,
            "reference": dict(self.reference),
        }


def metrics_report(
    spec: ConvSpec,
    rows: int,
    cols: int,
    schedule: Schedule,
    power_per_pixel: float,
    cycle_time: float,
) -> MetricsReport:
    br_printed, br_bits = bandwidth_reduction(spec, rows, cols)
    estimate = energy_estimate(spec, rows, cols, power_per_pixel, schedule, cycle_time)
    return MetricsReport(
        br_printed=br_printed,
        br_bits=br_bits,
        activation_count_cycle0=schedule.cycle0_active_pixels,
        total_ops=op_count(spec, rows, cols),
        frame_time=estimate.frame_time,
        energy=estimate.energy,
        gops=estimate.gops,
        gops_per_watt=estimate.gops_per_watt,
    )


# ---------------------------------------------------------------------------
# Monte Carlo mismatch analysis
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class MismatchSpec:
    """Gaussian perturbation magnitudes.

    sigma_cap: relative std of every capacitor (accumulation-network caps
        draw globally per trial, pixel feedback caps per instance).
    sigma_vrst: volts std of the reset level, per instance.
    sigma_gain: relative std of the photocurrent gain, per instance.
    """

    sigma_cap: float = 0.0
    sigma_vrst: float = 0.0
    sigma_gain: float = 0.0
    trials: int = 1000
    seed: int = 0

    def __post_init__(self):
        for name in ("sigma_cap", "sigma_vrst", "sigma_gain"):
            value = getattr(self, name)
            if not (math.isfinite(value) and value >= 0):
                raise ValidationError(f"mismatch {name} must be finite and >= 0, got {value!r}")
        if self.trials < 1:
            raise ValidationError("mismatch trials must be >= 1")


@dataclass(frozen=True)
class McResult:
    samples: np.ndarray
    nominal: float
    mean: float
    std: float
    hist_counts: np.ndarray
    hist_edges: np.ndarray


def _mc_trials(
    chain: ChainConfig,
    k: int,
    magnitude: int,
    x_norm: float,
    mm: MismatchSpec,
    t0: int,
    t1: int,
) -> np.ndarray:
    """Trials t0..t1-1 of the perturbed single-window analog chain.

    Each trial's random stream derives from (seed, trial), so a trial's
    value does not depend on which chunk computes it.  Draw order is
    fixed: global caps (c1, c2, c_f_acc), then per-pixel gain, feedback
    cap, and reset-level offset, all from one standard_normal fill.
    """
    n_pix = N_CHANNELS * k * k
    z = np.empty((t1 - t0, 3 + 3 * n_pix))
    for row, trial in zip(z, range(t0, t1)):
        np.random.default_rng([mm.seed, trial]).standard_normal(out=row)
    g_c1, g_c2, g_cf = (1.0 + mm.sigma_cap * z[:, :3]).T
    pixel_draws = z[:, 3:].reshape(-1, 3, N_CHANNELS, k, k)
    gain = 1.0 + mm.sigma_gain * pixel_draws[:, 0]
    cap = 1.0 + mm.sigma_cap * pixel_draws[:, 1]
    vrst_off = mm.sigma_vrst * pixel_draws[:, 2]

    pixel = chain.pixel
    exposure = magnitude * chain.wtc.exposure_multiplier * chain.wtc.t_step
    current = pixel.i_max * x_norm * gain
    dv = np.minimum(current * exposure / (pixel.c_f * cap), pixel.headroom) + vrst_off
    dv = np.maximum(dv, 0.0)
    array = chain.array
    divider = charge_share_divider(array.c1 * g_c1, array.c2 * g_c2, array.c_f_acc * g_cf)
    # The MAC kernel's order: a CBL per column in (row, channel) order,
    # then the columns in order.
    total = np.zeros(t1 - t0)
    for j in range(k):
        cbl = np.zeros(t1 - t0)
        for i in range(k):
            for ch in range(N_CHANNELS):
                cbl += dv[:, ch, i, j]
        total += cbl
    return total / divider


def monte_carlo(
    chain: ChainConfig,
    mm: MismatchSpec,
    k: int = 7,
    magnitude: int = 8,
    x_norm: float = 0.5,
    hist_bins: int = 30,
) -> McResult:
    """Mismatch distribution of the ADC-input voltage at a fixed weight and
    photocurrent.  Deterministic given mm.seed.  Trials run vectorized in
    chunks of parallel.ROW_BLOCK_NODES pixel instances."""
    # All-zero sigmas turn every perturbation off, so this is the nominal run.
    nominal_spec = MismatchSpec(trials=1, seed=mm.seed)
    nominal = float(_mc_trials(chain, k, magnitude, x_norm, nominal_spec, 0, 1)[0])
    samples = np.concatenate(
        [
            _mc_trials(chain, k, magnitude, x_norm, mm, t0, t1)
            for t0, t1 in row_blocks(mm.trials, N_CHANNELS * k * k)
        ]
    )
    mean = float(samples.mean())
    std = float(samples.std())
    scale = max(abs(mean), 1e-12)
    span = 4 * std if std > 0 else scale
    # A near-degenerate spread still needs resolvable bin edges.
    span = max(span, 32 * np.finfo(float).eps * scale)
    counts, edges = np.histogram(samples, bins=hist_bins, range=(mean - span, mean + span))
    return McResult(
        samples=samples,
        nominal=nominal,
        mean=mean,
        std=std,
        hist_counts=counts,
        hist_edges=edges,
    )


# ---------------------------------------------------------------------------
# Linearity sweeps
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class SweepRow:
    mode: str
    k: int
    w_norm: float
    x_norm: float
    v_cbl: float
    v_adc_in: float
    code: int


def _sweep_order(mode: str, x_points: int):
    """(magnitude, x index) order of a sweep mode's rows."""
    if mode == "vs_current":
        return [(m, i) for i in range(x_points) for m in range(16)]
    if mode in ("vs_weight", "vs_product"):
        return [(m, i) for m in range(16) for i in range(x_points)]
    raise ValidationError(f"unknown sweep mode {mode!r}")


def linearity_sweep(
    chain: ChainConfig,
    modes=SWEEP_MODES,
    x_points: int = 9,
    unit_k: int = 1,
) -> list:
    """Run the requested sweeps through the full chain.

    Single-unit modes use a 1x1 window; multiwindow runs all-equal k x k
    windows for k in {3, 5, 7}.  Weight levels cover the full 16-level WTC
    range.  Every x-point of one (k, magnitude) shares a weight plane, so
    each is one sweep_window_chain call.  Returns SweepRow records matching
    the CSV column contract mode,k,w_norm,x_norm,v_cbl,v_adc_in,code.
    """
    mag_max = 15
    x_grid = np.linspace(0.0, 1.0, x_points)
    x_norms = x_grid.tolist()
    rows = []
    for mode in modes:
        if mode == "multiwindow":
            kernel_sizes = MULTIWINDOW_KERNELS
            order = _sweep_order("vs_product", x_points)
        else:
            kernel_sizes = (unit_k,)
            order = _sweep_order(mode, x_points)
        for k in kernel_sizes:
            # outputs[m] = (v_cbl, v_adc_in, code) lists over the x grid.
            outputs = [
                [a.tolist() for a in sweep_window_chain(chain, k, m, x_grid)]
                for m in range(mag_max + 1)
            ]
            for m, i in order:
                v_cbl, v_adc_in, code = (column[i] for column in outputs[m])
                rows.append(
                    SweepRow(
                        mode=mode,
                        k=k,
                        w_norm=m / mag_max,
                        x_norm=x_norms[i],
                        v_cbl=v_cbl,
                        v_adc_in=v_adc_in,
                        code=code,
                    )
                )
    return rows
