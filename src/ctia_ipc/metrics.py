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

Monte Carlo trial t draws from the stream of
np.random.default_rng([seed, t]), bit for bit.  trial_seed_words derives
the PCG64 seed words of every trial in one array pass, so no trial
constructs a SeedSequence; each trial's PCG64 is seeded from its row.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

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
# Bins of the montecarlo_summary.json histogram.
MC_HIST_BINS = 30


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


def energy_estimate(
    spec: ConvSpec,
    rows: int,
    cols: int,
    power_per_pixel: float,
    schedule: Schedule,
    cycle_time: float,
) -> dict:
    """Frame time, energy, and throughput from the cycle schedule, as the
    metrics.json keys frame_time_s, energy_j, ops_per_s and ops_per_j.

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
    ops_per_s = op_count(spec, rows, cols) / frame_time
    return {
        "frame_time_s": frame_time,
        "energy_j": energy,
        "ops_per_s": ops_per_s,
        "ops_per_j": ops_per_s / (energy / frame_time),
    }


def metrics_report(
    spec: ConvSpec,
    rows: int,
    cols: int,
    schedule: Schedule,
    power_per_pixel: float,
    cycle_time: float,
) -> dict:
    """The metrics.json document of one frame.  Raises ValidationError,
    naming the settings, when a figure leaves the float range, which JSON
    cannot hold."""
    try:
        br_printed, br_bits = bandwidth_reduction(spec, rows, cols)
        estimate = energy_estimate(spec, rows, cols, power_per_pixel, schedule, cycle_time)
    except OverflowError:
        raise ValidationError(
            "metrics: array.rows x array.cols x conv.c_o gives counts beyond the float range"
        ) from None
    report = {
        "br_printed": br_printed,
        "br_bits": br_bits,
        "activation_count_cycle0": schedule.cycle0_active_pixels,
        "total_ops": op_count(spec, rows, cols),
        **estimate,
        "reference": dict(REFERENCE),
    }
    beyond = [
        name for name, value in report.items()
        if isinstance(value, float) and not math.isfinite(value)
    ]
    if beyond:
        raise ValidationError(
            f"metrics: {', '.join(beyond)} beyond the float range; the figures scale "
            "with power_per_pixel_w, cycle_time_s and array.rows x array.cols x conv.c_o"
        )
    return report


# ---------------------------------------------------------------------------
# Monte Carlo mismatch analysis
# ---------------------------------------------------------------------------

# The trial index is one uint32 word of a trial's seed entropy.
MAX_TRIALS = 1 << 32


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
        if self.trials > MAX_TRIALS:
            raise ValidationError(
                f"mismatch trials must be <= 2**32 (the trial index is one uint32 "
                f"seed word), got {self.trials}"
            )
        if self.seed < 0:
            raise ValidationError(f"mismatch seed must be >= 0, got {self.seed}")


# numpy's SeedSequence: a pool of 4 uint32 words, filled and mixed by
# hashmix (its constant starts at _INIT_A, times _MULT_A per call) and mix;
# generate_state hashes the pool out with a constant from _INIT_B, times
# _MULT_B per word.
_MASK32 = 0xFFFFFFFF
_POOL_SIZE = 4
_INIT_A, _MULT_A = 0x43B0D7E5, 0x931E8875
_INIT_B, _MULT_B = 0x8B51F9DD, 0x58F38DED
_MIX_MULT_L = np.uint32(0xCA01F9DD)
_MIX_MULT_R = np.uint32(0x4973F715)


def _hash_constants(init: int, mult: int, n_calls: int) -> np.ndarray:
    """The hash constant before each of n_calls hash steps, and after the
    last: init * mult**i mod 2^32 for i in 0..n_calls."""
    consts = [init]
    for _ in range(n_calls):
        consts.append(consts[-1] * mult & _MASK32)
    return np.array(consts, dtype=np.uint32)


# generate_state(4, np.uint64) hashes out 8 uint32 words.
_OUTPUT_HASH = _hash_constants(_INIT_B, _MULT_B, 2 * _POOL_SIZE)


def _xorshift(value: np.ndarray) -> np.ndarray:
    return value ^ (value >> 16)


def trial_seed_words(seed: int, t0: int, t1: int) -> np.ndarray:
    """PCG64 seed words of trials t0..t1-1, as a (t1 - t0, 4) uint64 array.

    Row t - t0 equals SeedSequence([seed, t]).generate_state(4, np.uint64),
    the words np.random.default_rng([seed, t]) seeds its PCG64 with.  The
    entropy is seed's little-endian uint32 words, then t.  SeedSequence's
    hashing is replayed in uint32 array arithmetic, which wraps mod 2^32 as
    its C code does, one array operation per step for all trials at once.
    The hash constants depend only on the number of seed words, so they are
    computed once per call.
    """
    if seed < 0 or not 0 <= t0 <= t1 <= MAX_TRIALS:
        raise ValidationError(f"no seed words for seed {seed}, trials {t0}..{t1}")
    n = t1 - t0
    entropy = [
        np.full(n, (seed >> shift) & _MASK32, dtype=np.uint32)
        for shift in range(0, max(seed.bit_length(), 1), 32)
    ]
    entropy.append(np.arange(t0, t1, dtype=np.uint32))
    extra = max(len(entropy) - _POOL_SIZE, 0)
    consts = _hash_constants(_INIT_A, _MULT_A, _POOL_SIZE * (_POOL_SIZE + extra))
    calls = iter(range(len(consts) - 1))

    def hashmix(value):
        i = next(calls)
        return _xorshift((value ^ consts[i]) * consts[i + 1])

    def mix(x, y):
        return _xorshift(_MIX_MULT_L * x - _MIX_MULT_R * y)

    # Fill the pool with the entropy (zero past its end), mix every pool
    # word into every other, then mix each entropy word past the pool into
    # every pool word.
    zero = np.zeros(n, dtype=np.uint32)
    pool = [hashmix(entropy[i] if i < len(entropy) else zero) for i in range(_POOL_SIZE)]
    for src in range(_POOL_SIZE):
        for dst in range(_POOL_SIZE):
            if src != dst:
                pool[dst] = mix(pool[dst], hashmix(pool[src]))
    for word in entropy[_POOL_SIZE:]:
        for dst in range(_POOL_SIZE):
            pool[dst] = mix(pool[dst], hashmix(word))

    state = np.empty((n, 2 * _POOL_SIZE), dtype=np.uint32)
    for i in range(2 * _POOL_SIZE):
        hashed = (pool[i % _POOL_SIZE] ^ _OUTPUT_HASH[i]) * _OUTPUT_HASH[i + 1]
        state[:, i] = _xorshift(hashed)
    # Little-endian pairs make each uint64, as in generate_state; on a
    # little-endian host neither astype copies.
    return state.astype("<u4", copy=False).view("<u8").astype(np.uint64, copy=False)


def _mc_trials(
    chain: ChainConfig,
    k: int,
    magnitude: int,
    x_norm: float,
    mm: MismatchSpec,
    z: np.ndarray,
    buf: np.ndarray,
) -> np.ndarray:
    """The perturbed single-window analog chain, one trial per row of z.

    A row holds the first standard normals of its trial's stream, the one
    np.random.default_rng([seed, trial]) gives (monte_carlo reaches it
    through trial_seed_words), in draw order: global caps (c1, c2,
    c_f_acc), then per-pixel gain, feedback cap, and reset-level offset.
    A trial's value depends only on its row, so not on which chunk
    computes it.

    The arithmetic runs in place on a trial-last copy of z in buf, with the
    operations and their order of gain = 1 + sigma_gain*z, current =
    i_max*x_norm*gain, dv = max(min(current*exposure / (c_f*cap),
    headroom) + vrst_off, 0).  Float addition and multiplication commute
    exactly, so gain *= (i_max * x_norm) rounds as (i_max*x_norm) * gain does.
    """
    caps = np.ascontiguousarray(z[:, :3].T)
    caps *= mm.sigma_cap
    caps += 1.0
    g_c1, g_c2, g_cf = caps
    # Trial-last maps, so each ufunc below runs over contiguous trial rows.
    maps = buf[: z[:, 3:].size].reshape(3, N_CHANNELS, k, k, len(z))
    maps[...] = z[:, 3:].reshape(-1, 3, N_CHANNELS, k, k).transpose(1, 2, 3, 4, 0)
    dv, cap, vrst_off = maps

    pixel = chain.pixel
    exposure = magnitude * chain.wtc.exposure_multiplier * chain.wtc.t_step
    # The gain slice becomes the discharge.
    dv *= mm.sigma_gain
    dv += 1.0
    dv *= pixel.i_max * x_norm
    dv *= exposure
    cap *= mm.sigma_cap
    cap += 1.0
    cap *= pixel.c_f
    dv /= cap
    np.minimum(dv, pixel.headroom, out=dv)
    vrst_off *= mm.sigma_vrst
    dv += vrst_off
    np.maximum(dv, 0.0, out=dv)
    array = chain.array
    divider = charge_share_divider(array.c1 * g_c1, array.c2 * g_c2, array.c_f_acc * g_cf)
    # The MAC kernel's order: a CBL per column in (row, channel) order,
    # then the columns in order.  All k CBLs are summed at once.
    cbl = np.zeros((k, len(z)))
    for i in range(k):
        for ch in range(N_CHANNELS):
            cbl += dv[ch, i]
    total = np.zeros(len(z))
    for j in range(k):
        total += cbl[j]
    return total / divider


def monte_carlo(
    chain: ChainConfig,
    mm: MismatchSpec,
    k: int = 7,
    magnitude: int = 8,
    x_norm: float = 0.5,
) -> tuple:
    """Mismatch distribution of the ADC-input voltage at a fixed weight and
    photocurrent, as (samples, summary): the per-trial volts and the
    montecarlo_summary.json document.  Deterministic given mm.seed.

    Trial t draws from np.random.default_rng([mm.seed, t]), bit for bit:
    its PCG64 is seeded from row t of trial_seed_words, computed for all
    trials in one pass, and fills the trial's row with standard_normal.
    Trials run vectorized in chunks of parallel.ROW_BLOCK_NODES pixel
    instances.
    """
    # Imported here: numpy.random adds about 13 ms to every start of the
    # CLI, and only this mode draws.
    from numpy.random import PCG64, Generator
    from numpy.random.bit_generator import ISeedSequence

    class TrialSeed(ISeedSequence):
        """Hands PCG64 one trial's precomputed seed words."""

        def __init__(self, words):
            self.words = words

        def generate_state(self, n_words, dtype=np.uint32):
            # PCG64 asks for generate_state(4, np.uint64): one row.
            return self.words

    words = trial_seed_words(mm.seed, 0, mm.trials)
    n_draws = 3 + 3 * N_CHANNELS * k * k
    chunks = row_blocks(mm.trials, N_CHANNELS * k * k)
    # Every chunk's maps share one buffer: a fresh one per chunk would
    # fault in new pages each time.
    buf = np.empty((chunks[0][1] - chunks[0][0]) * (n_draws - 3))

    def run_trials(spec, t0, t1):
        z = np.empty((t1 - t0, n_draws))
        for row, trial_words in zip(z, words[t0:t1]):
            Generator(PCG64(TrialSeed(trial_words))).standard_normal(out=row)
        return _mc_trials(chain, k, magnitude, x_norm, spec, z, buf)

    # All-zero sigmas turn every perturbation off, so this is the nominal run.
    nominal = float(run_trials(MismatchSpec(trials=1, seed=mm.seed), 0, 1)[0])
    samples = np.concatenate([run_trials(mm, t0, t1) for t0, t1 in chunks])
    mean = float(samples.mean())
    std = float(samples.std())
    scale = max(abs(mean), 1e-12)
    span = 4 * std if std > 0 else scale
    # A near-degenerate spread still needs resolvable bin edges.
    span = max(span, 32 * np.finfo(float).eps * scale)
    counts, edges = np.histogram(samples, bins=MC_HIST_BINS, range=(mean - span, mean + span))
    return samples, {
        "trials": int(samples.size),
        "nominal_v": nominal,
        "mean_v": mean,
        "std_v": std,
        "hist_counts": counts.tolist(),
        "hist_edges": edges.tolist(),
    }


# ---------------------------------------------------------------------------
# Linearity sweeps
# ---------------------------------------------------------------------------

SWEEP_HEADER = ("mode", "k", "w_norm", "x_norm", "v_cbl", "v_adc_in", "code")


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
) -> list:
    """Run the requested sweeps through the full chain.

    Single-unit modes use a 1x1 window; multiwindow runs all-equal k x k
    windows for k in {3, 5, 7}.  Weight levels cover the full 16-level WTC
    range.  Every (level, x-point) of one k is one sweep_window_chain
    call, which the single-unit modes share.  Returns the sweep.csv rows,
    tuples in SWEEP_HEADER order.
    """
    mag_max = 15
    x_grid = np.linspace(0.0, 1.0, x_points)
    x_norms = x_grid.tolist()
    levels = np.arange(mag_max + 1)
    # outputs[k] = (v_cbl, v_adc_in, code) nested lists, [level][x index].
    outputs = {}
    rows = []
    for mode in modes:
        if mode == "multiwindow":
            kernel_sizes = MULTIWINDOW_KERNELS
            order = _sweep_order("vs_product", x_points)
        else:
            kernel_sizes = (1,)
            order = _sweep_order(mode, x_points)
        for k in kernel_sizes:
            if k not in outputs:
                outputs[k] = [a.tolist() for a in sweep_window_chain(chain, k, levels, x_grid)]
            v_cbl, v_adc_in, code = outputs[k]
            rows.extend(
                (mode, k, m / mag_max, x_norms[i], v_cbl[m][i], v_adc_in[m][i], code[m][i])
                for m, i in order
            )
    return rows
