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

The polarity accumulators of a row block come from matrix products: the
distinct tap slices of the raw phase stacks form the rows of a float64
feature block, and each plane's magnitudes sum into one row of a small
magnitude matrix (two taps that read the same slice add their
magnitudes), whose rows each team member multiplies for its planes.
This is exact.  Every product and every partial sum is a nonnegative
integer no larger than the plane's accumulator bound
RAW_MAX * sum(magnitudes) <= MAG_MAX * RAW_MAX * 4k^2, which stays below 2^53,
so float64 holds each one without rounding.  The sum is then the same
integer in any order, with or without fused multiply-add, on any number
of BLAS threads.  polarity_codes checks the bound once per call.  Taps
the clamp can reach stay outside the product: each distinct (slice,
magnitude) capped product is computed once per block by each member
whose planes use it and added into them, exact for the same reason.  pixel_array.tap_plan
supplies the slices, the geometry the simulator shares.

This integer arithmetic is the golden model's own part: its set-up and
its block tail (pooling, ReLU, requantization) are pipeline.LayerRun's.
"""

from __future__ import annotations

import numpy as np

from .adc import _BOUNDARY_GUARD, AdcConfig
from .errors import DimensionError, ValidationError
from .mapper import ConvSpec, FusedLayer
from .pipeline import CalibrationMap, LayerRun
from .pixel import RAW_MAX
from . import parallel
from .pixel_array import tap_grid, tap_plan

# float64 holds every integer below 2^53 exactly.
_EXACT_FLOAT_LIMIT = 1 << 53

# A block's features, codes and clamped products hold about this many
# times parallel.ROW_BLOCK_NODES float64 values per team member, 2 MB at
# the default; at every demo layer the planner's floor takes more.
_FEATURE_BLOCK_SCALE = 8


def polarity_codes(
    phases, planes: np.ndarray, spec: ConvSpec, code_scale: float, code_max: int,
    tap_saturation: float, emit,
) -> None:
    """Quantized codes of every magnitude plane, one row block at a time.

    planes is (n_planes, 4, k, k), a layer's ordered (pos_0, neg_0, pos_1,
    ...); phases are the photocurrent_channels phases of the raw frame, or
    its numpy phase stacks.  Row blocks start at multiples of spec.p_s and
    are shared by a parallel.map_blocks_team team of W members.  Member w
    first expands tap_plan bands w, w + W, ... (over the block's rows r0
    to r1 plus the (k - 1) // s halo) into the block's tap slices, then
    multiplies a contiguous run of whole channel pairs and hands it to
    emit(r0, r1, p0, codes) as mac_node_voltages hands a pair:
    int64 codes of planes p0, p0 + 1, ... over rows r0:r1, each plane's
    exact integer tap sum, scaled once to codes and capped at code_max.
    Each tap product magnitude*raw is capped at int(tap_saturation), the
    pixel's headroom clamp, which only taps with magnitude * RAW_MAX above
    it can reach.
    """
    k, s = spec.k, spec.s
    planes = np.asarray(planes)
    bound = RAW_MAX * int(np.abs(planes).sum(axis=(1, 2, 3), dtype=np.int64).max(initial=0))
    if bound >= _EXACT_FLOAT_LIMIT:
        raise ValidationError(f"tap sums up to {bound} are not exact in float64")
    out_r, out_c = tap_grid(phases, k, s)
    bands, slices, taps = tap_plan(phases, planes, k, s)
    n_planes, n_slices = len(planes), len(slices)
    mags = np.zeros((n_planes, n_slices))
    clamped = {}  # (slice, magnitude) -> planes, for taps the clamp can reach
    for _, _, _, m, p, n in taps.tolist():
        if m * RAW_MAX > tap_saturation:
            clamped.setdefault((n, m), []).append(p)
        else:
            mags[p, n] += m
    cap = int(tap_saturation)
    reads = [(stack, ch, []) for stack, ch in bands]  # each band's slices' (n, di, dj)
    for n, (b, di, dj) in enumerate(slices.tolist()):
        reads[b][2].append((n, di, dj))
    extra = (k - 1) // s
    n_pairs = (n_planes + 1) // 2
    # A block's rows of nodes: the features and every plane's codes for the
    # team, then one row of clamped products per member.
    workers, blocks = parallel.plan_blocks(
        out_r, out_c, n_slices + n_planes, 1, n_pairs, _FEATURE_BLOCK_SCALE, spec.p_s
    )
    n_rows = n_slices + n_planes + workers
    # The first block is the largest.
    team_buffer = np.empty(n_rows * (blocks[0][1] - blocks[0][0]) * out_c)
    # Member w multiplies planes firsts[w] to firsts[w + 1].
    firsts = [min(2 * (w * n_pairs // workers), n_planes) for w in range(workers + 1)]

    def block_rows(r0: int, r1: int) -> np.ndarray:
        return team_buffer[: n_rows * (r1 - r0) * out_c].reshape(n_rows, r1 - r0, out_c)

    def expand(w: int, r0: int, r1: int) -> None:
        features = block_rows(r0, r1)
        for stack, ch, band_reads in reads[w::workers]:
            band = stack[ch, r0 : r1 + extra]
            for n, di, dj in band_reads:
                features[n] = band[di : di + r1 - r0, dj : dj + out_c]

    def multiply(w: int, r0: int, r1: int) -> None:
        rows = block_rows(r0, r1).reshape(n_rows, -1)
        p0, p1 = firsts[w], firsts[w + 1]
        acc, product = rows[n_slices + p0 : n_slices + p1], rows[n_slices + n_planes + w]
        np.matmul(mags[p0:p1], rows[:n_slices], out=acc)
        for (n, m), users in clamped.items():
            users = [p - p0 for p in users if p0 <= p < p1]
            if users:
                np.multiply(rows[n], m, out=product)
                np.minimum(product, cap, out=product)
                for p in users:
                    acc[p] += product
        acc *= code_scale
        acc += _BOUNDARY_GUARD
        np.minimum(acc, code_max, out=acc)
        # The sums and code_scale are >= 0, so the cast's truncation is floor.
        emit(r0, r1, p0, acc.astype(np.int64).reshape(p1 - p0, r1 - r0, out_c))

    parallel.map_blocks_team((expand, multiply), blocks, workers)


def golden_layer(
    frame_raw: np.ndarray,
    fused: FusedLayer,
    spec: ConvSpec,
    adc_cfg: AdcConfig,
    cal: CalibrationMap,
) -> np.ndarray:
    """Reference activations, uint8 of shape (c_o, pool_rows, pool_cols).

    frame_raw holds integer samples in [0, 65535].  Padding is zero border
    samples, matching the simulator's zero-photocurrent border.
    """
    run = LayerRun(frame_raw, fused, spec, cal, adc_cfg)
    # One unit product is mag_max * RAW_MAX in integer tap units.
    code_scale = cal.lsb_per_unit / (fused.mag_max * RAW_MAX)

    def emit(r0: int, r1: int, p0: int, codes: np.ndarray) -> None:
        # Planes 2c, 2c + 1 are channel c's two cycles.
        ch0 = p0 // 2
        preloads = run.preloads[ch0 : ch0 + len(codes) // 2, None, None]
        run.store(r0, ch0, codes[0::2] - codes[1::2] + preloads)

    polarity_codes(
        run.phases,
        run.planes,
        spec,
        code_scale,
        adc_cfg.code_max,
        cal.tap_saturation,
        emit,
    )
    return run.activations


def _difference_dtype(a: np.dtype, b: np.dtype):
    """The narrowest signed integer dtype that holds a - b and its absolute
    value for every value of integer dtypes a and b: int16 for two uint8
    grids.  Object (Python integers) where no integer dtype does."""
    if a.kind in "iu" and b.kind in "iu":
        lo = int(np.iinfo(a).min) - int(np.iinfo(b).max)
        hi = int(np.iinfo(a).max) - int(np.iinfo(b).min)
        for dtype in (np.int16, np.int32, np.int64):
            top = int(np.iinfo(dtype).max)
            if -top <= lo and hi <= top:
                return dtype
    return object


def compare_runs(sim_out: np.ndarray, gold_out: np.ndarray, max_within: int = 1) -> dict:
    """Compare activation grids, as the verify_report.json document; it
    passes when every node is within max_within codes of the oracle."""
    sim = np.asarray(sim_out)
    gold = np.asarray(gold_out)
    if sim.shape != gold.shape:
        raise DimensionError(f"grid shapes differ: {sim.shape} vs {gold.shape}")
    delta = np.subtract(sim, gold, dtype=_difference_dtype(sim.dtype, gold.dtype))
    np.abs(delta, out=delta)
    n = delta.size
    max_abs = int(delta.max()) if n else 0
    exact = n - np.count_nonzero(delta)
    # Counted in place, with no bool grid: |delta| >> 1 is 0 exactly where
    # |delta| <= 1.
    within_1 = n - np.count_nonzero(np.right_shift(delta, 1, out=delta))
    return {
        "max_abs_delta": max_abs,
        "fraction_exact": float(exact) / n,
        "fraction_within_1": float(within_1) / n,
        "n_nodes": n,
        "max_within": max_within,
        "passed": bool(max_abs <= max_within),
    }
