"""Pixel array core: the charge-domain MAC.

Every pixel in a column dumps its exposure charge onto a shared charge
bitline (CBL); a switching matrix then charge-shares k adjacent column
capacitors into one ADC input following

    V_adc_in = (V_1 + ... + V_N) / (4 + 2*C2/C1 + CF/C1)

Sign handling never touches the CBL: positive- and negative-weight
magnitudes run in separate cycles and meet again only in the ADC's up/down
counter.

mac_node_voltages is the one MAC, and every path uses it: the layer runs
it over the whole frame, run_mac_cycle over one receptive field.  It sums
in the hardware's order.  Each kernel column's taps add into one column
buffer in (row, channel) order: that buffer is the column's CBL.  The
column buffers then add in column order before the single divide: that
is the switching matrix.  Monte Carlo sums its perturbed taps in the same
order.  The layer kernel splits its output grid into row blocks that run
on separate threads; every node still sums its taps in that order, so the
result is the same at any thread count.

Bayer geometry: the mosaic is interpreted as four channels (R, G1, G2, B
at even/even, even/odd, odd/even, odd/odd parities) held constant over
each 2x2 quad.  A kernel window anchored at raw pixel (r0, c0) reads, for
every channel, the k x k quad-sampled values at (r0+i, c0+j), giving the
k*k*4 contributions per output node that the accumulation network sums.
MAC mode therefore requires even frame dimensions.  For a stride s the
layer kernel reads the channel stack split into s x s phases, so that each
tap reads one contiguous slice instead of a strided one.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import ScheduleError, StateError, ValidationError
from .parallel import map_row_blocks
from .pixel import PixelParams, integrate
from .wtc import CounterConfig, match_ticks

# (row parity, col parity) per channel, in channel order R, G1, G2, B.
BAYER_OFFSETS = ((0, 0), (0, 1), (1, 0), (1, 1))
N_CHANNELS = 4


@dataclass(frozen=True)
class ArrayConfig:
    rows: int = 1024
    cols: int = 1280
    c1: float = 10e-15
    c2: float = 10e-15
    c_f_acc: float = 10e-15

    def __post_init__(self):
        if self.rows < 1 or self.cols < 1:
            raise ValidationError("array dimensions must be >= 1")
        for name in ("c1", "c2", "c_f_acc"):
            value = getattr(self, name)
            if not (math.isfinite(value) and value > 0):
                raise ValidationError(f"array.{name} must be finite and > 0, got {value!r}")

    @property
    def divider(self) -> float:
        return charge_share_divider(self.c1, self.c2, self.c_f_acc)


def charge_share_divider(c1, c2, c_f_acc):
    """Switching-matrix divider 4 + 2*C2/C1 + CF/C1; scalars or arrays."""
    return 4.0 + 2.0 * c2 / c1 + c_f_acc / c1


def bayer_phase_stacks(frame: np.ndarray, stride: int) -> tuple:
    """Expand an RGGB mosaic into stride x stride phase stacks.

    phases[a][b][ch, q, u] == bayer_channel_view(frame)[ch, a + stride*q,
    b + stride*u], held contiguous, so a kernel tap at row offset i and
    column offset j reads phases[i % stride][j % stride] as one slice.
    Channel ch at (r, c) is the mosaic sample of that color inside the 2x2
    quad containing (r, c); for an even stride (a + stride*q) & ~1 does
    not depend on the low bit of a, so phases a and a ^ 1 (and likewise
    b and b ^ 1) are one shared array.  Requires even dimensions.
    """
    arr = np.asarray(frame)
    if arr.ndim != 2:
        raise ValidationError("frame must be 2-D")
    rows, cols = arr.shape
    if rows % 2 or cols % 2:
        raise ValidationError(
            f"MAC mode needs even frame dimensions (RGGB quads), got {rows}x{cols}"
        )
    if stride < 1:
        raise ValidationError(f"stride must be >= 1, got {stride}")
    shared = ~1 if stride % 2 == 0 else ~0
    stacks = {}
    for a in range(stride):
        for b in range(stride):
            key = (a & shared, b & shared)
            if key in stacks:
                continue
            row_base = np.arange(a, rows, stride) & ~1
            col_base = np.arange(b, cols, stride) & ~1
            stack = np.empty((N_CHANNELS, row_base.size, col_base.size), dtype=arr.dtype)
            for ch, (dr, dc) in enumerate(BAYER_OFFSETS):
                stack[ch] = arr[np.ix_(row_base + dr, col_base + dc)]
            stacks[key] = stack
    return tuple(
        tuple(stacks[a & shared, b & shared] for b in range(stride)) for a in range(stride)
    )


def bayer_channel_view(frame: np.ndarray) -> np.ndarray:
    """Expand an RGGB mosaic to a (4, rows, cols) channel stack: the
    stride-1 phase stack."""
    return bayer_phase_stacks(frame, 1)[0][0]


def tap_grid(phases, k: int, stride: int) -> tuple:
    """(out_r, out_c) output grid of a k x k, stride-spaced kernel over
    phase stacks: the nodes at which every tap's slice fits its phase."""
    if k < 1:
        raise ScheduleError(f"kernel size must be >= 1, got {k}")
    if len(phases) != stride or any(len(row) != stride for row in phases):
        raise ScheduleError(f"expected {stride} x {stride} phase stacks")
    out_r = min(phases[i % stride][0].shape[1] - i // stride for i in range(k))
    out_c = min(phases[0][j % stride].shape[2] - j // stride for j in range(k))
    if out_r < 1 or out_c < 1:
        raise ScheduleError(f"frame smaller than kernel {k}")
    return out_r, out_c


def run_mac_cycle(
    cfg: ArrayConfig,
    params: PixelParams,
    wtc_cfg: CounterConfig,
    region,
    magnitudes,
    polarity: str = "positive",
) -> float:
    """One output node's ADC-input voltage for one polarity cycle.

    region: (4, k, k) photocurrents for the node's receptive field.
    magnitudes: (4, k, k) unsigned weight magnitudes for this polarity
        (cells belonging to the other polarity hold 0).

    Validates one receptive field and runs mac_node_voltages on it as the
    one-node, stride-1 phase stack ((region,),).
    """
    if polarity not in ("positive", "negative"):
        raise ValidationError(f"polarity must be positive or negative, got {polarity!r}")
    x = np.asarray(region, dtype=float)
    mags = np.asarray(magnitudes)
    if x.ndim != 3 or x.shape[0] != N_CHANNELS or x.shape[1] != x.shape[2]:
        raise ScheduleError(f"region must be (4, k, k), got {x.shape}")
    if mags.shape != x.shape:
        raise ScheduleError(f"weight plane shape {mags.shape} != region shape {x.shape}")
    if not np.all(np.isfinite(x)) or np.any(x < 0):
        raise ValidationError("photocurrents must be finite and >= 0")
    return float(mac_node_voltages(cfg, params, wtc_cfg, ((x,),), mags, x.shape[1], 1)[0, 0])


@dataclass(frozen=True)
class MacCycleResult:
    """ADC inputs of one output node's two polarity cycles.

    Each cycle accumulates magnitudes only, so both voltages are
    nonnegative; their signed difference exists only as a counter value
    after CDS.
    """

    v_pos: float
    v_neg: float

    def __post_init__(self):
        if self.v_pos < 0 or self.v_neg < 0:
            raise StateError("polarity-cycle voltages accumulate magnitudes only")


def run_signed_mac(
    cfg: ArrayConfig,
    params: PixelParams,
    wtc_cfg: CounterConfig,
    region,
    pos_magnitudes,
    neg_magnitudes,
) -> MacCycleResult:
    """Both polarity cycles of one output node."""
    return MacCycleResult(
        v_pos=run_mac_cycle(cfg, params, wtc_cfg, region, pos_magnitudes, "positive"),
        v_neg=run_mac_cycle(cfg, params, wtc_cfg, region, neg_magnitudes, "negative"),
    )


def mac_node_voltages(
    cfg: ArrayConfig,
    params: PixelParams,
    wtc_cfg: CounterConfig,
    phases,
    magnitudes,
    k: int,
    stride: int,
) -> np.ndarray:
    """All output nodes' ADC-input voltages for one polarity cycle set.

    phases: bayer_phase_stacks of the frame's photocurrents for this
    stride.  Each kernel tap integrates one slice of a phase stack.  The
    taps of kernel column j add into that column's CBL buffer in (row,
    channel) order; the CBL buffers add in column order and are divided
    once by the switching-matrix divider.  Row blocks of the grid run on
    parallel.map_row_blocks threads.
    """
    mags = np.asarray(magnitudes)
    if mags.shape != (N_CHANNELS, k, k):
        raise ScheduleError(f"weight plane must be (4, {k}, {k}), got {mags.shape}")
    out_r, out_c = tap_grid(phases, k, stride)
    ticks = np.asarray(match_ticks(wtc_cfg, mags), dtype=np.int64)
    # Per kernel column, its nonzero taps; all-zero columns add nothing.
    columns = []
    for j in range(k):
        taps = []
        for i in range(k):
            for ch in range(N_CHANNELS):
                t = float(ticks[ch, i, j]) * wtc_cfg.t_step
                if t != 0.0:
                    plane = phases[i % stride][j % stride][ch]
                    taps.append((plane, i // stride, j // stride, t))
        if taps:
            columns.append(taps)
    volts = np.empty((out_r, out_c))

    def accumulate_block(r0: int, r1: int) -> None:
        acc = volts[r0:r1]
        acc.fill(0.0)
        cbl = np.empty_like(acc)
        dv = np.empty_like(acc)

        def integrate_tap(tap, out):
            plane, di, dj, t = tap
            np.multiply(plane[di + r0 : di + r1, dj : dj + out_c], t, out=out)
            np.divide(out, params.c_f, out=out)
            np.minimum(out, params.headroom, out=out)

        # A column's first tap starts its CBL instead of adding to 0.0; that
        # can differ only in the sign of a zero, which acc's +0.0 absorbs.
        for first, *rest in columns:
            integrate_tap(first, cbl)
            for tap in rest:
                integrate_tap(tap, dv)
                np.add(cbl, dv, out=cbl)
            np.add(acc, cbl, out=acc)
        np.divide(acc, cfg.divider, out=acc)

    map_row_blocks(accumulate_block, out_r, out_c)
    return volts


def readout_frame(params: PixelParams, frame, exposure: float) -> np.ndarray:
    """Conventional per-pixel voltage readout: no accumulation, no WTC."""
    arr = np.asarray(frame, dtype=float)
    if arr.ndim != 2:
        raise ValidationError("frame must be 2-D")
    return np.asarray(integrate(params, arr, exposure), dtype=float)
