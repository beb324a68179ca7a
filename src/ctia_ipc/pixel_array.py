"""Pixel array core: the charge-domain MAC.

Every pixel in a column dumps its exposure charge onto a shared charge
bitline (CBL); a switching matrix then charge-shares k adjacent column
capacitors into one ADC input following

    V_adc_in = (V_1 + ... + V_N) / (4 + 2*C2/C1 + CF/C1)

Sign handling never touches the CBL: positive- and negative-weight
magnitudes run in separate cycles and meet again only in the ADC's up/down
counter.

mac_node_voltages is the one MAC, and every path uses it: the layer runs
it once over the whole frame for all 2*c_o polarity planes, run_mac_cycle
once over a batch of receptive fields and a stack of weight planes, each
plane run over every field.  The batch is laid out as stride-k phase
stacks with one node per field: phase (i, j) holds pixel (i, j) of every
field, so at stride k each tap reads its node's own pixel.  It sums in
the hardware's order.  Each kernel column's taps add into one CBL buffer
per plane in (row, channel) order; the CBL buffers then add into the
plane's accumulator in column order before the single divide: that is
the switching matrix.  Monte Carlo sums its perturbed taps in the same
order.

The kernel makes one pass over row blocks of its output grid, and keeps
every plane's float operations and their order, so the result is
bit-identical at any block size or thread count.  All output channels
read the same pixel exposures, and a weight only picks which exposure a
tap gets, so a discharge min(x*t/c_f, headroom) depends only on the pixel
and the exposure.  Each block computes it once for every distinct (phase
stack, channel, exposure) of the tap plan, over the stack rows the
block's taps read (the (k-1)//s halo rows included) at full stack width;
a tap reads the (i//s, j//s)-shifted view of its buffer, elementwise the
discharge it would compute alone.  The planes are then walked one at a
time, with the layer's planes ordered (pos_0, neg_0, pos_1, ...),
through their own taps in (column, row, channel) order: the first tap of
a column is copied into the CBL and the later ones add to it; the first
column's CBL is the plane's accumulator, each later one adds into it;
then the divide.  Copying where the hardware adds to an empty CBL is
exact: every discharge is >= +0.0, so 0.0 + dv == dv (a -0.0
photocurrent could only turn a node's +0.0 into -0.0, an equal value).
Each channel's two planes go to the caller as soon as they are done.

A team of W threads (parallel.map_blocks_team) shares every block: the
members split the (stack, channel) groups and compute the shared
discharges; after a barrier member w walks channel pairs w, w + W, ...
with its own two accumulators and one CBL.  parallel.plan_blocks sizes
the team and the blocks: a block holds the shared discharges once and
three rows per member, in the memory of W one-thread blocks: at k7s2, 57
shared discharges, about 22k nodes on one thread and 42k on two.  At odd
strides >= 3 and at stride 4 the taps read several stacks at many
offsets, so the shared discharges number in the hundreds (364 at k7s3)
and the planner's floor of ROW_BLOCK_NODES // 4 nodes per member sets
the blocks, to keep each add, one numpy call over the block, long (see
parallel).  A run_mac_cycle batch, fewer than ROW_BLOCK_NODES nodes, is
walked by a team of one.

The kernel works in float32 when every phase is a MosaicPhase (the
layer's raw samples) and the layer's range is normal float32.  That is,
the smallest nonzero product, i_max / RAW_MAX times the shortest tap
exposure, the volts it gives (over c_f, then over the divider), c_f and
headroom are at least np.finfo(np.float32).tiny, float32's smallest
normal; and the largest product x_max * t_max (x_max the brightest
photocurrent), its discharge times the 4k^2 taps of a plane, and the
divider are at most float32's max.  Otherwise it works in float64: on
numpy stacks, such as run_mac_cycle's fields for the sweeps and Monte
Carlo's nominal check, on raw samples whose c_f or products float32
cannot hold, and on planes without a tap.  The calls are the same in
both, and so is the rounding order: the product t * x is formed in
float64 and rounded once to the working dtype as np.multiply stores it
in the team buffer; the divide by c_f, the min with headroom, the CBL
and accumulator adds and the divide by the divider run in the working
dtype, on c_f, headroom and the divider rounded to it.  The team
buffer and the grid returned without emit hold the working dtype, and
emit gets its volts; the ADC counts float32 volts as their exact float64
widening.  In float32 a node's volts are within about (N + 4) * 2^-24 of
float64's, relatively, for a plane of N <= 4k^2 nonzero taps, so a code
moves, by 1, only where its count lies that close to an integer.

The headroom min is skipped for an exposure t when the discharge's own
operations on x_max, the working dtype's fl(fl(x_max * t) / c_f), give at
most headroom.  Every step is monotone, so no pixel of the frame can then
reach the clamp, and min(dv, headroom) == dv.  The check runs in the
working dtype because one in float64 is not exact for float32
discharges: a discharge at most headroom in float64 can exceed the
float32 headroom once rounded.

Bayer geometry: the mosaic is interpreted as four channels (R, G1, G2, B
at even/even, even/odd, odd/even, odd/odd parities) held constant over
each 2x2 quad.  A kernel window anchored at raw pixel (r0, c0) reads, for
every channel, the k x k quad-sampled values at (r0+i, c0+j), giving the
k*k*4 contributions per output node that the accumulation network sums.
MAC mode therefore requires even frame dimensions.  For a stride s the
layer kernels read the channel stack split into s x s phases, so that
each tap reads one slice of a phase instead of a strided one; tap_plan
lists the distinct slices, the geometry the simulator and the golden
model share.  As in the sensor, no expanded copy of the frame is held:
photocurrent_channels returns MosaicPhases over the padded uint16
mosaic, and each row block expands one band of rows per (phase,
channel) it reads, the block's rows plus the halo.  At every stride one
rule picks the band: element (q, u) of channel ch in phase (a, b) is the
mosaic sample at row ((a + s*q) & ~1) + dr, column ((b + s*u) & ~1) + dc,
with (dr, dc) the channel's parities, and the band's rows and columns are
taken from the mosaic at those indices.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import DimensionError, ScheduleError, ValidationError
from . import parallel
from .pixel import RAW_MAX, PixelParams, frame_to_photocurrents, integrate
from .wtc import CounterConfig, match_ticks

# (row parity, col parity) per channel, in channel order R, G1, G2, B.
BAYER_OFFSETS = ((0, 0), (0, 1), (1, 0), (1, 1))
N_CHANNELS = 4

# A block's accumulators, CBL buffers and discharges hold about this many
# times parallel.ROW_BLOCK_NODES values of the working dtype per team
# member: 5 MiB at the default in float32, 10 MiB in float64, or more
# where the planner's floor binds.
_CBL_BLOCK_SCALE = 40


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


class MosaicPhase:
    """Phase (a, b) of an RGGB mosaic at a stride, expanded row band by
    row band: the (4, rows, cols) stack whose element (q, u) of channel ch
    is the mosaic sample of ch's color inside the 2x2 quad containing
    (a + stride*q, b + stride*u), without holding it.

    shape is that stack's; phase[ch, rows] and phase[ch, rows, cols]
    expand only those rows (and columns) of channel ch from the mosaic,
    indexed with numpy's slice semantics; max() is the mosaic's largest
    sample, which bounds the phase's.  A numpy stack answers the same
    three calls, so the layer kernels take either.
    """

    __slots__ = ("mosaic", "stride", "a", "b", "shape")

    def __init__(self, mosaic: np.ndarray, stride: int, a: int, b: int):
        rows, cols = mosaic.shape
        self.mosaic, self.stride, self.a, self.b = mosaic, stride, a, b
        self.shape = (N_CHANNELS, len(range(a, rows, stride)), len(range(b, cols, stride)))

    def max(self):
        return self.mosaic.max()

    def __getitem__(self, key) -> np.ndarray:
        """Element (q, u) of channel ch is the mosaic sample at ((a +
        stride*q) & ~1) + dr, ((b + stride*u) & ~1) + dc."""
        ch, rows, *cols = key
        dr, dc = BAYER_OFFSETS[ch]
        q = np.arange(self.shape[1])[rows]
        u = np.arange(self.shape[2])[cols[0] if cols else slice(None)]
        r = ((self.a + self.stride * q) & ~1) + dr
        c = ((self.b + self.stride * u) & ~1) + dc
        return self.mosaic.take(r, axis=0).take(c, axis=1)


def photocurrent_channels(frame_raw, padding: int = 0, stride: int = 1) -> tuple:
    """The MosaicPhases of a raw sensor frame, the source of every tap's
    photocurrent: integer samples in [0, RAW_MAX], zero-padded, held once
    as a uint16 mosaic.  No phase stack is built; each layer kernel
    expands, per row block, one band of rows per (phase, channel) its taps
    read.  mac_node_voltages turns a band into photocurrents with
    frame_to_photocurrents; the golden model multiplies the samples as
    integers.

    phases[a][b] is phase (a, b).  At an even stride (a + stride*q) & ~1
    does not depend on the low bit of a, so phases a and a ^ 1 (and b and
    b ^ 1) are one object, which tap_plan counts as one stack.  Requires
    even frame dimensions.
    """
    raw = np.asarray(frame_raw)
    if raw.ndim != 2:
        raise DimensionError("frame must be 2-D")
    if not np.issubdtype(raw.dtype, np.integer):
        raise ValidationError("a sensor frame holds integer raw samples")
    if raw.size and (raw.min() < 0 or raw.max() > RAW_MAX):
        raise ValidationError(f"raw samples must be in [0, {RAW_MAX}]")
    raw = raw.astype(np.uint16, copy=False)
    if padding:
        raw = np.pad(raw, padding)
    rows, cols = raw.shape
    if rows % 2 or cols % 2:
        raise ValidationError(
            f"MAC mode needs even frame dimensions (RGGB quads), got {rows}x{cols}"
        )
    if stride < 1:
        raise ValidationError(f"stride must be >= 1, got {stride}")
    step = 2 if stride % 2 == 0 else 1
    phases = {
        (a, b): MosaicPhase(raw, stride, a, b)
        for a in range(0, stride, step)
        for b in range(0, stride, step)
    }
    return tuple(
        tuple(phases[a - a % step, b - b % step] for b in range(stride)) for a in range(stride)
    )


def tap_plan(phases, planes, k: int, stride: int) -> tuple:
    """The distinct phase-stack slices read by the nonzero taps of a set of
    planes: the geometry both layer kernels share.

    planes is (n_planes, 4, k, k).  Tap (i, j) reads channel ch of
    phases[i % stride][j % stride] at offset (i // stride, j // stride).
    An even stride shares one stack between phases, so a slice is keyed by
    the stack object itself: at k7s2 the 196 tap positions read 64 slices.
    Returns (bands, slices, taps): bands lists the distinct (stack,
    channel) pairs read; slices is an int64 array with one row (band
    index, row offset, column offset) per distinct slice, in band order;
    taps is an int64 array with one row (j, i, ch, value, plane, slice
    index) per nonzero tap, in the hardware's summation order of kernel
    column, then row, then channel, and by plane within a tap position.
    """
    by_column = np.asarray(planes).transpose(3, 2, 1, 0)
    j, i, ch, p = np.nonzero(by_column)
    stacks = {}  # id(stack) -> (stack index, stack)
    phase_stack = np.array(
        [[stacks.setdefault(id(s), (len(stacks), s))[0] for s in row] for row in phases]
    )
    span = k // stride + 1
    keys = ((phase_stack[i % stride, j % stride] * N_CHANNELS + ch) * span + i // stride)
    keys = keys * span + j // stride
    unique, slice_of = np.unique(keys, return_inverse=True)
    band_keys, offsets = np.divmod(unique, span * span)
    band_keys, band_of = np.unique(band_keys, return_inverse=True)
    by_index = [s for _, s in stacks.values()]
    bands = [(by_index[key // N_CHANNELS], key % N_CHANNELS) for key in band_keys.tolist()]
    slices = np.stack([band_of, *np.divmod(offsets, span)], axis=1)
    taps = np.stack([j, i, ch, by_column[j, i, ch, p], p, slice_of], axis=1)
    return bands, slices.astype(np.int64, copy=False), taps.astype(np.int64, copy=False)


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
):
    """Output-node ADC-input voltages for polarity cycles.

    region: (4, k, k) photocurrents of one node's receptive field, or a
        batch (n, 4, k, k) of n nodes' fields.
    magnitudes: (4, k, k) unsigned weight magnitudes for this polarity
        (cells belonging to the other polarity hold 0), shared by every
        field of a batch; or a stack (m, 1, 4, k, k) of m such planes,
        each run over every field.

    Validates the fields and runs mac_node_voltages once, on them as
    stride-k phase stacks with one node per field and on every plane:
    phases[i][j][ch, 0, q] is field q's pixel (ch, i, j), so tap (i, j)
    reads each node's own pixel.  Every (plane, field) sums in the same
    order as that field run alone on that plane, so the result is
    bit-identical to one call per field and plane.  The result has the
    shapes broadcast: a float for one region and one plane, (n,) for a
    batch on one plane, (m, n) for a batch on a stack, (m, 1) for one
    region on a stack.
    """
    x = np.asarray(region, dtype=float)
    mags = np.asarray(magnitudes)
    fields = x if x.ndim == 4 else x[None]
    if fields.ndim != 4 or fields.shape[1] != N_CHANNELS or fields.shape[2] != fields.shape[3]:
        raise ScheduleError(f"region must be (4, k, k) or (n, 4, k, k), got {x.shape}")
    k = fields.shape[2]
    stack = mags.ndim == 5 and len(mags) > 0 and mags.shape[1] == 1
    if mags.shape[-3:] != fields.shape[1:] or not (mags.ndim == 3 or stack):
        raise ScheduleError(
            f"weight planes must be (4, k, k) or (m, 1, 4, k, k) with m >= 1, for the "
            f"fields' k = {k}; got {mags.shape}"
        )
    # min and max are NaN when any element is.
    if x.size and not (x.min() >= 0 and math.isfinite(x.max())):
        raise ValidationError("photocurrents must be finite and >= 0")
    # (k, k, 4, n): each phase stack is one contiguous (4, 1, n) slice.
    stacks = np.ascontiguousarray(fields.transpose(2, 3, 1, 0))
    phases = tuple(tuple(stacks[i, j][:, None] for j in range(k)) for i in range(k))
    planes = mags[:, 0] if mags.ndim == 5 else mags[None]
    volts = mac_node_voltages(cfg, params, wtc_cfg, phases, planes, k, k)[:, 0]
    volts = volts.reshape(np.broadcast_shapes(mags.shape[:-3], x.shape[:-3]))
    return float(volts) if volts.ndim == 0 else volts


def _shared_plan(bands, slices, taps, n_planes: int, t_step: float, unclamped) -> tuple:
    """The walk's work list, from tap_plan bands, slices and taps whose
    values are counter ticks.  Returns (groups, reads, walks):
    groups: per band (stack, channel), (stack, channel, its distinct
        exposures in ascending order as an (m, 1, 1) array, how many of
        them unclamped(t) holds for; the rest are the last ones, as the
        discharge grows with t);
    reads: per distinct (slice, exposure), its group, exposure index, row
        offset and column offset, as four int64 arrays;
    walks: per plane, its nonempty kernel columns in order, each the list
        of its taps' reads in (row, channel) order."""
    j, tick, p, n = taps[:, 0], taps[:, 3], taps[:, 4], taps[:, 5]
    n_ticks = int(tick.max(initial=0)) + 1
    # The distinct (group, tick) pairs, by group and then tick.
    exposures, exposure_of = np.unique(slices[n, 0] * n_ticks + tick, return_inverse=True)
    exposure_group, exposure_tick = np.divmod(exposures, n_ticks)
    ts = (exposure_tick * t_step)[:, None, None]
    first = np.searchsorted(exposure_group, np.arange(len(bands) + 1))
    n_safe = np.bincount(exposure_group[unclamped(ts[:, 0, 0])], minlength=len(bands))
    groups = [
        (stack, ch, ts[first[g] : first[g + 1]], int(n_safe[g]))
        for g, (stack, ch) in enumerate(bands)
    ]
    _, read_tap, read_of = np.unique(n * n_ticks + tick, return_index=True, return_inverse=True)
    read_group = exposure_group[exposure_of[read_tap]]
    reads = (read_group, exposure_of[read_tap] - first[read_group], *slices[n[read_tap], 1:].T)
    # Stable, so each (plane, column) run keeps the taps' (row, channel) order.
    order = np.argsort(p, kind="stable")
    plane, column = p[order], j[order]
    starts = np.flatnonzero(
        (np.diff(plane, prepend=-1) != 0) | (np.diff(column, prepend=-1) != 0)
    )
    walks = [[] for _ in range(n_planes)]
    for q, run in zip(plane[starts].tolist(), np.split(read_of[order], starts[1:])):
        walks[q].append(run.tolist())
    return groups, reads, walks


_FLOAT32 = np.finfo(np.float32)


def _working_dtype(phases, taps, params: PixelParams, t_step: float, divider: float, k: int,
                   x_max: float):
    """The MAC's working dtype, by the rule of the module docstring.  taps
    are tap_plan's, whose values are counter ticks; x_max is the
    brightest photocurrent."""
    if not len(taps) or not all(isinstance(stack, MosaicPhase) for row in phases for stack in row):
        return np.float64
    tiny, top = float(_FLOAT32.tiny), float(_FLOAT32.max)
    t = taps[:, 3] * t_step
    low = float(frame_to_photocurrents(1, params.i_max)) * float(t.min())
    high = x_max * float(t.max())
    # Each value is in float32's range before it is rounded to float32.
    if not (tiny <= min(params.c_f, params.headroom, low)
            and max(params.c_f, params.headroom, low, high, divider) <= top):
        return np.float64
    c_f = float(np.float32(params.c_f))
    low_volts = float(np.float32(low)) / c_f / float(np.float32(divider))
    high_sum = float(np.float32(high)) / c_f * (N_CHANNELS * k * k)
    return np.float32 if tiny <= low_volts and high_sum <= top else np.float64


def mac_node_voltages(
    cfg: ArrayConfig,
    params: PixelParams,
    wtc_cfg: CounterConfig,
    phases,
    magnitudes,
    k: int,
    stride: int,
    emit=None,
    row_multiple: int = 1,
):
    """ADC-input voltages of every output node for every magnitude plane;
    each plane is one polarity cycle.

    phases: numpy phase stacks of photocurrents, or the uint16 raw-sample
    phases of photocurrent_channels.  Each block expands one band of rows
    per (phase, channel) its taps read, its rows r0 to r1 plus the halo,
    and turns raw samples into photocurrents with frame_to_photocurrents;
    band heights come from the phases' shapes, so nothing is expanded to
    be counted.  magnitudes: one (4, k, k) plane or a stack of n planes
    (n, 4, k, k).  Each kernel tap integrates one slice of a band; the
    module docstring gives the order of the sums, how the planes share
    discharges and how the blocks are sized.

    Row blocks are cut at multiples of row_multiple rows and shared by a
    parallel.map_blocks_team team.  With emit, every block calls emit(r0,
    r1, p0, volts) once per pair of planes p0, p0 + 1 (p0 alone for the
    last of an odd count), with their (2 or 1, r1 - r0, out_c) voltages,
    which emit must consume before it returns, writing only rows r0:r1 of
    its outputs for planes p0, p0 + 1: two threads may emit for one block
    at once.  Nothing is returned.  Without emit, returns the (n, out_r,
    out_c) grid, or (out_r, out_c) for one plane.  Volts are in the
    working dtype of the module docstring: float32 on raw-sample phases
    whose range float32 holds, float64 otherwise.
    """
    mags = np.asarray(magnitudes)
    planes = mags if mags.ndim == 4 else mags[None]
    if planes.ndim != 4 or planes.shape[1:] != (N_CHANNELS, k, k):
        raise ScheduleError(f"weight planes must be (n, 4, {k}, {k}), got {mags.shape}")
    out_r, out_c = tap_grid(phases, k, stride)
    ticks = np.asarray(match_ticks(wtc_cfg, planes), dtype=np.int64)
    bands, slices, taps = tap_plan(phases, ticks, k, stride)

    def currents(samples):
        if samples.dtype.kind in "iu":
            return frame_to_photocurrents(samples, params.i_max)
        return samples

    # A MosaicPhase's max is its mosaic's, an upper bound: the clamp is
    # then at worst applied where it changes nothing.
    x_max = max((float(currents(stack.max())) for stack, _ in bands), default=0.0)
    dtype = _working_dtype(phases, taps, params, wtc_cfg.t_step, cfg.divider, k, x_max)
    multiply, divide, add = np.multiply, np.divide, np.add
    c_f, headroom, divider = (dtype(v) for v in (params.c_f, params.headroom, cfg.divider))

    def unclamped(t):
        # The discharge's own operations, on the brightest photocurrent.
        return (x_max * t).astype(dtype) / c_f <= headroom

    n_planes = len(planes)
    groups, reads, walks = _shared_plan(bands, slices, taps, n_planes, wtc_cfg.t_step, unclamped)
    extra = (k - 1) // stride

    volts = None
    if emit is None:
        volts = np.empty((n_planes, out_r, out_c), dtype)

        def emit(r0, r1, p0, block_volts):
            volts[p0 : p0 + len(block_volts), r0:r1] = block_volts

    # A walker holds its accumulators and one CBL, the team the shared
    # discharges once.
    private = min(n_planes, 2) + 1
    n_shared = sum(len(ts) for _, _, ts, _ in groups)
    workers, blocks = parallel.plan_blocks(
        out_r, out_c, n_shared, private, (n_planes + 1) // 2, _CBL_BLOCK_SCALE, row_multiple
    )
    pitch = max((stack.shape[2] for stack, _, _, _ in groups), default=out_c)

    def layout(rows: int, heights: tuple) -> tuple:
        # Everything is laid out in flat rows of `pitch` values: each
        # member's accumulators and CBL, then each group's discharges
        # over the stack rows its taps read, halo included.  A tap's read
        # is then one contiguous run, which numpy adds faster than a 2-D
        # view.  The columns past out_c take sums of neighbouring
        # discharges and are never emitted; the values they read past a
        # stack's width or its last row are zeroed, so that no
        # uninitialized value reaches an add.
        nodes = rows * pitch
        # A run ends at most `extra` values past its discharge's last row.
        sizes = [h * pitch + extra for h in heights]
        n_walker = private * workers * nodes
        firsts = np.cumsum([n_walker] + [len(g[2]) * size for g, size in zip(groups, sizes)])
        nonlocal team_buffer
        if team_buffer.size < firsts[-1]:
            team_buffer = np.empty(firsts[-1], dtype)
        walkers = team_buffer[:n_walker].reshape(workers, private, nodes)
        discharges = []
        for start, h, size, (stack, _, ts, _) in zip(firsts.tolist(), heights, sizes, groups):
            dv = team_buffer[start : start + len(ts) * size].reshape(len(ts), size)
            grid = dv[:, : size - extra]
            shaped = grid.reshape(len(ts), h, pitch)
            width = stack.shape[2]
            # The halo tail, the columns past the stack's width, the
            # samples' place, and the discharges over whole rows.
            discharges.append((dv[:, size - extra :], shaped[:, :, width:], shaped[:, :, :width], grid))
        group, exposure, di, dj = reads
        starts = firsts[group] + exposure * np.array(sizes, dtype=np.int64)[group] + di * pitch + dj
        views = [team_buffer[start : start + nodes] for start in starts.tolist()]
        return walkers, discharges, views

    # The first block is the largest, so its layout sizes the buffer.
    team_buffer = np.empty(0, dtype)
    shapes, layouts = {}, {}
    for r0, r1 in blocks:
        # Rows of each group's band, r0 : r1 + extra cut at its stack: from
        # the shape, not from expanding the band to count it.
        heights = tuple(min(r1 + extra, stack.shape[1]) - r0 for stack, _, _, _ in groups)
        shape = (r1 - r0, heights)
        if shape not in shapes:
            shapes[shape] = layout(*shape)
        layouts[r0] = shapes[shape]

    def discharge(w: int, r0: int, r1: int) -> None:
        # Member w computes the shared discharges of groups w,
        # w + workers, ...
        for g in range(w, len(groups), workers):
            stack, ch, ts, n_safe = groups[g]
            tail, pad, target, grid = layouts[r0][1][g]
            tail.fill(0.0)
            pad.fill(0.0)
            multiply(ts, currents(stack[ch, r0 : r1 + extra]), target)
            divide(grid, c_f, grid)
            if n_safe < len(ts):
                np.minimum(grid[n_safe:], headroom, out=grid[n_safe:])

    def walk(w: int, r0: int, r1: int) -> None:
        # Member w walks channel pairs w, w + workers, ... with its own
        # accumulators and CBL.
        walkers, _, views = layouts[r0]
        accs, cbl = walkers[w, :-1], walkers[w, -1]
        for p0 in range(2 * w, n_planes, 2 * workers):
            pair = accs[: min(2, n_planes - p0)]
            for acc, plane_walk in zip(pair, walks[p0 : p0 + 2]):
                if not plane_walk:
                    acc.fill(0.0)
                # The first column sums into the accumulator; each
                # column's first tap is copied, not added: 0.0 + dv == dv.
                target = acc
                for first, *rest in plane_walk:
                    np.copyto(target, views[first])
                    for read in rest:
                        add(target, views[read], target)
                    if target is cbl:
                        add(acc, cbl, acc)
                    target = cbl
            divide(pair, divider, pair)
            emit(r0, r1, p0, pair.reshape(len(pair), r1 - r0, pitch)[:, :, :out_c])

    parallel.map_blocks_team((discharge, walk), blocks, workers)
    if volts is None:
        return None
    return volts if mags.ndim == 4 else volts[0]


def readout_frame(params: PixelParams, frame, exposure: float) -> np.ndarray:
    """Conventional per-pixel voltage readout: no accumulation, no WTC."""
    arr = np.asarray(frame, dtype=float)
    if arr.ndim != 2:
        raise ValidationError("frame must be 2-D")
    return np.asarray(integrate(params, arr, exposure), dtype=float)
