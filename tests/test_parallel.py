import sys
import threading

import numpy as np
import pytest

from ctia_ipc import parallel
from ctia_ipc.errors import ValidationError
from ctia_ipc.golden import RAW_MAX, golden_layer, polarity_codes
from ctia_ipc.mapper import ConvSpec
from ctia_ipc.pipeline import simulate_layer
from ctia_ipc.pixel import PixelParams, frame_to_photocurrents
from ctia_ipc.pixel_array import (
    N_CHANNELS,
    ArrayConfig,
    mac_node_voltages,
    photocurrent_channels,
)
from ctia_ipc.wtc import CounterConfig

from conftest import call_within, random_frame, random_layer, reference_channels, small_chain
from test_kernels import reference_mac_node_voltages, working_dtype_runs
from test_pipeline import loop_simulate_layer


@pytest.fixture
def four_cpus(monkeypatch):
    monkeypatch.setattr(parallel.os, "cpu_count", lambda: 4)


class TestWorkerCount:
    @pytest.mark.parametrize(
        "threads, n_tasks, expected",
        [("5000", 10_000, 4), ("5000", 3, 3), ("2", 10_000, 2), ("0", 10_000, 4), ("", 1, 1)],
    )
    def test_capped_at_cpus_and_tasks(self, four_cpus, monkeypatch, threads, n_tasks, expected):
        if threads:
            monkeypatch.setenv("CTIA_IPC_THREADS", threads)
        else:
            monkeypatch.delenv("CTIA_IPC_THREADS", raising=False)
        assert parallel.worker_count(n_tasks) == expected

    @pytest.mark.parametrize("threads", ["-1", "two"])
    def test_invalid_rejected(self, monkeypatch, threads):
        monkeypatch.setenv("CTIA_IPC_THREADS", threads)
        with pytest.raises(ValidationError):
            parallel.worker_count(8)

    def test_row_block_pool_is_capped(self, four_cpus, monkeypatch):
        # plan_blocks sizes a layer kernel's team: capped at the 4 CPUs and
        # at the tasks, and one member for a grid of fewer than
        # ROW_BLOCK_NODES nodes.
        monkeypatch.setattr(parallel, "ROW_BLOCK_NODES", 10)
        monkeypatch.setenv("CTIA_IPC_THREADS", "5000")
        assert parallel.plan_blocks(7, 5, 0, 1, 10_000, 1) == (4, [(0, 2), (2, 4), (4, 6), (6, 7)])
        assert parallel.plan_blocks(7, 5, 0, 1, 3, 1)[0] == 3
        assert parallel.plan_blocks(3, 3, 0, 1, 10_000, 1)[0] == 1


@pytest.mark.parametrize("threads", ["1", "3"])
@pytest.mark.parametrize("failing", [None, 4])
def test_row_blocks_taken_once(four_cpus, monkeypatch, threads, failing):
    # 20 blocks of 2 rows, walked in two steps by a team of up to 3
    # threads switching every microsecond: each member takes every block
    # once, in order, unless one raises.  Then the exception reaches the
    # caller, every started thread has ended, and no member walks past the
    # failing block, which the last member (a started thread on a team of
    # 3) fails in its first step.
    monkeypatch.setenv("CTIA_IPC_THREADS", threads)
    workers = parallel.worker_count(20)
    blocks = parallel.row_blocks(40, 1, 2, 2)
    walked = [[] for _ in range(workers)]  # per member: (step, r0)

    def step(name):
        def run(w, r0, r1):
            walked[w].append((name, r0))
            if r0 == failing and w == workers - 1:
                raise RuntimeError(f"block {r0} failed")

        return run

    before = set(threading.enumerate())
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        walk = (parallel.map_blocks_team, (step("first"), step("second")), blocks, workers)
        if failing is None:
            call_within(30, *walk)
        else:
            with pytest.raises(RuntimeError, match="block 4 failed"):
                call_within(30, *walk)
    finally:
        sys.setswitchinterval(interval)
    assert set(threading.enumerate()) == before
    assert len(blocks) == 20
    every = [(name, r0) for r0, _ in blocks for name in ("first", "second")]
    for member in walked:
        assert member == every[: len(member)]
    if failing is None:
        assert walked == [every] * workers
    else:
        assert walked[-1] == every[: every.index(("first", 4)) + 1]
        assert max(r0 for member in walked for _, r0 in member) <= 4


def test_layer_identical_across_threads_and_row_blocks(monkeypatch):
    # Blocks of 3 rows over a 31-row grid: 11 blocks, more than the 3
    # workers, so the threaded path runs and blocks finish out of order.
    monkeypatch.setattr(parallel, "ROW_BLOCK_NODES", 3 * 31)
    rng = np.random.default_rng(77)
    spec = ConvSpec(k=5, s=2, p=1, c_o=3)
    chain = small_chain(64, 64)
    _, _, fused = random_layer(rng, spec)
    frame = random_frame(rng, 64, 64)
    cal = chain.calibration(fused.mag_max)
    runs = []
    for threads in ("1", "3"):
        monkeypatch.setenv("CTIA_IPC_THREADS", threads)
        activations = simulate_layer(frame, fused, spec, chain)
        runs.append((activations, golden_layer(frame, fused, spec, chain.adc, cal)))
    expected, signed = loop_simulate_layer(frame, fused, spec, chain)
    assert signed.shape == (3, 31, 31)
    assert len(parallel.row_blocks(31, 31)) == 11
    for a, b in zip(*runs):
        assert np.array_equal(a, b)
    assert np.array_equal(runs[0][0], expected)


class TestTeam:
    """The MAC walk on a team of threads that share each block:
    bit-exact at any team size, and an exception ends every member."""

    # 7 planes, the last alone in its pair, plane 3 without a tap: 4
    # channel pairs, enough for a team of 3.  At k3s3 every tap reads its
    # own phase stack.
    N_PLANES = 7

    @staticmethod
    def layer(k, s):
        rng = np.random.default_rng(31 * k + s)
        raw = random_frame(rng, 40, 46)
        mags = rng.integers(0, 4, (TestTeam.N_PLANES, N_CHANNELS, k, k)) * 5
        mags[3] = 0
        return raw, mags

    @pytest.fixture
    def teams(self, monkeypatch):
        # Each team's size and blocks, as mac_node_voltages hands them over.
        seen = []
        team = parallel.map_blocks_team

        def recording(steps, blocks, workers):
            seen.append((workers, list(blocks)))
            return team(steps, blocks, workers)

        monkeypatch.setattr(parallel, "map_blocks_team", recording)
        # Blocks of one row_multiple: 4 rows, but for a ragged last one.
        monkeypatch.setattr(parallel, "ROW_BLOCK_NODES", 1)
        return seen

    @pytest.mark.parametrize("threads", ["1", "2", "3"])
    @pytest.mark.parametrize("k, s", [(3, 1), (5, 2), (3, 3)])
    def test_bit_exact(self, four_cpus, teams, monkeypatch, threads, k, s):
        monkeypatch.setenv("CTIA_IPC_THREADS", threads)
        raw, mags = self.layer(k, s)
        pixel, wtc = PixelParams(), CounterConfig()
        cfg = ArrayConfig(rows=40, cols=46)
        # Up to 3 members on fewer cores, switching threads every
        # microsecond: a member that reads a block before it is whole, or
        # writes into one still being read, changes the voltages.
        runs = working_dtype_runs(raw, 0, s, pixel.i_max)
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            results = [
                call_within(30, mac_node_voltages, cfg, pixel, wtc, phases, mags, k, s, None, 4)
                for phases, _ in runs
            ]
        finally:
            sys.setswitchinterval(interval)
        assert len(teams) == len(runs)
        for workers, blocks in teams:
            assert workers == int(threads)
            assert len(blocks) > workers
            assert {r1 - r0 for r0, r1 in blocks[:-1]} == {4}
            assert blocks[-1][1] - blocks[-1][0] < 4
        channels = reference_channels(frame_to_photocurrents(raw, pixel.i_max))
        for got, (_, dtype) in zip(results, runs):
            assert got.dtype == dtype
            for plane, plane_mags in zip(got, mags):
                expected = reference_mac_node_voltages(
                    cfg, pixel, wtc, channels, plane_mags, k, s, dtype
                )
                assert np.array_equal(plane, expected)

    # Both layer kernels, on 4-row blocks.  The MAC's member w walks pairs
    # w, w + 3, ..., the golden model's member w the pairs w * 4 // 3 to
    # (w + 1) * 4 // 3: in both, the calling thread emits p0 = 0, a started
    # thread p0 = 2.
    @pytest.mark.parametrize("failing_pair", [0, 2])
    def test_raising_emit_ends_the_team(self, four_cpus, teams, monkeypatch, failing_pair):
        monkeypatch.setenv("CTIA_IPC_THREADS", "3")
        raw, mags = self.layer(3, 1)
        phases = photocurrent_channels(raw, 0, 1)
        kernels = (
            lambda emit: mac_node_voltages(
                ArrayConfig(rows=40, cols=46), PixelParams(), CounterConfig(), phases, mags, 3, 1,
                emit, 4,
            ),
            lambda emit: polarity_codes(
                phases, mags, ConvSpec(k=3, s=1, p_s=4), 1 / RAW_MAX, 63, 15 * RAW_MAX, emit
            ),
        )
        for walk in kernels:
            emitted = []

            def emit(r0, r1, p0, block):
                if p0 == failing_pair and r0 >= 8:
                    raise RuntimeError(f"emit failed at pair {p0}")
                emitted.extend((r0, p) for p in range(p0, p0 + len(block)))

            before = set(threading.enumerate())
            with pytest.raises(RuntimeError, match=f"emit failed at pair {failing_pair}"):
                call_within(30, walk, emit)
            assert teams[-1][0] == 3
            assert set(threading.enumerate()) == before
            # The blocks before the failing one were emitted whole, and no
            # member walked past the block that failed.
            assert {(r0, p) for r0, p in emitted if r0 < 8} == {
                (r0, p) for r0 in (0, 4) for p in range(self.N_PLANES)
            }
            assert max(r0 for r0, _ in emitted) <= 8
        assert len(teams) == 2
