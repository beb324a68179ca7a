import sys
import threading

import numpy as np
import pytest

from ctia_ipc import parallel
from ctia_ipc.errors import ValidationError
from ctia_ipc.golden import golden_layer
from ctia_ipc.mapper import ConvSpec
from ctia_ipc.pipeline import simulate_layer
from ctia_ipc.pixel import PixelParams, frame_to_photocurrents
from ctia_ipc.pixel_array import (
    N_CHANNELS,
    ArrayConfig,
    bayer_channel_view,
    mac_node_voltages,
    photocurrent_channels,
)
from ctia_ipc.wtc import CounterConfig

from conftest import call_within, random_frame, random_layer, small_chain
from test_kernels import reference_mac_node_voltages


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
        seen, done = [], []

        def recording(member, workers, abort):
            # Records the team size and runs the members inline, so no
            # thread is started.
            seen.append(workers)
            for w in range(workers):
                member(w)

        monkeypatch.setattr(parallel, "run_team", recording)
        monkeypatch.setattr(parallel, "ROW_BLOCK_NODES", 10)
        monkeypatch.setenv("CTIA_IPC_THREADS", "5000")
        parallel.map_row_blocks(lambda r0, r1: done.append((r0, r1)), 7, 5)
        assert seen == [4]
        assert done == [(0, 2), (2, 4), (4, 6), (6, 7)]


@pytest.mark.parametrize("threads", ["1", "3"])
@pytest.mark.parametrize("failing", [None, 4])
def test_row_blocks_taken_once(four_cpus, monkeypatch, threads, failing):
    # 20 blocks of 2 rows, taken by up to 3 threads switching every
    # microsecond: no block runs twice, and all run unless one raises.
    # Then the exception reaches the caller, every started thread has
    # ended, and a lone thread stops at the failing block.
    monkeypatch.setenv("CTIA_IPC_THREADS", threads)
    started = []

    def fn(r0, r1):
        started.append(r0)
        if r0 == failing:
            raise RuntimeError(f"block {r0} failed")

    before = set(threading.enumerate())
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        if failing is None:
            call_within(30, parallel.map_row_blocks, fn, 40, 1, 2)
        else:
            with pytest.raises(RuntimeError, match="block 4 failed"):
                call_within(30, parallel.map_row_blocks, fn, 40, 1, 2)
    finally:
        sys.setswitchinterval(interval)
    assert set(threading.enumerate()) == before
    assert len(started) == len(set(started))
    if failing is None:
        assert sorted(started) == list(range(0, 40, 2))
    elif threads == "1":
        assert started == [0, 2, 4]


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
        activations, signed = simulate_layer(frame, fused, spec, chain, return_codes=True)
        runs.append((activations, signed, golden_layer(frame, fused, spec, chain.adc, cal)))
    assert runs[0][1].shape == (3, 31, 31)
    assert len(parallel.row_blocks(31, 31)) == 11
    for a, b in zip(*runs):
        assert np.array_equal(a, b)


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
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            got = call_within(
                30, mac_node_voltages, cfg, pixel, wtc, photocurrent_channels(raw, 0, s),
                mags, k, s, None, 4,
            )
        finally:
            sys.setswitchinterval(interval)
        [(workers, blocks)] = teams
        assert workers == int(threads)
        assert len(blocks) > workers
        assert {r1 - r0 for r0, r1 in blocks[:-1]} == {4} and blocks[-1][1] - blocks[-1][0] < 4
        channels = bayer_channel_view(frame_to_photocurrents(raw, pixel.i_max))
        for plane, plane_mags in zip(got, mags):
            expected = reference_mac_node_voltages(cfg, pixel, wtc, channels, plane_mags, k, s)
            assert np.array_equal(plane, expected)

    # Channel pair p0 is walked by member p0 // 2 % 3: the calling thread
    # for p0 = 0, a started thread for p0 = 2.
    @pytest.mark.parametrize("failing_pair", [0, 2])
    def test_raising_emit_ends_the_team(self, four_cpus, teams, monkeypatch, failing_pair):
        monkeypatch.setenv("CTIA_IPC_THREADS", "3")
        raw, mags = self.layer(3, 1)
        emitted = []

        def emit(r0, r1, p0, volts):
            if p0 == failing_pair and r0 >= 8:
                raise RuntimeError(f"emit failed at pair {p0}")
            emitted.append((r0, p0))

        before = set(threading.enumerate())
        with pytest.raises(RuntimeError, match=f"emit failed at pair {failing_pair}"):
            call_within(
                30, mac_node_voltages, ArrayConfig(rows=40, cols=46), PixelParams(),
                CounterConfig(), photocurrent_channels(raw, 0, 1), mags, 3, 1, emit, 4,
            )
        assert teams[0][0] == 3
        assert set(threading.enumerate()) == before
        # The blocks before the failing one were emitted whole, and no
        # member walked past the block that failed.
        assert {(r0, p0) for r0, p0 in emitted if r0 < 8} == {
            (r0, p0) for r0 in (0, 4) for p0 in range(0, self.N_PLANES, 2)
        }
        assert max(r0 for r0, _ in emitted) <= 8
