import numpy as np
import pytest

from ctia_ipc import parallel
from ctia_ipc.errors import ValidationError
from ctia_ipc.golden import golden_layer
from ctia_ipc.mapper import ConvSpec
from ctia_ipc.pipeline import simulate_layer

from conftest import random_frame, random_layer, small_chain


class RecordingExecutor:
    """Stands in for ThreadPoolExecutor: records max_workers and runs the
    tasks inline, so no thread is started."""

    def __init__(self, seen, max_workers):
        seen.append(max_workers)

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        return False

    def map(self, fn, iterable):
        return map(fn, iterable)


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
        monkeypatch.setattr(parallel, "ThreadPoolExecutor", lambda max_workers: RecordingExecutor(seen, max_workers))
        monkeypatch.setattr(parallel, "ROW_BLOCK_NODES", 10)
        monkeypatch.setenv("CTIA_IPC_THREADS", "5000")
        parallel.map_row_blocks(lambda r0, r1: done.append((r0, r1)), 7, 5)
        assert seen == [4]
        assert done == [(0, 2), (2, 4), (4, 6), (6, 7)]


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
