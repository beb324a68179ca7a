"""Worker threads for the layer kernels, and the block size they, Monte
Carlo and the readout share.

CTIA_IPC_THREADS caps the worker count (0 or unset = one per CPU).  The
count is further capped at the CPU count and at the number of tasks (a
layer's channel pairs), so no setting starts more threads than there is
hardware or work for.

Both layer kernels, the simulator's MAC and the golden model, take
their team and their row blocks, cut at multiples of the pooling stride
so that each block pools whole windows, from plan_blocks and walk them
with map_blocks_team.  Its members fill a block's shared values together
(the MAC's discharges, the golden model's tap features), then each works
its own channel pairs over them (see pixel_array and golden).  The MAC
keeps every node's summation order and the golden model's sums are exact
integers, so results are bit-identical at any worker count.  The team
runs on plain threads, the calling thread among them, so no CLI start
imports concurrent.futures and the modules it pulls in.

Monte Carlo runs on the calling thread, in chunks of trials cut by
row_blocks.  Each trial draws from its own (seed, trial) stream, seeded
from the words that metrics.trial_seed_words derives for all trials in
one pass, so the chunking cannot change a sample.  The CLI's readout
also walks the frame in ROW_BLOCK_NODES blocks on the calling thread:
each block is read from the frame's file and its codes are written to
the output file before the next block is read, so that no frame-sized
buffer exists.

The threads gain only inside numpy calls, which release the interpreter
lock; every call takes it back, and a thread waiting for it loses more
than the call's work when the call is short.  On a 2-vCPU host, np.add
over 4,096 float64 elements ran 2x slower on 2 threads than on one, and
over 16,384 elements no faster; at 32,768 elements 2 threads were 1.4x
faster, at 65,536 1.8x.  The layer MAC adds float32 (see pixel_array),
which on that host takes about half the time of a float64 add over the
same elements and gains no sooner: over 4,096 float32 elements 2 threads
ran 2.6x slower than one, over 16,384 2x slower; at 32,768 they were
1.4x faster, at 65,536 1.6x and at 131,072 1.8x.  So plan_blocks sizes
the blocks in nodes, whatever the dtype, to keep the kernels' calls
long: the simulator's MAC makes one add per plane and tap over the whole
block.  In float64, halving its budget, to blocks of about 11k nodes at
k7s2 and k3s1, made 2-thread simulate_layer runs on the full demo frame
slower than 1-thread ones on that host (k7s2 0.65 s against 0.51 s,
k3s1 0.92 s against 0.83 s), where the full budget gave 0.43 s and
0.69 s on 2 threads.  A team holds the shared discharges once, not once
per thread, so in the same memory its blocks are about twice as long at
2 threads: there k3s1 took 0.56-0.63 s against 0.75-0.82 s (best of 5)
with one block per thread.  Where many shared values would cut the
blocks short, as the MAC's discharges at odd strides or the golden
model's features, blocks keep at least ROW_BLOCK_NODES // 4 nodes per
team member.
"""

from __future__ import annotations

import os
import threading

from .errors import ValidationError

# The unit of row-block size: the layer kernels' block buffers are
# multiples of it (divided by the values they hold per node), and Monte
# Carlo chunks hold this many pixel instances.
ROW_BLOCK_NODES = 1 << 15


def worker_count(n_tasks: int) -> int:
    """Threads to use for n_tasks independent tasks."""
    raw = os.environ.get("CTIA_IPC_THREADS", "0")
    try:
        n = int(raw)
    except ValueError:
        raise ValidationError(f"CTIA_IPC_THREADS must be an integer, got {raw!r}")
    if n < 0:
        raise ValidationError("CTIA_IPC_THREADS must be >= 0")
    if n_tasks <= 1:
        return 1
    cpus = os.cpu_count() or 1
    return max(1, min(n or cpus, cpus, n_tasks))


def row_blocks(
    out_r: int, out_c: int, block_nodes: int | None = None, multiple: int = 1
) -> list:
    """(r0, r1) row ranges of about block_nodes (default ROW_BLOCK_NODES)
    nodes covering an out_r x out_c grid.  Every block but the last holds
    a multiple of `multiple` rows, at least one multiple."""
    if block_nodes is None:
        block_nodes = ROW_BLOCK_NODES
    step = max(1, block_nodes // max(out_c, 1) // multiple) * multiple
    return [(r0, min(r0 + step, out_r)) for r0 in range(0, out_r, step)]


def plan_blocks(
    out_r: int, out_c: int, shared: int, private: int, n_tasks: int, scale: int,
    multiple: int = 1,
) -> tuple:
    """(workers, blocks) of a map_blocks_team walk over an out_r x out_c
    grid whose blocks hold `shared` values per node for the whole team and
    `private` more per node for each member.  The team has
    worker_count(n_tasks) members, or one for a grid of fewer than
    ROW_BLOCK_NODES nodes.  Its blocks are row_blocks cut at `multiple`
    rows, holding about scale * ROW_BLOCK_NODES values per member, and at
    least ROW_BLOCK_NODES // 4 nodes per member."""
    workers = worker_count(n_tasks if out_r * out_c >= ROW_BLOCK_NODES else 1)
    block_nodes = max(
        scale * ROW_BLOCK_NODES * workers // (shared + private * workers),
        workers * (ROW_BLOCK_NODES // 4),
    )
    return workers, row_blocks(out_r, out_c, block_nodes, multiple)


def map_blocks_team(steps, blocks, workers: int) -> None:
    """Walk blocks in order with a team of `workers` threads that all work
    on every block: for each (r0, r1) of blocks, every member w calls
    step(w, r0, r1) for each step of steps in turn, and a barrier closes
    each step, so that a step reads whatever the steps before it wrote.
    Member 0 runs on the calling thread once it has started the others.
    A member that raises breaks the barrier, and the others stop at it;
    the first exception is raised once every thread has finished."""
    barrier = threading.Barrier(workers)
    errors = []

    def member(w: int) -> None:
        try:
            if w == 0:
                for thread in team:
                    thread.start()
            for r0, r1 in blocks:
                for step in steps:
                    step(w, r0, r1)
                    barrier.wait()
        except threading.BrokenBarrierError:
            pass
        except BaseException as exc:
            errors.append(exc)
            barrier.abort()

    team = [threading.Thread(target=member, args=(w,)) for w in range(1, workers)]
    member(0)
    for thread in team:
        if thread.ident is not None:
            thread.join()
    if errors:
        raise errors[0]
