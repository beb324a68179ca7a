#!/usr/bin/env python3
"""Benchmark of the ctia-ipc-sim command line, end to end and layer by layer.

    python3 perfbench/bench.py --workload frame_k7s2_verify --seed 0 --seconds 30 --trace 0

Run from the root of a source checkout; ctia_ipc is imported from its
src/.  The inputs are generated from --seed into .perfbench_work/ and are
removed at exit.  Each measured run is a fresh interpreter that calls
ctia_ipc.cli.main for the workload's modes (perfbench/child.py).

One run of this script:
  1. runs the workload once at CTIA_IPC_THREADS=1, untimed, and checks
     every output against its oracle; its artifact digest becomes the
     reference;
  2. with --trace 0, runs the workload at CTIA_IPC_THREADS=nproc until
     --seconds have passed and reports medians of the end-to-end metrics;
     with --trace 1, alternates untraced and traced runs and reports the
     medians of the per-layer metrics;
  3. before each of those runs SETUP_PER_RUN times, and at the end until
     there are SETUP_SAMPLES, times a fresh interpreter that imports
     ctia_ipc.cli and returns from load_config (setup_s is their median),
     so that the set-up samples spread over the whole run;
  4. checks every run's exit codes and requires its artifact digest to
     equal the reference, so a run counts as failed when any output
     differs; a traced run also fails when a span of the workload was
     never entered.

The frame is always FULL_ROWS x FULL_COLS, so every run's figures can be
compared with every other's.

It prints a record of every metric with its unit, the digests, the
pinned environment and a host-speed probe taken at the start and at the
end, then, as its last line, the result object
{"correct", "attempted", "failed", "metrics"}.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import tempfile
import time

# Pinned before numpy loads, in this process and in every child.
BLAS_THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
for _var in BLAS_THREAD_VARS:
    os.environ[_var] = "1"

import numpy  # noqa: E402  (after the thread pinning above)
import workloads  # noqa: E402

HERE = os.path.dirname(os.path.abspath(__file__))
CHILD = os.path.join(HERE, "child.py")
WORK_ROOT = os.path.join(workloads.ROOT, ".perfbench_work")
# Every child is killed once --seconds plus this long have passed since
# the run began.
LIMIT_MARGIN_S = 130
SETUP_PER_RUN = 3
SETUP_SAMPLES = 31
HOST_PROBE_LOOPS = 1_000_000
HOST_PROBE_ARRAY = 4_000_000  # float64, 32 MB: larger than the caches
HOST_PROBE_PASSES = 20

SETUP_CODE = (
    "import sys\n"
    "from ctia_ipc.cli import load_config\n"
    "load_config(sys.argv[1])\n"
)

END_TO_END_UNITS = {
    "wall_s": "s",
    "sim_macs_per_s": "1/s",
    "peak_rss_mb": "MB",
    "setup_s": "s",
}
# Correctness figures: printed in the record, enforced through "failed".
ACCURACY_UNITS = {"failed_frac": "fraction", "max_abs_delta": "code", "exact_frac": "fraction"}
PER_LAYER_UNITS = {
    "config.load_config_s": "s",
    "formats.load_pgm16_s": "s",
    "formats.load_weights_s": "s",
    "formats.save_pgm16_s": "s",
    "formats.write_json_s": "s",
    "formats.write_csv_s": "s",
    "formats.bytes_written": "bytes",
    "mapper.fuse_and_quantize_s": "s",
    "mapper.build_schedule_s": "s",
    "mapper.schedule_cycles": "count",
    "pipeline.simulate_layer_s": "s",
    "pipeline.simulate_layer_self_s": "s",
    "pipeline.photocurrent_channels_s": "s",
    "pipeline.sweep_window_chain_s": "s",
    "pipeline.sweep_window_chain_calls": "count",
    "pixel_array.mac_node_voltages_s": "s",
    "pixel_array.mac_node_voltages_calls": "count",
    "pixel_array.run_mac_cycle_s": "s",
    "pixel_array.run_mac_cycle_calls": "count",
    "pixel_array.readout_frame_s": "s",
    "pixel_array.tap_macs": "count",
    "pixel.integrate_s": "s",
    "pixel.integrate_calls": "count",
    "adc.cds_signed_s": "s",
    "adc.relu_requantize_s": "s",
    "adc.maxpool_s": "s",
    "adc.conversions": "count",
    "golden.golden_layer_s": "s",
    "golden.compare_runs_s": "s",
    "metrics.linearity_sweep_s": "s",
    "metrics.monte_carlo_s": "s",
    "metrics.metrics_report_s": "s",
    "trace.wall_s": "s",
    "trace.overhead_s": "s",
}


def nproc() -> int:
    return len(os.sched_getaffinity(0))


def host_probe() -> dict:
    """Seconds a fixed pure-Python loop and a fixed memory-bound numpy pass
    take.  They grow when the host's processors or its memory bus are
    loaded, so a run made under load can be recognised and made again."""
    start = time.perf_counter()
    total = 0
    for i in range(HOST_PROBE_LOOPS):
        total += i
    python_s = time.perf_counter() - start
    src = numpy.ones(HOST_PROBE_ARRAY)
    dst = numpy.empty_like(src)
    start = time.perf_counter()
    for _ in range(HOST_PROBE_PASSES):
        numpy.multiply(src, 1.0001, out=dst)
    return {"python_loop_s": python_s, "numpy_stream_s": time.perf_counter() - start}


class Bench:
    """One benchmark run of one workload: its inputs, its child processes
    and the tally of attempted and failed runs."""

    def __init__(self, workload, seed: int, work_dir: str, seconds: float):
        self.deadline = time.monotonic() + seconds + LIMIT_MARGIN_S
        self.workload = workload
        self.work_dir = work_dir
        self.inputs = workloads.make_inputs(workload, seed, work_dir)
        self.macs = workloads.simulated_macs(workload, self.inputs)
        self.attempted = 0
        self.failed = 0
        self.problems = []
        self.reference_digest = None
        self.reference_check = {}

    def _spawn(self, argv: list, threads: int):
        """Run one child process; returns it, or None after counting it as
        failed.  Children share a deadline so that a hung program cannot
        keep the benchmark past its time limit."""
        env = dict(os.environ, PYTHONPATH=workloads.SRC, CTIA_IPC_THREADS=str(threads))
        timeout = max(1.0, self.deadline - time.monotonic())
        try:
            proc = subprocess.run(
                [sys.executable] + argv, env=env, cwd=self.work_dir, capture_output=True, timeout=timeout
            )
        except subprocess.TimeoutExpired:
            self._fail(f"{argv[0]} killed after {timeout:.0f} s")
            return None
        if proc.returncode != 0:
            self._fail(f"{argv[0]} exited {proc.returncode}: {proc.stderr.decode()[-500:]}")
            return None
        return proc

    def _fail(self, problem: str) -> None:
        self.failed += 1
        self.problems.append(problem)

    def setup_time(self) -> float | None:
        """Seconds from spawning a fresh interpreter to load_config having
        returned; None when the program cannot be imported."""
        self.attempted += 1
        start = time.perf_counter()
        proc = self._spawn(["-c", SETUP_CODE, self.inputs.config_path], threads=1)
        elapsed = time.perf_counter() - start
        return None if proc is None else elapsed

    def run_workload(self, threads: int, trace: bool) -> dict | None:
        """One fresh-process run of every mode of the workload; returns the
        child's result, or None after counting the run as failed."""
        self.attempted += 1
        shutil.rmtree(self.inputs.out_root, ignore_errors=True)
        spec = {"runs": [self.inputs.argv(m) for m in self.workload.modes], "trace": trace}
        spec_path = os.path.join(self.work_dir, "spec.json")
        with open(spec_path, "w", encoding="utf-8") as handle:
            json.dump(spec, handle)
        proc = self._spawn([CHILD, spec_path], threads)
        if proc is None:
            return None
        result = json.loads(proc.stdout.decode().splitlines()[-1])
        problems = [f"{m} exited {c}" for m, c in zip(self.workload.modes, result["codes"]) if c]
        if trace:
            problems += [f"tracing could not wrap {u}" for u in result["unwrapped"]]
            problems += [
                f"traced span {s} was never entered; update perfbench/child.py SPANS"
                for s in self.workload.spans
                if not result["layers"].get(f"{s}_calls")
            ]
        if not problems:
            try:
                problems = self.check_outputs(full=self.reference_digest is None)
            except Exception as exc:  # a missing or malformed artifact
                problems = [f"checking the outputs raised {exc!r}"]
        if problems:
            self._fail("; ".join(problems))
            return None
        result["bytes_written"] = workloads.artifact_bytes(self.inputs.out_root)
        return result

    def check_outputs(self, full: bool) -> list:
        """Check this run's artifacts.  The first run is checked against the
        oracles in full and sets the reference digest; later runs must
        reproduce it byte for byte (verify and chain_characterize also
        repeat their own checks, which are cheap)."""
        name = self.workload.name
        if name == "frame_k3s1_simulate":
            check = {"problems": []}
            if full:
                gold, max_within = workloads.golden_activations(self.inputs)
                check = workloads.check_activations(
                    workloads.read_activations(self.inputs), gold, max_within
                )
        elif name == "frame_k7s2_verify":
            check = workloads.check_verify(self.inputs)
        else:
            check = workloads.check_chain(self.inputs)
        problems = check.pop("problems")
        digest = workloads.artifact_digest(self.inputs.out_root)
        if full and not problems:
            self.reference_digest = digest
            self.reference_check = check
        elif not full and digest != self.reference_digest:
            problems.append(f"artifact digest {digest} != reference {self.reference_digest}")
        return problems


def median(values):
    """Median, or None when no run succeeded."""
    return statistics.median(values) if values else None


def measure(bench: Bench, seconds: float, trace: bool) -> dict:
    bench.run_workload(threads=1, trace=False)
    threads = nproc()
    setup, plain, traced = [], [], []
    started = time.perf_counter()
    longest = 0.0
    while True:
        for is_traced in (False, True) if trace else (False,):
            t0 = time.perf_counter()
            setup.extend(bench.setup_time() for _ in range(SETUP_PER_RUN))
            result = bench.run_workload(threads, is_traced)
            longest = max(longest, time.perf_counter() - t0)
            if result is not None:
                (traced if is_traced else plain).append(result)
        elapsed = time.perf_counter() - started
        cycle = longest * (2 if trace else 1)
        if elapsed + cycle > seconds:
            break
    while len(setup) < SETUP_SAMPLES:
        setup.append(bench.setup_time())
    setup = [t for t in setup if t is not None]
    metrics = {}
    if trace:
        for name in PER_LAYER_UNITS:
            metrics[name] = median([r["layers"].get(name, 0) for r in traced])
        metrics["formats.bytes_written"] = median([r["bytes_written"] for r in traced])
        metrics["trace.wall_s"] = median([r["wall_s"] for r in traced])
        untraced_wall = median([r["wall_s"] for r in plain])
        if None not in (metrics["trace.wall_s"], untraced_wall):
            metrics["trace.overhead_s"] = metrics["trace.wall_s"] - untraced_wall
        units = PER_LAYER_UNITS
    else:
        wall = median([r["wall_s"] for r in plain])
        metrics = {
            "wall_s": wall,
            "sim_macs_per_s": bench.macs / wall if wall else None,
            "peak_rss_mb": median([r["peak_rss_mb"] for r in plain]),
            "setup_s": median(setup),
        }
        units = END_TO_END_UNITS
    return {
        "metrics": {k: {"value": metrics[k], "unit": units[k]} for k in units},
        "samples": {"setup": len(setup), "untraced": len(plain), "traced": len(traced)},
        "walls_s": [r["wall_s"] for r in plain],
        "threads": threads,
    }


def environment(threads: int) -> dict:
    env = {var: os.environ[var] for var in BLAS_THREAD_VARS}
    env.update(
        CTIA_IPC_THREADS_timed=threads,
        CTIA_IPC_THREADS_reference=1,
        nproc=nproc(),
        python=platform.python_version(),
        numpy=numpy.__version__,
        machine=platform.machine(),
    )
    return env


def parse_args(argv=None):
    parser = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def main(argv=None) -> int:
    args = parse_args(argv)
    problem = workloads.checkout_problem()
    if problem:
        print(f"bench: cannot run from this directory: {problem}", file=sys.stderr)
        return 2
    os.makedirs(WORK_ROOT, exist_ok=True)
    work_dir = tempfile.mkdtemp(prefix=f"{args.workload}-", dir=WORK_ROOT)
    probe = {"start": host_probe()}
    try:
        bench = Bench(workloads.WORKLOADS[args.workload], args.seed, work_dir, args.seconds)
        run = measure(bench, args.seconds, bool(args.trace))
    finally:
        shutil.rmtree(work_dir, ignore_errors=True)
    probe["end"] = host_probe()
    accuracy = {"failed_frac": bench.failed / bench.attempted}
    if bench.workload.is_frame:
        accuracy.update((k, bench.reference_check.get(k)) for k in ("max_abs_delta", "exact_frac"))
    record = {
        "workload": args.workload,
        "seed": args.seed,
        "trace": args.trace,
        "frame": [workloads.FULL_ROWS, workloads.FULL_COLS],
        "simulated_macs": bench.macs,
        "metrics": run["metrics"],
        "accuracy": {k: {"value": v, "unit": ACCURACY_UNITS[k]} for k, v in accuracy.items()},
        "checks": {k: v for k, v in bench.reference_check.items() if k not in accuracy},
        "artifact_sha256": bench.reference_digest,
        "samples": run["samples"],
        "untraced_walls_s": run["walls_s"],
        "environment": environment(run["threads"]),
        "host_probe_s": probe,
        "problems": bench.problems,
    }
    print(json.dumps(record, indent=1, sort_keys=True))
    result = {
        "correct": bench.failed == 0 and bench.reference_digest is not None,
        "attempted": bench.attempted,
        "failed": bench.failed,
        "metrics": run["metrics"],
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
