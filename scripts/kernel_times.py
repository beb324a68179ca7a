#!/usr/bin/env python3
"""In-process seconds and minor page faults of the two layer kernels.

    python3 scripts/kernel_times.py --config demo/config.json
    CTIA_IPC_THREADS=1 python3 scripts/kernel_times.py --config demo/config.json --repeat 3

Each row runs in a new interpreter that loads the config's frame and
weights and then calls a layer kernel --repeat times, timing every call
with time.perf_counter and counting its minor page faults with
resource.getrusage (Unix only):

- simulate_layer: pipeline.simulate_layer alone;
- golden_layer: golden.golden_layer alone, as no CLI mode runs it;
- golden_layer after simulate_layer: one simulate_layer call first, as
  `verify` runs them.

One markdown table row is printed per call: the first call's seconds and
faults, the best seconds of all calls, and the fewest and the most
faults of a later call ("low-high").  The calls run at the
CTIA_IPC_THREADS (and BLAS thread settings) of the environment.  The
interpreters run with -B and write no file; ctia_ipc is imported as the
environment finds it (PYTHONPATH=src from a checkout).
"""

import argparse
import os
import subprocess
import sys

CALLS = ("simulate_layer", "golden_layer", "golden_layer after simulate_layer")

# argv: config, call, repeat.  Prints one "seconds faults" line per timed
# call.
_CHILD = """
import resource, sys, time
from ctia_ipc import formats
from ctia_ipc.config import load_config, require_input
from ctia_ipc.golden import golden_layer
from ctia_ipc.mapper import fuse_and_quantize
from ctia_ipc.pipeline import simulate_layer
config, call, repeat = sys.argv[1], sys.argv[2], int(sys.argv[3])
cfg = load_config(config)
frame = formats.load_pgm16(require_input(cfg, "frame_path"))
fused = fuse_and_quantize(*formats.load_weights(require_input(cfg, "weights_path")), cfg.conv.mag_max)
chain = cfg.chain()
def simulate():
    simulate_layer(frame, fused, cfg.conv, chain)
def golden():
    golden_layer(frame, fused, cfg.conv, chain.adc, chain.calibration(fused.mag_max))
if call.endswith("after simulate_layer"):
    simulate()
kernel = simulate if call == "simulate_layer" else golden
for _ in range(repeat):
    faults = resource.getrusage(resource.RUSAGE_SELF).ru_minflt
    start = time.perf_counter()
    kernel()
    seconds = time.perf_counter() - start
    print(seconds, resource.getrusage(resource.RUSAGE_SELF).ru_minflt - faults)
"""


def measure(config: str, call: str, repeat: int) -> list:
    """[(seconds, minor faults)] of each call in one fresh process."""
    done = subprocess.run(
        [sys.executable, "-B", "-c", _CHILD, config, call, str(repeat)],
        capture_output=True,
        text=True,
    )
    if done.returncode:
        sys.stderr.write(done.stderr)
        raise SystemExit(f"{call}: the process exited with {done.returncode}")
    return [(float(s), int(f)) for s, f in (line.split() for line in done.stdout.splitlines())]


def main() -> int:
    parser = argparse.ArgumentParser(
        description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter
    )
    parser.add_argument("--config", required=True, help="run configuration")
    parser.add_argument("--repeat", type=int, default=5, help="calls per row (default 5)")
    args = parser.parse_args()
    if args.repeat < 1:
        parser.error("--repeat must be >= 1")
    config = os.path.abspath(args.config)
    threads = os.environ.get("CTIA_IPC_THREADS") or "0"
    print(f"CTIA_IPC_THREADS={threads}, best of {args.repeat}")
    print("| call | first s | first faults | best s | later faults |")
    print("|------|---------|--------------|--------|--------------|")
    for call in CALLS:
        runs = measure(config, call, args.repeat)
        (first_s, first_faults), later = runs[0], sorted(f for _, f in runs[1:])
        spread = f"{later[0]}-{later[-1]}" if later else "-"
        best = min(s for s, _ in runs)
        print(f"| {call} | {first_s:.3f} | {first_faults} | {best:.3f} | {spread} |")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
