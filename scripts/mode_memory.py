#!/usr/bin/env python3
"""Peak resident memory of CLI modes, each run in a fresh process.

    python3 scripts/mode_memory.py --config demo/config.json --out demo/memory
    python3 scripts/mode_memory.py --config demo/config.json --out demo/memory \\
        --modes readout sweep+montecarlo+export-transfer+metrics+readout

Each --modes item runs in a new interpreter that calls ctia_ipc.cli.main
with --out OUT/<mode> and then reads its own VmHWM from /proc/self/status
(Linux only).  An item of modes joined by "+" runs them in that order in
one process.  One markdown table row is printed per item: the item, the
first non-zero exit code (else 0) and the VmHWM in MB.  The interpreters
run with -B, so that nothing is written outside --out; ctia_ipc is
imported as the environment finds it (PYTHONPATH=src from a checkout).
"""

import argparse
import os
import subprocess
import sys

MODES = ("simulate", "verify", "sweep", "montecarlo", "metrics", "export-transfer", "readout")

# argv: config, out directory, modes.  The last line of stdout is the
# process's VmHWM in kB.
_CHILD = """
import os, sys
from ctia_ipc.cli import main
config, out, modes = sys.argv[1], sys.argv[2], sys.argv[3:]
codes = [main([mode, "--config", config, "--out", os.path.join(out, mode)]) for mode in modes]
with open("/proc/self/status", encoding="ascii") as handle:
    print(next(line.split()[1] for line in handle if line.startswith("VmHWM:")))
sys.exit(next((code for code in codes if code), 0))
"""


def measure(config: str, out: str, item: str):
    """(exit code, VmHWM in MB) of one fresh process running item's modes."""
    done = subprocess.run(
        [sys.executable, "-B", "-c", _CHILD, config, out, *item.split("+")],
        capture_output=True,
        text=True,
    )
    if done.returncode:
        sys.stderr.write(done.stderr)
    lines = done.stdout.splitlines()
    if not (lines and lines[-1].isdigit()):
        raise SystemExit(f"{item}: the process ended without reporting its VmHWM")
    return done.returncode, int(lines[-1]) / 1024


def main() -> int:
    parser = argparse.ArgumentParser(
        description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter
    )
    parser.add_argument("--config", required=True, help="run configuration")
    parser.add_argument("--out", required=True, help="directory the modes write their artifacts under")
    parser.add_argument(
        "--modes", nargs="+", default=MODES, help="modes, or '+'-joined modes run in one process"
    )
    args = parser.parse_args()
    for item in args.modes:
        unknown = [mode for mode in item.split("+") if mode not in MODES]
        if unknown:
            parser.error(f"unknown mode {unknown[0]!r}; choose from {', '.join(MODES)}")
    config = os.path.abspath(args.config)
    out = os.path.abspath(args.out)
    print("| mode | exit | VmHWM |")
    print("|------|------|-------|")
    for item in args.modes:
        code, peak_mb = measure(config, out, item)
        print(f"| {item} | {code} | {peak_mb:.1f} MB |")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
