#!/usr/bin/env python3
"""Desk-scale reproduction of the headline architecture figures for the
default 1280x1024 configuration: both bandwidth-reduction readings, the
cycle-0 parallel activation count, per-frame operation count, and the
schedule-based energy/throughput estimate next to the measured reference
metadata (which is context, not a target).

    python3 scripts/reproduce_headline_metrics.py
"""

import math

from ctia_ipc.mapper import ConvSpec, build_schedule
from ctia_ipc.metrics import REFERENCE, default_cycle_time, metrics_report
from ctia_ipc.wtc import CounterConfig

ROWS, COLS = 1024, 1280


def main() -> int:
    spec = ConvSpec()
    wtc = CounterConfig()
    schedule = build_schedule(spec, ROWS, COLS)
    report = metrics_report(
        spec, ROWS, COLS, schedule, REFERENCE["paper_power_per_pixel_w"],
        default_cycle_time(wtc.t_step, wtc.window),
    )

    print(f"frame {COLS}x{ROWS}, k={spec.k} s={spec.s} p={spec.p} "
          f"c_o={spec.c_o} N_b={spec.n_b} p_s={spec.p_s}")
    print()
    print(f"bandwidth reduction (bit ratio)    : {report['br_bits']:10.4f}   "
          f"[reference {REFERENCE['paper_br']}]")
    print(f"bandwidth reduction (closed form)  : {report['br_printed']:10.4f}   "
          f"[the printed estimate; does not reach the reference figure]")
    print(f"cycle-0 parallel activations       : {report['activation_count_cycle0']:10d}   "
          f"[= floor({COLS - spec.k}/{spec.s * math.lcm(spec.k, spec.s)}) * {spec.k}^2 * 4]")
    print(f"operations per frame               : {report['total_ops']:10d}")
    print(f"schedule cycles (1 channel pass)   : {schedule.n_cycles():10d}")
    print(f"frame time (all channels, 2 cycles): {report['frame_time_s']:10.4f} s")
    print(f"energy per frame                   : {report['energy_j']:10.4f} J")
    print(f"throughput                         : {report['ops_per_s'] / 1e9:10.4f} GOPS    "
          f"[measured reference {REFERENCE['paper_gops'] / 1e9} GOPS]")
    print(f"efficiency                         : {report['ops_per_j'] / 1e9:10.4f} GOPS/W  "
          f"[measured reference {REFERENCE['paper_gops_w'] / 1e9} GOPS/W]")
    print()
    print("The throughput/efficiency rows are behavioral-schedule estimates;")
    print("the measured silicon figures are carried as metadata only.")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
