"""One measured run of a workload, in a fresh interpreter.

    python3 perfbench/child.py <spec.json>

The spec names the CLI argument lists to run and whether to trace.  The
wall time runs from the first ctia_ipc.cli.main call to the return of the
last one; imports happen before it.  The last line of stdout is a JSON
object with the exit codes, the wall time, the process's peak RSS and,
when tracing, the per-layer totals.

Tracing wraps public functions at the module attribute their callers
resolve (ctia_ipc.pipeline.mac_node_voltages is what simulate_layer
calls), so the program itself is not changed.  A wrapped attribute that
no longer exists is skipped and listed under "unwrapped"; the benchmark
fails such a traced run, so that SPANS must follow a refactor.
"""

from __future__ import annotations

import functools
import importlib
import json
import sys
import threading
import time
from collections import defaultdict

import numpy as np


def _arg(args, kwargs, index, name):
    return kwargs[name] if name in kwargs else args[index]


def _count_node_taps(tracer, result, args, kwargs):
    mags = _arg(args, kwargs, 4, "magnitudes")
    tracer.count("pixel_array.tap_macs", int(np.count_nonzero(mags)) * int(np.size(result)))


def _count_cycle_taps(tracer, result, args, kwargs):
    tracer.count("pixel_array.tap_macs", int(np.count_nonzero(_arg(args, kwargs, 4, "magnitudes"))))


def _count_cds(tracer, result, args, kwargs):
    tracer.count("adc.conversions", 2 * int(np.size(result)))


def _count_quantize(tracer, result, args, kwargs):
    tracer.count("adc.conversions", int(np.size(result)))


def _count_cycles(tracer, result, args, kwargs):
    tracer.count("mapper.schedule_cycles", int(result.n_cycles()))


# (module, attribute, span name, counter).  Each attribute is the one the
# caller looks up at call time, so wrapping it intercepts every call.
SPANS = (
    ("ctia_ipc.cli", "load_config", "config.load_config", None),
    ("ctia_ipc.formats", "load_pgm16", "formats.load_pgm16", None),
    ("ctia_ipc.formats", "load_weights", "formats.load_weights", None),
    ("ctia_ipc.formats", "save_pgm16", "formats.save_pgm16", None),
    ("ctia_ipc.formats", "write_json", "formats.write_json", None),
    ("ctia_ipc.formats", "write_csv", "formats.write_csv", None),
    ("ctia_ipc.cli", "fuse_and_quantize", "mapper.fuse_and_quantize", None),
    ("ctia_ipc.cli", "build_schedule", "mapper.build_schedule", _count_cycles),
    ("ctia_ipc.cli", "simulate_layer", "pipeline.simulate_layer", None),
    ("ctia_ipc.pipeline", "photocurrent_channels", "pipeline.photocurrent_channels", None),
    ("ctia_ipc.cli", "sweep_window_chain", "pipeline.sweep_window_chain", None),
    ("ctia_ipc.metrics", "sweep_window_chain", "pipeline.sweep_window_chain", None),
    ("ctia_ipc.pipeline", "mac_node_voltages", "pixel_array.mac_node_voltages", _count_node_taps),
    ("ctia_ipc.pipeline", "run_mac_cycle", "pixel_array.run_mac_cycle", _count_cycle_taps),
    ("ctia_ipc.cli", "readout_frame", "pixel_array.readout_frame", None),
    ("ctia_ipc.pixel_array", "integrate", "pixel.integrate", None),
    ("ctia_ipc.pipeline", "cds_signed", "adc.cds_signed", _count_cds),
    ("ctia_ipc.pipeline", "relu_requantize", "adc.relu_requantize", None),
    ("ctia_ipc.pipeline", "maxpool", "adc.maxpool", None),
    ("ctia_ipc.pipeline", "quantize", "adc.quantize", _count_quantize),
    ("ctia_ipc.cli", "golden_layer", "golden.golden_layer", None),
    ("ctia_ipc.cli", "compare_runs", "golden.compare_runs", None),
    ("ctia_ipc.cli", "linearity_sweep", "metrics.linearity_sweep", None),
    ("ctia_ipc.cli", "monte_carlo", "metrics.monte_carlo", None),
    ("ctia_ipc.cli", "metrics_report", "metrics.metrics_report", None),
)


class Tracer:
    """In-memory span totals: inclusive time, self time and call count per
    span name, plus named counters.  Self time is a span's duration minus
    the durations of the spans nested directly inside it on the same
    thread."""

    def __init__(self):
        self.total = defaultdict(float)
        self.self_time = defaultdict(float)
        self.calls = defaultdict(int)
        self.counters = defaultdict(int)
        self.unwrapped = []
        self._lock = threading.Lock()
        self._local = threading.local()

    def count(self, name: str, n: int) -> None:
        with self._lock:
            self.counters[name] += n

    def wrap(self, module_name: str, attr: str, name: str, counter=None) -> None:
        module = importlib.import_module(module_name)
        fn = getattr(module, attr, None)
        if fn is None:
            self.unwrapped.append(f"{module_name}.{attr}")
            return

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            stack = self._local.__dict__.setdefault("stack", [])
            stack.append(0.0)
            start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                elapsed = time.perf_counter() - start
                nested = stack.pop()
                if stack:
                    stack[-1] += elapsed
                with self._lock:
                    self.total[name] += elapsed
                    self.self_time[name] += elapsed - nested
                    self.calls[name] += 1
            if counter is not None:
                counter(self, result, args, kwargs)
            return result

        setattr(module, attr, traced)

    def metrics(self) -> dict:
        out = {}
        for name in set(self.total) | {span[2] for span in SPANS}:
            out[f"{name}_s"] = self.total.get(name, 0.0)
            out[f"{name}_self_s"] = self.self_time.get(name, 0.0)
            out[f"{name}_calls"] = self.calls.get(name, 0)
        out.update(self.counters)
        return out


def peak_rss_mb() -> float:
    """Peak resident set of this process's own address space, in MB.

    This is VmHWM, not ru_maxrss: when the parent starts this process with
    vfork and exec, as subprocess does, ru_maxrss also covers the parent's
    peak, so it would report the benchmark's memory instead of the
    program's.
    """
    with open("/proc/self/status", "r", encoding="ascii") as handle:
        for line in handle:
            if line.startswith("VmHWM:"):
                return int(line.split()[1]) / 1024.0
    raise RuntimeError("/proc/self/status has no VmHWM line")


def main(spec_path: str) -> int:
    with open(spec_path, "r", encoding="utf-8") as handle:
        spec = json.load(handle)
    from ctia_ipc import cli

    tracer = None
    if spec["trace"]:
        tracer = Tracer()
        for module_name, attr, name, counter in SPANS:
            tracer.wrap(module_name, attr, name, counter)
    codes = []
    start = time.perf_counter()
    for argv in spec["runs"]:
        codes.append(cli.main(argv))
    wall = time.perf_counter() - start
    result = {
        "codes": codes,
        "wall_s": wall,
        "peak_rss_mb": peak_rss_mb(),
    }
    if tracer is not None:
        result["layers"] = tracer.metrics()
        result["unwrapped"] = tracer.unwrapped
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1]))
