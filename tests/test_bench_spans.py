"""Every span the benchmark traces still names a function the program calls.

perfbench/child.py wraps functions at the module attributes their callers
look up; a refactor that renames one, or stops calling it on a workload's
path, fails a traced benchmark run.  This runs each workload once, traced,
on a 64x80 frame, the way the benchmark spawns its runs.
"""

import json
import os
import subprocess
import sys

import pytest

PERFBENCH = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "perfbench")
sys.path.insert(0, PERFBENCH)

import workloads  # noqa: E402  (from perfbench/, put on the path above)


@pytest.mark.parametrize("name", sorted(workloads.WORKLOADS))
def test_every_span_is_entered(name, tmp_path, monkeypatch):
    monkeypatch.setattr(workloads, "FULL_ROWS", 64)
    monkeypatch.setattr(workloads, "FULL_COLS", 80)
    workload = workloads.WORKLOADS[name]
    inputs = workloads.make_inputs(workload, 5, str(tmp_path))
    spec_path = tmp_path / "spec.json"
    spec_path.write_text(json.dumps({"runs": [inputs.argv(m) for m in workload.modes], "trace": True}))
    env = dict(os.environ, PYTHONPATH=workloads.SRC, CTIA_IPC_THREADS="2")
    proc = subprocess.run(
        [sys.executable, os.path.join(PERFBENCH, "child.py"), str(spec_path)],
        env=env,
        cwd=tmp_path,
        capture_output=True,
        timeout=300,
    )
    assert proc.returncode == 0, proc.stderr.decode()[-2000:]
    result = json.loads(proc.stdout.decode().splitlines()[-1])
    assert result["codes"] == [0] * len(workload.modes)
    assert result["unwrapped"] == []
    never = [span for span in workload.spans if not result["layers"].get(f"{span}_calls")]
    assert never == []
