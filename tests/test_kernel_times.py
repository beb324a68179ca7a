"""scripts/kernel_times.py prints one table row per kernel call, each from
a fresh process, and writes nothing outside its working directory."""

import os
import subprocess
import sys

from test_mode_memory import ROOT, SCRIPTS, tree


def test_rows_from_fresh_processes_and_nothing_outside_cwd(tmp_path):
    env = dict(os.environ, PYTHONPATH=os.path.join(ROOT, "src"), CTIA_IPC_THREADS="2")
    demo = tmp_path / "demo"
    subprocess.run(
        [sys.executable, os.path.join(SCRIPTS, "make_demo_inputs.py"), "--out", str(demo),
         "--rows", "64", "--cols", "80", "--seed", "5"],
        env=env,
        check=True,
        capture_output=True,
        timeout=60,
    )
    cwd = tmp_path / "cwd"
    cwd.mkdir()
    before = tree(tmp_path)
    done = subprocess.run(
        [sys.executable, os.path.join(SCRIPTS, "kernel_times.py"), "--config",
         str(demo / "config.json"), "--repeat", "2"],
        cwd=cwd,
        env=env,
        capture_output=True,
        text=True,
        timeout=120,
    )
    assert done.returncode == 0, done.stderr
    lines = done.stdout.splitlines()
    assert lines[:3] == [
        "CTIA_IPC_THREADS=2, best of 2",
        "| call | first s | first faults | best s | later faults |",
        "|------|---------|--------------|--------|--------------|",
    ]
    cells = [[cell.strip() for cell in line.split("|")[1:-1]] for line in lines[3:]]
    assert [row[0] for row in cells] == [
        "simulate_layer", "golden_layer", "golden_layer after simulate_layer"
    ]
    for _, first_s, first_faults, best_s, later_faults in cells:
        assert 0 < float(best_s) <= float(first_s)
        assert int(first_faults) >= 0
        low, high = map(int, later_faults.split("-"))
        assert 0 <= low <= high
    after = {path: digest for path, digest in tree(tmp_path).items() if path.split(os.sep)[0] != "cwd"}
    assert after == {path: digest for path, digest in before.items() if path.split(os.sep)[0] != "cwd"}
