"""scripts/mode_memory.py prints one table row per mode item, each from a
fresh process, and writes nothing outside its --out directory."""

import hashlib
import os
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SCRIPTS = os.path.join(ROOT, "scripts")


def tree(root):
    """{relative path: sha256 of the file, or None for a directory}."""
    found = {}
    for directory, dirs, files in os.walk(root):
        for name in dirs:
            found[os.path.relpath(os.path.join(directory, name), root)] = None
        for name in files:
            path = os.path.join(directory, name)
            with open(path, "rb") as handle:
                found[os.path.relpath(path, root)] = hashlib.sha256(handle.read()).hexdigest()
    return found


def test_rows_from_fresh_processes_and_nothing_outside_out(tmp_path):
    env = dict(os.environ, PYTHONPATH=os.path.join(ROOT, "src"))
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
    out = tmp_path / "run"
    done = subprocess.run(
        [sys.executable, os.path.join(SCRIPTS, "mode_memory.py"), "--config", str(demo / "config.json"),
         "--out", str(out), "--modes", "verify", "readout", "sweep+metrics"],
        cwd=cwd,
        env=env,
        capture_output=True,
        text=True,
        timeout=120,
    )
    assert done.returncode == 0, done.stderr
    lines = done.stdout.splitlines()
    assert lines[:2] == ["| mode | exit | VmHWM |", "|------|------|-------|"]
    cells = [[cell.strip() for cell in line.split("|")[1:-1]] for line in lines[2:]]
    assert [row[:2] for row in cells] == [["verify", "0"], ["readout", "0"], ["sweep+metrics", "0"]]
    assert all(row[2].endswith(" MB") and float(row[2].split()[0]) > 0 for row in cells)
    assert sorted(os.listdir(out)) == ["metrics", "readout", "sweep", "verify"]
    after = {path: digest for path, digest in tree(tmp_path).items() if path.split(os.sep)[0] != "run"}
    assert after == before
