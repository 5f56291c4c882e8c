"""The benchmark tracer wraps degenpde functions by the names the program
looks them up under; a refactor that drops one of those names breaks it."""

import json
import os
import subprocess
import sys

REPO = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def test_tracer_installs_and_records_spans(tmp_path):
    trace = tmp_path / "trace.json"
    env = dict(os.environ, PYTHONPATH=os.path.join(REPO, "src"))
    cmd = [
        sys.executable,
        os.path.join("bench", "tracing.py"),
        str(trace),
        "--",
        "counterexample",
        "--paths", "200",
        "--steps", "10",
        "--seed", "1",
    ]
    proc = subprocess.run(cmd, cwd=REPO, env=env, capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr
    assert json.loads(trace.read_text())["spans"]
