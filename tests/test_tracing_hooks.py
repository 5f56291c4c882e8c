"""The benchmark tracer wraps degenpde functions by the names the program
looks them up under; a refactor that drops one of those names, or calls
around it, breaks it."""

import json
import os
import subprocess
import sys

REPO = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def _traced_spans(trace, cli_args):
    env = dict(os.environ, PYTHONPATH=os.path.join(REPO, "src"))
    cmd = [sys.executable, os.path.join("bench", "tracing.py"), str(trace), "--"] + cli_args
    proc = subprocess.run(cmd, cwd=REPO, env=env, capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr
    return [span[1] for span in json.loads(trace.read_text())["spans"]]


def test_tracer_installs_and_records_spans(tmp_path):
    cli_args = ["counterexample", "--paths", "200", "--steps", "10", "--seed", "1"]
    assert _traced_spans(tmp_path / "trace.json", cli_args)


def test_tracer_sees_every_write_of_solve(tmp_path):
    with open(os.path.join(REPO, "configs", "benchmark.ini")) as fh:
        ini = fh.read()
    assert "nodes = 401" in ini
    config = tmp_path / "small.ini"
    config.write_text(ini.replace("nodes = 401", "nodes = 41"))
    cli_args = ["solve", "--config", str(config), "--out", str(tmp_path / "out")]
    names = _traced_spans(tmp_path / "trace.json", cli_args)
    # field.csv, summary.json and manifest.json
    assert names.count("reporting.write") == 3
    assert names.count("solver.solve") == 1
