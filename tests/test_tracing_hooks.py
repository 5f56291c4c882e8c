"""The benchmark tracer wraps degenpde functions by the names the program
looks them up under; a refactor that drops one of those names, or calls
around it, breaks it."""

import json
import os
import subprocess
import sys

REPO = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def _traced(trace, cli_args):
    """(span names, counts) of one CLI process run under bench/tracing.py."""
    env = dict(os.environ, PYTHONPATH=os.path.join(REPO, "src"))
    cmd = [sys.executable, os.path.join("bench", "tracing.py"), str(trace), "--"] + cli_args
    proc = subprocess.run(cmd, cwd=REPO, env=env, capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr
    data = json.loads(trace.read_text())
    return [span[1] for span in data["spans"]], data["counts"]


def _traced_spans(trace, cli_args):
    return _traced(trace, cli_args)[0]


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


def test_blocked_price_counts_every_path_step(tmp_path):
    # 5000 paths x 500 steps of noise is two 16 MiB blocks
    with open(os.path.join(REPO, "configs", "benchmark.ini")) as fh:
        ini = fh.read()
    assert "nodes = 401" in ini and "paths = 100000" in ini and "steps = 500" in ini
    config = tmp_path / "small.ini"
    config.write_text(ini.replace("nodes = 401", "nodes = 41").replace("paths = 100000", "paths = 5000"))
    field = str(tmp_path / "field")
    from degenpde.cli import main

    assert main(["solve", "--config", str(config), "--out", field]) == 0
    names, counts = _traced(tmp_path / "trace.json", ["price", "--config", str(config), "--field", field])
    paths, steps = 5000, 500
    # one evaluation per path and Euler step, and one for the grid value at x0
    assert names.count("montecarlo.interp") > steps + 1
    assert counts["montecarlo.interp_points"] == paths * steps + 1
    assert counts["montecarlo.path_steps"] == paths * steps


def test_blocked_degeneracy_counts_every_path_step(tmp_path):
    # configs/degenerate.ini: 20 000 paths x 400 steps, several blocks of 16 MiB
    config = os.path.join(REPO, "configs", "degenerate.ini")
    names, counts = _traced(tmp_path / "trace.json", ["diagnose-degeneracy", "--config", config])
    assert names.count("degeneracy.projection_paths") > 1
    assert names.count("montecarlo.simulate") == names.count("degeneracy.projection_paths")
    assert counts["degeneracy.path_steps"] == 20_000 * 400
