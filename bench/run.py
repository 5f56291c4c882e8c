#!/usr/bin/env python3
"""Benchmark of degenpde's solve, measure and cross-validate jobs.

    python3 bench/run.py --workload duality_1d --seed 1 --seconds 25 --trace 0

Run from the root of a source checkout; the package is taken from ``src/``.
One run measures set-up time, then repeats the workload's CLI commands as a
user runs them (one process per command) in whole rounds for about
``--seconds`` seconds, checks the outputs of the first round against exact
answers and requires every later round to reproduce them byte for byte.

``--trace 0`` prints the end-to-end metrics (medians over the rounds);
``--trace 1`` runs the same commands under ``bench/tracing.py`` and prints
the per-layer metrics, writing every span to ``bench/out/<workload>/trace.json``.
The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.
"""

import argparse
import hashlib
import json
import os
import shutil
import statistics
import subprocess
import sys
import time

import layers
from workloads import WORKLOADS

BENCH = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH)
MIN_ROUNDS = 3
SETUP_PROBES = 5
SETUP_CODE = "import sys, degenpde; from degenpde.config import load_config; load_config(sys.argv[1])"


def run_process(argv, stdout_path):
    """Run one process to its exit: (exit code, wall seconds, peak RSS in MiB)."""
    with open(stdout_path or os.devnull, "w") as out:
        start = time.perf_counter()
        proc = subprocess.Popen(argv, cwd=ROOT, stdout=out)
        _, status, usage = os.wait4(proc.pid, 0)
        wall = time.perf_counter() - start
    proc.returncode = os.waitstatus_to_exitcode(status)
    return proc.returncode, wall, usage.ru_maxrss / 1024.0


def digest(directory):
    """Hash of every file under a directory, by relative path."""
    h = hashlib.sha256()
    for base, dirs, files in os.walk(directory):
        dirs.sort()
        for name in sorted(files):
            path = os.path.join(base, name)
            h.update(os.path.relpath(path, directory).encode())
            with open(path, "rb") as fh:
                h.update(fh.read())
    return h.hexdigest()


def measure_setup(config):
    argv = [sys.executable, "-c", SETUP_CODE, config]
    run_process(argv, None)  # compiles bytecode and warms the file cache
    walls = []
    for _ in range(SETUP_PROBES):
        code, wall, _ = run_process(argv, None)
        if code != 0:
            raise RuntimeError("set-up probe failed")
        walls.append(wall)
    return statistics.median(walls)


def run_rounds(workload, run_dir, seconds, trace):
    """Repeat the workload in whole rounds; returns the per-round records."""
    out = os.path.join(run_dir, "round")
    rounds = []
    start = time.perf_counter()
    while len(rounds) < MIN_ROUNDS or (
        time.perf_counter() - start + max(r["wall_s"] for r in rounds) <= seconds
    ):
        shutil.rmtree(out, ignore_errors=True)
        os.makedirs(out)
        record = {"wall_s": 0.0, "rss_mb": 0.0, "failed": 0, "attempted": 0, "traces": []}
        for j, (args, stdout_name) in enumerate(workload.commands(out)):
            if trace:
                trace_path = os.path.join(run_dir, f"trace_{len(rounds)}_{j}.json")
                argv = [sys.executable, os.path.join(BENCH, "tracing.py"), trace_path, "--"] + args
                record["traces"].append(trace_path)
            else:
                argv = [sys.executable, "-m", "degenpde.cli"] + args
            code, wall, rss = run_process(argv, stdout_name and os.path.join(out, stdout_name))
            record["attempted"] += 1
            record["failed"] += code != 0
            record["wall_s"] += wall
            record["rss_mb"] = max(record["rss_mb"], rss)
        record["digest"] = digest(out)
        if not rounds:
            if record["failed"]:
                record["failures"] = ["a command of the first round failed"]
                record["mc_se"] = None
            else:
                record["failures"], record["mc_se"] = workload.check(out)
        rounds.append(record)
        print(f"round {len(rounds)}: wall {record['wall_s']:.4f} s, peak {record['rss_mb']:.1f} MiB", flush=True)
    return rounds


def metric(value, unit):
    return {"value": value, "unit": unit}


def end_to_end(rounds, setup_s):
    return {
        "wall_s": metric(statistics.median(r["wall_s"] for r in rounds), "s"),
        "setup_s": metric(setup_s, "s"),
        "peak_rss_mb": metric(statistics.median(r["rss_mb"] for r in rounds), "MiB"),
        "mc_se": metric(rounds[0]["mc_se"], "1"),
    }


def per_layer(rounds, trace_out):
    per_round = []
    processes = []
    for r in rounds:
        procs = []
        for path in r["traces"]:
            with open(path) as fh:
                procs.append(json.load(fh))
            os.remove(path)
        per_round.append(layers.round_metrics(procs, r["wall_s"]))
        processes.append(procs)
    with open(trace_out, "w") as fh:
        json.dump(layers.trace_document(processes, per_round), fh)
    return {
        name: metric(statistics.median(m[name] for m in per_round), unit)
        for name, unit in layers.METRICS.items()
    }


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seed < 0:
        parser.error("--seed must be non-negative")
    if not os.path.isfile(os.path.join(ROOT, "src", "degenpde", "cli.py")):
        sys.stderr.write(f"no degenpde sources under {os.path.join(ROOT, 'src')}\n")
        return 2
    os.environ["PYTHONPATH"] = os.pathsep.join(
        p for p in (os.path.join(ROOT, "src"), os.environ.get("PYTHONPATH")) if p
    )

    run_dir = os.path.join("bench", "out", args.workload)
    shutil.rmtree(os.path.join(ROOT, run_dir), ignore_errors=True)
    os.makedirs(os.path.join(ROOT, run_dir))
    os.chdir(ROOT)
    workload = WORKLOADS[args.workload](run_dir, args.seed)

    setup_s = None if args.trace else measure_setup(workload.config)
    for args_, stdout_name in workload.prepare():
        code, _, _ = run_process([sys.executable, "-m", "degenpde.cli"] + args_, stdout_name)
        if code != 0:
            sys.stderr.write(f"preparation failed: degenpde {' '.join(args_)}\n")
            return 1
    rounds = run_rounds(workload, run_dir, args.seconds, args.trace)

    failures = list(rounds[0]["failures"])
    if any(r["digest"] != rounds[0]["digest"] for r in rounds):
        failures.append("a later round did not reproduce the first round's outputs")
    for message in failures:
        print(f"check failed: {message}", flush=True)
    if args.trace:
        metrics = per_layer(rounds, os.path.join(run_dir, "trace.json"))
    else:
        metrics = end_to_end(rounds, setup_s)
    result = {
        "correct": not failures,
        "attempted": sum(r["attempted"] for r in rounds),
        "failed": sum(r["failed"] for r in rounds),
        "metrics": metrics,
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
