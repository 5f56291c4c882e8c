#!/usr/bin/env python3
"""Snapshot every CLI output of degenpde on the shipped and benchmark configs.

    python3 scripts/snapshot_outputs.py OUT

Run from any directory; the package is taken from the ``src/`` of the
checkout that holds this script. Each config gets ``OUT/<config>/``, holding
the config file and one directory per command. A command runs in its own
directory with relative paths (``--config ../<config>.ini --out out``), so
the paths printed on stdout match between checkouts. Beside ``out/`` it
leaves ``stdout``, ``stderr`` and ``exit_code``. A command that a config
does not support is recorded as its error exit.

The configs are ``configs/*.ini`` and the three benchmark workload configs
as ``bench/workloads.py`` writes them for seed 1; the ``measure_2d``
directory also holds the workload's ``counterexample``. Two snapshots, say
of a parent and of a change, compare with ``diff -r``.
"""

import argparse
import glob
import os
import shutil
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
WORKLOAD_SEED = 1

# (directory, command, arguments besides --config), run in this order: the
# commands that read a field read the one ``solve`` wrote
COMMANDS = [
    ("solve", "solve", ["--out", "out"]),
    ("verify-duality", "verify-duality", ["--out", "out"]),
    ("price-q", "price", ["--field", "../solve/out", "--mode", "q", "--out", "out"]),
    ("price-pw", "price", ["--field", "../solve/out", "--mode", "pw", "--out", "out"]),
    ("diagnose-regularity", "diagnose-regularity", ["--out", "out"]),
    ("diagnose-regularity-field", "diagnose-regularity", ["--field", "../solve/out", "--out", "out"]),
    ("diagnose-degeneracy", "diagnose-degeneracy", ["--out", "out"]),
    ("transform-check", "transform-check", ["--out", "out"]),
]


def run(argv, cwd):
    """Run one degenpde command in ``cwd``, recording its streams and exit code."""
    os.makedirs(cwd)
    env = dict(os.environ, PYTHONPATH=os.path.join(ROOT, "src"))
    with open(os.path.join(cwd, "stdout"), "w") as out, open(os.path.join(cwd, "stderr"), "w") as err:
        code = subprocess.call([sys.executable, "-m", "degenpde.cli"] + argv, cwd=cwd, env=env, stdout=out, stderr=err)
    with open(os.path.join(cwd, "exit_code"), "w") as fh:
        fh.write(f"{code}\n")


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("out", help="snapshot directory; must not exist")
    out = os.path.abspath(parser.parse_args(argv).out)
    os.makedirs(out)
    configs = []  # (directory, config file name)
    for path in sorted(glob.glob(os.path.join(ROOT, "configs", "*.ini"))):
        name = os.path.basename(path)
        config_dir = os.path.join(out, os.path.splitext(name)[0])
        os.makedirs(config_dir)
        shutil.copy(path, config_dir)
        configs.append((config_dir, name))
    sys.path.insert(0, os.path.join(ROOT, "bench"))
    import workloads

    for name, cls in sorted(workloads.WORKLOADS.items()):
        config_dir = os.path.join(out, name)
        os.makedirs(config_dir)
        configs.append((config_dir, os.path.basename(cls(config_dir, WORKLOAD_SEED).config)))
    for config_dir, name in configs:
        for directory, command, args in COMMANDS:
            run([command, "--config", f"../{name}"] + args, os.path.join(config_dir, directory))
    ce = workloads.COUNTEREXAMPLE
    argv = ["counterexample", "--T", repr(ce["T"]), "--paths", str(ce["paths"])]
    argv += ["--steps", str(ce["steps"]), "--seed", str(ce["seed"])]
    run(argv, os.path.join(out, "measure_2d", "counterexample"))
    return 0


if __name__ == "__main__":
    sys.exit(main())
