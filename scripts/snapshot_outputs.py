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
directory also holds the workload's ``counterexample``.

``OUT/refused/`` holds one directory per config value the program cannot
use (``REFUSED``): the edited config and, per command, its stdout, stderr
and exit code. Whatever such a command wrote under ``out/`` is removed, so
two snapshots differ there only in how each value was refused. Two
snapshots, say of a parent and of a change, compare with ``diff -r``.
"""

import argparse
import configparser
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

SOLVE = [("solve", "solve", ["--out", "out"])]
TRANSFORM_CHECK = SOLVE + [("transform-check", "transform-check", ["--out", "out"])]
# (directory, shipped config, [(section, key, value)], commands); a
# benchmark.ini copy is set to 41 nodes first
REFUSED = [
    ("model-kind", "benchmark", [("model", "kind", "other")], SOLVE),
    ("model-dim-4", "benchmark", [("model", "dim", "4")], SOLVE),
    ("model-dim-0", "benchmark", [("model", "dim", "0")], SOLVE),
    ("model-horizon", "benchmark", [("model", "horizon", "-1.0")], SOLVE),
    ("model-rho", "benchmark", [("model", "rho", "1.5")], SOLVE),
    ("model-coupon_tau", "benchmark", [("model", "coupon_tau", "-0.06")], SOLVE),
    ("model-sigma-family", "benchmark", [("model", "sigma", "linear:1")], SOLVE),
    ("model-sigma-columns", "benchmark", [("model", "sigma", "constant:1 1")], SOLVE),
    ("model-mu-swirl", "benchmark", [("model", "mu", "swirl:1")], SOLVE),
    ("model-rate-piecewise", "benchmark", [("model", "rate", "piecewise:0.03")], SOLVE),
    ("model-principal-width", "benchmark", [("model", "principal", "gaussian_bump:width=0")], SOLVE),
    ("model-value_interval-one", "benchmark", [("model", "value_interval", "1.5")], SOLVE),
    ("model-value_interval-reversed", "benchmark", [("model", "value_interval", "1.5,-0.5")], SOLVE),
    ("model-domain_interval-reversed", "degenerate", [("model", "domain_interval", "2.0,1.0")], SOLVE),
    ("grid-half_width", "benchmark", [("grid", "half_width", "-1.0")], SOLVE),
    ("grid-nodes-40", "benchmark", [("grid", "nodes", "40")], SOLVE),
    ("grid-nodes-3", "benchmark", [("grid", "nodes", "3")], SOLVE),
    ("grid-steps", "benchmark", [("grid", "steps", "0")], SOLVE),
    ("grid-collar", "benchmark", [("grid", "collar", "-1")], SOLVE),
    ("grid-theta", "benchmark", [("grid", "theta", "0.9")], SOLVE),
    ("mc-seed", "benchmark", [("mc", "seed", "-5")], SOLVE),
    ("price-seed", "benchmark", [], SOLVE + [("price", "price", ["--field", "../solve/out", "--seed", "-3"])]),
    ("mc-x0", "benchmark", [("mc", "x0", "0.0,1.0")], SOLVE),
    ("mc-price_time", "benchmark", [("mc", "price_time", "2.0")], SOLVE),
    ("diagnostics-offset_cap", "benchmark", [("diagnostics", "offset_cap", "-1")], SOLVE),
    ("transform-mode", "benchmark", [("transform", "mode", "bogus")], TRANSFORM_CHECK),
    ("transform-l", "benchmark", [("transform", "mode", "semiconcave"), ("transform", "l", "2")], TRANSFORM_CHECK),
    ("transform-tau_max", "benchmark", [("transform", "tau_max", "-1.0")], TRANSFORM_CHECK),
    ("transform-interval", "benchmark", [("transform", "interval", "2.0,1.0")], TRANSFORM_CHECK),
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
    for directory, shipped, settings, commands in REFUSED:
        refused_dir = os.path.join(out, "refused", directory)
        os.makedirs(refused_dir)
        parser = configparser.ConfigParser(inline_comment_prefixes=("#",))
        parser.read(os.path.join(ROOT, "configs", shipped + ".ini"))
        if shipped == "benchmark":
            parser.set("grid", "nodes", "41")
        for section, key, value in settings:
            parser.set(section, key, value)
        with open(os.path.join(refused_dir, shipped + ".ini"), "w") as fh:
            parser.write(fh)
        for command_dir, command, args in commands:
            run([command, "--config", f"../{shipped}.ini"] + args, os.path.join(refused_dir, command_dir))
        for command_dir, _, _ in commands:
            shutil.rmtree(os.path.join(refused_dir, command_dir, "out"), ignore_errors=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
