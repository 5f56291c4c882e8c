"""The benchmark's workloads: config text, commands and correctness checks.

The Monte Carlo seeds are the shipped ones (2026 from configs/benchmark.ini, 7
from configs/degenerate.ini, 42 from the README's counterexample command), so
mc_se and the 3-standard-error checks repeat exactly from run to run. The
benchmark's ``--seed`` draws the Gaussian datum and the coefficient c of the
Cole-Hopf case in measure_2d, which no Monte Carlo estimate depends on. Sizes
are smaller than the shipped configs so that one run repeats each workload
several times and reports medians; README.md gives the make-up and reasons.
"""

import json
import os
import random

import checks

# configs/benchmark.ini with the grid at 201 nodes (348 steps) and 10 000 paths.
DUALITY_INI = """\
[model]
kind = mbs
dim = 1
horizon = 1.0
rho = 0.5
coupon_tau = 0.06
rate = constant:0.03
principal = gaussian_bump:amplitude=1,center=0,width=1,ramp=3
sigma = constant:1
mu = zero
value_interval = -0.5,1.5
initial = constant:0

[grid]
half_width = 8.0
nodes = 201
steps = auto
theta = 0.45
collar = 4

[mc]
paths = {paths}
steps = 500
seed = 2026
mode = {mode}
x0 = {x0!r}
price_time = {price_time!r}
chunk = 50000

[diagnostics]
regularity = true
"""

# Cole-Hopf solvable 2-D degenerate case: noise along x2 only, lambda = c.
MEASURE_INI = """\
[model]
kind = general
dim = 2
horizon = 1.0
sigma = constant:0;1
mu = zero
lambda = constant:{c!r}
eta = zero
value_interval = -0.5,1.5
initial = gaussian:{amplitude!r},0,{width!r}

[grid]
half_width = {half_width!r}
nodes = {nodes}
steps = auto
collar = {collar}

[mc]
paths = 10000
steps = 200
seed = 7
x0 = 0.0

[transform]
mode = semiconvex
l = 4
lambda = reciprocal:0.5
eta = reciprocal:-1.0
interval = 1.0,2.0
tau_max = 5.0
"""

# The datum amplitude and c are drawn per seed in [0.5, 1] and [0.25, 0.5]; the
# tolerance of checks.regularity_exact is argued for amplitude <= 1, c <= 0.5.
MEASURE_SPEC = {
    "c": 0.5,
    "amplitude": 1.0,
    "width": 1.0,
    "half_width": 6.0,
    "nodes": 101,
    "collar": 4,
    "horizon": 1.0,
}
COUNTEREXAMPLE = {"T": 1.0, "paths": 20000, "steps": 500, "seed": 42}
REPRICE_PATHS = 20000
# Off the 201-node grid and off the 348-step time grid, so pricing interpolates
# in both directions; fixed, because mc_se depends on them.
REPRICE_X0 = 0.5
REPRICE_TIME = 0.3


def _load(path):
    with open(path) as fh:
        return json.load(fh)


def _write(path, text):
    with open(path, "w") as fh:
        fh.write(text)


class DualityWorkload:
    name = "duality_1d"

    def __init__(self, run_dir, seed):
        self.config = os.path.join(run_dir, "duality.ini")
        _write(self.config, DUALITY_INI.format(paths=10000, mode="both", x0=0.0, price_time=0.0))

    def prepare(self):
        return []

    def commands(self, out):
        return [(["verify-duality", "--config", self.config, "--out", out], None)]

    def check(self, out):
        pricing = _load(os.path.join(out, "pricing.json"))
        res = pricing["residual_max"]
        failures = checks.mc_against_pde(pricing["q"], res) + checks.mc_against_pde(pricing["pw"], res)
        failures += checks.estimator_agreement(pricing) + checks.weights_unit_mean(pricing["pw"])
        field = checks.read_field_csv(os.path.join(out, "field.csv"))
        failures += checks.field_value(field, 0.0, field[0][-1], pricing["q"]["pde_value"])
        return failures, pricing["agreement"]["combined_se"]


class RepriceWorkload:
    name = "reprice_1d"

    def __init__(self, run_dir, seed):
        self.config = os.path.join(run_dir, "reprice.ini")
        self.field_dir = os.path.join(run_dir, "field")
        _write(
            self.config,
            DUALITY_INI.format(
                paths=REPRICE_PATHS, mode="pw", x0=REPRICE_X0, price_time=REPRICE_TIME
            ),
        )

    def prepare(self):
        return [(["solve", "--config", self.config, "--out", self.field_dir], None)]

    def commands(self, out):
        return [
            (
                ["price", "--config", self.config, "--field", self.field_dir, "--mode", "pw", "--out", out],
                "price.stdout",
            )
        ]

    def check(self, out):
        report = _load(os.path.join(out, "pricing.json"))
        summary = _load(os.path.join(self.field_dir, "summary.json"))
        field = checks.read_field_csv(os.path.join(self.field_dir, "field.csv"))
        theta = field[0][-1] - REPRICE_TIME
        failures = checks.field_value(field, REPRICE_X0, theta, report["pde_value"])
        failures += checks.mc_against_pde(report, summary["residual"]["max"])
        failures += checks.weights_unit_mean(report)
        if report["n_paths"] != REPRICE_PATHS or report["mode"] != "pw":
            failures.append(f"priced {report['n_paths']} paths in mode {report['mode']}")
        return failures, report["mc_se"]


class MeasureWorkload:
    name = "measure_2d"

    def __init__(self, run_dir, seed):
        rng = random.Random(seed)
        self.spec = dict(
            MEASURE_SPEC,
            amplitude=round(rng.uniform(0.5, 1.0), 6),
            c=round(rng.uniform(0.25, 0.5), 6),
        )
        self.config = os.path.join(run_dir, "measure.ini")
        _write(self.config, MEASURE_INI.format(**self.spec))

    def prepare(self):
        return []

    def commands(self, out):
        ce = COUNTEREXAMPLE
        return [
            (["diagnose-regularity", "--config", self.config, "--out", os.path.join(out, "reg")], None),
            (["diagnose-degeneracy", "--config", self.config, "--out", out], None),
            (["transform-check", "--config", self.config, "--out", os.path.join(out, "tr")], None),
            (
                [
                    "counterexample",
                    "--T", repr(ce["T"]),
                    "--paths", str(ce["paths"]),
                    "--steps", str(ce["steps"]),
                    "--seed", str(ce["seed"]),
                ],
                "counterexample.json",
            ),
        ]

    def check(self, out):
        reg = _load(os.path.join(out, "reg", "regularity.json"))
        failures = checks.regularity_exact(reg, self.spec)
        failures += checks.initial_deviation(reg) + checks.envelopes_dominate(reg)
        failures += checks.kernel_and_atom(_load(os.path.join(out, "degeneracy.json")))
        failures += checks.transform_certificate(_load(os.path.join(out, "tr", "transform.json")))
        ce = _load(os.path.join(out, "counterexample.json"))
        failures += checks.occupation_time(ce, COUNTEREXAMPLE["T"])
        return failures, ce["se"]


WORKLOADS = {w.name: w for w in (DualityWorkload, RepriceWorkload, MeasureWorkload)}
