"""Each correctness check of the benchmark passes on real degenpde output and
fails when that output is perturbed.

    python3 -m pytest bench/test_checks.py -q

The outputs come from small runs of the same commands the workloads use.
"""

import copy
import json
import os
import shutil
import subprocess
import sys

import numpy as np
import pytest

import checks
import layers
import workloads

BENCH = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH)
sys.path.insert(0, os.path.join(ROOT, "src"))

from degenpde.cli import main as degenpde  # noqa: E402

SMALL_MEASURE = dict(workloads.MEASURE_SPEC, nodes=41)


def _load(path):
    with open(path) as fh:
        return json.load(fh)


@pytest.fixture(scope="module")
def pricing_dir(tmp_path_factory):
    out = tmp_path_factory.mktemp("duality")
    config = out / "duality.ini"
    config.write_text(
        workloads.DUALITY_INI.format(paths=2000, mode="both", x0=0.0, price_time=0.0)
        .replace("nodes = 201", "nodes = 101")
        .replace("steps = 500", "steps = 100")
    )
    assert degenpde(["verify-duality", "--config", str(config), "--out", str(out)]) == 0
    return out


@pytest.fixture(scope="module")
def measure_dir(tmp_path_factory):
    out = tmp_path_factory.mktemp("measure")
    config = str(out / "measure.ini")
    with open(config, "w") as fh:
        fh.write(workloads.MEASURE_INI.format(**SMALL_MEASURE))
    for args in (
        ["diagnose-regularity", "--config", config, "--out", str(out / "reg")],
        ["diagnose-degeneracy", "--config", config, "--out", str(out)],
        ["transform-check", "--config", config, "--out", str(out / "tr")],
    ):
        assert degenpde(args) == 0
    ce = subprocess.run(
        [sys.executable, "-m", "degenpde.cli", "counterexample", "--paths", "4000", "--steps", "100", "--seed", "5"],
        env=dict(os.environ, PYTHONPATH=os.path.join(ROOT, "src")),
        capture_output=True,
        check=True,
        text=True,
    )
    (out / "counterexample.json").write_text(ce.stdout)
    return out


def test_mc_against_pde(pricing_dir):
    pricing = _load(pricing_dir / "pricing.json")
    res = pricing["residual_max"]
    for mode in ("q", "pw"):
        assert checks.mc_against_pde(pricing[mode], res) == []
        bad = dict(pricing[mode])
        bad["mc_mean"] = bad["pde_value"] + 3.01 * bad["mc_se"] + 10.0 * res
        assert checks.mc_against_pde(bad, res)


def test_estimator_agreement(pricing_dir):
    pricing = _load(pricing_dir / "pricing.json")
    assert checks.estimator_agreement(pricing) == []
    shifted = copy.deepcopy(pricing)
    shifted["pw"]["mc_mean"] += 3.01 * shifted["agreement"]["combined_se"]
    assert checks.estimator_agreement(shifted)
    wrong_se = copy.deepcopy(pricing)
    wrong_se["agreement"]["combined_se"] *= 1.001
    assert checks.estimator_agreement(wrong_se)


def test_weights_unit_mean(pricing_dir):
    pw = _load(pricing_dir / "pricing.json")["pw"]
    assert checks.weights_unit_mean(pw) == []
    assert checks.weights_unit_mean(dict(pw, weight_mean=1.0 + 3.01 * pw["weight_se"]))


def test_field_value(pricing_dir):
    pricing = _load(pricing_dir / "pricing.json")
    field = checks.read_field_csv(pricing_dir / "field.csv")
    value = pricing["q"]["pde_value"]
    assert checks.field_value(field, 0.0, field[0][-1], value) == []
    assert checks.field_value(field, 0.0, field[0][-1], value * (1.0 + 1e-9))
    times, xs, values = field
    moved = values.copy()
    moved[-1, len(xs) // 2] += 1e-9
    assert checks.field_value((times, xs, moved), 0.0, times[-1], value)


def test_reprice_off_node(pricing_dir, tmp_path):
    """price interpolates between nodes and times exactly as the bilinear check does."""
    config = tmp_path / "reprice.ini"
    config.write_text(
        workloads.DUALITY_INI.format(paths=1000, mode="pw", x0=0.3137, price_time=0.2221)
        .replace("nodes = 201", "nodes = 101")
        .replace("steps = 500", "steps = 50")
    )
    args = ["price", "--config", str(config), "--field", str(pricing_dir), "--mode", "pw", "--out", str(tmp_path)]
    assert degenpde(args) == 0
    report = _load(tmp_path / "pricing.json")
    field = checks.read_field_csv(pricing_dir / "field.csv")
    theta = field[0][-1] - 0.2221
    assert checks.field_value(field, 0.3137, theta, report["pde_value"]) == []
    assert checks.field_value(field, 0.3137 + 1e-4, theta, report["pde_value"])
    assert checks.field_value(field, 0.3137, theta + 1e-3, report["pde_value"])


def test_regularity_exact(measure_dir):
    reg = _load(measure_dir / "reg" / "regularity.json")
    exact = checks.exact_lipschitz(SMALL_MEASURE, reg["per_slice"]["t"])
    assert checks.regularity_exact(reg, SMALL_MEASURE, exact) == []
    tol = 0.5 * (exact[3] + exact[2] ** 2)
    bumped = copy.deepcopy(reg)
    bumped["per_slice"]["lip_x"][len(bumped["per_slice"]["lip_x"]) // 2] += 1.2 * tol
    assert checks.regularity_exact(bumped, SMALL_MEASURE, exact)
    assert checks.regularity_exact(dict(reg, lip_t=reg["lip_t"] - 1.2 * tol), SMALL_MEASURE, exact)
    # the exact constants of another datum do not match
    other = checks.exact_lipschitz(dict(SMALL_MEASURE, amplitude=1.2), reg["per_slice"]["t"])
    assert checks.regularity_exact(reg, SMALL_MEASURE, other)


def test_cole_hopf_solves_the_equation():
    """u_t = u_yy / 2 - c u_y^2 holds for the quadrature solution, by central differences."""
    x1 = np.array([0.0, 0.7])
    y = np.linspace(-3.0, 3.0, 61)
    h, t, c = 1e-3, 0.3, 0.5
    u = lambda yy, tt: checks.cole_hopf(x1, yy, tt, c, 1.0, 1.0)
    u_t = (u(y, t + h) - u(y, t - h)) / (2 * h)
    u_y = (u(y + h, t) - u(y - h, t)) / (2 * h)
    u_yy = (u(y + h, t) - 2 * u(y, t) + u(y - h, t)) / h**2
    assert np.max(np.abs(u_t - (0.5 * u_yy - c * u_y**2))) < 1e-5


def test_initial_deviation_and_envelopes(measure_dir):
    reg = _load(measure_dir / "reg" / "regularity.json")
    assert checks.initial_deviation(reg) == []
    assert checks.initial_deviation(dict(reg, initial_deviation=dict(reg["initial_deviation"], ok=False)))
    assert checks.envelopes_dominate(reg) == []
    for env, series in (("envelope_minus", "L_minus"), ("envelope_plus", "L_plus")):
        low = copy.deepcopy(reg)
        low[env]["offset"] -= 1e-6 * max(1.0, max(low["per_slice"][series]))
        assert checks.envelopes_dominate(low)


def test_kernel_and_atom(measure_dir):
    deg = _load(measure_dir / "degeneracy.json")
    assert checks.kernel_and_atom(deg) == []
    turned = copy.deepcopy(deg)
    turned["kernel"]["basis"] = [[0.0, 1.0]]
    assert checks.kernel_and_atom(turned)
    diffuse = copy.deepcopy(deg)
    diffuse["atom"]["verdict"] = "diffuse"
    assert checks.kernel_and_atom(diffuse)


def test_occupation_time(measure_dir):
    ce = _load(measure_dir / "counterexample.json")
    assert checks.occupation_time(ce, 1.0) == []
    assert checks.occupation_time(dict(ce, estimate=0.5 + 3.01 * ce["se"]), 1.0)


def test_transform_certificate(measure_dir):
    tr = _load(measure_dir / "tr" / "transform.json")
    assert checks.transform_certificate(tr) == []
    disc = copy.deepcopy(tr)
    disc["discriminant"]["min"] *= 1.0 + 2e-5
    assert checks.transform_certificate(disc)
    assert checks.transform_certificate(dict(tr, round_trip_error=2e-10))


def test_self_and_busy_times():
    spans = [
        [0, "process", None, 0.0, 10.0],
        [1, "montecarlo.price", 0, 1.0, 6.0],
        [2, "montecarlo.simulate", 1, 1.5, 3.0],
        [3, "montecarlo.interp", 2, 2.0, 2.5],
        [4, "reporting.write", 0, 7.0, 8.0],
    ]
    total, busy = layers.span_times(spans)
    assert busy["montecarlo"] == 5.0 and busy["reporting"] == 1.0
    assert total["montecarlo.simulate"] == 1.5
    own = layers.self_times(spans)
    assert own["montecarlo.price"] == 3.5 and own["montecarlo.simulate"] == 1.0 and own["process"] == 4.0


def test_run_refuses_without_sources(tmp_path):
    """Without src/degenpde the benchmark exits nonzero and prints no result."""
    shutil.copytree(BENCH, tmp_path / "bench", ignore=shutil.ignore_patterns("out", "__pycache__"))
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path / "BENCHMARK.json")
    proc = subprocess.run(
        [sys.executable, "bench/run.py", "--workload", "duality_1d", "--seed", "1", "--seconds", "1"],
        cwd=tmp_path,
        capture_output=True,
        text=True,
        timeout=60,
    )
    assert proc.returncode != 0 and proc.stdout == ""
