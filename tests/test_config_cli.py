import configparser
import dataclasses
import io
import json
import os
import subprocess
import sys
import tracemalloc

import numpy as np
import pytest

import degenpde
from degenpde import cli, montecarlo, regularity, solver, transform
from degenpde.cli import main
from degenpde.config import FAMILIES, load_config, mc_settings, parse_family
from degenpde.errors import ConfigurationError, ContractViolationError, StabilityError
from degenpde.reporting import (
    CSV_BLOCK_ROWS,
    dumps_json,
    format_float,
    read_field_csv,
    write_field_csv,
    write_table_csv,
)
from degenpde.solver import DEFAULT_THETA, GridSpec, SolutionField

REPO = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))

BENCH_INI = """
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
nodes = 101
steps = auto
theta = 0.45
collar = 4

[mc]
paths = 4000
steps = 100
seed = 7
mode = both
x0 = 0.0
price_time = 0.0
chunk = 2000

[diagnostics]
regularity = true

[transform]
mode = semiconvex
l = 4
interval = 1.0,2.0
tau_max = 5.0
"""

GENERAL_INI = """
[model]
kind = general
dim = 1
horizon = 0.5
sigma = constant:1
mu = zero
lambda = zero
eta = zero
value_interval = -0.5,1.5
initial = gaussian:1,0,1

[grid]
half_width = 6.0
nodes = 121
steps = auto
"""


# 2-D, noise along x2 only: the kernel of sigma^T is x1, so the degeneracy
# diagnostics simulate paths
DEGENERATE_INI = """
[model]
kind = general
dim = 2
horizon = 1.0
sigma = constant:0;1
mu = zero
lambda = zero
eta = zero
value_interval = -0.5,1.5
initial = constant:0

[grid]
half_width = 6.0
nodes = 41
steps = auto
"""


@pytest.fixture()
def bench_config(tmp_path):
    path = tmp_path / "bench.ini"
    path.write_text(BENCH_INI)
    return str(path)


@pytest.fixture()
def general_config(tmp_path):
    path = tmp_path / "general.ini"
    path.write_text(GENERAL_INI)
    return str(path)


class TestParsing:
    def test_family_grammar(self):
        assert parse_family("constant:0.03") == ("constant", [0.03], {})
        name, pos, kw = parse_family("gaussian_bump:amplitude=1,center=0,width=2,ramp=3")
        assert name == "gaussian_bump"
        assert kw == {"amplitude": 1.0, "center": 0.0, "width": 2.0, "ramp": 3.0}
        assert parse_family("zero") == ("zero", [], {})

    def test_unknown_family_rejected(self, tmp_path):
        path = tmp_path / "bad.ini"
        path.write_text(BENCH_INI.replace("rate = constant:0.03", "rate = mystery:1"))
        with pytest.raises(ConfigurationError):
            load_config(str(path))

    def test_missing_file(self):
        with pytest.raises(ConfigurationError):
            load_config("/no/such/config.ini")

    def test_stability_fail_fast(self, tmp_path):
        path = tmp_path / "unstable.ini"
        path.write_text(BENCH_INI.replace("steps = auto", "steps = 10"))
        with pytest.raises(StabilityError):
            load_config(str(path))

    def test_empty_mc_section_takes_the_defaults(self, tmp_path):
        path = tmp_path / "mc.ini"
        start, end = BENCH_INI.index("[mc]"), BENCH_INI.index("[diagnostics]")
        path.write_text(BENCH_INI[:start] + "[mc]\n\n" + BENCH_INI[end:])
        cfg = load_config(str(path))
        assert cfg.mc == mc_settings({}, 1)
        assert cfg.mc["mode"] == "both"
        assert cfg.mc["x0"] == [0.0]

    def test_resolved_benchmark(self, bench_config):
        cfg = load_config(bench_config)
        assert cfg.kind == "mbs"
        assert cfg.model.rho == 0.5
        assert cfg.grid.nodes == (101,)
        assert cfg.mc["paths"] == 4000
        assert cfg.transform["mode"] == "semiconvex"

    def test_general_kind(self, general_config):
        cfg = load_config(general_config)
        assert cfg.kind == "general"
        assert cfg.model is None
        assert cfg.problem.label == "general"

    def test_matrix_sigma_parsing(self, tmp_path):
        ini = GENERAL_INI.replace("dim = 1", "dim = 2").replace(
            "sigma = constant:1", "sigma = constant:0;1"
        ).replace("initial = gaussian:1,0,1", "initial = constant:0").replace(
            "nodes = 121", "nodes = 41"
        )
        path = tmp_path / "mat.ini"
        path.write_text(ini)
        cfg = load_config(str(path))
        np.testing.assert_array_equal(cfg.sigma(0.0), [[0.0], [1.0]])

    def test_missing_grid_section_resolves_like_an_empty_one(self, tmp_path):
        head = GENERAL_INI[: GENERAL_INI.index("[grid]")]
        missing, empty = tmp_path / "missing.ini", tmp_path / "empty.ini"
        missing.write_text(head)
        empty.write_text(head + "[grid]\n")
        a, b = load_config(str(missing)), load_config(str(empty))
        theta = lambda cfg: cfg.manifest["grid"]["theta"]
        assert (a.grid, theta(a), a.collar) == (b.grid, theta(b), b.collar)  # the grid holds steps
        assert (a.grid.half_width, a.grid.nodes, theta(a), a.collar) == ((8.0,), (401,), DEFAULT_THETA, 4)
        assert a.diagnostics == b.diagnostics == {"regularity": False, "offset_cap": None}

    @pytest.mark.parametrize(
        "section, key, owner, name",
        [
            ("grid", "clamp_rel_tolerance", solver, "CLAMP_REL_TOL"),
            ("mc", "positivity_floor_rel", montecarlo, "POSITIVITY_FLOOR_REL"),
            ("transform", "rtol", transform, "Q_RTOL"),
        ],
    )
    def test_manifest_records_the_constant_the_code_runs_with(
        self, bench_config, monkeypatch, section, key, owner, name
    ):
        assert load_config(bench_config).manifest[section][key] == getattr(owner, name)
        monkeypatch.setattr(owner, name, 0.5 * getattr(owner, name))
        assert load_config(bench_config).manifest[section][key] == getattr(owner, name)


@pytest.mark.parametrize(
    "name, text",
    [
        ("benchmark", None),
        ("degenerate", None),
        ("bench_ini", BENCH_INI),
        ("general_ini", GENERAL_INI),
        # keywords in another order name the same datum
        ("general_ini", GENERAL_INI.replace("gaussian:1,0,1", "gaussian:width=1,amplitude=1")),
    ],
)
def test_manifest_matches_its_golden_file(name, text, tmp_path):
    # the files hold the manifests as the hand-written records gave them
    path = os.path.join(REPO, "configs", name + ".ini")
    if text is not None:
        path = tmp_path / "config.ini"
        path.write_text(text)
    with open(os.path.join(REPO, "tests", "data", "manifests", name + ".json")) as fh:
        assert dumps_json(load_config(str(path)).manifest) == fh.read()


def _failed_solve(tmp_path, capsys, ini):
    path = tmp_path / "bad.ini"
    path.write_text(ini)
    assert main(["solve", "--config", str(path), "--out", str(tmp_path / "out")]) == 1
    err = json.loads(capsys.readouterr().err)
    assert err["error"] == "configuration_error"
    return err["details"]


NUMERIC_KEYS = [
    ("model", "dim"),
    ("model", "horizon"),
    ("model", "rho"),
    ("model", "coupon_tau"),
    ("grid", "half_width"),
    ("grid", "nodes"),
    ("grid", "steps"),
    ("grid", "theta"),
    ("grid", "collar"),
    ("mc", "paths"),
    ("mc", "steps"),
    ("mc", "seed"),
    ("mc", "price_time"),
    ("mc", "chunk"),
    ("diagnostics", "regularity"),
    ("diagnostics", "offset_cap"),
    ("transform", "l"),
    ("transform", "tau_max"),
]
# a family parameter, a sigma entry, an interval endpoint and an x0 entry
EMBEDDED_NUMBERS = [
    ("model", "rate", "constant:{}"),
    ("model", "sigma", "constant:{}"),
    ("model", "value_interval", "-0.5,{}"),
    ("mc", "x0", "{}"),
]


@pytest.mark.parametrize("bad", ["2o1", "half", "maybe"])
@pytest.mark.parametrize("section, key, template", [(s, k, "{}") for s, k in NUMERIC_KEYS] + EMBEDDED_NUMBERS)
def test_malformed_value_names_its_key(section, key, template, bad, tmp_path, capsys):
    parser = configparser.ConfigParser()
    parser.read_string(BENCH_INI)
    text = template.format(bad)
    parser.set(section, key, text)
    ini = io.StringIO()
    parser.write(ini)
    assert _failed_solve(tmp_path, capsys, ini.getvalue()) == {"section": section, "key": key, "text": text}


@pytest.mark.parametrize(
    "key, old, new",
    [
        ("initial", "constant:0", "gaussian:amp=2"),  # was amplitude 1
        ("rate", "constant:0.03", "constant:0.03,0.04"),  # dropped 0.04
        ("principal", "gaussian_bump:amplitude=1,center=0", "gaussian_bump:amplitude=1,amplitude=0"),
    ],
)
def test_family_typos_are_rejected(key, old, new, tmp_path, capsys):
    ini = BENCH_INI.replace(f"{key} = {old}", f"{key} = {new}")
    assert ini != BENCH_INI
    assert _failed_solve(tmp_path, capsys, ini)["key"] == key


def test_mbs_model_requires_its_value_interval(tmp_path, capsys):
    # a default of -1,2 would put U + h + xi at -1 + xi(0) = 0
    ini = BENCH_INI.replace("value_interval = -0.5,1.5\n", "")
    assert _failed_solve(tmp_path, capsys, ini) == {"section": "model", "key": "value_interval"}
    path = tmp_path / "general.ini"
    path.write_text(GENERAL_INI.replace("value_interval = -0.5,1.5\n", ""))
    assert load_config(str(path)).problem.value_interval == (-1.0, 2.0)


@pytest.mark.parametrize(
    "ini, details",
    [
        (BENCH_INI.replace("nodes = 101", "node = 101"), {"section": "grid", "key": "node"}),
        (BENCH_INI.replace("mu = zero\n", "mu = zero\nlambda = zero\n"), {"section": "model", "key": "lambda"}),
        (GENERAL_INI.replace("mu = zero\n", "mu = zero\nrho = 0.5\n"), {"section": "model", "key": "rho"}),
        (BENCH_INI.replace("paths = 4000", "path = 4000"), {"section": "mc", "key": "path"}),
        (BENCH_INI + "\n[grdi]\nnodes = 41\n", {"section": "grdi"}),
        ("[DEFAULT]\ncollar = 3\n" + BENCH_INI, {"section": "DEFAULT"}),
        # an mbs model states its transform coefficients through rho
        (BENCH_INI.replace("l = 4\n", "l = 4\nlambda = reciprocal:0.5\n"), {"section": "transform", "key": "lambda"}),
        (BENCH_INI.replace("l = 4\n", "l = 4\neta = reciprocal:-1.0\n"), {"section": "transform", "key": "eta"}),
    ],
    ids=[
        "grid_typo",
        "mbs_lambda",
        "general_rho",
        "mc_typo",
        "section_typo",
        "default_section",
        "mbs_transform_lambda",
        "mbs_transform_eta",
    ],
)
def test_unknown_key_or_section_is_rejected(ini, details, tmp_path, capsys):
    assert _failed_solve(tmp_path, capsys, ini) == details


# GENERAL_INI with the transform section of BENCH_INI and the coefficients
# the reduction of BENCH_INI's model gives at rho = 0.5
GENERAL_TRANSFORM_INI = GENERAL_INI + BENCH_INI[BENCH_INI.index("\n[transform]") :].replace(
    "l = 4\n", "l = 4\nlambda = reciprocal:0.5\neta = reciprocal:-1.0\n"
)


def test_mbs_transform_check_certifies_the_reduction(tmp_path, capsys):
    outputs = []
    for name, text in (("benchmark", None), ("general", GENERAL_TRANSFORM_INI)):
        path = os.path.join(REPO, "configs", "benchmark.ini")
        if text is not None:
            path = tmp_path / "general.ini"
            path.write_text(text)
        out = tmp_path / name
        assert main(["transform-check", "--config", str(path), "--out", str(out)]) == 0
        outputs.append([(out / f).read_bytes() for f in ("transform.json", "transform_tabulation.csv")])
    capsys.readouterr()
    assert outputs[0] == outputs[1]


def test_mbs_transform_coefficients_follow_rho(tmp_path):
    path = tmp_path / "rho.ini"
    path.write_text(BENCH_INI.replace("rho = 0.5", "rho = 0.3"))
    cfg = load_config(str(path))
    assert cfg.manifest["transform"]["lambda"] == {"family": "reciprocal", "scale": 0.3}
    assert cfg.manifest["transform"]["eta"] == {"family": "reciprocal", "scale": -0.6}
    u = np.linspace(1.0, 2.0, 5)
    np.testing.assert_array_equal(cfg.transform["lambda_fn"](u), 0.3 / u)
    np.testing.assert_array_equal(cfg.transform["eta_fn"](u), -0.6 / u)


@pytest.mark.parametrize("key, low", [("paths", 2), ("steps", 1), ("chunk", 1)])
def test_mc_counts_below_their_floor_are_rejected(key, low, tmp_path, capsys):
    assert mc_settings({key: str(low)}, 1)[key] == low
    parser = configparser.ConfigParser()
    parser.read_string(BENCH_INI)
    parser.set("mc", key, str(low - 1))
    ini = io.StringIO()
    parser.write(ini)
    assert _failed_solve(tmp_path, capsys, ini.getvalue()) == {"section": "mc", "key": key, "text": str(low - 1)}


@pytest.mark.parametrize("key, bad", [("mode", "bogus"), ("price_time", "5.0"), ("price_time", "-0.1")])
def test_mc_mode_and_price_time_are_checked_at_load(key, bad, tmp_path, capsys):
    # price_and_compare would reject both only after the march
    parser = configparser.ConfigParser()
    parser.read_string(BENCH_INI)
    parser.set("mc", key, bad)
    path = tmp_path / "bad.ini"
    with open(path, "w") as fh:
        parser.write(fh)
    out = tmp_path / "out"
    assert main(["verify-duality", "--config", str(path), "--out", str(out)]) == 1
    err = json.loads(capsys.readouterr().err)
    assert err["error"] == "configuration_error"
    assert err["details"] == {"section": "mc", "key": key, "text": bad}
    assert not out.exists()


def test_positivity_bound_counts_the_principal(tmp_path, capsys):
    # h(x) = x reaches -8 on the nodes: -0.5 + min(h + xi) = -0.5 - 8 + 1
    path = tmp_path / "affine.ini"
    path.write_text(BENCH_INI.replace("principal = gaussian_bump:amplitude=1,center=0,width=1,ramp=3", "principal = affine:1"))
    out = tmp_path / "out"
    assert main(["solve", "--config", str(path), "--out", str(out)]) == 1
    err = json.loads(capsys.readouterr().err)
    assert err["error"] == "positivity_violation"
    assert err["details"] == {"value_interval": [-0.5, 1.5], "bound": -7.5}
    assert not out.exists()


@pytest.mark.parametrize("flag, value", [("--paths", "1"), ("--paths", "0"), ("--steps", "0")])
def test_price_flags_below_their_floor_are_rejected(flag, value, bench_config, tmp_path, capsys):
    field_dir = str(tmp_path / "field")
    assert main(["solve", "--config", bench_config, "--out", field_dir]) == 0
    capsys.readouterr()
    assert main(["price", "--config", bench_config, "--field", field_dir, flag, value]) == 1
    err = json.loads(capsys.readouterr().err)
    assert err["error"] == "configuration_error"
    assert err["details"] == {"section": "mc", "key": flag[2:], "text": value}


# The golden-manifest configs load in test_manifest_matches_its_golden_file.
@pytest.mark.parametrize("name", sorted(os.listdir(os.path.join(REPO, "configs"))))
def test_shipped_configs_resolve_every_key(name):
    load_config(os.path.join(REPO, "configs", name))


@pytest.mark.parametrize("workload", ["duality_1d", "reprice_1d", "measure_2d"])
def test_benchmark_workload_configs_resolve_every_key(workload, tmp_path, monkeypatch):
    # each config as the benchmark's workload class writes it
    monkeypatch.syspath_prepend(os.path.join(REPO, "bench"))
    import workloads

    load_config(workloads.WORKLOADS[workload](str(tmp_path), 0).config)


def test_readme_lists_every_family_with_its_parameters():
    with open(os.path.join(REPO, "README.md")) as fh:
        readme = fh.read()
    for _, table in FAMILIES.values():
        for name, (_, params) in table.items():
            if params is not None:  # the piecewise rate and the constant drift read their own values
                listed = ", ".join(f"`{p}` ({d:g})" for p, d in params) or "none"
                assert f"| `{name}` | {listed}" in readme, name


class TestReporting:
    def test_float_formatting_round_trips(self):
        for v in (0.1, 1.0 / 3.0, 1e-300, 123456.789012345678, np.pi):
            assert float(format_float(v)) == v

    def test_json_deterministic_and_sorted(self):
        payload = {"b": 1.5, "a": [1, 2.25], "c": {"y": True, "x": None}}
        s1 = dumps_json(payload)
        s2 = dumps_json({"c": {"x": None, "y": True}, "a": [1, 2.25], "b": 1.5})
        assert s1 == s2
        parsed = json.loads(s1)
        assert parsed["a"] == [1, 2.25]

    def test_dataclass_serializes_as_its_set_fields(self):
        @dataclasses.dataclass
        class Report:
            value: float
            point: tuple
            unset: object = None

        assert json.loads(dumps_json({"r": Report(np.float64(0.5), (1, 2))})) == {"r": {"value": 0.5, "point": [1, 2]}}

    def test_table_csv_spells_values_as_format_float(self, tmp_path):
        values = [np.nan, np.inf, -np.inf, -0.0, 5e-324, 0.1, 1.0 / 3.0, -2.5e300]
        cols = [values, values[::-1]]
        path = str(tmp_path / "table.csv")
        write_table_csv(path, ["info", "nan_count"], cols)
        lines = open(path).read().splitlines()
        assert lines[0] == "info,nan_count"
        assert lines[1:] == [",".join(format_float(c[i]) for c in cols) for i in range(len(values))]

    def test_table_longer_than_one_block_round_trips(self, tmp_path):
        rng = np.random.default_rng(3)
        table = rng.normal(size=(2 * CSV_BLOCK_ROWS + 3, 3)) * 10.0 ** rng.integers(-300, 300, size=3)
        path = str(tmp_path / "long.csv")
        write_table_csv(path, ["a", "b", "c"], list(table.T))
        np.testing.assert_array_equal(np.loadtxt(path, delimiter=",", skiprows=1), table)

    def test_field_csv_round_trip(self, tmp_path):
        grid = GridSpec(1, 2.0, 5, 3, 0.3)
        rng = np.random.default_rng(1)
        values = rng.normal(size=(4, 5))
        field = SolutionField(values, grid, variable="U")
        path = str(tmp_path / "field.csv")
        write_field_csv(field, path)
        loaded = read_field_csv(path)
        np.testing.assert_array_equal(loaded.values, values)
        assert loaded.variable == "U"
        assert loaded.grid.nodes == (5,)
        assert loaded.grid.horizon == 0.3

    def test_field_csv_round_trip_2d(self, tmp_path):
        grid = GridSpec(2, (2.0, 3.0), (5, 7), 2, 0.5)
        rng = np.random.default_rng(2)
        values = rng.normal(size=(3, 5, 7))
        field = SolutionField(values, grid)
        path = str(tmp_path / "field2.csv")
        write_field_csv(field, path)
        loaded = read_field_csv(path)
        np.testing.assert_array_equal(loaded.values, values)
        assert loaded.grid.half_width == (2.0, 3.0)


def _shift_x(row):
    t, x, u = row.split(",")
    return f"{t},{float(x) + 0.5!r},{u}"


# Each is read without complaint, or fails with a traceback, unless the reader
# checks the table against the export of the grid it spans.
FIELD_CSV_CORRUPTIONS = {
    "reordered_rows": lambda rows: rows[1:] + rows[:1],
    "header_only": lambda rows: [],
    "one_row": lambda rows: rows[:1],
    "non_numeric_cell": lambda rows: ["0,x,0"] + rows[1:],
    "off_centre_axis": lambda rows: [_shift_x(r) for r in rows],
    "extra_column": lambda rows: [r + ",0" for r in rows],
}


@pytest.mark.parametrize("corruption", sorted(FIELD_CSV_CORRUPTIONS))
def test_field_csv_other_than_the_export_is_a_configuration_error(corruption, tmp_path):
    field = SolutionField(np.random.default_rng(4).normal(size=(4, 5)), GridSpec(1, 2.0, 5, 3, 1.0), variable="U")
    path = str(tmp_path / "field.csv")
    write_field_csv(field, path)
    header, *rows = open(path).read().splitlines()
    with open(path, "w") as fh:
        fh.write("\n".join([header] + FIELD_CSV_CORRUPTIONS[corruption](rows)) + "\n")
    with pytest.raises(ConfigurationError) as err:
        read_field_csv(path)
    assert err.value.details["path"] == path


@pytest.mark.parametrize(
    "flag, value, text",
    [
        ("--paths", "1", "1"),
        ("--paths", "0", "0"),
        ("--steps", "0", "0"),
        ("--T", "-1", "-1.0"),
        ("--window", "1", "1"),
        ("--window", "a,b", "a,b"),
    ],
)
def test_counterexample_flags_out_of_range_are_rejected(flag, value, text, capsys):
    assert main(["counterexample", "--paths", "100", "--steps", "10", flag, value]) == 1
    err = json.loads(capsys.readouterr().err)
    assert err["error"] == "configuration_error"
    assert err["details"] == {"flag": flag, "text": text}


def _key_tree(obj):
    """A JSON object's keys, nested: each object maps its keys to their subtrees."""
    return {k: _key_tree(v) for k, v in obj.items()} if isinstance(obj, dict) else None


Q_KEYS = dict.fromkeys(
    [
        "abs_diff", "clamp_flag", "clamp_fraction", "mc_mean", "mc_se", "mode", "n_paths",
        "n_steps", "pde_value", "price_time", "seed", "x0", "z_score",
    ]
)
PW_KEYS = dict(Q_KEYS, **dict.fromkeys(["max_weight", "weight_ess", "weight_mean", "weight_se"]))
PRICING_KEYS = {
    "both": {"q": Q_KEYS, "pw": PW_KEYS, "agreement": dict.fromkeys(["combined_se", "difference", "z_score"])},
    "q": {"q": Q_KEYS},
    "pw": {"pw": PW_KEYS},
}


@pytest.mark.parametrize("mode", sorted(PRICING_KEYS))
def test_verify_duality_report_keys(mode, tmp_path):
    config, out = tmp_path / "bench.ini", tmp_path / "run"
    config.write_text(BENCH_INI.replace("mode = both", f"mode = {mode}"))
    assert main(["verify-duality", "--config", str(config), "--out", str(out)]) == 0
    pricing = json.loads((out / "pricing.json").read_text())
    assert _key_tree(pricing) == dict(PRICING_KEYS[mode], residual_max=None)
    summary = json.loads((out / "summary.json").read_text())
    assert _key_tree(summary["residual"]) == dict.fromkeys(["collar", "max", "mean"])
    reg = json.loads((out / "regularity.json").read_text())
    envelope = dict.fromkeys(["amplitude", "max_slack", "offset", "rate"])
    assert {name: _key_tree(reg[name]) for name in ("envelope_minus", "envelope_plus")} == {
        "envelope_minus": envelope,
        "envelope_plus": envelope,
    }


def test_price_and_counterexample_stdout_keys(bench_config, tmp_path, capsys):
    field_dir = str(tmp_path / "field")
    assert main(["solve", "--config", bench_config, "--out", field_dir]) == 0
    for mode, keys in (("q", Q_KEYS), ("pw", PW_KEYS)):
        capsys.readouterr()
        assert main(["price", "--config", bench_config, "--field", field_dir, "--paths", "200", "--mode", mode]) == 0
        assert _key_tree(json.loads(capsys.readouterr().out)) == keys
    assert main(["counterexample", "--paths", "100", "--steps", "10"]) == 0
    keys = ["estimate", "expected", "horizon", "n_paths", "n_steps", "se", "seed"]
    assert _key_tree(json.loads(capsys.readouterr().out)) == dict.fromkeys(keys)


class TestCli:
    def test_solve_writes_artifacts(self, bench_config, tmp_path, capsys):
        out = str(tmp_path / "run")
        assert main(["solve", "--config", bench_config, "--out", out]) == 0
        for name in ("field.csv", "summary.json", "manifest.json"):
            assert os.path.exists(os.path.join(out, name))
        summary = json.loads(open(os.path.join(out, "summary.json")).read())
        assert summary["variable"] == "U"

    def test_verify_duality_pipeline(self, bench_config, tmp_path):
        out = str(tmp_path / "dual")
        assert main(["verify-duality", "--config", bench_config, "--out", out]) == 0
        pricing = json.loads(open(os.path.join(out, "pricing.json")).read())
        assert set(pricing) >= {"q", "pw", "agreement", "residual_max"}
        allowance = 3.0 * pricing["q"]["mc_se"] + 10.0 * pricing["residual_max"]
        assert pricing["q"]["abs_diff"] <= allowance
        agree = pricing["agreement"]
        assert agree["difference"] <= 3.0 * agree["combined_se"] + 1e-12
        reg = json.loads(open(os.path.join(out, "regularity.json")).read())
        assert reg["initial_deviation"]["ok"] is True

    def test_rerun_is_byte_identical(self, bench_config, tmp_path):
        out1 = str(tmp_path / "a")
        out2 = str(tmp_path / "b")
        main(["verify-duality", "--config", bench_config, "--out", out1])
        main(["verify-duality", "--config", bench_config, "--out", out2])
        for name in ("field.csv", "summary.json", "pricing.json", "regularity.json", "manifest.json"):
            b1 = open(os.path.join(out1, name), "rb").read()
            b2 = open(os.path.join(out2, name), "rb").read()
            assert b1 == b2, name

    def test_price_from_saved_field(self, bench_config, tmp_path, capsys):
        out = str(tmp_path / "run")
        main(["solve", "--config", bench_config, "--out", out])
        capsys.readouterr()
        code = main(
            [
                "price",
                "--config",
                bench_config,
                "--field",
                out,
                "--paths",
                "2000",
                "--mode",
                "q",
                "--seed",
                "5",
            ]
        )
        assert code == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["mode"] == "q"
        assert payload["n_paths"] == 2000

    def test_transform_check_output(self, bench_config, tmp_path, capsys):
        out = str(tmp_path / "tr")
        assert main(["transform-check", "--config", bench_config, "--out", out]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["lambda_tilde"]["all_negative"] is True
        assert payload["round_trip_error"] <= 1e-10
        assert os.path.exists(os.path.join(out, "transform_tabulation.csv"))

    def test_counterexample_command(self, capsys):
        code = main(
            ["counterexample", "--T", "1.0", "--paths", "3000", "--steps", "100", "--seed", "2"]
        )
        assert code == 0
        payload = json.loads(capsys.readouterr().out)
        assert abs(payload["estimate"] - 0.5) <= 4.0 * payload["se"]

    def test_diagnose_degeneracy_command(self, tmp_path, capsys):
        path = tmp_path / "deg.ini"
        path.write_text(DEGENERATE_INI + "\n[mc]\npaths = 2000\nsteps = 100\nseed = 3\nx0 = 0.0\n")
        assert main(["diagnose-degeneracy", "--config", str(path)]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["kernel"]["m"] == 1
        assert payload["atom"]["verdict"] == "atomic"

    def test_diagnose_degeneracy_without_mc_records_the_shared_defaults(self, tmp_path, capsys):
        path, out = tmp_path / "deg.ini", tmp_path / "deg"
        path.write_text(DEGENERATE_INI)
        assert main(["diagnose-degeneracy", "--config", str(path), "--out", str(out)]) == 0
        projection = json.loads(capsys.readouterr().out)["projection"]
        mc = json.loads((out / "manifest.json").read_text())["mc"]
        assert mc == json.loads(dumps_json(mc_settings({}, 2)))
        assert (mc["paths"], mc["steps"], mc["seed"]) == (
            projection["n_paths"],
            projection["n_steps"],
            projection["seed"],
        )

    def test_diagnose_degeneracy_below_a_thousand_paths_names_the_floor(self, tmp_path, capsys):
        path = tmp_path / "deg.ini"
        path.write_text(DEGENERATE_INI + "\n[mc]\npaths = 999\nsteps = 20\n")
        assert main(["diagnose-degeneracy", "--config", str(path)]) == 1
        err = json.loads(capsys.readouterr().err)
        assert err["error"] == "contract_violation"
        assert err["details"] == {"n": 999}

    def test_diagnose_regularity_command(self, general_config, tmp_path, capsys):
        out = str(tmp_path / "reg")
        assert main(["diagnose-regularity", "--config", general_config, "--out", out]) == 0
        assert os.path.exists(os.path.join(out, "regularity_slices.csv"))
        report = json.loads(open(os.path.join(out, "regularity.json")).read())
        assert report["variable"] == "u"
        assert len(report["per_slice"]["t"]) == len(report["per_slice"]["L_minus"])

    def test_error_exit_code_and_payload(self, capsys):
        code = main(["solve", "--config", "/missing.ini", "--out", "/tmp/unused_out"])
        assert code == 1
        err = json.loads(capsys.readouterr().err)
        assert err["error"] == "configuration_error"

    def test_manifest_covers_resolved_parameters(self, bench_config, tmp_path):
        out = str(tmp_path / "m")
        main(["verify-duality", "--config", bench_config, "--out", out])
        manifest = json.loads(open(os.path.join(out, "manifest.json")).read())
        grid = manifest["grid"]
        for key in ("dt", "dx", "theta", "stability_ratio", "collar", "clamp_rel_tolerance"):
            assert key in grid
        mc = manifest["mc"]
        for key in ("paths", "steps", "seed", "mode", "x0", "price_time", "chunk", "positivity_floor_rel"):
            assert key in mc
        model = manifest["model"]
        for key in ("rho", "coupon_tau", "rate", "principal", "horizon", "value_interval"):
            assert key in model
        assert set(manifest["diagnostics"]) == {"regularity", "offset_cap", "collar"}
        assert "artifacts" in manifest


def test_theta_cap_enforced(tmp_path):
    path = tmp_path / "theta.ini"
    path.write_text(BENCH_INI.replace("theta = 0.45", "theta = 0.9"))
    with pytest.raises(ConfigurationError):
        load_config(str(path))


def test_mbs_config_needs_at_least_as_many_factors_as_noises(tmp_path):
    path = tmp_path / "wide.ini"
    path.write_text(BENCH_INI.replace("sigma = constant:1\n", "sigma = constant:1 1\n"))
    with pytest.raises(ContractViolationError):
        load_config(str(path))


def test_affine_initial_family(tmp_path):
    ini = GENERAL_INI.replace("initial = gaussian:1,0,1", "initial = affine:slope=0.05,intercept=0.2")
    path = tmp_path / "affine.ini"
    path.write_text(ini)
    cfg = load_config(str(path))
    mesh = cfg.grid.mesh()
    vals = cfg.u0(mesh)
    np.testing.assert_allclose(vals, 0.05 * mesh[..., 0] + 0.2, atol=1e-14)


def test_time_lipschitz_flag_for_general_kind(general_config, tmp_path):
    out = str(tmp_path / "tl")
    assert main(["diagnose-regularity", "--config", general_config, "--out", out]) == 0
    report = json.loads(open(os.path.join(out, "regularity.json")).read())
    tl = report["time_lipschitz"]
    assert tl["b1"] == 0 and tl["b2"] == 0
    assert tl["lip_t"] <= tl["bound"]
    assert tl["flag_exceeded"] is False


def test_zero_principal_pipeline_reports_zero(tmp_path):
    ini = BENCH_INI.replace(
        "principal = gaussian_bump:amplitude=1,center=0,width=1,ramp=3",
        "principal = gaussian_bump:amplitude=0,center=0,width=1,ramp=3",
    )
    config = tmp_path / "zero.ini"
    config.write_text(ini)
    out = str(tmp_path / "zero_out")
    assert main(["verify-duality", "--config", str(config), "--out", out]) == 0
    pricing = json.loads(open(os.path.join(out, "pricing.json")).read())
    for mode in ("q", "pw"):
        assert pricing[mode]["mc_mean"] == 0.0
        assert pricing[mode]["pde_value"] == 0.0
        assert pricing[mode]["z_score"] == 0.0


def _scipy_loaded_after(code):
    """Run code in a fresh interpreter; return whether scipy got imported."""
    src = os.path.dirname(os.path.dirname(os.path.abspath(degenpde.__file__)))
    env = dict(os.environ, PYTHONPATH=src)
    probe = code + "\nimport sys\nprint('scipy' in sys.modules)\n"
    out = subprocess.run(
        [sys.executable, "-c", probe], env=env, capture_output=True, text=True, check=True
    )
    return out.stdout.strip().splitlines()[-1] == "True"


def test_cli_import_does_not_load_scipy():
    assert not _scipy_loaded_after("import degenpde.cli")


def test_benchmark_config_load_does_not_load_scipy():
    path = os.path.join(REPO, "configs", "benchmark.ini")
    assert not _scipy_loaded_after(f"from degenpde.config import load_config\nload_config({path!r})")


@pytest.mark.parametrize(
    "command",
    [
        "solve",
        "price",
        "verify-duality",
        "diagnose-regularity",
        "diagnose-degeneracy",
        "transform-check",
        "counterexample",
    ],
)
def test_command_does_not_load_scipy(command, bench_config, tmp_path):
    out = str(tmp_path / "out")
    if command == "counterexample":
        args = [command, "--paths", "500", "--steps", "20", "--seed", "1"]
    elif command == "price":
        field_dir = str(tmp_path / "field")
        assert main(["solve", "--config", bench_config, "--out", field_dir]) == 0
        args = [command, "--config", bench_config, "--field", field_dir, "--mode", "pw", "--out", out]
    else:
        args = [command, "--config", bench_config, "--out", out]
    assert not _scipy_loaded_after(f"from degenpde.cli import main\nassert main({args!r}) == 0")


@pytest.mark.parametrize("mc_section", ["", "[mc]\nseed = 3\n\n"], ids=["no_mc", "mc_without_mode"])
def test_price_mode_defaults_to_q(mc_section, bench_config, tmp_path, capsys):
    # the [mc] mode default is "both", which price resolves to q
    ini = BENCH_INI[: BENCH_INI.index("[mc]")] + mc_section + BENCH_INI[BENCH_INI.index("[diagnostics]") :]
    config = tmp_path / "price.ini"
    config.write_text(ini)
    field_dir = str(tmp_path / "field")
    assert main(["solve", "--config", bench_config, "--out", field_dir]) == 0
    capsys.readouterr()
    assert main(["price", "--config", str(config), "--field", field_dir, "--paths", "200", "--steps", "10"]) == 0
    report = json.loads(capsys.readouterr().out)
    assert report["mode"] == "q"
    assert report["n_paths"] == 200


@pytest.mark.parametrize("command", ["verify-duality", "diagnose-regularity"])
def test_residual_computed_once_per_run(command, bench_config, tmp_path, monkeypatch):
    # the march evaluates H on slices 0..M-1 and the residual reads the same
    # evaluations, so a second residual pass (or any re-evaluation) shows here
    calls = []
    hamiltonian = solver._interior_hamiltonian

    def counted(*args, **kwargs):
        calls.append(1)
        return hamiltonian(*args, **kwargs)

    monkeypatch.setattr(solver, "_interior_hamiltonian", counted)
    assert main([command, "--config", bench_config, "--out", str(tmp_path / "run")]) == 0
    assert len(calls) == load_config(bench_config).grid.steps


# 2-D, 81^2 nodes and 170 steps: the stored field would be 8.6 MiB, far more
# than the few slices the report's measures hold
FIELD_SIZED_INI = """
[model]
kind = general
dim = 2
horizon = 1.0
sigma = constant:0;1
mu = zero
lambda = constant:0.5
eta = zero
value_interval = -0.5,1.5
initial = gaussian:1,0,1

[grid]
half_width = 8.0
nodes = 81
steps = 170
collar = 4

[diagnostics]
offset_cap = 0.4
"""


def test_diagnose_regularity_holds_slices_not_the_field(tmp_path):
    config = tmp_path / "field_sized.ini"
    config.write_text(FIELD_SIZED_INI)
    cfg = load_config(str(config))
    slice_bytes = 8 * int(np.prod(cfg.grid.shape))
    assert slice_bytes * (cfg.grid.steps + 1) >= 8 * 2**20
    tracemalloc.start()
    try:
        # the fixed allowance is the slope bound's own peak: its probe
        # lattice does not grow with the number of steps
        regularity.bound_constants(cfg.problem, cfg.grid.axes, cfg.grid.horizon, (1.0, 1.0))
        allowance = tracemalloc.get_traced_memory()[1]
        tracemalloc.reset_peak()
        assert main(["diagnose-regularity", "--config", str(config)]) == 0
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < allowance + 16 * slice_bytes + 2 * 2**20


@pytest.mark.parametrize("config", ["bench_config", "general_config"])
def test_stored_field_gives_the_marched_report(config, request, tmp_path):
    path = request.getfixturevalue(config)
    field_dir, marched, stored = (str(tmp_path / name) for name in ("field", "marched", "stored"))
    assert main(["solve", "--config", path, "--out", field_dir]) == 0
    assert main(["diagnose-regularity", "--config", path, "--out", marched]) == 0
    assert main(["diagnose-regularity", "--config", path, "--field", field_dir, "--out", stored]) == 0
    for name in ("regularity.json", "regularity_slices.csv"):
        with open(os.path.join(marched, name), "rb") as a, open(os.path.join(stored, name), "rb") as b:
            assert a.read() == b.read()


@pytest.mark.parametrize(
    "command,config", [("verify-duality", "bench_config"), ("diagnose-regularity", "general_config")]
)
def test_slope_bound_computed_once_per_report(command, config, request, tmp_path, monkeypatch):
    # the general kind carries coefficient norms, so its report also has the
    # time-Lipschitz bound, which reuses the same slope bound
    calls = []
    slope_bound = regularity.initial_slope_bound

    def counted(*args, **kwargs):
        calls.append(1)
        return slope_bound(*args, **kwargs)

    monkeypatch.setattr(regularity, "initial_slope_bound", counted)
    out = str(tmp_path / "run")
    assert main([command, "--config", request.getfixturevalue(config), "--out", out]) == 0
    assert len(calls) == 1
    report = json.loads(open(os.path.join(out, "regularity.json")).read())
    assert ("time_lipschitz" in report) == (config == "general_config")


@pytest.mark.parametrize(
    "command",
    ["solve", "verify-duality", "diagnose-regularity", "diagnose-degeneracy", "transform-check"],
)
def test_manifest_lists_exactly_the_files_written(command, bench_config, tmp_path):
    out = tmp_path / "run"
    assert main([command, "--config", bench_config, "--out", str(out)]) == 0
    manifest = json.loads((out / "manifest.json").read_text())
    assert manifest["artifacts"] == sorted(set(os.listdir(out)) - {"manifest.json"})


def test_price_rejects_a_general_kind_field(bench_config, general_config, tmp_path, capsys):
    field_dir = str(tmp_path / "general")
    assert main(["solve", "--config", general_config, "--out", field_dir]) == 0
    capsys.readouterr()
    assert main(["price", "--config", bench_config, "--field", field_dir, "--paths", "100"]) == 1
    err = json.loads(capsys.readouterr().err)
    assert err["error"] == "contract_violation"
    assert err["details"]["variable"] == "u"
