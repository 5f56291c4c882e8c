"""Experiment runner: wire configuration files to the numerical modules.

Subcommands: solve, price, verify-duality, diagnose-regularity,
diagnose-degeneracy, transform-check, counterexample. Outputs are CSV for
data and JSON for reports. Every command that writes to ``--out`` also
writes a manifest with every resolved parameter and seed, except ``price``,
whose flag overrides the manifest does not record. Reruns with the same seed
are byte-identical; exit status is nonzero exactly when a module raised an
error.
"""

import argparse
import os
import sys

import numpy as np

from .config import load_config, mc_settings
from .degeneracy import (
    check_projection,
    continuity_diagnostic,
    counterexample_run,
    kernel_basis,
    projection_paths,
)
from .errors import ConfigurationError, DegenPdeError
from .montecarlo import draw_increments, make_rng, path_blocks, price_and_compare, simulate
# The stored-field measures (field_sup_norms ... solution_sobolev_norms and
# residual_field) go unused here; they stay imported because bench/tracing.py
# wraps each layer's functions under their names in this module.
from .regularity import (  # noqa: F401
    INITIAL_LAYER_FRACTION,
    RegularityMeter,
    bound_constants,
    envelope_fit,
    field_sup_norms,
    initial_deviation_check,
    lipschitz_estimates,
    second_difference_constants,
    solution_sobolev_norms,
)
from .reporting import (
    dumps_json,
    read_field_csv,
    write_field_csv,
    write_json,
    write_table_csv,
)
from .solver import ResidualMeter, SolutionField, replay, residual_field, solve  # noqa: F401
from .transform import invert, primitive_lambda, solve_Q, structural_check

__all__ = ["main", "run_experiment"]

def _march(cfg, store, regularity):
    """Solve the configured problem in one slice walk.

    The residual, and with ``regularity`` the regularity meter, take each
    slice as it is marched. Returns (field, residual report, summary, meter
    or None); the field holds its values only with ``store``.
    """
    res = ResidualMeter(cfg.grid, cfg.collar)
    reg = None
    if regularity:
        reg = RegularityMeter(cfg.grid, cfg.collar, cfg.diagnostics.get("offset_cap"))
    meters = [res] if reg is None else [res, reg]
    field = solve(cfg.problem, cfg.u0, cfg.grid, consumers=meters, store=store)
    report = res.report()
    summary = {
        "variable": field.variable,
        "grid": cfg.manifest["grid"],
        "residual": report,
        "clamp_report": field.clamp_report,
        "value_range": field.value_range,
    }
    return field, report, summary, reg


def _regularity_report(cfg, field, reg, res):
    """Regularity diagnostics of ``field`` from a meter that has seen every
    slice; ``res`` is its residual report, None when the field carries no
    equation, and then the bounds that need one are left out."""
    grid = reg.grid
    problem = field.problem
    collar = cfg.collar
    cap = cfg.diagnostics.get("offset_cap")
    lip = reg.lipschitz.report()
    tol = 10.0 * res.max if res is not None else 0.0

    report = {
        "variable": field.variable,
        "collar": collar,
        "offset_cap": cap if cap is not None else "auto",
        "slice_stride": reg.stride,
        "per_slice": {
            "t": reg.t,
            "L_minus": reg.l_minus,
            "L_plus": reg.l_plus,
            "lip_x": [float(lip.lip_x[k]) for k in reg.indices],
            "w2_norm": reg.w2_norm,
        },
        "lip_t": lip.lip_t,
        "envelope_minus": envelope_fit(np.asarray(reg.l_minus), np.asarray(reg.t)),
        "envelope_plus": envelope_fit(np.asarray(reg.l_plus), np.asarray(reg.t)),
    }
    if problem is not None:
        w_norms = reg.sobolev_norms() if problem.norms is not None else None
        bc = bound_constants(problem, grid.axes, grid.horizon, reg.initial_caps, solution_norms=w_norms)
        dev = reg.deviation.check(bc.c0_init, tol)
        report["c0_init"] = bc.c0_init
        report["scheme_tolerance"] = tol
        report["initial_deviation"] = dict(vars(dev), horizon_fraction=INITIAL_LAYER_FRACTION)
        if w_norms is not None:
            # time-Lipschitz check against the one-sided growth bound;
            # flagged, never failed
            bound = bc.c0_init + float(bc.alpha(grid.horizon)) + tol
            report["time_lipschitz"] = {
                "lip_t": lip.lip_t,
                "bound": bound,
                "b1": bc.b1,
                "b2": bc.b2,
                "flag_exceeded": bool(lip.lip_t > bound),
            }
    return report


def _price(cfg, field, mc):
    """Price ``field`` with the resolved ``[mc]`` settings."""
    return price_and_compare(
        cfg.model,
        field,
        cfg.sigma,
        cfg.mu,
        x0=np.asarray(mc["x0"]),
        price_time=mc["price_time"],
        n_paths=mc["paths"],
        n_steps=mc["steps"],
        seed=mc["seed"],
        mode=mc["mode"],
        chunk_size=mc["chunk"],
    )


def _write_outputs(cfg, out_dir, outputs):
    """Write each artifact, then the manifest naming them all.

    ``outputs`` maps a file name to its payload: a dict is written as JSON, a
    SolutionField as the field CSV and a ``(header, columns)`` pair as a table
    CSV. Returns ``{stem: path}`` for every file written, the manifest included.
    """
    paths = {}
    for name, payload in outputs.items():
        path = os.path.join(out_dir, name)
        if isinstance(payload, dict):
            write_json(path, payload)
        elif isinstance(payload, SolutionField):
            write_field_csv(payload, path)
        else:
            header, columns = payload
            write_table_csv(path, header, columns)
        paths[os.path.splitext(name)[0]] = path
    manifest = dict(cfg.manifest, artifacts=sorted(outputs))
    paths["manifest"] = write_json(os.path.join(out_dir, "manifest.json"), manifest)
    return paths


def run_experiment(cfg, out_dir):
    """solve -> diagnose -> price -> compare, writing every artifact."""
    regularity = cfg.diagnostics.get("regularity")
    field, res, summary, reg = _march(cfg, store=True, regularity=regularity)
    outputs = {"field.csv": field, "summary.json": summary}
    if regularity:
        outputs["regularity.json"] = _regularity_report(cfg, field, reg, res)
    if cfg.model is not None and cfg.mc:
        mode = cfg.mc["mode"]
        rep = _price(cfg, field, cfg.mc)
        pricing = vars(rep) if mode == "both" else {mode: rep}
        outputs["pricing.json"] = dict(pricing, residual_max=res.max)
    return _write_outputs(cfg, out_dir, outputs)


def _load_field_arg(field_arg):
    path = field_arg
    if os.path.isdir(path):
        path = os.path.join(path, "field.csv")
    if not os.path.exists(path):
        raise ConfigurationError("field file not found", path=field_arg)
    return read_field_csv(path)


def cmd_solve(args):
    cfg = load_config(args.config)
    field, _, summary, _ = _march(cfg, store=True, regularity=False)
    paths = _write_outputs(cfg, args.out, {"field.csv": field, "summary.json": summary})
    print(paths["summary"])
    return 0


def cmd_price(args):
    cfg = load_config(args.config)
    if cfg.model is None:
        raise ConfigurationError("price needs an mbs model configuration")
    field = _load_field_arg(args.field)
    # the pricing kernel refuses a field of another variable first
    for name, value, expected in (("dimension", field.grid.dim, cfg.dim), ("horizon", field.grid.horizon, cfg.horizon)):
        if field.variable == "U" and value != expected:
            raise ConfigurationError(
                f"field {name} does not match the configuration", path=args.field, field=value, config=expected
            )
    mc = dict(cfg.mc or mc_settings({}, cfg.dim))
    # the flags given pass the [mc] reader's checks
    flags = {key: str(getattr(args, key)) for key in ("paths", "steps", "seed") if getattr(args, key) is not None}
    checked = mc_settings(flags, cfg.dim)
    mc.update((key, checked[key]) for key in flags)
    mode = args.mode or mc["mode"]
    mc["mode"] = "q" if mode == "both" else mode
    rep = _price(cfg, field, mc)
    sys.stdout.write(dumps_json(rep))
    if args.out:
        write_json(os.path.join(args.out, "pricing.json"), rep)
    return 0


def cmd_verify_duality(args):
    cfg = load_config(args.config)
    if cfg.model is None:
        raise ConfigurationError("verify-duality needs an mbs model configuration")
    artifacts = run_experiment(cfg, args.out)
    print(artifacts["manifest"])
    return 0


def cmd_diagnose_regularity(args):
    cfg = load_config(args.config)
    if args.field:
        field = _load_field_arg(args.field)
        field.problem = cfg.problem if field.grid.dim == cfg.dim else None
        reg = RegularityMeter(field.grid, cfg.collar, cfg.diagnostics.get("offset_cap"))
        meter = None if field.problem is None else ResidualMeter(field.grid, cfg.collar)
        replay(field, [reg] if meter is None else [meter, reg])
        res = None if meter is None else meter.report()
    else:
        field, res, _, reg = _march(cfg, store=False, regularity=True)
    report = _regularity_report(cfg, field, reg, res)
    sys.stdout.write(dumps_json({"lip_t": report["lip_t"], "variable": report["variable"]}))
    if args.out:
        per = report["per_slice"]
        slices = (
            ["t", "L_minus", "L_plus", "lip_x"],
            [per["t"], per["L_minus"], per["L_plus"], per["lip_x"]],
        )
        _write_outputs(cfg, args.out, {"regularity.json": report, "regularity_slices.csv": slices})
    return 0


def cmd_diagnose_degeneracy(args):
    cfg = load_config(args.config)
    # the config builds only constant volatility
    decomp = kernel_basis(cfg.sigma.matrix)
    mc = cfg.mc or mc_settings({}, cfg.dim)
    n_paths, n_steps, seed = mc["paths"], mc["steps"], mc["seed"]
    report = {
        "kernel": {
            "m": decomp.m,
            "rank": decomp.rank,
            "basis": decomp.basis.tolist(),
            "condition_number": decomp.condition_number,
            "threshold": decomp.threshold,
        }
    }
    if decomp.m > 0:
        x0 = np.asarray(mc["x0"])
        d_noise = cfg.sigma.matrix.shape[1]
        times = np.linspace(0.0, cfg.horizon, n_steps + 1)
        # simulate(seed=seed)'s step-major draw, in blocks of paths that keep
        # only each path's quadratic variation and terminal projection; the
        # check uses the largest drift of all blocks, as one pass would
        rng = make_rng(seed)
        qv_max, drift_max, terminal = [], [], []
        # a block holds, per path and step, the noise, the states and the
        # projection's pi, drift and residual
        width = d_noise + cfg.dim + 3 * decomp.m
        for lo, hi in path_blocks(n_paths, n_steps, width):
            incs = draw_increments(rng, hi - lo, n_steps, d_noise, cfg.horizon / n_steps)
            ens = simulate(
                cfg.sigma, cfg.mu, x0, 0.0, cfg.horizon, n_steps, hi - lo, measure="P", increments=incs
            )
            pp = projection_paths(ens, decomp, cfg.mu, cfg.horizon, check=False)
            qv_max.append(pp.quadratic_variation.max())
            drift_max.append(np.abs(pp.drift).max())
            terminal.append(pp.pi[:, -1, :].copy())
            del incs, ens, pp
        worst_qv = float(np.max(qv_max))
        check_projection(worst_qv, float(np.max(drift_max)), cfg.horizon, times[1] - times[0])
        report["projection"] = {
            "max_quadratic_variation": worst_qv,
            "n_paths": n_paths,
            "n_steps": n_steps,
            "seed": seed,
        }
        report["atom"] = continuity_diagnostic(
            np.concatenate(terminal),
            seed=seed,
            conditioning=f"deterministic start x0={mc['x0']}, terminal time",
        )
    else:
        report["atom"] = {"heuristic": True, "m": 0, "empty": True}
    sys.stdout.write(dumps_json(report))
    if args.out:
        # a config without [mc] records the defaults the command ran with
        cfg.manifest.setdefault("mc", mc)
        _write_outputs(cfg, args.out, {"degeneracy.json": report})
    return 0


def _transform_pair(tr):
    """The pair Q, P that ``transform-check`` certifies for the resolved
    ``[transform]`` section: Q starts at the interval's left end and covers
    its right end plus a 5 % margin."""
    lo, hi = tr["interval"]
    margin = 0.05 * (hi - lo)
    prim = primitive_lambda(tr["lambda_fn"], lo, u_hi=hi + 4.0 * margin + 1.0)
    pair = solve_Q(prim, lo, tr["mode"], tau_max=tr["tau_max"], q_target=hi + margin, l_exp=tr["l"])
    invert(pair)
    return pair


def cmd_transform_check(args):
    cfg = load_config(args.config)
    tr = cfg.transform
    if not tr:
        raise ConfigurationError("transform-check needs a [transform] section")
    pair = _transform_pair(tr)
    report = structural_check(pair, tr["eta_fn"], tr["interval"])
    report["round_trip_error"] = pair.round_trip_error()
    report["min_slope"] = pair.min_slope()
    report["q_knots"] = len(pair.tau_knots)
    sys.stdout.write(dumps_json(report))
    if args.out:
        tabulation = (["tau", "Q", "Qprime"], [pair.tau_knots, pair.q_knots, pair.slope_knots])
        _write_outputs(cfg, args.out, {"transform.json": report, "transform_tabulation.csv": tabulation})
    return 0


def cmd_counterexample(args):
    # two paths give a standard error and one step a path, as in [mc]
    for flag, value, ok, rule in (
        ("--paths", args.paths, args.paths >= 2, "at least 2"),
        ("--steps", args.steps, args.steps >= 1, "at least 1"),
        ("--seed", args.seed, args.seed >= 0, "at least 0"),
        ("--T", args.T, 0.0 < args.T < np.inf, "positive and finite"),
    ):
        if not ok:
            raise ConfigurationError(f"{flag} must be {rule}", flag=flag, text=str(value))
    window = None
    if args.window:
        try:
            a, b = (float(v) for v in args.window.split(","))
        except ValueError:
            raise ConfigurationError("--window needs two numbers a,b", flag="--window", text=args.window) from None
        window = (a, b)
    rep = counterexample_run(
        horizon=args.T,
        n_paths=args.paths,
        n_steps=args.steps,
        seed=args.seed,
        time_window=window,
    )
    sys.stdout.write(dumps_json(rep))
    return 0


def build_parser():
    parser = argparse.ArgumentParser(
        prog="degenpde",
        description="Degenerate parabolic pricing equation engine",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("solve", help="march the equation and export the field")
    p.add_argument("--config", required=True)
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_solve)

    p = sub.add_parser("price", help="Monte Carlo price against a solved field")
    p.add_argument("--config", required=True)
    p.add_argument("--field", required=True, help="field directory or CSV")
    p.add_argument("--paths", type=int, default=None)
    p.add_argument("--steps", type=int, default=None)
    p.add_argument("--mode", choices=["q", "pw"], default=None)
    p.add_argument("--seed", type=int, default=None)
    p.add_argument("--out", default=None)
    p.set_defaults(func=cmd_price)

    p = sub.add_parser("verify-duality", help="solve, price both modes, compare")
    p.add_argument("--config", required=True)
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_verify_duality)

    p = sub.add_parser("diagnose-regularity", help="regularity diagnostics of a field")
    p.add_argument("--config", required=True)
    p.add_argument("--field", default=None)
    p.add_argument("--out", default=None)
    p.set_defaults(func=cmd_diagnose_regularity)

    p = sub.add_parser("diagnose-degeneracy", help="kernel decomposition and atom report")
    p.add_argument("--config", required=True)
    p.add_argument("--out", default=None)
    p.set_defaults(func=cmd_diagnose_degeneracy)

    p = sub.add_parser("transform-check", help="structural certificate of the change of variable")
    p.add_argument("--config", required=True)
    p.add_argument("--out", default=None)
    p.set_defaults(func=cmd_transform_check)

    p = sub.add_parser("counterexample", help="occupation-time counterexample estimate")
    p.add_argument("--T", type=float, default=1.0)
    p.add_argument("--paths", type=int, default=100_000)
    p.add_argument("--steps", type=int, default=1000)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--window", default=None, help="time window a,b")
    p.set_defaults(func=cmd_counterexample)

    return parser


def main(argv=None):
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except DegenPdeError as err:
        sys.stderr.write(dumps_json(err.payload()))
        return 1


if __name__ == "__main__":
    sys.exit(main())
