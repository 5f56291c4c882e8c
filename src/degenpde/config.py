"""Plain-text experiment configuration.

INI-style sections with coefficient families selected by name plus numeric
parameters, e.g. ``rate = constant:0.03`` or
``principal = gaussian_bump:amplitude=1,center=0,width=1,ramp=3``. Matrices
use semicolons between rows and spaces between entries
(``sigma = constant:0;1`` is the 2x1 column). Every resolved numeric lands in
the manifest. The grid stability bound is enforced at load.
"""

import configparser
import os
from dataclasses import dataclass, field as dataclass_field
from typing import Optional

import numpy as np

from . import families as fam
from . import montecarlo, solver, transform
from .errors import ConfigurationError
from .model import (
    CoefficientNorms,
    CoefficientSet,
    MbsModel,
    mbs_price_problem,
)
from .solver import DEFAULT_THETA, GridSpec, stable_step_count

__all__ = ["ExperimentConfig", "load_config", "mc_settings", "parse_family"]


def parse_family(spec):
    """Split 'name:a,b,key=val' into (name, positional list, keyword dict)."""
    spec = spec.strip()
    if ":" not in spec:
        return spec, [], {}
    name, _, rest = spec.partition(":")
    pos, kw = [], {}
    for token in rest.split(","):
        token = token.strip()
        if not token:
            continue
        if "=" in token:
            key, _, val = token.partition("=")
            kw[key.strip()] = float(val)
        else:
            pos.append(float(token))
    return name.strip(), pos, kw


def _parse_matrix(text):
    rows = [r for r in text.split(";") if r.strip()]
    return np.asarray([[float(v) for v in row.split()] for row in rows])


def _parse_interval(text):
    parts = [p.strip() for p in text.split(",")]
    if len(parts) != 2:
        raise ConfigurationError("interval needs two endpoints", text=text)
    def conv(p):
        if p in ("inf", "+inf"):
            return np.inf
        if p == "-inf":
            return -np.inf
        return float(p)
    return (conv(parts[0]), conv(parts[1]))


def _parse_vector(text, dim):
    vals = [float(v) for v in text.replace(",", " ").split()]
    if len(vals) == 1:
        vals = vals * dim
    if len(vals) != dim:
        raise ConfigurationError("vector length does not match dimension", text=text, dim=dim)
    return np.asarray(vals)


def build_scalar_field(spec, dim):
    name, pos, kw = parse_family(spec)
    if name == "zero":
        return fam.zero_field(dim), {"family": "zero"}
    if name == "constant":
        v = kw.get("value", pos[0] if pos else 0.0)
        return fam.constant_field(dim, v), {"family": "constant", "value": v}
    if name == "gaussian":
        params = {
            "amplitude": kw.get("amplitude", pos[0] if len(pos) > 0 else 1.0),
            "center": kw.get("center", pos[1] if len(pos) > 1 else 0.0),
            "width": kw.get("width", pos[2] if len(pos) > 2 else 1.0),
        }
        return fam.gaussian_bump_field(dim, **params), dict(params, family="gaussian")
    if name == "gaussian_bump":
        params = {
            "amplitude": kw.get("amplitude", pos[0] if len(pos) > 0 else 1.0),
            "center": kw.get("center", pos[1] if len(pos) > 1 else 0.0),
            "width": kw.get("width", pos[2] if len(pos) > 2 else 1.0),
            "ramp": kw.get("ramp", pos[3] if len(pos) > 3 else 3.0),
        }
        return fam.gaussian_bump_field(dim, **params), dict(params, family="gaussian_bump")
    if name == "affine":
        coeffs = kw.get("slope", pos[0] if pos else 1.0)
        intercept = kw.get("intercept", pos[1] if len(pos) > 1 else 0.0)
        return (
            fam.affine_field(dim, coeffs, intercept),
            {"family": "affine", "slope": coeffs, "intercept": intercept},
        )
    raise ConfigurationError("unknown scalar field family", family=name)


def build_rate(spec):
    name, pos, kw = parse_family(spec)
    if name == "constant":
        v = kw.get("value", pos[0] if pos else 0.0)
        return fam.constant_rate(v), {"family": "constant", "value": v}
    if name == "linear":
        slope = kw.get("slope", pos[0] if pos else 1.0)
        intercept = kw.get("intercept", pos[1] if len(pos) > 1 else 0.0)
        return (
            fam.linear_rate(slope, intercept),
            {"family": "linear", "slope": slope, "intercept": intercept},
        )
    if name == "piecewise":
        if not kw:
            raise ConfigurationError("piecewise rate needs break=value pairs")
        breaks = sorted(float(k) for k in kw)
        values = [kw[k] for k in sorted(kw, key=float)]
        return (
            fam.piecewise_rate(breaks, values),
            {"family": "piecewise", "breaks": breaks, "values": values},
        )
    raise ConfigurationError("unknown rate family", family=name)


def build_sigma(spec, dim):
    name = spec.partition(":")[0].strip()
    if name != "constant":
        raise ConfigurationError("only constant volatility families are built in", family=name)
    _, _, rest = spec.partition(":")
    matrix = _parse_matrix(rest) if rest else np.eye(dim)
    if matrix.shape[0] != dim:
        raise ConfigurationError("sigma rows must match dimension", shape=matrix.shape, dim=dim)
    return fam.constant_sigma(matrix), {"family": "constant", "matrix": matrix.tolist()}


def build_mu(spec, dim):
    name, pos, kw = parse_family(spec)
    if name == "zero":
        return fam.zero_drift(dim), {"family": "zero"}
    if name == "constant":
        vals = pos if pos else [kw.get("value", 0.0)]
        return fam.constant_drift(dim, vals), {"family": "constant", "values": list(vals)}
    if name == "linear":
        rate = kw.get("rate", pos[0] if pos else -1.0)
        return fam.linear_drift(dim, rate), {"family": "linear", "rate": rate}
    if name == "swirl":
        rate = kw.get("rate", pos[0] if pos else 1.0)
        return fam.swirl_drift(dim, rate), {"family": "swirl", "rate": rate}
    raise ConfigurationError("unknown drift family", family=name)


def build_ufunc(spec):
    name, pos, kw = parse_family(spec)
    if name == "zero":
        return fam.zero_ufunc(), {"family": "zero"}
    if name == "constant":
        v = kw.get("value", pos[0] if pos else 0.0)
        return fam.constant_ufunc(v), {"family": "constant", "value": v}
    if name == "reciprocal":
        s = kw.get("scale", pos[0] if pos else 1.0)
        return fam.reciprocal_ufunc(s), {"family": "reciprocal", "scale": s}
    raise ConfigurationError("unknown u-function family", family=name)


def mc_settings(raw, dim):
    """Resolve Monte Carlo settings from raw ``[mc]`` strings.

    ``raw`` is the ``[mc]`` section or any mapping with ``get(key, default)``;
    the defaults here are the only ones, so ``mc_settings({}, dim)`` gives
    the settings of a config without ``[mc]``.
    """
    return {
        "paths": int(raw.get("paths", "100000")),
        "steps": int(raw.get("steps", "500")),
        "seed": int(raw.get("seed", "0")),
        "mode": raw.get("mode", "both").strip(),
        "x0": _parse_vector(raw.get("x0", "0.0"), dim).tolist(),
        "price_time": float(raw.get("price_time", "0.0")),
        "chunk": int(raw.get("chunk", "50000")),
    }


@dataclass
class ExperimentConfig:
    """Resolved experiment: marching problem, model data, MC and diagnostics."""

    kind: str
    dim: int
    horizon: float
    problem: object
    u0: object
    grid: GridSpec
    theta: float
    collar: int
    sigma: object
    mu: object
    model: Optional[MbsModel] = None
    mc: dict = dataclass_field(default_factory=dict)
    diagnostics: dict = dataclass_field(default_factory=dict)
    transform: dict = dataclass_field(default_factory=dict)
    manifest: dict = dataclass_field(default_factory=dict)


def _require(parser, section, key, default=None):
    if parser.has_option(section, key):
        return parser.get(section, key)
    if default is not None:
        return default
    raise ConfigurationError("missing configuration key", section=section, key=key)


def load_config(path):
    if not os.path.exists(path):
        raise ConfigurationError("configuration file not found", path=path)
    parser = configparser.ConfigParser(inline_comment_prefixes=("#",))
    parser.read(path)
    if not parser.has_section("model"):
        raise ConfigurationError("configuration needs a [model] section", path=path)

    kind = _require(parser, "model", "kind", "mbs").strip()
    dim = int(_require(parser, "model", "dim", "1"))
    horizon = float(_require(parser, "model", "horizon", "1.0"))
    sigma, sigma_meta = build_sigma(_require(parser, "model", "sigma", "constant:1"), dim)
    mu, mu_meta = build_mu(_require(parser, "model", "mu", "zero"), dim)
    value_interval = _parse_interval(_require(parser, "model", "value_interval", "-1.0,2.0"))
    initial_spec = _require(parser, "model", "initial", "constant:0")
    initial_field, initial_meta = build_scalar_field(initial_spec, dim)

    manifest = {
        "model": {
            "kind": kind,
            "dim": dim,
            "horizon": horizon,
            "sigma": sigma_meta,
            "mu": mu_meta,
            "value_interval": list(value_interval),
            "initial": initial_meta,
        }
    }

    model = None
    if kind == "mbs":
        rho = float(_require(parser, "model", "rho", "0.5"))
        coupon = float(_require(parser, "model", "coupon_tau", "0.06"))
        rate, rate_meta = build_rate(_require(parser, "model", "rate", "constant:0.03"))
        principal_spec = _require(
            parser, "model", "principal", "gaussian_bump:amplitude=1,center=0,width=1,ramp=3"
        )
        principal, principal_meta = build_scalar_field(principal_spec, dim)
        model = MbsModel(
            rho=rho,
            coupon_tau=coupon,
            rate_r=rate,
            principal_h=principal,
            horizon=horizon,
            dim=dim,
        )
        problem = mbs_price_problem(model, sigma, mu, value_interval=value_interval)
        manifest["model"].update(
            {
                "rho": rho,
                "coupon_tau": coupon,
                "rate": rate_meta,
                "principal": principal_meta,
                "marched_variable": "U",
            }
        )
    elif kind == "general":
        lam, lam_meta = build_ufunc(_require(parser, "model", "lambda", "zero"))
        eta, eta_meta = build_ufunc(_require(parser, "model", "eta", "zero"))
        domain = _parse_interval(_require(parser, "model", "domain_interval", "-inf,inf"))
        d_noise = np.asarray(sigma(0.0)).shape[1]
        # every built-in general-kind family is frozen in time, so the time
        # moduli vanish and the sup norms are directly samplable
        u_probe = np.linspace(value_interval[0], value_interval[1], 601)
        norms = CoefficientNorms(
            lambda_sup=float(np.max(np.abs(lam(u_probe)))),
            eta_sup=float(np.max(np.abs(eta(u_probe)))),
            sigma_t_sup=float(np.linalg.norm(np.asarray(sigma(0.0)).T, 2)),
            w_sup=0.0,
            mod_f_t=0.0,
            mod_sigma_sq_t=0.0,
            mod_sigma_t_t=0.0,
            mod_w_t=0.0,
            mod_mu_t=0.0,
        )
        coeffs = CoefficientSet(
            sigma=sigma,
            mu=mu,
            w=lambda x, t: np.zeros(x.shape[:-1] + (d_noise,)),
            lambda_fn=lam,
            eta_fn=eta,
            f=lambda x, t, u: np.zeros_like(u),
            domain_interval=domain,
            value_interval=value_interval,
            dim=dim,
            noise_dim=d_noise,
            horizon=horizon,
            norms=norms,
            label="general",
        )
        problem = coeffs.as_problem()
        manifest["model"].update(
            {
                "lambda": lam_meta,
                "eta": eta_meta,
                "domain_interval": [float(domain[0]), float(domain[1])],
                "marched_variable": "u",
            }
        )
    else:
        raise ConfigurationError("unknown model kind", kind=kind)

    half_width = float(_require(parser, "grid", "half_width", "8.0"))
    nodes = int(_require(parser, "grid", "nodes", "401"))
    theta = float(_require(parser, "grid", "theta", str(DEFAULT_THETA)))
    if not 0.0 < theta <= DEFAULT_THETA:
        raise ConfigurationError(
            "stability safety factor must lie in (0, 0.45]", theta=theta
        )
    collar = int(_require(parser, "grid", "collar", "4"))
    steps_raw = _require(parser, "grid", "steps", "auto")
    if steps_raw.strip() == "auto":
        speed = GridSpec(dim, half_width, nodes, 1, horizon).drift_speed(problem)
        steps = stable_step_count(
            dim,
            half_width,
            nodes,
            horizon,
            problem.max_diffusion_norm(horizon),
            theta=theta,
            drift_speed=speed,
        )
    else:
        steps = int(steps_raw)
    grid = GridSpec(dim=dim, half_width=half_width, nodes=nodes, steps=steps, horizon=horizon)
    stability_ratio = grid.validate_stability(problem, theta=theta)

    def u0(mesh):
        return initial_field(mesh, 0.0)

    mc = mc_settings(parser["mc"], dim) if parser.has_section("mc") else {}

    cap_raw = _require(parser, "diagnostics", "offset_cap", "auto")
    diagnostics = {
        "regularity": parser.getboolean("diagnostics", "regularity", fallback=False),
        "offset_cap": None if cap_raw.strip() == "auto" else float(cap_raw),
    }

    tr = {}
    if parser.has_section("transform"):
        lam_spec = _require(parser, "transform", "lambda", "reciprocal:0.5")
        eta_spec = _require(parser, "transform", "eta", "reciprocal:-1.0")
        lam_fn, lam_meta = build_ufunc(lam_spec)
        eta_fn, eta_meta = build_ufunc(eta_spec)
        tr = {
            "mode": _require(parser, "transform", "mode", "semiconvex").strip(),
            "l": float(_require(parser, "transform", "l", "4")),
            "tau_max": float(_require(parser, "transform", "tau_max", "5.0")),
            "interval": _parse_interval(_require(parser, "transform", "interval", "1.0,2.0")),
            "lambda_fn": lam_fn,
            "eta_fn": eta_fn,
            "lambda_meta": lam_meta,
            "eta_meta": eta_meta,
        }

    manifest["grid"] = {
        "dim": dim,
        "half_width": half_width,
        "nodes": nodes,
        "steps": steps,
        "horizon": horizon,
        "dt": grid.dt,
        "dx": list(grid.dx),
        "theta": theta,
        "stability_ratio": stability_ratio,
        "collar": collar,
        "clamp_rel_tolerance": solver.CLAMP_REL_TOL,
    }
    if mc:
        manifest["mc"] = dict(mc, positivity_floor_rel=montecarlo.POSITIVITY_FLOOR_REL)
    if tr:
        manifest["transform"] = {
            "mode": tr["mode"],
            "l": tr["l"],
            "tau_max": tr["tau_max"],
            "interval": list(tr["interval"]),
            "lambda": tr["lambda_meta"],
            "eta": tr["eta_meta"],
            "rtol": transform.Q_RTOL,
        }
    manifest["diagnostics"] = {
        "regularity": diagnostics["regularity"],
        "offset_cap": diagnostics["offset_cap"] if diagnostics["offset_cap"] is not None else "auto",
        "collar": collar,
    }

    return ExperimentConfig(
        kind=kind,
        dim=dim,
        horizon=horizon,
        problem=problem,
        u0=u0,
        grid=grid,
        theta=theta,
        collar=collar,
        sigma=sigma,
        mu=mu,
        model=model,
        mc=mc,
        diagnostics=diagnostics,
        transform=tr,
        manifest=manifest,
    )
