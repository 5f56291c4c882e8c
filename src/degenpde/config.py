"""Plain-text experiment configuration.

INI-style sections with coefficient families selected by name plus numeric
parameters, e.g. ``rate = constant:0.03`` or
``principal = gaussian_bump:amplitude=1,center=0,width=1,ramp=3``. Matrices
use semicolons between rows and spaces between entries
(``sigma = constant:0;1`` is the 2x1 column). Every key is read through one
checked reader that records the resolved value in the manifest; a section or
key that no reader resolves stops the load. The grid stability bound is
enforced at load.
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
    mbs_to_general,
)
from .solver import DEFAULT_THETA, GridSpec

__all__ = ["FAMILIES", "ExperimentConfig", "load_config", "mc_settings", "parse_family", "resolve_family"]


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
            if key.strip() in kw:
                raise ValueError(f"{key.strip()} given twice")
            kw[key.strip()] = float(val)
        else:
            pos.append(float(token))
    return name.strip(), pos, kw


def _parse_interval(text):
    parts = text.split(",")
    if len(parts) != 2:
        raise ConfigurationError("interval needs two endpoints", text=text)
    return tuple(float(p) for p in parts)


def _parse_vector(text, dim):
    vals = [float(v) for v in text.replace(",", " ").split()]
    if len(vals) == 1:
        vals = vals * dim
    if len(vals) != dim:
        raise ConfigurationError("vector length does not match dimension", text=text, dim=dim)
    return vals


def _parse_bool(text):
    states = configparser.ConfigParser.BOOLEAN_STATES
    if text.lower() not in states:
        raise ValueError(f"not a boolean: {text!r}")
    return states[text.lower()]


def _at_least(low):
    def parse(text):
        value = int(text)
        if value < low:
            raise ValueError(f"{value} is below {low}")
        return value

    return parse


def _or_auto(parse):
    return lambda text: "auto" if text == "auto" else parse(text)


def _sigma(spec, dim):
    name, _, rest = spec.partition(":")
    if name.strip() != "constant":
        raise ConfigurationError("only constant volatility families are built in", family=name.strip())
    rows = [r for r in rest.split(";") if r.strip()]
    matrix = np.asarray([[float(v) for v in row.split()] for row in rows]) if rest else np.eye(dim)
    if matrix.shape[0] != dim:
        raise ConfigurationError("sigma rows must match dimension", shape=matrix.shape, dim=dim)
    return fam.constant_sigma(matrix), {"family": "constant", "matrix": matrix.tolist()}


def _piecewise_rate(pos, kw, dim):
    if not kw:
        raise ConfigurationError("piecewise rate needs break=value pairs")
    if pos:
        raise ValueError("piecewise takes only break=value pairs")
    breaks = sorted(float(k) for k in kw)
    values = [kw[k] for k in sorted(kw, key=float)]
    return fam.piecewise_rate(breaks, values), {"family": "piecewise", "breaks": breaks, "values": values}


def _constant_drift(pos, kw, dim):
    if set(kw) - {"value"} or (pos and kw):
        raise ValueError("constant drift takes its components or value=")
    values = pos if pos else [kw.get("value", 0.0)]
    return fam.constant_drift(dim, values), {"family": "constant", "values": list(values)}


# slot -> (what the slot holds, {name: (builder, ((parameter, default), ...))}).
# Positional values fill the parameters in order. A builder without
# parameter pairs reads the positional and keyword values itself.
FAMILIES = {
    "field": ("scalar field", {
        "zero": (fam.zero_field, ()),
        "constant": (fam.constant_field, (("value", 0.0),)),
        "gaussian": (fam.gaussian_bump_field, (("amplitude", 1.0), ("center", 0.0), ("width", 1.0))),
        "gaussian_bump": (
            fam.gaussian_bump_field,
            (("amplitude", 1.0), ("center", 0.0), ("width", 1.0), ("ramp", 3.0)),
        ),
        "affine": (fam.affine_field, (("slope", 1.0), ("intercept", 0.0))),
    }),
    "rate": ("rate", {
        "constant": (fam.constant_rate, (("value", 0.0),)),
        "linear": (fam.linear_rate, (("slope", 1.0), ("intercept", 0.0))),
        "piecewise": (_piecewise_rate, None),
    }),
    "drift": ("drift", {
        "zero": (fam.zero_drift, ()),
        "constant": (_constant_drift, None),
        "linear": (fam.linear_drift, (("rate", -1.0),)),
        "swirl": (fam.swirl_drift, (("rate", 1.0),)),
    }),
    "ufunc": ("u-function", {
        "zero": (fam.zero_ufunc, ()),
        "constant": (fam.constant_ufunc, (("value", 0.0),)),
        "reciprocal": (fam.reciprocal_ufunc, (("scale", 1.0),)),
    }),
}


def resolve_family(slot, spec, dim=None):
    """``(fn, {"family": name, **params})`` for ``name:a,b,key=v`` in ``slot``.

    Unset parameters take the table's defaults. Builders of the space slots
    (``field``, ``drift``) take ``dim`` first; the others are given none.
    """
    name, pos, kw = parse_family(spec)
    noun, table = FAMILIES[slot]
    if name not in table:
        raise ConfigurationError(f"unknown {noun} family", family=name)
    builder, defaults = table[name]
    if defaults is None:
        return builder(pos, kw, dim)
    names = [p for p, _ in defaults]
    signature = f"{name}({', '.join(names)})"
    if len(pos) > len(names):
        raise ValueError(f"{len(pos)} values for {signature}")
    for key in kw:
        if key not in names[len(pos):]:
            raise ValueError(f"{key} given twice to {signature}" if key in names else f"no {key} in {signature}")
    params = dict(defaults)
    params.update(zip(names, pos))
    params.update(kw)
    fn = builder(*(() if dim is None else (dim,)), *params.values())
    return fn, {"family": name, **params}


class _Reader:
    """Reads ``[section] key`` values and records each in ``manifest``.

    ``sections`` maps a section name to a mapping with ``get(key, default)``;
    an absent section reads as an empty one.
    """

    def __init__(self, sections):
        self.sections = sections
        self.manifest = {}
        self.resolved = set()

    def __call__(self, section, key, default, parse=float):
        """The parsed text of ``[section] key``, or of ``default`` when the key
        is absent; with ``default`` None the key is required.

        A ValueError from ``parse`` becomes a ConfigurationError naming the
        section, key and text. A family parse gives ``(fn, params)``: the
        params are recorded and fn returned.
        """
        self.resolved.add((section, key))
        text = self.sections[section].get(key, default) if section in self.sections else default
        if text is None:
            raise ConfigurationError("missing configuration key", section=section, key=key)
        try:
            value = parse(text.strip())
        except ValueError as exc:
            raise ConfigurationError(
                f"cannot read [{section}] {key}: {exc}", section=section, key=key, text=text
            ) from None
        record = value
        if isinstance(value, tuple) and callable(value[0]):
            value, record = value
        self.manifest.setdefault(section, {})[key] = record
        return value

    def reject_unresolved(self):
        """A ConfigurationError for the first section or key never resolved."""
        for section, keys in self.sections.items():
            if section == configparser.DEFAULTSECT and not keys:
                continue
            if not any(s == section for s, _ in self.resolved):
                raise ConfigurationError("unknown configuration section", section=section)
            for key in keys:
                if (section, key) not in self.resolved:
                    raise ConfigurationError("unknown configuration key", section=section, key=key)


def mc_settings(raw, dim):
    """Resolve Monte Carlo settings from raw ``[mc]`` strings.

    ``raw`` is the ``[mc]`` section or any mapping with ``get(key, default)``;
    the defaults here are the only ones, so ``mc_settings({}, dim)`` gives
    the settings of a config without ``[mc]``.
    """
    return _read_mc(_Reader({"mc": raw}), dim)


def _read_mc(read, dim):
    # two paths give a standard error, one step a path
    read("mc", "paths", "100000", _at_least(2))
    read("mc", "steps", "500", _at_least(1))
    read("mc", "seed", "0", int)
    read("mc", "mode", "both", str)
    read("mc", "x0", "0.0", lambda text: _parse_vector(text, dim))
    read("mc", "price_time", "0.0")
    read("mc", "chunk", "50000", _at_least(1))
    return read.manifest["mc"]


@dataclass
class ExperimentConfig:
    """Resolved experiment: marching problem, model data, MC and diagnostics."""

    kind: str
    dim: int
    horizon: float
    problem: object
    u0: object
    grid: GridSpec
    collar: int
    sigma: object
    mu: object
    model: Optional[MbsModel] = None
    mc: dict = dataclass_field(default_factory=dict)
    diagnostics: dict = dataclass_field(default_factory=dict)
    transform: dict = dataclass_field(default_factory=dict)
    manifest: dict = dataclass_field(default_factory=dict)


def load_config(path):
    if not os.path.exists(path):
        raise ConfigurationError("configuration file not found", path=path)
    parser = configparser.ConfigParser(inline_comment_prefixes=("#",))
    parser.read(path)
    if not parser.has_section("model"):
        raise ConfigurationError("configuration needs a [model] section", path=path)
    read = _Reader(parser)
    kind = read("model", "kind", "mbs", str)
    dim = read("model", "dim", "1", int)
    scalar_field = lambda text: resolve_family("field", text, dim)
    ufunc = lambda text: resolve_family("ufunc", text)
    horizon = read("model", "horizon", "1.0")
    sigma = read("model", "sigma", "constant:1", lambda text: _sigma(text, dim))
    mu = read("model", "mu", "zero", lambda text: resolve_family("drift", text, dim))
    # an mbs model has no default: -1 + xi(0) = 0 puts U + h + xi at zero
    value_interval = read("model", "value_interval", None if kind == "mbs" else "-1.0,2.0", _parse_interval)
    initial_field = read("model", "initial", "constant:0", scalar_field)

    model = None
    if kind == "mbs":
        model = MbsModel(
            rho=read("model", "rho", "0.5"),
            coupon_tau=read("model", "coupon_tau", "0.06"),
            rate_r=read("model", "rate", "constant:0.03", lambda text: resolve_family("rate", text)),
            principal_h=read("model", "principal", "gaussian_bump:amplitude=1,center=0,width=1,ramp=3", scalar_field),
            horizon=horizon,
            dim=dim,
        )
        problem = mbs_price_problem(model, sigma, mu, value_interval)
        read.manifest["model"]["marched_variable"] = "U"
    elif kind == "general":
        lam = read("model", "lambda", "zero", ufunc)
        eta = read("model", "eta", "zero", ufunc)
        domain = read("model", "domain_interval", "-inf,inf", _parse_interval)
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
        read.manifest["model"]["marched_variable"] = "u"
    else:
        raise ConfigurationError("unknown model kind", kind=kind)

    half_width = read("grid", "half_width", "8.0")
    nodes = read("grid", "nodes", "401", int)
    theta = read("grid", "theta", str(DEFAULT_THETA))
    if not 0.0 < theta <= DEFAULT_THETA:
        raise ConfigurationError(
            "stability safety factor must lie in (0, 0.45]", theta=theta
        )
    collar = read("grid", "collar", "4", int)
    steps = read("grid", "steps", "auto", _or_auto(int))
    grid, ratio = GridSpec.stable(problem, dim, half_width, nodes, horizon, steps, theta)
    read.manifest["grid"].update(
        dim=dim,
        horizon=horizon,
        steps=grid.steps,
        dt=grid.dt,
        dx=list(grid.dx),
        stability_ratio=ratio,
        clamp_rel_tolerance=solver.CLAMP_REL_TOL,
    )

    def u0(mesh):
        return initial_field(mesh, 0.0)

    mc = {}
    if parser.has_section("mc"):
        mc = dict(_read_mc(read, dim))
        read.manifest["mc"]["positivity_floor_rel"] = montecarlo.POSITIVITY_FLOOR_REL

    cap = read("diagnostics", "offset_cap", "auto", _or_auto(float))
    diagnostics = {
        "regularity": read("diagnostics", "regularity", "false", _parse_bool),
        "offset_cap": None if cap == "auto" else cap,
    }
    read.manifest["diagnostics"]["collar"] = collar

    tr = {}
    if parser.has_section("transform"):
        tr = {
            "mode": read("transform", "mode", "semiconvex", str),
            "l": read("transform", "l", "4"),
            "tau_max": read("transform", "tau_max", "5.0"),
            "interval": read("transform", "interval", "1.0,2.0", _parse_interval),
        }
        if model is None:
            tr["lambda_fn"] = read("transform", "lambda", "reciprocal:0.5", ufunc)
            tr["eta_fn"] = read("transform", "eta", "reciprocal:-1.0", ufunc)
        else:
            # the reduction u = U + h + xi states lambda and eta from rho
            reduced = mbs_to_general(model, sigma, mu, tr["interval"])
            tr["lambda_fn"], tr["eta_fn"] = reduced.lambda_fn, reduced.eta_fn
            read.manifest["transform"].update({"lambda": reduced.lambda_fn.spec, "eta": reduced.eta_fn.spec})
        read.manifest["transform"]["rtol"] = transform.Q_RTOL
    read.reject_unresolved()

    return ExperimentConfig(
        kind=kind,
        dim=dim,
        horizon=horizon,
        problem=problem,
        u0=u0,
        grid=grid,
        collar=collar,
        sigma=sigma,
        mu=mu,
        model=model,
        mc=mc,
        diagnostics=diagnostics,
        transform=tr,
        manifest=read.manifest,
    )
