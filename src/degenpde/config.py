"""Plain-text experiment configuration.

INI-style sections with coefficient families selected by name plus numeric
parameters, e.g. ``rate = constant:0.03`` or
``principal = gaussian_bump:amplitude=1,center=0,width=1,ramp=3``. Matrices
use semicolons between rows and spaces between entries
(``sigma = constant:0;1`` is the 2x1 column). Every key is read through one
checked reader that records the resolved value in the manifest; a section or
key that no reader resolves stops the load. The parse functions, family
builders included, refuse malformed text and values out of the range the
program can use with a ValueError, which the reader turns into the one
ConfigurationError naming the section, key and text. The grid stability
bound is enforced at load.
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
    price_positivity_bound,
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
        raise ValueError("an interval needs two endpoints lo,hi")
    lo, hi = (float(p) for p in parts)
    if not lo < hi:
        raise ValueError(f"the interval needs lo < hi, not {lo} >= {hi}")
    return lo, hi


def _parse_vector(text, dim):
    vals = [float(v) for v in text.replace(",", " ").split()]
    if len(vals) == 1:
        vals = vals * dim
    if len(vals) != dim:
        raise ValueError(f"{len(vals)} entries; give one per dimension ({dim}) or one for all")
    return vals


def _parse_bool(text):
    states = configparser.ConfigParser.BOOLEAN_STATES
    if text.lower() not in states:
        raise ValueError(f"not a boolean: {text!r}")
    return states[text.lower()]


def _checked(parse, ok, rule):
    """``parse``, refusing a parsed value for which ``ok`` is false; ``rule``
    says in words which values pass."""

    def checked(text):
        value = parse(text)
        if not ok(value):
            raise ValueError(f"{value!r} is not {rule}")
        return value

    return checked


def _or_auto(parse):
    return lambda text: "auto" if text == "auto" else parse(text)


def _sigma(spec, dim):
    name, _, rest = spec.partition(":")
    if name.strip() != "constant":
        raise ValueError(f"unknown volatility family {name.strip()!r}; only constant is built in")
    rows = [r for r in rest.split(";") if r.strip()]
    matrix = np.asarray([[float(v) for v in row.split()] for row in rows]) if rest else np.eye(dim)
    if matrix.ndim != 2 or matrix.shape[0] != dim or matrix.shape[1] > dim:
        raise ValueError(f"sigma must be {dim} x d with 1 <= d <= {dim}, not of shape {matrix.shape}")
    return fam.constant_sigma(matrix), {"family": "constant", "matrix": matrix.tolist()}


def _piecewise_rate(pos, kw, dim):
    if pos or not kw:
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
        raise ValueError(f"unknown {noun} family {name!r}")
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


def _floats(value):
    """Every float in a parsed value, inside lists, tuples and dict values too."""
    if isinstance(value, dict):
        value = list(value.values())
    if isinstance(value, (list, tuple)):
        return [f for v in value for f in _floats(v)]
    return [value] if isinstance(value, float) else []


class _Reader:
    """Reads ``[section] key`` values and records each in ``manifest``.

    ``sections`` maps a section name to a mapping with ``get(key, default)``;
    an absent section reads as an empty one.
    """

    def __init__(self, sections):
        self.sections = sections
        self.manifest = {}
        self.resolved = set()

    def __call__(self, section, key, default, parse):
        """The parsed text of ``[section] key``, or of ``default`` when the key
        is absent; with ``default`` None the key is required.

        A ValueError from ``parse`` becomes a ConfigurationError naming the
        section, key and text, and so does a NaN anywhere in the value, or an
        infinity outside ``[model] domain_interval``. A family parse gives
        ``(fn, params)``: the params are recorded and fn returned.
        """
        self.resolved.add((section, key))
        text = self.sections[section].get(key, default) if section in self.sections else default
        if text is None:
            raise ConfigurationError("missing configuration key", section=section, key=key)
        try:
            value = record = parse(text.strip())
            if isinstance(value, tuple) and callable(value[0]):
                value, record = value
            for v in _floats(record):
                if np.isnan(v) or (np.isinf(v) and (section, key) != ("model", "domain_interval")):
                    raise ValueError(f"{v} is not a finite number")
        except ValueError as exc:
            raise ConfigurationError(
                f"cannot read [{section}] {key}: {exc}", section=section, key=key, text=text
            ) from None
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
    the settings of a config without ``[mc]``. Without a horizon,
    ``price_time`` needs only to be at least 0.
    """
    return _read_mc(_Reader({"mc": raw}), dim, np.inf)


def _read_mc(read, dim, horizon):
    # two paths give a standard error, one step a path
    read("mc", "paths", "100000", _checked(int, lambda n: n >= 2, "at least 2"))
    read("mc", "steps", "500", _checked(int, lambda n: n >= 1, "at least 1"))
    read("mc", "seed", "0", _checked(int, lambda n: n >= 0, "at least 0"))
    read("mc", "mode", "both", _checked(str, ("q", "pw", "both").__contains__, "q, pw or both"))
    read("mc", "x0", "0.0", lambda text: _parse_vector(text, dim))
    read("mc", "price_time", "0.0", _checked(float, lambda t: 0.0 <= t <= horizon, f"in [0, {horizon}]"))
    read("mc", "chunk", "50000", _checked(int, lambda n: n >= 1, "at least 1"))
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
    positive = _checked(float, lambda v: v > 0.0, "positive")
    kind = read("model", "kind", "mbs", _checked(str, ("mbs", "general").__contains__, "mbs or general"))
    dim = read("model", "dim", "1", _checked(int, (1, 2, 3).__contains__, "1, 2 or 3"))
    scalar_field = lambda text: resolve_family("field", text, dim)
    ufunc = lambda text: resolve_family("ufunc", text)
    horizon = read("model", "horizon", "1.0", positive)
    sigma = read("model", "sigma", "constant:1", lambda text: _sigma(text, dim))
    mu = read("model", "mu", "zero", lambda text: resolve_family("drift", text, dim))
    # an mbs model has no default: -1 + xi(0) = 0 puts U + h + xi at zero
    value_interval = read("model", "value_interval", None if kind == "mbs" else "-1.0,2.0", _parse_interval)
    initial_field = read("model", "initial", "constant:0", scalar_field)

    model = None
    if kind == "mbs":
        model = MbsModel(
            rho=read("model", "rho", "0.5", _checked(float, lambda v: 0.0 < v < 1.0, "in (0, 1)")),
            coupon_tau=read("model", "coupon_tau", "0.06", positive),
            rate_r=read("model", "rate", "constant:0.03", lambda text: resolve_family("rate", text)),
            principal_h=read("model", "principal", "gaussian_bump:amplitude=1,center=0,width=1,ramp=3", scalar_field),
            horizon=horizon,
            dim=dim,
        )
        problem = mbs_price_problem(model, sigma, mu, value_interval)
        read.manifest["model"]["marched_variable"] = "U"
    else:
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

    half_width = read("grid", "half_width", "8.0", positive)
    nodes = read("grid", "nodes", "401", _checked(int, lambda n: n >= 5 and n % 2 == 1, "odd and at least 5"))
    safety = _checked(float, lambda v: 0.0 < v <= DEFAULT_THETA, f"in (0, {DEFAULT_THETA}]")
    theta = read("grid", "theta", str(DEFAULT_THETA), safety)
    # the Lipschitz meter needs two nodes inside the collar on each axis
    most = (nodes - 2) // 2
    collar = read("grid", "collar", "4", _checked(int, lambda c: 0 <= c <= most, f"in [0, {most}]"))
    steps = read("grid", "steps", "auto", _or_auto(_checked(int, lambda n: n >= 1, "at least 1")))
    grid, ratio = GridSpec.stable(problem, dim, half_width, nodes, horizon, steps, theta)
    if model is not None:
        price_positivity_bound(model, value_interval, grid.mesh())
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
        mc = dict(_read_mc(read, dim, horizon))
        read.manifest["mc"]["positivity_floor_rel"] = montecarlo.POSITIVITY_FLOOR_REL

    cap = read("diagnostics", "offset_cap", "auto", _or_auto(positive))
    diagnostics = {
        "regularity": read("diagnostics", "regularity", "false", _parse_bool),
        "offset_cap": None if cap == "auto" else cap,
    }
    read.manifest["diagnostics"]["collar"] = collar

    tr = {}
    if parser.has_section("transform"):
        modes = ("semiconvex", "semiconcave")
        mode = read("transform", "mode", "semiconvex", _checked(str, modes.__contains__, "semiconvex or semiconcave"))
        # the semiconcave g(tau) = -2 (tau + 1)^(l + 1) / (l + 1) needs l > 3
        above_3 = _checked(float, lambda l: mode != "semiconcave" or l > 3.0, "above 3 in semiconcave mode")
        tr = {
            "mode": mode,
            "l": read("transform", "l", "4", above_3),
            "tau_max": read("transform", "tau_max", "5.0", positive),
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
