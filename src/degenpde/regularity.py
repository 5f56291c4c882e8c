"""Measured regularity diagnostics on solution fields.

Everything here reads a computed field, either stored or one slice at a time
as the solver marches it (the ``*Meter`` classes): one-sided
second-difference constants per time slice, their exponential-in-time upper
envelope, spatial and temporal Lipschitz constants, the initial-layer slope
bound assembled from the Hamiltonian, and the time-growth constants built
from coefficient norms. Boundary collars are excluded everywhere.
"""

from dataclasses import dataclass, field as dataclass_field
import math

import numpy as np

from .errors import ConfigurationError, ContractViolationError

__all__ = [
    "second_difference_constants",
    "EnvelopeFit",
    "minimize_bounded",
    "envelope_fit",
    "LipschitzReport",
    "LipschitzMeter",
    "lipschitz_estimates",
    "BoundConstants",
    "initial_slope_bound",
    "time_growth_constants",
    "bound_constants",
    "DeviationReport",
    "DeviationMeter",
    "initial_deviation_check",
    "field_sup_norms",
    "solution_sobolev_norms",
    "RegularityMeter",
]


def _offset_vectors(grid, max_offset):
    """Integer offset vectors: per-axis multiples plus pairwise diagonals."""
    dim = grid.dim
    dx = grid.dx
    offsets = []
    caps = []
    for i in range(dim):
        cap = max(1, int(np.floor(max_offset / dx[i])))
        cap = min(cap, (grid.shape[i] - 1) // 2 - 1)
        caps.append(max(cap, 1))
    for i in range(dim):
        for m in range(1, caps[i] + 1):
            o = np.zeros(dim, dtype=int)
            o[i] = m
            offsets.append(o)
    for i in range(dim):
        for j in range(i + 1, dim):
            for m in range(1, min(caps[i], caps[j]) + 1):
                for sj in (1, -1):
                    o = np.zeros(dim, dtype=int)
                    o[i] = m
                    o[j] = sj * m
                    offsets.append(o)
    return offsets


def _offset_plan(grid, max_offset, collar):
    """Index boxes of u[c + o], u[c - o], u[c] and h^2 = |o dx|^2 per offset o.

    c runs over the nodes at least max(collar, |o_i|) from each face, and
    offsets whose box is empty are left out.
    """
    if max_offset is None:
        max_offset = min(grid.half_width) / 4.0
    plan = []
    for o in _offset_vectors(grid, max_offset):
        margins = [max(collar, abs(int(oi))) for oi in o]
        if any(n - m <= m for n, m in zip(grid.shape, margins)):
            continue

        def box(sign):
            return tuple(slice(m + sign * oi, n - m + sign * oi) for oi, n, m in zip(o, grid.shape, margins))

        h2 = float(sum((o[i] * grid.dx[i]) ** 2 for i in range(grid.dim)))
        plan.append((box(1), box(-1), box(0), h2))
    return plan


def second_difference_constants(field, t_index, max_offset=None, collar=4):
    """One-sided second-difference constants (L_minus, L_plus) of a slice.

    L_minus bounds convexity defect: the largest negative centered second
    difference quotient, clipped at zero; L_plus is the symmetric concave
    bound. Offsets run over grid multiples up to ``max_offset`` (default a
    quarter of the smallest half-width) along each axis, plus diagonal pairs.
    """
    return _second_differences(field.values[t_index], _offset_plan(field.grid, max_offset, collar))


def _second_differences(u, plan):
    """``second_difference_constants`` of the slice ``u`` over an ``_offset_plan``.

    Each offset's differences u[+o] + u[-o] - 2u[c] are divided by h^2 only
    at their min and max: rounding x / h^2 is monotone for h^2 > 0, so those
    are the extreme quotients, bit for bit.
    """
    two_u = 2.0 * u
    worst_min = 0.0
    worst_max = 0.0
    for plus, minus, center, h2 in plan:
        diff = u[plus] + u[minus] - two_u[center]
        worst_min = min(worst_min, float(diff.min()) / h2)
        worst_max = max(worst_max, float(diff.max()) / h2)
    return max(0.0, -worst_min), max(0.0, worst_max)


@dataclass
class EnvelopeFit:
    """Exponential-in-time upper envelope amplitude * exp(rate * t) + offset."""

    amplitude: float
    rate: float
    offset: float
    max_slack: float = 0.0

    def value(self, t):
        return self.amplitude * np.exp(self.rate * np.asarray(t, dtype=float)) + self.offset


def _linear_fit_at_rate(rate, times, series):
    basis = np.stack([np.exp(rate * times), np.ones_like(times)], axis=1)
    coef, *_ = np.linalg.lstsq(basis, series, rcond=None)
    m0, c0 = float(coef[0]), float(coef[1])
    if m0 < 0.0:
        m0 = 0.0
        c0 = float(np.mean(series))
    if c0 < 0.0:
        c0 = 0.0
        denom = float(basis[:, 0] @ basis[:, 0])
        m0 = max(0.0, float(basis[:, 0] @ series) / denom)
    resid = series - (m0 * basis[:, 0] + c0)
    return m0, c0, float(resid @ resid)


_SQRT_EPS = math.sqrt(2.2e-16)
_GOLDEN = 0.5 * (3.0 - math.sqrt(5.0))
_MAXITER = 500  # scipy's default for the bounded method


def minimize_bounded(func, lo, hi, xatol):
    """Minimizer of a scalar function on [lo, hi] by Brent's bounded method.

    Golden-section steps with parabolic interpolation (Brent, *Algorithms for
    Minimization without Derivatives*, 1973, ch. 5), written step for step as
    ``scipy.optimize.minimize_scalar(method="bounded")`` runs it, so both
    evaluate ``func`` at the same points and return the same minimizer.
    """
    a, b = lo, hi
    fulc = a + _GOLDEN * (b - a)
    nfc = xf = fulc
    rat = e = 0.0
    fx = func(xf)
    num = 1
    ffulc = fnfc = fx
    xm = 0.5 * (a + b)
    tol1 = _SQRT_EPS * abs(xf) + xatol / 3.0
    tol2 = 2.0 * tol1
    while abs(xf - xm) > tol2 - 0.5 * (b - a):
        golden = True
        if abs(e) > tol1:
            # parabola through the three best points
            r = (xf - nfc) * (fx - ffulc)
            q = (xf - fulc) * (fx - fnfc)
            p = (xf - fulc) * q - (xf - nfc) * r
            q = 2.0 * (q - r)
            if q > 0.0:
                p = -p
            q = abs(q)
            r = e
            e = rat
            if abs(p) < abs(0.5 * q * r) and q * (a - xf) < p < q * (b - xf):
                golden = False
                rat = (p + 0.0) / q
                x = xf + rat
                if x - a < tol2 or b - x < tol2:
                    rat = tol1 if xm >= xf else -tol1
        if golden:
            e = (a if xf >= xm else b) - xf
            rat = _GOLDEN * e
        x = xf + (-1.0 if rat < 0.0 else 1.0) * max(abs(rat), tol1)
        fu = func(x)
        num += 1
        if fu <= fx:
            if x >= xf:
                a = xf
            else:
                b = xf
            fulc, ffulc = nfc, fnfc
            nfc, fnfc = xf, fx
            xf, fx = x, fu
        else:
            if x < xf:
                a = x
            else:
                b = x
            if fu <= fnfc or nfc == xf:
                fulc, ffulc = nfc, fnfc
                nfc, fnfc = x, fu
            elif fu <= ffulc or fulc == xf or fulc == nfc:
                fulc, ffulc = x, fu
        xm = 0.5 * (a + b)
        tol1 = _SQRT_EPS * abs(xf) + xatol / 3.0
        tol2 = 2.0 * tol1
        if num >= _MAXITER:
            break
    return xf


def envelope_fit(series, times):
    """Fit amplitude * exp(rate t) + offset as an upper envelope of the series.

    The rate is profiled by scalar minimization of the least-squares error
    (the amplitude and offset are linear at fixed rate), then the offset is
    shifted upward so the envelope dominates every sample. A constant fit is
    preferred whenever it explains the series equally well.
    """
    series = np.asarray(series, dtype=float)
    times = np.asarray(times, dtype=float)
    if series.shape != times.shape or series.size < 4:
        raise ContractViolationError("envelope fit needs at least 4 aligned samples")
    if np.all(series == 0.0):
        return EnvelopeFit(0.0, 0.0, 0.0, 0.0)
    t_span = max(float(times.max() - times.min()), 1e-12)
    rates = np.concatenate([[1e-3 / t_span], np.geomspace(1e-2, 60.0, 121) / t_span])
    best = None
    for rate in rates:
        m0, c0, sse = _linear_fit_at_rate(rate, times, series)
        if best is None or sse < best[3]:
            best = (rate, m0, c0, sse)
    lo = best[0] / 3.0
    hi = min(best[0] * 3.0, 200.0 / t_span)
    rate = float(
        minimize_bounded(lambda r: _linear_fit_at_rate(r, times, series)[2], lo, hi, xatol=1e-10 / t_span)
    )
    m0, c0, sse = _linear_fit_at_rate(rate, times, series)

    const_c0 = float(series.max())
    const_sse = float(np.sum((series - np.mean(series)) ** 2))
    if const_sse <= sse * (1.0 + 1e-9) + 1e-30:
        m0, rate, c0, sse = 0.0, 0.0, float(np.mean(series)), const_sse

    envelope = m0 * np.exp(rate * times) + c0
    shift = float(max(0.0, np.max(series - envelope)))
    c0 += shift
    envelope += shift
    slack = envelope - series
    return EnvelopeFit(m0, rate, c0, float(slack.max()))


@dataclass
class LipschitzReport:
    lip_x: np.ndarray = dataclass_field(repr=False)
    lip_t: float = 0.0


class LipschitzMeter:
    """Adjacent-node difference quotients: spatial per slice, temporal overall.

    Slices arrive in order through ``take``; the meter holds the previous
    slice's collar box for the time quotient.
    """

    def __init__(self, grid, collar=4):
        for n in grid.shape:
            if n - 2 * collar < 2:
                raise ContractViolationError("collar leaves too few nodes", collar=collar)
        self.grid = grid
        self._box = _collar_box(grid.shape, collar)
        self._lip_x = np.zeros(grid.steps + 1)
        # max |u_k - u_(k-1)| / dt per step; dividing by dt > 0 keeps the
        # order, so the overall max equals that of the quotients
        self._lip_t = np.empty(grid.steps)
        self._prev = None

    def take(self, k, u, h=None):
        grid = self.grid
        u = u[self._box]
        worst = 0.0
        for i in range(grid.dim):
            d = np.abs(np.diff(u, axis=i)) / grid.dx[i]
            if d.size:
                worst = max(worst, float(d.max()))
        self._lip_x[k] = worst
        if k:
            self._lip_t[k - 1] = np.max(np.abs(u - self._prev)) / grid.dt
        self._prev = u

    def report(self):
        return LipschitzReport(lip_x=self._lip_x, lip_t=float(self._lip_t.max()))


def lipschitz_estimates(field, collar=4):
    """``LipschitzMeter``'s report of a stored field."""
    meter = LipschitzMeter(field.grid, collar)
    for k, u in enumerate(field.values):
        meter.take(k, u)
    return meter.report()


@dataclass
class BoundConstants:
    """Initial-layer slope bound and the time-growth pair (b1, b2).

    alpha(t) = (exp(b1 t) - 1)/b1 * (c0 b1 + b2), with the b1 -> 0 limit
    alpha(t) = b2 t.
    """

    c0_init: float
    b1: float
    b2: float

    def alpha(self, t):
        t = np.asarray(t, dtype=float)
        if abs(self.b1) < 1e-12:
            out = t * (self.c0_init * self.b1 + self.b2)
        else:
            out = (np.expm1(self.b1 * t) / self.b1) * (self.c0_init * self.b1 + self.b2)
        return float(out) if out.ndim == 0 else out


def _p_candidates(problem, x_lat, t, p_cap, n_random, rng):
    """Gradient candidates stacked as (candidates, lattice points, N)."""
    dim = problem.dim
    cands = [np.zeros(dim)]
    if p_cap > 0.0:
        for i in range(dim):
            e = np.zeros(dim)
            e[i] = p_cap
            cands.extend([e, -e])
        sig = np.asarray(problem.sigma(t), dtype=float)
        _, _, vt = np.linalg.svd(sig.T)
        top = vt[0]
        cands.extend([p_cap * top, -p_cap * top])
        for _ in range(n_random):
            v = rng.standard_normal(dim)
            v /= np.linalg.norm(v)
            cands.append(p_cap * v)
        # per-point alignments with the drift and with sigma w
        mu_val = np.asarray(problem.drift(x_lat, t), dtype=float)
        sw_val = np.asarray(problem.w(x_lat, t), dtype=float) @ sig.T
        for vec in (mu_val, sw_val):
            norms = np.linalg.norm(vec, axis=-1, keepdims=True)
            aligned = p_cap * vec / np.where(norms > 1e-300, norms, 1.0)
            cands.extend([aligned, -aligned])
    return np.stack([np.broadcast_to(c, x_lat.shape) for c in cands])


# Probe set of ``initial_slope_bound``: times on [0, T), values on the value
# interval, and seeded random gradient directions.
_SLOPE_TIMES = 9
_SLOPE_VALUES = 9
_SLOPE_RANDOM_DIRS = 16
_SLOPE_SEED = 7


def initial_slope_bound(problem, axes, horizon, p_cap, hess_cap):
    """Sampled sup of |H| over the probe lattice with capped gradient data.

    The lattice keeps every stride-th node, about 40 cells per axis. The
    gradient candidates sit on the cap sphere (axis directions, the top
    singular direction of sigma, seeded random directions, and per-point
    alignments with the drift and the sigma w field); the Hessian candidates
    are 0 and +/- cap * identity, where the trace term is extremal. H is
    evaluated at X = 0 and the trace caps are added afterwards.
    """
    dim = problem.dim
    lattice_stride = max(1, (len(axes[0]) - 1) // 40)
    lat_axes = [ax[::lattice_stride] for ax in axes]
    mesh = np.stack(np.meshgrid(*lat_axes, indexing="ij"), axis=-1)
    x_lat = mesh.reshape(-1, dim)
    lo, hi = problem.value_interval
    u_samples = np.linspace(lo, hi, _SLOPE_VALUES)
    times = np.linspace(0.0, horizon * (1.0 - 1e-9), _SLOPE_TIMES)
    rng = np.random.default_rng(_SLOPE_SEED)
    zero_hess = np.zeros((dim, dim))

    worst = 0.0
    for t in times:
        trace_caps = [0.0]
        if hess_cap > 0.0:
            tr = float(np.trace(problem.sigma_sq(t)))
            trace_caps.extend([-0.5 * hess_cap * tr, 0.5 * hess_cap * tr])
        cands = _p_candidates(problem, x_lat, t, p_cap, _SLOPE_RANDOM_DIRS, rng)
        for u in u_samples:
            u_arr = np.full(x_lat.shape[0], float(u))
            base = problem.hamiltonian(x_lat, t, u_arr, cands, zero_hess)
            for tc in trace_caps:
                worst = max(worst, float(np.max(np.abs(tc + base))))
    return worst


def time_growth_constants(norms, w1, w2, dim):
    """Assemble (b1, b2) from coefficient norms and time moduli.

    b1 = |lambda| |sigma^T|^2 w1^2 + |eta| |sigma^T| |w| w1 + L(f)
    b2 = L(sigma sigma^T) (N^2 w2 / 2 + |lambda| w1^2)
         + w1 (L(sigma^T) |w| + L(w) |sigma^T| + L(mu))
    """
    required = [
        "lambda_sup",
        "eta_sup",
        "sigma_t_sup",
        "w_sup",
        "mod_f_t",
        "mod_sigma_sq_t",
        "mod_sigma_t_t",
        "mod_w_t",
        "mod_mu_t",
    ]
    for name in required:
        if getattr(norms, name) is None:
            raise ConfigurationError("missing coefficient norm or time modulus", missing=name)
    b1 = (
        norms.lambda_sup * norms.sigma_t_sup**2 * w1**2
        + norms.eta_sup * norms.sigma_t_sup * norms.w_sup * w1
        + norms.mod_f_t
    )
    b2 = norms.mod_sigma_sq_t * (0.5 * dim**2 * w2 + norms.lambda_sup * w1**2) + w1 * (
        norms.mod_sigma_t_t * norms.w_sup + norms.mod_w_t * norms.sigma_t_sup + norms.mod_mu_t
    )
    return float(b1), float(b2)


def bound_constants(problem, axes, horizon, u0_norms, solution_norms=None):
    """Computable bound constants for a problem on a probe lattice.

    u0_norms is the pair (gradient cap, Hessian cap) of the initial datum;
    solution_norms, when given, is the (W1, W2) pair of measured Sobolev sups
    used for the time-growth constants (these also need problem.norms).
    """
    grad_cap, hess_cap = u0_norms
    if not (np.isfinite(grad_cap) and np.isfinite(hess_cap)):
        raise ConfigurationError("initial datum norms must be finite", norms=u0_norms)
    c0 = initial_slope_bound(problem, axes, horizon, grad_cap, hess_cap)
    if solution_norms is None:
        return BoundConstants(c0_init=c0, b1=0.0, b2=0.0)
    if problem.norms is None:
        raise ConfigurationError("problem carries no coefficient norms for the time-growth pair")
    w1, w2 = solution_norms
    b1, b2 = time_growth_constants(problem.norms, w1, w2, problem.dim)
    return BoundConstants(c0_init=c0, b1=b1, b2=b2)


@dataclass
class DeviationReport:
    worst_ratio: float
    ok: bool


class DeviationMeter:
    """max_x |u(., t) - u0| over the collar box, slice by slice, for t up to
    ``horizon_fraction`` of the horizon; ``check`` compares them with a bound."""

    def __init__(self, grid, horizon_fraction=1.0, collar=4):
        self._box = _collar_box(grid.shape, collar)
        self._times = grid.times
        self._t_max = horizon_fraction * grid.horizon
        self._u0 = None
        self._t = []
        self._devs = []

    def take(self, k, u, h=None):
        if k == 0:
            self._u0 = u[self._box]
        elif self._times[k] <= self._t_max + 1e-15:
            self._t.append(self._times[k])
            self._devs.append(float(np.max(np.abs(u[self._box] - self._u0))))

    def check(self, c0_init, tolerance):
        """Verify each deviation against c0_init t + tolerance."""
        bounds = np.asarray([c0_init * t + tolerance for t in self._t])
        ratios = np.asarray(self._devs) / np.where(bounds > 0.0, bounds, 1.0)
        worst = float(ratios.max()) if ratios.size else 0.0
        return DeviationReport(worst_ratio=worst, ok=bool(worst <= 1.0))


def initial_deviation_check(field, c0_init, tolerance, horizon_fraction=1.0, collar=4):
    """Verify max_x |u(., t) - u0| <= c0_init t + tolerance slice by slice."""
    meter = DeviationMeter(field.grid, horizon_fraction, collar)
    for k, u in enumerate(field.values):
        meter.take(k, u)
    return meter.check(c0_init, tolerance)


def _collar_box(shape, collar):
    """Index box that leaves ``collar`` nodes on each face."""
    return tuple(slice(collar, n - collar) for n in shape)


def _slice_sups(values, axes, boxes):
    """Sups of |u|, |grad u| and |hess u| of one slice, one triple per box.

    Derivatives are second-order ``np.gradient`` differences of the whole
    slice, taken once; only their values inside each box count.
    """
    comps = np.gradient(values, *axes, edge_order=2)
    if len(axes) == 1:
        comps = [comps]
    sups = [
        [float(np.max(np.abs(values[box]))), max(float(np.max(np.abs(g[box]))) for g in comps), 0.0]
        for box in boxes
    ]
    for g in comps:
        second = np.gradient(g, *axes, edge_order=2)
        if len(axes) == 1:
            second = [second]
        for row, box in zip(sups, boxes):
            row[2] = max(row[2], max(float(np.max(np.abs(s[box]))) for s in second))
    return [tuple(row) for row in sups]


def field_sup_norms(values, axes, collar=None):
    """Sup norms (value, gradient, Hessian) of one grid slice.

    With ``collar`` set, returns ``(whole, boxed)``: the sups over the whole
    slice and over its collar box, read from one set of derivatives.
    """
    if collar is None:
        return _slice_sups(values, axes, [()])[0]
    whole, boxed = _slice_sups(values, axes, [(), _collar_box(values.shape, collar)])
    return whole, boxed


def _sobolev_sups(boxed_sups):
    """(W1, W2): the sups of |u| + |grad u| and of |u| + |grad u| + |hess u|
    over per-slice (value, gradient, Hessian) sups."""
    w1 = 0.0
    w2 = 0.0
    for val, gmax, hmax in boxed_sups:
        w1 = max(w1, val + gmax)
        w2 = max(w2, val + gmax + hmax)
    return w1, w2


def solution_sobolev_norms(field, collar=4, stride=1):
    """Measured sups of |u| + |grad u| and + |hess u| over the field.

    Every ``stride``-th slice counts, over its collar box.
    """
    grid = field.grid
    box = _collar_box(grid.shape, collar)
    return _sobolev_sups(
        _slice_sups(field.values[k], grid.axes, [box])[0] for k in range(0, grid.steps + 1, stride)
    )


# Most time slices the regularity report differentiates; longer fields are
# strided, and the last slice always counts.
MAX_REGULARITY_SLICES = 160
# Share of the horizon over which the report checks the initial-layer bound.
INITIAL_LAYER_FRACTION = 0.1


class RegularityMeter:
    """The per-slice measurements of the regularity report, slice by slice.

    Every ``stride``-th slice and the last get the one-sided second-difference
    constants and the sups of value, gradient and Hessian; every slice feeds
    the Lipschitz quotients and the initial-layer deviations. The meter
    holds a few slices, never the field.
    """

    def __init__(self, grid, collar, max_offset):
        self.grid = grid
        self.stride = max(1, math.ceil(grid.steps / (MAX_REGULARITY_SLICES - 1)))
        self._collar = collar
        self._plan = _offset_plan(grid, max_offset, collar)
        self.lipschitz = LipschitzMeter(grid, collar)
        self.deviation = DeviationMeter(grid, INITIAL_LAYER_FRACTION, collar)
        self.indices, self.t, self.l_minus, self.l_plus, self.w2_norm = [], [], [], [], []
        self.initial_caps = None  # gradient and Hessian sups of the whole first slice
        self._boxed = []

    def take(self, k, u, h=None):
        self.lipschitz.take(k, u)
        self.deviation.take(k, u)
        if k % self.stride and k != self.grid.steps:
            return
        lm, lp = _second_differences(u, self._plan)
        (sup, gsup, hsup), boxed = field_sup_norms(u, self.grid.axes, collar=self._collar)
        self.indices.append(k)
        self.t.append(float(self.grid.times[k]))
        self.l_minus.append(lm)
        self.l_plus.append(lp)
        self.w2_norm.append(sup + gsup + hsup)
        if k == 0:
            self.initial_caps = (gsup, hsup)
        if k % self.stride == 0:
            self._boxed.append(boxed)

    def sobolev_norms(self):
        """``solution_sobolev_norms(field, collar, stride)`` of the slices seen."""
        return _sobolev_sups(self._boxed)
