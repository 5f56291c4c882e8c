"""Change-of-variable machinery: the primitive, the increasing maps Q and P.

Q solves dQ/dtau = exp(g(tau) + 2 Lambda(Q)), Q(0) = c, where Lambda is the
primitive of the gradient-quadratic coefficient with Lambda(c) = 0 and the
explicit part g depends on the mode:

    semiconvex:      g(tau) = 4 sqrt(tau + 1)
    semiconcave(l):  g(tau) = -2 (tau + 1)^(l+1) / (l + 1),  l > 3

Substituting u = Q(tau) into the general equation and dividing by Q' turns
the gradient-quadratic coefficient into

    lam_t(tau) = lambda(Q) Q' - Q'' / (2 Q')   with  Q'' = Q' (g' + 2 lambda(Q) Q'),

the cross coefficient into eta(Q), and the source into f(x, t, Q)/Q'. The
structural report evaluates these transformed coefficients on a probe grid.
"""

from dataclasses import dataclass
from typing import Optional

import numpy as np

from .errors import ContractViolationError, IntegrationError, ParameterError
from .model import ProblemSpec
from .ode import CubicHermite, integrate_increasing

__all__ = [
    "Primitive",
    "TransformPair",
    "primitive_lambda",
    "solve_Q",
    "invert",
    "structural_check",
    "transformed_problem",
]

# Tolerances of the adaptive Q integration (relative, absolute).
Q_RTOL = 1e-10
Q_ATOL = 1e-13
# Samples of a coefficient without a closed-form primitive on [c, u_hi].
_PRIMITIVE_KNOTS = 8193
# Probe points of ``structural_check`` on P(I).
_STRUCTURE_PROBES = 401


class Primitive:
    """Antiderivative of a scalar coefficient with a pinned zero at c.

    A coefficient that carries its antiderivative as ``primitive(u)`` (the
    built-in u-families do) is integrated in closed form. Any other callable
    is sampled on ``_PRIMITIVE_KNOTS`` points of [c, u_hi], and its
    antiderivative is the cubic Hermite interpolant with those samples as
    slopes. The knot values add up, piece by piece, the trapezoid rule with
    its end-slope correction h^2/12 (lambda'(a) - lambda'(b)), where lambda'
    comes from second-order differences. Evaluations beyond [c, u_hi]
    continue linearly with the edge slope so that trial integrator steps
    stay finite.
    """

    def __init__(self, lambda_fn, c, u_hi):
        self.lambda_fn = lambda_fn
        self.c = float(c)
        self.u_hi = float(u_hi)
        if not self.u_hi > self.c:
            raise ContractViolationError("primitive needs u_hi > c", c=c, u_hi=u_hi)
        knots = np.linspace(self.c, self.u_hi, _PRIMITIVE_KNOTS)
        vals = np.asarray(lambda_fn(knots), dtype=float)
        if not np.all(np.isfinite(vals)):
            bad = knots[~np.isfinite(vals)][0]
            raise IntegrationError("non-finite coefficient sample", u=float(bad))
        closed = getattr(lambda_fn, "primitive", None)
        if closed is not None:
            base = float(closed(self.c))
            self._anti = lambda u: closed(u) - base
            self._slope = lambda_fn
        else:
            h = np.diff(knots)
            dvals = np.gradient(vals, knots, edge_order=2)
            pieces = 0.5 * h * (vals[:-1] + vals[1:]) + h * h / 12.0 * (dvals[:-1] - dvals[1:])
            spline = CubicHermite(knots, np.concatenate([[0.0], np.cumsum(pieces)]), vals)
            self._anti = spline
            self._slope = spline.derivative
        self._lo_slope = float(vals[0])
        self._hi_slope = float(vals[-1])

    def __call__(self, u):
        u = np.asarray(u, dtype=float)
        clipped = np.clip(u, self.c, self.u_hi)
        out = self._anti(clipped)
        out = out + np.where(u < self.c, (u - self.c) * self._lo_slope, 0.0)
        out = out + np.where(u > self.u_hi, (u - self.u_hi) * self._hi_slope, 0.0)
        return out if out.ndim else float(out)

    def derivative(self, u):
        u = np.asarray(u, dtype=float)
        return self._slope(np.clip(u, self.c, self.u_hi))


def primitive_lambda(lambda_fn, c, u_hi):
    """Tabulate the primitive of the gradient-quadratic coefficient.

    The primitive vanishes at c and its derivative reproduces the coefficient
    to quadrature tolerance on [c, u_hi].
    """
    return Primitive(lambda_fn, c, u_hi)


def _mode_functions(mode, l_exp):
    if mode == "semiconvex":
        g = lambda tau: 4.0 * np.sqrt(tau + 1.0)
        gp = lambda tau: 2.0 / np.sqrt(tau + 1.0)
        return g, gp
    if mode == "semiconcave":
        if l_exp is None or not l_exp > 3.0:
            raise ParameterError("semiconcave mode requires exponent l > 3", l=l_exp)
        le = float(l_exp)
        g = lambda tau: -2.0 / (le + 1.0) * (tau + 1.0) ** (le + 1.0)
        gp = lambda tau: -2.0 * (tau + 1.0) ** le
        return g, gp
    raise ParameterError("unknown transform mode", mode=mode)


@dataclass
class TransformPair:
    """Tabulated increasing map Q, inverse P, and the primitive behind them."""

    mode: str
    c: float
    l_exp: Optional[float]
    primitive: Primitive
    tau_knots: np.ndarray
    q_knots: np.ndarray
    slope_knots: np.ndarray
    status: str
    blow_up_tau: Optional[float]
    target: float

    def __post_init__(self):
        if np.any(np.diff(self.q_knots) <= 0.0):
            raise ContractViolationError("Q tabulation must be strictly increasing")
        self._q_spline = CubicHermite(self.tau_knots, self.q_knots, self.slope_knots)
        self._p_spline = None
        self._g, self._gp = _mode_functions(self.mode, self.l_exp)

    @property
    def tau_end(self):
        return float(self.tau_knots[-1])

    @property
    def image(self):
        return (float(self.q_knots[0]), float(self.q_knots[-1]))

    def q(self, tau):
        return self._q_spline(tau)

    def q_prime(self, tau):
        """Slope from the defining equation, evaluated on the interpolated Q."""
        tau = np.asarray(tau, dtype=float)
        qv = self._q_spline(tau)
        return np.exp(self._g(tau) + 2.0 * self.primitive(qv))

    def q_second(self, tau):
        tau = np.asarray(tau, dtype=float)
        qv = self._q_spline(tau)
        lam = np.asarray(self.primitive.lambda_fn(qv), dtype=float)
        qp = self.q_prime(tau)
        return qp * (self._gp(tau) + 2.0 * lam * qp)

    def p(self, u):
        if self._p_spline is None:
            invert(self)
        return self._p_spline(u)

    def min_slope(self):
        return float(self.slope_knots.min())

    def round_trip_error(self, n_probe=2001):
        taus = np.linspace(self.tau_knots[0], self.tau_knots[-1], n_probe)
        return float(np.max(np.abs(self.p(self.q(taus)) - taus)))

    def second_difference_bound(self):
        """Max second difference quotient of Q on 512 probes (C2 evidence)."""
        taus = np.linspace(self.tau_knots[0], self.tau_knots[-1], 512)
        h = (taus[1] - taus[0]) / 2.0
        mid = taus[1:-1]
        dd = (self.q(mid + h) + self.q(mid - h) - 2.0 * self.q(mid)) / h**2
        return float(np.max(np.abs(dd)))


def solve_Q(
    primitive,
    c,
    mode,
    tau_max,
    *,
    q_target=None,
    l_exp=4.0,
    min_knots=1500,
):
    """Integrate the Q equation adaptively and tabulate (tau, Q, Q').

    Integration stops when Q covers the target value, when the slope
    saturates below a floor (semiconcave decay), at tau_max, or at blow-up;
    the status records which. A coarse pass locates the end of the useful
    range, a dense pass caps the step so the tabulation supports the
    round-trip and midpoint-residual tolerances.
    """
    g, _ = _mode_functions(mode, l_exp if mode == "semiconcave" else None)
    le = float(l_exp) if mode == "semiconcave" else None

    def rhs(tau, q):
        return np.exp(g(tau) + 2.0 * primitive(q))

    if q_target is None:
        q_target = primitive.u_hi
    # Below this slope the inverse map cannot be tabulated to the round-trip
    # tolerance in double precision (P' = 1/Q' amplifies value roundoff).
    cond_floor = np.finfo(float).eps * max(1.0, abs(c)) / 5e-12
    slope_floor = max(
        1e-13 * max(rhs(0.0, c), (q_target - c) / max(tau_max, 1e-9), 1e-30),
        cond_floor,
    )

    coarse = integrate_increasing(
        rhs,
        0.0,
        float(c),
        tau_max,
        target=q_target,
        slope_floor=slope_floor,
        rtol=Q_RTOL,
        atol=Q_ATOL,
        max_step=tau_max / 128.0,
    )
    run = coarse
    if coarse.status != "blow_up":
        tau_end = float(coarse.tau[-1])
        run = integrate_increasing(
            rhs,
            0.0,
            float(c),
            tau_end * (1.0 + 1e-12) if coarse.status != "tau_max" else tau_max,
            target=q_target,
            slope_floor=slope_floor,
            rtol=Q_RTOL,
            atol=Q_ATOL,
            max_step=max(tau_end, 1e-12) / float(min_knots),
        )
    return TransformPair(
        mode=mode,
        c=float(c),
        l_exp=le,
        primitive=primitive,
        tau_knots=run.tau,
        q_knots=run.y,
        slope_knots=run.slope,
        status=run.status,
        blow_up_tau=run.blow_up_tau,
        target=float(q_target),
    )


def invert(pair):
    """Build the inverse tabulation P with P(Q(tau)) = tau.

    Requires a strictly increasing Q tabulation; the inverse interpolant gets
    the exact reciprocal slopes at the knots.
    """
    dq = np.diff(pair.q_knots)
    if np.any(dq <= 0.0):
        raise ContractViolationError("cannot invert a non-monotone tabulation")
    p_spline = CubicHermite(pair.q_knots, pair.tau_knots, 1.0 / pair.slope_knots)
    pair._p_spline = p_spline
    return p_spline


def _lambda_tilde(pair, lambda_fn, tau):
    """Gradient-quadratic coefficient lambda(Q) Q' - Q''/(2 Q') of the tau-equation."""
    qp = pair.q_prime(tau)
    return np.asarray(lambda_fn(pair.q(tau)), dtype=float) * qp - pair.q_second(tau) / (2.0 * qp)


def transformed_problem(pair, coeffs):
    """Coefficients of the tau-equation obtained by substituting u = Q(tau).

    Derived operationally from the tabulated Q rather than from a closed
    form: lam_t = lambda(Q) Q' - Q''/(2 Q'), eta_t = eta(Q), source divided
    by Q'. The drift, volatility and w fields are unchanged.
    """
    eta = coeffs.eta_fn
    f = coeffs.f

    def quad_coeff(x, t, tau):
        return _lambda_tilde(pair, coeffs.lambda_fn, tau)

    def cross_coeff(x, t, tau):
        return np.asarray(eta(pair.q(tau)), dtype=float)

    def source(x, t, tau):
        return np.asarray(f(x, t, pair.q(tau)), dtype=float) / pair.q_prime(tau)

    lo_u, hi_u = coeffs.value_interval
    hi_att = min(hi_u, pair.image[1])
    tau_interval = (float(pair.p(lo_u)), float(pair.p(hi_att)))
    return ProblemSpec(
        dim=coeffs.dim,
        sigma=coeffs.sigma,
        drift=coeffs.mu,
        quad_coeff=quad_coeff,
        cross_coeff=cross_coeff,
        w=coeffs.w,
        source=source,
        value_interval=tau_interval,
        label="transformed",
    )


def _fd_derivatives(fn, taus, h):
    vals = fn(taus)
    d1 = (fn(taus + h) - fn(taus - h)) / (2.0 * h)
    d2 = (fn(taus + h) - 2.0 * vals + fn(taus - h)) / h**2
    return vals, d1, d2


def structural_check(pair, eta_fn, interval):
    """Report the signs the transformed coefficients carry on P(I).

    The gradient-quadratic coefficient of the tau-equation is evaluated from
    the tabulated transform; its derivatives come from central differences,
    so the report does not presume any closed form. Pure report, no failure.
    """
    lo, hi = interval
    lo_att = max(lo, pair.image[0])
    hi_att = min(hi, pair.image[1])
    if hi_att <= lo_att:
        raise ContractViolationError(
            "transform image does not meet the requested interval",
            image=pair.image,
            interval=(lo, hi),
        )
    tau_lo = float(pair.p(lo_att))
    tau_hi = float(pair.p(hi_att))
    span = max(tau_hi - tau_lo, 1e-12)
    # The substitution formula for the transformed coefficient cancels a
    # large intermediate (lambda(Q) Q'), leaving absolute noise of order
    # eps * |lambda Q'|; the difference step must dominate that noise.
    h = span / 64.0
    pad = 1.5 * h
    taus = np.linspace(tau_lo + pad, tau_hi - pad, _STRUCTURE_PROBES)

    def lam_t(tau):
        return _lambda_tilde(pair, pair.primitive.lambda_fn, tau)

    vals, d1, d2 = _fd_derivatives(lam_t, taus, h)
    disc = vals * d2 - 2.0 * d1**2
    with np.errstate(divide="ignore", invalid="ignore"):
        proof_ratio = 2.0 * d1**2 / vals - d2

    eta_t = np.asarray(eta_fn(pair.q(taus)), dtype=float)
    hm = (taus[1] - taus[0]) / 2.0
    mid = taus[1:-1]
    eta_dd = (
        np.asarray(eta_fn(pair.q(mid + hm)), dtype=float)
        + np.asarray(eta_fn(pair.q(mid - hm)), dtype=float)
        - 2.0 * eta_t[1:-1]
    ) / hm**2

    return {
        "mode": pair.mode,
        "status": pair.status,
        "image": list(pair.image),
        "tau_range": [float(taus[0]), float(taus[-1])],
        "n_probe": _STRUCTURE_PROBES,
        "lambda_tilde": {
            "min": float(vals.min()),
            "max": float(vals.max()),
            "all_negative": bool(np.all(vals < 0.0)),
            "all_positive": bool(np.all(vals > 0.0)),
        },
        "lambda_tilde_prime": {
            "min": float(d1.min()),
            "all_positive": bool(np.all(d1 > 0.0)),
        },
        "discriminant": {
            "min": float(disc.min()),
            "max": float(disc.max()),
            "all_positive": bool(np.all(disc > 0.0)),
        },
        "curvature_ratio": {
            "min": float(np.min(proof_ratio)),
            "all_positive": bool(np.all(proof_ratio > 0.0)),
        },
        "eta_tilde": {
            "sup": float(np.max(np.abs(eta_t))),
            "second_difference_sup": float(np.max(np.abs(eta_dd))) if eta_dd.size else 0.0,
        },
    }
