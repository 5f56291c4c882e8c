"""Coefficient containers, the Hamiltonian, and the MBS reduction.

The general equation marched by the solver is

    du/dt + H(x, t, u, grad u, hess u) = 0,

with

    H(x, t, u, p, X) = -1/2 tr(sigma sigma^T(t) X) + <mu(x,t), p>
                       + lambda(u) |sigma^T p|^2
                       + eta(u) <sigma^T(t) p, w(x,t)> + f(x, t, u).

The mortgage pricing equation for the price variable U,

    dU/dt - 1/2 tr(sigma sigma^T hess U) - <mu, grad U>
          + rho |sigma^T grad U|^2 / (U + h + xi(t)) + r (U + h) - tau h = 0,

reduces to the general form for u = U + h + xi; ``mbs_to_general`` performs
that reduction. Note the drift sign: the pricing equation carries -<mu, grad U>
while the general form carries +<mu, p>, so the reduction negates the drift.
"""

from dataclasses import dataclass
from typing import Callable, Optional

import numpy as np

from .errors import (
    ContractViolationError,
    DomainViolationError,
    PositivityError,
)

__all__ = [
    "CoefficientSet",
    "CoefficientNorms",
    "MbsModel",
    "ProblemSpec",
    "mbs_to_general",
    "mbs_price_problem",
    "discount_and_xi",
]


# Times sampled on [0, T] for the stability bound: the diffusion norm here and
# the upwind drift speed in ``solver.GridSpec``.
STABILITY_TIME_SAMPLES = 64
# Times sampled on [0, T) to check that sigma(t) keeps one shape and rank.
_SIGMA_RANK_SAMPLES = 17
# Relative residual up to which w(x, t) counts as in the range of sigma^T(t).
_RANGE_TOL = 1e-8
# Times sampled on [0, T] by ``MbsModel.validate``.
_VALIDATE_TIMES = 9


def _dot(a, b):
    """<a, b> over the trailing axis, one term per component; numpy's
    reductions over a trailing axis of length 2 or 3 are several times slower."""
    out = a[..., 0] * b[..., 0]
    for i in range(1, a.shape[-1]):
        out += a[..., i] * b[..., i]
    return out


@dataclass(frozen=True)
class CoefficientNorms:
    """Sup norms and Lipschitz-in-time moduli of the coefficient families.

    Used to assemble the time-growth constants; a None entry means the
    configuration did not provide that modulus.
    """

    lambda_sup: Optional[float] = None
    eta_sup: Optional[float] = None
    sigma_t_sup: Optional[float] = None
    w_sup: Optional[float] = None
    mod_f_t: Optional[float] = None
    mod_sigma_sq_t: Optional[float] = None
    mod_sigma_t_t: Optional[float] = None
    mod_w_t: Optional[float] = None
    mod_mu_t: Optional[float] = None


@dataclass(frozen=True)
class ProblemSpec:
    """Solver-facing view of an equation du/dt + H = 0.

    The gradient-quadratic and gradient-cross coefficients may depend on
    (x, t, u); the general coefficient set uses u only, the mortgage price
    equation needs the full dependence.
    """

    dim: int
    noise_dim: int
    sigma: Callable  # t -> (N, d)
    drift: Callable  # (x, t) -> (..., N), enters H as +<drift, p>
    quad_coeff: Callable  # (x, t, u) -> (...)
    cross_coeff: Callable  # (x, t, u) -> (...)
    w: Callable  # (x, t) -> (..., d)
    source: Callable  # (x, t, u) -> (...)
    domain_interval: tuple
    value_interval: tuple
    label: str = "general"
    norms: Optional[CoefficientNorms] = None

    def sigma_sq(self, t):
        s = np.asarray(self.sigma(t), dtype=float)
        return s @ s.T

    def max_diffusion_norm(self, horizon):
        ts = np.linspace(0.0, horizon, STABILITY_TIME_SAMPLES)
        return max(float(np.linalg.norm(self.sigma_sq(t), 2)) for t in ts)

    def hamiltonian(self, x, t, u, p, X, drift_p=None):
        """H(x, t, u, p, X): the one place the package evaluates H.

        Vectorized over leading axes: x (..., N), u (...), p (..., N) and
        X (..., N, N) broadcast together, and the coefficients are evaluated
        at (x, u) as given. ``drift_p`` is the gradient paired with the drift
        and defaults to p; the stencil passes upwind differences there and
        central ones in p. A single point x of shape (N,) is a one-row call
        that returns a float.
        """
        x = np.asarray(x, dtype=float)
        if x.ndim == 1:
            n = x.shape[0]
            row = lambda v, shape: np.asarray(v, dtype=float).reshape((1,) + shape)
            dp = None if drift_p is None else row(drift_p, (n,))
            out = self.hamiltonian(x[None], t, row(u, ()), row(p, (n,)), row(X, (n, n)), dp)
            return float(out[0])
        p = np.asarray(p, dtype=float)
        drift_p = p if drift_p is None else drift_p
        sig = np.asarray(self.sigma(t), dtype=float)
        a = sig @ sig.T
        trace = sum(a[i, j] * X[..., i, j] for i, j in zip(*np.nonzero(a)))
        drift = _dot(np.asarray(self.drift(x, t), dtype=float), drift_p)
        sp = p @ sig
        quad = np.asarray(self.quad_coeff(x, t, u), dtype=float)
        cross = np.asarray(self.cross_coeff(x, t, u), dtype=float)
        w = np.asarray(self.w(x, t), dtype=float)
        nonlinear = quad * _dot(sp, sp) + cross * _dot(sp, w)
        return -0.5 * trace + drift + nonlinear + np.asarray(self.source(x, t, u), dtype=float)


@dataclass(frozen=True)
class CoefficientSet:
    """All functional coefficients of the general equation.

    sigma(t) is N x d with N >= d >= 1; lambda_fn and eta_fn live on the open
    domain interval (a, b); solutions are expected to stay in the closed
    value_interval, which must sit strictly inside (a, b).
    """

    sigma: Callable
    mu: Callable
    w: Callable
    lambda_fn: Callable
    eta_fn: Callable
    f: Callable
    domain_interval: tuple
    value_interval: tuple
    dim: int
    noise_dim: int
    horizon: float = 1.0
    norms: Optional[CoefficientNorms] = None
    label: str = "general"

    def __post_init__(self):
        a, b = self.domain_interval
        lo, hi = self.value_interval
        if not a < b:
            raise ContractViolationError("domain interval must satisfy a < b", interval=(a, b))
        if not lo < hi:
            raise ContractViolationError("value interval must be nondegenerate", interval=(lo, hi))
        if not (a < lo and hi < b):
            raise DomainViolationError(
                "value interval must lie strictly inside the domain interval",
                value_interval=(lo, hi),
                domain_interval=(a, b),
            )
        if np.isfinite(a) and lo - a <= 0:
            raise DomainViolationError("no gap to left endpoint", a=a, lo=lo)
        if np.isfinite(b) and b - hi <= 0:
            raise DomainViolationError("no gap to right endpoint", b=b, hi=hi)
        if not (self.dim >= self.noise_dim >= 1):
            raise ContractViolationError(
                "need N >= d >= 1", dim=self.dim, noise_dim=self.noise_dim
            )
        self._check_sigma_rank()

    def _check_sigma_rank(self):
        ranks = set()
        for t in np.linspace(0.0, self.horizon * (1.0 - 1e-9), _SIGMA_RANK_SAMPLES):
            s = np.asarray(self.sigma(t), dtype=float)
            if s.shape != (self.dim, self.noise_dim):
                raise ContractViolationError(
                    "sigma(t) has wrong shape", expected=(self.dim, self.noise_dim), got=s.shape
                )
            ranks.add(int(np.linalg.matrix_rank(s, tol=1e-10 * max(1.0, np.linalg.norm(s)))))
        if len(ranks) != 1:
            raise ContractViolationError("sigma(t) must have constant rank", ranks=sorted(ranks))

    def check_range_compatibility(self, probe_points, probe_times):
        """Verify w(x,t) lies in the range of sigma^T(t) at the probes."""
        for t in probe_times:
            s = np.asarray(self.sigma(t), dtype=float)
            wv = np.asarray(self.w(probe_points, t), dtype=float)
            sol, *_ = np.linalg.lstsq(s.T, wv.T, rcond=None)
            resid = s.T @ sol - wv.T
            worst = float(np.max(np.abs(resid))) if resid.size else 0.0
            if worst > _RANGE_TOL * max(1.0, float(np.max(np.abs(wv))) if wv.size else 1.0):
                raise ContractViolationError(
                    "w(x,t) leaves the range of sigma^T", time=t, residual=worst
                )
        return True

    def as_problem(self):
        lam, eta = self.lambda_fn, self.eta_fn
        return ProblemSpec(
            dim=self.dim,
            noise_dim=self.noise_dim,
            sigma=self.sigma,
            drift=self.mu,
            quad_coeff=lambda x, t, u: lam(u),
            cross_coeff=lambda x, t, u: eta(u),
            w=self.w,
            source=self.f,
            domain_interval=self.domain_interval,
            value_interval=self.value_interval,
            label=self.label,
            norms=self.norms,
        )


@dataclass(frozen=True)
class MbsModel:
    """Financial instance: risk parameter, coupon, short rate and principal.

    principal_h must satisfy h >= 0 and h(., 0) == 0; the short rate is a
    deterministic function of time carrying its antiderivative
    ``integral(t) = int_0^t r(s) ds``.
    """

    rho: float
    coupon_tau: float
    rate_r: Callable
    principal_h: object  # SpaceTimeField
    horizon: float
    dim: int = 1

    def __post_init__(self):
        if not (0.0 < self.rho < 1.0):
            raise ContractViolationError("rho must lie in (0, 1)", rho=self.rho)
        if self.coupon_tau <= 0.0:
            raise ContractViolationError("coupon must be positive", coupon=self.coupon_tau)
        if self.horizon <= 0.0:
            raise ContractViolationError("horizon must be positive", horizon=self.horizon)
        if not callable(getattr(self.rate_r, "integral", None)):
            raise ContractViolationError("short rate needs an integral(t) antiderivative")

    def validate(self, probe_points=None):
        """Run the smooth-coefficient sampler and the xi invariants."""
        xi, _ = discount_and_xi(self)
        if abs(xi(0.0) - 1.0) > 1e-12:
            raise ContractViolationError("xi(0) must equal 1", xi0=xi(0.0))
        ts = np.linspace(0.0, self.horizon, _VALIDATE_TIMES)
        xs = np.asarray([float(xi(t)) for t in ts])
        rs = np.asarray([float(self.rate_r(t)) for t in ts])
        if np.all(rs > 0.0) and np.any(np.diff(xs) <= 0.0):
            raise ContractViolationError("xi must increase strictly when r > 0")
        if probe_points is None:
            probe_points = np.zeros((1, self.dim))
        h = self.principal_h
        for t in ts:
            vals = h(probe_points, t)
            if np.any(vals < -1e-12):
                raise ContractViolationError("principal must be nonnegative", time=t)
            for arr in (h.grad(probe_points, t), h.hess(probe_points, t), h.time_derivative(probe_points, t)):
                if not np.all(np.isfinite(arr)):
                    raise ContractViolationError("principal derivatives must be finite", time=t)
        if float(np.max(np.abs(h(probe_points, 0.0)))) > 1e-12:
            raise ContractViolationError("principal must vanish at t = 0")
        return True


def discount_and_xi(model):
    """Money-market factor xi and the pathwise discount D.

    With R the antiderivative of the short rate (``rate_r.integral``),
    xi(t) = exp(R(t)) and D(t, s) = exp(-int_t^s r(T - k) dk)
    = exp(R(T - s) - R(T - t)). D is multiplicative: D(t, s) D(s, v) = D(t, v).
    """
    R = model.rate_r.integral
    T = model.horizon

    def xi(t):
        out = np.exp(R(np.asarray(t, dtype=float)))
        return float(out) if out.ndim == 0 else out

    def discount(t, s):
        out = np.exp(R(T - np.asarray(s, dtype=float)) - R(T - float(t)))
        return float(out) if out.ndim == 0 else out

    return xi, discount


def mbs_to_general(model, sigma, mu, value_interval=(0.25, 4.0), domain_interval=(0.0, np.inf),
                   noise_dim=None, norms=None):
    """Map the pricing equation to the general form for u = U + h + xi.

    Produces lambda(u) = rho/u, eta(u) = -2 rho/u, w = sigma^T grad h, drift
    negated, and a source absorbing the principal terms, the xi' term, the
    discounting r(u - xi) and the completed square rho |w|^2 / u.
    """
    lo, hi = value_interval
    if lo <= 0.0:
        raise PositivityError(
            "u = U + h + xi must stay positive on the value interval", value_interval=value_interval
        )
    rho, tau = model.rho, model.coupon_tau
    h = model.principal_h
    rate = model.rate_r
    xi, _ = discount_and_xi(model)
    d = noise_dim if noise_dim is not None else np.asarray(sigma(0.0)).shape[1]

    def w(x, t):
        s = np.asarray(sigma(t), dtype=float)
        return h.grad(x, t) @ s

    def f(x, t, u):
        s = np.asarray(sigma(t), dtype=float)
        a = s @ s.T
        hess = h.hess(x, t)
        trace_h = 0.5 * np.einsum("ij,...ij->...", a, hess)
        wv = w(x, t)
        rt = float(rate(t))
        xit = float(xi(t))
        return (
            -h.time_derivative(x, t)
            + trace_h
            + np.einsum("...i,...i->...", mu(x, t), h.grad(x, t))
            + rho * np.sum(wv**2, axis=-1) / u
            + rt * u
            - 2.0 * rt * xit
            - tau * h(x, t)
        )

    return CoefficientSet(
        sigma=sigma,
        mu=lambda x, t: -mu(x, t),
        w=w,
        lambda_fn=lambda u: rho / u,
        eta_fn=lambda u: -2.0 * rho / u,
        f=f,
        domain_interval=domain_interval,
        value_interval=value_interval,
        dim=model.dim,
        noise_dim=d,
        horizon=model.horizon,
        norms=norms,
        label="mbs_general",
    )


def mbs_price_problem(model, sigma, mu, value_interval=(-1.0, 2.0), norms=None):
    """Pricing equation in the price variable U, in solver form.

    The gradient-quadratic coefficient is rho / (U + h + xi), which depends on
    (x, t) through h and xi; the source is r (U + h) - tau h. Marching U keeps
    the exact solution U == 0 (for r == tau) a grid constant.
    """
    rho, tau = model.rho, model.coupon_tau
    h = model.principal_h
    rate = model.rate_r
    xi, _ = discount_and_xi(model)
    lo, hi = value_interval
    xs_min = min(float(xi(t)) for t in np.linspace(0.0, model.horizon, 33))
    if lo + xs_min <= 0.0:
        raise PositivityError(
            "U + h + xi can reach zero on the configured value interval",
            value_interval=value_interval,
            xi_min=xs_min,
        )
    d = np.asarray(sigma(0.0)).shape[1]
    if not model.dim >= d >= 1:
        raise ContractViolationError("need N >= d >= 1", dim=model.dim, noise_dim=d)

    def quad_coeff(x, t, u):
        return rho / (u + h(x, t) + float(xi(t)))

    def source(x, t, u):
        rt = float(rate(t))
        hv = h(x, t)
        return rt * (u + hv) - tau * hv

    zero_w = lambda x, t: np.zeros(x.shape[:-1] + (d,))
    return ProblemSpec(
        dim=model.dim,
        noise_dim=d,
        sigma=sigma,
        drift=lambda x, t: -mu(x, t),
        quad_coeff=quad_coeff,
        cross_coeff=lambda x, t, u: np.zeros(np.shape(u)),
        w=zero_w,
        source=source,
        domain_interval=(-np.inf, np.inf),
        value_interval=value_interval,
        label="mbs_price",
        norms=norms,
    )
