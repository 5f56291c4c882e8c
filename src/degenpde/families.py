"""Built-in coefficient families and samplable field wrappers.

Space points are arrays with a trailing axis of length ``dim`` (shape
``(..., dim)``); scalar fields return shape ``(...)``, vector fields return
``(..., m)``. Time ``t`` is a scalar per call. All built-ins are plain numpy
and vectorize over the leading axes.

A field supplies its analytic derivatives when it has them; otherwise central
differences with step ``cbrt(eps) * scale`` are used.
"""

import numpy as np

from .errors import ConfigurationError

_FD_STEP = float(np.finfo(float).eps) ** (1.0 / 3.0)


class SpaceTimeField:
    """Scalar field g(x, t) with optional analytic derivatives.

    Parameters
    ----------
    fn : callable
        ``fn(x, t) -> array`` with x of shape ``(..., dim)``.
    grad, hess, dt : callable, optional
        Analytic spatial gradient ``(..., dim)``, Hessian ``(..., dim, dim)``
        and time derivative ``(...)``. Missing ones fall back to central
        differences.
    scale : float
        Length scale used to size the finite-difference step.
    """

    def __init__(self, fn, grad=None, hess=None, dt=None, dim=1, scale=1.0):
        self.fn = fn
        self._grad = grad
        self._hess = hess
        self._dt = dt
        self.dim = int(dim)
        self.scale = float(scale)

    def __call__(self, x, t):
        return np.asarray(self.fn(np.asarray(x, dtype=float), t), dtype=float)

    def grad(self, x, t):
        x = np.asarray(x, dtype=float)
        if self._grad is not None:
            return np.asarray(self._grad(x, t), dtype=float)
        h = _FD_STEP * self.scale
        out = np.empty(x.shape, dtype=float)
        for i in range(self.dim):
            e = np.zeros(self.dim)
            e[i] = h
            out[..., i] = (self(x + e, t) - self(x - e, t)) / (2.0 * h)
        return out

    def hess(self, x, t):
        x = np.asarray(x, dtype=float)
        if self._hess is not None:
            return np.asarray(self._hess(x, t), dtype=float)
        h = (_FD_STEP * self.scale) * 8.0
        n = self.dim
        out = np.empty(x.shape[:-1] + (n, n), dtype=float)
        base = self(x, t)
        for i in range(n):
            ei = np.zeros(n)
            ei[i] = h
            out[..., i, i] = (self(x + ei, t) - 2.0 * base + self(x - ei, t)) / h**2
            for j in range(i + 1, n):
                ej = np.zeros(n)
                ej[j] = h
                cross = (
                    self(x + ei + ej, t)
                    - self(x + ei - ej, t)
                    - self(x - ei + ej, t)
                    + self(x - ei - ej, t)
                ) / (4.0 * h**2)
                out[..., i, j] = cross
                out[..., j, i] = cross
        return out

    def time_derivative(self, x, t):
        if self._dt is not None:
            return np.asarray(self._dt(np.asarray(x, dtype=float), t), dtype=float)
        h = _FD_STEP * max(self.scale, 1.0)
        tl = max(t - h, 0.0)
        return (self(x, t + h) - self(x, tl)) / (t + h - tl)


def zero_field(dim):
    return SpaceTimeField(
        fn=lambda x, t: np.zeros(x.shape[:-1]),
        grad=lambda x, t: np.zeros(x.shape),
        hess=lambda x, t: np.zeros(x.shape[:-1] + (dim, dim)),
        dt=lambda x, t: np.zeros(x.shape[:-1]),
        dim=dim,
    )


def gaussian_bump_field(dim, amplitude=1.0, center=0.0, width=1.0, ramp=None):
    """Gaussian bump ``a * g(t) * exp(-|x - c|^2 / (2 w^2))``.

    With ``ramp`` set, the time profile is ``g(t) = 1 - exp(-ramp * t)`` so the
    field vanishes identically at t = 0; without it the bump is frozen in time.
    """
    a = float(amplitude)
    w = float(width)
    c = np.full(dim, float(center)) if np.isscalar(center) else np.asarray(center, dtype=float)
    if c.shape != (dim,):
        raise ConfigurationError("gaussian bump center must match dimension", center=center, dim=dim)

    def profile(t):
        if ramp is None:
            return 1.0, 0.0
        g = 1.0 - np.exp(-ramp * t)
        return g, ramp * np.exp(-ramp * t)

    def value(x, t):
        g, _ = profile(t)
        r2 = np.sum((x - c) ** 2, axis=-1)
        return a * g * np.exp(-r2 / (2.0 * w**2))

    def grad(x, t):
        v = value(x, t)
        return -((x - c) / w**2) * v[..., None]

    def hess(x, t):
        v = value(x, t)
        dx = (x - c) / w**2
        eye = np.eye(dim)
        return v[..., None, None] * (dx[..., :, None] * dx[..., None, :] - eye / w**2)

    def dt(x, t):
        _, gdot = profile(t)
        r2 = np.sum((x - c) ** 2, axis=-1)
        return a * gdot * np.exp(-r2 / (2.0 * w**2))

    return SpaceTimeField(value, grad, hess, dt, dim=dim, scale=w)


def constant_field(dim, value):
    v = float(value)
    return SpaceTimeField(
        fn=lambda x, t: np.full(x.shape[:-1], v),
        grad=lambda x, t: np.zeros(x.shape),
        hess=lambda x, t: np.zeros(x.shape[:-1] + (dim, dim)),
        dt=lambda x, t: np.zeros(x.shape[:-1]),
        dim=dim,
    )


def affine_field(dim, coeffs, intercept=0.0):
    """Affine field ``<coeffs, x> + intercept`` (frozen in time)."""
    cv = np.broadcast_to(np.atleast_1d(np.asarray(coeffs, dtype=float)), (dim,)).copy()
    b = float(intercept)
    return SpaceTimeField(
        fn=lambda x, t: x @ cv + b,
        grad=lambda x, t: np.broadcast_to(cv, x.shape).copy(),
        hess=lambda x, t: np.zeros(x.shape[:-1] + (dim, dim)),
        dt=lambda x, t: np.zeros(x.shape[:-1]),
        dim=dim,
        scale=1.0,
    )


# -- vector fields (drift) ---------------------------------------------------


def zero_drift(dim):
    return lambda x, t: np.zeros(x.shape)


def constant_drift(dim, values):
    vec = np.broadcast_to(np.atleast_1d(np.asarray(values, dtype=float)), (dim,)).copy()

    def fn(x, t):
        return np.broadcast_to(vec, x.shape).copy()

    return fn


def linear_drift(dim, rate):
    r = float(rate)

    def fn(x, t):
        return r * x

    return fn


def swirl_drift(dim, rate=1.0):
    """Drift whose kernel-direction component reads the diffusive block,
    e.g. mu = rate * (x_2, 0, ...) in two dimensions."""
    if dim < 2:
        raise ConfigurationError("swirl drift needs dim >= 2", dim=dim)
    r = float(rate)

    def fn(x, t):
        out = np.zeros(x.shape)
        out[..., 0] = r * x[..., 1]
        return out

    return fn


# -- time functions (short rate) ----------------------------------------------


def constant_rate(value):
    v = float(value)
    fn = lambda t: v + 0.0 * np.asarray(t, dtype=float)
    fn.integral = lambda t: v * np.asarray(t, dtype=float)
    return fn


def linear_rate(slope, intercept=0.0):
    s, b = float(slope), float(intercept)
    fn = lambda t: s * np.asarray(t, dtype=float) + b
    fn.integral = lambda t: (0.5 * s * np.asarray(t, dtype=float) + b) * np.asarray(t, dtype=float)
    return fn


def piecewise_rate(breaks, values):
    """Piecewise-constant rate: value[i] on [breaks[i-1], breaks[i]).

    value[0] extends below breaks[0] and the last value past the last break.
    """
    bs = np.asarray(breaks, dtype=float)
    vs = np.asarray(values, dtype=float)
    if bs.ndim != 1 or vs.shape != bs.shape or np.any(np.diff(bs) <= 0):
        raise ConfigurationError("piecewise rate needs increasing breaks matching values")
    lo = np.concatenate([[-np.inf], bs[:-1]])
    hi = np.concatenate([bs[:-1], [np.inf]])

    def fn(t):
        idx = np.minimum(np.searchsorted(bs, np.asarray(t, dtype=float), side="right"), len(vs) - 1)
        return vs[idx]

    def integral(t):
        # each piece contributes its value times its signed overlap with [0, t]
        t = np.asarray(t, dtype=float)[..., None]
        return np.sum(vs * (np.clip(t, lo, hi) - np.clip(0.0, lo, hi)), axis=-1)

    fn.integral = integral
    return fn


def constant_sigma(matrix):
    """Time-frozen volatility matrix of shape (N, d)."""
    m = np.atleast_2d(np.asarray(matrix, dtype=float))

    def fn(t):
        return m

    fn.matrix = m
    return fn


# -- scalar u-functions (lambda / eta) ----------------------------------------
#
# Each carries a closed-form antiderivative as ``primitive(u)``.


def zero_ufunc():
    fn = lambda u: np.zeros_like(np.asarray(u, dtype=float))
    fn.primitive = lambda u: np.zeros_like(np.asarray(u, dtype=float))
    return fn


def constant_ufunc(value):
    v = float(value)
    fn = lambda u: np.full_like(np.asarray(u, dtype=float), v)
    fn.primitive = lambda u: v * np.asarray(u, dtype=float)
    return fn


def reciprocal_ufunc(scale):
    """u -> scale / u, defined for u != 0; its primitive is scale * log|u|.

    ``spec`` is the family record a config reading ``reciprocal:scale`` gives.
    """
    s = float(scale)
    fn = lambda u: s / np.asarray(u, dtype=float)
    fn.primitive = lambda u: s * np.log(np.abs(np.asarray(u, dtype=float)))
    fn.spec = {"family": "reciprocal", "scale": s}
    return fn
