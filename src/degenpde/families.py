"""Built-in coefficient families and samplable field wrappers.

Space points are arrays with a trailing axis of length ``dim`` (shape
``(..., dim)``); scalar fields return shape ``(...)``, vector fields return
``(..., m)``. Time ``t`` is a scalar per call. All built-ins are plain numpy
and vectorize over the leading axes.

Every field carries its analytic gradient, Hessian and time derivative. A
builder refuses parameters it cannot use with a ValueError, which the config
reader reports under the key that named the family.
"""

import numpy as np


def _dot(a, b):
    """<a, b> over the trailing axis, one term per component; numpy's
    reductions over a trailing axis of length 2 or 3 are several times slower."""
    out = a[..., 0] * b[..., 0]
    for i in range(1, a.shape[-1]):
        out += a[..., i] * b[..., i]
    return out


class SpaceTimeField:
    """Scalar field g(x, t) with its analytic derivatives.

    Parameters
    ----------
    fn : callable
        ``fn(x, t) -> array`` with x of shape ``(..., dim)``.
    grad, hess, dt : callable
        Spatial gradient ``(..., dim)``, Hessian ``(..., dim, dim)`` and
        time derivative ``(...)``.
    """

    def __init__(self, fn, grad, hess, dt, dim=1):
        self.fn = fn
        self._grad = grad
        self._hess = hess
        self._dt = dt
        self.dim = int(dim)

    def __call__(self, x, t):
        return np.asarray(self.fn(np.asarray(x, dtype=float), t), dtype=float)

    def grad(self, x, t):
        return np.asarray(self._grad(np.asarray(x, dtype=float), t), dtype=float)

    def hess(self, x, t):
        return np.asarray(self._hess(np.asarray(x, dtype=float), t), dtype=float)

    def time_derivative(self, x, t):
        return np.asarray(self._dt(np.asarray(x, dtype=float), t), dtype=float)


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
    if not w > 0.0:
        raise ValueError(f"gaussian width {w} is not positive")
    c = np.full(dim, float(center)) if np.isscalar(center) else np.asarray(center, dtype=float)
    if c.shape != (dim,):
        raise ValueError(f"gaussian center {center} does not have {dim} components")

    def profile(t):
        if ramp is None:
            return 1.0, 0.0
        g = 1.0 - np.exp(-ramp * t)
        return g, ramp * np.exp(-ramp * t)

    def value(x, t):
        g, _ = profile(t)
        d = x - c
        return a * g * np.exp(-_dot(d, d) / (2.0 * w**2))

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
        d = x - c
        return a * gdot * np.exp(-_dot(d, d) / (2.0 * w**2))

    return SpaceTimeField(value, grad, hess, dt, dim=dim)


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
        raise ValueError(f"swirl drift needs dim >= 2, not {dim}")
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
        raise ValueError("piecewise rate needs increasing breaks, one value each")
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
