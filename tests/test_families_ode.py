import numpy as np
import pytest
import sympy

from degenpde.errors import StiffnessError
from degenpde.families import (
    affine_field,
    constant_field,
    constant_rate,
    constant_ufunc,
    gaussian_bump_field,
    linear_rate,
    piecewise_rate,
    reciprocal_ufunc,
    zero_field,
    zero_ufunc,
)
from degenpde.model import MbsModel, discount_and_xi
from degenpde.ode import (
    CubicHermite,
    _hermite,
    _hermite_crossing,
    _hermite_slope,
    integrate_increasing,
)
from degenpde.transform import primitive_lambda

EPS = np.finfo(float).eps


class TestSpaceTimeField:
    def test_gaussian_bump_analytic_derivatives_match_fd(self):
        # the oracle is sympy's derivative of the bump's formula
        x1, x2, t = sympy.symbols("x1 x2 t")
        space = (x1, x2)
        r2 = (x1 - 0.3) ** 2 + (x2 - 0.3) ** 2
        g = 0.7 * (1 - sympy.exp(-2.0 * t)) * sympy.exp(-r2 / (2 * 1.2**2))
        grad = sympy.lambdify((x1, x2, t), sympy.Matrix([g]).jacobian(space))
        hess = sympy.lambdify((x1, x2, t), sympy.hessian(g, space))
        dt = sympy.lambdify((x1, x2, t), sympy.diff(g, t))
        bump = gaussian_bump_field(2, amplitude=0.7, center=0.3, width=1.2, ramp=2.0)
        x = np.array([[0.1, -0.4], [0.8, 0.2]])
        for i, point in enumerate(x):
            np.testing.assert_allclose(bump.grad(x, 0.5)[i], grad(*point, 0.5)[0], rtol=1e-13)
            np.testing.assert_allclose(bump.hess(x, 0.5)[i], hess(*point, 0.5), rtol=1e-13, atol=1e-16)
            np.testing.assert_allclose(bump.time_derivative(x, 0.5)[i], dt(*point, 0.5), rtol=1e-13)

    def test_ramp_vanishes_at_start(self):
        bump = gaussian_bump_field(1, ramp=3.0)
        x = np.linspace(-2, 2, 9)[:, None]
        assert np.all(bump(x, 0.0) == 0.0)
        assert np.all(bump(x, 0.5) > 0.0)

    def test_affine_and_constant(self):
        aff = affine_field(1, 2.0, intercept=-1.0)
        x = np.array([[0.5], [2.0]])
        np.testing.assert_allclose(aff(x, 0.1), [0.0, 3.0])
        const = constant_field(1, 4.0)
        np.testing.assert_allclose(const(x, 0.9), 4.0)
        assert np.all(zero_field(1)(x, 0.2) == 0.0)


class TestPiecewiseRate:
    def test_xi_with_rate_jump(self):
        # r = 0.1 on [0, 0.5), 0.3 on [0.5, 1]: xi(1) = exp(0.05 + 0.15)
        rate = piecewise_rate([0.5, 1.0], [0.1, 0.3])
        model = MbsModel(
            rho=0.5,
            coupon_tau=0.06,
            rate_r=rate,
            principal_h=gaussian_bump_field(1, ramp=3.0),
            horizon=1.0,
            dim=1,
        )
        xi, disc = discount_and_xi(model)
        assert xi(1.0) == pytest.approx(np.exp(0.2), rel=1e-10)
        assert disc(0.0, 1.0) == pytest.approx(np.exp(-0.2), rel=1e-10)


class TestRateIntegrals:
    # piecewise times fall before the first break, between breaks and past
    # the last one
    TIMES = [0.05, 0.3, 0.5, 0.7, 1.0, 1.2, 1.5, 2.5]

    @pytest.mark.parametrize(
        "rate,breaks",
        [
            (constant_rate(0.03), []),
            (linear_rate(1.5, -0.2), []),
            (piecewise_rate([0.5, 1.0, 1.5], [0.1, 0.3, 0.2]), [0.5, 1.0]),
        ],
        ids=["constant", "linear", "piecewise"],
    )
    def test_integral_matches_quadrature(self, rate, breaks):
        from scipy.integrate import quad

        for t in self.TIMES:
            pts = [b for b in breaks if 0.0 < b < t] or None
            ref, _ = quad(lambda s: float(rate(s)), 0.0, t, epsabs=1e-16, epsrel=1e-13, points=pts)
            assert float(rate.integral(t)) == pytest.approx(ref, rel=1e-14)
        np.testing.assert_array_equal(
            rate.integral(np.asarray(self.TIMES)), [rate.integral(t) for t in self.TIMES]
        )


class TestUfuncPrimitives:
    @pytest.mark.parametrize(
        "fn,a,b",
        [
            (zero_ufunc(), 0.5, 2.0),
            (constant_ufunc(-0.7), -1.0, 2.5),
            (reciprocal_ufunc(0.5), 0.2, 3.0),
            (reciprocal_ufunc(-1.0), 1.0, 2.0),
            (reciprocal_ufunc(0.5), -3.0, -0.2),
        ],
        ids=["zero", "constant", "reciprocal", "reciprocal_negative", "reciprocal_below_zero"],
    )
    def test_primitive_matches_quadrature(self, fn, a, b):
        from scipy.integrate import quad

        mid = 0.5 * (a + b)
        for lo, hi in ((a, b), (a, mid), (mid, b)):
            ref, _ = quad(lambda u: float(fn(u)), lo, hi, epsabs=1e-15, epsrel=1e-13)
            got = float(fn.primitive(hi) - fn.primitive(lo))
            assert got == pytest.approx(ref, rel=1e-13, abs=1e-15)

    def test_sampled_fallback_matches_closed_form(self):
        # a bare callable goes through the sampled antiderivative
        closed = primitive_lambda(reciprocal_ufunc(0.5), 1.0, u_hi=3.0)
        sampled = primitive_lambda(lambda u: 0.5 / np.asarray(u, dtype=float), 1.0, u_hi=3.0)
        us = np.linspace(0.5, 3.5, 601)
        np.testing.assert_allclose(sampled(us), closed(us), rtol=0.0, atol=1e-13)
        np.testing.assert_allclose(sampled.derivative(us), closed.derivative(us), rtol=0.0, atol=1e-12)

    def test_reciprocal_primitive_on_an_interval_below_zero(self):
        # scale / u is finite on [-3, -1], so the closed form must be too
        closed = primitive_lambda(reciprocal_ufunc(0.5), -3.0, u_hi=-1.0)
        sampled = primitive_lambda(lambda u: 0.5 / np.asarray(u, dtype=float), -3.0, u_hi=-1.0)
        us = np.linspace(-3.5, -0.5, 601)
        assert np.all(np.isfinite(closed(us)))
        np.testing.assert_allclose(closed(-1.0), 0.5 * np.log(1.0 / 3.0), rtol=1e-15)
        np.testing.assert_allclose(sampled(us), closed(us), rtol=0.0, atol=1e-13)


class TestCubicHermite:
    @staticmethod
    def knots(seed):
        rng = np.random.default_rng(seed)
        x = np.cumsum(rng.uniform(0.05, 1.0, 60)) + rng.uniform(-5.0, 5.0)
        y = np.cumsum(rng.uniform(-1.0, 2.0, 60))
        d = rng.uniform(-1.0, 3.0, 60)
        return x, y, d

    @pytest.mark.parametrize("seed", [3, 4, 5])
    def test_matches_scipy_to_a_few_ulps(self, seed):
        from scipy.interpolate import CubicHermiteSpline

        x, y, d = self.knots(seed)
        ref = CubicHermiteSpline(x, y, d)
        herm = CubicHermite(x, y, d)
        t = np.concatenate([np.linspace(x[0], x[-1], 20001), x])
        # rounding scale of one piece: its values and its slopes times width;
        # over 200 seeds the worst errors were 4.1 (values) and 8.4 (slopes)
        # times eps of this scale
        i = np.clip(np.searchsorted(x, t, side="right") - 1, 0, x.size - 2)
        h = x[i + 1] - x[i]
        mags = np.abs(y[i]) + np.abs(y[i + 1])
        slopes = np.abs(d[i]) + np.abs(d[i + 1])
        assert np.all(np.abs(herm(t) - ref(t)) <= 8.0 * EPS * (mags + h * slopes))
        assert np.all(np.abs(herm.derivative(t) - ref.derivative()(t)) <= 16.0 * EPS * (mags / h + slopes))
        np.testing.assert_array_equal(herm(x), y)

    def test_end_cubics_continue_outside(self):
        from scipy.interpolate import CubicHermiteSpline

        x, y, d = self.knots(6)
        ref = CubicHermiteSpline(x, y, d)
        t = np.concatenate([np.linspace(x[0] - 0.3, x[0], 50), np.linspace(x[-1], x[-1] + 0.3, 50)])
        np.testing.assert_allclose(CubicHermite(x, y, d)(t), ref(t), rtol=1e-12, atol=1e-12)

    def test_crossing_matches_brentq(self):
        from scipy.optimize import brentq

        rng = np.random.default_rng(11)
        for _ in range(300):
            t0 = rng.uniform(-2.0, 2.0)
            t1 = t0 + 10.0 ** rng.uniform(-8.0, 0.0)
            y0 = rng.normal()
            y1 = y0 + 10.0 ** rng.uniform(-8.0, 0.5)
            # end slopes within twice the secant keep the cubic monotone
            f0, f1 = rng.uniform(0.0, 2.0, 2) * (y1 - y0) / (t1 - t0)
            target = y0 + rng.uniform(0.001, 0.999) * (y1 - y0)
            xtol = 1e-15 * max(1.0, abs(t1))
            ref = brentq(lambda s: _hermite(t0, y0, f0, t1, y1, f1, s) - target, t0, t1, xtol=xtol)
            got = _hermite_crossing(t0, y0, f0, t1, y1, f1, target, xtol)
            assert t0 < got < t1
            # the cubic's value is known to a few ulps of this scale, which
            # fixes the root only to that scale over the slope
            scale = abs(y0) + abs(y1) + (t1 - t0) * (f0 + f1)
            slope = _hermite_slope(t0, y0, f0, t1, y1, f1, ref)
            assert abs(got - ref) <= 2.0 * xtol + 8.0 * EPS * (abs(ref) + scale / slope)


class TestAdaptiveIntegrator:
    def test_reaches_horizon(self):
        res = integrate_increasing(lambda t, y: 1.0 + 0.0 * y, 0.0, 0.0, 2.0)
        assert res.status == "tau_max"
        assert res.y[-1] == pytest.approx(2.0, abs=1e-12)

    def test_exponential_accuracy(self):
        res = integrate_increasing(
            lambda t, y: y, 0.0, 1.0, 1.0, rtol=1e-10, atol=1e-13, max_step=0.01
        )
        assert abs(res.y[-1] - np.e) <= 1e-9

    def test_target_event_is_sharp(self):
        res = integrate_increasing(lambda t, y: y, 0.0, 1.0, 10.0, target=2.0, max_step=0.05)
        assert res.status == "target"
        assert res.y[-1] == 2.0
        assert res.tau[-1] == pytest.approx(np.log(2.0), abs=1e-8)

    def test_stiffness_error_without_explosion(self):
        # a non-evaluable well ahead of the front keeps rejecting trial steps
        # until the controller underflows while the slope stays bounded
        def rhs(t, y):
            return np.nan if 0.5 <= t <= 0.7 else 1.0

        with pytest.raises(StiffnessError):
            integrate_increasing(rhs, 0.0, 0.0, 1.0, rtol=1e-10, atol=1e-13)
