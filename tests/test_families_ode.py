import numpy as np
import pytest

from degenpde.errors import StiffnessError
from degenpde.families import (
    SpaceTimeField,
    affine_field,
    constant_field,
    constant_rate,
    gaussian_bump_field,
    linear_rate,
    piecewise_rate,
    zero_field,
)
from degenpde.model import MbsModel, discount_and_xi
from degenpde.ode import integrate_increasing


class TestSpaceTimeField:
    def test_finite_difference_fallbacks(self):
        raw = SpaceTimeField(
            fn=lambda x, t: np.sin(x[..., 0]) * np.exp(-t), dim=1, scale=1.0
        )
        x = np.array([[0.4], [1.1]])
        np.testing.assert_allclose(raw.grad(x, 0.3)[:, 0], np.cos(x[:, 0]) * np.exp(-0.3), atol=1e-9)
        np.testing.assert_allclose(
            raw.hess(x, 0.3)[:, 0, 0], -np.sin(x[:, 0]) * np.exp(-0.3), atol=1e-6
        )
        np.testing.assert_allclose(
            raw.time_derivative(x, 0.3), -np.sin(x[:, 0]) * np.exp(-0.3), atol=1e-7
        )

    def test_gaussian_bump_analytic_derivatives_match_fd(self):
        bump = gaussian_bump_field(2, amplitude=0.7, center=0.3, width=1.2, ramp=2.0)
        raw = SpaceTimeField(fn=bump.fn, dim=2, scale=1.2)
        x = np.array([[0.1, -0.4], [0.8, 0.2]])
        np.testing.assert_allclose(bump.grad(x, 0.5), raw.grad(x, 0.5), atol=1e-8)
        np.testing.assert_allclose(bump.hess(x, 0.5), raw.hess(x, 0.5), atol=1e-5)
        np.testing.assert_allclose(bump.time_derivative(x, 0.5), raw.time_derivative(x, 0.5), atol=1e-7)

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
