import numpy as np
import pytest

from degenpde.errors import (
    ContractViolationError,
    DomainViolationError,
    PositivityError,
)
from degenpde.families import (
    SpaceTimeField,
    constant_rate,
    constant_sigma,
    gaussian_bump_field,
    linear_drift,
    linear_rate,
    zero_drift,
    zero_field,
)
from degenpde.model import (
    MbsModel,
    discount_and_xi,
    mbs_price_problem,
    mbs_to_general,
)

from conftest import make_general_coeffs, make_benchmark_model


def test_hamiltonian_vanishes_without_data():
    coeffs = make_general_coeffs()
    H = coeffs.as_problem().hamiltonian
    assert H(np.array([0.3]), 0.2, 0.5, np.zeros(1), np.zeros((1, 1))) == 0.0


def test_hamiltonian_pure_trace():
    coeffs = make_general_coeffs()
    val = coeffs.as_problem().hamiltonian(np.array([0.0]), 0.0, 0.5, np.zeros(1), np.array([[1.0]]))
    assert val == pytest.approx(-0.5, abs=1e-15)


def test_hamiltonian_matches_direct_pricing_expression():
    # DM1-derived coefficients with h == 0, r == 0: compare against a direct
    # evaluation of the pricing operator at the matching point (u = U + 1).
    model = MbsModel(
        rho=0.5,
        coupon_tau=0.06,
        rate_r=constant_rate(0.0),
        principal_h=zero_field(1),
        horizon=1.0,
        dim=1,
    )
    sigma = constant_sigma([[1.0]])
    mu = zero_drift(1)
    coeffs = mbs_to_general(model, sigma, mu, value_interval=(0.5, 4.0))
    x, t, u, p, X = np.array([0.0]), 0.5, 2.0, np.array([1.0]), np.array([[0.0]])
    got = coeffs.as_problem().hamiltonian(x, t, u, p, X)
    # direct pricing operator at U = u - 1, grad U = p, hess U = X (h = 0, r = 0)
    rho = model.rho
    direct = -0.5 * X[0, 0] - 0.0 * p[0] + rho * p[0] ** 2 / (u - 1.0 + 0.0 + 1.0)
    assert got == pytest.approx(direct, abs=1e-14)


def test_hamiltonian_linear_in_hessian():
    # H(X1 + X2) - H(X1) - H(X2) + (duplicated non-trace part) == 0
    model = make_benchmark_model()
    coeffs = mbs_to_general(model, constant_sigma([[1.0]]), zero_drift(1), value_interval=(0.5, 4.0))
    H = coeffs.as_problem().hamiltonian
    rng = np.random.default_rng(42)
    for _ in range(20):
        x = rng.uniform(-2, 2, size=1)
        t = rng.uniform(0.0, 0.9)
        u = rng.uniform(0.8, 3.0)
        p = rng.normal(size=1)
        x1 = np.array([[rng.normal()]])
        x2 = np.array([[rng.normal()]])
        h_sum = H(x, t, u, p, x1 + x2)
        h1 = H(x, t, u, p, x1)
        h2 = H(x, t, u, p, x2)
        h0 = H(x, t, u, p, np.zeros((1, 1)))
        assert h_sum - h1 - h2 + h0 == pytest.approx(0.0, abs=1e-12)


def test_hamiltonian_rows_match_pointwise_calls():
    # the vectorized call is the pointwise one applied row by row, and an
    # explicit drift_p replaces p in the drift term only
    sig = np.array([[1.0, 0.0], [0.5, 0.8]])
    coeffs = make_general_coeffs(
        dim=2,
        sigma_matrix=sig,
        mu=linear_drift(2, -0.7),
        lambda_fn=lambda u: 0.3 / np.asarray(u, dtype=float),
        eta_fn=lambda u: -0.2 * np.asarray(u, dtype=float),
        f=lambda x, t, u: np.sin(x[..., 0]) * u,
        w=lambda x, t: np.stack([np.cos(x[..., 1]), x[..., 0]], axis=-1),
        domain=(0.0, np.inf),
        value_interval=(0.5, 2.0),
    )
    problem = coeffs.as_problem()
    rng = np.random.default_rng(5)
    x = rng.uniform(-2.0, 2.0, size=(6, 2))
    u = rng.uniform(0.6, 1.9, size=6)
    p = rng.normal(size=(6, 2))
    q = rng.normal(size=(6, 2))
    A = rng.normal(size=(6, 2, 2))
    X = A + np.swapaxes(A, -1, -2)
    rows = problem.hamiltonian(x, 0.4, u, p, X)
    pointwise = [problem.hamiltonian(x[i], 0.4, u[i], p[i], X[i]) for i in range(6)]
    np.testing.assert_allclose(rows, pointwise, rtol=1e-14, atol=1e-14)
    shifted = problem.hamiltonian(x, 0.4, u, p, X, drift_p=q)
    drift_change = np.sum(-0.7 * x * (q - p), axis=-1)
    np.testing.assert_allclose(shifted - rows, drift_change, rtol=1e-12, atol=1e-12)


class TestMbsToGeneral:
    def test_trivial_instance(self):
        model = MbsModel(
            rho=0.7,
            coupon_tau=0.05,
            rate_r=constant_rate(0.0),
            principal_h=zero_field(1),
            horizon=1.0,
            dim=1,
        )
        coeffs = mbs_to_general(model, constant_sigma([[1.0]]), zero_drift(1), value_interval=(0.5, 4.0))
        x = np.array([[0.4], [1.0]])
        u = np.array([1.5, 2.5])
        assert np.all(coeffs.w(x, 0.3) == 0.0)
        np.testing.assert_allclose(coeffs.f(x, 0.3, u), 0.0, atol=1e-14)
        np.testing.assert_allclose(coeffs.lambda_fn(u), 0.7 / u)
        np.testing.assert_allclose(coeffs.eta_fn(u), -1.4 / u)

    def test_rate_equal_coupon_keeps_zero_price_solution(self):
        # With r == tau, U == 0 solves the pricing equation: the mapped source
        # must cancel the remaining terms at u = h + xi pointwise.
        model = make_benchmark_model(rate=0.06, coupon=0.06)
        sigma = constant_sigma([[1.0]])
        mu = zero_drift(1)
        coeffs = mbs_to_general(model, sigma, mu, value_interval=(0.25, 4.0))
        problem = coeffs.as_problem()
        xi, _ = discount_and_xi(model)
        h = model.principal_h
        rng = np.random.default_rng(3)
        for _ in range(25):
            x = rng.uniform(-3, 3, size=(1,))
            t = rng.uniform(0.01, 0.95)
            xb = x[None, :]
            u = float(h(xb, t)[0] + xi(t))
            p = h.grad(xb, t)[0]
            X = h.hess(xb, t)[0]
            dt_u = float(h.time_derivative(xb, t)[0]) + float(model.rate_r(t)) * float(xi(t))
            resid = dt_u + problem.hamiltonian(x, t, u, p, X)
            assert abs(resid) < 1e-10

    def test_residual_equality_on_random_probes(self):
        # The pricing-equation residual of a smooth probe U equals the
        # general-form residual of U + h + xi, pointwise.
        model = make_benchmark_model()
        sigma = constant_sigma([[1.0]])
        mu = zero_drift(1)
        coeffs = mbs_to_general(model, sigma, mu, value_interval=(0.05, 6.0))
        problem = coeffs.as_problem()
        xi, _ = discount_and_xi(model)
        h = model.principal_h
        rho, tau = model.rho, model.coupon_tau
        rng = np.random.default_rng(11)
        worst = 0.0
        for _ in range(50):
            a0, a1, a2, b0 = rng.normal(scale=0.3, size=4)
            probe = SpaceTimeField(
                fn=lambda x, t, a0=a0, a1=a1, a2=a2, b0=b0: (
                    a0 + a1 * x[..., 0] + a2 * x[..., 0] ** 2 + b0 * t * np.sin(x[..., 0])
                ),
                grad=lambda x, t, a1=a1, a2=a2, b0=b0: (
                    a1 + 2.0 * a2 * x[..., 0] + b0 * t * np.cos(x[..., 0])
                )[..., None],
                hess=lambda x, t, a2=a2, b0=b0: (
                    2.0 * a2 - b0 * t * np.sin(x[..., 0])
                )[..., None, None],
                dt=lambda x, t, b0=b0: b0 * np.sin(x[..., 0]),
                dim=1,
            )
            x = rng.uniform(-2, 2, size=(1,))
            t = rng.uniform(0.05, 0.9)
            xb = x[None, :]
            uv = float(probe(xb, t)[0])
            gu = probe.grad(xb, t)[0]
            hu = probe.hess(xb, t)[0]
            du = float(probe.time_derivative(xb, t)[0])
            hv = float(h(xb, t)[0])
            xiv = float(xi(t))
            denom = uv + hv + xiv
            if denom < 0.2:
                continue
            sig = np.asarray(sigma(t))
            sp = sig.T @ gu
            pricing_resid = (
                du
                - 0.5 * float(np.trace(sig @ sig.T @ hu))
                - 0.0
                + rho * float(sp @ sp) / denom
                + float(model.rate_r(t)) * (uv + hv)
                - tau * hv
            )
            u_full = uv + hv + xiv
            p_full = gu + h.grad(xb, t)[0]
            X_full = hu + h.hess(xb, t)[0]
            dt_full = du + float(h.time_derivative(xb, t)[0]) + float(model.rate_r(t)) * xiv
            general_resid = dt_full + problem.hamiltonian(x, t, u_full, p_full, X_full)
            worst = max(worst, abs(pricing_resid - general_resid))
        assert worst < 1e-9

    def test_price_problem_matches_general_reduction_on_probes(self):
        # Shared oracle for the two reductions of the pricing equation: with a
        # drift and a time-dependent rate, the residual dU/dt + H of
        # mbs_price_problem equals the general-form residual of u = U + h + xi.
        h = gaussian_bump_field(1, amplitude=0.8, center=0.3, width=1.2, ramp=3.0)
        model = MbsModel(
            rho=0.5, coupon_tau=0.06, rate_r=linear_rate(0.05, 0.02), principal_h=h, horizon=1.0
        )
        sigma = constant_sigma([[0.9]])
        mu = linear_drift(1, -0.7)
        price = mbs_price_problem(model, sigma, mu, value_interval=(-0.5, 2.0))
        general = mbs_to_general(model, sigma, mu, value_interval=(0.05, 6.0)).as_problem()
        xi, _ = discount_and_xi(model)
        rng = np.random.default_rng(23)
        worst = 0.0
        for _ in range(50):
            a0, a1, a2, b0 = rng.normal(scale=0.3, size=4)
            probe = SpaceTimeField(
                fn=lambda x, t, a0=a0, a1=a1, a2=a2, b0=b0: (
                    a0 + a1 * x[..., 0] + a2 * x[..., 0] ** 2 + b0 * t * np.sin(x[..., 0])
                ),
                grad=lambda x, t, a1=a1, a2=a2, b0=b0: (
                    a1 + 2.0 * a2 * x[..., 0] + b0 * t * np.cos(x[..., 0])
                )[..., None],
                hess=lambda x, t, a2=a2, b0=b0: (
                    2.0 * a2 - b0 * t * np.sin(x[..., 0])
                )[..., None, None],
                dt=lambda x, t, b0=b0: b0 * np.sin(x[..., 0]),
                dim=1,
            )
            x = rng.uniform(-2.0, 2.0, size=(8, 1))
            t = rng.uniform(0.05, 0.9)
            U = probe(x, t)
            u = U + h(x, t) + xi(t)
            keep = u > 0.2
            price_resid = probe.time_derivative(x, t) + price.hamiltonian(
                x, t, U, probe.grad(x, t), probe.hess(x, t)
            )
            general_resid = (
                probe.time_derivative(x, t)
                + h.time_derivative(x, t)
                + float(model.rate_r(t)) * xi(t)
                + general.hamiltonian(
                    x, t, u, probe.grad(x, t) + h.grad(x, t), probe.hess(x, t) + h.hess(x, t)
                )
            )
            diff = np.abs(price_resid - general_resid)[keep]
            worst = max(worst, float(diff.max(initial=0.0)))
        assert worst < 1e-9

    def test_positivity_guard(self):
        model = make_benchmark_model()
        with pytest.raises(PositivityError):
            mbs_to_general(model, constant_sigma([[1.0]]), zero_drift(1), value_interval=(-0.1, 2.0))
        with pytest.raises(PositivityError):
            mbs_price_problem(model, constant_sigma([[1.0]]), zero_drift(1), value_interval=(-1.5, 2.0))


class TestDiscountAndXi:
    def test_zero_rate(self):
        model = make_benchmark_model(rate=0.0)
        xi, disc = discount_and_xi(model)
        assert xi(0.0) == 1.0
        assert xi(0.7) == pytest.approx(1.0, abs=1e-14)
        assert disc(0.2, 0.9) == pytest.approx(1.0, abs=1e-14)

    def test_constant_rate_closed_form(self):
        model = make_benchmark_model(rate=0.05)
        _, disc = discount_and_xi(model)
        assert disc(0.0, 1.0) == pytest.approx(np.exp(-0.05), abs=1e-12)

    def test_linear_rate_closed_form(self):
        h = gaussian_bump_field(1, ramp=3.0)
        model = MbsModel(
            rho=0.5, coupon_tau=0.06, rate_r=linear_rate(1.0), principal_h=h, horizon=1.0, dim=1
        )
        xi, _ = discount_and_xi(model)
        assert xi(1.0) == pytest.approx(np.exp(0.5), abs=1e-12)

    def test_discount_multiplicative_and_monotone(self):
        model = make_benchmark_model(rate=0.04)
        _, disc = discount_and_xi(model)
        assert disc(0.3, 0.3) == pytest.approx(1.0, abs=1e-14)
        assert disc(0.1, 0.5) * disc(0.5, 0.9) == pytest.approx(disc(0.1, 0.9), abs=1e-12)
        ss = np.linspace(0.0, 1.0, 11)
        vals = disc(0.0, ss)
        assert np.all(np.diff(vals) < 0.0)

    def test_rate_without_integral_rejected(self):
        with pytest.raises(ContractViolationError):
            MbsModel(
                rho=0.5,
                coupon_tau=0.06,
                rate_r=lambda t: 0.03 + 0.0 * np.asarray(t, dtype=float),
                principal_h=zero_field(1),
                horizon=1.0,
            )

    def test_xi_invariants_checked(self):
        model = make_benchmark_model()
        assert model.validate(probe_points=np.linspace(-4, 4, 7)[:, None])


class TestCoefficientSetInvariants:
    def test_value_interval_must_sit_inside_domain(self):
        with pytest.raises(DomainViolationError):
            make_general_coeffs(domain=(0.0, 1.0), value_interval=(0.0, 0.5))

    def test_sigma_shape_checked(self):
        with pytest.raises(ContractViolationError):
            make_general_coeffs(dim=2, sigma_matrix=np.ones((1, 1)))

    def test_noise_dim_cannot_exceed_dim(self):
        with pytest.raises(ContractViolationError):
            make_general_coeffs(dim=1, sigma_matrix=np.ones((1, 2)))

    def test_range_compatibility_check(self):
        # w = sigma^T grad h lies in the range of sigma^T by construction
        model = make_benchmark_model()
        coeffs = mbs_to_general(model, constant_sigma([[1.0]]), zero_drift(1), value_interval=(0.5, 4.0))
        probes = np.linspace(-3, 3, 13)[:, None]
        assert coeffs.check_range_compatibility(probes, [0.1, 0.5, 0.9])

    def test_range_compatibility_rejects_orthogonal_w(self):
        # rank-1 sigma^T into R^2: its range is span{e1}, so w = e2 must fail
        coeffs = make_general_coeffs(
            dim=2,
            sigma_matrix=np.array([[1.0, 0.0], [0.0, 0.0]]),
            w=lambda x, t: np.broadcast_to(
                np.array([0.0, 1.0]), x.shape[:-1] + (2,)
            ).copy(),
        )
        probes = np.zeros((3, 2))
        with pytest.raises(ContractViolationError):
            coeffs.check_range_compatibility(probes, [0.0, 0.5])
