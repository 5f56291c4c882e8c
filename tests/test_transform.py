import os

import numpy as np
import pytest

from degenpde import cli
from degenpde.config import load_config
from degenpde.errors import ContractViolationError, IntegrationError, ParameterError
from degenpde.families import SpaceTimeField
from degenpde.model import discount_and_xi, mbs_to_general
from degenpde.solver import GridSpec, solve
from degenpde.transform import (
    invert,
    primitive_lambda,
    solve_Q,
    structural_check,
    transformed_problem,
)

from conftest import make_general_coeffs

REPO = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def zero_lambda(u):
    return np.zeros_like(np.asarray(u, dtype=float))


def reciprocal_lambda(u, scale=0.5):
    return scale / np.asarray(u, dtype=float)


def closed_form_q(tau, c):
    # dQ/dtau = exp(4 sqrt(tau+1)) integrates, via v = sqrt(tau+1), to
    # Q = c + [e^{4v} (v/2 - 1/8)] evaluated between v = 1 and sqrt(tau+1)
    f = lambda v: np.exp(4.0 * v) * (v / 2.0 - 1.0 / 8.0)
    return c + f(np.sqrt(tau + 1.0)) - f(1.0)


class TestPrimitive:
    def test_zero_coefficient_gives_zero_primitive(self):
        prim = primitive_lambda(zero_lambda, 1.0, u_hi=3.0)
        us = np.linspace(1.0, 3.0, 101)
        np.testing.assert_allclose(prim(us), 0.0, atol=1e-15)

    def test_reciprocal_closed_form(self):
        prim = primitive_lambda(reciprocal_lambda, 1.0, u_hi=3.0)
        us = np.linspace(1.0, 2.8, 200)
        np.testing.assert_allclose(prim(us), 0.5 * np.log(us), atol=1e-11)

    @pytest.mark.parametrize(
        "lam,c",
        [
            (zero_lambda, 1.0),
            (reciprocal_lambda, 0.5),
            (reciprocal_lambda, 2.0),
            (lambda u: np.full_like(np.asarray(u, dtype=float), 0.3), 1.0),
        ],
    )
    def test_normalization_at_c(self, lam, c):
        prim = primitive_lambda(lam, c, u_hi=c + 2.0)
        assert prim(c) == 0.0

    def test_derivative_reproduces_coefficient(self):
        prim = primitive_lambda(reciprocal_lambda, 1.0, u_hi=3.0)
        us = np.linspace(1.05, 2.9, 57)
        np.testing.assert_allclose(prim.derivative(us), reciprocal_lambda(us), atol=1e-10)

    def test_nonfinite_sample_rejected(self):
        def bad(u):
            u = np.asarray(u, dtype=float)
            with np.errstate(divide="ignore"):
                return 1.0 / (u - 2.0)

        with pytest.raises(IntegrationError):
            primitive_lambda(bad, 1.0, u_hi=3.0)


class TestSolveQ:
    def test_closed_form_flat_primitive(self):
        prim = primitive_lambda(zero_lambda, 1.0, u_hi=3.0)
        pair = solve_Q(prim, 1.0, "semiconvex", tau_max=5.0, q_target=2.05)
        assert pair.status == "target"
        assert pair.q(0.0) == pytest.approx(1.0, abs=1e-14)
        taus = np.linspace(0.0, pair.tau_end, 5000)
        np.testing.assert_allclose(pair.q(taus), closed_form_q(taus, 1.0), atol=1e-11)

    def test_strictly_increasing(self):
        prim = primitive_lambda(reciprocal_lambda, 1.0, u_hi=3.0)
        for mode, l_exp in (("semiconvex", None), ("semiconcave", 4.0)):
            pair = solve_Q(prim, 1.0, mode, tau_max=5.0, q_target=2.05, l_exp=l_exp or 4.0)
            assert np.all(np.diff(pair.q_knots) > 0.0)
            assert pair.min_slope() > 0.0

    def test_richardson_self_consistency(self):
        # the tabulation at doubled knot density agrees to 1e-8
        prim = primitive_lambda(reciprocal_lambda, 1.0, u_hi=3.0)
        coarse = solve_Q(prim, 1.0, "semiconvex", tau_max=5.0, q_target=2.05, min_knots=800)
        fine = solve_Q(prim, 1.0, "semiconvex", tau_max=5.0, q_target=2.05, min_knots=1600)
        taus = np.linspace(0.0, min(coarse.tau_end, fine.tau_end), 4001)
        assert np.abs(coarse.q(taus) - fine.q(taus)).max() <= 1e-8

    def test_ode_residual_at_midpoints(self):
        prim = primitive_lambda(reciprocal_lambda, 1.0, u_hi=3.0)
        for mode, gp in (
            ("semiconvex", lambda tau: 4.0 * np.sqrt(tau + 1.0)),
            ("semiconcave", lambda tau: -0.4 * (tau + 1.0) ** 5),
        ):
            pair = solve_Q(prim, 1.0, mode, tau_max=6.0, q_target=2.05, l_exp=4.0)
            mids = 0.5 * (pair.tau_knots[1:] + pair.tau_knots[:-1])
            slope = pair._q_spline.derivative(mids)
            rhs = np.exp(gp(mids) + 2.0 * prim(pair.q(mids)))
            assert np.abs(slope - rhs).max() <= 1e-8

    def test_semiconcave_requires_large_exponent(self):
        prim = primitive_lambda(reciprocal_lambda, 1.0, u_hi=3.0)
        with pytest.raises(ParameterError):
            solve_Q(prim, 1.0, "semiconcave", tau_max=5.0, q_target=2.0, l_exp=3.0)

    def test_blow_up_reported_with_time(self):
        # strong positive coefficient: the slope grows like exp(2 Q), so the
        # map explodes before reaching a distant target
        lam = lambda u: np.ones_like(np.asarray(u, dtype=float))
        prim = primitive_lambda(lam, 0.0, u_hi=60.0)
        pair = solve_Q(prim, 0.0, "semiconvex", tau_max=5.0, q_target=1e9)
        assert pair.status == "blow_up"
        assert pair.blow_up_tau is not None
        assert 0.0 < pair.blow_up_tau < 5.0


class TestInvert:
    def test_round_trip_closed_form(self):
        prim = primitive_lambda(zero_lambda, 1.0, u_hi=3.0)
        pair = solve_Q(prim, 1.0, "semiconvex", tau_max=5.0, q_target=2.05)
        invert(pair)
        taus = np.linspace(0.0, pair.tau_end, 10_000)
        assert np.abs(pair.p(pair.q(taus)) - taus).max() <= 1e-10
        us = np.linspace(*pair.image, 10_000)
        assert np.abs(pair.q(pair.p(us)) - us).max() <= 1e-10

    def test_endpoint_normalization(self):
        prim = primitive_lambda(reciprocal_lambda, 1.0, u_hi=3.0)
        pair = solve_Q(prim, 1.0, "semiconvex", tau_max=5.0, q_target=2.05)
        invert(pair)
        assert pair.p(1.0) == pytest.approx(0.0, abs=1e-14)

    def test_nearly_affine_segment_inverts_affinely(self):
        # over a very short range Q is affine to leading order and so is P
        prim = primitive_lambda(zero_lambda, 1.0, u_hi=1.5)
        pair = solve_Q(prim, 1.0, "semiconvex", tau_max=1e-4, q_target=1.4)
        invert(pair)
        lo, hi = pair.image
        us = np.linspace(lo, hi, 50)
        p_vals = pair.p(us)
        slope = (p_vals[-1] - p_vals[0]) / (us[-1] - us[0])
        affine = p_vals[0] + slope * (us - us[0])
        assert np.abs(p_vals - affine).max() <= 1e-4 * (p_vals[-1] - p_vals[0])

    def test_non_monotone_tabulation_rejected(self):
        prim = primitive_lambda(zero_lambda, 1.0, u_hi=3.0)
        pair = solve_Q(prim, 1.0, "semiconvex", tau_max=5.0, q_target=2.05)
        pair.q_knots[3] = pair.q_knots[2]
        with pytest.raises(ContractViolationError):
            invert(pair)


class TestStructuralCheck:
    def test_semiconvex_profile_against_symbolic_oracle(self):
        sympy = pytest.importorskip("sympy")
        prim = primitive_lambda(reciprocal_lambda, 1.0, u_hi=3.0)
        pair = solve_Q(prim, 1.0, "semiconvex", tau_max=5.0, q_target=2.05)
        invert(pair)
        report = structural_check(pair, lambda u: -1.0 / np.asarray(u, dtype=float), (1.0, 2.0))

        tau = sympy.symbols("tau", positive=True)
        lam_t = -((1 + tau) ** sympy.Rational(-1, 2))
        d1 = sympy.diff(lam_t, tau)
        d2 = sympy.diff(lam_t, tau, 2)
        disc = sympy.simplify(lam_t * d2 - 2 * d1**2)
        assert sympy.simplify(disc - sympy.Rational(1, 4) * (1 + tau) ** -3) == 0

        tau_lo, tau_hi = report["tau_range"]
        assert report["lambda_tilde"]["all_negative"]
        assert report["lambda_tilde_prime"]["min"] > 0.0
        assert report["discriminant"]["all_positive"]
        expected_min = float(disc.subs(tau, tau_hi))
        assert report["discriminant"]["min"] == pytest.approx(expected_min, rel=1e-4)
        # strict margin at the far end of the probed interval
        assert report["discriminant"]["min"] >= 0.25 * (1.0 + pair.tau_end) ** -3 - 1e-12

    def test_transformed_quadratic_coefficient_closed_forms(self):
        prim = primitive_lambda(reciprocal_lambda, 1.0, u_hi=3.0)
        coeffs = make_general_coeffs(
            lambda_fn=reciprocal_lambda,
            eta_fn=lambda u: -1.0 / np.asarray(u, dtype=float),
            domain=(0.0, np.inf),
            value_interval=(1.0, 2.0),
        )
        for mode, expected in (
            ("semiconvex", lambda tau: -((1.0 + tau) ** -0.5)),
            ("semiconcave", lambda tau: (1.0 + tau) ** 4),
        ):
            pair = solve_Q(prim, 1.0, mode, tau_max=6.0, q_target=2.05, l_exp=4.0)
            invert(pair)
            prob = transformed_problem(pair, coeffs)
            taus = np.linspace(0.0, pair.tau_end * 0.999, 301)
            got = prob.quad_coeff(np.zeros((301, 1)), 0.1, taus)
            np.testing.assert_allclose(got, expected(taus), rtol=1e-9, atol=1e-11)

    @pytest.mark.parametrize("mode,l_exp", [("semiconvex", 4.0), ("semiconcave", 4.0)])
    def test_substitution_residual_equality(self, mode, l_exp):
        # Lock the derived tau-equation: for a smooth probe phi valued in the
        # tau-interval, the original residual of Q(phi) must equal
        # Q'(phi) times the transformed residual of phi, pointwise.
        prim = primitive_lambda(reciprocal_lambda, 1.0, u_hi=3.5)
        coeffs = make_general_coeffs(
            sigma_matrix=np.array([[0.8]]),
            lambda_fn=reciprocal_lambda,
            eta_fn=lambda u: -1.0 / np.asarray(u, dtype=float),
            f=lambda x, t, u: 0.2 * np.sin(x[..., 0]) + 0.1 * u,
            w=lambda x, t: 0.3 * np.cos(x[..., 0])[..., None],
            domain=(0.0, np.inf),
            value_interval=(1.0, 2.0),
        )
        pair = solve_Q(prim, 1.0, mode, tau_max=6.0, q_target=2.2, l_exp=l_exp)
        invert(pair)
        prob_tau = transformed_problem(pair, coeffs)
        prob_u = coeffs.as_problem()

        tau_lo, tau_hi = prob_tau.value_interval
        mid = 0.5 * (tau_lo + tau_hi)
        amp = 0.35 * (tau_hi - tau_lo)
        phi = SpaceTimeField(
            fn=lambda x, t: mid + amp * np.sin(1.3 * x[..., 0] + 0.7 * t),
            grad=lambda x, t: (amp * 1.3 * np.cos(1.3 * x[..., 0] + 0.7 * t))[..., None],
            hess=lambda x, t: (-amp * 1.3**2 * np.sin(1.3 * x[..., 0] + 0.7 * t))[..., None, None],
            dt=lambda x, t: amp * 0.7 * np.cos(1.3 * x[..., 0] + 0.7 * t),
            dim=1,
        )
        rng = np.random.default_rng(8)
        worst = 0.0
        for _ in range(40):
            x = rng.uniform(-2.0, 2.0, size=(1,))
            t = rng.uniform(0.0, 0.9)
            xb = x[None, :]
            tau_v = float(phi(xb, t)[0])
            g = phi.grad(xb, t)[0]
            hh = phi.hess(xb, t)[0]
            dtv = float(phi.time_derivative(xb, t)[0])
            resid_tau = dtv + prob_tau.hamiltonian(x, t, tau_v, g, hh)

            qp = float(pair.q_prime(tau_v))
            qpp = float(pair.q_second(tau_v))
            u_v = float(pair.q(tau_v))
            gu = qp * g
            hu = qp * hh + qpp * np.outer(g, g)
            du = qp * dtv
            resid_u = du + prob_u.hamiltonian(x, t, u_v, gu, hu)
            worst = max(worst, abs(resid_u - qp * resid_tau))
        assert worst <= 1e-7

    def test_semiconcave_signs(self):
        prim = primitive_lambda(reciprocal_lambda, 1.0, u_hi=3.0)
        pair = solve_Q(prim, 1.0, "semiconcave", tau_max=6.0, q_target=2.05, l_exp=4.0)
        invert(pair)
        report = structural_check(pair, lambda u: -1.0 / np.asarray(u, dtype=float), (1.0, pair.image[1]))
        assert report["lambda_tilde"]["all_positive"]
        assert report["lambda_tilde_prime"]["min"] > 0.0
        # the proof-side curvature condition 2 (lam')^2 / lam - lam'' > 0
        assert report["curvature_ratio"]["all_positive"]
        assert report["eta_tilde"]["sup"] < np.inf


class TestTabulationSmoothness:
    def test_q_second_differences_bounded(self):
        prim = primitive_lambda(reciprocal_lambda, 1.0, u_hi=3.0)
        pair = solve_Q(prim, 1.0, "semiconvex", tau_max=5.0, q_target=2.05)
        bound = pair.second_difference_bound()
        # |Q''| = Q' (g' + 2 lambda Q') stays below its endpoint value
        q_end = pair.q(pair.tau_end)
        qp_end = float(pair.q_prime(pair.tau_end))
        analytic = qp_end * (2.0 / np.sqrt(pair.tau_end + 1.0) + 2.0 * 0.5 / q_end * qp_end)
        assert np.isfinite(bound)
        assert bound <= 1.05 * analytic


class TestThreeMarches:
    """U, u = U + h + xi and tau = P(u) marched on one grid per level.

    The config's own objects: ``cfg.problem`` is ``mbs_price_problem``, u is
    the reduction ``mbs_to_general`` and tau is ``transformed_problem`` on the
    pair ``transform-check`` builds. u and Q(tau) differ from U + h + xi by
    their own grid errors, so the test gates on the observed order, not on a
    tolerance. Measured at 101/201/401 nodes: |u - (U+h+xi)| 1.353e-2,
    3.366e-3, 8.421e-4 (orders 2.007, 1.999) and |Q(tau) - (U+h+xi)|
    1.809e-2, 4.469e-3, 1.116e-3 (orders 2.017, 2.002); the bound 1.9 leaves
    a margin of 0.1. At 51 nodes the u march leaves the interval the pair
    covers, so the levels start at 101.
    """

    NODES = (101, 201, 401)
    MIN_ORDER = 1.9

    @pytest.fixture(scope="class")
    def errors(self):
        cfg = load_config(os.path.join(REPO, "configs", "benchmark.ini"))
        pair = cli._transform_pair(cfg.transform)
        lo, _ = cfg.transform["interval"]
        reduced = mbs_to_general(cfg.model, cfg.sigma, cfg.mu, (lo, pair.target))
        tau_problem = transformed_problem(pair, reduced)
        xi, _ = discount_and_xi(cfg.model)
        h = cfg.model.principal_h
        off = (slice(None), slice(cfg.collar, -cfg.collar))
        out = {"u": [], "Q(tau)": []}
        for nodes in self.NODES:
            grid, _ = GridSpec.stable(cfg.problem, 1, cfg.grid.half_width[0], nodes, cfg.horizon)
            mesh = grid.mesh()
            u0 = cfg.u0(mesh) + h(mesh, 0.0) + xi(0.0)
            U = solve(cfg.problem, cfg.u0, grid).values
            u = solve(reduced.as_problem(), u0, grid).values
            tau = solve(tau_problem, pair.p(u0), grid).values
            reference = U + np.stack([h(mesh, t) + xi(t) for t in grid.times])
            out["u"].append(np.abs(u - reference)[off].max())
            out["Q(tau)"].append(np.abs(pair.q(tau) - reference)[off].max())
        return out

    @pytest.mark.parametrize("unknown", ["u", "Q(tau)"])
    def test_difference_converges_at_second_order(self, errors, unknown):
        e = np.asarray(errors[unknown])
        orders = np.log2(e[:-1] / e[1:])
        assert np.all(orders > self.MIN_ORDER), (unknown, e, orders)
