import numpy as np
import pytest

from degenpde.errors import ConfigurationError, ContractViolationError
from degenpde.model import CoefficientNorms
from degenpde import regularity
from degenpde.regularity import (
    BoundConstants,
    RegularityMeter,
    bound_constants,
    envelope_fit,
    field_sup_norms,
    initial_deviation_check,
    initial_slope_bound,
    lipschitz_estimates,
    minimize_bounded,
    second_difference_constants,
    solution_sobolev_norms,
    time_growth_constants,
)
from degenpde.solver import GridSpec, SolutionField, replay, residual_field, solve

from conftest import make_general_coeffs, stability_grid


def frozen_field(fn, grid):
    x_mesh = grid.mesh()
    vals = np.stack([fn(x_mesh[..., 0]) for _ in range(grid.steps + 1)])
    return SolutionField(vals, grid)


GRID = GridSpec(1, 8.0, 401, 10, 1.0)


class TestSecondDifferences:
    def test_quadratic_is_exact(self):
        field = frozen_field(lambda x: x**2, GRID)
        l_minus, l_plus = second_difference_constants(field, 0)
        assert l_minus == pytest.approx(0.0, abs=1e-10)
        assert l_plus == pytest.approx(2.0, abs=1e-9)

    def test_negated_quadratic_swaps_sides(self):
        field = frozen_field(lambda x: -(x**2), GRID)
        l_minus, l_plus = second_difference_constants(field, 0)
        assert l_minus == pytest.approx(2.0, abs=1e-9)
        assert l_plus == pytest.approx(0.0, abs=1e-10)

    def test_affine_has_no_curvature(self):
        field = frozen_field(lambda x: 1.3 * x - 0.4, GRID)
        l_minus, l_plus = second_difference_constants(field, 0)
        assert l_minus <= 1e-10 and l_plus <= 1e-10

    def test_quartic_against_enumeration_oracle(self):
        # brute-force enumeration over the same offset family
        grid = GridSpec(1, 2.0, 81, 10, 1.0)
        field = frozen_field(lambda x: x**4, grid)
        collar = 4
        cap = grid.half_width[0] / 4.0
        got = second_difference_constants(field, 0, max_offset=cap, collar=collar)
        x = grid.axes[0]
        u = field.values[0]
        dx = grid.dx[0]
        n = len(x)
        worst_lo, worst_hi = 0.0, 0.0
        max_m = int(np.floor(cap / dx))
        for m in range(1, max_m + 1):
            for j in range(max(collar, m), n - max(collar, m)):
                quot = (u[j + m] + u[j - m] - 2.0 * u[j]) / (m * dx) ** 2
                worst_lo = min(worst_lo, quot)
                worst_hi = max(worst_hi, quot)
        assert got[0] == pytest.approx(max(0.0, -worst_lo), abs=1e-12)
        assert got[1] == pytest.approx(worst_hi, abs=1e-12)

    def test_two_dimensional_bowl(self):
        grid = GridSpec(2, 4.0, 41, 4, 1.0)
        mesh = grid.mesh()
        vals = np.stack([np.sum(mesh**2, axis=-1)] * 5)
        field = SolutionField(vals, grid)
        l_minus, l_plus = second_difference_constants(field, 0, collar=2)
        assert l_minus == pytest.approx(0.0, abs=1e-9)
        assert l_plus == pytest.approx(2.0, abs=1e-8)


def _every_quotient_constants(field, k, max_offset, collar):
    """Reference: divide every second difference by h^2, then take extremes."""
    grid = field.grid
    u = field.values[k]
    dx = grid.dx
    worst_min = worst_max = 0.0
    for o in regularity._offset_vectors(grid, max_offset):
        h2 = float(sum((o[i] * dx[i]) ** 2 for i in range(grid.dim)))
        sl = []
        for oi, n in zip(o, grid.shape):
            m = max(collar, abs(int(oi)))
            if n - m <= m:
                break
            sl.append((slice(m, n - m), slice(m + oi, n - m + oi), slice(m - oi, n - m - oi)))
        else:
            center, plus, minus = (tuple(s[j] for s in sl) for j in range(3))
            quot = (u[plus] + u[minus] - 2.0 * u[center]) / h2
            worst_min = min(worst_min, float(quot.min()))
            worst_max = max(worst_max, float(quot.max()))
    return max(0.0, -worst_min), max(0.0, worst_max)


def _special_slices(shape, rng):
    noise = rng.standard_normal(shape)
    tiny = noise * 1e-310  # differences and quotients in the subnormal range
    ties = np.round(noise)  # many equal differences
    zeros = np.where(noise > 0.0, 0.0, -0.0)  # +0.0 and -0.0 mixed
    with_nan = noise.copy()
    with_nan.flat[len(with_nan.flat) // 2] = np.nan
    all_nan = np.full(shape, np.nan)
    return {
        "noise": noise,
        "huge": noise * 1e300,
        "tiny": tiny,
        "ties": ties,
        "zeros": zeros,
        "negative_zeros": np.full(shape, -0.0),
        "nan": with_nan,
        "all_nan": all_nan,
    }


@pytest.mark.parametrize("dim", [1, 2])
@pytest.mark.parametrize(
    "kind", ["noise", "huge", "tiny", "ties", "zeros", "negative_zeros", "nan", "all_nan"]
)
def test_second_difference_extremes_match_every_quotient(dim, kind):
    # the constants divide only each offset's extreme differences by h^2;
    # rounding x / h^2 is monotone, so they match the quotient extremes bit
    # for bit, ties, signed zeros and NaN slices included
    grid = GridSpec(dim, 1.3, 23, 1, 1.0)
    u = _special_slices(grid.shape, np.random.default_rng(11))[kind]
    field = SolutionField(np.stack([u, u]), grid)
    for cap, collar in ((None, 4), (0.5, 2), (0.1, 1)):
        got = second_difference_constants(field, 1, max_offset=cap, collar=collar)
        ref = _every_quotient_constants(field, 1, cap if cap is not None else 1.3 / 4.0, collar)
        assert [v.hex() for v in got] == [v.hex() for v in ref]


class TestEnvelopeFit:
    def test_exponential_series(self):
        ts = np.linspace(0.0, 1.0, 10)
        fit = envelope_fit(np.exp(ts), ts)
        assert abs(fit.rate - 1.0) <= 0.1
        assert fit.max_slack <= 1e-6
        assert np.all(fit.value(ts) >= np.exp(ts) - 1e-12)

    def test_constant_series(self):
        ts = np.linspace(0.0, 1.0, 10)
        fit = envelope_fit(np.full(10, 3.0), ts)
        assert fit.amplitude == pytest.approx(0.0, abs=1e-9)
        assert fit.offset == pytest.approx(3.0, abs=1e-9)

    def test_zero_series(self):
        ts = np.linspace(0.0, 1.0, 8)
        fit = envelope_fit(np.zeros(8), ts)
        assert (fit.amplitude, fit.rate, fit.offset) == (0.0, 0.0, 0.0)

    def test_envelope_dominates_noisy_series(self):
        rng = np.random.default_rng(0)
        ts = np.linspace(0.0, 2.0, 25)
        series = 0.5 * np.exp(1.7 * ts) + 0.2 + 0.05 * rng.standard_normal(25)
        fit = envelope_fit(series, ts)
        assert np.all(fit.value(ts) >= series - 1e-12)
        assert abs(fit.rate - 1.7) <= 0.4

    def test_needs_four_samples(self):
        with pytest.raises(ContractViolationError):
            envelope_fit(np.ones(3), np.linspace(0, 1, 3))


def _recorded(fn, calls):
    def recorder(x):
        calls.append(x)
        return fn(x)

    return recorder


def _scipy_bounded(fn, lo, hi, xatol):
    from scipy.optimize import minimize_scalar

    calls = []
    res = minimize_scalar(_recorded(fn, calls), bounds=(lo, hi), method="bounded", options={"xatol": xatol})
    return float(res.x), calls


def _ported_bounded(fn, lo, hi, xatol):
    calls = []
    return float(minimize_bounded(_recorded(fn, calls), lo, hi, xatol)), calls


class TestBoundedMinimizer:
    """The Brent port against scipy's minimize_scalar(method="bounded")."""

    def test_envelope_profile_iterates_match_scipy(self, monkeypatch):
        # capture the profile and bracket envelope_fit minimizes
        seen = []
        minimize = regularity.minimize_bounded

        def capture(func, lo, hi, xatol):
            seen.append((func, lo, hi, xatol))
            return minimize(func, lo, hi, xatol)

        monkeypatch.setattr(regularity, "minimize_bounded", capture)
        ts = np.linspace(0.0, 1.0, 40)
        rng = np.random.default_rng(5)
        envelope_fit(0.7 * np.exp(2.3 * ts) + 0.4 + 0.01 * rng.standard_normal(40), ts)
        assert len(seen) == 1
        func, lo, hi, xatol = seen[0]
        x_ref, calls_ref = _scipy_bounded(func, lo, hi, xatol)
        x, calls = _ported_bounded(func, lo, hi, xatol)
        assert len(calls) > 10
        assert calls == calls_ref
        assert x == x_ref

    @pytest.mark.parametrize(
        "fn,lo,hi",
        [
            # a kink and a wiggle: parabolic and golden steps both occur
            (lambda x: abs(x - 1.0 / 3.0) + 0.1 * np.sin(7.0 * x), 0.0, 3.0),
            # monotone: the minimizer runs into the upper bound
            (lambda x: -np.log1p(x), 0.5, 4.0),
            # a flat floor: equal values take the tie branches
            (lambda x: max(0.0, abs(x - 1.0) - 0.5), 0.0, 3.0),
        ],
        ids=["kink", "bound", "plateau"],
    )
    def test_other_functions_iterates_match_scipy(self, fn, lo, hi):
        for xatol in (1e-5, 1e-10):
            x_ref, calls_ref = _scipy_bounded(fn, lo, hi, xatol)
            x, calls = _ported_bounded(fn, lo, hi, xatol)
            assert calls == calls_ref
            assert x == x_ref


class TestLipschitz:
    def test_constant_field(self):
        field = frozen_field(lambda x: np.full_like(x, 0.7), GRID)
        rep = lipschitz_estimates(field)
        assert rep.lip_x.max() == 0.0 and rep.lip_t == 0.0

    def test_linear_frozen_field(self):
        field = frozen_field(lambda x: x, GRID)
        rep = lipschitz_estimates(field)
        assert rep.lip_x[0] == pytest.approx(1.0, abs=1e-12)
        assert rep.lip_t == 0.0

    @pytest.mark.parametrize("dim", [1, 2])
    def test_lip_t_equals_the_field_wide_time_difference(self, dim):
        # lip_t is taken one slice pair at a time; it equals the max of the
        # whole field's time difference quotients bit for bit
        grid = GridSpec(dim, 2.0, 21, 30, 0.7)
        rng = np.random.default_rng(3)
        steps = rng.normal(size=(grid.steps + 1,) + grid.shape) * rng.uniform(0.1, 10.0, size=grid.shape)
        vals = steps.cumsum(axis=0)
        box = (slice(None),) + tuple(slice(4, n - 4) for n in grid.shape)
        expected = float((np.abs(np.diff(vals[box], axis=0)) / grid.dt).max())
        assert lipschitz_estimates(SolutionField(vals, grid), collar=4).lip_t == expected

    def test_heat_flow_contracts_lipschitz(self, heat_setup):
        rep = lipschitz_estimates(heat_setup["field"], collar=4)
        lip = rep.lip_x
        stride = max(1, len(lip) // 40)
        sampled = lip[::stride]
        assert np.all(np.diff(sampled) <= 0.05 * sampled[:-1] + 1e-12)


class TestBoundConstants:
    def test_heat_initial_slope_bound(self, heat_setup):
        # for pure diffusion only the trace term survives: sup |H| over
        # |X| <= cap equals cap / 2, with cap the grid max of |u0''|
        problem = heat_setup["problem"]
        grid = heat_setup["grid"]
        x = grid.axes[0]
        hess_cap = float(np.max(np.abs((x**2 - 1.0) * np.exp(-(x**2) / 2.0))))
        assert hess_cap == pytest.approx(1.0, abs=1e-12)
        grad_cap = float(np.max(np.abs(-x * np.exp(-(x**2) / 2.0))))
        c0 = initial_slope_bound(problem, grid.axes, grid.horizon, grad_cap, hess_cap)
        assert c0 == pytest.approx(0.5, abs=1e-12)

    def test_time_growth_vanishes_for_frozen_coefficients(self):
        norms = CoefficientNorms(
            lambda_sup=0.0,
            eta_sup=0.0,
            sigma_t_sup=1.0,
            w_sup=0.0,
            mod_f_t=0.0,
            mod_sigma_sq_t=0.0,
            mod_sigma_t_t=0.0,
            mod_w_t=0.0,
            mod_mu_t=0.0,
        )
        b1, b2 = time_growth_constants(norms, w1=2.0, w2=5.0, dim=1)
        assert b1 == 0.0 and b2 == 0.0
        bc = BoundConstants(c0_init=1.0, b1=b1, b2=b2)
        assert bc.alpha(0.7) == 0.0

    def test_alpha_limit_and_closed_form(self):
        bc = BoundConstants(c0_init=3.0, b1=0.0, b2=1.0)
        assert bc.alpha(1.0) == pytest.approx(1.0, abs=1e-12)
        bc2 = BoundConstants(c0_init=1.0, b1=0.5, b2=2.0)
        expected = (np.exp(0.5) - 1.0) / 0.5 * (1.0 * 0.5 + 2.0)
        assert bc2.alpha(1.0) == pytest.approx(expected, rel=1e-12)

    def test_alpha_monotone_from_zero(self):
        bc = BoundConstants(c0_init=0.3, b1=1.2, b2=0.4)
        ts = np.linspace(0.0, 2.0, 50)
        vals = bc.alpha(ts)
        assert vals[0] == 0.0
        assert np.all(np.diff(vals) >= 0.0)

    def test_missing_modulus_is_configuration_error(self):
        norms = CoefficientNorms(lambda_sup=0.0)
        with pytest.raises(ConfigurationError):
            time_growth_constants(norms, 1.0, 1.0, 1)

    def test_bound_constants_requires_norms_for_time_growth(self, heat_setup):
        with pytest.raises(ConfigurationError):
            bound_constants(
                heat_setup["problem"],
                heat_setup["grid"].axes,
                1.0,
                (0.0, 1.0),
                solution_norms=(1.0, 2.0),
            )

    def test_lip_t_bounded_by_c0_plus_alpha_on_heat(self, heat_setup):
        # frozen coefficients: b1 = b2 = 0, so Lip_t <= c0 + scheme tolerance
        field = heat_setup["field"]
        grid = heat_setup["grid"]
        res = residual_field(field, collar=4)
        x = grid.axes[0]
        u0 = field.values[0]
        _, grad_cap, hess_cap = field_sup_norms(u0, [x])
        c0 = initial_slope_bound(heat_setup["problem"], grid.axes, grid.horizon, grad_cap, hess_cap)
        rep = lipschitz_estimates(field, collar=4)
        assert rep.lip_t <= c0 + 0.0 + 10.0 * res.max


class TestInitialDeviation:
    def test_constant_datum_no_deviation(self):
        coeffs = make_general_coeffs(value_interval=(-0.5, 1.5))
        problem = coeffs.as_problem()
        grid = stability_grid(1, 4.0, 81, 0.5, problem)
        field = solve(problem, lambda mesh: 0.5 * np.ones(mesh.shape[:-1]), grid)
        rep = initial_deviation_check(field, c0_init=0.0, tolerance=1e-12)
        assert rep.ok and rep.worst_ratio <= 1.0

    def test_first_heat_step_is_half_discrete_laplacian(self, heat_setup):
        field = heat_setup["field"]
        grid = heat_setup["grid"]
        u0 = field.values[0]
        lap = (u0[2:] - 2.0 * u0[1:-1] + u0[:-2]) / grid.dx[0] ** 2
        expected = grid.dt * 0.5 * np.abs(lap[3:-3]).max()
        got = np.abs(field.values[1] - u0)[4:-4].max()
        assert got == pytest.approx(expected, rel=1e-12)
        # covered by the initial-layer bound with the heat slope constant
        assert got <= 0.5 * grid.dt * (1.0 + 1e-6)

    def test_exact_pricing_solution_never_deviates(self, exact_setup):
        rep = initial_deviation_check(exact_setup["field"], c0_init=0.0, tolerance=1e-10)
        assert rep.ok


class TestSobolevNorms:
    def test_gaussian_slice_norms(self):
        x = np.linspace(-8.0, 8.0, 401)
        sup, grad, hess = field_sup_norms(np.exp(-(x**2) / 2.0), [x])
        assert sup == pytest.approx(1.0, abs=1e-12)
        assert grad == pytest.approx(np.exp(-0.5), abs=1e-3)
        assert hess == pytest.approx(1.0, abs=5e-3)

    def test_solution_norms_cover_slices(self, heat_setup):
        w1, w2 = solution_sobolev_norms(heat_setup["field"], collar=4, stride=50)
        assert w1 == pytest.approx(1.0 + np.exp(-0.5), abs=5e-3)
        assert w2 >= w1

    def test_collar_sups_from_the_whole_slice_derivatives(self):
        x = np.linspace(-2.0, 2.0, 81)
        u = np.exp(x)
        g = np.gradient(u, x, edge_order=2)
        h = np.gradient(g, x, edge_order=2)
        whole, boxed = field_sup_norms(u, [x], collar=4)
        assert whole == (u.max(), np.abs(g).max(), np.abs(h).max())
        assert boxed == (u[4:-4].max(), np.abs(g[4:-4]).max(), np.abs(h[4:-4]).max())
        assert boxed[0] < whole[0]

    def test_boxed_sups_reused_exactly(self, heat_setup):
        # the whole-slice sups of one derivative pass equal the separate pass,
        # and the meter's solution norms, built from the boxed sups of that
        # pass, equal the stored-field measure
        field = heat_setup["field"]
        axes = field.grid.axes
        for k in range(0, field.grid.steps + 1, 50):
            whole, _ = field_sup_norms(field.values[k], axes, collar=4)
            assert whole == field_sup_norms(field.values[k], axes)
        meter = RegularityMeter(field.grid, 4, None)
        replay(field, [meter])
        assert meter.sobolev_norms() == solution_sobolev_norms(field, 4, meter.stride)


@pytest.mark.parametrize("steps", [1, 158, 159, 160, 161, 309, 317, 318, 319, 320, 321, 500])
def test_regularity_meter_differentiates_at_most_the_cap(steps):
    # the slices on the stride and the last one, with the smallest stride
    # that keeps them within MAX_REGULARITY_SLICES
    cap = regularity.MAX_REGULARITY_SLICES
    grid = GridSpec(1, 8.0, 41, steps, 1.0)
    meter = RegularityMeter(grid, 4, None)
    u = np.cos(grid.axes[0])
    for k in range(steps + 1):
        meter.take(k, u)
    slices = lambda stride: sorted(set(range(0, steps + 1, stride)) | {steps})
    assert meter.indices == slices(meter.stride)
    assert len(meter.indices) <= cap
    assert meter.stride == 1 or len(slices(meter.stride - 1)) > cap


class TestCrossInvariants:
    def test_second_differences_bounded_by_hessian_norm(self, heat_setup):
        # second difference quotients of a smooth slice never exceed twice
        # the discrete Hessian bound
        field = heat_setup["field"]
        grid = heat_setup["grid"]
        for k in (0, grid.steps // 2, grid.steps):
            l_minus, l_plus = second_difference_constants(field, k, collar=4)
            _, _, hess_sup = field_sup_norms(field.values[k], grid.axes)
            w2 = float(np.max(np.abs(field.values[k]))) + hess_sup
            assert max(l_minus, l_plus) <= 2.0 * w2 + 1e-12


def test_constant_datum_two_sided_flatness_heat():
    # constant initial data are semiconvex and semiconcave with constant 0;
    # the marched heat field keeps both measured constants at scheme level
    coeffs = make_general_coeffs(value_interval=(-0.5, 1.5))
    problem = coeffs.as_problem()
    grid = stability_grid(1, 6.0, 121, 0.5, problem)
    field = solve(problem, lambda mesh: 0.25 * np.ones(mesh.shape[:-1]), grid)
    res = residual_field(field, collar=4)
    for k in (0, grid.steps // 2, grid.steps):
        l_minus, l_plus = second_difference_constants(field, k, collar=4)
        assert max(l_minus, l_plus) <= 10.0 * res.max + 1e-15
