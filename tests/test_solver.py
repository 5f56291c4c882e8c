import os

import numpy as np
import pytest

from degenpde.errors import BlowUpError, ContractViolationError, StabilityError
from degenpde.families import constant_drift
from degenpde import solver
from degenpde.solver import (
    GridSpec,
    ResidualMeter,
    SolutionField,
    replay,
    residual_field,
    solve,
)

from conftest import heat_exact, make_general_coeffs, stability_grid


def place_slice(problem, grid, fn):
    field = SolutionField.allocate(grid, problem=problem)
    mesh = grid.mesh()
    for k in range(grid.steps + 1):
        field.values[k] = fn(mesh[..., 0])
    return field


class TestDiscretizeHamiltonian:
    # interior_hamiltonian(k)[i - 1] is H at grid node i: its array starts
    # at the first interior node
    def test_constant_field_reduces_to_source(self):
        coeffs = make_general_coeffs(f=lambda x, t, u: 3.0 * np.ones_like(u))
        grid = GridSpec(1, 4.0, 41, 10, 1.0)
        field = place_slice(coeffs.as_problem(), grid, lambda x: 0.7 * np.ones_like(x))
        assert field.interior_hamiltonian(0)[19] == pytest.approx(3.0, abs=1e-14)

    def test_linear_field_advection_is_exact(self):
        coeffs = make_general_coeffs(mu=constant_drift(1, 2.0), value_interval=(-5.0, 5.0))
        grid = GridSpec(1, 4.0, 41, 10, 1.0)
        field = place_slice(coeffs.as_problem(), grid, lambda x: x)
        # grad u = 1 exactly for linear data, trace term vanishes
        assert field.interior_hamiltonian(0)[19] == pytest.approx(2.0, abs=1e-13)

    def test_quadratic_field_central_differences_exact(self):
        coeffs = make_general_coeffs(
            lambda_fn=lambda u: -np.ones_like(u), value_interval=(-20.0, 20.0)
        )
        grid = GridSpec(1, 4.0, 81, 10, 1.0)
        field = place_slice(coeffs.as_problem(), grid, lambda x: x**2)
        # at x = 0.5: -1/2 * 2 + (-1) * (2x)^2 = -1 - 1 = -2
        i = int(np.argmin(np.abs(grid.axes[0] - 0.5)))
        assert grid.axes[0][i] == pytest.approx(0.5)
        assert field.interior_hamiltonian(0)[i - 1] == pytest.approx(-2.0, abs=1e-12)


class TestStep:
    def test_heat_step_matches_explicit_stencil(self):
        coeffs = make_general_coeffs()
        problem = coeffs.as_problem()
        grid = stability_grid(1, 6.0, 121, 0.5, problem)
        field = SolutionField.allocate(grid, problem=problem)
        x = grid.axes[0]
        field.values[0] = np.exp(-(x**2) / 2.0)
        new, clamped, _ = solver._advance(problem, grid, field.values[0], field.interior_hamiltonian(0), 0)
        u = field.values[0]
        lap = np.zeros_like(u)
        lap[1:-1] = (u[2:] - 2.0 * u[1:-1] + u[:-2]) / grid.dx[0] ** 2
        expected = u + grid.dt * 0.5 * lap
        np.testing.assert_allclose(new[1:-1], expected[1:-1], atol=1e-15)
        assert clamped == 0

    def test_source_only_step_is_ode_update(self):
        coeffs = make_general_coeffs(
            sigma_matrix=np.zeros((1, 1)), f=lambda x, t, u: u, value_interval=(-2.0, 2.0)
        )
        problem = coeffs.as_problem()
        grid = GridSpec(1, 4.0, 41, 100, 1.0)
        field = SolutionField.allocate(grid, problem=problem)
        field.values[0] = np.ones(41)
        new, _, _ = solver._advance(problem, grid, field.values[0], field.interior_hamiltonian(0), 0)
        np.testing.assert_allclose(new, 1.0 - grid.dt, atol=1e-15)

    def test_blow_up_reports_node_and_step(self):
        coeffs = make_general_coeffs(
            sigma_matrix=np.zeros((1, 1)),
            f=lambda x, t, u: -100.0 * np.ones_like(u),
            value_interval=(-1.0, 1.0),
        )
        problem = coeffs.as_problem()
        grid = GridSpec(1, 4.0, 41, 10, 1.0)
        field = SolutionField.allocate(grid, problem=problem)
        field.values[0] = np.zeros(41)
        with pytest.raises(BlowUpError) as err:
            solver._advance(problem, grid, field.values[0], field.interior_hamiltonian(0), 0)
        assert err.value.details["step"] == 1


class TestSolve:
    def test_heat_reduction_matches_kernel(self, heat_setup):
        grid = heat_setup["grid"]
        field = heat_setup["field"]
        exact = heat_exact(grid.axes[0], 1.0)
        assert np.abs(field.values[-1] - exact).max() <= 5e-3

    def test_constant_datum_preserved(self):
        coeffs = make_general_coeffs(value_interval=(-0.5, 1.5))
        problem = coeffs.as_problem()
        grid = stability_grid(1, 4.0, 81, 0.5, problem)
        field = solve(problem, lambda mesh: 0.25 * np.ones(mesh.shape[:-1]), grid)
        assert np.abs(field.values - 0.25).max() <= 1e-13

    def test_exact_pricing_solution_is_preserved(self, exact_setup):
        assert np.abs(exact_setup["field"].values).max() <= 1e-12

    def test_comparison_monotonicity_probe(self, bench_setup):
        # half-width 8 keeps the diffused bump tail below the probe tolerance
        # at the extrapolated boundary nodes
        problem = bench_setup["problem"]
        grid = stability_grid(1, 8.0, 201, 0.5, problem)
        lower = solve(problem, lambda mesh: np.zeros(mesh.shape[:-1]), grid)
        upper = solve(
            problem,
            lambda mesh: 0.1 * np.exp(-mesh[..., 0] ** 2 / (2.0 * 0.8**2)),
            grid,
        )
        assert np.all(lower.values <= upper.values + 1e-8)

    def test_grid_refinement_improves_heat_error(self):
        errors = {}
        for nodes in (101, 201):
            coeffs = make_general_coeffs()
            problem = coeffs.as_problem()
            grid = stability_grid(1, 8.0, nodes, 0.5, problem)
            field = solve(problem, lambda mesh: np.exp(-mesh[..., 0] ** 2 / 2.0), grid)
            exact = heat_exact(grid.axes[0], 0.5)
            errors[nodes] = np.abs(field.values[-1] - exact).max()
        assert errors[101] / errors[201] >= 3.0

    def test_degenerate_direction_stays_constant(self):
        # N = 2, d = 1, noise only along x2: no evolution along x1
        coeffs = make_general_coeffs(
            dim=2, sigma_matrix=np.array([[0.0], [1.0]]), value_interval=(-0.5, 1.5)
        )
        problem = coeffs.as_problem()
        grid = stability_grid(2, 6.0, 61, 0.5, problem)
        field = solve(
            problem, lambda mesh: np.exp(-mesh[..., 1] ** 2 / 2.0), grid
        )
        spread = field.values.max(axis=1) - field.values.min(axis=1)
        assert spread.max() <= 1e-10

    def test_initial_datum_must_lie_in_interval(self):
        coeffs = make_general_coeffs(value_interval=(0.0, 0.5))
        problem = coeffs.as_problem()
        grid = stability_grid(1, 4.0, 81, 0.5, problem)
        with pytest.raises(ContractViolationError):
            solve(problem, lambda mesh: np.ones(mesh.shape[:-1]), grid)

    def test_stability_bound_enforced(self):
        coeffs = make_general_coeffs()
        problem = coeffs.as_problem()
        grid = GridSpec(1, 8.0, 401, 50, 1.0)
        with pytest.raises(StabilityError):
            solve(problem, lambda mesh: np.zeros(mesh.shape[:-1]), grid)

    def test_stable_grid_satisfies_bound(self):
        problem = make_general_coeffs().as_problem()
        grid, ratio = GridSpec.stable(problem, 1, 8.0, 401, 1.0, theta=0.45)
        assert ratio == grid.validate_stability(problem, theta=0.45) <= 1.0 + 1e-12
        tight = GridSpec(1, 8.0, 401, grid.steps - 1, 1.0)
        with pytest.raises(StabilityError):
            tight.validate_stability(problem, theta=0.45)


class TestResiduals:
    def test_exact_heat_solution_residual(self, heat_setup):
        grid = heat_setup["grid"]
        problem = heat_setup["problem"]
        x = grid.axes[0]
        injected = np.stack([heat_exact(x, t) for t in grid.times])
        field = SolutionField(injected, grid, problem=problem)
        rep = residual_field(field, collar=4)
        assert rep.max <= 1e-2

    def test_constant_field_zero_residual(self):
        coeffs = make_general_coeffs()
        problem = coeffs.as_problem()
        grid = GridSpec(1, 4.0, 41, 20, 0.01)
        vals = np.full((21, 41), 0.3)
        rep = residual_field(SolutionField(vals, grid, problem=problem), collar=2)
        assert rep.max == 0.0

    def test_marched_heat_residual(self, heat_setup):
        rep = residual_field(heat_setup["field"], collar=4)
        assert rep.max <= 5e-2

    def test_collar_validation(self, heat_setup):
        with pytest.raises(ContractViolationError):
            residual_field(heat_setup["field"], collar=300)


class _Recorder:
    def __init__(self):
        self.slices = []

    def take(self, k, u, h):
        self.slices.append((k, u.copy(), None if h is None else h.copy()))


class TestSliceWalk:
    def test_unstored_march_feeds_the_stored_slices_and_their_hamiltonians(self, heat_setup):
        problem, grid, u0 = heat_setup["problem"], heat_setup["grid"], heat_setup["u0"]
        stored = heat_setup["field"]
        seen, meter = _Recorder(), ResidualMeter(grid, collar=4)
        walked = solve(problem, u0, grid, consumers=[seen, meter], store=False)
        assert walked.values is None and walked.grid == grid
        assert walked.clamp_report == stored.clamp_report
        assert walked.value_range == [float(stored.values.min()), float(stored.values.max())]
        assert [k for k, _, _ in seen.slices] == list(range(grid.steps + 1))
        for k, u, h in seen.slices:
            assert np.array_equal(u, stored.values[k])
            if k < grid.steps:
                assert np.array_equal(h, stored.interior_hamiltonian(k))
            else:
                assert h is None
        # the march's own H gives the stored field's residual, bit for bit
        assert meter.report() == residual_field(stored, collar=4)

    def test_replay_evaluates_only_the_hamiltonians_the_residual_reads(self, heat_setup):
        seen = _Recorder()
        replay(heat_setup["field"], [seen])
        m = heat_setup["grid"].steps
        assert [h is None for _, _, h in seen.slices] == [k in (0, m) for k in range(m + 1)]


class TestStencilDetails:
    def test_cross_derivative_term(self):
        # u = x1 x2 has exact cross second difference 1; sigma sigma^T carries
        # an off-diagonal entry that must be contracted twice
        sig = np.array([[1.0, 0.0], [0.5, 1.0]])
        coeffs = make_general_coeffs(dim=2, sigma_matrix=sig, value_interval=(-30.0, 30.0))
        problem = coeffs.as_problem()
        grid = GridSpec(2, 4.0, 41, 10, 1.0)
        field = SolutionField.allocate(grid, problem=problem)
        mesh = grid.mesh()
        for k in range(grid.steps + 1):
            field.values[k] = mesh[..., 0] * mesh[..., 1]
        a_offdiag = (sig @ sig.T)[0, 1]
        got = field.interior_hamiltonian(0)[19, 19]
        assert got == pytest.approx(-a_offdiag, abs=1e-12)

    @pytest.mark.parametrize("drift,expected", [(2.0, 1.8), (-2.0, -2.2)])
    def test_upwind_direction_follows_drift_sign(self, drift, expected):
        # u = x^2 at x = 0.5 with dx = 0.1: backward difference gives
        # 2x - dx, forward gives 2x + dx; the drift sign picks the side
        coeffs = make_general_coeffs(
            sigma_matrix=np.zeros((1, 1)),
            mu=constant_drift(1, drift),
            value_interval=(-30.0, 30.0),
        )
        problem = coeffs.as_problem()
        grid = GridSpec(1, 4.0, 81, 10, 1.0)
        field = SolutionField.allocate(grid, problem=problem)
        field.values[0] = grid.mesh()[..., 0] ** 2
        i = int(np.argmin(np.abs(grid.axes[0] - 0.5)))
        assert field.interior_hamiltonian(0)[i - 1] == pytest.approx(expected, abs=1e-12)


def test_grid_dimension_capped_at_three():
    with pytest.raises(ContractViolationError):
        GridSpec(4, 2.0, 11, 5, 1.0)


def test_grid_rejects_even_nodes():
    with pytest.raises(ContractViolationError):
        GridSpec(1, 2.0, 40, 5, 1.0)


DRIFT_INI = """
[model]
kind = general
dim = 1
horizon = 1.0
sigma = constant:0.1
mu = linear:3
lambda = zero
eta = zero
value_interval = -0.5,1.5
initial = gaussian:1,0,1

[grid]
half_width = 8.0
nodes = 401
steps = auto
"""


class TestAutoSteps:
    def test_drift_dominated_config_solves(self, tmp_path):
        # ignoring the upwind speed 3 * 8 / dx gave 15 steps and a blow-up at step 8
        from degenpde.config import load_config

        path = tmp_path / "drift.ini"
        path.write_text(DRIFT_INI)
        cfg = load_config(str(path))
        theta, dx = cfg.manifest["grid"]["theta"], cfg.grid.dx[0]
        # sigma sigma^T = 0.01 and the upwind speed max |mu| / dx = 3 * 7.96 / dx
        speed = 3.0 * 7.96 / dx
        assert cfg.grid.steps > np.ceil(1.0 / (theta * dx**2 / 0.01))
        assert cfg.grid.steps == np.ceil(1.0 / (theta * dx**2 / (0.01 + dx**2 * speed)))
        field = solve(cfg.problem, cfg.u0, cfg.grid)
        assert np.all(np.isfinite(field.values))

    def test_validation_rejects_steps_too_coarse_for_drift(self):
        coeffs = make_general_coeffs(
            sigma_matrix=np.zeros((1, 1)), mu=constant_drift(1, 2.0), value_interval=(-2.0, 2.0)
        )
        problem = coeffs.as_problem()
        dx = 8.0 / 40
        grid, ratio = GridSpec.stable(problem, 1, 4.0, 41, 1.0)
        steps = grid.steps
        assert steps == int(np.ceil(1.0 / (0.45 * dx / 2.0)))
        assert ratio == GridSpec(1, 4.0, 41, steps, 1.0).validate_stability(problem) <= 1.0
        with pytest.raises(StabilityError):
            GridSpec(1, 4.0, 41, steps - 1, 1.0).validate_stability(problem)

    def test_zero_drift_step_counts_unchanged(self):
        from degenpde.config import load_config

        root = os.path.join(os.path.dirname(__file__), "..", "configs")
        assert load_config(os.path.join(root, "benchmark.ini")).grid.steps == 1389
        assert load_config(os.path.join(root, "degenerate.ini")).grid.steps == 112

    def test_bound_walks_its_times_once_per_call_site(self, tmp_path, monkeypatch):
        # a walk of the step bound takes sigma sigma^T at every sampled time,
        # T included; the march takes it only at the times it steps from
        from degenpde.config import load_config
        from degenpde.model import ProblemSpec

        path = tmp_path / "drift.ini"
        path.write_text(DRIFT_INI)
        times = []
        sigma_sq = ProblemSpec.sigma_sq

        def recorded(problem, t):
            times.append(float(t))
            return sigma_sq(problem, t)

        monkeypatch.setattr(ProblemSpec, "sigma_sq", recorded)
        cfg = load_config(str(path))
        assert len(times) == solver.STABILITY_TIME_SAMPLES
        assert times.count(cfg.horizon) == 1
        times.clear()
        solve(cfg.problem, cfg.u0, cfg.grid, store=False)
        assert len(times) == solver.STABILITY_TIME_SAMPLES + cfg.grid.steps
        assert times.count(cfg.horizon) == 1


def test_2d_degenerate_price_converges_at_first_order():
    # configs/degenerate_mbs.ini solved at 41^2, 61^2 and 81^2 nodes (dx 0.3,
    # 0.2 and 0.15; steps = auto gives 92, 176 and 285 steps), with U read at
    # x0 = (0.5, -0.5) and theta = T. Measured: 0.013985348, 0.014236691 and
    # 0.014363339, differences 2.513e-4 and 1.266e-4, observed order 0.978,
    # the upwind drift difference's first order. The bound 0.9 leaves 0.078.
    from degenpde.config import load_config
    from degenpde.montecarlo import GradientInterpolant

    cfg = load_config(os.path.join(os.path.dirname(__file__), "..", "configs", "degenerate_mbs.ini"))
    x0 = np.array([[0.5, -0.5]])
    dx, values = [], []
    for nodes in (41, 61, 81):
        grid, _ = GridSpec.stable(cfg.problem, 2, cfg.grid.half_width[0], nodes, cfg.horizon)
        field = solve(cfg.problem, cfg.u0, grid)
        dx.append(grid.dx[0])
        values.append(GradientInterpolant(field).evaluate(x0, cfg.horizon)[0][0])
    d = np.diff(values)
    assert d[0] > d[1] > 0.0  # one-signed and shrinking

    # v(dx) = v* + C dx^p makes d[0] / d[1] grow with p, so the order
    # exceeds the bound exactly when the ratio exceeds the bound's ratio
    def ratio(p):
        h = np.asarray(dx) ** p
        return (h[0] - h[1]) / (h[1] - h[2])

    assert d[0] / d[1] > ratio(0.9), (values, d)
