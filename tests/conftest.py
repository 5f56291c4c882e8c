import numpy as np
import pytest

from degenpde.families import (
    constant_rate,
    constant_sigma,
    gaussian_bump_field,
    zero_drift,
    zero_ufunc,
)
from degenpde.model import CoefficientSet, MbsModel, mbs_price_problem
from degenpde.solver import GridSpec, solve


def make_general_coeffs(
    dim=1,
    sigma_matrix=None,
    mu=None,
    lambda_fn=None,
    eta_fn=None,
    f=None,
    w=None,
    domain=(-np.inf, np.inf),
    value_interval=(-0.5, 1.5),
    horizon=1.0,
):
    sigma_matrix = np.eye(dim) if sigma_matrix is None else np.atleast_2d(sigma_matrix)
    d = sigma_matrix.shape[1]
    return CoefficientSet(
        sigma=constant_sigma(sigma_matrix),
        mu=mu or zero_drift(dim),
        w=w or (lambda x, t: np.zeros(x.shape[:-1] + (d,))),
        lambda_fn=lambda_fn or zero_ufunc(),
        eta_fn=eta_fn or zero_ufunc(),
        f=f or (lambda x, t, u: np.zeros_like(u)),
        domain_interval=domain,
        value_interval=value_interval,
        dim=dim,
        noise_dim=d,
        horizon=horizon,
    )


def heat_exact(x, t, width=1.0, amplitude=1.0, center=0.0):
    # diffusivity 1/2: variance grows linearly in t
    var = width**2 + t
    return amplitude * width / np.sqrt(var) * np.exp(-((x - center) ** 2) / (2.0 * var))


def stability_grid(dim, half_width, nodes, horizon, problem, theta=0.45):
    return GridSpec.stable(problem, dim, half_width, nodes, horizon, theta=theta)[0]


def make_benchmark_model(rate=0.03, coupon=0.06, rho=0.5, ramp=3.0, width=1.0, amplitude=1.0):
    h = gaussian_bump_field(1, amplitude=amplitude, center=0.0, width=width, ramp=ramp)
    return MbsModel(
        rho=rho,
        coupon_tau=coupon,
        rate_r=constant_rate(rate),
        principal_h=h,
        horizon=1.0,
        dim=1,
    )


@pytest.fixture(scope="session")
def heat_setup():
    coeffs = make_general_coeffs()
    problem = coeffs.as_problem()
    grid = stability_grid(1, 8.0, 401, 1.0, problem)
    u0 = lambda mesh: np.exp(-mesh[..., 0] ** 2 / 2.0)
    field = solve(problem, u0, grid)
    return {"coeffs": coeffs, "problem": problem, "grid": grid, "field": field, "u0": u0}


@pytest.fixture(scope="session")
def bench_setup():
    model = make_benchmark_model()
    sigma = constant_sigma([[1.0]])
    mu = zero_drift(1)
    problem = mbs_price_problem(model, sigma, mu, value_interval=(-0.5, 1.5))
    grid = stability_grid(1, 8.0, 401, 1.0, problem)
    field = solve(problem, lambda mesh: np.zeros(mesh.shape[:-1]), grid)
    return {
        "model": model,
        "sigma": sigma,
        "mu": mu,
        "problem": problem,
        "grid": grid,
        "field": field,
    }


@pytest.fixture(scope="session")
def exact_setup():
    model = make_benchmark_model(rate=0.06, coupon=0.06)
    sigma = constant_sigma([[1.0]])
    mu = zero_drift(1)
    problem = mbs_price_problem(model, sigma, mu, value_interval=(-0.5, 1.5))
    grid = stability_grid(1, 8.0, 401, 1.0, problem)
    field = solve(problem, lambda mesh: np.zeros(mesh.shape[:-1]), grid)
    return {
        "model": model,
        "sigma": sigma,
        "mu": mu,
        "problem": problem,
        "grid": grid,
        "field": field,
    }
