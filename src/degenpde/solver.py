"""Explicit time-marcher for du/dt + H = 0 on a truncated uniform grid.

Discretization: central second differences contracted against sigma sigma^T,
upwind first differences for the drift term (direction picked per component
from the drift sign), central differences for the gradient inside the
quadratic and cross terms, forward Euler in time; the stencil hands these
to ``ProblemSpec.hamiltonian``, which alone evaluates H. Boundary nodes are filled
by linear extrapolation of the two nearest interior nodes, so the second
difference vanishes at the boundary; all diagnostics exclude a configurable
boundary collar.
"""

from dataclasses import dataclass, field as dataclass_field

import numpy as np

from .errors import BlowUpError, ContractViolationError, StabilityError

__all__ = [
    "GridSpec",
    "SolutionField",
    "ResidualReport",
    "stable_step_count",
    "discretize_hamiltonian",
    "step",
    "solve",
    "residual_field",
]

DEFAULT_THETA = 0.45
CLAMP_REL_TOL = 1e-9


def _per_axis(value, dim, cast):
    if np.isscalar(value):
        return tuple(cast(value) for _ in range(dim))
    out = tuple(cast(v) for v in value)
    if len(out) != dim:
        raise ContractViolationError("per-axis value has wrong length", value=value, dim=dim)
    return out


@dataclass(frozen=True)
class GridSpec:
    """Uniform space-time grid: odd node counts keep the origin on the grid."""

    dim: int
    half_width: tuple
    nodes: tuple
    steps: int
    horizon: float

    def __init__(self, dim, half_width, nodes, steps, horizon):
        object.__setattr__(self, "dim", int(dim))
        object.__setattr__(self, "half_width", _per_axis(half_width, self.dim, float))
        object.__setattr__(self, "nodes", _per_axis(nodes, self.dim, int))
        object.__setattr__(self, "steps", int(steps))
        object.__setattr__(self, "horizon", float(horizon))
        if not 1 <= self.dim <= 3:
            raise ContractViolationError("spatial dimension capped at 3", dim=self.dim)
        for n in self.nodes:
            if n < 5 or n % 2 == 0:
                raise ContractViolationError("node counts must be odd and at least 5", nodes=self.nodes)
        for r in self.half_width:
            if r <= 0:
                raise ContractViolationError("half-width must be positive", half_width=self.half_width)
        if self.steps < 1 or self.horizon <= 0:
            raise ContractViolationError("need steps >= 1 and horizon > 0")

    @property
    def dx(self):
        return tuple(2.0 * r / (n - 1) for r, n in zip(self.half_width, self.nodes))

    @property
    def dt(self):
        return self.horizon / self.steps

    @property
    def shape(self):
        return self.nodes

    @property
    def axes(self):
        return [np.linspace(-r, r, n) for r, n in zip(self.half_width, self.nodes)]

    @property
    def times(self):
        return np.linspace(0.0, self.horizon, self.steps + 1)

    def mesh(self, interior=False):
        axes = self.axes
        if interior:
            axes = [ax[1:-1] for ax in axes]
        grids = np.meshgrid(*axes, indexing="ij")
        return np.stack(grids, axis=-1)

    def stability_ratio(self, max_diffusion_norm, theta=DEFAULT_THETA, drift_speed=0.0):
        """dt divided by the step bound of ``_step_bound``; 0 when nothing moves."""
        bound = _step_bound(self.dim, self.dx, max_diffusion_norm, drift_speed, theta)
        return 0.0 if bound is None else self.dt / bound

    def drift_speed(self, problem, samples=64):
        """Upwind speed max sum_i |mu_i| / dx_i over interior nodes and sampled times."""
        x_int = _interior_mesh(self)
        inv_dx = 1.0 / np.asarray(self.dx)
        return max(
            float(np.max(np.abs(np.asarray(problem.drift(x_int, t), dtype=float)) @ inv_dx))
            for t in np.linspace(0.0, self.horizon, samples)
        )

    def validate_stability(self, problem, theta=DEFAULT_THETA):
        norm = problem.max_diffusion_norm(self.horizon)
        ratio = self.stability_ratio(norm, theta, self.drift_speed(problem))
        if ratio > 1.0 + 1e-12:
            raise StabilityError(
                "time step violates the parabolic and upwind stability bound",
                ratio=ratio,
                dt=self.dt,
                dx=min(self.dx),
                theta=theta,
            )
        return ratio


def _step_bound(dim, dx, max_diffusion_norm, drift_speed, theta):
    """Stable dt: theta dx^2 / (N max|sigma sigma^T| + dx^2 sum_i |mu_i| / dx_i).

    This keeps dt (N max|sigma sigma^T| / dx^2 + sum_i |mu_i| / dx_i) <= theta,
    the diffusion and upwind-drift weights of the explicit stencil, with dx
    the smallest spacing. None when there is neither diffusion nor drift.
    """
    dx_min = min(dx)
    rate = dim * max_diffusion_norm + drift_speed * dx_min**2
    return theta * dx_min**2 / rate if rate > 0.0 else None


def stable_step_count(
    dim, half_width, nodes, horizon, max_diffusion_norm, theta=DEFAULT_THETA, drift_speed=0.0
):
    """Smallest step count satisfying the bound of ``_step_bound``.

    With neither diffusion nor drift no spatial bound applies, and the step
    falls back to theta * dx as a resolution choice.
    """
    hw = _per_axis(half_width, dim, float)
    nd = _per_axis(nodes, dim, int)
    dx = [2.0 * r / (n - 1) for r, n in zip(hw, nd)]
    bound = _step_bound(dim, dx, max_diffusion_norm, drift_speed, theta)
    if bound is None:
        bound = theta * min(dx)
    return max(1, int(np.ceil(horizon / bound)))


class SolutionField:
    """Grid-sampled solution over space x time with cached Hamiltonian slices."""

    def __init__(self, values, grid, problem=None, variable="u"):
        values = np.asarray(values, dtype=float)
        if values.shape != (grid.steps + 1,) + tuple(grid.shape):
            raise ContractViolationError(
                "field values have wrong shape",
                expected=(grid.steps + 1,) + tuple(grid.shape),
                got=values.shape,
            )
        self.values = values
        self.grid = grid
        self.problem = problem
        self.variable = variable
        self.times = grid.times
        self.clamp_report = {"roundoff_clamped_nodes": 0, "max_excess": 0.0}
        self._mesh = None
        self._h_cache = {}

    @classmethod
    def allocate(cls, grid, problem=None, variable="u"):
        values = np.empty((grid.steps + 1,) + tuple(grid.shape), dtype=float)
        return cls(values, grid, problem=problem, variable=variable)

    @property
    def mesh(self):
        if self._mesh is None:
            self._mesh = self.grid.mesh()
        return self._mesh

    def interior_hamiltonian(self, k):
        if k not in self._h_cache:
            if self.problem is None:
                raise ContractViolationError("field carries no equation to evaluate")
            self._h_cache[k] = _interior_hamiltonian(
                self.problem, self.grid, self.values[k], self.times[k]
            )
            if len(self._h_cache) > 8:
                self._h_cache.pop(next(iter(self._h_cache)))
        return self._h_cache[k]


def _shifted(u, dim, axis, off, second_axis=None, second_off=0):
    sl = [slice(1, -1)] * dim
    sl[axis] = slice(2, None) if off == 1 else slice(0, -2) if off == -1 else slice(1, -1)
    if second_axis is not None:
        sl[second_axis] = slice(2, None) if second_off == 1 else slice(0, -2)
    return u[tuple(sl)]


_MESH_CACHE = {}


def _interior_mesh(grid):
    key = (grid.dim, grid.half_width, grid.nodes)
    if key not in _MESH_CACHE:
        if len(_MESH_CACHE) > 16:
            _MESH_CACHE.clear()
        _MESH_CACHE[key] = grid.mesh(interior=True)
    return _MESH_CACHE[key]


def _interior_hamiltonian(problem, grid, u, t):
    """Discrete H over the interior nodes of one time slice.

    X holds the central second differences (cross differences only where
    sigma sigma^T couples the two axes), p the central first differences and
    the drift's gradient the one-sided difference on the upwind side.
    """
    n = grid.dim
    dx = grid.dx
    inner = tuple(slice(1, -1) for _ in range(n))
    center = u[inner]
    x_int = _interior_mesh(grid)
    a_mat = problem.sigma_sq(t)
    drift = np.asarray(problem.drift(x_int, t), dtype=float)

    X = np.zeros(center.shape + (n, n))
    p = np.empty(center.shape + (n,))
    upwind = np.empty(center.shape + (n,))
    for i in range(n):
        plus = _shifted(u, n, i, +1)
        minus = _shifted(u, n, i, -1)
        X[..., i, i] = (plus - 2.0 * center + minus) / dx[i] ** 2
        p[..., i] = (plus - minus) / (2.0 * dx[i])
        upwind[..., i] = np.where(drift[..., i] > 0.0, center - minus, plus - center) / dx[i]
        for j in range(i + 1, n):
            if a_mat[i, j] == 0.0:
                continue
            X[..., i, j] = X[..., j, i] = (
                _shifted(u, n, i, +1, j, +1)
                - _shifted(u, n, i, +1, j, -1)
                - _shifted(u, n, i, -1, j, +1)
                + _shifted(u, n, i, -1, j, -1)
            ) / (4.0 * dx[i] * dx[j])
    return problem.hamiltonian(x_int, t, center, p, X, drift_p=upwind)


def discretize_hamiltonian(field, k, i):
    """Discrete H at time index k and interior spatial multi-index i."""
    idx = (i,) if np.isscalar(i) else tuple(int(v) for v in i)
    if len(idx) != field.grid.dim:
        raise ContractViolationError("index does not match grid dimension", index=idx)
    for v, nn in zip(idx, field.grid.shape):
        if not 1 <= v <= nn - 2:
            raise ContractViolationError("Hamiltonian stencil needs an interior node", index=idx)
    h_int = field.interior_hamiltonian(k)
    return float(h_int[tuple(v - 1 for v in idx)])


def _fill_boundary(values, dim):
    for axis in range(dim):
        sl = [slice(None)] * dim

        def take(i):
            s = list(sl)
            s[axis] = i
            return tuple(s)

        values[take(0)] = 2.0 * values[take(1)] - values[take(2)]
        values[take(-1)] = 2.0 * values[take(-2)] - values[take(-3)]
    return values


def step(field, k):
    """One forward-Euler step from slice k; returns (values, clamped_nodes).

    Values that leave the value interval by more than the clamping tolerance
    abort with a blow-up error naming the offending node and step.
    """
    grid = field.grid
    problem = field.problem
    u = field.values[k]
    h_int = field.interior_hamiltonian(k)
    inner = tuple(slice(1, -1) for _ in range(grid.dim))
    new = u.copy()
    new[inner] = u[inner] - grid.dt * h_int
    _fill_boundary(new, grid.dim)

    lo, hi = problem.value_interval
    tol = CLAMP_REL_TOL * (hi - lo)
    excess = np.maximum(lo - new, new - hi)
    worst = float(excess.max())
    if worst > tol:
        node = np.unravel_index(int(np.argmax(excess)), new.shape)
        raise BlowUpError(
            "solution left the value interval",
            step=k + 1,
            node=tuple(int(v) for v in node),
            value=float(new[node]),
            interval=(lo, hi),
            excess=worst,
        )
    clamped = int(np.count_nonzero(excess > 0.0))
    if clamped:
        np.clip(new, lo, hi, out=new)
    return new, clamped, max(worst, 0.0)


def solve(problem, u0, grid, theta=DEFAULT_THETA, variable=None):
    """March the full space-time field from the initial datum.

    u0 may be an array on the grid or a callable of the mesh (shape
    (..., N) -> (...)). The stability bound is enforced up front; the clamp
    report tracks roundoff-size excursions outside the value interval.
    """
    grid.validate_stability(problem, theta=theta)
    field = SolutionField.allocate(
        grid, problem=problem, variable=variable or ("U" if problem.label == "mbs_price" else "u")
    )
    mesh = field.mesh
    init = u0(mesh) if callable(u0) else np.asarray(u0, dtype=float)
    if init.shape != tuple(grid.shape):
        raise ContractViolationError("initial datum has wrong shape", got=init.shape)
    lo, hi = problem.value_interval
    if init.min() < lo - 1e-12 * (hi - lo) or init.max() > hi + 1e-12 * (hi - lo):
        raise ContractViolationError(
            "initial datum must map into the value interval",
            datum_range=(float(init.min()), float(init.max())),
            interval=(lo, hi),
        )
    field.values[0] = init
    clamped_total = 0
    max_excess = 0.0
    for k in range(grid.steps):
        new, clamped, worst = step(field, k)
        field.values[k + 1] = new
        clamped_total += clamped
        max_excess = max(max_excess, worst)
    field.clamp_report = {"roundoff_clamped_nodes": clamped_total, "max_excess": max_excess}
    return field


@dataclass
class ResidualReport:
    """Pointwise |du/dt + H| over interior nodes and interior times."""

    max: float
    mean: float
    collar: int
    per_slice_max: np.ndarray = dataclass_field(repr=False, default=None)
    values: np.ndarray = dataclass_field(repr=False, default=None)

    def summary(self):
        return {"max": self.max, "mean": self.mean, "collar": self.collar}


def residual_field(field, collar=4, store_values=False):
    """Residuals with centered time differences and the marching stencils.

    The summary max and mean exclude a boundary collar of the given width (in
    nodes, counted from each face; at least one node is always excluded since
    the stencil itself needs interior points).
    """
    grid = field.grid
    if field.problem is None:
        raise ContractViolationError("residuals need the field's equation")
    trim = max(int(collar) - 1, 0)
    for nn in grid.shape:
        if nn - 2 - 2 * trim < 1:
            raise ContractViolationError("collar leaves no interior nodes", collar=collar)
    sub = tuple(slice(trim, (s - 2) - trim) for s in grid.shape)
    dt = grid.dt
    m = grid.steps
    if m < 2:
        raise ContractViolationError("residuals need at least two time steps")
    inner = tuple(slice(1, -1) for _ in range(grid.dim))
    out = []
    per_slice = np.empty(m - 1)
    total = 0.0
    count = 0
    for k in range(1, m):
        du = (field.values[k + 1] - field.values[k - 1]) / (2.0 * dt)
        res = np.abs(du[inner] + field.interior_hamiltonian(k))[sub]
        per_slice[k - 1] = res.max()
        total += float(res.sum())
        count += res.size
        if store_values:
            out.append(res)
    return ResidualReport(
        max=float(per_slice.max()),
        mean=total / count,
        collar=int(collar),
        per_slice_max=per_slice,
        values=np.stack(out) if out else None,
    )
