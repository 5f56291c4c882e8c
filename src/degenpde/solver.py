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

from dataclasses import dataclass

import numpy as np

from .errors import BlowUpError, ContractViolationError, StabilityError

__all__ = [
    "GridSpec",
    "SolutionField",
    "ResidualReport",
    "solve",
    "replay",
    "ResidualMeter",
    "residual_field",
]

DEFAULT_THETA = 0.45
CLAMP_REL_TOL = 1e-9
# Times sampled on [0, T] by the step bound, for the diffusion norm and the
# upwind drift speed.
STABILITY_TIME_SAMPLES = 64


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

    @classmethod
    def stable(cls, problem, dim, half_width, nodes, horizon, steps="auto", theta=DEFAULT_THETA):
        """(grid, stability ratio) for ``problem``, checked against ``_step_bound``.

        ``steps = "auto"`` takes the smallest step count within the bound. With
        neither diffusion nor drift no spatial bound applies, and the step
        falls back to theta * dx as a resolution choice.
        """
        probe = cls(dim, half_width, nodes, 1, horizon)
        bound = _step_bound(problem, probe, theta)
        if steps == "auto":
            dt = bound if bound is not None else theta * min(probe.dx)
            steps = max(1, int(np.ceil(probe.horizon / dt)))
        grid = cls(dim, half_width, nodes, steps, horizon)
        return grid, grid._checked_ratio(bound, theta)

    def validate_stability(self, problem, theta=DEFAULT_THETA):
        """dt over the step bound of ``_step_bound`` (0 when nothing moves); above 1 it raises."""
        return self._checked_ratio(_step_bound(problem, self, theta), theta)

    def _checked_ratio(self, bound, theta):
        ratio = 0.0 if bound is None else self.dt / bound
        if ratio > 1.0 + 1e-12:
            raise StabilityError(
                "time step violates the parabolic and upwind stability bound",
                ratio=ratio,
                dt=self.dt,
                dx=min(self.dx),
                theta=theta,
            )
        return ratio


def _step_bound(problem, grid, theta):
    """Stable dt: theta dx^2 / (N max|sigma sigma^T| + dx^2 max sum_i |mu_i| / dx_i).

    This keeps dt (N max|sigma sigma^T| / dx^2 + max sum_i |mu_i| / dx_i) <= theta,
    the diffusion and upwind-drift weights of the explicit stencil, with dx
    the smallest spacing. Both maxima are taken in one walk over
    ``STABILITY_TIME_SAMPLES`` times of [0, T], the drift's over the interior
    nodes. None when there is neither diffusion nor drift.
    """
    x_int = grid.mesh(interior=True)
    inv_dx = 1.0 / np.asarray(grid.dx)
    norm = speed = 0.0
    for t in np.linspace(0.0, grid.horizon, STABILITY_TIME_SAMPLES):
        norm = max(norm, float(np.linalg.norm(problem.sigma_sq(t), 2)))
        drift = np.abs(np.asarray(problem.drift(x_int, t), dtype=float))
        speed = max(speed, float(np.max(drift @ inv_dx)))
    dx_min = min(grid.dx)
    rate = grid.dim * norm + speed * dx_min**2
    return theta * dx_min**2 / rate if rate > 0.0 else None


class SolutionField:
    """Grid-sampled solution over space x time and its discrete Hamiltonian.

    ``values`` is None for a field that ``solve`` marched without storing it;
    such a field keeps its grid, equation, clamp report and value range.
    """

    def __init__(self, values, grid, problem=None, variable="u"):
        if values is not None:
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
        self.value_range = None
        self._interior_mesh = None

    @classmethod
    def allocate(cls, grid, problem=None, variable="u"):
        values = np.empty((grid.steps + 1,) + tuple(grid.shape), dtype=float)
        return cls(values, grid, problem=problem, variable=variable)

    def interior_hamiltonian(self, k):
        """Discrete H of slice k over the interior nodes."""
        if self.problem is None:
            raise ContractViolationError("field carries no equation to evaluate")
        if self._interior_mesh is None:
            self._interior_mesh = self.grid.mesh(interior=True)
        return _interior_hamiltonian(
            self.problem, self.grid, self._interior_mesh, self.values[k], self.times[k]
        )


def _shifted(u, dim, axis, off, second_axis=None, second_off=0):
    sl = [slice(1, -1)] * dim
    sl[axis] = slice(2, None) if off == 1 else slice(0, -2) if off == -1 else slice(1, -1)
    if second_axis is not None:
        sl[second_axis] = slice(2, None) if second_off == 1 else slice(0, -2)
    return u[tuple(sl)]


def _interior_hamiltonian(problem, grid, x_int, u, t):
    """Discrete H over the interior nodes ``x_int`` of one time slice.

    X holds the central second differences (cross differences only where
    sigma sigma^T couples the two axes), p the central first differences and
    the drift's gradient the one-sided difference on the upwind side.
    """
    n = grid.dim
    dx = grid.dx
    inner = tuple(slice(1, -1) for _ in range(n))
    center = u[inner]
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


def _advance(problem, grid, u, h_int, k):
    """Forward-Euler step of slice k with its interior H; (values, clamped, excess).

    Values that leave the value interval by more than the clamping tolerance
    abort with a blow-up error naming the offending node and step.
    """
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


def solve(problem, u0, grid, consumers=(), store=True):
    """March the space-time field from the initial datum, one slice at a time.

    u0 may be an array on the grid or a callable of the mesh (shape
    (..., N) -> (...)). The stability bound is enforced up front at the hard
    limit ``DEFAULT_THETA``; a config's own theta is enforced at load. The
    clamp report tracks roundoff-size excursions outside the value interval.

    Each consumer's ``take(k, u, h)`` sees slices k = 0..M in order, with h
    the interior H that slice k was stepped with (None for the last slice);
    consumers must not write to either array. Without ``store`` the returned
    field holds no values, and the march keeps a few slices at a time.
    """
    grid.validate_stability(problem)
    variable = "U" if problem.label == "mbs_price" else "u"
    if store:
        field = SolutionField.allocate(grid, problem=problem, variable=variable)
    else:
        field = SolutionField(None, grid, problem=problem, variable=variable)
    init = u0(grid.mesh()) if callable(u0) else u0
    u = np.asarray(init, dtype=float)
    if u.shape != tuple(grid.shape):
        raise ContractViolationError("initial datum has wrong shape", got=u.shape)
    lo, hi = problem.value_interval
    if u.min() < lo - 1e-12 * (hi - lo) or u.max() > hi + 1e-12 * (hi - lo):
        raise ContractViolationError(
            "initial datum must map into the value interval",
            datum_range=(float(u.min()), float(u.max())),
            interval=(lo, hi),
        )
    x_int = grid.mesh(interior=True)
    times = grid.times
    m = grid.steps
    mins, maxs = np.empty(m + 1), np.empty(m + 1)
    clamped_total = 0
    max_excess = 0.0
    for k in range(m + 1):
        h = _interior_hamiltonian(problem, grid, x_int, u, times[k]) if k < m else None
        if store:
            field.values[k] = u
        for consumer in consumers:
            consumer.take(k, u, h)
        mins[k], maxs[k] = u.min(), u.max()
        if k < m:
            u, clamped, worst = _advance(problem, grid, u, h, k)
            clamped_total += clamped
            max_excess = max(max_excess, worst)
    field.clamp_report = {"roundoff_clamped_nodes": clamped_total, "max_excess": max_excess}
    field.value_range = [float(mins.min()), float(maxs.max())]
    return field


def replay(field, consumers):
    """Feed a stored field's slices to ``consumers`` as ``solve`` feeds them.

    H is evaluated on the slices the residual reads, 1..M-1, and only when
    the field carries its equation; every other slice comes with None.
    """
    m = field.grid.steps
    for k in range(m + 1):
        h = field.interior_hamiltonian(k) if field.problem is not None and 0 < k < m else None
        for consumer in consumers:
            consumer.take(k, field.values[k], h)


@dataclass
class ResidualReport:
    """Pointwise |du/dt + H| over interior nodes and interior times."""

    max: float
    mean: float
    collar: int

    def summary(self):
        return {"max": self.max, "mean": self.mean, "collar": self.collar}


class ResidualMeter:
    """Residuals |du/dt + H| with centered time differences, slice by slice.

    Slice k's residual needs slices k-1 and k+1 and the H of slice k, so it
    is formed when slice k+1 arrives; the meter holds two slices and one H.
    The summary max and mean exclude a boundary collar of the given width (in
    nodes, counted from each face; at least one node is always excluded since
    the stencil itself needs interior points).
    """

    def __init__(self, grid, collar=4):
        trim = max(int(collar) - 1, 0)
        for nn in grid.shape:
            if nn - 2 - 2 * trim < 1:
                raise ContractViolationError("collar leaves no interior nodes", collar=collar)
        if grid.steps < 2:
            raise ContractViolationError("residuals need at least two time steps")
        self._sub = tuple(slice(trim, (s - 2) - trim) for s in grid.shape)
        self._inner = tuple(slice(1, -1) for _ in range(grid.dim))
        self._two_dt = 2.0 * grid.dt
        self._collar = int(collar)
        self._per_slice = np.empty(grid.steps - 1)
        self._total = 0.0
        self._count = 0
        self._prev = self._cur = self._h = None

    def take(self, k, u, h):
        if k >= 2:
            du = (u[self._inner] - self._prev[self._inner]) / self._two_dt
            res = np.abs(du + self._h)[self._sub]
            self._per_slice[k - 2] = res.max()
            self._total += float(res.sum())
            self._count += res.size
        self._prev, self._cur, self._h = self._cur, u, h

    def report(self):
        return ResidualReport(
            max=float(self._per_slice.max()), mean=self._total / self._count, collar=self._collar
        )


def residual_field(field, collar=4):
    """Residuals of a stored field, as ``ResidualMeter`` takes them in a march."""
    if field.problem is None:
        raise ContractViolationError("residuals need the field's equation")
    meter = ResidualMeter(field.grid, collar)
    replay(field, [meter])
    return meter.report()
