"""GradientInterpolant.evaluate against the corner loop it replaced.

``reference_evaluate`` is the earlier implementation: one fancy-indexed read
per corner and time slice. The gathered-table version must return the same
bits and count the same clamps.
"""

from itertools import product

import numpy as np
import pytest

from degenpde.montecarlo import GradientInterpolant
from degenpde.solver import GridSpec, SolutionField


def _locate(coords, axis_vals):
    n = len(axis_vals)
    dx = axis_vals[1] - axis_vals[0]
    pos = (coords - axis_vals[0]) / dx
    idx = np.clip(np.floor(pos).astype(np.int64), 0, n - 2)
    frac = (coords - axis_vals[idx]) / (axis_vals[idx + 1] - axis_vals[idx])
    clamped = (coords < axis_vals[0]) | (coords > axis_vals[-1])
    return idx, np.clip(frac, 0.0, 1.0), clamped


def reference_evaluate(interp, x, theta):
    """(value, gradient, clamped count) by the corner loop."""
    x = np.atleast_2d(np.asarray(x, dtype=float))
    n_pts = x.shape[0]
    values, axes = interp.field.values, interp.field.grid.axes
    grad_values = np.stack(
        [np.gradient(values, axes[i], axis=1 + i, edge_order=2) for i in range(interp.dim)], axis=-1
    )
    kt, wt, t_clamped = _locate(np.asarray([theta], dtype=float), interp.field.times)
    kt, wt = int(kt[0]), float(wt[0])
    idxs, fracs, clamped_any = [], [], np.zeros(n_pts, dtype=bool)
    for i in range(interp.dim):
        idx, frac, cl = _locate(x[:, i], axes[i])
        idxs.append(idx)
        fracs.append(frac)
        clamped_any |= cl
    if t_clamped[0]:
        clamped_any |= True
    u_out = np.zeros(n_pts)
    g_out = np.zeros((n_pts, interp.dim))
    for bits in product((0, 1), repeat=interp.dim):
        weight = np.ones(n_pts)
        for i, b in enumerate(bits):
            weight = weight * (fracs[i] if b else 1.0 - fracs[i])
        corner = tuple(idxs[i] + bits[i] for i in range(interp.dim))
        for k_off, t_weight in ((0, 1.0 - wt), (1, wt)):
            if t_weight == 0.0:
                continue
            sl = (kt + k_off,) + corner
            u_out += t_weight * weight * values[sl]
            g_out += (t_weight * weight)[:, None] * grad_values[sl]
    return u_out, g_out, int(np.count_nonzero(clamped_any))


def _field(dim, nodes, steps, negative_zero_slice=None):
    grid = GridSpec(dim, 2.0, nodes, steps, 1.0)
    rng = np.random.default_rng(dim)
    values = rng.normal(size=(steps + 1,) + tuple(grid.shape))
    if negative_zero_slice is not None:
        values[negative_zero_slice] = -0.0
    return SolutionField(values, grid, variable="U")


def _points(grid, rng):
    """Nodes, points between nodes and points outside the box, per axis."""
    assert all(0.0 in axis for axis in grid.axes)
    n = 60
    cols = []
    for axis in grid.axes:
        on_nodes = axis[rng.integers(0, len(axis), n)]
        between = rng.uniform(axis[0], axis[-1], n)
        outside = np.concatenate([rng.uniform(axis[-1], axis[-1] + 1.0, n // 2),
                                  rng.uniform(axis[0] - 1.0, axis[0], n - n // 2)])
        # -0.0 sits on the middle node and gives a -0.0 fraction
        cols.append(np.concatenate([on_nodes, between, outside, axis[[0, -1]], [-0.0]]))
    return np.stack(cols, axis=1)


def _thetas(field):
    t = field.times
    return [float(t[0]), float(t[3]), float(t[-1]), 0.5 * float(t[2] + t[3]), 0.37, -0.2, 1.4]


@pytest.mark.parametrize("dim, nodes", [(1, 17), (2, 9)])
@pytest.mark.parametrize("negative_zero_slice", [None, 2])
def test_table_gather_equals_corner_loop(dim, nodes, negative_zero_slice):
    field = _field(dim, nodes, 6, negative_zero_slice)
    rng = np.random.default_rng(10 + dim)
    x = _points(field.grid, rng)
    interp = GradientInterpolant(field)
    thetas = _thetas(field)
    if negative_zero_slice is not None:
        # on the all -0.0 slice alone, and weighted against its neighbour
        thetas += [float(field.times[2]), 0.5 * float(field.times[1] + field.times[2])]
    for theta in thetas:
        u, g, n_clamped = interp.evaluate(x, theta)
        u_ref, g_ref, clamped = reference_evaluate(interp, x, theta)
        assert u.tobytes() == u_ref.tobytes()
        assert g.shape == g_ref.shape and g.tobytes() == g_ref.tobytes()
        assert n_clamped == clamped


def test_negative_zero_slice_reads_positive_zero():
    # the sum starts at +0.0, so an all -0.0 slice gives +0.0, as the loop did
    field = _field(2, 9, 6, negative_zero_slice=2)
    interp = GradientInterpolant(field)
    x = _points(field.grid, np.random.default_rng(0))
    u, g, _ = interp.evaluate(x, float(field.times[2]))
    assert not np.signbit(u).any() and not np.signbit(g).any()


@pytest.mark.parametrize("dim, nodes", [(1, 17), (2, 9)])
def test_zero_time_weight_reads_nothing(dim, nodes):
    # theta on grid time 3: whichever neighbour gets weight 0 is NaN here,
    # and a skipped term leaves the sum finite
    field = _field(dim, nodes, 6)
    field.values[[2, 4]] = np.nan
    interp = GradientInterpolant(field)
    x = _points(field.grid, np.random.default_rng(3))
    u, g, _ = interp.evaluate(x, float(field.times[3]))
    u_ref, g_ref, _ = reference_evaluate(interp, x, float(field.times[3]))
    assert np.isfinite(u).all() and np.isfinite(g).all()
    assert u.tobytes() == u_ref.tobytes() and g.tobytes() == g_ref.tobytes()
