"""Factor-process simulation, Girsanov reweighting, and the pricing check.

The factor process follows dX_s = mu(X_s, T-s) ds + sigma(T-s) dW_s under the
physical measure. The martingale-measure kernel is

    gamma_s = rho sigma^T(T-s) grad U(X_s, T-s) / (U + h + xi)(X_s, T-s),

so the changed measure either tilts the drift to mu - sigma gamma (Q-drift
simulation) or reweights physical paths by the stochastic exponential

    log dQ/dP = -sum gamma . dW - 1/2 sum |gamma|^2 ds,

whose weights have unit mean. The discounted payoff integrates
(tau - r(T-s)) exp(-int_t^s r(T-k) dk) h(X_s, T-s) along each path; its Monte
Carlo mean under either mode is compared against the grid solution U(x0, T-t).
Pricing streams the paths: one time loop carries each measure's O(paths)
state, payoff, log-weight and clamp tally over step-major noise, and sigma and
xi are taken once per step for the whole pass.
"""

import math
from dataclasses import dataclass
from itertools import product
from typing import Optional

import numpy as np

from .errors import ContractViolationError, DegeneracyError, ExtrapolationError
from .model import _dot, discount_and_xi

__all__ = [
    "PathEnsemble",
    "GradientInterpolant",
    "PricingKernel",
    "EulerSteps",
    "map_blocks",
    "simulate",
    "girsanov_log_weight",
    "payoff_discounted",
    "PathSums",
    "stream_paths",
    "PricingReport",
    "DualityReport",
    "price_and_compare",
    "weight_statistics",
]

POSITIVITY_FLOOR_REL = 1e-8
# Bytes of per-path-and-step arrays held at once by a block of the pricing
# pass (price_and_compare) only; the results do not depend on it. Each extra
# block costs the pass time, so it is larger than diagnose-degeneracy's.
NOISE_BLOCK_BYTES = 16 * 2**20
# Paths per sub-draw of a noise draw (draw_increments); the results do not
# depend on it.
_SUB_DRAW_ROWS = 64


def map_blocks(fn, rng, n_paths, n_steps, d_noise, ds, width, block_bytes):
    """[fn(lo, noise) for each block of consecutive paths, lo its first].

    A block holds ``width`` doubles per path and step within the caller's
    ``block_bytes``. Its noise is the next ``draw_increments`` from
    ``rng``, so the blocks' noise concatenates on the path axis to one draw
    of ``n_paths``. A block is drawn only after ``fn`` has returned for the
    one before, which frees that noise unless ``fn`` keeps it. No block is
    a lone path unless ``n_paths`` is 1: numpy multiplies a one-row matrix
    by another route than a taller one, and the last bits can differ.
    """
    rows = max(2, block_bytes // (n_steps * width * 8))
    out = []
    lo = 0
    while lo < n_paths:
        hi = n_paths if n_paths - lo <= rows + 1 else lo + rows
        out.append(fn(lo, draw_increments(rng, hi - lo, n_steps, d_noise, ds)))
        lo = hi
    return out


def make_rng(seed, stream=None):
    """Counter-based generator; stream indices split the master seed."""
    ss = np.random.SeedSequence(seed) if stream is None else np.random.SeedSequence(seed, spawn_key=(stream,))
    return np.random.Generator(np.random.Philox(ss))


def draw_increments(rng, n_paths, n_steps, d_noise, ds):
    """Brownian increments over steps ds, laid out step-major, (n_steps, n_paths, d_noise).

    Path i's increments are row i of one (n_paths, n_steps, d_noise) normal
    draw. The paths are drawn in consecutive sub-draws of _SUB_DRAW_ROWS,
    each copied into place while it is small enough to stay in cache, and
    freed before the next. Consecutive draws concatenate bit for bit to one
    draw, so the result does not depend on the sub-draw size, and no second
    copy of the noise is held.
    """
    out = np.empty((n_steps, n_paths, d_noise))
    for lo in range(0, n_paths, _SUB_DRAW_ROWS):
        hi = min(lo + _SUB_DRAW_ROWS, n_paths)
        out[:, lo:hi] = rng.standard_normal((hi - lo, n_steps, d_noise)).transpose(1, 0, 2)
    out *= np.sqrt(ds)
    return out


@dataclass
class PathEnsemble:
    """Simulated paths with retained driving increments and measure tag."""

    states: np.ndarray  # (n_paths, n_steps + 1, N)
    increments: np.ndarray  # (n_steps, n_paths, d), step-major
    times: np.ndarray  # (n_steps + 1,)
    measure: str  # "P" | "Q"

    @property
    def n_paths(self):
        return self.states.shape[0]

    @property
    def n_steps(self):
        return self.states.shape[1] - 1


class GradientInterpolant:
    """Multilinear space-time interpolation of a field and its gradient.

    Sampling a grid node reproduces the stored value exactly; points outside
    the box (or the time range) are clamped to the nearest face, since paths
    may leave the truncated domain, and each evaluation returns their count.
    """

    def __init__(self, field):
        self.field = field
        grid = field.grid
        self.axes = grid.axes
        self.times = field.times
        self.dim = grid.dim
        values = field.values
        # value then gradient components per time slice, so that one gather
        # reads all of them
        table = np.empty((values.shape[0], 1 + grid.dim) + values.shape[1:])
        table[:, 0] = values
        for i in range(grid.dim):
            table[:, 1 + i] = np.gradient(values, grid.axes[i], axis=1 + i, edge_order=2)
        self._table = table  # (M+1, 1 + N, *shape)
        self._cells = tuple(len(a) - 1 for a in grid.axes)
        self._corners = list(product((0, 1), repeat=grid.dim))
        self._spacings = [np.diff(a) for a in grid.axes]
        self._time_list = [float(t) for t in field.times]
        self._time_hits = {}
        self._slab = self._slab_kt = None
        self._scratch = None

    def _locate(self, coords, i, s):
        # writes the cell index and the clipped fraction of coords along axis
        # i into s["idx"][i] and s["frac"][i], and ORs their clamp flags into
        # s["clamped"]. The fractions come from the stored axis entries so
        # that querying a grid node bitwise reproduces the stored value
        # exactly
        axis_vals = self.axes[i]
        idx, frac, gather, flag = s["idx"][i], s["frac"][i], s["gather"], s["flag"]
        np.subtract(coords, axis_vals[0], out=frac)
        np.divide(frac, axis_vals[1] - axis_vals[0], out=frac)
        np.floor(frac, out=frac)
        np.copyto(idx, frac, casting="unsafe")
        # np.minimum/np.maximum in place of np.clip, whose wrapper costs more
        # than the arithmetic at these sizes. They may keep a -0.0 fraction
        # that np.clip makes +0.0; a zero weight adds nothing to sums that
        # start at +0.0, so the results are the same
        np.maximum(idx, 0, out=idx)
        np.minimum(idx, self._cells[i] - 1, out=idx)
        # the indices are in range by construction; mode "clip" lets take
        # write into its buffer without an intermediate copy
        axis_vals.take(idx, out=gather, mode="clip")
        np.subtract(coords, gather, out=frac)
        self._spacings[i].take(idx, out=gather, mode="clip")
        np.divide(frac, gather, out=frac)
        np.maximum(frac, 0.0, out=frac)
        np.minimum(frac, 1.0, out=frac)
        for compare, bound in ((np.less, axis_vals[0]), (np.greater, axis_vals[-1])):
            compare(coords, bound, out=flag)
            np.logical_or(s["clamped"], flag, out=s["clamped"])

    def _locate_time(self, theta):
        # _locate for one time, in Python floats; a pricing pass asks for the
        # same times in every noise block, so each is located once
        hit = self._time_hits.get(theta)
        if hit is None:
            times = self._time_list
            pos = (theta - times[0]) / (times[1] - times[0])
            k = min(max(math.floor(pos), 0), len(times) - 2)
            frac = (theta - times[k]) / (times[k + 1] - times[k])
            hit = self._time_hits[theta] = (k, min(max(frac, 0.0), 1.0), theta < times[0] or theta > times[-1])
        return hit

    def evaluate(self, x, theta):
        """Interpolated (value, gradient, clamped count) at points x and time theta.

        The two time slices around theta are laid out per grid cell (corner,
        slice, value and gradient), and one gather reads every point's cell.
        The terms are summed in corner-then-slice order from +0.0, skipping
        zero time weights. Only the returned arrays are allocated: the
        working arrays are kept between calls with the same number of points.
        """
        x = np.atleast_2d(np.asarray(x, dtype=float))
        n_pts = x.shape[0]
        kt, wt, t_clamped = self._locate_time(float(theta))
        s = self._scratch_for(n_pts)

        s["clamped"].fill(False)
        fracs, lows = s["frac"], s["low"]
        for i in range(self.dim):
            self._locate(x[:, i], i, s)
            np.subtract(1.0, fracs[i], out=lows[i])
        cell = s["idx"][0]
        for i in range(1, self.dim):
            cell = np.multiply(cell, self._cells[i], out=s["cell"])
            np.add(cell, s["idx"][i], out=cell)
        n_clamped = n_pts if t_clamped else int(np.count_nonzero(s["clamped"]))

        rows, term, scaled = s["rows"], s["term"], s["scaled"]
        self._cell_slab(kt).take(cell, axis=-1, out=rows, mode="clip")
        out = np.zeros((1 + self.dim, n_pts))
        for c, bits in enumerate(self._corners):
            weight = fracs[0] if bits[0] else lows[0]
            for i in range(1, self.dim):
                weight = np.multiply(weight, fracs[i] if bits[i] else lows[i], out=s["weight"])
            for k_off, t_weight in ((0, 1.0 - wt), (1, wt)):
                if t_weight == 0.0:
                    continue
                np.multiply(weight, t_weight, out=scaled)
                np.multiply(scaled, rows[c, k_off], out=term)
                out += term
        return out[0], np.ascontiguousarray(out[1:].T), n_clamped

    def _cell_slab(self, kt):
        # the slices kt and kt + 1 laid out per cell as (corner, slice,
        # component, cell); rebuilt only when kt changes, so the measures of
        # one Euler step share it
        shape = (len(self._corners), 2, 1 + self.dim)
        if self._slab_kt != kt:
            if self._slab is None:
                self._slab = np.empty(shape + self._cells)
            pair = self._table[kt : kt + 2]
            for c, bits in enumerate(self._corners):
                corner = tuple(slice(b, b + m) for b, m in zip(bits, self._cells))
                self._slab[c] = pair[(slice(None), slice(None)) + corner]
            self._slab_kt = kt
        return self._slab.reshape(shape + (-1,))

    def _scratch_for(self, n_pts):
        # working arrays kept between calls: allocated afresh, arrays of this
        # size go back to the system and fault in again on every call, which
        # doubled the time at 10 000 points
        s = self._scratch
        if s is None or s["n_pts"] != n_pts:
            per_axis = range(self.dim)
            s = self._scratch = {
                "n_pts": n_pts,
                "idx": [np.empty(n_pts, dtype=np.int64) for _ in per_axis],
                "frac": [np.empty(n_pts) for _ in per_axis],
                "low": [np.empty(n_pts) for _ in per_axis],
                "clamped": np.empty(n_pts, dtype=bool),
                "flag": np.empty(n_pts, dtype=bool),
                "gather": np.empty(n_pts),
                "cell": np.empty(n_pts, dtype=np.int64),
                "weight": np.empty(n_pts),
                "scaled": np.empty(n_pts),
                "rows": np.empty((len(self._corners), 2, 1 + self.dim, n_pts)),
                "term": np.empty((1 + self.dim, n_pts)),
            }
        return s


class PricingKernel:
    """Girsanov kernel gamma built from a solved field and the model data."""

    def __init__(self, model, field, sigma):
        if field.variable != "U":
            raise ContractViolationError("pricing needs a price field U", variable=field.variable)
        self.model = model
        self.sigma = sigma
        self.interp = GradientInterpolant(field)
        self.xi = discount_and_xi(model)[0]
        self.floor = POSITIVITY_FLOOR_REL * float(self.xi(0.0))

    def gamma(self, x, s, step=None):
        """Kernel at path states x and forward time s (theta = T - s)."""
        theta = self.model.horizon - s
        x = np.atleast_2d(np.asarray(x, dtype=float))
        sig = np.asarray(self.sigma(theta), dtype=float)
        return self.gamma_and_principal(x, theta, sig, float(self.xi(theta)), step)[0]

    def gamma_and_principal(self, x, theta, sig, xi_t, step=None):
        """Kernel, principal h and clamped count at 2-D states x, given sigma(theta) and xi(theta)."""
        u_val, grad, n_clamped = self.interp.evaluate(x, theta)
        h_val = self.model.principal_h(x, theta)
        denom = u_val + h_val + xi_t
        if (denom < self.floor).any():
            bad = int(np.argmin(denom))
            raise DegeneracyError(
                "denominator U + h + xi fell below the positivity floor",
                path=bad,
                step=step,
                value=float(denom[bad]),
                floor=self.floor,
            )
        return self.model.rho * _product(grad, sig) / denom[:, None], h_val, n_clamped


class EulerSteps:
    """What n_steps Euler steps on [t0, T] of a pricing pass need besides
    the paths: the times, theta = T - s, sigma(theta) and xi(theta) per step,
    the payoff rate (tau - r) D(t0, s) per time and the step lengths. They
    depend on the step alone, so a pass builds them once and every noise
    block reads them: sigma and xi are taken once per step."""

    def __init__(self, kernel, t0, n_steps):
        model = kernel.model
        T = model.horizon
        self.n_steps = n_steps
        self.times = np.linspace(t0, T, n_steps + 1)
        self.theta = [T - s for s in self.times]
        self.sigma = [np.asarray(kernel.sigma(theta), dtype=float) for theta in self.theta[:-1]]
        self.xi = [float(kernel.xi(theta)) for theta in self.theta[:-1]]
        self.coef = payoff_rate(model, t0, self.times)
        self.dt = np.diff(self.times)
        # the Euler step uses ds as simulate does, the log-weight the first
        # grid spacing as girsanov_log_weight does; the two can differ in the
        # last bit
        self.ds = (T - t0) / n_steps
        self.ds_weight = self.times[1] - self.times[0]


def _product(a, m, out=None):
    """a @ m. Where the contracted axis has length 1 it is a broadcast
    multiply, which is exact: one product and no sum (only the sign of a
    zero product can differ, as matmul adds it to +0.0)."""
    if m.shape[0] == 1:
        return np.multiply(a, m[0], out=out)
    return np.matmul(a, m, out=out)


def simulate(
    sigma,
    mu,
    x0,
    t0,
    horizon,
    n_steps,
    n_paths,
    measure="P",
    kernel=None,
    seed=0,
    increments=None,
):
    """Euler-Maruyama paths of the factor process on [t0, horizon].

    measure "P" uses the physical drift mu(x, T-s); measure "Q" needs the
    pricing kernel and uses mu - sigma gamma. The driving increments are
    ``draw_increments``' step-major noise, so step k reads the contiguous row
    ``increments[k]``; they are retained for reweighting. Passing
    ``increments``, shape (n_steps, n_paths, d), overrides the generator
    (used for common-noise refinement checks).
    """
    if measure not in ("P", "Q"):
        raise ContractViolationError("measure must be P or Q", measure=measure)
    if measure == "Q" and kernel is None:
        raise ContractViolationError("measure Q requires a pricing kernel")
    x0 = np.atleast_1d(np.asarray(x0, dtype=float))
    dim = x0.shape[0]
    times = np.linspace(t0, horizon, n_steps + 1)
    ds = (horizon - t0) / n_steps
    d_noise = np.asarray(sigma(0.0)).shape[1]
    if increments is None:
        increments = draw_increments(make_rng(seed), n_paths, n_steps, d_noise, ds)
    else:
        increments = np.asarray(increments, dtype=float)
        if increments.shape != (n_steps, n_paths, d_noise):
            raise ContractViolationError(
                "increments have wrong shape", expected=(n_steps, n_paths, d_noise)
            )
    states = np.empty((n_paths, n_steps + 1, dim))
    states[:, 0, :] = x0
    for k in range(n_steps):
        s = times[k]
        theta = horizon - s
        x = states[:, k, :]
        sig_t = np.asarray(sigma(theta), dtype=float).T
        drift = np.asarray(mu(x, theta), dtype=float)
        if measure == "Q":
            drift = drift - kernel.gamma(x, s, step=k) @ sig_t
        states[:, k + 1, :] = x + drift * ds + increments[k] @ sig_t
    return PathEnsemble(states=states, increments=increments, times=times, measure=measure)


def girsanov_log_weight(ensemble, kernel):
    """Per-path log dQ/dP along physical paths, in stochastic-exponential
    form; step k reads the ensemble's noise as the row ``increments[k]``."""
    if ensemble.measure != "P":
        raise ContractViolationError("reweighting needs paths simulated under P")
    times = ensemble.times
    ds = times[1] - times[0]
    log_w = np.zeros(ensemble.n_paths)
    for k in range(ensemble.n_steps):
        gam = kernel.gamma(ensemble.states[:, k, :], times[k], step=k)
        dw = ensemble.increments[k]
        log_w -= _dot(gam, dw) + 0.5 * _dot(gam, gam) * ds
    return log_w


def payoff_rate(model, t0, times):
    """(tau - r(T-s)) D(t0, s) at forward times s: the payoff rate per unit principal."""
    T = model.horizon
    rates = np.asarray([float(model.rate_r(T - s)) for s in times])
    return (model.coupon_tau - rates) * np.asarray(discount_and_xi(model)[1](t0, times), dtype=float)


def payoff_discounted(states, times, model, t0=None):
    """Trapezoidal discounted principal payoff along one path or a batch.

    Integrand: (tau - r(T-s)) exp(-int_t0^s r(T-k) dk) h(X_s, T-s).
    """
    states = np.asarray(states, dtype=float)
    single = states.ndim == 2
    if single:
        states = states[None, :, :]
    times = np.asarray(times, dtype=float)
    if t0 is None:
        t0 = float(times[0])
    T = model.horizon
    h_vals = np.stack([model.principal_h(states[:, k, :], T - times[k]) for k in range(len(times))], axis=1)
    integrand = payoff_rate(model, t0, times)[None, :] * h_vals
    values = np.trapezoid(integrand, times, axis=1)
    return float(values[0]) if single else values


@dataclass
class PathSums:
    """Terminal states and per-path sums of one measure from ``stream_paths``."""

    state: np.ndarray  # (n_paths, N)
    payoff: np.ndarray  # (n_paths,) trapezoidal discounted payoff
    log_weight: Optional[np.ndarray]  # (n_paths,) log dQ/dP under P; None under Q
    clamped: int = 0  # path evaluations the interpolant clamped to its box


def stream_paths(kernel, measures, mu, x0, steps, increments):
    """Price paths in one Euler-Maruyama time loop with O(paths) state.

    ``measures`` holds "Q" (tilted drift mu - sigma gamma) and/or "P"
    (physical drift, Girsanov-reweighted), both driven by ``increments`` and
    priced with ``kernel``. The increments are ``draw_increments``'
    step-major noise, shape (n_steps, n_paths, d), so that step k reads the
    contiguous rows ``increments[k]``. Each step takes sigma and xi from
    ``steps``, the pass's ``EulerSteps``, then gamma and h once per measure,
    adds the trapezoid term of the discounted payoff and, under P, subtracts
    gamma . dW + 1/2 |gamma|^2 ds from the log-weight. The states and
    log-weights equal those of ``simulate`` and ``girsanov_log_weight`` bit
    for bit; the payoffs equal ``payoff_discounted`` up to the order of
    summation. A DegeneracyError carries the measure it was pricing as
    ``measure``.
    """
    n_steps, n_paths, _ = increments.shape
    if n_steps != steps.n_steps:
        raise ContractViolationError("increments and Euler steps differ in length", expected=steps.n_steps)
    coef, dt = steps.coef, steps.dt
    x0 = np.atleast_1d(np.asarray(x0, dtype=float))
    sums = {
        m: PathSums(
            state=np.broadcast_to(x0, (n_paths, x0.shape[0])).copy(),
            payoff=np.zeros(n_paths),
            log_weight=np.zeros(n_paths) if m == "P" else None,
        )
        for m in measures
    }
    integrand = {}
    # per-step products, written in place
    noise, tilt, move = (np.empty((n_paths, x0.shape[0])) for _ in range(3))

    def add_integrand(m, k, h_val):
        y = coef[k] * h_val
        if k:
            sums[m].payoff += dt[k - 1] * (y + integrand[m]) / 2.0
        integrand[m] = y

    for k in range(n_steps):
        theta, sig, xi_t = steps.theta[k], steps.sigma[k], steps.xi[k]
        dw = increments[k]
        _product(dw, sig.T, noise)
        for m, ps in sums.items():
            x = ps.state
            try:
                gam, h_val, n_clamped = kernel.gamma_and_principal(x, theta, sig, xi_t, step=k)
            except DegeneracyError as err:
                err.measure = m
                raise
            ps.clamped += n_clamped
            add_integrand(m, k, h_val)
            drift = np.asarray(mu(x, theta), dtype=float)
            if m == "Q":
                drift = drift - _product(gam, sig.T, tilt)
            else:
                ps.log_weight -= _dot(gam, dw) + 0.5 * _dot(gam, gam) * steps.ds_weight
            # x + drift ds + noise, summed in that order into the state
            np.multiply(drift, steps.ds, out=move)
            x += move
            x += noise
    for m, ps in sums.items():
        add_integrand(m, n_steps, kernel.model.principal_h(ps.state, steps.theta[-1]))
    return sums


@dataclass
class PricingReport:
    """Monte Carlo vs grid-solution comparison for one estimator mode; the
    weight fields are set in mode pw only."""

    mode: str
    mc_mean: float
    mc_se: float
    pde_value: float
    abs_diff: float  # |mc_mean - pde_value|
    z_score: float
    n_paths: int
    n_steps: int
    seed: int
    clamp_fraction: float = 0.0
    clamp_flag: bool = False
    weight_mean: Optional[float] = None
    weight_se: Optional[float] = None
    weight_ess: Optional[float] = None  # (sum w)^2 / sum w^2
    max_weight: Optional[float] = None
    x0: tuple = ()
    price_time: float = 0.0


@dataclass
class DualityReport:
    """Both estimator modes priced on shared noise, and their agreement:
    the difference of the means, its combined standard error and z-score."""

    q: PricingReport
    pw: PricingReport
    agreement: dict

    @property
    def n_paths(self):
        return self.q.n_paths

    @property
    def n_steps(self):
        return self.q.n_steps


def weight_statistics(log_weights):
    w = np.exp(log_weights)
    mean = float(np.mean(w))
    se = float(np.std(w, ddof=1) / np.sqrt(len(w))) if len(w) > 1 else 0.0
    return mean, se


def price_and_compare(
    model,
    field,
    sigma,
    mu,
    x0,
    price_time=0.0,
    n_paths=100_000,
    n_steps=500,
    seed=0,
    mode="q",
    chunk_size=50_000,
):
    """Estimate the discounted payoff by Monte Carlo and compare to the grid.

    mode "q" simulates under the tilted drift; mode "pw" simulates physical
    paths and reweights them by the Girsanov exponential; mode "both" runs
    the two on the same noise in one pass and returns a DualityReport.
    Paths are processed in fixed-size chunks; chunk c draws its increments
    from stream c of the master seed, so a rerun with the same seed is
    bit-identical. ``map_blocks`` draws and streams each chunk's noise in
    consecutive blocks of at most NOISE_BLOCK_BYTES, each a step-major
    ``draw_increments`` filled from consecutive sub-draws of _SUB_DRAW_ROWS
    paths. Consecutive draws concatenate to the chunk's single draw and
    every per-path quantity is elementwise, so the results depend on neither
    the block nor the sub-draw size, and peak memory is O(block + paths),
    not O(chunk x steps). Every block reads the pass's one ``EulerSteps``.
    A DegeneracyError names the path (by its index within the chunk) and the
    step of an unblocked pass: each block of a failing chunk runs to its own
    first failure, and the chunk raises the one that pass meets first. The
    pw report adds the Girsanov weights' effective sample size
    (sum w)^2 / sum w^2 and their largest weight.
    """
    if mode not in ("q", "pw", "both"):
        raise ContractViolationError("mode must be q, pw or both", mode=mode)
    if chunk_size < 1:
        raise ContractViolationError("chunk size must be positive", chunk_size=chunk_size)
    x0 = np.atleast_1d(np.asarray(x0, dtype=float))
    grid = field.grid
    for xi_c, r, dxi in zip(x0, grid.half_width, grid.dx):
        if not abs(xi_c) <= r - dxi:
            raise ExtrapolationError(
                "pricing point must lie inside the interior of the grid box",
                x0=tuple(x0),
                half_width=grid.half_width,
            )
    theta0 = model.horizon - price_time
    if not 0.0 <= theta0 <= model.horizon + 1e-12:
        raise ContractViolationError("price time outside [0, T]", price_time=price_time)

    kernel = PricingKernel(model, field, sigma)
    pde_value = float(kernel.interp.evaluate(x0[None, :], theta0)[0][0])
    measures = {"q": "Q", "pw": "P"}
    modes = ("q", "pw") if mode == "both" else (mode,)
    run = [measures[m] for m in modes]

    d_noise = np.asarray(sigma(0.0)).shape[1]
    steps = EulerSteps(kernel, price_time, n_steps)

    def price_block(lo, incs):
        try:
            return stream_paths(kernel, run, mu, x0, steps, incs)
        except DegeneracyError as err:
            # named within the chunk; a kept traceback would hold the noise
            err.details["path"] += lo
            return err.with_traceback(None)

    blocks = []
    for stream, start in enumerate(range(0, n_paths, chunk_size)):
        batch = min(chunk_size, n_paths - start)
        done = map_blocks(
            price_block, make_rng(seed, stream), batch, n_steps, d_noise, steps.ds, d_noise, NOISE_BLOCK_BYTES
        )
        failures = [b for b in done if isinstance(b, DegeneracyError)]
        if failures:
            # an unblocked pass stops at the first step and measure that
            # fail, and names the argmin of the denominator there
            raise min(
                failures,
                key=lambda e: (e.details["step"], run.index(e.measure), e.details["value"], e.details["path"]),
            )
        blocks += done

    reports = {}
    for m in modes:
        meas = measures[m]
        pay = np.concatenate([b[meas].payoff for b in blocks])
        w_mean = w_se = w_ess = w_max = None
        if m == "pw":
            log_w = np.concatenate([b[meas].log_weight for b in blocks])
            w = np.exp(log_w)
            sample = pay * w
            w_mean, w_se = weight_statistics(log_w)
            w_ess = float(w.sum() ** 2 / np.dot(w, w))
            w_max = float(w.max())
        else:
            sample = pay
        mc_mean = float(np.mean(sample))
        mc_se = float(np.std(sample, ddof=1) / np.sqrt(len(sample)))
        diff = abs(mc_mean - pde_value)
        z = diff / mc_se if mc_se > 0.0 else (0.0 if diff == 0.0 else np.inf)
        clamp_fraction = sum(b[meas].clamped for b in blocks) / (n_paths * n_steps)
        reports[m] = PricingReport(
            mode=m,
            mc_mean=mc_mean,
            mc_se=mc_se,
            pde_value=pde_value,
            abs_diff=diff,
            z_score=float(z),
            n_paths=n_paths,
            n_steps=n_steps,
            seed=seed,
            clamp_fraction=clamp_fraction,
            clamp_flag=clamp_fraction > 0.01,
            weight_mean=w_mean,
            weight_se=w_se,
            weight_ess=w_ess,
            max_weight=w_max,
            x0=tuple(float(v) for v in x0),
            price_time=float(price_time),
        )
    if mode != "both":
        return reports[mode]
    q, pw = reports["q"], reports["pw"]
    diff = abs(q.mc_mean - pw.mc_mean)
    combined = float(np.hypot(q.mc_se, pw.mc_se))
    agreement = {
        "difference": diff,
        "combined_se": combined,
        "z_score": diff / combined if combined > 0 else 0.0,
    }
    return DualityReport(q=q, pw=pw, agreement=agreement)
