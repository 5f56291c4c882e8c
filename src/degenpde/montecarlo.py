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
Pricing streams the paths: one time loop carries O(paths) state per measure
and accumulates the payoff and the log-weight as it goes.
"""

import copy
import math
from dataclasses import dataclass
from itertools import product
from typing import Optional

import numpy as np

from .errors import ContractViolationError, DegeneracyError, ExtrapolationError
from .model import discount_and_xi

__all__ = [
    "PathEnsemble",
    "GradientInterpolant",
    "PricingKernel",
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
# Bytes of per-path-and-step arrays held at once when paths are simulated in
# blocks; the results do not depend on it.
NOISE_BLOCK_BYTES = 16 * 2**20


def path_blocks(n_paths, n_steps, width):
    """(lo, hi) bounds of consecutive path blocks within NOISE_BLOCK_BYTES.

    A block holds ``width`` doubles per path and step. No block is a lone
    path unless ``n_paths`` is 1: numpy multiplies a one-row matrix by
    another route than a taller one, and the last bits can differ.
    """
    rows = max(2, NOISE_BLOCK_BYTES // (n_steps * width * 8))
    lo = 0
    while lo < n_paths:
        hi = n_paths if n_paths - lo <= rows + 1 else lo + rows
        yield lo, hi
        lo = hi


def make_rng(seed, stream=None):
    """Counter-based generator; stream indices split the master seed."""
    ss = np.random.SeedSequence(seed) if stream is None else np.random.SeedSequence(seed, spawn_key=(stream,))
    return np.random.Generator(np.random.Philox(ss))


@dataclass
class PathEnsemble:
    """Simulated paths with retained driving increments and measure tag."""

    states: np.ndarray  # (n_paths, n_steps + 1, N)
    increments: np.ndarray  # (n_paths, n_steps, d)
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
    the box (or the time range) are clamped to the nearest face and counted,
    since paths may leave the truncated domain.
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
        self._rows = self._term = None
        self.clamped_evaluations = 0
        self.total_evaluations = 0

    def _locate(self, coords, i):
        # fractions come from the stored axis entries so that querying a grid
        # node bitwise reproduces the stored value exactly
        axis_vals = self.axes[i]
        pos = (coords - axis_vals[0]) / (axis_vals[1] - axis_vals[0])
        # np.minimum/np.maximum in place of np.clip, whose wrapper costs more
        # than the arithmetic at these sizes. They may keep a -0.0 fraction
        # that np.clip makes +0.0; a zero weight adds nothing to sums that
        # start at +0.0, so the results are the same
        idx = np.minimum(np.maximum(np.floor(pos).astype(np.int64), 0), self._cells[i] - 1)
        frac = (coords - axis_vals[idx]) / self._spacings[i][idx]
        clamped = (coords < axis_vals[0]) | (coords > axis_vals[-1])
        return idx, np.minimum(np.maximum(frac, 0.0), 1.0), clamped

    def _locate_time(self, theta):
        # _locate for one time, in Python floats
        times = self._time_list
        pos = (theta - times[0]) / (times[1] - times[0])
        k = min(max(math.floor(pos), 0), len(times) - 2)
        frac = (theta - times[k]) / (times[k + 1] - times[k])
        return k, min(max(frac, 0.0), 1.0), theta < times[0] or theta > times[-1]

    def evaluate(self, x, theta):
        """Interpolated (value, gradient) arrays at points x and time theta.

        The two time slices around theta are laid out per grid cell (corner,
        slice, value and gradient), and one gather reads every point's cell.
        The terms are summed in corner-then-slice order from +0.0, skipping
        zero time weights.
        """
        x = np.atleast_2d(np.asarray(x, dtype=float))
        n_pts = x.shape[0]
        self.total_evaluations += n_pts
        kt, wt, t_clamped = self._locate_time(float(theta))

        cell, fracs, clamped_any = 0, [], False
        for i in range(self.dim):
            idx, frac, cl = self._locate(x[:, i], i)
            cell = cell * self._cells[i] + idx
            fracs.append(frac)
            clamped_any = clamped_any | cl
        self.clamped_evaluations += n_pts if t_clamped else int(np.count_nonzero(clamped_any))

        slab = self._table[kt : kt + 2]
        n_corners, n_comp = len(self._corners), 1 + self.dim
        cells = np.empty((n_corners, 2, n_comp) + self._cells)
        for c, bits in enumerate(self._corners):
            corner = tuple(slice(b, b + m) for b, m in zip(bits, self._cells))
            cells[c] = slab[(slice(None), slice(None)) + corner]
        rows, term = self._buffers((n_corners, 2, n_comp, n_pts))
        # the cell indices are in range by construction; mode "clip" lets
        # take write into ``rows`` without an intermediate copy
        cells.reshape(n_corners, 2, n_comp, -1).take(cell, axis=-1, out=rows, mode="clip")

        lows = [1.0 - f for f in fracs]
        out = np.zeros((n_comp, n_pts))
        for c, bits in enumerate(self._corners):
            weight = fracs[0] if bits[0] else lows[0]
            for i in range(1, self.dim):
                weight = weight * (fracs[i] if bits[i] else lows[i])
            for k_off, t_weight in ((0, 1.0 - wt), (1, wt)):
                if t_weight == 0.0:
                    continue
                np.multiply(t_weight * weight, rows[c, k_off], out=term)
                out += term
        return out[0], np.ascontiguousarray(out[1:].T)

    def _buffers(self, shape):
        # the gathered rows and one term, kept between calls: allocated
        # afresh, arrays of this size go back to the system and fault in
        # again on every call, which doubled the time at 10 000 points
        if self._rows is None or self._rows.shape != shape:
            self._rows, self._term = np.empty(shape), np.empty(shape[2:])
        return self._rows, self._term

    def clamp_fraction(self):
        if self.total_evaluations == 0:
            return 0.0
        return self.clamped_evaluations / self.total_evaluations


class PricingKernel:
    """Girsanov kernel gamma built from a solved field and the model data."""

    def __init__(self, model, field, sigma):
        if field.variable != "U":
            raise ContractViolationError("pricing needs a price field U", variable=field.variable)
        self.model = model
        self.sigma = sigma
        self.interp = GradientInterpolant(field)
        self.xi, self.discount = discount_and_xi(model)
        self.floor = POSITIVITY_FLOOR_REL * float(self.xi(0.0))
        self.horizon = model.horizon

    def price_value(self, x, theta):
        """Price variable U at (x, theta) in equation time."""
        return self.interp.evaluate(x, theta)[0]

    def counting_copy(self):
        """Copy sharing the interpolation tables but counting clamps apart."""
        twin = copy.copy(self)
        twin.interp = copy.copy(self.interp)
        return twin

    def gamma(self, x, s, step=None):
        """Kernel at path states x and forward time s (theta = T - s)."""
        return self.gamma_and_principal(x, s, step=step)[0]

    def gamma_and_principal(self, x, s, step=None):
        """Kernel and principal h at path states x and forward time s."""
        theta = self.horizon - s
        x = np.atleast_2d(np.asarray(x, dtype=float))
        u_val, grad = self.interp.evaluate(x, theta)
        h_val = self.model.principal_h(x, theta)
        denom = u_val + h_val + float(self.xi(theta))
        if np.any(denom < self.floor):
            bad = int(np.argmin(denom))
            raise DegeneracyError(
                "denominator U + h + xi fell below the positivity floor",
                path=bad,
                step=step,
                value=float(denom[bad]),
                floor=self.floor,
            )
        sig = np.asarray(self.sigma(theta), dtype=float)
        return self.model.rho * (grad @ sig) / denom[:, None], h_val


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
    retained for reweighting; passing ``increments`` overrides the generator
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
        rng = make_rng(seed)
        increments = rng.standard_normal((n_paths, n_steps, d_noise)) * np.sqrt(ds)
    else:
        increments = np.asarray(increments, dtype=float)
        if increments.shape != (n_paths, n_steps, d_noise):
            raise ContractViolationError(
                "increments have wrong shape", expected=(n_paths, n_steps, d_noise)
            )
    states = np.empty((n_paths, n_steps + 1, dim))
    states[:, 0, :] = x0
    for k in range(n_steps):
        s = times[k]
        theta = horizon - s
        x = states[:, k, :]
        drift = np.asarray(mu(x, theta), dtype=float)
        if measure == "Q":
            gam = kernel.gamma(x, s, step=k)
            drift = drift - gam @ np.asarray(sigma(theta), dtype=float).T
        states[:, k + 1, :] = x + drift * ds + increments[:, k, :] @ np.asarray(
            sigma(theta), dtype=float
        ).T
    return PathEnsemble(states=states, increments=increments, times=times, measure=measure)


def girsanov_log_weight(ensemble, kernel):
    """Per-path log dQ/dP along physical paths, in stochastic-exponential form."""
    if ensemble.measure != "P":
        raise ContractViolationError("reweighting needs paths simulated under P")
    times = ensemble.times
    ds = times[1] - times[0]
    log_w = np.zeros(ensemble.n_paths)
    for k in range(ensemble.n_steps):
        gam = kernel.gamma(ensemble.states[:, k, :], times[k], step=k)
        dw = ensemble.increments[:, k, :]
        log_w -= np.sum(gam * dw, axis=1) + 0.5 * np.sum(gam * gam, axis=1) * ds
    return log_w


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
    _, discount = discount_and_xi(model)
    T = model.horizon
    disc = np.asarray(discount(t0, times), dtype=float)
    rates = np.asarray([float(model.rate_r(T - s)) for s in times])
    h_vals = np.stack([model.principal_h(states[:, k, :], T - times[k]) for k in range(len(times))], axis=1)
    integrand = (model.coupon_tau - rates)[None, :] * disc[None, :] * h_vals
    values = np.trapezoid(integrand, times, axis=1)
    return float(values[0]) if single else values


@dataclass
class PathSums:
    """Terminal states and per-path sums of one measure from ``stream_paths``."""

    state: np.ndarray  # (n_paths, N)
    payoff: np.ndarray  # (n_paths,) trapezoidal discounted payoff
    log_weight: Optional[np.ndarray]  # (n_paths,) log dQ/dP under P; None under Q


def stream_paths(kernels, mu, x0, t0, increments):
    """Price paths in one Euler-Maruyama time loop with O(paths) state.

    ``kernels`` maps "Q" (tilted drift mu - sigma gamma) and/or "P" (physical
    drift, Girsanov-reweighted) to a PricingKernel; both measures are driven
    by the same ``increments`` of shape (n_paths, n_steps, d). Each step
    evaluates gamma and h once per measure, adds the trapezoid term of the
    discounted payoff and, under P, subtracts gamma . dW + 1/2 |gamma|^2 ds
    from the log-weight. The states and log-weights equal those of
    ``simulate`` and ``girsanov_log_weight`` bit for bit; the payoffs equal
    ``payoff_discounted`` up to the order of summation.
    """
    kernel = next(iter(kernels.values()))
    model, sigma = kernel.model, kernel.sigma
    T = model.horizon
    n_paths, n_steps, _ = increments.shape
    times = np.linspace(t0, T, n_steps + 1)
    # the Euler step uses ds as simulate does, the log-weight the first grid
    # spacing as girsanov_log_weight does; the two can differ in the last bit
    ds = (T - t0) / n_steps
    ds_weight = times[1] - times[0]
    dt = np.diff(times)
    rates = np.asarray([float(model.rate_r(T - s)) for s in times])
    coef = (model.coupon_tau - rates) * np.asarray(kernel.discount(t0, times), dtype=float)
    x0 = np.atleast_1d(np.asarray(x0, dtype=float))
    sums = {
        m: PathSums(
            state=np.broadcast_to(x0, (n_paths, x0.shape[0])).copy(),
            payoff=np.zeros(n_paths),
            log_weight=np.zeros(n_paths) if m == "P" else None,
        )
        for m in kernels
    }
    integrand = {}

    def add_integrand(m, k, h_val):
        y = coef[k] * h_val
        if k:
            sums[m].payoff += dt[k - 1] * (y + integrand[m]) / 2.0
        integrand[m] = y

    for k in range(n_steps):
        s = times[k]
        theta = T - s
        sig_t = np.asarray(sigma(theta), dtype=float).T
        dw = increments[:, k, :]
        noise = dw @ sig_t
        for m, kern in kernels.items():
            ps = sums[m]
            x = ps.state
            gam, h_val = kern.gamma_and_principal(x, s, step=k)
            add_integrand(m, k, h_val)
            drift = np.asarray(mu(x, theta), dtype=float)
            if m == "Q":
                drift = drift - gam @ sig_t
            else:
                ps.log_weight -= np.sum(gam * dw, axis=1) + 0.5 * np.sum(gam * gam, axis=1) * ds_weight
            ps.state = x + drift * ds + noise
    for m, ps in sums.items():
        add_integrand(m, n_steps, model.principal_h(ps.state, T - times[-1]))
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
    bit-identical. Each chunk's noise is drawn and streamed in consecutive
    blocks of at most NOISE_BLOCK_BYTES. Consecutive draws concatenate to
    the chunk's single draw and every per-path quantity is elementwise, so
    the results do not depend on the block size, and peak memory is
    O(block + paths), not O(chunk x steps). A DegeneracyError names the path
    (by its index within the chunk) and the step of an unblocked pass; to
    find them, a chunk with a failing block is replayed in one block. The pw
    report adds the Girsanov weights' effective sample size
    (sum w)^2 / sum w^2 and their largest weight.
    """
    if mode not in ("q", "pw", "both"):
        raise ContractViolationError("mode must be q, pw or both", mode=mode)
    if chunk_size < 1:
        raise ContractViolationError("chunk size must be positive", chunk_size=chunk_size)
    x0 = np.atleast_1d(np.asarray(x0, dtype=float))
    grid = field.grid
    for xi_c, r, dxi in zip(x0, grid.half_width, grid.dx):
        if abs(xi_c) > r - dxi:
            raise ExtrapolationError(
                "pricing point must lie inside the interior of the grid box",
                x0=tuple(x0),
                half_width=grid.half_width,
            )
    theta0 = model.horizon - price_time
    if not 0.0 <= theta0 <= model.horizon + 1e-12:
        raise ContractViolationError("price time outside [0, T]", price_time=price_time)

    kernel = PricingKernel(model, field, sigma)
    pde_value = float(kernel.price_value(x0[None, :], theta0)[0])
    measures = {"q": "Q", "pw": "P"}
    modes = ("q", "pw") if mode == "both" else (mode,)
    kernels = {measures[m]: kernel.counting_copy() for m in modes}

    d_noise = np.asarray(sigma(0.0)).shape[1]
    ds = (model.horizon - price_time) / n_steps
    blocks = []
    for stream, start in enumerate(range(0, n_paths, chunk_size)):
        batch = min(chunk_size, n_paths - start)
        rng = make_rng(seed, stream)
        for lo, hi in path_blocks(batch, n_steps, d_noise):
            incs = rng.standard_normal((hi - lo, n_steps, d_noise))
            incs *= np.sqrt(ds)
            try:
                blocks.append(stream_paths(kernels, mu, x0, price_time, incs))
            except DegeneracyError:
                if hi - lo == batch:
                    raise
                # a later block may fail at an earlier step: replay the chunk
                # in one block so that the error names the path and step of
                # the whole chunk
                incs = make_rng(seed, stream).standard_normal((batch, n_steps, d_noise))
                incs *= np.sqrt(ds)
                stream_paths(kernels, mu, x0, price_time, incs)
                raise
            del incs  # free this block's noise before the next one is drawn

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
        clamp_fraction = kernels[meas].interp.clamp_fraction()
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
