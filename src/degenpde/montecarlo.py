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
        grads = [
            np.gradient(values, grid.axes[i], axis=1 + i, edge_order=2)
            for i in range(grid.dim)
        ]
        self.grad_values = np.stack(grads, axis=-1)  # (M+1, *shape, N)
        self.clamped_evaluations = 0
        self.total_evaluations = 0

    def _locate(self, coords, axis_vals):
        # fractions come from the stored axis entries so that querying a grid
        # node bitwise reproduces the stored value exactly
        n = len(axis_vals)
        dx = axis_vals[1] - axis_vals[0]
        pos = (coords - axis_vals[0]) / dx
        idx = np.clip(np.floor(pos).astype(np.int64), 0, n - 2)
        frac = (coords - axis_vals[idx]) / (axis_vals[idx + 1] - axis_vals[idx])
        clamped = (coords < axis_vals[0]) | (coords > axis_vals[-1])
        return idx, np.clip(frac, 0.0, 1.0), clamped

    def evaluate(self, x, theta):
        """Interpolated (value, gradient) arrays at points x and time theta."""
        x = np.atleast_2d(np.asarray(x, dtype=float))
        n_pts = x.shape[0]
        self.total_evaluations += n_pts

        t_arr = np.asarray([theta], dtype=float)
        kt, wt, t_clamped = self._locate(t_arr, self.times)
        kt, wt = int(kt[0]), float(wt[0])

        idxs, fracs, clamped_any = [], [], np.zeros(n_pts, dtype=bool)
        for i in range(self.dim):
            idx, frac, cl = self._locate(x[:, i], self.axes[i])
            idxs.append(idx)
            fracs.append(frac)
            clamped_any |= cl
        if t_clamped[0]:
            clamped_any |= True
        self.clamped_evaluations += int(np.count_nonzero(clamped_any))

        u_out = np.zeros(n_pts)
        g_out = np.zeros((n_pts, self.dim))
        for bits in product((0, 1), repeat=self.dim):
            weight = np.ones(n_pts)
            for i, b in enumerate(bits):
                weight = weight * (fracs[i] if b else 1.0 - fracs[i])
            corner = tuple(idxs[i] + bits[i] for i in range(self.dim))
            for k_off, t_weight in ((0, 1.0 - wt), (1, wt)):
                if t_weight == 0.0:
                    continue
                sl = (kt + k_off,) + corner
                u_out += t_weight * weight * self.field.values[sl]
                g_out += (t_weight * weight)[:, None] * self.grad_values[sl]
        return u_out, g_out

    def value(self, x, theta):
        return self.evaluate(x, theta)[0]

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
    """Monte Carlo vs grid-solution comparison for one estimator mode."""

    mode: str
    mc_mean: float
    mc_se: float
    pde_value: float
    z_score: float
    n_paths: int
    n_steps: int
    seed: int
    clamp_fraction: float = 0.0
    clamp_flag: bool = False
    weight_mean: Optional[float] = None
    weight_se: Optional[float] = None
    x0: tuple = ()
    price_time: float = 0.0

    @property
    def abs_diff(self):
        return abs(self.mc_mean - self.pde_value)

    def as_dict(self):
        out = {
            "mode": self.mode,
            "mc_mean": self.mc_mean,
            "mc_se": self.mc_se,
            "pde_value": self.pde_value,
            "abs_diff": self.abs_diff,
            "z_score": self.z_score,
            "n_paths": self.n_paths,
            "n_steps": self.n_steps,
            "seed": self.seed,
            "clamp_fraction": self.clamp_fraction,
            "clamp_flag": self.clamp_flag,
            "x0": list(self.x0),
            "price_time": self.price_time,
        }
        if self.weight_mean is not None:
            out["weight_mean"] = self.weight_mean
            out["weight_se"] = self.weight_se
        return out


@dataclass
class DualityReport:
    """Both estimator modes priced on shared noise, and their agreement."""

    q: PricingReport
    pw: PricingReport

    @property
    def n_paths(self):
        return self.q.n_paths

    @property
    def n_steps(self):
        return self.q.n_steps

    def as_dict(self):
        diff = abs(self.q.mc_mean - self.pw.mc_mean)
        combined = float(np.hypot(self.q.mc_se, self.pw.mc_se))
        return {
            "q": self.q.as_dict(),
            "pw": self.pw.as_dict(),
            "agreement": {
                "difference": diff,
                "combined_se": combined,
                "z_score": diff / combined if combined > 0 else 0.0,
            },
        }


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
    bit-identical.
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
    chunks = []
    for stream, start in enumerate(range(0, n_paths, chunk_size)):
        batch = min(chunk_size, n_paths - start)
        incs = make_rng(seed, stream).standard_normal((batch, n_steps, d_noise))
        incs *= np.sqrt(ds)
        chunks.append(stream_paths(kernels, mu, x0, price_time, incs))
        del incs  # free this chunk's noise before the next one is drawn

    reports = {}
    for m in modes:
        meas = measures[m]
        pay = np.concatenate([c[meas].payoff for c in chunks])
        if m == "pw":
            log_w = np.concatenate([c[meas].log_weight for c in chunks])
            sample = pay * np.exp(log_w)
            w_mean, w_se = weight_statistics(log_w)
        else:
            sample = pay
            w_mean = w_se = None
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
            z_score=float(z),
            n_paths=n_paths,
            n_steps=n_steps,
            seed=seed,
            clamp_fraction=clamp_fraction,
            clamp_flag=clamp_fraction > 0.01,
            weight_mean=w_mean,
            weight_se=w_se,
            x0=tuple(float(v) for v in x0),
            price_time=float(price_time),
        )
    return DualityReport(**reports) if mode == "both" else reports[mode]
