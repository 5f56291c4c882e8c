"""Degeneracy diagnostics for rank-deficient volatility (N > d).

The component of the factor process along the kernel of sigma^T carries no
noise: it is a drift-only projection process. These diagnostics extract an
orthonormal kernel basis, verify the drift-only structure pathwise, run a
heuristic atom check on the projected law, and reproduce the exact
occupation-time value of the two-dimensional counterexample with a single
noisy coordinate, where the expected occupation of the negative half-line
equals half the horizon.
"""

from dataclasses import dataclass, field as dataclass_field

import numpy as np

from .errors import ContractViolationError, DecompositionError
from .montecarlo import make_rng

__all__ = [
    "KernelDecomposition",
    "kernel_basis",
    "ProjectionPaths",
    "projection_paths",
    "check_projection",
    "continuity_diagnostic",
    "CounterexampleReport",
    "counterexample_run",
]

RANK_THRESHOLD_REL = 1e-10
# Atom radius of ``continuity_diagnostic`` relative to the sample span, and
# the histogram bins of its smoothed density.
_ATOM_RADIUS_REL = 1e-6
_DENSITY_BINS = 201


@dataclass
class KernelDecomposition:
    """Orthonormal basis of Ker(sigma^T) plus the row-extension matrix M.

    The first m rows of M are the kernel basis vectors, the remaining rows an
    orthonormal complement, so M^T e_i = b_i for i <= m.
    """

    basis: np.ndarray  # (m, N)
    matrix: np.ndarray  # (N, N)
    m: int
    rank: int
    condition_number: float
    threshold: float


def kernel_basis(sigma_matrix):
    """Kernel decomposition of sigma^T by eigen-analysis of sigma sigma^T.

    Eigenvalues below 1e-10 times the largest are assigned to the kernel; a
    full-rank sigma yields m = 0 and an empty basis.
    """
    sig = np.atleast_2d(np.asarray(sigma_matrix, dtype=float))
    n = sig.shape[0]
    gram = sig @ sig.T
    eigval, eigvec = np.linalg.eigh(gram)
    scale = float(eigval.max()) if eigval.size else 0.0
    threshold = RANK_THRESHOLD_REL * max(scale, 1e-300)
    kernel_mask = eigval <= threshold
    m = int(np.count_nonzero(kernel_mask))
    basis = eigvec[:, kernel_mask].T
    complement = eigvec[:, ~kernel_mask].T
    for arr in (basis, complement):
        for row in arr:
            j = int(np.argmax(np.abs(row)))
            if row[j] < 0.0:
                row *= -1.0
    matrix = np.vstack([basis, complement]) if n else np.empty((0, 0))
    resid = float(np.max(np.abs(sig.T @ basis.T))) if m else 0.0
    if resid > 1e-12 * max(1.0, float(np.max(np.abs(sig)))):
        raise DecompositionError("kernel basis fails sigma^T b = 0", residual=resid)
    cond = float(np.linalg.cond(matrix)) if n else 1.0
    return KernelDecomposition(
        basis=basis,
        matrix=matrix,
        m=m,
        rank=n - m,
        condition_number=cond,
        threshold=threshold,
    )


@dataclass
class ProjectionPaths:
    """Projected paths pi and their drift samples; drift-only by construction."""

    pi: np.ndarray  # (n_paths, n_steps + 1, m)
    drift: np.ndarray  # (n_paths, n_steps, m)
    times: np.ndarray
    quadratic_variation: np.ndarray = dataclass_field(repr=False, default=None)

    @property
    def m(self):
        return self.pi.shape[-1]


def check_projection(worst_qv, drift_scale, horizon, ds):
    """Raise unless the largest projected quadratic variation is rounding-sized.

    The tolerance grows with ``drift_scale``, the largest |<mu, b_i>| over
    the paths, so paths projected in blocks are checked once, with the
    largest drift of all blocks.
    """
    tol = (horizon * ds**2) * (1.0 + drift_scale) ** 2 + 1e-20
    if worst_qv > tol:
        raise DecompositionError(
            "projected paths carry a stochastic component",
            quadratic_variation=worst_qv,
            tolerance=tol,
        )


def projection_paths(ensemble, decomp, mu, horizon, check=True):
    """Project an ensemble onto the kernel basis and verify the ODE structure.

    The projected increments must match ds * <mu, b_i> with no stochastic
    component; a nonzero quadratic variation flags an inconsistent
    decomposition. ``check=False`` leaves that test to the caller
    (``check_projection``).
    """
    if ensemble.measure != "P":
        raise ContractViolationError("projection diagnostics run on physical paths")
    times = ensemble.times
    n_steps = ensemble.n_steps
    ds = times[1] - times[0]
    if decomp.m == 0:
        empty = np.empty((ensemble.n_paths, n_steps + 1, 0))
        return ProjectionPaths(
            pi=empty,
            drift=np.empty((ensemble.n_paths, n_steps, 0)),
            times=times,
            quadratic_variation=np.zeros(ensemble.n_paths),
        )
    pi = ensemble.states @ decomp.basis.T
    drift = np.empty((ensemble.n_paths, n_steps, decomp.m))
    # the residual is formed step by step and squared in place, so the pass
    # holds pi, drift and resid and no path-sized temporary
    resid = np.empty_like(drift)
    for k in range(n_steps):
        theta = horizon - times[k]
        mu_val = np.asarray(mu(ensemble.states[:, k, :], theta), dtype=float)
        drift[:, k, :] = mu_val @ decomp.basis.T
        resid[:, k, :] = pi[:, k + 1, :] - pi[:, k, :] - ds * drift[:, k, :]
    resid *= resid
    qv = np.sum(resid, axis=(1, 2))
    if check:
        drift_scale = float(np.max(np.abs(drift))) if drift.size else 0.0
        check_projection(float(qv.max()) if qv.size else 0.0, drift_scale, horizon, ds)
    return ProjectionPaths(pi=pi, drift=drift, times=times, quadratic_variation=qv)


def _atom_score_1d(samples, eps):
    s = np.sort(samples)
    hi = np.searchsorted(s, s + eps, side="right")
    lo = np.searchsorted(s, s - eps, side="left")
    return float((hi - lo).max()) / len(s)


def _atom_score_grid(samples, eps):
    cells = np.floor(samples / (2.0 * eps)).astype(np.int64)
    _, counts = np.unique(cells, axis=0, return_counts=True)
    return float(counts.max()) / samples.shape[0]


def continuity_diagnostic(pi_samples, seed=0, conditioning=None):
    """Heuristic atom check on projected samples at a fixed time.

    The atom score is the largest fraction of samples within the atom radius
    of any single point; a score near one flags an atomic conditional law
    (the absolute-continuity hypothesis fails), a score near the uniform
    baseline is consistent with it. This refutes or fails to refute; it never
    proves, and the report says so. ``conditioning`` records what the samples
    were conditioned on (a deterministic start makes the conditional and
    unconditional laws coincide; for random starts the right conditioning is
    ambiguous at finite sample sizes, so it is stated rather than resolved).
    """
    samples = np.asarray(pi_samples, dtype=float)
    if samples.ndim == 1:
        samples = samples[:, None]
    n, m = samples.shape
    if m == 0:
        return {"heuristic": True, "m": 0, "empty": True, "conditioning": conditioning or "deterministic initial state"}
    if n < 1000:
        raise ContractViolationError("atom diagnostic needs at least 1e3 samples", n=n)
    spans = samples.max(axis=0) - samples.min(axis=0)
    span = float(spans.max())
    if span == 0.0:
        score = 1.0
        eps = 0.0
        baseline = 1.0 / n
    else:
        eps = _ATOM_RADIUS_REL * span
        score = _atom_score_1d(samples[:, 0], eps) if m == 1 else _atom_score_grid(samples, eps)
        rng = make_rng(seed, stream=977)
        uniform = rng.uniform(samples.min(axis=0), samples.max(axis=0), size=(n, m))
        baseline = (
            _atom_score_1d(uniform[:, 0], eps) if m == 1 else _atom_score_grid(uniform, eps)
        )
    if score >= 0.5:
        verdict = "atomic"
    elif score <= 10.0 * baseline:
        verdict = "diffuse"
    else:
        verdict = "inconclusive"

    density = {}
    if span > 0.0:
        for j in range(m):
            col = samples[:, j]
            lo, hi = float(col.min()), float(col.max())
            pad = 0.05 * (hi - lo) if hi > lo else 1.0
            edges = np.linspace(lo - pad, hi + pad, _DENSITY_BINS + 1)
            hist, _ = np.histogram(col, bins=edges, density=True)
            window = np.exp(-0.5 * (np.arange(-4, 5) / 1.5) ** 2)
            window /= window.sum()
            smooth = np.convolve(hist, window, mode="same")
            centers = 0.5 * (edges[:-1] + edges[1:])
            density[f"component_{j}"] = {
                "grid": centers.tolist(),
                "density": smooth.tolist(),
            }
    return {
        "heuristic": True,
        "m": int(m),
        "n_samples": int(n),
        "atom_radius": float(eps),
        "atom_score": float(score),
        "uniform_baseline": float(baseline),
        "verdict": verdict,
        "conditioning": conditioning or "deterministic initial state",
        "density": density,
    }


@dataclass
class CounterexampleReport:
    estimate: float
    se: float
    expected: float
    n_paths: int
    n_steps: int
    horizon: float
    seed: int


def counterexample_run(horizon=1.0, n_paths=100_000, n_steps=1000, seed=0, time_window=None):
    """Occupation time of {first coordinate exactly zero, second negative}.

    The two-dimensional process (0, W_s) from the origin spends on average
    half of every instant below the axis, so the estimate converges to T/2.
    Membership in the kernel coordinate uses exact zero; the time window
    defaults to the whole horizon and an empty window returns 0. Streaming
    over steps keeps memory flat in the path count.
    """
    if time_window is None:
        time_window = (0.0, horizon)
    lo_t, hi_t = time_window
    ds = horizon / n_steps
    rng = make_rng(seed)
    w = np.zeros(n_paths)
    x_kernel = np.zeros(n_paths)  # no drift, no noise: stays exactly zero
    occupation = np.zeros(n_paths)
    sqrt_ds = np.sqrt(ds)
    for k in range(1, n_steps + 1):
        w += sqrt_ds * rng.standard_normal(n_paths)
        s = k * ds
        if lo_t <= s < hi_t or (s == hi_t == horizon and hi_t > lo_t):
            inside = (x_kernel == 0.0) & (w < 0.0)
            occupation += ds * inside
    estimate = float(np.mean(occupation))
    se = float(np.std(occupation, ddof=1) / np.sqrt(n_paths))
    return CounterexampleReport(
        estimate=estimate,
        se=se,
        expected=horizon / 2.0,
        n_paths=n_paths,
        n_steps=n_steps,
        horizon=horizon,
        seed=seed,
    )
