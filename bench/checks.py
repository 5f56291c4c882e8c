"""Correctness checks of the benchmark's workloads.

Every check compares an output of degenpde against a computation made here,
apart from the program (a Cole-Hopf exact solution, an own CSV parser and
bilinear interpolant, closed forms), or against a property the method must
have (Monte Carlo agreement within its standard error, unit-mean weights,
envelopes on or above their series). None compares against a stored copy of
earlier output. Each function returns a list of failure messages; an empty
list means the check passed.
"""

import math

import numpy as np

Z = 3.0  # standard errors allowed for a Monte Carlo estimate


def mc_against_pde(report, residual_max):
    """|mc_mean - pde_value| <= 3 mc_se + 10 residual max, for one estimator mode."""
    diff = abs(report["mc_mean"] - report["pde_value"])
    limit = Z * report["mc_se"] + 10.0 * residual_max
    if not diff <= limit:
        return [f"{report['mode']}: |mc - pde| = {diff:.3e} > {limit:.3e}"]
    return []


def weights_unit_mean(report):
    """The mean of the pw Girsanov weights lies within 3 weight_se of 1."""
    dev = abs(report["weight_mean"] - 1.0)
    if not dev <= Z * report["weight_se"]:
        return [f"pw: |weight mean - 1| = {dev:.3e} > 3 se = {Z * report['weight_se']:.3e}"]
    return []


def estimator_agreement(pricing):
    """The q/pw gap is within 3 combined standard errors."""
    q, pw = pricing["q"], pricing["pw"]
    combined = math.hypot(q["mc_se"], pw["mc_se"])
    gap = abs(q["mc_mean"] - pw["mc_mean"])
    agreement = pricing["agreement"]
    out = []
    if not math.isclose(agreement["combined_se"], combined, rel_tol=1e-12):
        out.append(f"combined_se {agreement['combined_se']} != hypot of mode se {combined}")
    if not gap <= Z * combined:
        out.append(f"q/pw gap {gap:.3e} > 3 combined se {Z * combined:.3e}")
    return out


def read_field_csv(path):
    """Own parser of a field CSV with columns t, x, u: (times, xs, values[t, x])."""
    with open(path) as fh:
        header = fh.readline().strip().split(",")
        rows = [line.split(",") for line in fh]
    if header[0] != "t" or len(header) != 3:
        raise ValueError(f"expected a 1-D field CSV (t, x1, u), got header {header}")
    data = np.array(rows, dtype=float)
    times = np.unique(data[:, 0])
    xs = np.unique(data[:, 1])
    if data.shape[0] != len(times) * len(xs):
        raise ValueError("field CSV is not a full tensor grid")
    return times, xs, data[:, 2].reshape(len(times), len(xs))


def bilinear(times, xs, values, x, theta):
    """Bilinear interpolation of values[t, x] at (x, theta) inside the grid."""
    i = min(max(int(np.searchsorted(xs, x, side="right")) - 1, 0), len(xs) - 2)
    k = min(max(int(np.searchsorted(times, theta, side="right")) - 1, 0), len(times) - 2)
    fx = (x - xs[i]) / (xs[i + 1] - xs[i])
    ft = (theta - times[k]) / (times[k + 1] - times[k])
    lo = (1.0 - fx) * values[k, i] + fx * values[k, i + 1]
    hi = (1.0 - fx) * values[k + 1, i] + fx * values[k + 1, i + 1]
    return (1.0 - ft) * lo + ft * hi


def field_value(field, x, theta, pde_value):
    """pde_value equals the bilinear interpolant of the field at (x, theta)."""
    times, xs, values = field
    ref = bilinear(times, xs, values, x, theta)
    scale = float(np.max(np.abs(values)))
    if not abs(ref - pde_value) <= 1e-12 * scale:
        return [f"pde_value {pde_value!r} != bilinear interpolant {ref!r} at x={x}, theta={theta}"]
    return []


def stable_steps(nodes, half_width, horizon):
    """Step count of the parabolic bound dt <= 0.45 dx^2 / (N |sigma sigma^T|), N = 2, |sigma sigma^T| = 1."""
    dx = 2.0 * half_width / (nodes - 1)
    return max(1, math.ceil(horizon / (0.45 * dx * dx / 2.0)))


def cole_hopf(x1, x2, t, c, amplitude, width):
    """Exact u on the tensor grid x1 x x2 for u_t = u_yy/2 - c u_y^2 in y = x2.

    u = -(1/2c) log E[exp(-2c u0(x1, x2 + W_t))] with the Gaussian datum
    u0 = a exp(-|x|^2 / (2 w^2)), evaluated by 60-point Gauss-Hermite quadrature.
    """
    a = amplitude * np.exp(-(x1**2) / (2.0 * width**2))
    if t == 0.0:
        return a[:, None] * np.exp(-(x2**2) / (2.0 * width**2))[None, :]
    z, wq = np.polynomial.hermite.hermgauss(60)
    g = np.exp(-((x2[:, None] + math.sqrt(2.0 * t) * z[None, :]) ** 2) / (2.0 * width**2))
    v = np.exp(-2.0 * c * a[:, None, None] * g[None, :, :]) @ wq / math.sqrt(math.pi)
    return -np.log(v) / (2.0 * c)


def exact_lipschitz(spec, slice_times):
    """Exact lip_x at the given times and exact lip_t over every step.

    Both are the program's difference quotients (adjacent nodes inside the
    collar, adjacent time steps) applied to the exact solution at the nodes.
    """
    n, r, collar = spec["nodes"], spec["half_width"], spec["collar"]
    steps = stable_steps(n, r, spec["horizon"])
    dt = spec["horizon"] / steps
    # The solution is even in x1 and x2 and the box is symmetric, so the
    # quadrant x1, x2 >= 0 holds every adjacent difference up to sign.
    axis = np.linspace(-r, r, n)[collar : n - collar][(n - 1) // 2 - collar :]
    dx = 2.0 * r / (n - 1)

    def field(t):
        return cole_hopf(axis, axis, t, spec["c"], spec["amplitude"], spec["width"])

    def lip_x(u):
        return max(np.abs(np.diff(u, axis=0)).max(), np.abs(np.diff(u, axis=1)).max()) / dx

    lip_x_at = [lip_x(field(t)) for t in slice_times]
    lip_t = 0.0
    prev = field(0.0)
    for k in range(1, steps + 1):
        cur = field(spec["horizon"] * k / steps)
        lip_t = max(lip_t, float(np.abs(cur - prev).max()) / dt)
        prev = cur
    return np.asarray(lip_x_at), lip_t, dx, dt


def regularity_exact(report, spec, exact=None):
    """Per-slice lip_x and lip_t match the Cole-Hopf solution within (dt + dx^2)/2.

    ``exact`` is the result of ``exact_lipschitz`` for the report's slice
    times; it is computed when not given.
    """
    per = report["per_slice"]
    times = np.asarray(per["t"], dtype=float)
    lip_x_ex, lip_t_ex, dx, dt = exact if exact is not None else exact_lipschitz(spec, times)
    tol = 0.5 * (dt + dx * dx)
    out = []
    k = np.rint(times / dt)
    if not np.allclose(times, k * dt, rtol=0.0, atol=1e-12):
        out.append("slice times are not multiples of the step of the parabolic bound")
    err = np.abs(np.asarray(per["lip_x"], dtype=float) - lip_x_ex)
    if not err.max() <= tol:
        worst = int(np.argmax(err))
        out.append(f"lip_x at t={times[worst]:.4f} is off the exact value by {err[worst]:.3e} > {tol:.3e}")
    if not abs(report["lip_t"] - lip_t_ex) <= tol:
        out.append(f"lip_t {report['lip_t']:.6f} is off the exact {lip_t_ex:.6f} by more than {tol:.3e}")
    return out


def envelopes_dominate(report):
    """Both fitted envelopes lie on or above their series at every slice."""
    t = np.asarray(report["per_slice"]["t"], dtype=float)
    out = []
    for env, series in (("envelope_minus", "L_minus"), ("envelope_plus", "L_plus")):
        fit = report[env]
        values = fit["amplitude"] * np.exp(fit["rate"] * t) + fit["offset"]
        s = np.asarray(report["per_slice"][series], dtype=float)
        slack = values - s
        if not slack.min() >= -1e-12 * max(1.0, float(np.abs(s).max())):
            out.append(f"{env} lies below {series} by {-slack.min():.3e}")
    return out


def initial_deviation(report):
    if report["initial_deviation"]["ok"] is not True:
        return [f"initial_deviation not ok: worst ratio {report['initial_deviation']['worst_ratio']}"]
    return []


def kernel_and_atom(report):
    """The kernel of sigma^T for sigma = (0, 1)^T is spanned by e1; its coordinate is frozen."""
    kern = report["kernel"]
    out = []
    basis = np.asarray(kern["basis"], dtype=float)
    if kern["m"] != 1 or basis.shape != (1, 2) or not np.allclose(np.abs(basis[0]), [1.0, 0.0], atol=1e-12):
        out.append(f"kernel basis {kern['basis']} is not +-e1")
    if report["atom"].get("verdict") != "atomic":
        out.append(f"atom verdict {report['atom'].get('verdict')!r} is not 'atomic'")
    return out


def occupation_time(report, horizon):
    """The occupation-time estimate lies within 3 se of T/2."""
    dev = abs(report["estimate"] - horizon / 2.0)
    if not dev <= Z * report["se"]:
        return [f"occupation estimate {report['estimate']} is {dev:.3e} from T/2 > 3 se"]
    return []


def transform_certificate(report):
    """min discriminant = (1/4)(1 + tau)^-3 at the probe end; round trip <= 1e-10."""
    tau_end = report["tau_range"][1]
    ref = 0.25 * (1.0 + tau_end) ** -3
    got = report["discriminant"]["min"]
    out = []
    if not abs(got - ref) <= 1e-5 * ref:
        out.append(f"discriminant min {got!r} != (1/4)(1 + tau)^-3 = {ref!r}")
    if not report["round_trip_error"] <= 1e-10:
        out.append(f"round trip error {report['round_trip_error']} > 1e-10")
    return out
