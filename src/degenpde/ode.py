"""Adaptive embedded Runge-Kutta (Dormand-Prince 4/5) for scalar ODEs.

Specialized to the increasing change-of-variable problems: integrates
dy/dtau = rhs(tau, y) forward from tau0, stopping at a target value crossing,
a right-hand-side floor (saturation), the configured tau horizon, or blow-up.
Blow-up is declared when the step controller drives the step below
1e-14 * span while the right side is exploding; a step-size underflow without
explosion raises a stiffness failure instead.

The accepted knots with their exact slopes define a piecewise cubic Hermite
interpolant (``CubicHermite``); the target crossing is located on the same
cubic.
"""

from dataclasses import dataclass
from typing import Optional

import numpy as np

from .errors import ContractViolationError, StiffnessError

__all__ = ["CubicHermite", "OdeResult", "integrate_increasing"]

_A = (
    (),
    (1.0 / 5.0,),
    (3.0 / 40.0, 9.0 / 40.0),
    (44.0 / 45.0, -56.0 / 15.0, 32.0 / 9.0),
    (19372.0 / 6561.0, -25360.0 / 2187.0, 64448.0 / 6561.0, -212.0 / 729.0),
    (9017.0 / 3168.0, -355.0 / 33.0, 46732.0 / 5247.0, 49.0 / 176.0, -5103.0 / 18656.0),
)
_C = (0.0, 1.0 / 5.0, 3.0 / 10.0, 4.0 / 5.0, 8.0 / 9.0, 1.0)
_B5 = (35.0 / 384.0, 0.0, 500.0 / 1113.0, 125.0 / 192.0, -2187.0 / 6784.0, 11.0 / 84.0, 0.0)
_B4 = (
    5179.0 / 57600.0,
    0.0,
    7571.0 / 16695.0,
    393.0 / 640.0,
    -92097.0 / 339200.0,
    187.0 / 2100.0,
    1.0 / 40.0,
)

_STEP_FLOOR_REL = 1e-14
_EXPLOSION = 1e100


@dataclass
class OdeResult:
    tau: np.ndarray
    y: np.ndarray
    slope: np.ndarray
    status: str  # "target" | "tau_max" | "saturated" | "blow_up"
    blow_up_tau: Optional[float] = None

    @property
    def covered(self):
        return self.status == "target"


def _hermite(t0, y0, f0, t1, y1, f1, t):
    h = t1 - t0
    s = (t - t0) / h
    h00 = (1.0 + 2.0 * s) * (1.0 - s) ** 2
    h10 = s * (1.0 - s) ** 2
    h01 = s * s * (3.0 - 2.0 * s)
    h11 = s * s * (s - 1.0)
    return h00 * y0 + h10 * h * f0 + h01 * y1 + h11 * h * f1


def _hermite_slope(t0, y0, f0, t1, y1, f1, t):
    """Derivative in t of ``_hermite``."""
    h = t1 - t0
    s = (t - t0) / h
    return 6.0 * s * (s - 1.0) * (y0 - y1) / h + (1.0 - s) * (1.0 - 3.0 * s) * f0 + s * (3.0 * s - 2.0) * f1


class CubicHermite:
    """Piecewise cubic Hermite interpolant of values ``y`` and slopes ``d``.

    The knots ``x`` must increase. Outside ``[x[0], x[-1]]`` the end cubics
    continue.
    """

    def __init__(self, x, y, d):
        self.x = np.asarray(x, dtype=float)
        self.y = np.asarray(y, dtype=float)
        self.d = np.asarray(d, dtype=float)
        if self.x.size < 2:
            raise ContractViolationError("Hermite interpolant needs at least two knots", knots=self.x.size)

    def _pieces(self, t):
        t = np.asarray(t, dtype=float)
        i = np.clip(np.searchsorted(self.x, t, side="right") - 1, 0, self.x.size - 2)
        j = i + 1
        return self.x[i], self.y[i], self.d[i], self.x[j], self.y[j], self.d[j], t

    def __call__(self, t):
        return _hermite(*self._pieces(t))

    def derivative(self, t):
        return _hermite_slope(*self._pieces(t))


def _hermite_crossing(t0, y0, f0, t1, y1, f1, target, xtol):
    """Time in (t0, t1) where the step's cubic Hermite reaches ``target``.

    Needs y0 < target < y1. Newton steps on the cubic stay inside a shrinking
    bracket; a step that leaves it, or does not halve the previous one,
    becomes a bisection. Stops once a step is at most ``xtol``.
    """
    lo, hi = t0, t1
    t = t0 + (t1 - t0) * (target - y0) / (y1 - y0)
    last = hi - lo
    for _ in range(200):
        g = _hermite(t0, y0, f0, t1, y1, f1, t) - target
        if g == 0.0:
            return t
        if g < 0.0:
            lo = t
        else:
            hi = t
        slope = _hermite_slope(t0, y0, f0, t1, y1, f1, t)
        nxt = t - g / slope if slope > 0.0 else lo
        if not (lo < nxt < hi and abs(2.0 * g) <= abs(last * slope)):
            nxt = 0.5 * (lo + hi)
        last = nxt - t
        t = nxt
        if abs(last) <= xtol:
            break
    return t


def integrate_increasing(
    rhs,
    tau0,
    y0,
    tau_max,
    *,
    target=None,
    slope_floor=0.0,
    rtol=1e-10,
    atol=1e-13,
    max_step=np.inf,
    first_step=None,
):
    """Integrate a strictly positive-slope scalar ODE with event handling.

    Returns the accepted knots (tau, y) together with the exact right-hand
    side at each knot; the terminal status records which stopping rule fired.
    """
    span = tau_max - tau0
    if span <= 0.0:
        raise StiffnessError("empty integration interval", tau0=tau0, tau_max=tau_max)
    h_floor = _STEP_FLOOR_REL * max(span, abs(tau0), 1e-30)

    t, y = float(tau0), float(y0)
    with np.errstate(over="ignore", invalid="ignore"):
        f = float(rhs(t, y))
    if not np.isfinite(f):
        raise StiffnessError("right side not finite at the initial point", tau=t, value=y)

    taus, ys, slopes = [t], [y], [f]
    h = first_step if first_step is not None else min(max_step, span / 64.0)
    h = min(h, max_step, span)
    status = "tau_max"
    blow_tau = None

    while t < tau_max - 1e-15 * max(1.0, abs(tau_max)):
        h = min(h, tau_max - t, max_step)
        if h < h_floor:
            # The controller only drives the step this low when the local
            # growth outruns the remaining interval by orders of magnitude;
            # that is blow-up, not stiffness.
            remaining = max(tau_max - t, h_floor)
            exploding = (
                not np.isfinite(f)
                or abs(y) > _EXPLOSION
                or abs(f) * remaining > 1e3 * (abs(y) + 1.0)
            )
            if exploding:
                status = "blow_up"
                blow_tau = t
                break
            raise StiffnessError(
                "step size underflow without explosion",
                tau=t,
                value=y,
                slope=f,
                step=h,
            )
        k = np.empty(7)
        k[0] = f
        failed = False
        with np.errstate(over="ignore", invalid="ignore"):
            for i in range(1, 6):
                yi = y + h * float(np.dot(_A[i], k[:i]))
                ki = rhs(t + _C[i] * h, yi)
                if not np.isfinite(ki):
                    failed = True
                    break
                k[i] = ki
            if not failed:
                y5 = y + h * float(np.dot(_B5[:6], k[:6]))
                k6 = rhs(t + h, y5)
                if not np.isfinite(k6) or not np.isfinite(y5):
                    failed = True
                else:
                    k[6] = k6
                    y4 = y + h * float(np.dot(_B4, k))
                    err = abs(y5 - y4)
        if failed:
            h *= 0.25
            continue
        scale = atol + rtol * max(abs(y), abs(y5))
        ratio = err / scale
        if ratio > 1.0:
            h *= max(0.2, 0.9 * ratio ** (-0.2))
            continue

        f1 = float(k[6])
        if target is not None and y5 >= target:
            t0p, y0p, f0p = t, y, f
            if y5 > target and y0p < target:
                t_star = _hermite_crossing(
                    t0p, y0p, f0p, t + h, y5, f1, target, xtol=1e-15 * max(1.0, abs(t + h))
                )
            else:
                t_star = t + h
            y_star = target
            with np.errstate(over="ignore", invalid="ignore"):
                f_star = float(rhs(t_star, y_star))
            taus.append(t_star)
            ys.append(y_star)
            slopes.append(f_star if np.isfinite(f_star) else f1)
            status = "target"
            break

        if y5 - y <= 8.0 * np.finfo(float).eps * max(abs(y5), 1.0):
            # increment below roundoff: the map has saturated at this scale
            status = "saturated"
            break
        t += h
        y = y5
        f = f1
        taus.append(t)
        ys.append(y)
        slopes.append(f)
        if f < slope_floor:
            status = "saturated"
            break
        h *= min(5.0, max(0.2, 0.9 * max(ratio, 1e-10) ** (-0.2)))

    return OdeResult(
        tau=np.asarray(taus),
        y=np.asarray(ys),
        slope=np.asarray(slopes),
        status=status,
        blow_up_tau=blow_tau,
    )
