"""Independent reference integrator for the delayed-ensemble check.

Written from the semantics ``cubicobs.sim`` documents, not from its code:
classical RK4 on the joint truth/observer state ``[x; w]``; delayed
inputs evaluated from the analytic drive at the shifted stage time;
delayed outputs linearly interpolated between stored grid samples of the
measured output, held at ``y(0)`` before the start; ``xhat = w + E y``;
``Jo`` is the trapezoid integral of ``|x - xhat|^2`` on the grid.
Expressions are plain Python callables ``f(x, u, y)`` where ``u(slot)``
and ``y(slot)`` return the (delayed) input and output vectors.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Sequence

import numpy as np


@dataclass
class Plant:
    A: np.ndarray
    C: np.ndarray
    D: np.ndarray
    delta: Sequence[float]
    tau: Sequence[float]
    f_u: Sequence[Callable]
    f_g: Sequence[Callable]
    f_L: Sequence[Callable]


def _steps(delays, h):
    return [int(round(d / h)) for d in delays]


def simulate(truth: Plant, design: Plant, obs: dict, drive: Sequence[Callable],
             h: float, t_end: float, x0, xhat0):
    """Return ``(Jo(t_end), max |x|, |xhat| on the grid)``, or None on blow-up."""
    n = truth.A.shape[0]
    steps = int(round(t_end / h))
    G, J, E, N, theta = obs["G"], obs["J"], obs["E"], obs["N"], obs["theta"]
    T = np.eye(n) - E @ design.C
    lags = {id(truth): (_steps(truth.delta, h), _steps(truth.tau, h)),
            id(design): (_steps(design.delta, h), _steps(design.tau, h))}
    x0 = np.asarray(x0, float)
    ys = np.empty((steps + 1, truth.C.shape[0]))
    ys[0] = truth.C @ x0

    def u_at(t):
        return np.array([f(t) for f in drive])

    def sample(k):
        return ys[k] if k >= 0 else ys[0]

    def y_hist(q):
        k = math.floor(q)
        frac = q - k
        if frac < 1e-9:
            return sample(k)
        if frac > 1.0 - 1e-9:
            return sample(k + 1)
        return (1.0 - frac) * sample(k) + frac * sample(k + 1)

    def terms(plant, x, t, pos, y_now):
        d_steps, t_steps = lags[id(plant)]
        u_cache, y_cache = {}, {}

        def u(slot):
            if slot not in u_cache:
                lag = 0.0 if slot == 0 else d_steps[slot - 1] * h
                u_cache[slot] = u_at(t - lag)
            return u_cache[slot]

        def y(slot):
            if slot == 0 or t_steps[slot - 1] == 0:
                return y_now
            if slot not in y_cache:
                y_cache[slot] = y_hist(pos - t_steps[slot - 1])
            return y_cache[slot]

        def vec(fs):
            return np.array([f(x, u, y) for f in fs])

        return vec(plant.f_u), vec(plant.f_g), vec(plant.f_L)

    def deriv(k, off, z):
        t = (k + off) * h
        x, w = z[:n], z[n:]
        y_now = truth.C @ x
        fu, fg, fl = terms(truth, x, t, k + off, y_now)
        dx = truth.A @ x + fu + truth.D @ fg + fl
        xhat = w + E @ y_now
        fu_d, _, fl_d = terms(design, xhat, t, k + off, y_now)
        dw = G @ w + J @ y_now + T @ (fu_d + fl_d)
        err = y_now - design.C @ xhat
        dw = dw - float(err @ theta @ err) * (N @ err)
        return np.concatenate([dx, dw])

    xs = np.empty((steps + 1, n))
    ws = np.empty((steps + 1, n))
    xs[0] = x0
    ws[0] = np.asarray(xhat0, float) - E @ ys[0]
    z = np.concatenate([xs[0], ws[0]])
    with np.errstate(all="ignore"):
        for k in range(steps):
            try:
                k1 = deriv(k, 0.0, z)
                k2 = deriv(k, 0.5, z + 0.5 * h * k1)
                k3 = deriv(k, 0.5, z + 0.5 * h * k2)
                k4 = deriv(k, 1.0, z + h * k3)
            except (OverflowError, ValueError):
                return None
            z = z + (h / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4)
            if not np.all(np.isfinite(z)):
                return None
            xs[k + 1], ws[k + 1] = z[:n], z[n:]
            ys[k + 1] = truth.C @ z[:n]
    xhats = ws + ys @ E.T
    g = np.sum((xs - xhats) ** 2, axis=1)
    dt = np.diff(np.arange(steps + 1) * h)
    jo_end = float(np.cumsum(0.5 * dt * (g[:-1] + g[1:]))[-1])
    return jo_end, float(max(np.max(np.abs(xs)), np.max(np.abs(xhats))))
