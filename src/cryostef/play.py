"""Interval constraint graphs, their resolvents, and generalized play.

The constraint graph on an interval [lo, hi] is the maximal monotone
set-valued map that is (-inf, 0] at lo, {0} inside, and [0, inf) at hi.
Its resolvent is the clamp onto the interval, independent of the step
size.  The generalized play evolves a bounded variable whose constraint
interval moves with an input signal; the variable only changes while
pinned to one of the moving bounds.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass

import numpy as np

from .errors import InfeasibleState, InvalidBounds

# Slack allowed when checking that an incoming state obeys its interval.
FEASIBILITY_SLACK = 1e-12


@dataclass(frozen=True)
class ConstraintInterval:
    lo: float
    hi: float

    def __post_init__(self):
        if self.lo > self.hi:
            raise InvalidBounds(f"interval bounds out of order: [{self.lo}, {self.hi}]")


def resolvent(interval, s):
    """Clamp ``s`` onto the interval; idempotent and non-expansive."""
    return np.clip(s, interval.lo, interval.hi)


def play_step(v_prev, alpha, beta):
    """Generalized-play update with bounds [alpha, beta]; independent of tau."""
    if alpha > beta:
        raise InvalidBounds(f"play bounds out of order: [{alpha}, {beta}]")
    return min(max(v_prev, alpha), beta)


def drive_play(u_schedule, env, tau, T, v_init, strict=True):
    """Drive the hysteresis fraction with a prescribed temperature signal.

    At each step the fraction is clamped between the lower curve at the new
    temperature and the lower curve plus the envelope gap evaluated at the
    previous temperature (the gap is lagged by one step).  Returns an array
    of rows ``(t, u, chi)`` for steps 1..N with N = round(T/tau).

    ``v_init`` must start inside the envelope at u(0); with ``strict`` off
    an infeasible start is clamped in, with a warning.
    """
    if tau <= 0.0:
        raise ValueError(f"time step must be positive, got {tau}")
    n_steps = int(round(T / tau))
    if n_steps < 1:
        raise ValueError(f"horizon {T} shorter than one step {tau}")

    u_prev = float(u_schedule(0.0))
    lo = float(env.lower(u_prev))
    # rounding can invert the curves at the exact match points
    hi = max(float(env.upper(u_prev)), lo)
    if v_init < lo - FEASIBILITY_SLACK or v_init > hi + FEASIBILITY_SLACK:
        if strict:
            raise InfeasibleState(
                f"initial fraction {v_init} outside envelope [{lo}, {hi}] at u={u_prev}"
            )
        warnings.warn(
            f"initial fraction {v_init} clamped into envelope [{lo}, {hi}]",
            RuntimeWarning,
            stacklevel=2,
        )
    chi = min(max(v_init, lo), hi)

    rows = np.empty((n_steps, 3))
    for n in range(1, n_steps + 1):
        t = n * tau
        u = float(u_schedule(t))
        beta = float(env.gap(u_prev))
        f_u = float(env.lower(u))
        chi = f_u + play_step(chi - f_u, 0.0, beta)
        rows[n - 1] = (t, u, chi)
        u_prev = u
    return rows
