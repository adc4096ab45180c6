"""Interval constraint graphs, their resolvents, and generalized play.

The constraint graph on an interval [lo, hi] is the maximal monotone
set-valued map that is (-inf, 0] at lo, {0} inside, and [0, inf) at hi.
Its resolvent is the clamp onto the interval, independent of the step
size.  The generalized play evolves a bounded variable whose constraint
interval moves with an input signal; the variable only changes while
pinned to one of the moving bounds.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass

import numpy as np

from .config import BLOCK_STEPS, sample_times, step_times
from .errors import ConfigError, InvalidBounds
from .stepper import Closure, validate_initial_fraction


@dataclass(frozen=True)
class ConstraintInterval:
    """The interval [lo, hi] of a constraint graph; lo <= hi, neither NaN."""

    lo: float
    hi: float

    def __post_init__(self):
        if not self.lo <= self.hi:  # NaN bounds fail this too
            raise InvalidBounds(f"interval bounds out of order: [{self.lo}, {self.hi}]")


def resolvent(interval, s):
    """Clamp ``s`` onto the interval; idempotent and non-expansive."""
    return np.clip(s, interval.lo, interval.hi)


def play_step(v_prev, alpha, beta):
    """Generalized-play update with bounds [alpha, beta]; independent of tau."""
    if not alpha <= beta:  # NaN bounds fail this too
        raise InvalidBounds(f"play bounds out of order: [{alpha}, {beta}]")
    # min(max(v_prev, alpha), beta) without the builtin calls, bit for bit
    v = alpha if alpha > v_prev else v_prev
    return beta if beta < v else v


def drive_play(u_schedule, env, tau, T, v_init, strict=True):
    """Drive the hysteresis fraction with a prescribed temperature signal.

    At each step the fraction is clamped between the lower curve at the new
    temperature and the lower curve plus the envelope gap evaluated at the
    previous temperature (the gap is lagged by one step).  Returns an array
    of rows ``(t, u, chi)`` for steps 1..N with N = round(T/tau).

    The drive is sampled at every step time t = 0 ... N*tau before any step
    runs, ``BLOCK_STEPS`` times at a time, so that only one block of samples
    is held beside the drive's array: a vectorized drive (see
    ``sample_times``) in one call per block, any other one call per time.
    ``v_init`` is the starting fraction, or a function of u(0) that gives
    it, called after u(0) is sampled and before any later time is.  The
    returned array is then filled a block of steps at a time: both curves
    are evaluated once over the block's drive, and only the clamp runs per
    step.  ``v_init`` is made admissible at u(0) by the hysteretic
    initial-fraction rule: with ``strict`` off an infeasible start is
    clamped, with a warning.  A drive value or a ``v_init`` that is not
    finite is a config error.
    """
    if not tau > 0.0:
        raise ValueError(f"time step must be positive, got {tau}")
    if not math.isfinite(T):
        raise ValueError(f"horizon T must be finite, got {T}")
    n_steps = int(round(T / tau))
    if n_steps < 1:
        raise ValueError(f"horizon {T} shorter than one step {tau}")

    blocks = (
        step_times(start, min(start + BLOCK_STEPS, n_steps + 1), tau)
        for start in range(0, n_steps + 1, BLOCK_STEPS)
    )
    values = itertools.chain.from_iterable(sample_times(u_schedule, times) for times in blocks)
    u0 = next(values)
    if callable(v_init):
        v_init = v_init(u0)
    u = np.fromiter(itertools.chain((u0,), values), float, n_steps + 1)
    bad = np.flatnonzero(~np.isfinite(u))
    if bad.size:
        raise ConfigError(f"key 'drive' is not finite at t={int(bad[0]) * tau}")
    if not math.isfinite(v_init):
        raise ConfigError("key 'chi_init' is not finite at t=0.0")
    chi = float(validate_initial_fraction(Closure.hysteresis(env), None, u[0], v_init, strict))
    rows = np.empty((n_steps, 3))
    rows[:, 1] = u[1:]
    for start in range(0, n_steps, BLOCK_STEPS):
        stop = min(start + BLOCK_STEPS, n_steps)
        rows[start:stop, 0] = step_times(start + 1, stop + 1, tau)
        chis = []
        for f_u, beta in zip(env.lower(u[start + 1:stop + 1]).tolist(),
                             env.gap(u[start:stop]).tolist()):
            chi = f_u + play_step(chi - f_u, 0.0, beta)
            chis.append(chi)
        rows[start:stop, 2] = chis
    return rows
