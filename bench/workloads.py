"""Workload definitions: generated configs and the reference outputs they must match.

Every workload drives cryostef through the functions that ``cryostef.cli``
and the README library example use.  The package only ever receives the
config text generated here, written to a file and read with
``load_config``, exactly as the command line does.

Seed 0 is the documented reference experiment of each mode.  Any other
seed picks a small amplitude variant ``k`` in {-2, -1, 1, 2}; the
variant's amplitudes are scaled by ``1 + k/400`` (at most 0.5%):

* pde-reference, pde-fine: the left boundary schedule;
* ode-sweep: the initial temperature (the built-in coupled forcing is not
  configurable without an expression, which would change what this
  workload measures);
* ode-long: the forcing expression of the coupled run.

The variants are quantized so that reference values recorded at the
commit that introduced this benchmark exist for every seed
(``reference.json``, written by ``record_reference.py``).  They are kept
within 0.5% because pde-fine sits on the 20-iteration Newton budget (its
worst step takes 19 or 20): scaling its boundary by 0.98, 0.99 or 1.02
fails with NonConvergence.  That defect stays visible in the traced
``solve.newton.inner_max`` and ``solve.newton.budget_hit_steps``.
"""

from __future__ import annotations

import math
import os
import random

import numpy as np

WORKLOADS = ("pde-reference", "pde-fine", "ode-sweep", "ode-long")
VARIANTS = (-2, -1, 0, 1, 2)

PDE_CLOSURES = ("eq", "neq", "hyst")
# The coupled run stops at t=2, past the forcing's switch at t=1, so both
# branches of its conditional run: 2e4 steps at tau=1e-4 instead of the
# mode's T=10.  At 1e5 steps a 40-s run held 4-5 repetitions and its sim_s
# spread 20-34% over ten seeds on a shared 2-vCPU KVM guest (Intel Xeon).
ODE_LONG_TAU = 1e-4
ODE_LONG_T = 2.0
ODE_DRIVEN_TAU = 3.75e-3

# Outputs agree with the recorded reference to these absolute tolerances,
# set from how far a tighter Newton tolerance moves them (the most a change
# of rounding alone can move them): pde-reference re-solved at tol=1e-9
# moves 4e-8, the scalar runs at tol=1e-10 move up to 5.1e-5 (ode-sweep
# errors) and 1.7e-5 (ode-long).  pde-fine does not converge at tighter
# tolerances within its 20-iteration budget and shares the pde value.
REFERENCE_ATOL = {"pde-reference": 1e-6, "pde-fine": 1e-6, "ode-sweep": 5e-4, "ode-long": 5e-4}
# Observed orders of the backward-Euler sweep are 1.008 and 1.041 at seed 0.
ORDER_BAND = (0.9, 1.1)
# Snapshot cells compared against the reference: every STRIDE-th cell.
PDE_CELL_STRIDE = {"pde-reference": 10, "pde-fine": 80}
ODE_COUPLED_STRIDE = 200
ODE_DRIVEN_STRIDE = 100


def variant(seed):
    """Amplitude variant picked by ``seed``; seed 0 is the reference."""
    if seed == 0:
        return 0
    return random.Random(seed).choice((-2, -1, 1, 2))


def scale(k):
    return 1.0 + k / 400.0


def _bc_left(s):
    return f"({0.0!r},{5.0 * s!r}),({1.0!r},{5.0 * s!r}),({2.0!r},{-5.0 * s!r}),({3.0!r},{5.0 * s!r})"


def coupled_forcing_constants(s):
    """(A1, B1, A2, C, D) of the scaled built-in coupled forcing.

    t < 1: A1*cos(pi*t) - B1; otherwise A2*cos(pi*t) + (C*t - D).  At s=1
    these are the constants of the built-in ``ode-coupled`` forcing.
    """
    return 16.0 * s, 15.0 * s, 4.0 * s, 4.0 * s, 30.0 * s


def coupled_forcing_expression(s):
    a1, b1, a2, c, d = coupled_forcing_constants(s)
    return f"{a1!r}*cos(pi*t) - {b1!r} if t < 1.0 else {a2!r}*cos(pi*t) + ({c!r}*t - {d!r})"


def coupled_forcing_function(s):
    """Python twin of :func:`coupled_forcing_expression`, same float operations."""
    a1, b1, a2, c, d = coupled_forcing_constants(s)

    def forcing(t):
        h = a1 if t < 1.0 else a2
        g = -b1 if t < 1.0 else c * t - d
        return h * np.cos(np.pi * t) + g

    return forcing


def config_texts(workload, k):
    """Ordered ``(label, mode, text)`` configs a workload runs at variant ``k``."""
    s = scale(k)
    if workload == "pde-reference":
        return [
            (cl, "pde", f"closure = {cl}\nM = 100\ntau = 0.01\nT = 3\nbc_left = {_bc_left(s)}\n")
            for cl in PDE_CLOSURES
        ]
    if workload == "pde-fine":
        return [("hyst", "pde", f"closure = hyst\nM = 1600\ntau = 0.01\nT = 3\nbc_left = {_bc_left(s)}\n")]
    if workload == "ode-sweep":
        return [("sweep", "convergence", f"u_init = {-0.2 * s!r}\n")]
    if workload == "ode-long":
        return [
            (
                "coupled",
                "ode-coupled",
                f"tau = {ODE_LONG_TAU!r}\nT = {ODE_LONG_T!r}\nforcing = {coupled_forcing_expression(s)}\n",
            ),
            ("driven", "ode-driven", f"tau = {ODE_DRIVEN_TAU!r}\n"),
        ]
    raise ValueError(f"unknown workload {workload!r}")


def load_configs(workload, k, work_dir):
    """Write the generated config files and load them as the CLI does."""
    from cryostef.config import load_config

    os.makedirs(work_dir, exist_ok=True)
    loaded = []
    for label, mode, text in config_texts(workload, k):
        path = os.path.join(work_dir, f"{label}.cfg")
        with open(path, "w", encoding="utf-8") as handle:
            handle.write(text)
        loaded.append((label, load_config(path, mode)))
    return loaded


# ---------------------------------------------------------------------------
# Outputs compared against reference.json


def _cells(values, stride):
    return [float(v) for v in np.asarray(values)[::stride]]


def pde_snapshots(cfg, states, stride):
    """u and chi at the configured output times, every ``stride``-th cell."""
    out = {}
    for t_out in cfg.out_times:
        n = int(round(t_out / cfg.tau))
        out[f"u@{t_out!r}"] = _cells(states[n].u, stride)
        out[f"chi@{t_out!r}"] = _cells(states[n].upsilon, stride)
    return out


def reference_values(workload, outputs):
    """Flatten a workload's outputs into the named lists stored as reference."""
    values = {}
    if workload in PDE_CELL_STRIDE:
        stride = PDE_CELL_STRIDE[workload]
        for label, (cfg, states) in outputs.items():
            for key, vals in pde_snapshots(cfg, states, stride).items():
                values[f"{label}.{key}"] = vals
    elif workload == "ode-sweep":
        for row in outputs["sweep"]:
            for key in ("err_l1", "err_l2", "err_inf"):
                values[f"tau={row['tau']!r}.{key}"] = [float(row[key])]
    else:
        _, u, chi = outputs["coupled"]
        values["coupled.u"] = _cells(u, ODE_COUPLED_STRIDE)
        values["coupled.chi"] = _cells(chi, ODE_COUPLED_STRIDE)
        rows = outputs["driven"]
        values["driven.u"] = _cells(rows[:, 1], ODE_DRIVEN_STRIDE)
        values["driven.chi"] = _cells(rows[:, 2], ODE_DRIVEN_STRIDE)
    return values


def compare_reference(workload, k, values, reference):
    """Largest deviation from the recorded reference, or inf if shapes differ."""
    expected = reference[workload][str(k)]
    if set(expected) != set(values):
        return math.inf
    worst = 0.0
    for key, ref in expected.items():
        got = values[key]
        if len(got) != len(ref):
            return math.inf
        worst = max(worst, float(np.max(np.abs(np.asarray(got) - np.asarray(ref)))))
    return worst
