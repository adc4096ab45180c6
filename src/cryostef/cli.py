"""Experiment harness and command-line entry point.

Modes
-----
pde          freeze/thaw front simulation on the unit interval; emits
             snapshots.csv, phase.csv, iterations.csv, summary.csv
ode-coupled  single-point enthalpy system with its own dynamics; emits
             trajectory.csv
ode-driven   hysteresis fraction driven by a prescribed temperature
             signal; emits trajectory.csv
calibrate    envelope calibration; prints (a, C, D) and emits envelope.csv
convergence  step-size sweep of the coupled scalar system against a fine
             reference run; emits orders.csv

Exit codes: 0 success, 2 config error, 3 solver non-convergence,
4 infeasible initial data (strict mode).
"""

from __future__ import annotations

import argparse
import csv
import os
import sys
from dataclasses import dataclass

import numpy as np

from . import solve as solvers
from .config import MODES, RunConfig, eval_expression, load_config
from .constitutive import ScaledMaterial, calibrate_envelope, equilibrium_fraction
from .errors import ConfigError, CryostefError, InfeasibleState, NonConvergence
from .grid import Grid1D, assemble, lipschitz_probe
from .play import drive_play
from .solve import SolverOptions
from .stepper import (
    Closure,
    ScalarOdeStepper,
    StepProblem,
    TimeState,
    advance,
    validate_initial_fraction,
)


def build_material(cfg):
    return ScaledMaterial(b=cfg.b, c_u=cfg.c_u, c_f=cfg.c_f, k_u=cfg.k_u, k_f=cfg.k_f)


def build_closure(cfg):
    if cfg.closure == "eq":
        return Closure.equilibrium()
    if cfg.closure == "neq":
        return Closure.kinetic(cfg.rate)
    env = calibrate_envelope(cfg.b, cfg.b_bar, cfg.theta0, cfg.envelope)
    return Closure.hysteresis(env)


def _fraction_fn(b):
    return lambda v: equilibrium_fraction(np.asarray(v, dtype=float), b)


# ---------------------------------------------------------------------------
# PDE mode


@dataclass
class PdeRun:
    """States and per-step reports of a completed simulation."""

    cfg: RunConfig
    grid: Grid1D
    material: ScaledMaterial
    closure: Closure
    states: list
    reports: list
    sources: list
    bcs: list

    @property
    def inner_counts(self):
        return np.array([r.inner_iters_total for r in self.reports], dtype=float)


def simulate_pde(cfg, opts, strict_init=False):
    """Run the time loop and keep every state and report in memory."""
    material = build_material(cfg)
    closure = build_closure(cfg)
    grid = Grid1D(cfg.M)
    x = grid.centers

    u0 = np.broadcast_to(
        np.asarray(eval_expression(cfg.u_init, x=x), dtype=float), x.shape
    ).astype(float)
    if cfg.chi_init == "auto":
        chi_raw = equilibrium_fraction(u0, material.b)
    else:
        chi_raw = np.asarray(
            eval_expression(cfg.chi_init, x=x, u0=u0, F=_fraction_fn(material.b)),
            dtype=float,
        )
    chi0 = validate_initial_fraction(closure, material, u0, chi_raw, strict=strict_init)

    def bc_fn(t):
        return cfg.bc_left(t), cfg.bc_right(t)

    def f_fn(t):
        sources.append(np.broadcast_to(
            np.asarray(eval_expression(cfg.source, x=x, t=t), dtype=float), x.shape
        ).copy())
        return sources[-1]

    state = TimeState(0.0, u0, chi0)
    states = [state]
    reports = []
    sources = []  # filled by f_fn: advance samples the source once per step
    bcs = []
    n_steps = int(round(cfg.T / cfg.tau))
    for n in range(1, n_steps + 1):
        try:
            state, report = advance(
                state, cfg.tau, closure, material, grid, f_fn, bc_fn, opts,
                face_average=cfg.face_average,
            )
        except NonConvergence as err:
            err.step = n
            raise
        states.append(state)
        reports.append(report)
        bcs.append(bc_fn(state.t))
    return PdeRun(cfg, grid, material, closure, states, reports, sources, bcs)


def _pde_diagnostics(run):
    cfg = run.cfg
    first = run.states[0]
    t1 = cfg.tau
    ud = (cfg.bc_left(t1), cfg.bc_right(t1))
    x = run.grid.centers
    f1 = np.broadcast_to(
        np.asarray(eval_expression(cfg.source, x=x, t=t1), dtype=float), x.shape
    )

    def assembler(u):
        return assemble(u, run.material, run.grid, *ud, cfg.face_average)

    problem = StepProblem(first, run.closure, cfg.tau, f1, run.material, assembler)

    def probe(u1, u2, xi):
        return lipschitz_probe(u1, u2, xi, run.material, run.grid, cfg.face_average)

    return solvers.contraction_diagnostic(problem, probe_fn=probe)


def run_pde(cfg, opts, out_dir, strict_init=False):
    run = simulate_pde(cfg, opts, strict_init=strict_init)
    diag = _pde_diagnostics(run)
    print(
        "contraction diagnostics: "
        f"L_A~{diag['lipschitz_estimate']:.4g} kappa0~{diag['coercivity_estimate']:.4g} "
        f"lag-bound {diag['alag_bound']:.4g} fixed-point-bound {diag['fixed_point_bound']:.4g}"
    )
    write_pde_outputs(run, out_dir)
    return run


def write_pde_outputs(run, out_dir):
    cfg = run.cfg
    x = run.grid.centers
    os.makedirs(out_dir, exist_ok=True)
    n_steps = len(run.reports)

    snapshot_rows = []
    for t_out in cfg.out_times:
        n = int(round(t_out / cfg.tau))
        if n < 0 or n > n_steps or abs(n * cfg.tau - t_out) > 0.5 * cfg.tau + 1e-12:
            continue
        state = run.states[n]
        for j in range(cfg.M):
            snapshot_rows.append((state.t, x[j], state.u[j], state.upsilon[j]))
    _write_csv(os.path.join(out_dir, "snapshots.csv"), ("t", "x", "u", "chi"), snapshot_rows)

    phase_rows = []
    for state in run.states:
        for j in range(cfg.M):
            phase_rows.append((state.t, x[j], state.u[j], state.upsilon[j]))
    _write_csv(os.path.join(out_dir, "phase.csv"), ("t", "x", "u", "chi"), phase_rows)

    iter_rows = []
    for n, report in enumerate(run.reports, start=1):
        iter_rows.append(
            (
                n,
                run.states[n].t,
                report.outer_iters,
                report.inner_iters_total,
                report.residual_history[-1],
            )
        )
    _write_csv(
        os.path.join(out_dir, "iterations.csv"),
        ("step", "t", "outer", "inner_total", "residual"),
        iter_rows,
    )

    counts = run.inner_counts
    _write_csv(
        os.path.join(out_dir, "summary.csv"),
        ("n_min", "n_max", "n_ave"),
        [(int(counts.min()), int(counts.max()), float(counts.mean()))],
    )


# ---------------------------------------------------------------------------
# Scalar ODE modes


def _default_coupled_forcing(t):
    h = 16.0 if t < 1.0 else 4.0
    g = -15.0 if t < 1.0 else 4.0 * t - 30.0
    return h * np.cos(np.pi * t) + g


def _default_drive(t):
    h = 8.0 if t < 4.0 else 4.0
    g = -2.0 if t < 4.0 else t / 2.0 - 8.0
    return h * np.cos(np.pi * t / 4.0) + g


def _time_expr_fn(expr, default):
    if expr == "auto":
        return default
    return lambda t: float(eval_expression(expr, t=t))


def simulate_ode_coupled(cfg, opts, tau=None, strict_init=False):
    """Integrate the scalar coupled system; arrays indexed by step number."""
    tau = cfg.tau if tau is None else tau
    closure = build_closure(cfg)
    forcing = _time_expr_fn(cfg.forcing, _default_coupled_forcing)

    u0 = float(eval_expression(cfg.u_init, x=0.0))
    if cfg.chi_init == "auto":
        chi_raw = float(equilibrium_fraction(u0, cfg.b))
    else:
        chi_raw = float(eval_expression(cfg.chi_init, x=0.0, u0=u0, F=_fraction_fn(cfg.b)))
    material = ScaledMaterial(b=cfg.b, c_u=1.0, c_f=1.0, k_u=1.0, k_f=1.0)
    chi0 = float(
        validate_initial_fraction(
            closure, material, np.array([u0]), np.array([chi_raw]), strict=strict_init
        )[0]
    )

    stepper = ScalarOdeStepper(closure, cfg.b, cfg.a_coef, tol=opts.tol, max_iter=opts.max_inner)
    n_steps = int(round(cfg.T / tau))
    times = np.arange(n_steps + 1) * tau
    u = np.empty(n_steps + 1)
    chi = np.empty(n_steps + 1)
    u[0], chi[0] = u0, chi0
    for n in range(1, n_steps + 1):
        try:
            u[n], chi[n], _, _ = stepper.step(u[n - 1], chi[n - 1], tau, forcing(times[n]))
        except NonConvergence as err:
            err.step = n
            err.t = times[n]
            raise
    return times, u, chi


def run_ode_coupled(cfg, opts, out_dir, strict_init=False):
    times, u, chi = simulate_ode_coupled(cfg, opts, strict_init=strict_init)
    os.makedirs(out_dir, exist_ok=True)
    rows = [(times[n], u[n], chi[n]) for n in range(1, len(times))]
    _write_csv(os.path.join(out_dir, "trajectory.csv"), ("t", "u", "chi"), rows)
    return times, u, chi


def run_ode_driven(cfg, opts, out_dir, strict_init=False):
    env = calibrate_envelope(cfg.b, cfg.b_bar, cfg.theta0, cfg.envelope)
    u_fn = _time_expr_fn(cfg.drive, _default_drive)
    u0 = u_fn(0.0)
    if cfg.chi_init == "auto":
        v_init = float(env.lower(u0))
    else:
        v_init = float(eval_expression(cfg.chi_init, x=0.0, u0=u0, F=_fraction_fn(cfg.b)))
    rows = drive_play(u_fn, env, cfg.tau, cfg.T, v_init, strict=strict_init)
    os.makedirs(out_dir, exist_ok=True)
    _write_csv(os.path.join(out_dir, "trajectory.csv"), ("t", "u", "chi"), [tuple(r) for r in rows])
    return rows


# ---------------------------------------------------------------------------
# Convergence study


def trajectory_errors(coarse, fine, tau_coarse, tau_fine):
    """Weighted 1-, 2-, and max-norm distances between two runs.

    Both runs are arrays (u, chi) indexed by their own step number; the
    fine run is subsampled at the coarse times.  The pointwise distance is
    the Euclidean norm of the (u, chi) pair, accumulated with weight
    tau_coarse for the 1- and 2-norms.
    """
    stride = tau_coarse / tau_fine
    if abs(stride - round(stride)) > 1e-9 * max(stride, 1.0):
        raise ConfigError(f"fine step {tau_fine} does not divide coarse step {tau_coarse}")
    stride = int(round(stride))
    u_c, chi_c = coarse
    u_f, chi_f = fine
    n_coarse = len(u_c) - 1
    idx = np.arange(1, n_coarse + 1)
    du = u_c[idx] - u_f[idx * stride]
    dchi = chi_c[idx] - chi_f[idx * stride]
    d = np.hypot(du, dchi)
    return {
        "l1": float(tau_coarse * np.sum(d)),
        "l2": float(np.sqrt(tau_coarse * np.sum(d * d))),
        "inf": float(np.max(d)),
    }


def convergence_study(cfg, opts, out_dir, strict_init=False):
    """Sweep coarse step sizes against the fine reference run."""
    taus = tuple(sorted(cfg.taus, reverse=True))
    runs = {}
    for tau in taus + (cfg.tau_fine,):
        _, u, chi = simulate_ode_coupled(cfg, opts, tau=tau, strict_init=strict_init)
        runs[tau] = u, chi

    fine = runs[cfg.tau_fine]
    errors = {tau: trajectory_errors(runs[tau], fine, tau, cfg.tau_fine) for tau in taus}

    rows = []
    prev_tau = None
    for tau in taus:
        err = errors[tau]
        row = {"tau": tau, "err_l1": err["l1"], "err_l2": err["l2"], "err_inf": err["inf"]}
        if prev_tau is None:
            row.update(order_l1="", order_l2="", order_inf="")
        else:
            prev = errors[prev_tau]
            ratio = np.log(prev_tau / tau)
            row.update(
                order_l1=float(np.log(prev["l1"] / err["l1"]) / ratio),
                order_l2=float(np.log(prev["l2"] / err["l2"]) / ratio),
                order_inf=float(np.log(prev["inf"] / err["inf"]) / ratio),
            )
        rows.append(row)
        prev_tau = tau

    os.makedirs(out_dir, exist_ok=True)
    header = ("tau", "err_l1", "err_l2", "err_inf", "order_l1", "order_l2", "order_inf")
    _write_csv(
        os.path.join(out_dir, "orders.csv"),
        header,
        [tuple(row[k] for k in header) for row in rows],
    )
    return rows


# ---------------------------------------------------------------------------
# Calibration mode


def run_calibrate(cfg, out_dir):
    env = calibrate_envelope(cfg.b, cfg.b_bar, cfg.theta0, cfg.envelope)
    print(f"a = {env.a:.4f}")
    print(f"C = {env.C:.4f}")
    print(f"D = {env.D:.4f}")
    thetas = np.linspace(cfg.theta0 - 2.0, 2.0, 1000)
    lower = env.lower(thetas)
    upper = env.upper(thetas)
    os.makedirs(out_dir, exist_ok=True)
    rows = [(thetas[i], float(lower[i]), float(upper[i])) for i in range(len(thetas))]
    _write_csv(os.path.join(out_dir, "envelope.csv"), ("theta", "F", "G"), rows)
    return env


# ---------------------------------------------------------------------------
# CSV helpers and entry point


def _format_cell(value):
    if isinstance(value, str):
        return value
    if isinstance(value, (bool, int, np.integer)):
        return str(int(value))
    return f"{float(value):.17g}"


def _write_csv(path, header, rows):
    with open(path, "w", newline="", encoding="utf-8") as handle:
        writer = csv.writer(handle)
        writer.writerow(header)
        for row in rows:
            writer.writerow([_format_cell(v) for v in row])


def _build_parser():
    parser = argparse.ArgumentParser(
        prog="cryostef",
        description="Freeze/thaw heat flow with equilibrium, kinetic, and hysteretic closures.",
    )
    sub = parser.add_subparsers(dest="mode", required=True)
    for mode in MODES:
        p = sub.add_parser(mode)
        p.add_argument("--config", default=None, help="key = value config file")
        p.add_argument("--out", default=None, help="output directory (default from config)")
        p.add_argument("--strict-init", action="store_true", help="reject infeasible initial data")
        p.add_argument("--solver", choices=solvers.STRATEGIES, default=solvers.NEWTON_ALAG)
        p.add_argument("--tol", type=float, default=1e-8)
        p.add_argument("--max-iter", type=int, default=20)
    return parser


def main(argv=None):
    args = _build_parser().parse_args(argv)
    try:
        cfg = load_config(args.config, args.mode)
        out_dir = args.out if args.out is not None else cfg.out_dir
        opts = SolverOptions(tol=args.tol, max_inner=args.max_iter, strategy=args.solver)
        if args.mode == "pde":
            run_pde(cfg, opts, out_dir, strict_init=args.strict_init)
        elif args.mode == "ode-coupled":
            run_ode_coupled(cfg, opts, out_dir, strict_init=args.strict_init)
        elif args.mode == "ode-driven":
            run_ode_driven(cfg, opts, out_dir, strict_init=args.strict_init)
        elif args.mode == "calibrate":
            run_calibrate(cfg, out_dir)
        else:
            convergence_study(cfg, opts, out_dir, strict_init=args.strict_init)
    except ConfigError as err:
        print(f"config error: {err}", file=sys.stderr)
        return 2
    except NonConvergence as err:
        where = f" at step {err.step} (t={err.t})" if err.step is not None else ""
        print(f"solver failed to converge{where}: {err}", file=sys.stderr)
        return 3
    except InfeasibleState as err:
        print(f"infeasible initial data: {err}", file=sys.stderr)
        return 4
    except CryostefError as err:
        print(f"error: {err}", file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
