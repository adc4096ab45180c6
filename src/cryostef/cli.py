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
import os
import sys
from dataclasses import dataclass

import numpy as np

from . import solve as solvers
from .config import MODES, RunConfig, eval_expression, load_config
from .constitutive import ScaledMaterial, calibrate_envelope, equilibrium_fraction
from .errors import ConfigError, CryostefError, InfeasibleState, NonConvergence
from .grid import Grid1D, assemble
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


def initial_fraction(cfg, x, u0):
    """``chi_init`` at ``x``: F(u0) for ``auto``, else the expression in x, u0, F."""
    if cfg.chi_init == "auto":
        return equilibrium_fraction(u0, cfg.b)
    return eval_expression(cfg.chi_init, x=x, u0=u0, F=lambda v: equilibrium_fraction(v, cfg.b))


def initial_state(cfg, closure, material, x, strict_init=False):
    """``u_init`` at ``x``, then ``chi_init`` made admissible for the closure."""
    u0 = np.broadcast_to(
        np.asarray(eval_expression(cfg.u_init, x=x), dtype=float), np.shape(x)
    ).astype(float)
    chi_raw = initial_fraction(cfg, x, u0)
    return u0, validate_initial_fraction(closure, material, u0, chi_raw, strict=strict_init)


# ---------------------------------------------------------------------------
# PDE mode


@dataclass
class PdeRun:
    """States and per-step reports of a completed simulation, with the
    source array and the boundary pair ``advance`` sampled for each step.
    """

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
    u0, chi0 = initial_state(cfg, closure, material, x, strict_init)

    # advance samples the boundary pair and the source once per step; keep them
    def bc_fn(t):
        bcs.append((cfg.bc_left(t), cfg.bc_right(t)))
        return bcs[-1]

    def f_fn(t):
        sources.append(np.broadcast_to(
            np.asarray(eval_expression(cfg.source, x=x, t=t), dtype=float), x.shape
        ).copy())
        return sources[-1]

    state = TimeState(0.0, u0, chi0)
    states = [state]
    reports = []
    sources = []
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
    return PdeRun(cfg, grid, material, closure, states, reports, sources, bcs)


def _pde_diagnostics(run):
    # step 1's system, with the source and boundary pair its solve used
    cfg = run.cfg

    def assembler(u):
        return assemble(u, run.material, run.grid, *run.bcs[0], cfg.face_average)

    problem = StepProblem(
        run.states[0], run.closure, cfg.tau, run.sources[0], run.material, assembler
    )
    return solvers.contraction_diagnostic(problem)


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


def _cell_rows(states, x):
    # (t, x, u, chi) of every cell of every state, one row per cell
    return np.column_stack((
        np.repeat([state.t for state in states], len(x)),
        np.tile(x, len(states)),
        np.ravel([state.u for state in states]),
        np.ravel([state.upsilon for state in states]),
    ))


def write_pde_outputs(run, out_dir):
    cfg = run.cfg
    x = run.grid.centers
    os.makedirs(out_dir, exist_ok=True)
    n_steps = len(run.reports)

    snapshot_states = []
    for t_out in cfg.out_times:
        n = int(round(t_out / cfg.tau))
        if n < 0 or n > n_steps or abs(n * cfg.tau - t_out) > 0.5 * cfg.tau + 1e-12:
            continue
        snapshot_states.append(run.states[n])
    header = ("t", "x", "u", "chi")
    _write_csv(os.path.join(out_dir, "snapshots.csv"), header, _cell_rows(snapshot_states, x))
    _write_csv(os.path.join(out_dir, "phase.csv"), header, _cell_rows(run.states, x))

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


def _default_coupled_forcing(times, scratch):
    """The built-in coupled forcing at each of an array of times, as floats.

    ``h*cos(pi*t) + g`` with ``(h, g) = (16, -15)`` before t = 1 and
    ``(4, 4t - 30)`` from then on.  The cosines are taken over the whole
    array in ``scratch`` (as long as ``times``), so a call allocates no
    array; numpy's cosine of an array has the bits of its cosine of each
    element.
    """
    np.multiply(np.pi, times, out=scratch)
    np.cos(scratch, out=scratch)
    return [
        16.0 * c - 15.0 if t < 1.0 else 4.0 * c + (4.0 * t - 30.0)
        for t, c in zip(times.tolist(), scratch.tolist())
    ]


# sampled a block of times at a time, see _forcing_sampler
_default_coupled_forcing.vectorized = True


def _default_drive(t):
    h = 8.0 if t < 4.0 else 4.0
    g = -2.0 if t < 4.0 else t / 2.0 - 8.0
    return h * np.cos(np.pi * t / 4.0) + g


def _time_expr_fn(expr, default):
    if expr == "auto":
        return default
    return lambda t: float(eval_expression(expr, t=t))


# time steps whose forcing is sampled together
_FORCING_BLOCK_STEPS = 1024


def _forcing_sampler(forcing):
    """``sample(times)``: the forcing at a block of times, as floats.

    A vectorized forcing is evaluated over the whole block at once, in a
    scratch array allocated once here.  Any other function of time (a
    config expression, or a scalar function put in place of the built-in
    one) is called lazily, once per time as the values are consumed, so a
    failing call surfaces at its own step.
    """
    if getattr(forcing, "vectorized", False):
        scratch = np.empty(_FORCING_BLOCK_STEPS)
        return lambda times: forcing(times, scratch[:len(times)])
    return lambda times: map(forcing, times.tolist())


def simulate_ode_coupled(cfg, opts, tau=None, strict_init=False):
    """Integrate the scalar coupled system; arrays indexed by step number.

    The loop carries the state and the forcing from step to step as plain
    floats, so no Newton iterate pays for numpy scalar arithmetic; each
    step's state is written into the preallocated arrays.  The forcing is
    sampled a block of steps at a time (``_forcing_sampler``): the built-in
    one with one array cosine per block, an expression step by step as the
    block is consumed, so nothing but the three returned arrays grows with
    the number of steps.  The stepper is handed back the state object it
    returned, so it reuses that state's fraction.
    """
    tau = cfg.tau if tau is None else tau
    closure = build_closure(cfg)
    sample = _forcing_sampler(_time_expr_fn(cfg.forcing, _default_coupled_forcing))
    # one point at x = 0 with c(u) = u: the material keys of pde mode are not read
    material = ScaledMaterial(b=cfg.b, c_u=1.0, c_f=1.0, k_u=1.0, k_f=1.0)
    u0, chi0 = initial_state(cfg, closure, material, 0.0, strict_init)

    stepper = ScalarOdeStepper(closure, cfg.b, cfg.a_coef, tol=opts.tol, max_iter=opts.max_inner)
    n_steps = int(round(cfg.T / tau))
    times = np.arange(n_steps + 1) * tau
    u = np.empty(n_steps + 1)
    chi = np.empty(n_steps + 1)
    u_n, chi_n = float(u0), float(chi0)
    u[0], chi[0] = u_n, chi_n
    n = 0
    try:
        for start in range(1, n_steps + 1, _FORCING_BLOCK_STEPS):
            block = times[start:start + _FORCING_BLOCK_STEPS]
            for n, f_n in enumerate(sample(block), start):
                u_n, chi_n, _, _ = stepper.step(u_n, chi_n, tau, f_n)
                u[n], chi[n] = u_n, chi_n
    except NonConvergence as err:
        err.step = n
        err.t = times[n]
        raise
    return times, u, chi


def run_ode_coupled(cfg, opts, out_dir, strict_init=False):
    times, u, chi = simulate_ode_coupled(cfg, opts, strict_init=strict_init)
    os.makedirs(out_dir, exist_ok=True)
    rows = np.column_stack((times, u, chi))[1:]
    _write_csv(os.path.join(out_dir, "trajectory.csv"), ("t", "u", "chi"), rows)
    return times, u, chi


def run_ode_driven(cfg, opts, out_dir, strict_init=False):
    env = calibrate_envelope(cfg.b, cfg.b_bar, cfg.theta0, cfg.envelope)
    u_fn = _time_expr_fn(cfg.drive, _default_drive)
    # u0 comes from the drive, and drive_play makes the fraction admissible
    v_init = float(initial_fraction(cfg, 0.0, u_fn(0.0)))
    rows = drive_play(u_fn, env, cfg.tau, cfg.T, v_init, strict=strict_init)
    os.makedirs(out_dir, exist_ok=True)
    _write_csv(os.path.join(out_dir, "trajectory.csv"), ("t", "u", "chi"), rows)
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
    upper = env.upper(thetas, lower)
    os.makedirs(out_dir, exist_ok=True)
    rows = np.column_stack((thetas, lower, upper))
    _write_csv(os.path.join(out_dir, "envelope.csv"), ("theta", "F", "G"), rows)
    return env


# ---------------------------------------------------------------------------
# CSV helpers and entry point

# rows of an array are formatted and written this many at a time
_CSV_BLOCK_ROWS = 4096


def _line_format(kinds):
    # one %-format for a whole line: text as is, integers and bools as
    # integers, everything else as a float at %.17g
    cells = []
    for kind in kinds:
        if issubclass(kind, str):
            cells.append("%s")
        elif issubclass(kind, (bool, int, np.integer)):
            cells.append("%d")
        else:
            cells.append("%.17g")
    return ",".join(cells) + "\r\n"


def _write_csv(path, header, rows):
    """Write ``header`` and ``rows`` as CSV lines ending in CRLF.

    ``rows`` is a sequence of row tuples or a 2-D array.  A row is
    formatted with one %-format string, built once per distinct tuple of
    cell types; every cell of an array has the array's type, so a block of
    its rows is formatted in one operation.  Text cells are written
    unquoted, so they must not hold a comma, a quote or a line break; the
    program writes only column names and empty cells.
    """
    with open(path, "w", newline="", encoding="utf-8") as handle:
        handle.write(",".join(header) + "\r\n")
        if isinstance(rows, np.ndarray):
            fmt = _line_format([rows.dtype.type] * rows.shape[1])
            for i in range(0, len(rows), _CSV_BLOCK_ROWS):
                block = rows[i:i + _CSV_BLOCK_ROWS]
                handle.write((fmt * len(block)) % tuple(block.ravel().tolist()))
            return
        formats = {}
        for row in rows:
            row = tuple(row)
            kinds = tuple(map(type, row))
            fmt = formats.get(kinds)
            if fmt is None:
                fmt = formats[kinds] = _line_format(kinds)
            handle.write(fmt % row)


def _positive(kind):
    # argparse type: a number of ``kind`` above zero, else a usage error
    def parse(text):
        try:
            value = kind(text)
        except ValueError:
            raise argparse.ArgumentTypeError(f"invalid {kind.__name__} value: {text!r}") from None
        if not value > 0:
            raise argparse.ArgumentTypeError(f"must be positive, got {text!r}")
        return value

    return parse


def _build_parser():
    parser = argparse.ArgumentParser(
        prog="cryostef",
        description="Freeze/thaw heat flow with equilibrium, kinetic, and hysteretic closures.",
    )
    sub = parser.add_subparsers(dest="mode", required=True)
    solver = SolverOptions()
    for mode in MODES:
        p = sub.add_parser(mode)
        # each mode takes only the flags it reads; main() sees the defaults of the rest
        p.set_defaults(
            strict_init=False, solver=solver.strategy, tol=solver.tol, max_iter=solver.max_inner
        )
        p.add_argument("--config", default=None, help="key = value config file")
        p.add_argument("--out", default=None, help="output directory (default from config)")
        if mode != "calibrate":
            p.add_argument("--strict-init", action="store_true", help="reject infeasible initial data")
        if mode == "pde":
            p.add_argument("--solver", choices=solvers.STRATEGIES)
        if mode in ("pde", "ode-coupled", "convergence"):
            p.add_argument("--tol", type=_positive(float))
            p.add_argument("--max-iter", type=_positive(int))
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
