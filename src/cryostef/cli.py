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
import math
import os
import sys
from dataclasses import dataclass

import numpy as np

from . import solve as solvers
from .config import (
    BLOCK_STEPS,
    MODES,
    RunConfig,
    eval_expression,
    expression_block,
    expression_function,
    load_config,
    sample_times,
    step_times,
    whole_steps,
)
from .constitutive import ScaledMaterial, calibrate_envelope, equilibrium_fraction
from .errors import ConfigError, CryostefError, InfeasibleState, NonConvergence
from .grid import Grid1D
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


def _blame_inputs(err, inputs):
    # a step failed: a non-finite (key, t, value) input is the cause, not the solver
    bad = [(key, t) for key, t, value in inputs if not np.all(np.isfinite(value))]
    return ConfigError("key %r is not finite at t=%s" % bad[0]) if bad else err


# ---------------------------------------------------------------------------
# PDE mode


@dataclass
class PdeRun:
    """States and per-step reports of a completed simulation, with the
    source and the boundary pair ``advance`` sampled for each step; each
    source is the read-only view over the cell centers that ``advance`` used.
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
    material = ScaledMaterial(b=cfg.b, c_u=cfg.c_u, c_f=cfg.c_f, k_u=cfg.k_u, k_f=cfg.k_f)
    closure = build_closure(cfg)
    grid = Grid1D(cfg.M)
    x = grid.centers
    u0, chi0 = initial_state(cfg, closure, material, x, strict_init)

    # advance samples the boundary pair and the source once per step; keep them
    def bc_fn(t):
        bcs.append((cfg.bc_left(t), cfg.bc_right(t)))
        return bcs[-1]

    source = expression_function(cfg.source, ("x", "t"))

    def f_fn(t):
        sources.append(np.broadcast_to(np.asarray(source(x, t), dtype=float), x.shape))
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
            raise _blame_inputs(err, [("u_init", 0.0, u0), ("chi_init", 0.0, chi0),
                                      ("source", err.t, sources[-1])])
        states.append(state)
        reports.append(report)
    return PdeRun(cfg, grid, material, closure, states, reports, sources, bcs)


def _pde_diagnostics(run):
    # step 1's system with the source its solve used; the diagnostic reads
    # its right-hand side and assembles nothing
    problem = StepProblem(
        run.states[0], run.closure, run.cfg.tau, run.sources[0], run.material, None
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


class _CellRows:
    """The (t, x, u, chi) row of every cell of each state, one row per cell.

    Its length is the number of rows; iterating it formats them one state
    at a time, so no copy of the states is made.  Each x is formatted once
    into a line template and each t once per state, so only u and chi are
    formatted per cell.
    """

    def __init__(self, states, x):
        self.states = states
        self.x = x.tolist()

    def __len__(self):
        return len(self.states) * len(self.x)

    def __iter__(self):
        """The lines of each state in turn, one string per state."""
        m = len(self.x)
        template = "".join("%%s,%.17g,%%.17g,%%.17g\r\n" % x for x in self.x)
        cells = [None] * (3 * m)
        for state in self.states:
            cells[0::3] = ("%.17g" % state.t,) * m
            cells[1::3] = state.u.tolist()
            cells[2::3] = state.upsilon.tolist()
            yield template % tuple(cells)


def write_pde_outputs(run, out_dir):
    cfg = run.cfg
    x = run.grid.centers
    n_steps = len(run.reports)

    snapshot_states = []
    for t_out in cfg.out_times:
        n = int(round(t_out / cfg.tau))
        if 0 <= n <= n_steps:
            snapshot_states.append(run.states[n])
    header = ("t", "x", "u", "chi")
    _write_csv(os.path.join(out_dir, "snapshots.csv"), header, _CellRows(snapshot_states, x))
    _write_csv(os.path.join(out_dir, "phase.csv"), header, _CellRows(run.states, x))

    iter_lines = [
        "%d,%.17g,%d,%d,%.17g\r\n"
        % (n, run.states[n].t, report.outer_iters, report.inner_iters_total,
           report.residual_history[-1])
        for n, report in enumerate(run.reports, start=1)
    ]
    _write_csv(
        os.path.join(out_dir, "iterations.csv"),
        ("step", "t", "outer", "inner_total", "residual"),
        iter_lines,
    )

    counts = run.inner_counts
    _write_csv(
        os.path.join(out_dir, "summary.csv"),
        ("n_min", "n_max", "n_ave"),
        ["%d,%d,%.17g\r\n" % (counts.min(), counts.max(), counts.mean())],
    )


# ---------------------------------------------------------------------------
# Scalar ODE modes


def _time_expr_fn(expr, default):
    """The key's built-in, or its expression compiled as a function of t.

    An expression with a block form (``expression_block``) is vectorized:
    a block of times is evaluated at once, or, where the block form refuses
    it, by the compiled function, one call per time as ``sample_times``
    makes them.
    """
    if expr == "auto":
        return default
    function = expression_function(expr, ("t",))
    block = expression_block(expr)
    if block is None:
        return function

    def sample(times):
        values = block(times)
        return sample_times(function, times) if values is None else values.tolist()

    sample.vectorized = True
    return sample


# the built-in forcing and drive (``auto``), each an oscillation whose
# amplitude and offset switch at one time
_default_coupled_forcing = _time_expr_fn(
    "16.0*cos(pi*t) - 15.0 if t < 1.0 else 4.0*cos(pi*t) + (4.0*t - 30.0)", None
)
_default_drive = _time_expr_fn(
    "8.0*cos(pi*t/4.0) - 2.0 if t < 4.0 else 4.0*cos(pi*t/4.0) + (t/2.0 - 8.0)", None
)


def simulate_ode_coupled(cfg, opts, tau=None, strict_init=False, stride=1):
    """Integrate the scalar coupled system; keep states 0, stride, 2*stride, ...

    Returns the times and the (u, chi) arrays of the kept states, indexed by
    step number over ``stride``.  The loop carries the state and the forcing
    from step to step as plain floats, so no Newton iterate pays for numpy
    scalar arithmetic.  The forcing is sampled ``BLOCK_STEPS`` steps at a
    time (``sample_times``): an expression, the built-in one included, with
    one evaluation of its block form per block, or step by step as the block
    is consumed where it has none or the block form refuses the block.  Each
    block's states are collected in lists and its kept ones copied into the
    preallocated arrays once, so the loop does the same work at every stride
    and nothing but the three returned arrays grows with the number of steps.
    The stepper is handed back the state object it returned, so it reuses
    that state's fraction.
    """
    tau = cfg.tau if tau is None else tau
    closure = build_closure(cfg)
    forcing = _time_expr_fn(cfg.forcing, _default_coupled_forcing)
    # one point at x = 0 with c(u) = u: the material keys of pde mode are not read
    material = ScaledMaterial(b=cfg.b, c_u=1.0, c_f=1.0, k_u=1.0, k_f=1.0)
    u0, chi0 = initial_state(cfg, closure, material, 0.0, strict_init)

    stepper = ScalarOdeStepper(closure, cfg.b, cfg.a_coef, tol=opts.tol, max_iter=opts.max_inner)
    n_steps = int(round(cfg.T / tau))
    # scaled in place: freeing a run-length temporary would raise malloc's
    # mmap threshold and put u and chi on the heap, raising the peak memory
    times = step_times(0, n_steps + 1, tau, stride)
    u = np.empty(len(times))
    chi = np.empty(len(times))
    u_n, chi_n = float(u0), float(chi0)
    u[0], chi[0] = u_n, chi_n
    try:
        for start in range(1, n_steps + 1, BLOCK_STEPS):
            block = step_times(start, min(start + BLOCK_STEPS, n_steps + 1), tau)
            us, chis = [], []
            for f_n in sample_times(forcing, block):
                u_n, chi_n, _, _ = stepper.step(u_n, chi_n, tau, f_n)
                us.append(u_n)
                chis.append(chi_n)
            first = -start % stride  # the block's first kept step is start + first
            u_kept, chi_kept = us[first::stride], chis[first::stride]
            k = (start + first) // stride
            u[k:k + len(u_kept)] = u_kept
            chi[k:k + len(chi_kept)] = chi_kept
    except NonConvergence as err:
        n = start + len(us)
        err.step, err.t = n, n * tau
        inputs = [("u_init", 0.0, u0), ("chi_init", 0.0, chi0), ("forcing", err.t, f_n)]
        raise _blame_inputs(err, inputs)
    return times, u, chi


def run_ode_coupled(cfg, opts, out_dir, strict_init=False):
    times, u, chi = simulate_ode_coupled(cfg, opts, strict_init=strict_init)
    columns = _ColumnRows(times[1:], u[1:], chi[1:])
    _write_csv(os.path.join(out_dir, "trajectory.csv"), ("t", "u", "chi"), columns)
    return times, u, chi


def run_ode_driven(cfg, opts, out_dir, strict_init=False):
    env = calibrate_envelope(cfg.b, cfg.b_bar, cfg.theta0, cfg.envelope)
    u_fn = _time_expr_fn(cfg.drive, _default_drive)

    # u0 comes from the drive, and drive_play makes the fraction admissible
    def v_init(u0):
        return float(initial_fraction(cfg, 0.0, u0))

    rows = drive_play(u_fn, env, cfg.tau, cfg.T, v_init, strict=strict_init)
    _write_csv(os.path.join(out_dir, "trajectory.csv"), ("t", "u", "chi"), _ColumnRows(*rows.T))
    return rows


# ---------------------------------------------------------------------------
# Convergence study

# the norms of the sweep's errors and orders, in the order of their columns
_NORMS = ("l1", "l2", "inf")


def trajectory_errors(coarse, fine, tau_coarse, tau_fine):
    """Weighted 1-, 2-, and max-norm distances between two runs.

    Both runs are arrays (u, chi) indexed by their own state number, with
    states ``tau_coarse`` and ``tau_fine`` apart; the fine run is subsampled
    at the coarse times.  The pointwise distance is the Euclidean norm of
    the (u, chi) pair, accumulated with weight tau_coarse for the 1- and
    2-norms.
    """
    stride = whole_steps(tau_coarse, tau_fine, "coarse step")
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
    """Sweep coarse step sizes against the fine reference run.

    The fine run keeps every ``keep``-th state, ``keep`` the greatest common
    divisor of the sweep's steps counted in fine steps: every state an error
    reads, and no other.
    """
    taus = tuple(sorted(cfg.taus, reverse=True))
    runs = {}
    for tau in taus:
        _, u, chi = simulate_ode_coupled(cfg, opts, tau=tau, strict_init=strict_init)
        runs[tau] = u, chi
    keep = math.gcd(*(whole_steps(tau, cfg.tau_fine, "sweep step") for tau in taus))
    _, u, chi = simulate_ode_coupled(
        cfg, opts, tau=cfg.tau_fine, strict_init=strict_init, stride=keep
    )

    # the kept fine states lie keep fine steps apart
    errors = {tau: trajectory_errors(runs[tau], (u, chi), tau, keep * cfg.tau_fine) for tau in taus}

    rows = []
    for prev_tau, tau in zip((None, *taus), taus):
        err = errors[tau]
        row = {"tau": tau, **{f"err_{norm}": err[norm] for norm in _NORMS}}
        if prev_tau is None:
            row.update((f"order_{norm}", "") for norm in _NORMS)
        else:
            prev, ratio = errors[prev_tau], np.log(prev_tau / tau)
            for norm in _NORMS:
                row[f"order_{norm}"] = float(np.log(prev[norm] / err[norm]) / ratio)
        rows.append(row)
    write_orders(rows, out_dir)
    return rows


def write_orders(rows, out_dir):
    """Write ``convergence_study``'s rows as ``orders.csv``; the first row's orders are empty."""
    header = ("tau", "err_l1", "err_l2", "err_inf", "order_l1", "order_l2", "order_inf")
    lines = ["%.17g,%.17g,%.17g,%.17g,,,\r\n" % tuple(rows[0][k] for k in header[:4])]
    line = "%.17g,%.17g,%.17g,%.17g,%.17g,%.17g,%.17g\r\n"
    lines += [line % tuple(row[k] for k in header) for row in rows[1:]]
    _write_csv(os.path.join(out_dir, "orders.csv"), header, lines)


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
    columns = _ColumnRows(thetas, lower, upper)
    _write_csv(os.path.join(out_dir, "envelope.csv"), ("theta", "F", "G"), columns)
    return env


# ---------------------------------------------------------------------------
# CSV helpers and entry point

# rows of float columns are formatted and written this many at a time
_CSV_BLOCK_ROWS = 1024


class _ColumnRows:
    """The rows of equal-length float columns, each cell at ``%.17g``.

    Its length is the number of rows; iterating it formats them a block of
    ``_CSV_BLOCK_ROWS`` rows at a time, so only one block of the columns is
    copied at once.
    """

    def __init__(self, *columns):
        self.columns = columns

    def __len__(self):
        return len(self.columns[0])

    def __iter__(self):
        """The lines of each block of rows in turn, one string per block."""
        line = ",".join(["%.17g"] * len(self.columns)) + "\r\n"
        for i in range(0, len(self), _CSV_BLOCK_ROWS):
            n = min(_CSV_BLOCK_ROWS, len(self) - i)
            block = [column[i:i + n] for column in self.columns]
            # the rows side by side as an array, a list and a tuple of cells,
            # none of them named: each is freed once the next is made, so
            # the block's cells are held once while they are formatted
            yield (line * n) % tuple(np.stack(block, axis=1).ravel().tolist())


def _write_csv(path, header, rows):
    """Write ``header`` and ``rows`` as CSV lines ending in CRLF.

    ``rows`` is a sized iterable of formatted text, such as a list of
    lines, ``_CellRows`` or ``_ColumnRows``; ``len(rows)`` is the number of
    lines below the header.  The file's directory, if any, is made.
    """
    directory = os.path.dirname(path)
    if directory:
        os.makedirs(directory, exist_ok=True)
    with open(path, "w", newline="", encoding="utf-8") as handle:
        handle.write(",".join(header) + "\r\n")
        handle.writelines(rows)


def _check_out_dir(out_dir):
    # the run makes the directory only when it writes: before any step, the
    # nearest path of it that exists must be a directory
    path = os.path.abspath(out_dir)
    while not os.path.lexists(path):
        path = os.path.dirname(path)
    if not os.path.isdir(path):
        raise ConfigError(f"output directory {out_dir!r}: {path} is not a directory")


def _positive(kind):
    # argparse type: a finite number of ``kind`` above zero, else a usage error
    def parse(text):
        try:
            value = kind(text)
        except ValueError:
            raise argparse.ArgumentTypeError(f"invalid {kind.__name__} value: {text!r}") from None
        if not 0 < value < math.inf:
            raise argparse.ArgumentTypeError(f"must be positive and finite, got {text!r}")
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
        # each mode takes only the flags it reads; main() sees the defaults of the
        # rest, and no --max-iter leaves the strategy's own budget
        p.set_defaults(strict_init=False, solver=solver.strategy, tol=solver.tol, max_iter=None)
        p.add_argument("--config", default=None, help="key = value config file")
        p.add_argument("--out", default="out", help="output directory (default: out)")
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
        _check_out_dir(args.out)
        opts = SolverOptions(tol=args.tol, max_inner=args.max_iter, strategy=args.solver)
        if args.mode == "pde":
            run_pde(cfg, opts, args.out, strict_init=args.strict_init)
        elif args.mode == "ode-coupled":
            run_ode_coupled(cfg, opts, args.out, strict_init=args.strict_init)
        elif args.mode == "ode-driven":
            run_ode_driven(cfg, opts, args.out, strict_init=args.strict_init)
        elif args.mode == "calibrate":
            run_calibrate(cfg, args.out)
        else:
            convergence_study(cfg, opts, args.out, strict_init=args.strict_init)
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
