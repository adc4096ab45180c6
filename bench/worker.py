"""One repetition of one workload, in a fresh interpreter.

    python3 bench/worker.py --workload pde-reference --seed 0 --mode timed --result r.json

Modes: ``timed`` runs the workload untraced; ``traced`` runs it with a
span around every public call into each layer; ``setup`` stops at the
first time step, so the parent can sample set-up time cheaply.  Every
completed repetition is checked for correctness after the clock stops.

The result file holds the monotonic time of the first step (the parent
subtracts its spawn time to get set-up time), the simulation time cut into
chunks of consecutive steps, the time of each CSV write, per-step wall
times of the pde workloads, and the outcome of every run and check.
"""

from __future__ import annotations

import argparse
import csv
import dataclasses
import json
import os
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

import numpy as np  # noqa: E402

import cryostef  # noqa: E402
from cryostef import cli  # noqa: E402
from cryostef.errors import CryostefError  # noqa: E402
from cryostef.grid import assemble  # noqa: E402
from cryostef.solve import SolverOptions  # noqa: E402
from cryostef.stepper import StepProblem, energy_balance_defect, validate_initial_fraction  # noqa: E402

import workloads as wl  # noqa: E402
from spans import Patches, Tracer  # noqa: E402

clock = time.monotonic

# simulation intervals are summed into at most this many chunks of
# consecutive steps (one step per chunk on the pde workloads)
CHUNKS = 512


class SetupDone(Exception):
    """Raised at the first time step of a set-up-only repetition."""


class Timeline:
    """Monotonic time stamps of one repetition.

    ``stamps[0]`` is the start of the first time step, where set-up ends.
    Every later stamp closes an interval: a time step with the glue before
    the next one, or a CSV write (the stamps listed in ``write_ends``).
    """

    def __init__(self, setup_only=False):
        self.setup_only = setup_only
        self.stamps = []
        self.write_ends = []
        self.step_s = []
        self.cell_steps = 0

    def step(self):
        """Stamp the start of a time step; the first one ends set-up."""
        self.stamps.append(clock())
        if self.setup_only:
            raise SetupDone

    def stamp(self, write=False):
        if self.stamps:
            self.stamps.append(clock())
            if write:
                self.write_ends.append(len(self.stamps) - 1)

    def summary(self):
        """Set-up end, simulation chunks and CSV writes of this repetition."""
        if not self.stamps:
            return {"first_step": None, "sim_s": 0.0, "sim_chunks": [], "write_s": 0.0, "write_parts": []}
        intervals = np.diff(self.stamps)
        is_write = np.zeros(intervals.size, dtype=bool)
        is_write[np.asarray(self.write_ends, dtype=int) - 1] = True
        sim = intervals[~is_write]
        size = max(1, -(-sim.size // CHUNKS))
        return {
            "first_step": self.stamps[0],
            "sim_s": float(sim.sum()),
            "sim_chunks": [float(sim[i:i + size].sum()) for i in range(0, sim.size, size)],
            "write_s": float(intervals[is_write].sum()),
            "write_parts": intervals[is_write].tolist(),
        }


def _install_stamps(patches, workload, tl):
    """Stamp every time step, and every CSV write of the scalar modes.

    pde-fine stamps its own loop and pde-reference stamps around
    ``write_pde_outputs``.  The scalar wrappers cost about 0.2 us per step,
    about 4% of ode-sweep's simulation time, the same on every commit.
    """
    if workload == "pde-reference":
        advance = cli.advance
        steps = tl.step_s

        def stamped_advance(*args, **kwargs):
            tl.step()
            result = advance(*args, **kwargs)
            steps.append(clock() - tl.stamps[-1])
            return result

        patches.set(cli, "advance", stamped_advance)
    elif workload in ("ode-sweep", "ode-long"):
        cls = cryostef.stepper.ScalarOdeStepper
        step = cls.step
        append = tl.stamps.append

        def stamped_step(self, u_prev, chi_prev, tau, f_value):
            append(clock())
            return step(self, u_prev, chi_prev, tau, f_value)

        def first_step(self, *args):
            cls.step = stamped_step
            tl.step()
            return step(self, *args)

        play_step = cryostef.play.play_step

        def stamped_play_step(v_prev, alpha, beta):
            append(clock())
            return play_step(v_prev, alpha, beta)

        write_csv = cli._write_csv

        def stamped_write(*args, **kwargs):
            tl.stamp()
            try:
                return write_csv(*args, **kwargs)
            finally:
                tl.stamp(write=True)

        patches.set(cls, "step", first_step)
        patches.set(cryostef.play, "play_step", stamped_play_step)
        patches.set(cli, "_write_csv", stamped_write)


# ---------------------------------------------------------------------------
# Runs


def _attempt(runs, label, fn):
    """Run ``fn``; record a raised solver or config error as a failed run."""
    entry = {"label": label, "error": None, "checks": {}}
    runs.append(entry)
    try:
        return fn()
    except CryostefError as err:
        entry["error"] = f"{type(err).__name__}: {err}"
        return None


def run_pde_reference(cfgs, opts, tl, out_dir, runs):
    outputs = {}
    for label, cfg in cfgs:
        run = _attempt(runs, label, lambda: cli.simulate_pde(cfg, opts))
        tl.stamp()
        if run is None:
            continue
        cli.write_pde_outputs(run, os.path.join(out_dir, label))
        tl.stamp(write=True)
        tl.cell_steps += cfg.M * len(run.reports)
        outputs[label] = run
    return outputs


def _pde_fine_setup(cfg):
    material = cryostef.ScaledMaterial(b=cfg.b, c_u=cfg.c_u, c_f=cfg.c_f, k_u=cfg.k_u, k_f=cfg.k_f)
    closure = cryostef.Closure.hysteresis(
        cryostef.calibrate_envelope(cfg.b, cfg.b_bar, cfg.theta0, cfg.envelope)
    )
    grid = cryostef.Grid1D(cfg.M)
    x = grid.centers
    # looked up per call so a traced run sees the wrapped function
    u0 = np.broadcast_to(
        np.asarray(cryostef.config.eval_expression(cfg.u_init, x=x), dtype=float), x.shape
    ).astype(float)
    chi0 = validate_initial_fraction(closure, material, u0, cryostef.equilibrium_fraction(u0, cfg.b))

    def bc_fn(t):
        return cfg.bc_left(t), cfg.bc_right(t)

    def f_fn(t):
        return cryostef.config.eval_expression(cfg.source, x=x, t=t)

    return material, closure, grid, cryostef.TimeState(0.0, u0, chi0), bc_fn, f_fn


def run_pde_fine(cfgs, opts, tl, out_dir, runs):
    """The README library loop: ``advance`` per step, every state kept, no CSV."""
    (label, cfg), = cfgs
    material, closure, grid, state, bc_fn, f_fn = _pde_fine_setup(cfg)
    n_steps = int(round(cfg.T / cfg.tau))
    states = [state]
    steps = tl.step_s

    def loop():
        nonlocal state
        for _ in range(n_steps):
            tl.step()
            # looked up per call so a traced run sees the wrapped function
            state, _ = cryostef.advance(
                state, cfg.tau, closure, material, grid, f_fn, bc_fn, opts,
                face_average=cfg.face_average,
            )
            steps.append(clock() - tl.stamps[-1])
            states.append(state)
        return states

    done = _attempt(runs, label, loop)
    tl.stamp()
    if done is None:
        return {}
    tl.cell_steps += cfg.M * n_steps
    return {label: (cfg, material, closure, grid, states, bc_fn, f_fn)}


def run_ode_sweep(cfgs, opts, tl, out_dir, runs):
    (label, cfg), = cfgs
    rows = _attempt(runs, label, lambda: cli.convergence_study(cfg, opts, out_dir))
    tl.stamp()
    if rows is None:
        return {}
    tl.cell_steps += sum(int(round(cfg.T / tau)) for tau in cfg.taus + (cfg.tau_fine,))
    return {label: rows}


def run_ode_long(cfgs, opts, tl, out_dir, runs):
    outputs = {}
    for label, cfg in cfgs:
        run_fn = cli.run_ode_coupled if label == "coupled" else cli.run_ode_driven
        out = os.path.join(out_dir, label)
        result = _attempt(runs, label, lambda: run_fn(cfg, opts, out))
        tl.stamp()
        if result is not None:
            tl.cell_steps += int(round(cfg.T / cfg.tau))
            outputs[label] = (cfg, result)
    return outputs


RUNNERS = {
    "pde-reference": run_pde_reference,
    "pde-fine": run_pde_fine,
    "ode-sweep": run_ode_sweep,
    "ode-long": run_ode_long,
}


# ---------------------------------------------------------------------------
# Checks (run after the clock stops, with every wrapper removed)


def _count_rows(path):
    with open(path, encoding="utf-8") as handle:
        return sum(1 for _ in handle) - 1


def _read_csv(path):
    with open(path, encoding="utf-8", newline="") as handle:
        return list(csv.reader(handle))[1:]


def pde_step_checks(cfg, closure, material, grid, states, f_at, bc_at, opts):
    """Worst true residual and energy-balance defect over the accepted steps.

    The residual is re-evaluated with the matrix assembled at the accepted
    state, the same test the solver's outer loop applies.
    """
    worst_res = 0.0
    worst_defect = 0.0
    for n in range(1, len(states)):
        prev, new = states[n - 1], states[n]
        ud = bc_at(n)
        f_n = np.broadcast_to(np.asarray(f_at(n), dtype=float), new.u.shape)

        def assembler(u, ud=ud):
            return assemble(u, material, grid, ud[0], ud[1], cfg.face_average)

        problem = StepProblem(prev, closure, cfg.tau, f_n, material, assembler)
        worst_res = max(worst_res, float(np.max(np.abs(problem.residual(new.u, assembler(new.u))))))
        defect = energy_balance_defect(prev, new, material, grid, ud, f_n, cfg.tau, cfg.face_average)
        worst_defect = max(worst_defect, abs(defect))
    return worst_res, worst_defect


def _energy_bound(grid, opts):
    # the defect is h times the cell-sum of the step residual, so it is at
    # most length * tol; 1e-12 covers rounding of the energy sums
    return grid.length * opts.tol + 1e-12


def check_pde_reference(outputs, runs, opts, out_dir):
    by_label = {r["label"]: r for r in runs}
    for label, run in outputs.items():
        checks = by_label[label]["checks"]
        res, defect = pde_step_checks(
            run.cfg, run.closure, run.material, run.grid, run.states,
            lambda n: run.sources[n - 1], lambda n: run.bcs[n - 1], opts,
        )
        checks["residual"] = bool(res <= opts.tol)
        checks["energy"] = bool(defect <= _energy_bound(run.grid, opts))
        d = os.path.join(out_dir, label)
        n_out = len(run.cfg.out_times)
        snap = np.array(_read_csv(os.path.join(d, "snapshots.csv")), dtype=float)
        expect = np.array([
            (s.t, x, u, c) for s in (run.states[int(round(t / run.cfg.tau))] for t in run.cfg.out_times)
            for x, u, c in zip(run.grid.centers, s.u, s.upsilon)
        ])
        checks["csv"] = (
            snap.shape == (n_out * run.cfg.M, 4)
            and bool(np.array_equal(snap, expect))
            and _count_rows(os.path.join(d, "phase.csv")) == len(run.states) * run.cfg.M
            and _count_rows(os.path.join(d, "iterations.csv")) == len(run.reports)
            and _count_rows(os.path.join(d, "summary.csv")) == 1
        )
    return {label: (run.cfg, run.states) for label, run in outputs.items()}


def check_pde_fine(outputs, runs, opts, out_dir):
    by_label = {r["label"]: r for r in runs}
    ref = {}
    for label, (cfg, material, closure, grid, states, bc_fn, f_fn) in outputs.items():
        checks = by_label[label]["checks"]
        res, defect = pde_step_checks(
            cfg, closure, material, grid, states,
            lambda n: f_fn(states[n].t), lambda n: bc_fn(states[n].t), opts,
        )
        checks["residual"] = bool(res <= opts.tol)
        checks["energy"] = bool(defect <= _energy_bound(grid, opts))
        ref[label] = (cfg, states)
    return ref


def check_ode_sweep(outputs, runs, opts, out_dir):
    if "sweep" not in outputs:
        return {}
    rows = outputs["sweep"]
    checks = runs[0]["checks"]
    lo, hi = wl.ORDER_BAND
    orders = [row[k] for row in rows[1:] for k in ("order_l1", "order_l2", "order_inf")]
    checks["orders"] = bool(orders) and all(lo <= o <= hi for o in orders)
    written = _read_csv(os.path.join(out_dir, "orders.csv"))
    checks["csv"] = len(written) == len(rows) and all(
        float(w[0]) == row["tau"] and float(w[1]) == row["err_l1"] for w, row in zip(written, rows)
    )
    return outputs


def check_ode_long(outputs, runs, opts, out_dir, k):
    by_label = {r["label"]: r for r in runs}
    ref = {}
    if "coupled" in outputs:
        cfg, (times, u, chi) = outputs["coupled"]
        checks = by_label["coupled"]["checks"]
        # the same forcing written in Python, through the built-in path
        twin = Patches()
        if k:
            twin.set(cli, "_default_coupled_forcing", wl.coupled_forcing_function(wl.scale(k)))
        try:
            _, u_py, chi_py = cli.simulate_ode_coupled(dataclasses.replace(cfg, forcing="auto"), opts)
        finally:
            twin.undo()
        checks["expression_bit_identical"] = bool(np.array_equal(u, u_py) and np.array_equal(chi, chi_py))
        checks["csv"] = _count_rows(os.path.join(out_dir, "coupled", "trajectory.csv")) == len(times) - 1
        ref["coupled"] = (times, u, chi)
    if "driven" in outputs:
        cfg, rows = outputs["driven"]
        checks = by_label["driven"]["checks"]
        env = cryostef.calibrate_envelope(cfg.b, cfg.b_bar, cfg.theta0, cfg.envelope)
        u, chi = rows[:, 1], rows[:, 2]
        lower = env.lower(u[1:])
        upper = lower + env.gap(u[:-1])
        checks["envelope"] = bool(np.all(chi[1:] >= lower - 1e-12) and np.all(chi[1:] <= upper + 1e-12))
        checks["csv"] = _count_rows(os.path.join(out_dir, "driven", "trajectory.csv")) == len(rows)
        ref["driven"] = rows
    return ref


def run_checks(workload, k, outputs, runs, opts, out_dir, reference):
    if workload == "pde-reference":
        ref = check_pde_reference(outputs, runs, opts, out_dir)
    elif workload == "pde-fine":
        ref = check_pde_fine(outputs, runs, opts, out_dir)
    elif workload == "ode-sweep":
        ref = check_ode_sweep(outputs, runs, opts, out_dir)
    else:
        ref = check_ode_long(outputs, runs, opts, out_dir, k)
    if any(r["error"] is not None for r in runs):
        return None
    values = wl.reference_values(workload, ref)
    if reference is not None:
        deviation = wl.compare_reference(workload, k, values, reference)
        runs[0]["checks"]["reference"] = bool(deviation <= wl.REFERENCE_ATOL[workload])
        runs[0]["reference_deviation"] = deviation
    return values


# ---------------------------------------------------------------------------


def load_reference():
    with open(Path(__file__).with_name("reference.json"), encoding="utf-8") as handle:
        return json.load(handle)


def execute(workload, k, mode, tol=None, check_reference=True, spans_path=None):
    """Run one repetition at variant ``k``.

    Returns the result dict and the output values compared against the
    reference (None when a run failed or in set-up mode).
    """
    out_dir = str(ROOT / ".bench_results" / "work" / workload)
    opts = SolverOptions() if tol is None else SolverOptions(tol=tol)
    tl = Timeline(setup_only=(mode == "setup"))
    tracer = Tracer() if mode == "traced" else None
    patches = Patches()
    if tracer is not None:
        tracer.install(opts.max_inner)
    _install_stamps(patches, workload, tl)
    runs = []
    try:
        cfgs = wl.load_configs(workload, k, os.path.join(out_dir, "config"))
        outputs = RUNNERS[workload](cfgs, opts, tl, out_dir, runs)
    except SetupDone:
        return {"first_step": tl.stamps[0]}, None
    finally:
        patches.undo()
        if tracer is not None:
            tracer.uninstall()
    result = {
        **tl.summary(),
        "cell_steps": tl.cell_steps,
        "step_s": tl.step_s,
        "variant": k,
        "CRYOSTEF_THREADS": os.environ.get("CRYOSTEF_THREADS"),
        "runs": runs,
    }
    if tracer is not None:
        result["layers"] = tracer.layer_metrics()
        if spans_path:
            tracer.write(spans_path)
    reference = load_reference() if check_reference else None
    values = run_checks(workload, k, outputs, runs, opts, out_dir, reference)
    return result, values


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=wl.WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--mode", choices=("timed", "traced", "setup"), default="timed")
    parser.add_argument("--result", required=True)
    parser.add_argument("--spans", default=None, help="write the traced spans here (.jsonl.gz)")
    args = parser.parse_args(argv)
    result, _ = execute(args.workload, wl.variant(args.seed), args.mode, spans_path=args.spans)
    with open(args.result, "w", encoding="utf-8") as handle:
        json.dump(result, handle)
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
