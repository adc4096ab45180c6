"""Spans around the public calls into each cryostef layer, kept in memory.

A span records its name, start, end and the span that was open when it
began (its parent).  Self time is a span's duration minus the time its
child spans cover; calls run on one thread, so children never overlap.

Wrappers go into every namespace that binds the wrapped object: modules
that import a function by name keep their own reference, so patching only
the defining module would let their calls escape the trace.
"""

from __future__ import annotations

import gzip
import json
import os
import sys
import time
from collections import defaultdict

import numpy as np


class Patches:
    """Attribute replacements that can be undone in reverse order."""

    def __init__(self):
        self._undo = []

    def set(self, owner, attr, value):
        self._undo.append((owner, attr, owner.__dict__[attr] if isinstance(owner, type) else getattr(owner, attr)))
        setattr(owner, attr, value)

    def everywhere(self, module, attr, value, home=True):
        """Rebind ``module.attr`` in every loaded cryostef module binding it.

        With ``home`` false the defining module keeps the original, so calls
        inside that module are not traced.
        """
        original = getattr(module, attr)
        for name, mod in list(sys.modules.items()):
            if mod is None or not (name == "cryostef" or name.startswith("cryostef.")):
                continue
            if mod is module and not home:
                continue
            for key, bound in list(vars(mod).items()):
                if bound is original:
                    self.set(mod, key, value)
        return original

    def undo(self):
        while self._undo:
            owner, attr, value = self._undo.pop()
            setattr(owner, attr, value)


def _size(value):
    return int(np.size(value))


class Tracer:
    """Records spans and counters for one traced repetition."""

    def __init__(self):
        self.names = []
        self._ids = {}
        self.spans = []  # (name_id, start, end, parent_index, size)
        self._stack = [-1]
        self.counts = defaultdict(int)
        self.patches = Patches()
        self.t0 = time.perf_counter()

    def wrap(self, name, fn, size_arg=None, after=None):
        """Wrap ``fn`` in a span; ``size_arg`` names the argument whose size to keep."""
        nid = self._ids.setdefault(name, len(self.names))
        if nid == len(self.names):
            self.names.append(name)
        spans = self.spans
        stack = self._stack
        clock = time.perf_counter

        def traced(*args, **kwargs):
            idx = len(spans)
            spans.append(None)
            parent = stack[-1]
            stack.append(idx)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                size = _size(args[size_arg]) if size_arg is not None else 0
                spans[idx] = (nid, start, end, parent, size)
            if after is not None:
                after(args, result)
            return result

        return traced

    def install(self, max_inner):
        """Wrap every layer boundary of cryostef; ``max_inner`` is the Newton budget."""
        from cryostef import cli, config, constitutive, grid, play, solve, stepper

        counts = self.counts
        p = self.patches

        def on_advance(args, result):
            report = result[1]
            counts["solve.newton.steps"] += 1
            counts["solve.newton.inner"] += report.inner_iters_total
            counts["solve.newton.outer"] += report.outer_iters
            counts["solve.newton.inner_max"] = max(counts["solve.newton.inner_max"], report.inner_iters_total)
            counts["solve.newton.budget_hit_steps"] += report.inner_iters_total >= max_inner

        def on_scalar(args, result):
            counts["stepper.scalar.newton_iters"] += result[2]

        def on_csv(args, result):
            counts["cli.csv.rows"] += len(args[2])
            counts["cli.csv.bytes"] += os.path.getsize(args[0])

        def function(module, attr, name, home=True, **kw):
            p.everywhere(module, attr, self.wrap(name, getattr(module, attr), **kw), home=home)

        def method(cls, attr, name, **kw):
            p.set(cls, attr, self.wrap(name, cls.__dict__[attr], **kw))

        function(config, "eval_expression", "config.expr")
        method(config.PiecewiseLinearSchedule, "__call__", "config.schedule")
        # constitutive calls made inside constitutive.py are not layer entries
        for attr in ("equilibrium_fraction", "fraction_derivative", "capacity_energy",
                     "capacity_derivative", "conductivity"):
            function(constitutive, attr, f"constitutive.{attr}", home=False, size_arg=0)
        function(constitutive, "calibrate_envelope", "constitutive.calibrate_envelope", home=False)
        for attr in ("upper", "lower", "gap"):
            method(constitutive.HysteresisEnvelope, attr, f"constitutive.envelope_{attr}", size_arg=1)
        function(grid, "assemble", "grid.assemble")
        method(grid.StiffnessAssembly, "matvec", "grid.matvec")
        function(solve, "thomas_solve", "solve.linear", size_arg=0)
        function(solve, "solve_step", "solve.step")
        function(stepper, "advance", "stepper.advance", after=on_advance)
        method(stepper.StepProblem, "residual", "stepper.residual")
        method(stepper.StepProblem, "jacobian", "stepper.jacobian")
        method(stepper.ScalarOdeStepper, "step", "stepper.scalar", after=on_scalar)
        function(play, "drive_play", "play.drive")
        function(play, "play_step", "play.step")
        for attr in ("simulate_pde", "simulate_ode_coupled", "convergence_study",
                     "run_ode_coupled", "run_ode_driven"):
            function(cli, attr, f"cli.{attr}")
        function(cli, "write_pde_outputs", "cli.write_pde_outputs")
        function(cli, "_write_csv", "cli.write_csv", after=on_csv)

    def uninstall(self):
        self.patches.undo()

    def self_times(self):
        child = [0.0] * len(self.spans)
        for _, start, end, parent, _ in self.spans:
            if parent >= 0:
                child[parent] += end - start
        return [end - start - child[i] for i, (_, start, end, _, _) in enumerate(self.spans)]

    def layer_metrics(self):
        """Per-layer counts and self times, keyed as in BENCHMARK.json."""
        names = self.names
        self_s = self.self_times()
        calls = defaultdict(int)
        busy = defaultdict(float)
        sizes = defaultdict(int)
        entries = 0
        elements = 0
        for i, (nid, _, _, parent, size) in enumerate(self.spans):
            name = names[nid]
            calls[name] += 1
            busy[name] += self_s[i]
            sizes[name] += size
            if name.startswith("constitutive.") and (
                parent < 0 or not names[self.spans[parent][0]].startswith("constitutive.")
            ):
                entries += 1
                elements += size

        def total(prefix):
            return sum(v for k, v in busy.items() if k.startswith(prefix))

        rows = sizes["solve.linear"]
        n_solves = calls["solve.linear"]
        c = self.counts
        steps = c["solve.newton.steps"]
        return {
            "config.expr.calls": calls["config.expr"],
            "config.expr.self_s": busy["config.expr"],
            "config.schedule.calls": calls["config.schedule"],
            "config.schedule.self_s": busy["config.schedule"],
            "constitutive.calls": entries,
            "constitutive.elements": elements,
            "constitutive.self_s": total("constitutive."),
            "grid.assemble.calls": calls["grid.assemble"],
            "grid.assemble.self_s": busy["grid.assemble"],
            "grid.matvec.calls": calls["grid.matvec"],
            "grid.matvec.self_s": busy["grid.matvec"],
            "solve.linear.calls": n_solves,
            "solve.linear.rows": rows,
            "solve.linear.self_s": busy["solve.linear"],
            # Thomas elimination on n rows: 5(n-1) forward, 3(n-1)+1 back
            "solve.linear.flops_computed": 8 * rows - 7 * n_solves,
            # minimal traffic: read diag, off, rhs once and write x once
            "solve.linear.bytes_computed": 8 * (4 * rows - n_solves),
            "solve.newton.inner": c["solve.newton.inner"],
            "solve.newton.outer": c["solve.newton.outer"],
            "solve.newton.inner_max": c["solve.newton.inner_max"],
            "solve.newton.budget_hit_steps": c["solve.newton.budget_hit_steps"],
            "solve.outer.accept_ratio": steps / c["solve.newton.outer"] if steps else 0.0,
            "solve.step.self_s": busy["solve.step"],
            "stepper.advance.calls": calls["stepper.advance"],
            "stepper.advance.self_s": busy["stepper.advance"],
            "stepper.residual.calls": calls["stepper.residual"],
            "stepper.residual.self_s": busy["stepper.residual"],
            "stepper.jacobian.calls": calls["stepper.jacobian"],
            "stepper.jacobian.self_s": busy["stepper.jacobian"],
            "stepper.scalar.steps": calls["stepper.scalar"],
            "stepper.scalar.newton_iters": c["stepper.scalar.newton_iters"],
            "stepper.scalar.self_s": busy["stepper.scalar"],
            "play.drive.self_s": busy["play.drive"],
            "play.step.calls": calls["play.step"],
            "cli.csv.rows": c["cli.csv.rows"],
            "cli.csv.bytes": c["cli.csv.bytes"],
            "cli.write.self_s": busy["cli.write_pde_outputs"] + busy["cli.write_csv"],
            "cli.run.self_s": total("cli.") - busy["cli.write_pde_outputs"] - busy["cli.write_csv"],
        }

    def write(self, path):
        """Write every span as one JSON line, times in seconds from tracer start."""
        with gzip.open(path, "wt", encoding="utf-8", compresslevel=1) as handle:
            for i, (nid, start, end, parent, size) in enumerate(self.spans):
                handle.write(json.dumps({
                    "id": i, "name": self.names[nid], "start": start - self.t0,
                    "end": end - self.t0, "parent": parent, "size": size,
                }) + "\n")
