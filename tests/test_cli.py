import csv
import io
import math
import re
import tracemalloc
import warnings
from collections import Counter
from dataclasses import fields

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from oracles import coupled_forcing

from cryostef import cli, config, play
from cryostef.cli import main
from cryostef.config import (
    PiecewiseLinearSchedule,
    RunConfig,
    eval_expression,
    load_config,
    parse_config_text,
    parse_schedule,
)
from cryostef.constitutive import calibrate_envelope, equilibrium_fraction
from cryostef.errors import ConfigError, NonConvergence
from cryostef.grid import Grid1D
from cryostef.play import drive_play
from cryostef.solve import SolverOptions
from cryostef.stepper import Closure, ScalarOdeStepper, validate_initial_fraction


def read_csv(path):
    with open(path, newline="") as handle:
        rows = list(csv.reader(handle))
    return rows[0], rows[1:]


class TestConfigParsing:
    def test_key_value_lines_and_comments(self):
        raw = parse_config_text("# comment\n M = 50 \ntau = 0.02 # trailing\n\ncloure_typo= x" .replace("cloure_typo= x", ""))
        assert raw == {"M": "50", "tau": "0.02"}

    def test_unknown_key_rejected(self):
        with pytest.raises(ConfigError):
            parse_config_text("bogus = 1")

    def test_malformed_line_rejected(self):
        with pytest.raises(ConfigError):
            parse_config_text("just some words")

    def test_duplicate_key_rejected(self):
        with pytest.raises(ConfigError):
            parse_config_text("tau = 1\ntau = 2")

    def test_schedule_breakpoints(self):
        sched = parse_schedule("(0,5),(1,5),(2,-5),(3,5)")
        assert sched(0.0) == 5.0
        assert sched(1.5) == 0.0
        assert sched(2.0) == -5.0
        assert sched(2.5) == 0.0
        # constant extrapolation beyond the ends
        assert sched(-1.0) == 5.0
        assert sched(9.0) == 5.0

    def test_schedule_constant(self):
        sched = parse_schedule("-5")
        assert sched(0.0) == -5.0 and sched(100.0) == -5.0

    def test_schedule_must_increase(self):
        with pytest.raises(ConfigError):
            parse_schedule("(0,1),(0,2)")

    def test_reference_boundary_schedule_matches_piecewise_form(self):
        sched = PiecewiseLinearSchedule(((0.0, 5.0), (1.0, 5.0), (2.0, -5.0), (3.0, 5.0)))

        def reference(t):
            if t <= 1.0:
                return 5.0
            if t <= 2.0:
                return -10.0 * (t - 1.0) + 5.0
            return 10.0 * (t - 2.0) - 5.0

        for t in np.linspace(0.0, 3.0, 301):
            assert sched(t) == pytest.approx(reference(t), abs=1e-12)

    def test_load_config_defaults_and_file(self, tmp_path):
        path = tmp_path / "run.cfg"
        path.write_text("closure = neq\nrate = 10\nM = 25\nbc_right = -2\n")
        cfg = load_config(path, "pde")
        assert cfg.closure == "neq" and cfg.rate == 10.0 and cfg.M == 25
        assert cfg.bc_right(0.0) == -2.0
        assert cfg.tau == 0.01 and cfg.T == 3.0  # defaults untouched

    def test_mode_mismatch_rejected(self, tmp_path):
        path = tmp_path / "run.cfg"
        path.write_text("mode = pde\n")
        with pytest.raises(ConfigError):
            load_config(path, "calibrate")

    def test_validation_errors(self, tmp_path):
        path = tmp_path / "run.cfg"
        path.write_text("tau = -1\n")
        with pytest.raises(ConfigError):
            load_config(path, "pde")
        path.write_text("M = 1\n")
        with pytest.raises(ConfigError):
            load_config(path, "pde")
        path.write_text("taus = 0.1,0.03\ntau_fine = 0.02\n")
        with pytest.raises(ConfigError):
            load_config(path, "convergence")

    def test_expression_evaluation(self):
        assert eval_expression("exp(-0.5)") == pytest.approx(math.exp(-0.5))
        assert eval_expression("(16 if t < 1 else 4)*cos(pi*t)", t=2.0) == pytest.approx(4.0)
        x = np.linspace(0, 1, 5)
        assert np.allclose(eval_expression("-5 + 2*sin(pi*x)", x=x), -5 + 2 * np.sin(np.pi * x))
        with pytest.raises(ConfigError):
            eval_expression("__import__('os')")

    def test_malformed_expression_rejected_at_load(self, tmp_path):
        path = tmp_path / "run.cfg"
        for key in ("u_init", "chi_init", "source", "forcing", "drive"):
            path.write_text(f"{key} = sin(pi*x\n")
            with pytest.raises(ConfigError, match="cannot parse expression"):
                load_config(path, "pde")

    def test_expression_leading_blanks_accepted(self):
        # eval() of a string strips leading spaces and tabs; keep that
        assert eval_expression(" \t2*t", t=1.5) == 3.0

    @pytest.mark.parametrize(
        "expr, what",
        [
            ("().__class__.__mro__[1].__subclasses__() and -5", "Attribute"),
            ("x[0]", "Subscript"),
            ("(lambda: 1)()", "Lambda"),
            ("sum([v for v in x])", "ListComp"),
            ("(y := 2)", "NamedExpr"),
            ("maximum(*x)", "Starred"),
            ("maximum(x, 0, out=x)", "keyword out=x"),
            ("(1, 2)", "Tuple"),
            ("len('abc')", "Constant 'abc'"),
            ("_x + 1", "Name _x"),
            ("__import__('os')", "Name __import__"),
        ],
    )
    def test_expression_outside_whitelist_rejected_at_load(self, tmp_path, expr, what):
        path = tmp_path / "run.cfg"
        for key in ("u_init", "chi_init", "source", "forcing", "drive"):
            path.write_text(f"{key} = {expr}\n")
            with pytest.raises(ConfigError, match=re.escape(f"may not use {what}")):
                load_config(path, "pde")

    def test_escape_expression_exits_2_before_any_step(self, tmp_path, capsys):
        path = tmp_path / "run.cfg"
        path.write_text("u_init = ().__class__.__mro__[1].__subclasses__() and -5\n")
        assert main(["pde", "--config", str(path), "--out", str(tmp_path / "out")]) == 2
        assert "may not use Attribute" in capsys.readouterr().err
        assert not (tmp_path / "out").exists()

    def test_documented_expressions_load(self, tmp_path):
        # the defaults, the README's forms and the benchmark's forcing
        path = tmp_path / "run.cfg"
        for expr in (
            "auto",
            "-5",
            "exp(-0.5)",
            "F(u0) + 0.1",
            "F(u0) if x < 0.5 else 1.0",
            "-5 + 2*sin(pi*x)",
            "0.1*sin(pi*x)*exp(-t)",
            "(16 if t < 1 else 4)*cos(pi*t)",
            "16.0*cos(pi*t) - 15.0 if t < 1.0 else 4.0*cos(pi*t) + (4.0*t - 30.0)",
            "where(x < 0.5, maximum(x, 0.1), -abs(t)) ** 2 // 1 % 3",
            "not x < 1 and t >= 2 or x == 3",
        ):
            path.write_text(f"chi_init = {expr}\nsource = {expr}\n")
            load_config(path, "pde")

    def test_every_run_config_field_is_a_key(self, tmp_path):
        # each field but mode, written as text, loads back to its default
        def as_text(value):
            if isinstance(value, PiecewiseLinearSchedule):
                return ",".join(f"({t!r},{v!r})" for t, v in value.breakpoints)
            if isinstance(value, tuple):
                return ",".join(repr(v) for v in value)
            return str(value)

        defaults = load_config(None, "pde")
        path = tmp_path / "all.cfg"
        path.write_text("".join(
            f"{f.name} = {as_text(getattr(defaults, f.name))}\n"
            for f in fields(RunConfig)
            if f.name != "mode"
        ))
        assert len(parse_config_text(path.read_text())) == len(fields(RunConfig)) - 1
        assert load_config(path, "pde") == defaults

    @pytest.mark.parametrize(
        "mode, text, key",
        [
            ("pde", "c_u = 0", "c_u"),
            ("pde", "k_f = -1", "k_f"),
            ("pde", "b = 0", "b"),
            ("pde", "closure = neq\nrate = 0", "rate"),
            ("pde", "closure = hyst\nb_bar = 0", "b_bar"),
            ("pde", "closure = hyst\ntheta0 = 1", "theta0"),
            ("ode-coupled", "closure = neq\nrate = -2", "rate"),
            ("convergence", "b_bar = 0", "b_bar"),
            ("ode-driven", "theta0 = 0", "theta0"),
            ("calibrate", "b = -1", "b"),
            ("ode-coupled", "a_coef = -100", "a_coef"),
            ("convergence", "a_coef = -1e-3", "a_coef"),
        ],
    )
    def test_law_keys_checked_at_load(self, tmp_path, mode, text, key):
        path = tmp_path / "run.cfg"
        path.write_text(text + "\n")
        with pytest.raises(ConfigError, match=f"key '{key}' must be"):
            load_config(path, mode)

    @pytest.mark.parametrize(
        "mode, text",
        [
            ("ode-coupled", "c_u = 0\nk_f = 0"),  # one point with c(u) = u, no conductivity
            ("ode-coupled", "closure = eq\nrate = 0\nb_bar = 0\ntheta0 = 1"),
            ("pde", "closure = eq\nrate = 0"),
            ("calibrate", "closure = neq\nrate = 0"),  # calibrate reads no closure
            ("pde", "a_coef = -1"),  # the scalar system's stiffness
            ("ode-coupled", "a_coef = 0"),
        ],
    )
    def test_keys_the_mode_does_not_read_load(self, tmp_path, mode, text):
        path = tmp_path / "run.cfg"
        path.write_text(text + "\n")
        load_config(path, mode)

    def test_malformed_numbers_keep_their_messages(self, tmp_path):
        path = tmp_path / "run.cfg"
        for line, message in (
            ("M = 2.5", "key 'M': expected an integer, got '2.5'"),
            ("tau = fast", "key 'tau': expected a number, got 'fast'"),
        ):
            path.write_text(line + "\n")
            with pytest.raises(ConfigError) as info:
                load_config(path, "pde")
            assert str(info.value) == message


class TestCalibrateMode:
    def test_prints_constants_and_writes_envelope(self, tmp_path, capsys):
        cfg = tmp_path / "cal.cfg"
        cfg.write_text("b = 0.7\nb_bar = 0.1\ntheta0 = -5\n")
        code = main(["calibrate", "--config", str(cfg), "--out", str(tmp_path)])
        assert code == 0
        out = capsys.readouterr().out
        assert "a = 9.5795" in out
        assert "C = -8.5795" in out
        assert "D = -0.5598" in out or "D = -0.5599" in out
        header, rows = read_csv(tmp_path / "envelope.csv")
        assert header == ["theta", "F", "G"]
        assert len(rows) == 1000
        thetas = np.array([float(r[0]) for r in rows])
        assert thetas[0] == pytest.approx(-7.0) and thetas[-1] == pytest.approx(2.0)
        f_vals = np.array([float(r[1]) for r in rows])
        g_vals = np.array([float(r[2]) for r in rows])
        assert np.all(g_vals >= f_vals - 1e-12)

    def test_two_condition_case(self, tmp_path, capsys):
        cfg = tmp_path / "cal.cfg"
        cfg.write_text("b = 0.5\nb_bar = 0.75\ntheta0 = -5\nenvelope = two-condition\n")
        assert main(["calibrate", "--config", str(cfg), "--out", str(tmp_path)]) == 0
        out = capsys.readouterr().out
        assert "a = 2.3269" in out
        assert "C = 0.0274" in out


class TestOdeDrivenMode:
    def test_reference_row_count_and_containment(self, tmp_path):
        code = main(["ode-driven", "--out", str(tmp_path)])
        assert code == 0
        header, rows = read_csv(tmp_path / "trajectory.csv")
        assert header == ["t", "u", "chi"]
        assert len(rows) == 800
        env = calibrate_envelope(1.0, 0.01, -5.0)

        def schedule(t):
            h = 8.0 if t < 4.0 else 4.0
            g = -2.0 if t < 4.0 else t / 2.0 - 8.0
            return h * math.cos(math.pi * t / 4.0) + g

        u_prev = schedule(0.0)
        for row in rows:
            t, u, chi = map(float, row)
            beta = max(float(env.upper(u_prev)) - float(env.lower(u_prev)), 0.0)
            f_u = float(env.lower(u))
            assert f_u - 1e-12 <= chi <= f_u + beta + 1e-12
            u_prev = u

    def test_constant_drive_constant_fraction(self, tmp_path):
        cfg = tmp_path / "drive.cfg"
        cfg.write_text("drive = -3.0\ntau = 0.1\nT = 2\n")
        assert main(["ode-driven", "--config", str(cfg), "--out", str(tmp_path)]) == 0
        _, rows = read_csv(tmp_path / "trajectory.csv")
        chis = {row[2] for row in rows}
        assert len(chis) == 1
        assert float(rows[0][2]) == pytest.approx(math.exp(-3.0), abs=1e-12)

    def test_two_condition_envelope_variant(self, tmp_path):
        cfg = tmp_path / "drive.cfg"
        cfg.write_text("b = 0.5\nb_bar = 0.75\ntheta0 = -5\nenvelope = two-condition\n")
        assert main(["ode-driven", "--config", str(cfg), "--out", str(tmp_path)]) == 0
        _, rows = read_csv(tmp_path / "trajectory.csv")
        assert len(rows) == 800
        env = calibrate_envelope(0.5, 0.75, -5.0, "two-condition")

        def schedule(t):
            h = 8.0 if t < 4.0 else 4.0
            g = -2.0 if t < 4.0 else t / 2.0 - 8.0
            return h * math.cos(math.pi * t / 4.0) + g

        u_prev = schedule(0.0)
        for row in rows:
            t, u, chi = map(float, row)
            beta = max(float(env.upper(u_prev)) - float(env.lower(u_prev)), 0.0)
            f_u = float(env.lower(u))
            assert f_u - 1e-12 <= chi <= f_u + beta + 1e-12
            u_prev = u


class TestOdeCoupledMode:
    def test_stationary_run(self, tmp_path):
        cfg = tmp_path / "ode.cfg"
        cfg.write_text("forcing = 0\nu_init = 0\nchi_init = 1\ntau = 0.1\nT = 10\na_coef = 0\n")
        assert main(["ode-coupled", "--config", str(cfg), "--out", str(tmp_path)]) == 0
        _, rows = read_csv(tmp_path / "trajectory.csv")
        assert len(rows) == 100
        for row in rows:
            assert abs(float(row[1])) <= 1e-10
            assert abs(float(row[2]) - 1.0) <= 1e-10

    def test_reference_run_stays_in_envelope(self, tmp_path):
        with pytest.warns(RuntimeWarning):
            code = main(["ode-coupled", "--out", str(tmp_path)])
        assert code == 0
        header, rows = read_csv(tmp_path / "trajectory.csv")
        assert header == ["t", "u", "chi"]
        assert len(rows) == 1000
        env = calibrate_envelope(1.0, 0.1, -5.0)
        u_prev = -0.2
        for row in rows:
            t, u, chi = map(float, row)
            beta = max(float(env.upper(u_prev)) - float(env.lower(u_prev)), 0.0)
            f_u = float(env.lower(u))
            assert f_u - 1e-12 <= chi <= f_u + beta + 1e-12
            u_prev = u

    def test_strict_init_exits_4(self, tmp_path):
        assert main(["ode-coupled", "--out", str(tmp_path), "--strict-init"]) == 4

    @pytest.mark.parametrize("mode", ["ode-coupled", "convergence"])
    def test_negative_stiffness_exits_2_before_any_step(self, tmp_path, capsys, mode):
        # this start makes the first Newton slope 1 + dchi + tau*a exactly zero
        cfg = tmp_path / "ode.cfg"
        cfg.write_text("a_coef = -100\ntau = 0.01\nu_init = 1\nclosure = eq\n")
        assert main([mode, "--config", str(cfg), "--out", str(tmp_path / "out")]) == 2
        assert "key 'a_coef' must be non-negative" in capsys.readouterr().err
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize(
        ("forcing", "message"),
        [
            ("(t - 1.5) ** 0.5", "is not real"),  # complex before t = 1.5
            ("1/(t - 1)", "division by zero"),  # singular at step 100, t = 1.0
            ("10.0 ** (400*t)", "out of range"),  # overflows a float
        ],
    )
    def test_forcing_without_a_real_value_exits_2(self, tmp_path, capsys, forcing, message):
        # t is a Python float, so these raise instead of giving nan or inf
        cfg = tmp_path / "ode.cfg"
        cfg.write_text(f"forcing = {forcing}\nclosure = eq\n")
        assert main(["ode-coupled", "--config", str(cfg), "--out", str(tmp_path / "out")]) == 2
        err = capsys.readouterr().err
        assert err.startswith("config error: ") and message in err, err
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("closure", ["eq", "neq", "hyst"])
    @pytest.mark.parametrize("forcing", ["auto", "16*cos(pi*t) - 15 if t < 1 else 4*t - 30"])
    def test_scalar_loop_carries_plain_floats(self, monkeypatch, tmp_path, closure, forcing):
        # a numpy scalar anywhere in the loop would make every Newton iterate slower
        seen = []
        step = cli.ScalarOdeStepper.step

        def spy(self, *args):
            result = step(self, *args)
            seen.append((args, result))
            return result

        monkeypatch.setattr(cli.ScalarOdeStepper, "step", spy)
        path = tmp_path / "ode.cfg"
        path.write_text(f"closure = {closure}\nforcing = {forcing}\nT = 2\n")
        cfg = load_config(path, "ode-coupled")
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")  # the default start is clamped into the envelope
            cli.simulate_ode_coupled(cfg, SolverOptions())
        assert len(seen) == 200
        for args, (u, chi, iterations, residual) in seen:
            assert all(type(x) is float for x in (*args, u, chi, residual)), args
            assert type(iterations) is int

    def test_conditional_initial_data_at_the_single_point(self, tmp_path):
        # u_init and chi_init are read at x = 0, so a conditional works; c_u is
        # a pde material key this mode never reads
        plain = tmp_path / "plain.cfg"
        plain.write_text("u_init = -0.2\nchi_init = F(u0)\nT = 1\n")
        conditional = tmp_path / "conditional.cfg"
        conditional.write_text(
            "u_init = -0.2 if x < 0.5 else 0.1\nchi_init = F(u0) if x < 0.5 else 1.0\n"
            "c_u = 0\nT = 1\n"
        )
        with warnings.catch_warnings():
            warnings.simplefilter("error")  # F(u0) is admissible: nothing is clamped
            for cfg, sub in ((plain, "a"), (conditional, "b")):
                assert main(["ode-coupled", "--config", str(cfg), "--out", str(tmp_path / sub)]) == 0
        a = (tmp_path / "a" / "trajectory.csv").read_bytes()
        assert a == (tmp_path / "b" / "trajectory.csv").read_bytes()

        # over the cell centers of pde mode the same conditional is ambiguous
        pde_cfg = tmp_path / "pde.cfg"
        pde_cfg.write_text("u_init = -0.2 if x < 0.5 else 0.1\n")
        assert main(["pde", "--config", str(pde_cfg), "--out", str(tmp_path / "c")]) == 2


class TestConvergenceMode:
    def test_orders_csv_schema_and_halving(self, tmp_path):
        # auxiliary tau=0.05 run: halving the step should halve the errors
        cfg = tmp_path / "conv.cfg"
        cfg.write_text("taus = 0.1,0.05\n")
        with pytest.warns(RuntimeWarning):
            code = main(["convergence", "--config", str(cfg), "--out", str(tmp_path)])
        assert code == 0
        header, rows = read_csv(tmp_path / "orders.csv")
        assert header == ["tau", "err_l1", "err_l2", "err_inf", "order_l1", "order_l2", "order_inf"]
        assert len(rows) == 2
        assert rows[0][4] == ""  # no order for the first step size
        for col in (1, 2, 3):
            ratio = float(rows[0][col]) / float(rows[1][col])
            assert 1.7 <= ratio <= 2.3

    def test_indivisible_fine_step_rejected(self, tmp_path):
        cfg = tmp_path / "conv.cfg"
        cfg.write_text("taus = 0.1\ntau_fine = 0.03\n")
        assert main(["convergence", "--config", str(cfg), "--out", str(tmp_path)]) == 2


class TestPdeMode:
    def write_small_config(self, path, closure="eq", extra=""):
        path.write_text(
            f"closure = {closure}\nM = 10\ntau = 0.01\nT = 0.3\nout_times = 0.1,0.2,0.3\n{extra}"
        )

    def test_outputs_and_schemas(self, tmp_path, capsys):
        cfg = tmp_path / "pde.cfg"
        self.write_small_config(cfg)
        code = main(["pde", "--config", str(cfg), "--out", str(tmp_path)])
        assert code == 0
        assert "contraction diagnostics" in capsys.readouterr().out

        header, rows = read_csv(tmp_path / "snapshots.csv")
        assert header == ["t", "x", "u", "chi"]
        assert len(rows) == 3 * 10

        header, rows = read_csv(tmp_path / "phase.csv")
        assert header == ["t", "x", "u", "chi"]
        assert len(rows) == 31 * 10  # initial state plus 30 steps

        header, iter_rows = read_csv(tmp_path / "iterations.csv")
        assert header == ["step", "t", "outer", "inner_total", "residual"]
        assert len(iter_rows) == 30
        assert all(float(r[4]) <= 1e-8 for r in iter_rows)

        header, summary = read_csv(tmp_path / "summary.csv")
        assert header == ["n_min", "n_max", "n_ave"]
        counts = [int(r[3]) for r in iter_rows]
        assert int(summary[0][0]) == min(counts)
        assert int(summary[0][1]) == max(counts)
        assert float(summary[0][2]) == pytest.approx(sum(counts) / len(counts), abs=1e-12)

    def test_floats_roundtrip_17_digits(self, tmp_path):
        cfg = tmp_path / "pde.cfg"
        self.write_small_config(cfg)
        main(["pde", "--config", str(cfg), "--out", str(tmp_path)])
        with open(tmp_path / "phase.csv") as handle:
            next(handle)
            for line in handle:
                cells = line.strip().split(",")
                for cell in cells:
                    value = float(cell)
                    assert f"{value:.17g}" == cell

    def test_eq_phase_scatter_on_curve(self, tmp_path):
        cfg = tmp_path / "pde.cfg"
        self.write_small_config(cfg)
        main(["pde", "--config", str(cfg), "--out", str(tmp_path)])
        _, rows = read_csv(tmp_path / "phase.csv")
        u = np.array([float(r[2]) for r in rows])
        chi = np.array([float(r[3]) for r in rows])
        assert np.max(np.abs(chi - np.asarray(equilibrium_fraction(u, 1.0)))) <= 1e-8

    def test_spatial_expressions_for_initial_state_and_source(self, tmp_path):
        cfg = tmp_path / "pde.cfg"
        self.write_small_config(
            cfg,
            extra=(
                "u_init = -5 + 2*sin(pi*x)\nsource = 0.1*sin(pi*x)*exp(-t)\n"
                "bc_left = -4\nbc_right = -4\n"  # gentle data; parsing is the point here
            ),
        )
        assert main(["pde", "--config", str(cfg), "--out", str(tmp_path)]) == 0
        _, rows = read_csv(tmp_path / "phase.csv")
        first = [r for r in rows if float(r[0]) == 0.0]
        x = np.array([float(r[1]) for r in first])
        u0 = np.array([float(r[2]) for r in first])
        assert np.allclose(u0, -5 + 2 * np.sin(np.pi * x), atol=1e-14)

    def test_deterministic_outputs(self, tmp_path):
        cfg = tmp_path / "pde.cfg"
        self.write_small_config(cfg, closure="hyst", extra="chi_init = F(u0) + 0.1\n")
        for sub in ("a", "b"):
            with pytest.warns(RuntimeWarning):
                assert main(["pde", "--config", str(cfg), "--out", str(tmp_path / sub)]) == 0
        for name in ("snapshots.csv", "phase.csv", "iterations.csv", "summary.csv"):
            with open(tmp_path / "a" / name, "rb") as fa, open(tmp_path / "b" / name, "rb") as fb:
                assert fa.read() == fb.read()

    def test_nonconvergence_exits_3(self, tmp_path):
        cfg = tmp_path / "pde.cfg"
        self.write_small_config(cfg)
        assert main(["pde", "--config", str(cfg), "--out", str(tmp_path), "--max-iter", "1"]) == 3

    def test_config_error_exits_2(self, tmp_path):
        cfg = tmp_path / "pde.cfg"
        cfg.write_text("nonsense = 1\n")
        assert main(["pde", "--config", str(cfg), "--out", str(tmp_path)]) == 2

    @pytest.mark.parametrize("closure, extra", [("eq", "c_u = 0\n"), ("neq", "rate = 0\n")])
    def test_bad_law_key_exits_2_before_any_step(self, tmp_path, capsys, closure, extra):
        cfg = tmp_path / "pde.cfg"
        self.write_small_config(cfg, closure=closure, extra=extra)
        assert main(["pde", "--config", str(cfg), "--out", str(tmp_path / "out")]) == 2
        assert "must be positive" in capsys.readouterr().err
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize(
        "text, key",
        [
            ("tau = nan", "tau"),
            ("T = inf", "T"),
            ("out_times = 0.01,nan", "out_times"),
            ("b = inf", "b"),
            ("c_u = inf", "c_u"),
            ("k_u = inf", "k_u"),
            ("closure = hyst\nb_bar = inf", "b_bar"),
            ("closure = hyst\ntheta0 = -inf", "theta0"),
            ("bc_left = nan", "bc_left"),
            ("bc_right = (0,-5),(nan,1)", "bc_right"),
            ("closure = neq\nrate = inf", "rate"),
        ],
    )
    def test_non_finite_number_exits_2_before_any_step(self, tmp_path, capsys, text, key):
        cfg = tmp_path / "pde.cfg"
        cfg.write_text(text + "\n")
        assert main(["pde", "--config", str(cfg), "--out", str(tmp_path / "out")]) == 2
        assert f"key '{key}' must be finite" in capsys.readouterr().err
        assert not (tmp_path / "out").exists()

    def test_malformed_source_exits_2_before_any_step(self, tmp_path):
        cfg = tmp_path / "pde.cfg"
        self.write_small_config(cfg, extra="source = 1 +\n")
        assert main(["pde", "--config", str(cfg), "--out", str(tmp_path / "out")]) == 2
        assert not (tmp_path / "out").exists()

    def test_strict_init_exits_4(self, tmp_path):
        cfg = tmp_path / "pde.cfg"
        self.write_small_config(cfg, closure="hyst", extra="chi_init = F(u0) + 0.1\n")
        code = main(["pde", "--config", str(cfg), "--out", str(tmp_path), "--strict-init"])
        assert code == 4


class TestExpressionNamespace:
    # every call evaluates over one shared math namespace, with the caller's
    # names as its locals

    def test_bound_name_does_not_leak_into_the_next_call(self):
        assert eval_expression("2*x", x=1.5) == 3.0
        with pytest.raises(ConfigError, match="name 'x' is not defined"):
            eval_expression("2*x")

    def test_unbound_name_fails_on_every_call(self):
        forcing = cli._time_expr_fn("x + t", None)
        for t in (0.0, 0.5, 0.0):
            with pytest.raises(ConfigError, match="name 'x' is not defined"):
                forcing(t)

    def test_bound_name_shadows_a_math_name(self):
        assert eval_expression("pi", pi=3.0) == 3.0
        assert eval_expression("exp(t)", t=1.0, exp=lambda v: 7.0 * v) == 7.0
        assert eval_expression("pi") == math.pi
        assert eval_expression("exp(t)", t=1.0) == np.exp(1.0)

    def test_full_runs_leave_the_namespace_unchanged(self, tmp_path):
        before = dict(config._EXPR_GLOBALS)
        runs = {
            "pde": "M = 10\nT = 0.1\nclosure = hyst\nu_init = -5 + x\n"
            "chi_init = F(u0)\nsource = 0.1*x*t\n",
            "ode-coupled": "T = 0.5\nchi_init = F(u0)\nforcing = (16 if t < 1 else 4)*cos(pi*t)\n",
            "ode-driven": "T = 1\ndrive = 8*cos(pi*t/4) - 2\n",
        }
        for mode, text in runs.items():
            path = tmp_path / f"{mode}.cfg"
            path.write_text(text)
            assert main([mode, "--config", str(path), "--out", str(tmp_path / mode)]) == 0
        assert config._EXPR_GLOBALS == before
        assert config._EXPR_GLOBALS["__builtins__"] == {}

    @pytest.mark.parametrize("expr", ["open(x)", "print(x)", "len(x)", "globals()", "eval(x)"])
    def test_builtins_stay_unreachable(self, expr):
        with pytest.raises(ConfigError, match="is not defined"):
            eval_expression(expr, x=np.zeros(2))

    def test_import_is_unreachable_even_past_the_whitelist(self):
        with pytest.raises(ConfigError, match="may not use Name __import__"):
            eval_expression("__import__('os')")
        # the evaluation namespace alone has no builtins to reach it with
        code = compile("__import__('os')", "<config>", "eval")
        with pytest.raises(NameError, match="__import__"):
            eval(code, config._EXPR_GLOBALS, {})


class TestStepInputsSampledOnce:
    def test_pde_keeps_what_advance_sampled(self, monkeypatch):
        # each step samples both boundary schedules and the source once, in
        # advance; the run keeps those values and the diagnostics reuse them
        schedule_calls = Counter()
        expr_calls = Counter()
        schedule = PiecewiseLinearSchedule.__call__
        evaluate = cli.eval_expression

        def counting_schedule(self, t):
            schedule_calls[id(self)] += 1
            return schedule(self, t)

        def counting_eval(expr, **names):
            expr_calls[expr] += 1
            return evaluate(expr, **names)

        monkeypatch.setattr(PiecewiseLinearSchedule, "__call__", counting_schedule)
        monkeypatch.setattr(cli, "eval_expression", counting_eval)
        cfg = load_config(None, "pde", overrides={"M": 10, "T": 0.3, "source": "0.1*x*t"})
        run = cli.simulate_pde(cfg, SolverOptions())
        n = len(run.reports)
        assert n == 30
        assert schedule_calls == {id(cfg.bc_left): n, id(cfg.bc_right): n}
        assert expr_calls == {cfg.u_init: 1, cfg.source: n}

        schedule_calls.clear()
        expr_calls.clear()
        cli._pde_diagnostics(run)
        assert not schedule_calls and not expr_calls
        monkeypatch.undo()

        assert len(run.sources) == len(run.bcs) == n
        x = run.grid.centers
        for state, source, bc in zip(run.states[1:], run.sources, run.bcs):
            assert bc == (cfg.bc_left(state.t), cfg.bc_right(state.t))
            assert np.array_equal(source, eval_expression(cfg.source, x=x, t=state.t))


class TestOneKernelCallPerStep:
    # the benchmark stamps every scalar step through these two calls, and
    # swaps ScalarOdeStepper.step for its stamping wrapper after the first one

    def test_coupled_steps_call_the_class_attribute_each_step(self, monkeypatch):
        calls = Counter()
        step = ScalarOdeStepper.step

        def later(self, *args):
            calls["later"] += 1
            return step(self, *args)

        def first(self, *args):
            calls["first"] += 1
            monkeypatch.setattr(ScalarOdeStepper, "step", later)
            return step(self, *args)

        monkeypatch.setattr(ScalarOdeStepper, "step", first)
        cfg = load_config(None, "ode-coupled", overrides={"T": 0.5, "chi_init": "auto"})
        times, _, _ = cli.simulate_ode_coupled(cfg, SolverOptions())
        assert len(times) == 51
        assert calls == {"first": 1, "later": 49}

    def test_driven_steps_call_play_step_each_step(self, monkeypatch, tmp_path):
        calls = []
        play_step = play.play_step

        def counting(*args):
            calls.append(args)
            return play_step(*args)

        monkeypatch.setattr(play, "play_step", counting)
        cfg = load_config(None, "ode-driven", overrides={"T": 3.0})
        rows = cli.run_ode_driven(cfg, SolverOptions(), tmp_path)
        assert len(rows) == len(calls) == 80


def _record_forcing(monkeypatch):
    # the forcing value handed to every scalar step, in step order
    seen = []
    step = ScalarOdeStepper.step

    def recording(self, u_prev, chi_prev, tau, f_value):
        seen.append(f_value)
        return step(self, u_prev, chi_prev, tau, f_value)

    monkeypatch.setattr(ScalarOdeStepper, "step", recording)
    return seen


def _assert_forcing_is_the_oracle(seen, tau, n_steps):
    # a float with the bits of the scalar oracle at every step time n*tau
    assert len(seen) == n_steps
    assert all(type(value) is float for value in seen)
    expected = [coupled_forcing(n * tau) for n in range(1, n_steps + 1)]
    assert np.array_equal(np.array(seen).view(np.int64), np.array(expected).view(np.int64))


class TestForcingBlocks:
    # the built-in forcing is sampled a block of steps at a time; every step
    # must still see the scalar forcing's bits at its own time

    def test_default_coupled_run(self, monkeypatch):
        seen = _record_forcing(monkeypatch)
        cfg = load_config(None, "ode-coupled")
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", RuntimeWarning)
            times, _, _ = cli.simulate_ode_coupled(cfg, SolverOptions())
        _assert_forcing_is_the_oracle(seen, cfg.tau, len(times) - 1)

    @pytest.mark.parametrize("tau", [0.1, 0.01, 0.001, 1e-4, 3e-4, 3.7e-4])
    def test_sweep_steps(self, monkeypatch, tau):
        # the default sweep's steps and fine step, and two steps off its grid
        cfg = load_config(None, "convergence")
        seen = _record_forcing(monkeypatch)
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", RuntimeWarning)
            times, _, _ = cli.simulate_ode_coupled(cfg, SolverOptions(), tau=tau)
        _assert_forcing_is_the_oracle(seen, tau, len(times) - 1)

    @settings(derandomize=True, max_examples=25, deadline=None)
    @given(
        tau=st.floats(1e-4, 0.05),
        n_steps=st.integers(1, 2600).filter(lambda n: n % cli._FORCING_BLOCK_STEPS),
    )
    def test_drawn_runs_whose_last_block_is_partial(self, tau, n_steps):
        with pytest.MonkeyPatch.context() as monkeypatch:
            seen = _record_forcing(monkeypatch)
            cfg = load_config(
                None, "ode-coupled", overrides={"tau": tau, "T": n_steps * tau, "chi_init": "auto"}
            )
            times, _, _ = cli.simulate_ode_coupled(cfg, SolverOptions())
        assert len(times) == n_steps + 1
        _assert_forcing_is_the_oracle(seen, tau, n_steps)

    def test_expression_is_evaluated_step_by_step(self, monkeypatch):
        # nothing is evaluated ahead of its step: a forcing that fails at
        # t = 0.5 fails after the steps before it, and a solver failure at
        # step 1 wins over it
        seen = _record_forcing(monkeypatch)
        forcing = "1.0 if t < 0.5 else undefined_name"
        cfg = load_config(
            None, "ode-coupled", overrides={"tau": 0.01, "forcing": forcing, "chi_init": "auto"}
        )
        with pytest.raises(ConfigError, match="undefined_name"):
            cli.simulate_ode_coupled(cfg, SolverOptions())
        assert seen == [1.0] * 49
        with pytest.raises(NonConvergence) as info:
            cli.simulate_ode_coupled(cfg, SolverOptions(max_inner=1))
        assert (info.value.step, info.value.t) == (1, 0.01)

    def test_memory_stays_within_the_returned_arrays(self):
        # the three returned arrays plus one array of headroom: a full-length
        # list of forcing values, or a full-length temporary, breaks this
        overrides = {"tau": 1e-4, "T": 10.0, "chi_init": "auto"}
        cfg = load_config(None, "ode-coupled", overrides=overrides)
        tracemalloc.start()
        try:
            start = tracemalloc.get_traced_memory()[0]
            times, _, _ = cli.simulate_ode_coupled(cfg, SolverOptions())
            peak = tracemalloc.get_traced_memory()[1] - start
        finally:
            tracemalloc.stop()
        n = len(times) - 1
        assert n == 100_000
        assert peak < 4 * 8 * (n + 1)

    def test_nonconvergence_message(self, tmp_path, capsys):
        out = tmp_path / "out"
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", RuntimeWarning)
            code = main(["ode-coupled", "--max-iter", "1", "--out", str(out)])
        assert code == 3
        assert capsys.readouterr().err == (
            "solver failed to converge at step 1 (t=0.01): "
            "scalar step stalled at residual 1.230e-05\n"
        )
        assert not out.exists()


class TestModeFlags:
    @pytest.mark.parametrize(
        "argv",
        [
            ["ode-coupled", "--solver", "fixed-point"],
            ["calibrate", "--tol", "1e-9"],
            ["calibrate", "--strict-init"],
            ["ode-driven", "--max-iter", "5"],
            ["convergence", "--solver", "fixed-point"],
        ],
    )
    def test_flag_the_mode_does_not_read_exits_2(self, argv, tmp_path):
        with pytest.raises(SystemExit) as info:
            main(argv + ["--out", str(tmp_path / "out")])
        assert info.value.code == 2
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize(
        "argv",
        [
            ["pde", "--tol", "0"],
            ["pde", "--tol", "-0.5"],
            ["pde", "--tol", "nan"],
            ["pde", "--max-iter", "0"],
            ["ode-coupled", "--max-iter", "-3"],
            ["convergence", "--tol", "0"],
        ],
    )
    def test_nonpositive_solver_flag_exits_2(self, argv, tmp_path, capsys):
        with pytest.raises(SystemExit) as info:
            main(argv + ["--out", str(tmp_path / "out")])
        assert info.value.code == 2
        assert f"argument {argv[1]}: must be positive" in capsys.readouterr().err
        assert not (tmp_path / "out").exists()


    @pytest.mark.parametrize(
        "mode, runner",
        [
            ("pde", "run_pde"),
            ("ode-coupled", "run_ode_coupled"),
            ("ode-driven", "run_ode_driven"),
            ("convergence", "convergence_study"),
        ],
    )
    def test_no_solver_flags_give_default_options(self, monkeypatch, tmp_path, mode, runner):
        seen = []
        monkeypatch.setattr(cli, runner, lambda cfg, opts, out_dir, **kw: seen.append(opts))
        assert main([mode, "--out", str(tmp_path)]) == 0
        assert seen == [SolverOptions()]


class TestInitialFractionMessages:
    # the one initial-fraction rule names the value, its interval and its
    # temperature in every mode, and for a grid the cell furthest outside

    def pde_case(self, tmp_path):
        cfg = tmp_path / "pde.cfg"
        cfg.write_text("closure = hyst\nM = 10\ntau = 0.01\nT = 0.02\nchi_init = F(u0) + 0.3*x\n")
        lo = float(equilibrium_fraction(-5.0, 1.0))  # the envelope closes at theta0 = -5
        chi = lo + 0.3 * Grid1D(10).centers[9]
        detail = (
            f"its envelope [{lo}, {lo}] at u=-5.0 in cell 9, the worst of 10 of 10 cells outside"
        )
        return "pde", cfg, chi, detail

    def driven_case(self, tmp_path):
        cfg = tmp_path / "drive.cfg"
        cfg.write_text("drive = 6 - t\ntau = 0.1\nT = 1\nchi_init = 0.25\n")
        # the envelope is closed above freezing: both curves are 1 at u = 6
        return "ode-driven", cfg, 0.25, "its envelope [1.0, 1.0] at u=6.0"

    @pytest.mark.parametrize("case", ["pde_case", "driven_case"])
    def test_warn_start_names_the_value_and_its_envelope(self, tmp_path, case):
        mode, cfg, chi, detail = getattr(self, case)(tmp_path)
        message = f"initial fraction {chi} clamped into {detail}"
        with pytest.warns(RuntimeWarning, match=f"^{re.escape(message)}$"):
            assert main([mode, "--config", str(cfg), "--out", str(tmp_path / "out")]) == 0

    @pytest.mark.parametrize("case", ["pde_case", "driven_case"])
    def test_strict_start_names_the_value_and_its_envelope(self, tmp_path, capsys, case):
        mode, cfg, chi, detail = getattr(self, case)(tmp_path)
        argv = [mode, "--config", str(cfg), "--out", str(tmp_path / "out"), "--strict-init"]
        assert main(argv) == 4
        err = capsys.readouterr().err
        assert err == f"infeasible initial data: initial fraction {chi} outside {detail}\n"
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("caller", ["main", "drive_play", "validate_initial_fraction"])
    def test_clamp_warning_names_the_calling_file(self, tmp_path, caller):
        # the first frame outside the package, not a line of cli.py or play.py
        env = calibrate_envelope(1.0, 0.1, -5.0)
        calls = {
            # the default coupled start lies below the envelope
            "main": lambda: main(["ode-coupled", "--out", str(tmp_path)]),
            "drive_play": lambda: drive_play(lambda t: -5.0, env, 0.1, 1.0, 0.9, strict=False),
            "validate_initial_fraction": lambda: validate_initial_fraction(
                Closure.hysteresis(env), None, -5.0, 0.9
            ),
        }
        with pytest.warns(RuntimeWarning, match="clamped into") as record:
            calls[caller]()
        assert [w.filename for w in record] == [__file__]


class TestCsvWriter:
    def test_bytes_match_csv_writer_at_17_digits(self, tmp_path):
        # the former writer, csv.writer fed the old per-cell rule, is the oracle
        def old_cell(value):
            if isinstance(value, str):
                return value
            if isinstance(value, (bool, int, np.integer)):
                return str(int(value))
            return f"{float(value):.17g}"

        def oracle(header, rows):
            out = io.StringIO(newline="")
            writer = csv.writer(out)
            writer.writerow(header)
            for row in rows:
                writer.writerow([old_cell(v) for v in row])
            return out.getvalue().encode("utf-8")

        header = ("a", "b", "c", "d")
        rows = [
            ("", 3, np.int64(-7), True),
            (False, 0.1, np.float64(0.1), -0.0),
            (math.inf, -math.inf, math.nan, 1e-300),
            (np.float64(-0.0), 5e-324, 1.7976931348623157e308, 2**63),
            (1.0, 2.5, "", np.int32(12)),
            (0.1, 0.2, 0.30000000000000004, 123456789.0),
        ]
        path = tmp_path / "out.csv"
        cli._write_csv(path, header, rows)
        assert path.read_bytes() == oracle(header, rows)
        assert path.read_bytes().endswith(b"123456789\r\n")

        # array rows, written in blocks; more rows than one block holds
        values = np.array([0.0, -0.0, math.inf, -math.inf, math.nan, 1e-300, 0.1, -2.5e-7])
        arrays = [
            np.random.default_rng(3).choice(values, size=(2 * cli._CSV_BLOCK_ROWS + 5, 3)),
            np.arange(-6, 6, dtype=np.int64).reshape(4, 3),
            np.array([[True, False, True]]),
            np.empty((0, 3)),
        ]
        for array in arrays:
            cli._write_csv(path, header[:3], array)
            assert path.read_bytes() == oracle(header[:3], array), array.dtype
