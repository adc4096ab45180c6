import csv
import functools
import io
import math
import os
import re
import subprocess
import sys
import tempfile
import tracemalloc
import warnings
from collections import Counter
from dataclasses import fields, replace

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from oracles import (
    cell_csv_bytes,
    coupled_forcing,
    drive_play_per_step,
    driven_schedule,
    evaluate_expression,
    rows_csv_bytes,
)

from cryostef import cli, config, play
from cryostef.cli import main
from cryostef.config import (
    MODES,
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
from cryostef.solve import SolverOptions, StepReport
from cryostef.stepper import Closure, ScalarOdeStepper, TimeState, validate_initial_fraction


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

    @pytest.mark.parametrize(
        "text", ["(0,5),(1", "5, (1,5)", "(0,5),(1,5) garbage", "(0,5)(1,-5)", "(0,5),,(1,5)", "(0,5),"]
    )
    def test_schedule_text_outside_its_pairs_rejected(self, text):
        with pytest.raises(ConfigError, match="cannot parse schedule"):
            parse_schedule(text)

    @pytest.mark.parametrize(
        "text, points",
        [
            (" ( 0 , 5 ) ,( 1e0,-5 ) ", ((0.0, 5.0), (1.0, -5.0))),
            # the form the benchmark writes its scaled boundary schedule in
            ("(0.0,4.9875),(1.0,4.9875),(2.0,-4.9875),(3.0,4.9875)",
             ((0.0, 4.9875), (1.0, 4.9875), (2.0, -4.9875), (3.0, 4.9875))),
        ],
    )
    def test_schedule_pairs_separated_by_single_commas_load(self, text, points):
        assert parse_schedule(text).breakpoints == points

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
        # the defaults, the README's forms and the benchmark's forcing, each
        # under every key whose names it uses
        path = tmp_path / "run.cfg"
        every = tuple(config._EXPR_KEY_NAMES)
        for keys, expr in (
            (("chi_init", "forcing", "drive"), "auto"),
            (every, "-5"),
            (every, "exp(-0.5)"),
            (("chi_init",), "F(u0) + 0.1"),
            (("chi_init",), "F(u0) if x < 0.5 else 1.0"),
            (("u_init", "chi_init", "source"), "-5 + 2*sin(pi*x)"),
            (("source",), "0.1*sin(pi*x)*exp(-t)"),
            (("source", "forcing", "drive"), "(16 if t < 1 else 4)*cos(pi*t)"),
            (
                ("source", "forcing", "drive"),
                "16.0*cos(pi*t) - 15.0 if t < 1.0 else 4.0*cos(pi*t) + (4.0*t - 30.0)",
            ),
            (("source",), "where(x < 0.5, maximum(x, 0.1), -abs(t)) ** 2 // 1 % 3"),
            (("source",), "1.0 if not x < 1 and t >= 2 or x == 3 else 0.0"),
        ):
            for key in keys:
                path.write_text(f"{key} = {expr}\n")
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
            ("calibrate", "T = 0"),  # calibrate runs no steps
            ("calibrate", "tau = -1"),
            ("convergence", "tau = 100"),  # the sweep takes its steps from taus and tau_fine
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

    @pytest.mark.parametrize(
        "mode, text, code, named",
        [
            ("pde", "bc_left = (0,5),(1", 2, "key 'bc_left': cannot parse schedule"),
            ("pde", "bc_right = (0,x)", 2, "key 'bc_right': cannot parse schedule"),
            ("pde", "out_times = 0.5,soon", 2, "key 'out_times': cannot parse number list"),
            ("pde", "out_times = ,", 2, "key 'out_times': cannot parse number list"),
            ("pde", "out_times = ,0.5", 2, "key 'out_times': cannot parse number list"),
            ("pde", "out_times = 0.5,", 2, "key 'out_times': cannot parse number list"),
            ("pde", "T = 0.05\nout_times = -0.004,-1,0.05", 2, "key 'out_times': output time -1.0 is negative"),
            ("convergence", "taus = 0.1,,0.01", 2, "key 'taus': cannot parse number list"),
            ("bogus", "", 2, "unknown mode 'bogus'"),
            ("pde", None, 2, "cannot read config"),
            ("pde", b"# caf\xe9\nT = 0.02", 2, "can't decode byte 0xe9"),  # not UTF-8
            ("calibrate", "mode = calibrate", 0, None),
            ("pde", "T = 0.001", 2, "horizon T=0.001 is shorter than one step"),
            ("pde", "closure = ice", 2, "unknown closure 'ice'"),
            ("ode-driven", "envelope = four-condition", 2, "unknown envelope variant"),
            ("pde", "face_average = median", 2, "key 'face_average'"),
            ("convergence", "taus =", 2, "key 'taus'"),
            ("convergence", "T = 1\ntau_fine = 0", 2, "key 'tau_fine' must be positive"),
            ("convergence", "T = 1\ntau_fine = -1e-4", 2, "key 'tau_fine' must be positive"),
            ("convergence", "T = 1\ntaus = 0.1,-0.01", 2, "key 'taus': sweep step -0.01 is not pos"),
            ("convergence", "T = 1\ntaus = 0.1,0", 2, "key 'taus': sweep step 0.0 is not positive"),
            ("convergence", "T = 1\ntaus = 0.1,1e-4", 2, "key 'taus': sweep step 0.0001 is not coarser"),
            ("convergence", "T = 1\ntaus = 0.1,0.01,0.1", 2, "key 'taus': sweep step 0.1 is listed twice"),
            ("convergence", "T = 0", 2, "horizon T=0.0 is shorter than one sweep step"),
            # an envelope whose calibration denominator vanishes
            ("calibrate", "b_bar = 1e-9", 2, "keys 'b_bar' and 'theta0' calibrate no envelope: "
                                             "vanishing calibration denominator 0.0"),
            ("ode-driven", "b_bar = 1e-9", 2, "keys 'b_bar' and 'theta0' calibrate no envelope"),
            ("pde", "closure = hyst\nb_bar = 1e-9", 2, "keys 'b_bar' and 'theta0' calibrate no envelope"),
            ("calibrate", "theta0 = -1e-300", 2, "keys 'b_bar' and 'theta0' calibrate no envelope"),
            # an expression may use its key's names and the math names only,
            # whether or not the mode reads the key
            ("ode-coupled", "forcing = x + t", 2, "key 'forcing': expression 'x + t' uses unknown name 'x'"),
            ("pde", "source = u0*t", 2, "key 'source': expression 'u0*t' uses unknown name 'u0'"),
            ("pde", "forcing = x + t", 2, "key 'forcing': expression 'x + t' uses unknown name 'x'"),
            ("pde", "source = auto", 2, "key 'source': expression 'auto' uses unknown name 'auto'"),
            ("pde", "u_init = -5 - t", 2, "key 'u_init': expression '-5 - t' uses unknown name 't'"),
            ("pde", "chi_init = F(t)", 2, "key 'chi_init': expression 'F(t)' uses unknown name 't'"),
            ("ode-driven", "drive = 8*cos(pi*u0)", 2, "key 'drive': expression '8*cos(pi*u0)' uses unknown name 'u0'"),
            ("calibrate", "u_init = open(x)", 2, "key 'u_init': expression 'open(x)' uses unknown name 'open'"),
        ],
    )
    def test_config_errors_exit_2_naming_the_key(self, tmp_path, capsys, mode, text, code, named):
        path = tmp_path / "run.cfg"
        if text is None:
            path.mkdir()  # a directory cannot be read as a config file
        elif isinstance(text, bytes):
            path.write_bytes(text + b"\n")
        else:
            path.write_text(text + "\n")
        if code:
            with pytest.raises(ConfigError, match=re.escape(named)):
                load_config(path, mode)
        if mode not in MODES:
            return  # the command line offers only the known modes
        out = tmp_path / "out"
        assert main([mode, "--config", str(path), "--out", str(out)]) == code
        if code:
            assert named in capsys.readouterr().err
            assert not out.exists()
        else:
            assert out.exists()

    @pytest.mark.parametrize("out", ["afile", "afile/sub"])
    def test_out_that_cannot_be_a_directory_exits_2_before_any_step(self, tmp_path, capsys,
                                                                     monkeypatch, out):
        (tmp_path / "afile").write_text("")
        monkeypatch.setattr(cli, "advance", None)  # a step would fail with a TypeError
        assert main(["pde", "--out", str(tmp_path / out)]) == 2
        err = capsys.readouterr().err
        assert f"{tmp_path / 'afile'} is not a directory" in err
        assert len(err.splitlines()) == 1
        assert (tmp_path / "afile").read_text() == ""


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

    def test_empty_out_writes_into_the_current_directory(self, tmp_path, monkeypatch):
        monkeypatch.chdir(tmp_path)
        assert main(["calibrate", "--out", ""]) == 0
        header, rows = read_csv(tmp_path / "envelope.csv")
        assert header == ["theta", "F", "G"]
        assert len(rows) == 1000

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

    @pytest.mark.parametrize("tau", [3.75e-2, 3.75e-3])
    def test_default_drive_has_the_bits_of_the_numpy_cosine(self, monkeypatch, tmp_path, tau):
        # the default step and a tenth of it, over the default horizon
        seen = []
        drive = cli._default_drive

        def recording(times):
            values = list(config.sample_times(drive, times))
            seen.extend(zip(times.tolist(), values))
            return values

        recording.vectorized = True
        monkeypatch.setattr(cli, "_default_drive", recording)
        cfg = replace(load_config(None, "ode-driven"), tau=tau)
        cli.run_ode_driven(cfg, SolverOptions(), tmp_path)
        n_steps = int(round(cfg.T / tau))
        # every step time from 0 on, once each: u0 for the initial fraction is the first
        assert [t for t, _ in seen] == [n * tau for n in range(n_steps + 1)]
        assert all(type(value) is float for _, value in seen)
        expected = [driven_schedule(t) for t, _ in seen]
        got = [value for _, value in seen]
        assert np.array_equal(np.array(got).view(np.int64), np.array(expected).view(np.int64))


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

    def test_horizon_not_a_whole_number_of_sweep_steps_exits_2(self, tmp_path, capsys):
        # 0.5 is not a whole number of 0.3 steps: the coarse run would end
        # at t = 0.6, past the fine run's last step
        cfg = tmp_path / "conv.cfg"
        cfg.write_text("T = 0.5\ntaus = 0.3\ntau_fine = 0.1\nchi_init = 0.85\n")
        out = tmp_path / "out"
        assert main(["convergence", "--config", str(cfg), "--out", str(out)]) == 2
        assert "horizon T 0.5 is not a whole number of steps 0.3" in capsys.readouterr().err
        assert not out.exists()

    def test_sweep_memory_does_not_grow_with_the_fine_step(self, tmp_path):
        # the fine run keeps only the states the errors read, one per 0.01;
        # keeping every fine state grows the peak by about 0.44 MB from 2e3
        # to 2e4 fine steps
        def peak(tau_fine):
            cfg = load_config(None, "convergence",
                              overrides={"T": 0.2, "taus": (0.1, 0.01), "tau_fine": tau_fine})
            with warnings.catch_warnings():
                warnings.simplefilter("ignore", RuntimeWarning)
                tracemalloc.start()
                try:
                    start = tracemalloc.get_traced_memory()[0]
                    cli.convergence_study(cfg, SolverOptions(), tmp_path)
                    return tracemalloc.get_traced_memory()[1] - start
                finally:
                    tracemalloc.stop()

        assert abs(peak(1e-5) - peak(1e-4)) < 64 * 1024

    @settings(derandomize=True, max_examples=20, deadline=None)
    @given(
        tau_fine=st.sampled_from([0.01, 0.005, 0.002]),
        strides=st.lists(st.integers(2, 12), min_size=1, max_size=3, unique=True),
        repeats=st.integers(1, 3),
        stride=st.integers(1, 15),
    )
    @example(tau_fine=0.002, strides=[6, 4], repeats=1, stride=2)
    def test_kept_fine_states_are_the_full_runs(self, tau_fine, strides, repeats, stride):
        # sweeps whose steps are whole numbers of fine steps, nested or not
        n_fine = math.lcm(*strides) * repeats
        taus = tuple(k * tau_fine for k in strides)
        cfg = load_config(None, "convergence", overrides={
            "T": n_fine * tau_fine, "tau": tau_fine, "taus": taus, "tau_fine": tau_fine,
        })
        opts = SolverOptions()
        with warnings.catch_warnings(), tempfile.TemporaryDirectory() as out:
            warnings.simplefilter("ignore", RuntimeWarning)
            rows = cli.convergence_study(cfg, opts, out)
            full = cli.simulate_ode_coupled(cfg, opts, tau=tau_fine)
            kept = cli.simulate_ode_coupled(cfg, opts, tau=tau_fine, stride=stride)
            for row in rows:
                _, u, chi = cli.simulate_ode_coupled(cfg, opts, tau=row["tau"])
                err = cli.trajectory_errors((u, chi), full[1:], row["tau"], tau_fine)
                assert (row["err_l1"], row["err_l2"], row["err_inf"]) == (
                    err["l1"], err["l2"], err["inf"]
                )
        assert len(full[0]) == n_fine + 1
        for every, some in zip(full, kept):
            assert np.array_equal(every[::stride].view(np.int64), some.view(np.int64))


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

    def test_fixed_point_converges_where_the_boundary_term_dominates(self, tmp_path):
        # tau*bc_rhs carries the iterate norm far past (||rhs|| + sqrt(n))/c_min;
        # the sweep still converges, to the default solver's state
        cfg = tmp_path / "pde.cfg"
        cfg.write_text("closure = neq\nM = 10\nu_init = 1\nbc_left = 1e3\nbc_right = 1e3\nT = 0.01\n")
        states = {}
        for solver in ("fixed-point", "newton-alag"):
            out = tmp_path / solver
            assert main(["pde", "--config", str(cfg), "--out", str(out), "--solver", solver]) == 0
            _, rows = read_csv(out / "phase.csv")
            states[solver] = np.array(rows, dtype=float)[:, 2:]  # u and chi
        reference = states["newton-alag"]
        gap = np.max(np.abs(states["fixed-point"] - reference))
        assert gap <= 1e-12 * np.max(np.abs(reference[:, 0]))

    def test_nonconvergence_exits_3(self, tmp_path):
        cfg = tmp_path / "pde.cfg"
        self.write_small_config(cfg)
        assert main(["pde", "--config", str(cfg), "--out", str(tmp_path), "--max-iter", "1"]) == 3

    def test_max_iter_is_the_fixed_point_sweep_budget(self, tmp_path, capsys):
        # the two neq steps take 12 and 15 sweeps: a budget of 5 stops the first
        cfg = tmp_path / "pde.cfg"
        cfg.write_text("closure = neq\nT = 0.02\n")
        args = ["pde", "--config", str(cfg), "--solver", "fixed-point"]
        assert main(args + ["--out", str(tmp_path / "a"), "--max-iter", "5"]) == 3
        assert "fixed point stalled after 5 sweeps" in capsys.readouterr().err
        assert main(args + ["--out", str(tmp_path / "b"), "--max-iter", "15"]) == 0
        _, rows = read_csv(tmp_path / "b" / "iterations.csv")
        assert [row[2] for row in rows] == ["12", "15"]

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

    def test_run_keeps_no_copy_of_each_source(self):
        # a constant source is one float broadcast over the cells; the run
        # keeps its states, reports and the views advance used, and a private
        # copy of each step's source would add half the states' bytes again
        cfg = load_config(None, "pde", overrides={"M": 400, "T": 0.5})
        tracemalloc.start()
        try:
            start = tracemalloc.get_traced_memory()[0]
            run = cli.simulate_pde(cfg, SolverOptions())
            held = tracemalloc.get_traced_memory()[0] - start
        finally:
            tracemalloc.stop()
        assert len(run.reports) == 50
        state_bytes = sum(state.u.nbytes + state.upsilon.nbytes for state in run.states)
        assert held < 1.4 * state_bytes

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


class TestNonFiniteInputs:
    @pytest.mark.parametrize(
        "mode, text, message",
        [
            ("ode-driven", "T = 1\ntau = 0.25\ndrive = log(t - 0.5)", "key 'drive' is not finite at t=0.0"),
            ("ode-driven", "T = 1\ntau = 0.25\ndrive = exp(1000*t)", "key 'drive' is not finite at t=0.75"),
            ("ode-driven", "chi_init = log(u0 - 100)", "key 'chi_init' is not finite at t=0.0"),
            ("pde", "u_init = log(x - 0.5)", "key 'u_init' is not finite at t=0.0"),
            ("pde", "closure = neq\nchi_init = log(x - 2)", "key 'chi_init' is not finite at t=0.0"),
            ("pde", "source = log(t - 0.015)", "key 'source' is not finite at t=0.01"),
            ("ode-coupled", "u_init = 1e308 * 10", "key 'u_init' is not finite at t=0.0"),
            ("ode-coupled", "chi_init = log(u0)", "key 'chi_init' is not finite at t=0.0"),
            ("ode-coupled", "T = 1\nforcing = log(0.5 - t)", "key 'forcing' is not finite at t=0.5"),
            # the sweep runs its largest step first, and at 0.1 every forcing is finite
            ("convergence", "forcing = log(t - 0.05)", "key 'forcing' is not finite at t=0.01"),
        ],
    )
    def test_exit_2_naming_the_key_and_time(self, tmp_path, capsys, mode, text, message):
        cfg = tmp_path / "run.cfg"
        small = "M = 10\nT = 0.1\n" if mode == "pde" else ""
        cfg.write_text(small + text + "\n")
        out = tmp_path / "out"
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", RuntimeWarning)
            assert main([mode, "--config", str(cfg), "--out", str(out)]) == 2
        assert message in capsys.readouterr().err
        assert not out.exists()


class TestFloatValuedExpressions:
    # every expression is float-valued: its constants are int or float
    # literals made floats, and a truth value is read only as a condition

    @pytest.mark.parametrize(
        "mode, key",
        [("pde", "source"), ("ode-coupled", "forcing"), ("ode-driven", "drive"), ("convergence", "forcing")],
    )
    @pytest.mark.parametrize(
        "expr, message",
        [
            ("None", "expression 'None' may not use Constant None"),
            ("...", "expression '...' may not use Constant ..."),
            ("True", "expression 'True' may not use Constant True"),
            ("1j", "expression '1j' may not use Constant 1j"),
            (
                "t < 0.5",
                "expression 't < 0.5' uses the truth value t < 0.5 as a number; "
                "write it as a condition, such as 1.0 if t < 0.5 else 0.0",
            ),
            ("cos(t < 1)", "expression 'cos(t < 1)' uses the truth value t < 1 as a number"),
            ("10**400", "cannot evaluate expression '10**400': "),
            ("where(t)", "expression 'where(t)' calls where with 1 arguments; it takes 3"),
        ],
    )
    def test_exits_2_at_load_naming_the_key(self, tmp_path, capsys, mode, key, expr, message):
        # evaluated as they stand, None and the integer 10**400 end in a
        # TypeError or an OverflowError, and numpy takes a function of a bool
        # in float16; each is a config error when the config loads
        path = tmp_path / "run.cfg"
        path.write_text(f"M = 10\nT = 0.1\n{key} = {expr}\n")
        with pytest.raises(ConfigError, match=re.escape(f"key {key!r}: {message}")):
            load_config(path, mode)
        assert main([mode, "--config", str(path), "--out", str(tmp_path / "out")]) == 2
        assert capsys.readouterr().err.startswith(f"config error: key {key!r}: {message}")
        assert not (tmp_path / "out").exists()

    def test_tower_of_powers_exits_2_in_bounded_time(self, tmp_path):
        # as integers 9**9**9**9 has hundreds of millions of digits; as floats
        # it overflows at once, when the config loads
        script = (
            "from cryostef.cli import main\n"
            "for mode, key in [('pde', 'source'), ('ode-coupled', 'forcing'),\n"
            "                  ('ode-driven', 'drive'), ('convergence', 'forcing')]:\n"
            "    open('run.cfg', 'w').write(f'{key} = 9**9**9**9\\n')\n"
            "    print(main([mode, '--config', 'run.cfg', '--out', 'out']))\n"
        )
        src = os.path.dirname(os.path.dirname(os.path.abspath(cli.__file__)))
        proc = subprocess.run(
            [sys.executable, "-c", script], capture_output=True, text=True, timeout=60,
            env={**os.environ, "PYTHONPATH": src}, cwd=tmp_path, check=True,
        )
        assert proc.stdout.split() == ["2"] * 4
        for key in ("source", "forcing", "drive", "forcing"):
            assert f"config error: key {key!r}: cannot evaluate expression '9**9**9**9': " in proc.stderr
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize(
        "expr, part",
        [
            ("(t < 1) + (t < 2)", "t < 1"),
            ("cos((t < 1) if t < 2 else 0.5)", "t < 1"),
            ("(t + 9007199254740992) < 9007199254740993", "t + 9007199254740992 < 9007199254740993"),
            ("where(t < 1, t < 2, 0.5)", "t < 2"),
            ("not t", "not t"),
            ("t > 0 and t", "t > 0 and t"),
        ],
    )
    def test_truth_value_read_as_a_number_is_rejected(self, expr, part):
        # numpy adds bools as or, and takes a function of a bool in float16
        with pytest.raises(ConfigError, match=re.escape(f"uses the truth value {part} as a number")):
            config.expression_function(expr, ("t",))

    def test_function_of_a_condition_is_taken_in_double(self):
        expr = "cos(1.0 if t < 1 else 0.0)"
        value = config.expression_function(expr, ("t",))(0.0)
        assert value == 0.5403023058681398 and np.asarray(value).dtype == np.float64
        values = config.expression_block(expr)(config.step_times(0, 3, 0.75))
        assert values.tolist() == [0.5403023058681398, 0.5403023058681398, 1.0]

    @pytest.mark.parametrize(
        "expr, value",
        [
            ("3", 3.0),
            ("7 // 2", 3.0),
            ("-(0 if t < 1 else t)", -0.0),  # the integer 0 has no sign
            ("9007199254740993", 9007199254740992.0),  # an integer above 2**53 rounds
            ("1.0 if not t < 1 and t >= 0 or t == 3 else 2", 2.0),
            ("where(t < 1, 1, 2) + 0", 1.0),
        ],
    )
    def test_numbers_are_floats(self, expr, value):
        result = eval_expression(expr, t=0.5)
        assert np.asarray(result).dtype == np.float64
        assert float(result).hex() == value.hex(), expr


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


# expressions drawn from the whitelist's grammar over t and x
_EXPR_LEAVES = st.one_of(
    st.floats(0.0, 100.0).map(repr),
    st.integers(0, 9).map(str),
    st.sampled_from(["t", "x", "pi"]),
)


def _expr_nodes(children):
    def node(template, *parts):
        return st.tuples(*parts).map(lambda p: template % p)

    return st.one_of(
        node("(%s %s %s)", children, st.sampled_from("+-*/"), children),
        node("%s(%s)", st.sampled_from(["cos", "exp", "sin", "-"]), children),
        node("where(%s < %s, %s, %s)", children, children, children, children),
        node("(%s if %s < %s else %s)", children, children, children, children),
    )


def _outcome(evaluate):
    # the value's type, shape and bytes, or None if the evaluation raised
    try:
        with np.errstate(all="ignore"):
            value = evaluate()
    except Exception:
        return None
    return type(value), np.shape(value), np.asarray(value).tobytes()


def _spy_expression_functions(monkeypatch):
    # every (expr, names) compiled, and the arguments of every call of each
    # compiled function, keyed by expression
    compiled = []
    calls = {}
    compile_function = config.expression_function

    def spy(expr, names):
        compiled.append((expr, names))
        function = compile_function(expr, names)

        def counted(*args):
            calls.setdefault(expr, []).append(args)
            return function(*args)

        return counted

    monkeypatch.setattr(config, "expression_function", spy)
    monkeypatch.setattr(cli, "expression_function", spy)
    return compiled, calls


def _spy_expression_blocks(monkeypatch):
    # every expression whose block form is compiled, and the times of every
    # evaluation of each block form with whether it was used, keyed by expression
    compiled = []
    evaluations = {}
    compile_block = config.expression_block

    def spy(expr):
        compiled.append(expr)
        block = compile_block(expr)
        if block is None:
            return None

        def counted(times):
            values = block(times)
            evaluations.setdefault(expr, []).append((times.tolist(), values is not None))
            return values

        return counted

    monkeypatch.setattr(config, "expression_block", spy)
    monkeypatch.setattr(cli, "expression_block", spy)
    return compiled, evaluations


class TestCompiledExpressions:
    @settings(derandomize=True, max_examples=300, deadline=None)
    @given(
        expr=st.recursive(_EXPR_LEAVES, _expr_nodes, max_leaves=10),
        t=st.floats(-10.0, 10.0),
        x=st.one_of(
            st.floats(-10.0, 10.0),
            st.lists(st.floats(-10.0, 10.0), min_size=1, max_size=4).map(np.array),
        ),
    )
    def test_compiled_function_is_the_reference_eval(self, expr, t, x):
        # bit for bit the value plain eval gives over the math names with every
        # number a float, or both raise; a part that uses no name and cannot be
        # evaluated is rejected when compiled
        try:
            function = config.expression_function(expr, ("t", "x"))
        except ConfigError as err:
            assert str(err).startswith(f"cannot evaluate expression {expr!r}: "), err
            return
        expected = _outcome(lambda: evaluate_expression(expr, t=t, x=x))
        assert _outcome(lambda: function(t, x)) == expected, expr

    def test_each_key_is_compiled_with_its_names(self, monkeypatch, tmp_path):
        # at load and in the run, every expression key is a function of the
        # same names
        texts = {
            "pde": "M = 10\nT = 0.05\nclosure = hyst\nu_init = -5 + x\n"
            "chi_init = F(u0)\nsource = 0.1*x*t\n",
            "ode-coupled": "T = 0.05\nchi_init = F(u0) + 0*x\nforcing = cos(pi*t)\n",
            "ode-driven": "T = 0.3\nchi_init = F(u0)\ndrive = 8*cos(pi*t/4) - 2\n",
        }
        key_names = config._EXPR_KEY_NAMES
        compiled, _ = _spy_expression_functions(monkeypatch)
        for mode, text in texts.items():
            path = tmp_path / f"{mode}.cfg"
            path.write_text(text)
            cfg = load_config(path, mode)
            by_expr = {getattr(cfg, key): names for key, names in key_names.items()}
            assert main([mode, "--config", str(path), "--out", str(tmp_path / mode)]) == 0
            assert compiled and all(by_expr[expr] == names for expr, names in compiled), compiled
            compiled.clear()

    def test_coupled_forcing_is_compiled_once_and_run_by_block(self, monkeypatch):
        # one evaluation of the block form per block of steps and no call per
        # step; each step still gets the float the compiled function gives
        forcing = "16*cos(pi*t) - 15 if t < 1 else 4*t - 30"
        cfg = load_config(None, "ode-coupled", overrides={"tau": 1e-3, "T": 1.5, "forcing": forcing})
        compiled, calls = _spy_expression_functions(monkeypatch)
        blocks, evaluations = _spy_expression_blocks(monkeypatch)
        seen = _record_forcing(monkeypatch)
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", RuntimeWarning)
            times, _, _ = cli.simulate_ode_coupled(cfg, SolverOptions())
        assert len(times) == 1501
        assert compiled.count((forcing, ("t",))) == 1 and blocks == [forcing]
        assert forcing not in calls
        edges = [(1, 1025), (1025, 1501)]
        assert evaluations[forcing] == [([n * cfg.tau for n in range(*e)], True) for e in edges]
        expected = [float(eval_expression(forcing, t=n * cfg.tau)) for n in range(1, 1501)]
        assert all(type(f) is float for f in seen)
        assert np.array_equal(np.array(seen).view(np.int64), np.array(expected).view(np.int64))

    def test_driven_run_samples_each_step_time_once(self, monkeypatch, tmp_path):
        # one block evaluation over t = 0 ... N*tau; where the block form
        # refuses it (a log of a negative number in the branch not taken),
        # one call of the compiled function per step time, t = 0 included once
        step_times = [n * 3.75e-2 for n in range(81)]
        rows = []
        for drive in ("8*cos(pi*t/4) - 2", "8*cos(pi*t/4) - 2 if t < 100 else log(t - 1)"):
            cfg = load_config(None, "ode-driven", overrides={"T": 3.0, "drive": drive})
            with pytest.MonkeyPatch.context() as patch:
                compiled, calls = _spy_expression_functions(patch)
                blocks, evaluations = _spy_expression_blocks(patch)
                rows.append(cli.run_ode_driven(cfg, SolverOptions(), tmp_path / str(len(rows))))
            assert len(rows[-1]) == 80
            assert compiled.count((drive, ("t",))) == 1 and blocks == [drive]
            (times, used), = evaluations[drive]
            assert times == step_times
            assert calls.get(drive, []) == ([] if used else [(t,) for t in step_times])
            assert used == (len(rows) == 1)
        assert np.array_equal(rows[0].view(np.int64), rows[1].view(np.int64))


class TestStepInputsSampledOnce:
    def test_pde_keeps_what_advance_sampled(self, monkeypatch):
        # each step samples both boundary schedules and the source once, in
        # advance, the source through its function compiled once; the run
        # keeps those values and the diagnostics reuse them
        schedule_calls = Counter()
        schedule = PiecewiseLinearSchedule.__call__

        def counting_schedule(self, t):
            schedule_calls[id(self)] += 1
            return schedule(self, t)

        monkeypatch.setattr(PiecewiseLinearSchedule, "__call__", counting_schedule)
        cfg = load_config(None, "pde", overrides={"M": 10, "T": 0.3, "source": "0.1*x*t"})
        compiled, calls = _spy_expression_functions(monkeypatch)
        run = cli.simulate_pde(cfg, SolverOptions())
        n = len(run.reports)
        assert n == 30
        assert schedule_calls == {id(cfg.bc_left): n, id(cfg.bc_right): n}
        assert compiled.count((cfg.source, ("x", "t"))) == 1
        assert {expr: len(args) for expr, args in calls.items()} == {cfg.u_init: 1, cfg.source: n}

        schedule_calls.clear()
        calls.clear()
        cli._pde_diagnostics(run)
        assert not schedule_calls and not calls
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
        n_steps=st.integers(1, 2600).filter(lambda n: n % config.BLOCK_STEPS),
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
        forcing = "1.0 if t < 0.5 else 1/(t - t)"
        cfg = load_config(
            None, "ode-coupled", overrides={"tau": 0.01, "forcing": forcing, "chi_init": "auto"}
        )
        with pytest.raises(ConfigError, match="division by zero"):
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


# time expressions: _expr_nodes over t alone, plus comparisons with one
# operator, as the condition of an if and as a number, which is rejected
_TIME_LEAVES = st.one_of(
    st.floats(0.0, 100.0).map(repr),
    st.integers(0, 9).map(str),
    st.sampled_from(["t", "pi"]),
)


def _time_expr_nodes(children):
    compare = st.tuples(children, st.sampled_from(["<", "<=", ">", ">=", "==", "!="]), children)
    condition = st.tuples(children, compare.map(lambda p: "%s %s %s" % p), children)
    return st.one_of(
        _expr_nodes(children),
        condition.map(lambda p: "(%s if %s else %s)" % p),
        compare.map(lambda p: "(%s %s %s)" % p),
    )


def _sampled(sample, times):
    # the hex of each float sampled in turn, then the message of a config
    # error if one is raised, and the (category, message) of every warning
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        out = []
        try:
            for value in sample(times):
                assert type(value) is float
                out.append(value.hex())
        except ConfigError as err:
            out.append(str(err))
    return out, [(w.category, str(w.message)) for w in caught]


def _per_step(function):
    # the compiled function called at each time, the sampling of a function with no block form
    return lambda times: (float(function(t)) for t in times.tolist())


class TestExpressionBlocks:
    # a forcing or drive expression is evaluated a block of times at a time
    # where that gives the per-step bits, and step by step where it may not

    # an expression with a block form; a branch that is -0.0 per step; then
    # truth values read as numbers, which are rejected when compiled
    @example(expr="(16 if t < 1 else 4)*cos(pi*t)", tau=1e-3, edge=1, before=30, after=30)
    @example(expr="-(0 if t < 1 else t)", tau=1e-4, edge=1, before=3, after=3)
    @example(expr="(t < 1) + (t < 2)", tau=1e-4, edge=1, before=3, after=3)
    @example(expr="cos((t < 1) if t < 2 else 0.5)", tau=1e-4, edge=1, before=3, after=3)
    @example(expr="(t + 9007199254740992) < 9007199254740993", tau=1e-4, edge=1, before=3, after=3)
    @settings(derandomize=True, max_examples=300, deadline=None)
    @given(
        expr=st.recursive(_TIME_LEAVES, _time_expr_nodes, max_leaves=8),
        tau=st.floats(1e-4, 0.05),
        edge=st.integers(1, 3),
        before=st.integers(1, 6),
        after=st.integers(1, 6),
    )
    def test_block_form_is_the_per_step_function(self, expr, tau, edge, before, after):
        # steps either side of a block edge: the block form is refused, or it
        # gives every value bit for bit; a block in which some per-step call
        # raises or warns is refused, and then sampling is the per-step one.
        # An expression that reads a truth value as a number, or has a part
        # with no name that cannot be evaluated, has neither form
        edge *= config.BLOCK_STEPS
        times = config.step_times(edge - before, edge + after, tau)
        try:
            function = config.expression_function(expr, ("t",))
        except ConfigError as err:
            assert re.search(r"uses the truth value .* as a number|cannot evaluate", str(err)), err
            with pytest.raises(ConfigError, match=re.escape(str(err))):
                config.expression_block(expr)
            return
        block = config.expression_block(expr)
        expected, expected_warnings = _sampled(_per_step(function), times)
        values = None if block is None else block(times)
        if len(expected) < len(times) or expected_warnings:
            assert values is None, expr
        elif values is not None:
            assert [v.hex() for v in values.tolist()] == expected, expr
        sample = functools.partial(config.sample_times, cli._time_expr_fn(expr, None))
        assert _sampled(sample, times) == (expected, expected_warnings), expr

    def test_division_by_zero_in_the_block_fails_at_its_step(self, monkeypatch):
        forcing = "1/(t - 0.05)"
        assert config.expression_block(forcing)(config.step_times(1, 1025, 0.01)) is None
        seen = _record_forcing(monkeypatch)
        cfg = load_config(None, "ode-coupled", overrides={"forcing": forcing, "chi_init": "auto"})
        with pytest.raises(ConfigError) as info:
            cli.simulate_ode_coupled(cfg, SolverOptions())
        assert str(info.value) == "cannot evaluate expression '1/(t - 0.05)': float division by zero"
        assert seen == [1 / (n * 0.01 - 0.05) for n in range(1, 5)]

    def test_warnings_of_a_refused_block_are_the_per_step_ones(self):
        forcing = "where(t < 1, log(t - 1), 0)"
        times = config.step_times(1, 201, 0.01)
        assert config.expression_block(forcing)(times) is None
        expected = _sampled(_per_step(config.expression_function(forcing, ("t",))), times)
        assert expected[1] and len(expected[0]) == 200
        sample = functools.partial(config.sample_times, cli._time_expr_fn(forcing, None))
        assert _sampled(sample, times) == expected

    @pytest.mark.parametrize(
        "expr",
        ["(t - 1) ** 0.5", "t % 2", "t // 2", "1.0 if t < 1 and t > 0 else 0.0",
         "1.0 if not t else 0.0", "1.0 if 0 < t < 1 else 0.0", "+t", "x + t",
         "where(t < 1, t ** 2, 0.0)", "1.0 if t is t else 0.0"],
    )
    def test_syntax_without_a_block_form(self, expr):
        assert config.expression_block(expr) is None
        assert cli._time_expr_fn(expr, None) is config.expression_function(expr, ("t",))

    @pytest.mark.parametrize(
        "expr, value",
        [("3", lambda t: 3.0), ("1 if t < 0.5 else 0", lambda t: 1.0 if t < 0.5 else 0.0)],
        ids=["number", "comparison"],
    )
    def test_values_become_floats_over_the_block(self, expr, value):
        # a number is broadcast to the block, and a comparison picks floats
        times = config.step_times(1, 101, 0.01)
        values = config.expression_block(expr)(times)
        assert values.dtype == float and values.tolist() == [value(t) for t in times.tolist()]

    def test_builtin_forcing_written_as_an_expression(self, monkeypatch):
        # the benchmark's expression_bit_identical check: ode-long's forcing
        # expression runs with no per-step call and the built-in's bits
        forcing = "16.0*cos(pi*t) - 15.0 if t < 1.0 else 4.0*cos(pi*t) + (4.0*t - 30.0)"
        cfg = load_config(None, "ode-coupled", overrides={"tau": 1e-4, "T": 2.0, "forcing": forcing})
        _, calls = _spy_expression_functions(monkeypatch)
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", RuntimeWarning)
            _, u, chi = cli.simulate_ode_coupled(cfg, SolverOptions())
            _, u_auto, chi_auto = cli.simulate_ode_coupled(replace(cfg, forcing="auto"), SolverOptions())
        assert forcing not in calls
        assert len(u) == 20001
        assert np.array_equal(u.view(np.int64), u_auto.view(np.int64))
        assert np.array_equal(chi.view(np.int64), chi_auto.view(np.int64))


def _time_expression_arguments(run):
    # the t of every call of a compiled function of t alone while ``run``
    # runs: an array where a block is evaluated, a float where a step is
    seen = []

    def profile(frame, event, arg):
        code = frame.f_code
        if event == "call" and code.co_filename == "<config>" and code.co_varnames == ("t",):
            seen.append(frame.f_locals["t"])

    sys.setprofile(profile)
    try:
        run()
    finally:
        sys.setprofile(None)
    return seen


class TestBuiltinTimeFunctions:
    # the built-in forcing and drive are config expressions with a block form

    @example(tau=0.01, before=3, after=3)
    @example(tau=3.75e-2, before=3, after=3)
    @settings(derandomize=True, max_examples=100, deadline=None)
    @given(tau=st.floats(1e-5, 0.05), before=st.integers(1, 40), after=st.integers(1, 40))
    def test_builtins_have_the_oracle_bits_either_side_of_their_switches(self, tau, before, after):
        # step times either side of t = 1, where the forcing switches, and of
        # t = 4, where the drive does, through both built-ins
        builtins = ((cli._default_coupled_forcing, coupled_forcing), (cli._default_drive, driven_schedule))
        for edge in (1.0, 4.0):
            n = round(edge / tau)
            times = config.step_times(max(n - before, 0), n + after, tau)
            for builtin, oracle in builtins:
                values = list(config.sample_times(builtin, times))
                assert all(type(value) is float for value in values)
                expected = [oracle(t) for t in times.tolist()]
                assert np.array_equal(np.array(values).view(np.int64), np.array(expected).view(np.int64))

    @pytest.mark.parametrize(
        "mode, tau",
        [("ode-coupled", None), ("ode-coupled", 4e-3), ("ode-driven", None), ("ode-driven", 3.75e-3)],
    )
    def test_default_runs_evaluate_their_builtin_once_per_block(self, mode, tau, tmp_path):
        # the default run, and one of several blocks: each block of step times
        # is evaluated as one array, and no step time on its own
        cfg = load_config(None, mode)
        cfg = cfg if tau is None else replace(cfg, tau=tau)
        n_steps = round(cfg.T / cfg.tau)
        first = 1 if mode == "ode-coupled" else 0  # ode-driven samples t = 0 too
        run = cli.run_ode_coupled if mode == "ode-coupled" else cli.run_ode_driven
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", RuntimeWarning)
            seen = _time_expression_arguments(lambda: run(cfg, SolverOptions(), tmp_path))
        assert all(isinstance(t, np.ndarray) for t in seen)
        starts = range(first, n_steps + 1, config.BLOCK_STEPS)
        expected = [config.step_times(s, min(s + config.BLOCK_STEPS, n_steps + 1), cfg.tau) for s in starts]
        assert [t.tolist() for t in seen] == [t.tolist() for t in expected]


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
            ["pde", "--tol", "inf"],
            ["ode-coupled", "--tol", "inf"],
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

    def test_clamp_warning_under_python_m_names_the_cli_line(self, tmp_path):
        # run as the program, cli.py is the caller's code: the frames above it are runpy's
        cli_path = os.path.abspath(cli.__file__)
        env = {**os.environ, "PYTHONPATH": os.path.dirname(os.path.dirname(cli_path))}
        proc = subprocess.run(
            [sys.executable, "-W", "default", "-m", "cryostef.cli", "ode-coupled",
             "--out", str(tmp_path)],
            capture_output=True, text=True, env=env, cwd=tmp_path, check=False,
        )
        assert proc.returncode == 0
        first = proc.stderr.splitlines()[0]
        match = re.match(rf"{re.escape(cli_path)}:(\d+): RuntimeWarning: initial fraction ", first)
        assert match, first
        with open(cli_path, encoding="utf-8") as handle:
            line = handle.readlines()[int(match.group(1)) - 1]
        assert "validate_initial_fraction(" in line


# the extremes of formatting at %.17g, signed zeros, the smallest subnormal
# and a huge value, drawn among arbitrary floats
CELL_VALUES = st.one_of(st.sampled_from([-0.0, 0.0, 5e-324, -5e-324, 1e300, -1e300]), st.floats())


@st.composite
def cell_states(draw):
    """2 to 6 states (1 to 5 steps) of 2 to 7 cells, and the indices of snapshot states."""
    m = draw(st.integers(2, 7))
    column = st.lists(CELL_VALUES, min_size=m, max_size=m).map(np.array)
    states = [TimeState(draw(CELL_VALUES), draw(column), draw(column))
              for _ in range(draw(st.integers(2, 6)))]
    return states, draw(st.lists(st.integers(0, len(states) - 1), max_size=3))


def _pde_run(states, snapshots):
    # a PdeRun as write_pde_outputs reads it: states at tau = 0.1, one report
    # per step, and the states at the ``snapshots`` indices as out_times
    m = len(states[0].u)
    cfg = RunConfig(mode="pde", M=m, tau=0.1, T=0.1 * (len(states) - 1),
                    out_times=tuple(0.1 * n for n in snapshots))
    reports = [StepReport(1, 2, [1e-13], True) for _ in states[1:]]
    return cli.PdeRun(cfg, Grid1D(m), None, None, states, reports, [], [])


def _old_cell(value):
    # the former writer's per-cell rule: text as is, integers as integers,
    # everything else as a float at 17 significant digits
    if isinstance(value, str):
        return value
    if isinstance(value, (bool, int, np.integer)):
        return str(int(value))
    return f"{float(value):.17g}"


def _csv_oracle(header, rows):
    # the former writer, csv.writer fed the old per-cell rule
    out = io.StringIO(newline="")
    writer = csv.writer(out)
    writer.writerow(header)
    for row in rows:
        writer.writerow([_old_cell(v) for v in row])
    return out.getvalue().encode("utf-8")


@st.composite
def step_reports(draw):
    """1 to 5 steps: the state times, and each step's outer and inner counts and last residual."""
    n_steps = draw(st.integers(1, 5))
    states = [TimeState(draw(CELL_VALUES), np.zeros(2), np.zeros(2)) for _ in range(n_steps + 1)]
    reports = [StepReport(draw(st.integers(0, 2**63)), draw(st.integers(0, 10**6)),
                          [draw(CELL_VALUES)], True) for _ in range(n_steps)]
    return states, reports


@st.composite
def sweep_rows(draw):
    """1 to 4 rows as ``convergence_study`` returns them: the first has empty orders."""
    rows = []
    for i in range(draw(st.integers(1, 4))):
        row = dict(zip(("tau", "err_l1", "err_l2", "err_inf"), draw(st.tuples(*[CELL_VALUES] * 4))))
        orders = ("", "", "") if i == 0 else draw(st.tuples(*[CELL_VALUES] * 3))
        row.update(zip(("order_l1", "order_l2", "order_inf"), orders))
        rows.append(row)
    return rows


class TestCsvWriter:
    def test_bytes_match_csv_writer_at_17_digits(self, tmp_path):
        # float columns, written in blocks: none, one, and more rows than one block holds
        header = ("a", "b", "c")
        path = tmp_path / "out.csv"
        values = np.array([0.0, -0.0, math.inf, -math.inf, math.nan, 1e-300, 0.1, -2.5e-7])
        for n_rows in (0, 1, 2 * cli._CSV_BLOCK_ROWS + 5):
            columns = np.random.default_rng(3).choice(values, size=(3, n_rows))
            rows = cli._ColumnRows(*columns)
            assert len(rows) == n_rows
            cli._write_csv(path, header, rows)
            assert path.read_bytes() == _csv_oracle(header, columns.T), n_rows

    @settings(derandomize=True, max_examples=60, deadline=None)
    @given(step_reports(), sweep_rows())
    @example(
        ([TimeState(t, np.zeros(2), np.zeros(2)) for t in (0.0, -0.0, 0.1)],
         [StepReport(2**63, 0, [5e-324], True), StepReport(1, 7, [-0.0], True)]),
        [dict(tau=0.1, err_l1=1.7976931348623157e308, err_l2=-0.0, err_inf=5e-324,
              order_l1="", order_l2="", order_inf=""),
         dict(tau=0.05, err_l1=1e-300, err_l2=math.inf, err_inf=math.nan,
              order_l1=-0.0, order_l2=5e-324, order_inf=1e300)],
    )
    def test_count_and_order_files_match_the_csv_writer_oracle(self, drawn, rows):
        states, reports = drawn
        run = replace(_pde_run(states, []), reports=reports)
        inner = np.array([r.inner_iters_total for r in reports], dtype=float)
        iterations = [(n, states[n].t, r.outer_iters, r.inner_iters_total, r.residual_history[-1])
                      for n, r in enumerate(reports, start=1)]
        summary = [(int(inner.min()), int(inner.max()), float(inner.mean()))]
        header = ("tau", "err_l1", "err_l2", "err_inf", "order_l1", "order_l2", "order_inf")
        orders = [tuple(row[k] for k in header) for row in rows]
        with tempfile.TemporaryDirectory() as out:
            cli.write_pde_outputs(run, out)
            cli.write_orders(rows, out)
            for name, expected in (
                ("iterations.csv", _csv_oracle(("step", "t", "outer", "inner_total", "residual"), iterations)),
                ("summary.csv", _csv_oracle(("n_min", "n_max", "n_ave"), summary)),
                ("orders.csv", _csv_oracle(header, orders)),
            ):
                with open(os.path.join(out, name), "rb") as handle:
                    assert handle.read() == expected, name

    @settings(derandomize=True, max_examples=60, deadline=None)
    @given(cell_states())
    @example(([TimeState(0.0, np.array([-0.0, 5e-324]), np.array([1e300, 0.0]))] * 2, []))
    def test_cell_files_match_the_csv_writer_oracle(self, drawn):
        states, snapshots = drawn
        run = _pde_run(states, snapshots)
        x = run.grid.centers
        with tempfile.TemporaryDirectory() as out:
            cli.write_pde_outputs(run, out)
            with open(os.path.join(out, "snapshots.csv"), "rb") as handle:
                assert handle.read() == cell_csv_bytes([states[n] for n in snapshots], x)
            with open(os.path.join(out, "phase.csv"), "rb") as handle:
                assert handle.read() == cell_csv_bytes(states, x)

    def test_cell_files_are_written_one_state_at_a_time(self, tmp_path):
        # the writer's peak does not grow with the number of states; a copy
        # of every state's cells grows it by about 7 KB per state at M = 100
        def peak(n_states):
            u = np.linspace(-5.0, 5.0, 100)
            states = [TimeState(0.1 * n, u, u / 5.0) for n in range(n_states)]
            run = _pde_run(states, [0, n_states - 1])
            tracemalloc.start()
            try:
                start = tracemalloc.get_traced_memory()[0]
                cli.write_pde_outputs(run, tmp_path)
                return tracemalloc.get_traced_memory()[1] - start
            finally:
                tracemalloc.stop()

        assert peak(200) - peak(10) < 16 * 1024

    @pytest.mark.parametrize("offset", [None, -1, 0, 1])
    def test_trajectory_files_match_the_csv_writer_oracle(self, tmp_path, offset):
        # one row, and one write block of rows less one, exactly and plus one
        n = 1 if offset is None else cli._CSV_BLOCK_ROWS + offset
        header = ("t", "u", "chi")
        coupled = load_config(None, "ode-coupled", overrides={"tau": 1e-3, "T": n * 1e-3})
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", RuntimeWarning)
            times, u, chi = cli.run_ode_coupled(coupled, SolverOptions(), tmp_path / "coupled")
        assert len(times) == n + 1
        written = (tmp_path / "coupled" / "trajectory.csv").read_bytes()
        assert written == rows_csv_bytes(header, zip(times[1:], u[1:], chi[1:]))

        driven = load_config(None, "ode-driven", overrides={"tau": 3.75e-3, "T": n * 3.75e-3})
        rows = cli.run_ode_driven(driven, SolverOptions(), tmp_path / "driven")
        env = calibrate_envelope(driven.b, driven.b_bar, driven.theta0, driven.envelope)
        v_init = float(equilibrium_fraction(driven_schedule(0.0), driven.b))
        expected = drive_play_per_step(driven_schedule, env, driven.tau, driven.T, v_init)
        assert np.array_equal(rows.view(np.int64), expected.view(np.int64))
        written = (tmp_path / "driven" / "trajectory.csv").read_bytes()
        assert written == rows_csv_bytes(header, expected)

    def test_trajectory_is_written_a_block_of_rows_at_a_time(self, monkeypatch, tmp_path):
        # the coupled writer's peak does not grow with the trajectory's
        # length; a copy of the rows grows it by 24 bytes a row, 432 KB here
        def peak(n_rows):
            times = np.arange(n_rows + 1) * 1e-3
            run = (times, np.cos(times), np.sin(times))
            monkeypatch.setattr(cli, "simulate_ode_coupled", lambda *args, **kwargs: run)
            tracemalloc.start()
            try:
                start = tracemalloc.get_traced_memory()[0]
                cli.run_ode_coupled(None, None, tmp_path)
                return tracemalloc.get_traced_memory()[1] - start
            finally:
                tracemalloc.stop()

        assert peak(20 * cli._CSV_BLOCK_ROWS) - peak(2 * cli._CSV_BLOCK_ROWS) < 64 * 1024
