import csv
import math

import numpy as np
import pytest

from cryostef.cli import main
from cryostef.config import (
    PiecewiseLinearSchedule,
    eval_expression,
    load_config,
    parse_config_text,
    parse_schedule,
)
from cryostef.constitutive import calibrate_envelope, equilibrium_fraction
from cryostef.errors import ConfigError


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
