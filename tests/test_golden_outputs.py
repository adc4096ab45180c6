"""Every CLI mode's outputs on small runs, byte for byte.

Each case runs ``main()`` on a small config, with the case's CLI flags if
it has any, and compares its exit code and the sha256 of its stdout, of
its stderr when it wrote any, of the messages of the warnings it raised
when it raised any, and of every file it writes with the digests recorded
below.  The runs that fail pin their failure message, counts
included.  A change that moves any output bit fails here; a change
meant to move outputs re-records them (run this file as a script to print
the digests of the current tree) and says why in CHANGES.md.
"""

import ast
import contextlib
import hashlib
import io
import json
import os
import subprocess
import sys
import tempfile
import warnings
from pathlib import Path

import pytest

from cryostef.cli import main, simulate_pde
from cryostef.config import load_config
from cryostef.solve import SolverOptions

CASES = {
    "pde-eq": ("pde", "closure = eq\nM = 100\nT = 0.3\nout_times = 0.1,0.2,0.3\n"),
    "pde-neq": ("pde", "closure = neq\nM = 100\nT = 0.3\nout_times = 0.1,0.2,0.3\n"),
    # from the reference start hyst follows eq until it cools; this start lies
    # inside the envelope, and the cells reach both of its curves
    "pde-hyst": (
        "pde",
        "closure = hyst\nM = 100\nT = 0.3\nout_times = 0.1,0.2,0.3\n"
        "u_init = -2\nchi_init = F(u0) + 0.1\nbc_left = (0,-2),(0.3,2)\n",
    ),
    "ode-coupled-eq": ("ode-coupled", "closure = eq\nT = 1\n"),
    "ode-coupled-neq": ("ode-coupled", "closure = neq\nT = 1\n"),
    "ode-coupled-hyst": ("ode-coupled", "closure = hyst\nT = 1\nchi_init = 0.85\n"),
    "ode-driven": ("ode-driven", "T = 3\n"),
    "convergence": (
        "convergence", "taus = 0.1,0.01\ntau_fine = 0.001\nT = 2\nchi_init = 0.85\n"
    ),
    "calibrate": ("calibrate", ""),
    # the benchmark's scalar runs at seed 0: the default sweep (111,100 steps),
    # and the coupled run with its forcing written as an expression
    "convergence-default": ("convergence", ""),
    "ode-coupled-expression": (
        "ode-coupled",
        "tau = 0.0001\nT = 2.0\nforcing = 16.0*cos(pi*t) - 15.0 if t < 1.0 "
        "else 4.0*cos(pi*t) + (4.0*t - 30.0)\n",
    ),
    # the reference grid coarsened to M = 30 spends step 1's Newton budget
    "pde-m30-stall": ("pde", "M = 30\n"),
    "pde-fixed-point-stall": ("pde", "", "--solver", "fixed-point"),
}

DIGESTS = {
    "calibrate": {
        "exit": 0,
        "stdout": "f7a268440bb65eff0e0ab4fb314604f6b8de9b30693a8878355b81786a804ed9",
        "envelope.csv": "7817a6ea1136e377f7f702838d52a183476ddc433be799847c7eea92320df280",
    },
    "convergence": {
        "exit": 0,
        "stdout": "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855",
        "orders.csv": "e762d1a661d92694ba0a0f91cbb3acae25a29da5a5efa4d3c4513f3e9de7aa9b",
    },
    "convergence-default": {
        "exit": 0,
        "stdout": "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855",
        "warnings": "99e8b6cb4960bb3c5b5683d6e9ed7fd41fd0665a4d37b79ba25db23fb359d808",
        "orders.csv": "06c780bc5c0b646eb600348f4a078cd2333b635217957a9861e2440b49328512",
    },
    "ode-coupled-eq": {
        "exit": 0,
        "stdout": "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855",
        "trajectory.csv": "561406980d28fd15e5d29ece840a6e4b8a286c80cdb43e4e2524978b1881c0ec",
    },
    "ode-coupled-expression": {
        "exit": 0,
        "stdout": "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855",
        "warnings": "ab4c13eabda0928990d650103a3484caabc464a4b178b8d2683ba2cab299c0c7",
        "trajectory.csv": "997b7e8178057f27ebe869a9cf5e80d80c0d5c62cb384de9bac20156410b55f4",
    },
    "ode-coupled-hyst": {
        "exit": 0,
        "stdout": "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855",
        "trajectory.csv": "1ce43ff901af0197017f52fabd33425742766c6425e8d21ba80b2beb6df44301",
    },
    "ode-coupled-neq": {
        "exit": 0,
        "stdout": "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855",
        "trajectory.csv": "b58dbeafe329600b6544b43ccac9c77ad0313baab9ea244cd3132e2574c85b56",
    },
    "ode-driven": {
        "exit": 0,
        "stdout": "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855",
        "trajectory.csv": "105daacf02b1c53dce37698b777fcaff5efade2b68f0e157739d629fdf4e1d86",
    },
    "pde-eq": {
        "exit": 0,
        "stdout": "1144d0cf0d167bf839f0d0cf9e80368ea693c27ef5b2c55e71f9b59b0e49cf99",
        "iterations.csv": "a14eafeded39c114e1dfbaa303a8d647f179573a18f0094214105606bf9a7a37",
        "phase.csv": "78e1ece67cf7cce5054b4089f137607b6b3b95b042c344de3b058dc7b4f527f2",
        "snapshots.csv": "1bad7735291755444cf8553f8a1cb4b1a67058604c5b919702e7a1258a1d9b33",
        "summary.csv": "632ebca69bd31cff710627b7f3b2a3cc0665461175b90fdf839ec84d93cd95bf",
    },
    "pde-fixed-point-stall": {
        "exit": 3,
        "stdout": "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855",
        "stderr": "abc5fd933d9c48f2e9011843f66581bd01a4dc4419545a0f252a2a3de17da81b",
    },
    "pde-hyst": {
        "exit": 0,
        "stdout": "faf395614738ba0029825d790e6d695c511b4c693e410398503b9ce2af58208b",
        "iterations.csv": "2d4430e3e662d4e282d8f5107ef8eba978f4fba6100c99e1f2a27f982af3c02d",
        "phase.csv": "7f86ca5c21c3db595256ba3aac4310aab99259f8f11a933690feae3a37bbb37f",
        "snapshots.csv": "8db6ecb00239ed451a728c013c1c8ad52e6fc2c1b60b1eb2db3b816cd3e6afba",
        "summary.csv": "aba63a0722d3b98cc5f47eb196ee55d5da5b0d8753fa314898d083347af40648",
    },
    "pde-m30-stall": {
        "exit": 3,
        "stdout": "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855",
        "stderr": "8caaf8c5ef010a0d84c9986c490de9f4a23854613c0d3add13e73e8bdf9f2a02",
    },
    "pde-neq": {
        "exit": 0,
        "stdout": "1144d0cf0d167bf839f0d0cf9e80368ea693c27ef5b2c55e71f9b59b0e49cf99",
        "iterations.csv": "523e4b5ee0ed1c6963d611727cf00541aa6773a59973a745b4697e239b5d4cce",
        "phase.csv": "0dd3d2eac08878ac0f86066d2007628d22b1cff4cf714888976e5a6bd3dd1344",
        "snapshots.csv": "541ac5ed067d23b16776a2976aa1a4bad6cb219c725698d555b98ca553137af5",
        "summary.csv": "9b3df6a59dfab7bbc5fad01952c6e2f40d7a559d4d4608d78194057fc9e28503",
    },
}


def _sha(data):
    return hashlib.sha256(data).hexdigest()


def outputs(work_dir, mode, text, *flags):
    """Exit code and sha256 of stdout, stderr, warnings and each output file of one run."""
    work_dir = Path(work_dir)
    cfg = work_dir / "run.cfg"
    cfg.write_text(text)
    out = work_dir / "out"
    stdout = io.StringIO()
    stderr = io.StringIO()
    # a warning's text, not the source line it names, which depends on the checkout
    with contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(stderr), \
            warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        code = main([mode, "--config", str(cfg), "--out", str(out), *flags])
    digests = {"exit": code, "stdout": _sha(stdout.getvalue().encode())}
    if stderr.getvalue():
        digests["stderr"] = _sha(stderr.getvalue().encode())
    if caught:
        text = "".join(f"{w.category.__name__}: {w.message}\n" for w in caught)
        digests["warnings"] = _sha(text.encode())
    # a failed run writes no output directory
    for path in sorted(out.iterdir()) if out.is_dir() else ():
        digests[path.name] = _sha(path.read_bytes())
    return digests


@pytest.mark.parametrize("case", sorted(CASES))
def test_outputs_keep_their_bytes(case, tmp_path):
    assert outputs(tmp_path, *CASES[case]) == DIGESTS[case]


# numpy picks its exp and log loops by CPU feature at import.  With these
# targets switched off an AVX-512 CPU runs the loops of one without them,
# whose exp rounds some values otherwise, so the cases that call np.exp
# write other bytes; the cases left out write the same bytes under both
DISPATCH_OFF = "X86_V4 AVX512_ICL AVX512_SPR"
DIGESTS_DISPATCH_OFF = {
    "calibrate": {
        "exit": 0,
        "stdout": "f7a268440bb65eff0e0ab4fb314604f6b8de9b30693a8878355b81786a804ed9",
        "envelope.csv": "eab32bec1262b0f47ea2b219ff5bdd94abe66835622d2e65f7bfaf18dde2f908",
    },
    "pde-eq": {
        "exit": 0,
        "stdout": "1144d0cf0d167bf839f0d0cf9e80368ea693c27ef5b2c55e71f9b59b0e49cf99",
        "iterations.csv": "ef287a9bce87156bff69d6ed0859fc3cb4e13595f941dd3af7c646668a2f9f28",
        "phase.csv": "2107346968583b6b841259a30c3c6cf0884e82ea320ae5b52587160aacc866f9",
        "snapshots.csv": "8ffc24fe97ca59697e7fcaad391cff478b9dd2d635ce82bee085b0aab7d3819b",
        "summary.csv": "632ebca69bd31cff710627b7f3b2a3cc0665461175b90fdf839ec84d93cd95bf",
    },
    "pde-hyst": {
        "exit": 0,
        "stdout": "faf395614738ba0029825d790e6d695c511b4c693e410398503b9ce2af58208b",
        "iterations.csv": "8ca426c8200d1400d3c9c08715910f2be82a43264b647302d612b6088f05af38",
        "phase.csv": "d902666d30af5542860c590cb09dedac3e7b2e16d455a22abaa45103a0ab5b37",
        "snapshots.csv": "b539d2b3bdd6b46e161cc92ce036ced9acb02a24ed518df2081606c35775c4ca",
        "summary.csv": "aba63a0722d3b98cc5f47eb196ee55d5da5b0d8753fa314898d083347af40648",
    },
    "pde-neq": {
        "exit": 0,
        "stdout": "1144d0cf0d167bf839f0d0cf9e80368ea693c27ef5b2c55e71f9b59b0e49cf99",
        "iterations.csv": "7033a7b3ff4a42873d51f044acf9959bdc123f4530e0d3ef5f8843265eefeabd",
        "phase.csv": "b6d55c5478ee7a5f8c8f21bb740c6a1b21961f02deeb79120ebbb0462cece9c1",
        "snapshots.csv": "44ef174d7c6f32a31d75a7c583713c8326231cbfd181ef6f4e4157a6ccbda7a1",
        "summary.csv": "9b3df6a59dfab7bbc5fad01952c6e2f40d7a559d4d4608d78194057fc9e28503",
    },
}


@pytest.fixture(scope="module")
def outputs_dispatch_off():
    # one interpreter started with the targets off runs every case below
    env = dict(os.environ, NPY_DISABLE_CPU_FEATURES=DISPATCH_OFF)
    src = str(Path(__file__).resolve().parent.parent / "src")
    env["PYTHONPATH"] = os.pathsep.join(filter(None, (src, env.get("PYTHONPATH"))))
    proc = subprocess.run(
        [sys.executable, __file__, *sorted(DIGESTS_DISPATCH_OFF)],
        env=env, capture_output=True, text=True, timeout=120, check=True,
    )
    return ast.literal_eval("{" + proc.stdout + "}")


@pytest.mark.parametrize("case", sorted(DIGESTS_DISPATCH_OFF))
def test_outputs_keep_their_bytes_with_dispatch_targets_off(case, outputs_dispatch_off):
    assert outputs_dispatch_off[case] == DIGESTS_DISPATCH_OFF[case]


def reference_run_digest(closure):
    """sha256 over the pde reference run (M = 100, tau = 0.01, T = 3) of ``closure``.

    Every state's u and chi bytes, then every report's outer and inner
    counts and residual history.
    """
    run = simulate_pde(load_config(None, "pde", overrides={"closure": closure}), SolverOptions())
    assert len(run.states) == 301
    digest = hashlib.sha256()
    for state in run.states:
        digest.update(state.u.tobytes() + state.upsilon.tobytes())
    for r in run.reports:
        digest.update(repr((r.outer_iters, r.inner_iters_total, r.residual_history)).encode())
    return digest.hexdigest()


# the golden pde cases stop at T = 0.3: these runs reach the refreeze and
# carry each step's state through 300 steps
REFERENCE_RUN_DIGESTS = {
    "eq": "c0cc7aab8d80e77724613040d02ee4c25e64602698090e07d8406c486a6398eb",
    "hyst": "321d18da6b375cc2e78baacbcc055ccf04316e4811a4fcb031c67e28f3702d53",
    "neq": "8dabe15fc2d8793a20946e8901c5d162a0e2db93341bad3dbb764af3f086d110",
}


@pytest.mark.parametrize("closure", sorted(REFERENCE_RUN_DIGESTS))
def test_reference_runs_keep_their_bits(closure):
    assert reference_run_digest(closure) == REFERENCE_RUN_DIGESTS[closure]


if __name__ == "__main__":
    # the digests of the current tree: of the cases named, or of every case
    for case in sys.argv[1:] or sorted(CASES):
        with tempfile.TemporaryDirectory() as work_dir:
            sys.stdout.write(f"    {case!r}: {outputs(work_dir, *CASES[case])!r},\n")
