"""The benchmark harness still binds to the package's public names.

``bench/worker.py`` imports names from cryostef and ``bench/spans.py``
wraps functions and methods of every layer by name, so renaming or
deleting one of them breaks the benchmark.  Importing the worker and
installing and uninstalling its tracer and time stamps surfaces that here.
"""

import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent.parent / "bench"


def _bindings():
    # every attribute of every loaded cryostef module and of the classes they define
    seen = {}
    for name, mod in list(sys.modules.items()):
        if mod is None or not (name == "cryostef" or name.startswith("cryostef.")):
            continue
        for key, value in vars(mod).items():
            seen[name, key] = value
            if isinstance(value, type) and value.__module__ == name:
                for attr, member in vars(value).items():
                    seen[name, key, attr] = member
    return seen


def _same(a, b):
    return a.keys() == b.keys() and all(a[key] is b[key] for key in a)


@pytest.fixture
def worker(monkeypatch):
    monkeypatch.syspath_prepend(str(BENCH))
    import worker

    return worker


def test_tracer_installs_and_uninstalls(worker):
    from spans import Tracer

    before = _bindings()
    tracer = Tracer()
    tracer.install(max_inner=20)
    assert not _same(_bindings(), before)
    tracer.uninstall()
    assert _same(_bindings(), before)


@pytest.mark.parametrize("workload", ["pde-reference", "ode-sweep", "ode-long"])
def test_step_stamps_install_and_undo(worker, workload):
    from spans import Patches

    before = _bindings()
    patches = Patches()
    worker._install_stamps(patches, workload, worker.Timeline())
    assert not _same(_bindings(), before)
    patches.undo()
    assert _same(_bindings(), before)


@pytest.mark.parametrize("workload", ["pde-reference", "ode-sweep", "ode-long"])
def test_step_stamps_fire_once_per_step(worker, workload):
    # the worker's set-up time ends at its first stamp, and each step adds one:
    # a time loop that stopped calling cli.advance or ScalarOdeStepper.step once
    # per step would leave the worker without them
    import warnings

    from spans import Patches

    from cryostef import cli
    from cryostef.config import load_config
    from cryostef.solve import SolverOptions

    pde = workload == "pde-reference"
    cfg = load_config(None, "pde" if pde else "ode-coupled", overrides={"M": 10, "T": 0.05})
    simulate = cli.simulate_pde if pde else cli.simulate_ode_coupled
    timeline = worker.Timeline()
    patches = Patches()
    worker._install_stamps(patches, workload, timeline)
    try:
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", RuntimeWarning)  # a start clamped into the envelope
            simulate(cfg, SolverOptions())
    finally:
        patches.undo()
    assert len(timeline.stamps) == 5
    assert len(timeline.step_s) == (5 if pde else 0)
