"""The statistics ``tools/bench_pairs.py`` writes into the BENCH files."""

import importlib.util
from pathlib import Path

import pytest

_PATH = Path(__file__).resolve().parent.parent / "tools" / "bench_pairs.py"
_SPEC = importlib.util.spec_from_file_location("bench_pairs", _PATH)
bench_pairs = importlib.util.module_from_spec(_SPEC)
_SPEC.loader.exec_module(bench_pairs)

SPEC = {
    "end_to_end": [
        {"name": "sim_s", "unit": "s", "better": "lower"},
        {"name": "rate", "unit": "1/s", "better": "higher"},
        {"name": "rare_s", "unit": "s", "better": "lower"},
    ]
}
CRASH = {"correct": False, "attempted": 1, "failed": 1, "metrics": {}}


def result(**values):
    return {
        "correct": True,
        "attempted": 1,
        "failed": 0,
        "metrics": {name: {"value": value} for name, value in values.items()},
    }


def pairs(parent_change, first="parent"):
    # rotated through the layouts as main() does
    layouts = bench_pairs.LAYOUTS
    return [{"first": first, "layout": layouts[i % len(layouts)], "parent": p, "change": c}
            for i, (p, c) in enumerate(parent_change)]


class TestSummarize:
    def test_order_statistics(self):
        stats = bench_pairs.summarize([3.0, 1.0, 5.0, 2.0, 4.0], 4, "s", "lower")
        assert stats == {
            "unit": "s",
            "better": "lower",
            "pairs": 5,
            "samples": [3.0, 1.0, 5.0, 2.0, 4.0],
            "min": 1.0,
            "median": 3.0,
            "q1": 2.0,
            "q3": 4.0,
            "pair_wins": 4,
        }


class TestSideRecord:
    def records(self, runs):
        return {side: bench_pairs.side_record(side, runs, SPEC, {}) for side in bench_pairs.SIDES}

    def test_a_tie_counts_for_neither_side(self):
        runs = {"w": pairs([
            (result(sim_s=1.0, rate=5.0), result(sim_s=0.9, rate=6.0)),
            (result(sim_s=1.0, rate=5.0), result(sim_s=1.0, rate=5.0)),
            (result(sim_s=1.0, rate=5.0), result(sim_s=1.1, rate=4.0)),
            (result(sim_s=2.0, rate=5.0), result(sim_s=1.0, rate=7.0)),
        ])}
        records = self.records(runs)
        wins = {side: rec["workloads"]["w"]["metrics"]["sim_s"]["pair_wins"]
                for side, rec in records.items()}
        assert wins == {"parent": 1, "change": 2}
        # higher is better for a rate
        rate = {side: rec["workloads"]["w"]["metrics"]["rate"]["pair_wins"]
                for side, rec in records.items()}
        assert rate == {"parent": 1, "change": 2}
        assert records["change"]["workloads"]["w"]["metrics"]["sim_s"]["samples"] == [
            0.9, 1.0, 1.1, 1.0
        ]

    def test_a_crashed_run_is_one_failed_operation(self):
        runs = {"w": pairs([
            (result(sim_s=1.0), result(sim_s=0.5)),
            (result(sim_s=1.0), CRASH),
            (result(sim_s=1.0), result(sim_s=0.5)),
        ])}
        records = self.records(runs)
        change = records["change"]["workloads"]["w"]
        assert (change["pairs"], change["attempted"], change["failed"]) == (3, 3, 1)
        assert change["correct"] is False
        # the crashed pair gives neither side a sample
        assert change["metrics"]["sim_s"]["pairs"] == 2
        parent = records["parent"]["workloads"]["w"]
        assert (parent["attempted"], parent["failed"], parent["correct"]) == (3, 0, True)
        assert parent["metrics"]["sim_s"]["samples"] == [1.0, 1.0]

    def test_a_metric_with_fewer_than_two_samples_is_skipped(self):
        runs = {"w": pairs([
            (result(sim_s=1.0, rare_s=3.0), result(sim_s=0.5, rare_s=2.0)),
            (result(sim_s=1.0), result(sim_s=0.5)),
        ])}
        for record in self.records(runs).values():
            assert set(record["workloads"]["w"]["metrics"]) == {"sim_s"}

    def test_write_s_is_summarized_as_ungated(self):
        runs = {"w": pairs([
            (result(sim_s=1.0, write_s=0.3), result(sim_s=0.9, write_s=0.2)),
            (result(sim_s=1.0, write_s=0.3), result(sim_s=1.1, write_s=0.1)),
        ])}
        metrics = self.records(runs)["change"]["workloads"]["w"]["metrics"]
        assert (metrics["write_s"]["samples"], metrics["write_s"]["pair_wins"]) == ([0.2, 0.1], 2)
        assert metrics["write_s"]["gated"] is False
        assert metrics["sim_s"]["gated"] is True

    def test_peak_rss_median_per_layout(self):
        rss = [(38.0, 37.5), (38.3, 37.9), (38.1, 37.7), (38.2, 37.6), (38.5, 37.8)]
        runs = {"w": pairs([(result(peak_rss_mb=p), result(peak_rss_mb=c)) for p, c in rss])}
        records = self.records(runs)
        change = records["change"]["workloads"]["w"]["peak_rss_mb_by_layout"]
        assert change["pairs"] == {"l": 2, "ll": 2, "lll": 1}
        assert change["medians"] == pytest.approx({"l": 37.55, "ll": 37.85, "lll": 37.7})
        assert change["spread"] == pytest.approx(0.3)
        parent = records["parent"]["workloads"]["w"]["peak_rss_mb_by_layout"]
        assert parent["medians"] == pytest.approx({"l": 38.1, "ll": 38.4, "lll": 38.1})

    def test_no_peak_rss_gives_no_layout_medians(self):
        records = self.records({"w": pairs([(result(sim_s=1.0), CRASH)] * 2)})
        layouts = records["change"]["workloads"]["w"]["peak_rss_mb_by_layout"]
        assert layouts == {"pairs": {}, "medians": {}, "spread": None}

    def test_first_in_pair_follows_the_order_run(self):
        runs = {"w": pairs([(result(sim_s=1.0), result(sim_s=0.5))] * 2, first="change")}
        records = self.records(runs)
        assert records["change"]["workloads"]["w"]["first_in_pair"] == [True, True]
        assert records["parent"]["workloads"]["w"]["first_in_pair"] == [False, False]


def test_run_that_crashes_counts_as_one_failed_operation(tmp_path, capsys):
    # no bench/run.py under tmp_path: the interpreter exits non-zero
    assert bench_pairs.run_bench(tmp_path, "ode-long", 1) == CRASH
    assert "run.py" in capsys.readouterr().err


def test_ungated_metrics_come_from_the_full_record(tmp_path):
    # a stand-in bench/run.py: write_s is in its record, not its last line
    (tmp_path / "bench").mkdir()
    (tmp_path / "bench" / "run.py").write_text(
        "import json, pathlib\n"
        "out = pathlib.Path('.bench_results')\n"
        "out.mkdir()\n"
        "metrics = {'sim_s': {'value': 1.0, 'unit': 's', 'samples': 3},\n"
        "           'write_s': {'value': 0.25, 'unit': 's', 'samples': 3}}\n"
        "(out / 'w-seed0-trace0.json').write_text(json.dumps({'metrics': metrics}))\n"
        "line = {'correct': True, 'attempted': 3, 'failed': 0,\n"
        "        'metrics': {'sim_s': {'value': 1.0, 'unit': 's'}}}\n"
        "print(json.dumps(line))\n",
        encoding="utf-8",
    )
    got = bench_pairs.run_bench(tmp_path, "w", 1)
    assert got["metrics"]["sim_s"] == {"value": 1.0, "unit": "s"}
    assert got["metrics"]["write_s"]["value"] == 0.25


@pytest.mark.parametrize("pairs_arg", ["1", "4"])
def test_fewer_than_five_pairs_refused(pairs_arg, capsys):
    argv = ["--parent", "HEAD", "--workload", "w", "--pairs", pairs_arg,
            "--out-parent", "p.json", "--out-change", "c.json"]
    with pytest.raises(SystemExit) as info:
        bench_pairs.main(argv)
    assert info.value.code == 2
    assert "at least 5 pairs" in capsys.readouterr().err


def test_malloc_variables_recorded():
    # glibc's malloc tunables move peak_rss_mb, so the provenance names them
    environ = {"MALLOC_MMAP_THRESHOLD_": "131072", "MALLOC_ARENA_MAX": "2", "PATH": "/bin",
               "XMALLOC_": "no", "LD_PRELOAD": ""}
    assert bench_pairs.malloc_environment(environ) == {
        "MALLOC_ARENA_MAX": "2", "MALLOC_MMAP_THRESHOLD_": "131072"
    }
    assert bench_pairs.malloc_environment({"PATH": "/bin"}) == {}


def test_python_variables_recorded():
    # without cached bytecode every worker compiles src/ again, which moves
    # setup_s and peak_rss_mb, so the provenance names the interpreter settings
    environ = {"PYTHONDONTWRITEBYTECODE": "1", "PYTHONHASHSEED": "0", "PATH": "/bin",
               "MYPYTHON": "no", "PYTHONPATH": "src"}
    assert bench_pairs.python_environment(environ) == {
        "PYTHONDONTWRITEBYTECODE": "1", "PYTHONHASHSEED": "0", "PYTHONPATH": "src"
    }
    assert bench_pairs.python_environment({"PATH": "/bin"}) == {}


def test_numpy_lapack_build_recorded():
    # the bundled LAPACK solves the Newton systems, so its build is provenance
    config = {"Build Dependencies": {"lapack": {
        "name": "scipy-openblas", "found": True, "version": "0.3.31",
        "openblas configuration": "OpenBLAS 0.3.31 USE64BITINT DYNAMIC_ARCH Haswell",
        "lib directory": "/somewhere",
    }}}
    assert bench_pairs.numpy_lapack(config) == {
        "name": "scipy-openblas", "version": "0.3.31",
        "openblas configuration": "OpenBLAS 0.3.31 USE64BITINT DYNAMIC_ARCH Haswell",
    }
    # a build without OpenBLAS has no configuration line
    assert bench_pairs.numpy_lapack({"Build Dependencies": {"lapack": {"name": "mkl"}}}) == {
        "name": "mkl", "version": None, "openblas configuration": None
    }
    import numpy as np
    assert bench_pairs.numpy_lapack(np.show_config(mode="dicts"))["name"]


def test_cpu_dispatch_targets_recorded():
    # numpy's exp and log loops are picked by CPU feature, and so are its bits
    features = {"SSE2": True, "AVX512F": False, "AVX2": True}
    assert bench_pairs.cpu_dispatch(features) == ["SSE2", "AVX2"]
    from numpy._core._multiarray_umath import __cpu_features__
    assert set(bench_pairs.cpu_dispatch(__cpu_features__)) <= set(__cpu_features__)


def test_layouts_differ_in_length_and_sides_do_not():
    # each layout's directories sit at one path length on both sides
    assert len({len(name) for name in bench_pairs.LAYOUTS}) == len(bench_pairs.LAYOUTS)
    assert len({len(side) for side in bench_pairs.SIDES}) == 1
