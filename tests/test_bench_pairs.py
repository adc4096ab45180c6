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
    return [{"first": first, "parent": p, "change": c} for p, c in parent_change]


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

    def test_first_in_pair_follows_the_order_run(self):
        runs = {"w": pairs([(result(sim_s=1.0), result(sim_s=0.5))] * 2, first="change")}
        records = self.records(runs)
        assert records["change"]["workloads"]["w"]["first_in_pair"] == [True, True]
        assert records["parent"]["workloads"]["w"]["first_in_pair"] == [False, False]


def test_run_that_crashes_counts_as_one_failed_operation(tmp_path, capsys):
    # no bench/run.py under tmp_path: the interpreter exits non-zero
    assert bench_pairs.run_bench(tmp_path, "ode-long", 1) == CRASH
    assert "run.py" in capsys.readouterr().err


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
