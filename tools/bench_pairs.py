"""Paired benchmark timings of a parent revision against the working tree.

    python3 tools/bench_pairs.py --parent HEAD~1 --pairs 10 \\
        --workload ode-sweep ode-long pde-reference \\
        --out-parent BENCH_0.json --out-change BENCH_1.json

The committed files of ``--parent`` are extracted with ``git archive``,
and the working tree's files (tracked or not ignored, as they are on
disk) are copied, each into new directories of their own, so that neither
side runs among the other's build and benchmark leftovers.  Each side is
copied into three layouts: directories whose names differ in length, the
same three names on both sides, because the length of the path a run
starts from moves its ``peak_rss_mb``.  Then, for each pair and each
workload, ``bench/run.py --workload W`` runs once in each side's copy for
``BENCHMARK.json``'s ``run_seconds``, alternating which side runs first,
so that a slow spell of a shared machine falls on both sides, and
rotating the pairs through the layouts.  Both copies run under the
interpreter that runs this script.

Each output file holds one side: provenance (nproc, CPU, Python and numpy
versions, numpy's LAPACK build, which decides whether the tridiagonal
solve can use ``dgtsv``, and its active CPU dispatch targets, which set
the bits of numpy's ``exp`` and ``log``, both revisions, a digest of the
``src/`` files measured, any ``MALLOC_*`` environment variables, which
move ``peak_rss_mb``, and any ``PYTHON*`` ones, such as
``PYTHONDONTWRITEBYTECODE``, which moves ``setup_s`` and ``peak_rss_mb``)
and, per workload and for every end-to-end metric that ``BENCHMARK.json``
names, the samples in pair order, their min, median and quartiles, and the
number of pairs this side won (a tie counts for neither side).  Each metric
says whether ``BENCHMARK.json`` gates it: ``write_s``, the CSV writing time
that ``bench/run.py`` reports in its full record but does not gate, is
summarized too, as ungated.  A run that crashes counts as one attempted
and one failed operation and gives no samples, so each metric records how
many pairs its statistics are over.  Each workload also records the
``peak_rss_mb`` median of each layout and the spread of those medians: a
difference between the sides inside that spread is the layout's, not the
change's.
"""

from __future__ import annotations

import argparse
import hashlib
import importlib.metadata
import io
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import tarfile
import tempfile
import time
from pathlib import Path

import numpy as np
from numpy._core._multiarray_umath import __cpu_features__

ROOT = Path(__file__).resolve().parent.parent
SIDES = ("parent", "change")
# end-to-end metrics that bench/run.py reports but BENCHMARK.json does not gate
UNGATED = ({"name": "write_s", "unit": "s", "better": "lower"},)
# directory names of the layouts each side is copied into, one per length
LAYOUTS = ("l", "ll", "lll")


def git(*args):
    return subprocess.run(
        ["git", *args], cwd=ROOT, capture_output=True, check=True, text=True
    ).stdout.strip()


def extract(rev, dest):
    """The committed files of ``rev`` under ``dest``."""
    archive = subprocess.run(
        ["git", "archive", "--format=tar", rev], cwd=ROOT, capture_output=True, check=True
    ).stdout
    with tarfile.open(fileobj=io.BytesIO(archive)) as tar:
        tar.extractall(dest, filter="data")


def copy_worktree(dest):
    """The working tree's tracked and non-ignored files, as on disk, under ``dest``."""
    listed = git("ls-files", "-z", "--cached", "--others", "--exclude-standard").split("\0")
    for name in filter(None, listed):
        source = ROOT / name
        if source.is_file():  # a tracked file may be deleted in the working tree
            (dest / name).parent.mkdir(parents=True, exist_ok=True)
            shutil.copy2(source, dest / name)


def src_digest(root):
    """sha256 over the path and bytes of every Python file under ``src/``."""
    digest = hashlib.sha256()
    for path in sorted((root / "src").rglob("*.py")):
        digest.update(str(path.relative_to(root)).encode() + b"\0" + path.read_bytes())
    return digest.hexdigest()


def run_bench(root, workload, seconds):
    """One ``bench/run.py`` run: its last output line, or for a crash one failed operation.

    The ungated metrics are taken from the full record the run leaves in
    ``.bench_results/`` (its default seed 0, untraced), when it holds them.
    """
    proc = subprocess.run(
        [sys.executable, "bench/run.py", "--workload", workload, "--seconds", str(seconds)],
        cwd=root, capture_output=True, text=True,
    )
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        sys.stderr.write(proc.stderr[-2000:])
        return {"correct": False, "attempted": 1, "failed": 1, "metrics": {}}
    result = json.loads(lines[-1])
    record = root / ".bench_results" / f"{workload}-seed0-trace0.json"
    if record.is_file():
        reported = json.loads(record.read_text(encoding="utf-8"))["metrics"]
        for m in UNGATED:
            if m["name"] in reported:
                result["metrics"][m["name"]] = reported[m["name"]]
    return result


def cpu_model():
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as handle:
            for line in handle:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or None


def malloc_environment(environ):
    """The ``MALLOC_*`` variables of ``environ``: glibc malloc tunables both sides run under."""
    return {name: value for name, value in sorted(environ.items()) if name.startswith("MALLOC_")}


def python_environment(environ):
    """The ``PYTHON*`` variables of ``environ``: interpreter settings both sides run under.

    With ``PYTHONDONTWRITEBYTECODE`` set, no bytecode is cached, so every
    worker compiles ``src/`` again as it starts.
    """
    return {name: value for name, value in sorted(environ.items()) if name.startswith("PYTHON")}


def numpy_lapack(config):
    """Name, version and OpenBLAS configuration of the LAPACK numpy was built with.

    ``config`` is ``numpy.show_config(mode="dicts")``.
    """
    lapack = config["Build Dependencies"]["lapack"]
    return {key: lapack.get(key) for key in ("name", "version", "openblas configuration")}


def cpu_dispatch(features):
    """The CPU features numpy dispatches on, from its ``__cpu_features__`` map."""
    return [name for name, active in features.items() if active]


def summarize(samples, wins, unit, better):
    q1, _, q3 = statistics.quantiles(samples, n=4, method="inclusive")
    return {
        "unit": unit,
        "better": better,
        "pairs": len(samples),
        "samples": samples,
        "min": min(samples),
        "median": statistics.median(samples),
        "q1": q1,
        "q3": q3,
        "pair_wins": wins,
    }


def side_record(side, runs, spec, provenance):
    """One side's file: provenance and, per workload, every metric's statistics."""
    other = SIDES[1 - SIDES.index(side)]
    reported = [dict(m, gated=True) for m in spec["end_to_end"]]
    reported += [dict(m, gated=False) for m in UNGATED]
    workloads = {}
    for workload, pairs in runs.items():
        metrics = {}
        for m in reported:
            name = m["name"]
            both = [(p[side]["metrics"].get(name), p[other]["metrics"].get(name)) for p in pairs]
            both = [(a["value"], b["value"]) for a, b in both if a is not None and b is not None]
            if len(both) < 2:
                continue
            sign = 1.0 if m["better"] == "lower" else -1.0
            wins = sum(sign * (a - b) < 0.0 for a, b in both)
            stats = summarize([a for a, _ in both], wins, m["unit"], m["better"])
            metrics[name] = dict(stats, gated=m["gated"])
        workloads[workload] = {
            "pairs": len(pairs),
            "correct": all(p[side]["correct"] for p in pairs),
            "attempted": sum(p[side]["attempted"] for p in pairs),
            "failed": sum(p[side]["failed"] for p in pairs),
            "first_in_pair": [p["first"] == side for p in pairs],
            "metrics": metrics,
            "peak_rss_mb_by_layout": layout_medians(side, pairs),
        }
    return {"side": side, "provenance": provenance, "workloads": workloads}


def layout_medians(side, pairs):
    """``side``'s ``peak_rss_mb`` median in each layout, and the spread of those medians."""
    samples = {}
    for p in pairs:
        value = p[side]["metrics"].get("peak_rss_mb")
        if value is not None:
            samples.setdefault(p["layout"], []).append(value["value"])
    medians = {layout: statistics.median(values) for layout, values in samples.items()}
    return {
        "pairs": {layout: len(values) for layout, values in samples.items()},
        "medians": medians,
        "spread": max(medians.values()) - min(medians.values()) if medians else None,
    }


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--parent", required=True, help="revision measured against the working tree")
    parser.add_argument("--workload", nargs="+", required=True)
    parser.add_argument("--pairs", type=int, default=10)
    parser.add_argument("--out-parent", required=True)
    parser.add_argument("--out-change", required=True)
    args = parser.parse_args(argv)
    if args.pairs < 5:
        parser.error("at least 5 pairs are needed for a median and quartiles worth reporting")

    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    seconds = spec["run_seconds"]
    parent_sha = git("rev-parse", args.parent)
    head_sha = git("rev-parse", "HEAD")
    dirty = bool(git("status", "--porcelain", "--untracked-files=no"))
    started = time.strftime("%Y-%m-%dT%H:%M:%SZ", time.gmtime())

    with tempfile.TemporaryDirectory(prefix="bench-pairs-") as tmp:
        roots = {(side, layout): Path(tmp) / layout / side for side in SIDES for layout in LAYOUTS}
        for layout in LAYOUTS:
            extract(parent_sha, roots["parent", layout])
            copy_worktree(roots["change", layout])
        runs = {w: [] for w in args.workload}
        for i in range(args.pairs):
            order = SIDES if i % 2 == 0 else SIDES[::-1]
            layout = LAYOUTS[i % len(LAYOUTS)]
            for workload in args.workload:
                pair = {"first": order[0], "layout": layout}
                for side in order:
                    pair[side] = run_bench(roots[side, layout], workload, seconds)
                runs[workload].append(pair)
                sim = {s: pair[s]["metrics"].get("sim_s", {}).get("value") for s in SIDES}
                print(f"pair {i + 1}/{args.pairs} {workload} in {layout}: sim_s {sim}", flush=True)
        digests = {side: src_digest(roots[side, LAYOUTS[0]]) for side in SIDES}

    common = {
        "command": [Path(sys.executable).name, *sys.argv],
        "started_utc": started,
        "bench_seconds": seconds,
        "pairs": args.pairs,
        "nproc": os.cpu_count(),
        "cpu_model": cpu_model(),
        "python": platform.python_version(),
        "numpy": importlib.metadata.version("numpy"),
        "numpy_lapack": numpy_lapack(np.show_config(mode="dicts")),
        "numpy_cpu_dispatch": cpu_dispatch(__cpu_features__),
        "malloc_env": malloc_environment(os.environ),
        "python_env": python_environment(os.environ),
        "parent_sha": parent_sha,
        "change_sha": head_sha,
        "change_uncommitted": dirty,
        "quartiles": "statistics.quantiles(n=4, method='inclusive')",
        "layouts": list(LAYOUTS),
    }
    for side, out in (("parent", args.out_parent), ("change", args.out_change)):
        provenance = dict(common, src_digest=digests[side])
        record = side_record(side, runs, spec, provenance)
        Path(out).write_text(json.dumps(record, indent=1) + "\n", encoding="utf-8")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
