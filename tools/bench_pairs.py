"""Paired benchmark timings of a parent revision against the working tree.

    python3 tools/bench_pairs.py --parent HEAD~1 --pairs 10 \\
        --workload ode-sweep ode-long pde-reference \\
        --out-parent BENCH_0.json --out-change BENCH_1.json

The committed files of ``--parent`` are extracted with ``git archive``
into one new directory, and the working tree's files (tracked or not
ignored, as they are on disk) are copied into another, so that neither
side runs among the other's build and benchmark leftovers.  Then, for
each pair and each workload, ``bench/run.py --workload W`` runs once in
each copy for ``BENCHMARK.json``'s ``run_seconds``, alternating which side
runs first, so that a slow spell of a shared machine falls on both sides.
Both copies run under the interpreter that runs this script.

Each output file holds one side: provenance (nproc, CPU, Python and numpy
versions, both revisions, a digest of the ``src/`` files measured and any
``MALLOC_*`` environment variables, which move ``peak_rss_mb``) and,
per workload and for every end-to-end metric that ``BENCHMARK.json``
names, the samples in pair order, their min, median and quartiles, and the
number of pairs this side won (a tie counts for neither side).  A run that
crashes counts as one attempted and one failed operation and gives no
samples, so each metric records how many pairs its statistics are over.
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

ROOT = Path(__file__).resolve().parent.parent
SIDES = ("parent", "change")


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
    """One ``bench/run.py`` run: its last output line, or for a crash one failed operation."""
    proc = subprocess.run(
        [sys.executable, "bench/run.py", "--workload", workload, "--seconds", str(seconds)],
        cwd=root, capture_output=True, text=True,
    )
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        sys.stderr.write(proc.stderr[-2000:])
        return {"correct": False, "attempted": 1, "failed": 1, "metrics": {}}
    return json.loads(lines[-1])


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
    workloads = {}
    for workload, pairs in runs.items():
        metrics = {}
        for m in spec["end_to_end"]:
            name = m["name"]
            both = [(p[side]["metrics"].get(name), p[other]["metrics"].get(name)) for p in pairs]
            both = [(a["value"], b["value"]) for a, b in both if a is not None and b is not None]
            if len(both) < 2:
                continue
            sign = 1.0 if m["better"] == "lower" else -1.0
            wins = sum(sign * (a - b) < 0.0 for a, b in both)
            metrics[name] = summarize([a for a, _ in both], wins, m["unit"], m["better"])
        workloads[workload] = {
            "pairs": len(pairs),
            "correct": all(p[side]["correct"] for p in pairs),
            "attempted": sum(p[side]["attempted"] for p in pairs),
            "failed": sum(p[side]["failed"] for p in pairs),
            "first_in_pair": [p["first"] == side for p in pairs],
            "metrics": metrics,
        }
    return {"side": side, "provenance": provenance, "workloads": workloads}


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
        roots = {side: Path(tmp) / side for side in SIDES}
        extract(parent_sha, roots["parent"])
        copy_worktree(roots["change"])
        runs = {w: [] for w in args.workload}
        for i in range(args.pairs):
            order = SIDES if i % 2 == 0 else SIDES[::-1]
            for workload in args.workload:
                pair = {"first": order[0]}
                for side in order:
                    pair[side] = run_bench(roots[side], workload, seconds)
                runs[workload].append(pair)
                sim = {s: pair[s]["metrics"].get("sim_s", {}).get("value") for s in SIDES}
                print(f"pair {i + 1}/{args.pairs} {workload}: sim_s {sim}", flush=True)
        digests = {side: src_digest(root) for side, root in roots.items()}

    common = {
        "command": [Path(sys.executable).name, *sys.argv],
        "started_utc": started,
        "bench_seconds": seconds,
        "pairs": args.pairs,
        "nproc": os.cpu_count(),
        "cpu_model": cpu_model(),
        "python": platform.python_version(),
        "numpy": importlib.metadata.version("numpy"),
        "malloc_env": malloc_environment(os.environ),
        "parent_sha": parent_sha,
        "change_sha": head_sha,
        "change_uncommitted": dirty,
        "quartiles": "statistics.quantiles(n=4, method='inclusive')",
    }
    for side, out in (("parent", args.out_parent), ("change", args.out_change)):
        provenance = dict(common, src_digest=digests[side])
        record = side_record(side, runs, spec, provenance)
        Path(out).write_text(json.dumps(record, indent=1) + "\n", encoding="utf-8")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
