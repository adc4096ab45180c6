"""Layered benchmark of cryostef: end-to-end metrics per workload, per-layer metrics from a traced run.

    python3 bench/run.py                                   # all four workloads
    python3 bench/run.py --workload pde-fine --seed 3 --seconds 40 --trace 1

Each repetition of a workload runs in a fresh interpreter (bench/worker.py),
so set-up time starts from interpreter launch and peak memory is that
child's own, read with wait4.  Repetitions continue while another one fits
in ``--seconds``.  Set-up time and memory are medians over them; simulation
and writing time are sums of the fastest repetition per chunk of steps (see
``fastest_sum``).  With ``--trace 1`` half the time runs untraced and half
traced, and the per-layer metrics come from the traced repetitions.

Every run is checked for correctness (see worker.py).  The last line of
standard output is one JSON object with ``correct``, ``attempted``,
``failed`` and the metrics that BENCHMARK.json names; a fuller record,
with provenance and every sample, goes to .bench_results/.
"""

from __future__ import annotations

import argparse
import importlib.metadata
import json
import os
import platform
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path

import workloads as wl

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
RESULTS = ROOT / ".bench_results"

# set-up time samples per untimed run: the repetitions plus set-up-only children
SETUP_SAMPLES = 7
CHILD_TIMEOUT_S = 150.0

END_TO_END_UNITS = {
    "setup_s": "s",
    "sim_s": "s",
    "write_s": "s",
    "total_s": "s",
    "cell_steps_per_s": "1/s",
    "step_p50_ms": "ms",
    "step_p95_ms": "ms",
    "peak_rss_mb": "MB",
    "fail_frac": "ratio",
    "sim_median_s": "s",
}


def layer_unit(name):
    if name.endswith("self_s"):
        return "s"
    if name.endswith("flops_computed"):
        return "flop"
    if name.endswith("bytes_computed") or name.endswith(".bytes"):
        return "B"
    if name.endswith("accept_ratio") or name == "trace.overhead":
        return "ratio"
    return "count"


class ChildFailed(Exception):
    pass


def spawn(workload, seed, mode, spans=None):
    """Run one worker to completion; returns its result with set-up time and peak RSS."""
    RESULTS.mkdir(exist_ok=True)
    result_path = RESULTS / f"child-{os.getpid()}.json"
    if result_path.exists():
        result_path.unlink()
    cmd = [sys.executable, str(BENCH / "worker.py"), "--workload", workload,
           "--seed", str(seed), "--mode", mode, "--result", str(result_path)]
    if spans:
        cmd += ["--spans", str(spans)]
    env = dict(os.environ)
    env.pop("CRYOSTEF_THREADS", None)
    log_path = RESULTS / f"child-{os.getpid()}.log"
    with open(log_path, "w", encoding="utf-8") as log:
        t_spawn = time.monotonic()
        proc = subprocess.Popen(cmd, cwd=ROOT, env=env, stdin=subprocess.DEVNULL,
                                stdout=subprocess.DEVNULL, stderr=log)
        deadline = t_spawn + CHILD_TIMEOUT_S
        pid = 0
        try:
            while not pid:
                if time.monotonic() > deadline:
                    proc.kill()
                pid, status, usage = os.wait4(proc.pid, os.WNOHANG)
                time.sleep(0.01)
        finally:
            if not pid:  # interrupted: stop the worker before leaving
                proc.kill()
                _, status, usage = os.wait4(proc.pid, 0)
        proc.returncode = os.waitstatus_to_exitcode(status)
    if proc.returncode != 0:
        tail = log_path.read_text(encoding="utf-8", errors="replace")[-2000:]
        raise ChildFailed(f"{workload} {mode} worker exited {proc.returncode}:\n{tail}")
    with open(result_path, encoding="utf-8") as handle:
        result = json.load(handle)
    result_path.unlink()
    log_path.unlink()
    if result["first_step"] is not None:
        result["setup_s"] = result["first_step"] - t_spawn
    result["peak_rss_mb"] = usage.ru_maxrss / 1024.0
    result["wall_s"] = time.monotonic() - t_spawn
    return result


def repeat(workload, seed, mode, budget_s, outcome, spans=None):
    """Repetitions while the next one is expected to fit in ``budget_s`` (at least one)."""
    reps = []
    start = time.monotonic()
    last = 0.0
    while not reps or time.monotonic() - start + last <= budget_s:
        try:
            rep = spawn(workload, seed, mode, spans=spans if not reps else None)
        except ChildFailed as err:
            print(err, file=sys.stderr)
            outcome["attempted"] += outcome["runs_per_rep"]
            outcome["failed"] += outcome["runs_per_rep"]
            break
        for run in rep["runs"]:
            outcome["attempted"] += 1
            ok = run["error"] is None and all(run["checks"].values())
            outcome["failed"] += not ok
            if not ok:
                print(f"{workload} run {run['label']} failed: {run['error'] or run['checks']}", file=sys.stderr)
        outcome["runs"].append(rep["runs"])
        reps.append(rep)
        last = rep["wall_s"]
    return reps


def fastest_sum(parts):
    """Sum over positions of the fastest repetition at each position.

    ``parts`` holds one list per repetition, aligned by position (the same
    time steps, or the same CSV write).  Slowdowns on a shared machine last
    seconds and hit the repetitions at different positions, so the fastest
    per position filters them where a median of whole repetitions does not.
    """
    return sum(min(column) for column in zip(*parts))


def completed(reps):
    """Repetitions whose runs all finished, with the common interval layout."""
    ok = [r for r in reps if all(run["error"] is None for run in r["runs"]) and r["sim_chunks"]]
    if not ok:
        return []
    layout = statistics.mode((len(r["sim_chunks"]), len(r["write_parts"])) for r in ok)
    return [r for r in ok if (len(r["sim_chunks"]), len(r["write_parts"])) == layout]


def end_to_end(reps, setup_samples):
    """End-to-end metrics as (value, sample count)."""
    med = statistics.median
    metrics = {"setup_s": (med(setup_samples), len(setup_samples))}
    ok = completed(reps)
    if ok:
        n = len(ok)
        sim = fastest_sum([r["sim_chunks"] for r in ok])
        write = fastest_sum([r["write_parts"] for r in ok])
        metrics.update({
            "sim_s": (sim, n),
            "write_s": (write, n),
            "total_s": (metrics["setup_s"][0] + sim + write, n),
            "cell_steps_per_s": (ok[0]["cell_steps"] / sim, n),
            "peak_rss_mb": (med(r["peak_rss_mb"] for r in ok), n),
            "sim_median_s": (med(r["sim_s"] for r in ok), n),
        })
        steps = [s for r in ok for s in r["step_s"]]
        if len(steps) >= 2:
            q = statistics.quantiles(steps, n=100)
            metrics["step_p50_ms"] = (1e3 * q[49], len(steps))
            metrics["step_p95_ms"] = (1e3 * q[94], len(steps))
    return metrics


def provenance(workload, seed, seconds, trace):
    info = {
        "workload": workload,
        "seed": seed,
        "variant": wl.variant(seed),
        "seconds": seconds,
        "trace": trace,
        "nproc": os.cpu_count(),
        "cpu_model": None,
        "caches": {},
        "python": platform.python_version(),
        "numpy": None,
        "scipy": None,
        "git_sha": None,
        "CRYOSTEF_THREADS": os.environ.get("CRYOSTEF_THREADS"),
        "CRYOSTEF_THREADS_in_workers": None,
        "computed_not_measured": ["solve.linear.flops_computed", "solve.linear.bytes_computed"],
    }
    for package in ("numpy", "scipy"):
        try:
            info[package] = importlib.metadata.version(package)
        except importlib.metadata.PackageNotFoundError:
            pass
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as handle:
            info["cpu_model"] = next(
                (line.split(":", 1)[1].strip() for line in handle if line.startswith("model name")), None
            )
    except OSError:
        pass
    for index in sorted(Path("/sys/devices/system/cpu/cpu0/cache").glob("index*")):
        try:
            level = (index / "level").read_text().strip()
            kind = (index / "type").read_text().strip()
            size = (index / "size").read_text().strip()
        except OSError:
            continue
        if kind != "Instruction":
            info["caches"][f"L{level}"] = size
    if (ROOT / ".git").exists():
        try:
            sha = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                                 text=True, timeout=30, check=True)
            info["git_sha"] = sha.stdout.strip()
        except (OSError, subprocess.SubprocessError):
            pass
    return info


def run_workload(workload, seed, seconds, trace):
    """Run one workload; returns (result line fields, full record)."""
    outcome = {"attempted": 0, "failed": 0, "runs": [],
               "runs_per_rep": len(wl.config_texts(workload, 0))}
    # warm-up: compiles bytecode and fills the page cache; discarded
    spawn(workload, seed, "setup")
    record = {"provenance": provenance(workload, seed, seconds, trace)}
    if trace:
        untraced = repeat(workload, seed, "timed", seconds / 2, outcome)
        spans = RESULTS / f"spans-{workload}-seed{seed}.jsonl.gz"
        traced = repeat(workload, seed, "traced", seconds / 2, outcome, spans=spans)
        layers = {name: statistics.median(r["layers"][name] for r in traced)
                  for name in (traced[0]["layers"] if traced else ())}
        sim = completed(untraced)
        sim_traced = completed(traced)
        if sim and sim_traced:
            layers["trace.overhead"] = (fastest_sum([r["sim_chunks"] for r in sim_traced])
                                        / fastest_sum([r["sim_chunks"] for r in sim]) - 1.0)
        metrics = {name: (value, len(traced)) for name, value in layers.items()}
        units = {name: layer_unit(name) for name in metrics}
        record["spans_file"] = str(spans.relative_to(ROOT))
        reps = untraced + traced
    else:
        reps = repeat(workload, seed, "timed", seconds, outcome)
        setups = [r["setup_s"] for r in reps if "setup_s" in r]
        while len(setups) < SETUP_SAMPLES:
            setups.append(spawn(workload, seed, "setup")["setup_s"])
        metrics = end_to_end(reps, setups)
        units = END_TO_END_UNITS
    record["provenance"]["CRYOSTEF_THREADS_in_workers"] = reps[0]["CRYOSTEF_THREADS"] if reps else None
    fail_frac = outcome["failed"] / outcome["attempted"] if outcome["attempted"] else 1.0
    if not trace:
        metrics["fail_frac"] = (fail_frac, outcome["attempted"])
    record["metrics"] = {k: {"value": v[0], "unit": units[k], "samples": v[1]} for k, v in metrics.items()}
    record["samples"] = [{k: r.get(k) for k in ("setup_s", "sim_s", "write_s", "peak_rss_mb", "cell_steps")}
                         for r in reps]
    record["runs"] = outcome["runs"]
    correct = outcome["attempted"] > 0 and outcome["failed"] == 0
    line = {"correct": correct, "attempted": outcome["attempted"], "failed": outcome["failed"]}
    return line, record


def print_record(workload, record):
    prov = record["provenance"]
    print(f"== {workload}  seed {prov['seed']} (amplitude x{wl.scale(prov['variant'])})  "
          f"trace {prov['trace']}  {prov['nproc']} cpu  {prov['cpu_model']}  "
          f"caches {prov['caches']}  python {prov['python']}  numpy {prov['numpy']}  "
          f"scipy {prov['scipy']}  git {prov['git_sha']}  "
          f"CRYOSTEF_THREADS={prov['CRYOSTEF_THREADS_in_workers']}")
    for name, m in sorted(record["metrics"].items(), key=lambda item: item[0] == "fail_frac"):
        note = " (computed)" if name in prov["computed_not_measured"] else ""
        print(f"  {name:32s} {m['value']:>14.6g} {m['unit']:6s} n={m['samples']}{note}")


def _terminate(signum, frame):
    raise SystemExit(128 + signum)


def main(argv=None):
    signal.signal(signal.SIGTERM, _terminate)
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=wl.WORKLOADS + ("all",), default="all")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=40.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (ROOT / "src" / "cryostef" / "__init__.py").is_file():
        print(f"cryostef sources not found under {ROOT / 'src'}", file=sys.stderr)
        return 2
    with open(ROOT / "BENCHMARK.json", encoding="utf-8") as handle:
        spec = json.load(handle)
    reported = [m["name"] for m in spec["per_layer" if args.trace else "end_to_end"]]

    names = wl.WORKLOADS if args.workload == "all" else (args.workload,)
    total = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for workload in names:
        try:
            line, record = run_workload(workload, args.seed, args.seconds, args.trace)
        except ChildFailed as err:
            print(err, file=sys.stderr)
            return 1
        print_record(workload, record)
        out = RESULTS / f"{workload}-seed{args.seed}-trace{args.trace}.json"
        out.write_text(json.dumps({**line, **record}, indent=1) + "\n", encoding="utf-8")
        total["correct"] &= line["correct"]
        total["attempted"] += line["attempted"]
        total["failed"] += line["failed"]
        prefix = f"{workload}." if len(names) > 1 else ""
        for name in reported:
            if name in record["metrics"]:
                m = record["metrics"][name]
                total["metrics"][prefix + name] = {"value": m["value"], "unit": m["unit"]}
            else:
                total["correct"] = False
                print(f"{workload}: metric {name} was not measured", file=sys.stderr)
    print(json.dumps(total))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
