"""Record the reference outputs that every benchmark run is checked against.

    python3 bench/record_reference.py            # rewrite bench/reference.json
    python3 bench/record_reference.py --tol 1e-10

With ``--tol`` nothing is written: every workload is re-solved at that
Newton tolerance and its largest deviation from the recorded values is
printed (or its failure, where the Newton budget does not reach that
tolerance), which is how ``workloads.REFERENCE_ATOL`` was chosen.
"""

from __future__ import annotations

import argparse
import json
from pathlib import Path

import workloads as wl
from worker import execute, load_reference

PATH = Path(__file__).with_name("reference.json")


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--tol", type=float, default=None)
    args = parser.parse_args(argv)
    reference = {} if args.tol is None else load_reference()
    for workload in wl.WORKLOADS:
        for k in wl.VARIANTS:
            result, values = execute(workload, k, "timed", tol=args.tol, check_reference=False)
            failed = {r["label"]: (r["error"], r["checks"]) for r in result["runs"]
                      if r["error"] or not all(r["checks"].values())}
            if failed:
                message = f"{workload} k={k}: {failed}"
                if args.tol is None:
                    raise SystemExit(message)
                print(message)
            elif args.tol is None:
                reference.setdefault(workload, {})[str(k)] = values
            else:
                deviation = wl.compare_reference(workload, k, values, reference)
                print(f"{workload} k={k}: max deviation {deviation:.3g} at tol={args.tol:g}")
            print(f"{workload} k={k}: sim {result['sim_s']:.2f} s", flush=True)
    if args.tol is None:
        PATH.write_text(json.dumps(reference, indent=1) + "\n", encoding="utf-8")


if __name__ == "__main__":
    main()
