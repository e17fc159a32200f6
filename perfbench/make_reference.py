"""Write perfbench/reference/<workload>.json from one untraced repetition.

Usage (from the repository root): python3 perfbench/make_reference.py [NAME ...]

The references in the repository were written from the code at the commit
that added the benchmark, with the default seed; regenerate one only in a
change that is about the benchmark, and say why.
"""

import json
import shutil
import sys
import time

import reference
import run
import workloads


def make(workload):
    work = run.HERE / "_work" / f"reference_{workload}"
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    deadline = time.monotonic() + 600.0
    store = None
    if workload == "serial_path":
        store, _, _ = run.write_store(work, deadline)
    calls = workloads.calls(workload, workloads.FIT_SEED_DEFAULT)
    run.spawn_rep(work / "rep", calls, workloads.warmup(workload), deadline,
                  store=store)
    if workload == "serial_path":
        calls = [c for c in calls if c[0] != "scan"]   # checked against scan_grid
    values = reference.extract(calls, work / "rep" / "out")
    reference.REFERENCE_DIR.mkdir(exist_ok=True)
    path = reference.REFERENCE_DIR / f"{workload}.json"
    path.write_text(json.dumps(values, indent=1) + "\n")
    print(f"wrote {path}")


if __name__ == "__main__":
    for name in sys.argv[1:] or workloads.NAMES:
        make(name)
