"""nlaa benchmark: four serial CLI workloads, end-to-end and per-layer metrics.

Usage (from the repository root):

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Each repetition is a fresh interpreter (rep.py) that imports ``nlaa.cli``
from ``src``, warms up, and times the workload's ``nlaa.cli.main`` calls.
Repetitions run one after another, at least MIN_REPS of them, and a new one
starts only while a repetition of typical (median) length would finish
within ``--seconds``; a run that is not done GRACE_S after ``--seconds`` is
aborted. Every repetition's outputs are checked against
``perfbench/reference``.

Times are scaled to a nominal core speed by the calibration kernel rep.py
runs between the bytecodes of the measured work (see rep.py): on the shared
host the benchmark was defined on, raw medians of ten runs spread by 10-30%.
Each repetition's line holds the raw time and the speed factor as well, and
the line before the result holds the median raw times.

``--trace 0`` reports the end-to-end metrics, each the median over the
repetitions:

* ``wall_s``       time of the workload's CLI calls, warm (scaled);
* ``setup_s``      interpreter start + ``import nlaa.cli`` + warm-up, plus
                   (serial_path) the time to write the store it resumes from
                   by running its scan (scaled);
* ``peak_rss_mb``  peak resident memory of the repetition's process;
* ``error_rate``   (failed + 1) / (attempted + 2) operations: the add-one
                   estimate of the failure probability, never 0; the raw
                   counts are the result's ``attempted`` and ``failed``.

``--trace 1`` alternates untraced and traced repetitions (at least one and
two) and reports the per-layer metrics of the traced ones plus
``trace.overhead_s``, the traced minus the untraced median wall time, and
``raw.wall_s``, the untraced median wall time before scaling. The exact
counters must repeat across repetitions; a mismatch is reported as a
failure, never averaged.

The last line of standard output is the JSON result; the lines before it
hold the environment record and every repetition's samples.
"""

import argparse
import json
import os
import platform
import shutil
import signal
import statistics
import subprocess
import sys
import time
from collections import Counter
from pathlib import Path

import numpy as np
import scipy

import reference
import tracing
import workloads

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
MIN_REPS = 2
GRACE_S = 140.0      # set-up, MIN_REPS of a slow commit, one late repetition
BLAS_THREADS = "1"

EXACT_COUNTERS = (
    "cli.bytes_written", "eigensolve.iterations", "eigensolve.solve_state.calls",
    "eigensolve.unconverged", "eigensolve.linear_spectrum.calls",
    "dynamics.rk4_steps", "dynamics.evolve.calls", "dynamics.ramp_prepare.calls",
    "fitting.lsq_nfev", "fitting.lsq_calls", "fitting.fit_transition.calls",
    "fitting.bootstrap_failures", "phasescan.refine_solves",
    "phasescan.cells_computed", "phasescan.cells_reused", "model.calls")


class BenchError(RuntimeError):
    """The benchmark could not run; no result is printed."""


def _cpu_model():
    try:
        with open("/proc/cpuinfo") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def _blas():
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        return f"{blas.get('name')} {blas.get('version')}"
    except (KeyError, TypeError, ValueError):
        return "unknown"


def environment():
    return {
        "nproc": os.cpu_count(),
        "affinity": len(os.sched_getaffinity(0)),
        "cpu_model": _cpu_model(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "blas": _blas(),
        "blas_threads": int(BLAS_THREADS),
        "loadavg_start": os.getloadavg(),
        "loop": "closed, one client: repetitions run serially, --workers 1",
        "timing": "scaled by the calibration kernel in rep.py; each "
                  "repetition line also holds the raw time and speed factor, "
                  "and the untraced_medians line the median raw times",
        "not_a_workload": "the process pools behind --workers > 1; a change "
                          "that alters or deletes them first adds a pool "
                          "workload in its own benchmark change",
    }


def _child_env():
    env = dict(os.environ)
    src = str(ROOT / "src")
    env["PYTHONPATH"] = src + (os.pathsep + env["PYTHONPATH"]
                               if env.get("PYTHONPATH") else "")
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = BLAS_THREADS
    return env


def _run_child(argv, deadline):
    timeout = deadline - time.monotonic()
    if timeout <= 0:
        raise BenchError(f"out of time before {argv}")
    try:
        proc = subprocess.run(argv, env=_child_env(), stdout=sys.stderr,
                              timeout=timeout)
    except subprocess.TimeoutExpired as exc:
        raise BenchError(f"timed out: {argv}") from exc
    if proc.returncode != 0:
        raise BenchError(f"exit {proc.returncode}: {argv}")


def spawn_rep(rep, calls, warmup, deadline, traced=False, store=None, rep_id=0):
    """Run rep.py in directory `rep`; its result plus the scaled times.

    `store` (serial_path) is copied into the fresh output directory first;
    that copy counts as set-up.
    """
    out = rep / "out"
    spec = {"calls": calls, "warmup": warmup, "rep": rep_id, "trace": traced,
            "src": str(ROOT / "src"), "warm": str(rep / "warm"),
            "out": str(out), "result": str(rep / "result.json"),
            "spans": str(rep / "spans.jsonl")}
    rep.mkdir(parents=True)
    (rep / "spec.json").write_text(json.dumps(spec))
    t_spawn = time.monotonic()
    if store is not None:
        (out / "scan").mkdir(parents=True)
        shutil.copyfile(store, out / "scan" / workloads.STORE_NAME)
    _run_child([sys.executable, str(HERE / "rep.py"), str(rep / "spec.json")],
               deadline)
    res = json.loads((rep / "result.json").read_text())
    if not traced:
        del res["samples"]
    res["elapsed_s"] = time.monotonic() - t_spawn
    res["raw_setup_s"] = res["ready"] - t_spawn - res["setup_cal_s"]
    res["setup_s"] = res["raw_setup_s"] * res["setup_speed"]
    res["wall_s"] = res["raw_wall_s"] * res["wall_speed"]
    return res


def _tree_bytes(path, skip=("manifest.json",)):
    return sum(p.stat().st_size for p in Path(path).rglob("*")
               if p.is_file() and p.name not in skip)


def write_store(work, deadline):
    """Set-up of serial_path: the code under test runs the scan_grid scan
    (detection on) into an empty store. Returns the store, the number of
    records it holds and the scaled time to start and run the scan."""
    res = spawn_rep(work / "store", [["store", workloads.SCAN_GRID]], [],
                    deadline)
    store = work / "store" / "out" / "store" / workloads.STORE_NAME
    records = reference.read_store(store)
    missing = workloads.SCAN_GRID_KEYS - {workloads.cell_key(r) for r in records}
    if missing:
        raise BenchError(f"set-up store lacks {len(missing)} of the "
                         f"{workloads.SCAN_GRID_CELLS} grid cells")
    return store, len(records), res["setup_s"] + res["wall_s"]


def run_rep(i, traced, args, work, ref, store, deadline):
    """`store`: (path, records) that serial_path resumes from, or None."""
    calls = workloads.calls(args.workload, args.seed)
    rep = work / f"rep{i}"
    res = spawn_rep(rep, calls, workloads.warmup(args.workload), deadline,
                    traced=traced, store=store and store[0], rep_id=i)
    out = rep / "out"
    tally = reference.check(calls, out, res["codes"], ref,
                            seeded_records=store[1] if store else 0)
    seeded = store[0].stat().st_size if store else 0
    sample = {"rep": i, "traced": traced, "attempted": tally.attempted,
              "failed": tally.failed, "problems": tally.problems,
              "cli.bytes_written": _tree_bytes(out) - seeded,
              **{k: res[k] for k in ("wall_s", "raw_wall_s", "wall_speed",
                                     "setup_s", "raw_setup_s", "setup_speed",
                                     "peak_rss_mb", "elapsed_s")}}
    if traced:
        spans = tracing.read_spans(rep / "spans.jsonl")
        sample["layers"] = tracing.layer_metrics(
            spans, workloads.grid_cells(args.workload), res["samples"],
            res["wall_speed"])
        sample["layers"]["cli.bytes_written"] = sample["cli.bytes_written"]
        sample["span_calls"] = Counter(s["name"] for s in spans)
    return sample


def coverage_guard(workload, samples):
    """Fail if a span the mapping predicts for this workload never fired."""
    mapping = json.loads((HERE / "mapping.json").read_text())
    known = {name for _, _, name, _ in tracing.TARGETS}
    for name in mapping["workload_spans"][workload]:
        if name not in known:
            raise BenchError(f"mapping.json names span {name!r}, which "
                             "tracing.TARGETS does not record")
        for s in samples:
            if s["span_calls"].get(name, 0) == 0:
                raise BenchError(f"{workload}: span {name} recorded zero calls "
                                 f"in rep {s['rep']}; update the benchmark")


def counter_mismatches(samples):
    """Exact counters that differ between repetitions of this run."""
    bad = []
    for key in ("cli.bytes_written", "attempted"):
        values = {s[key] for s in samples}
        if len(values) > 1:
            bad.append(f"{key} differs across repetitions: {sorted(values)}")
    traced = [s["layers"] for s in samples if "layers" in s]
    for key in EXACT_COUNTERS:
        values = {t[key] for t in traced}
        if len(values) > 1:
            bad.append(f"{key} differs across traced repetitions: {sorted(values)}")
    return bad


def main(argv=None):
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True, choices=workloads.NAMES)
    p.add_argument("--seed", type=int, default=workloads.FIT_SEED_DEFAULT)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = p.parse_args(argv)
    deadline = time.monotonic() + args.seconds + GRACE_S

    if not (ROOT / "src" / "nlaa" / "cli.py").is_file():
        raise BenchError(f"no nlaa sources under {ROOT / 'src'}")
    env = environment()
    ref = reference.load_reference(args.workload)
    if args.workload == "serial_path":
        ref.update(reference.load_reference("scan_grid"))
    work = HERE / "_work" / args.workload
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)

    store, store_s = None, 0.0
    if args.workload == "serial_path":
        path, records, store_s = write_store(work, deadline)
        store = (path, records)
        print(json.dumps({"store_setup_s": store_s, "store_records": records}))

    samples = []
    start = time.monotonic()
    while True:
        i = len(samples)
        # trace runs: untraced, traced, traced, then alternating
        traced = args.trace == 1 and (i in (1, 2) or i > 2 and i % 2 == 0)
        samples.append(run_rep(i, traced, args, work, ref, store, deadline))
        typical = statistics.median(s["elapsed_s"] for s in samples)
        enough = len(samples) >= (3 if args.trace else MIN_REPS)
        if enough and time.monotonic() - start + typical > args.seconds:
            break

    for s in samples:
        print(json.dumps({k: v for k, v in s.items() if k != "span_calls"}))
    env["loadavg_end"] = os.getloadavg()
    env["repetitions"] = len(samples)
    print(json.dumps({"environment": env}))

    attempted = sum(s["attempted"] for s in samples)
    failed = sum(s["failed"] for s in samples)
    mismatches = counter_mismatches(samples)
    for m in mismatches:
        print(f"exact counter mismatch: {m}")
    failed += len(mismatches)
    plain = [s for s in samples if not s["traced"]]
    med = statistics.median
    raw = {key: med(s[key] for s in plain)
           for key in ("raw_wall_s", "raw_setup_s", "wall_speed", "setup_speed")}
    print(json.dumps({"untraced_medians": raw}))

    if args.trace:
        traced = [s for s in samples if s["traced"]]
        coverage_guard(args.workload, traced)
        values = {key: traced[0]["layers"][key] if key in EXACT_COUNTERS
                  else med(t["layers"][key] for t in traced)
                  for key in traced[0]["layers"]}
        values["trace.overhead_s"] = (med(s["wall_s"] for s in traced)
                                      - med(s["wall_s"] for s in plain))
        values["raw.wall_s"] = raw["raw_wall_s"]
        declared = json.loads((ROOT / "BENCHMARK.json").read_text())["per_layer"]
        if {m["name"] for m in declared} != set(values):
            raise BenchError("per-layer metrics differ from BENCHMARK.json: "
                             f"{sorted({m['name'] for m in declared} ^ set(values))}")
        metrics = {m["name"]: {"value": values[m["name"]], "unit": m["unit"]}
                   for m in declared}
    else:
        metrics = {
            "wall_s": {"value": med(s["wall_s"] for s in plain), "unit": "s"},
            "setup_s": {"value": med(s["setup_s"] for s in plain) + store_s,
                        "unit": "s"},
            "peak_rss_mb": {"value": med(s["peak_rss_mb"] for s in plain),
                            "unit": "MB"},
            "error_rate": {"value": med((s["failed"] + 1) / (s["attempted"] + 2)
                                        for s in plain), "unit": "1"},
        }
    print(json.dumps({"correct": failed == 0, "attempted": attempted,
                      "failed": failed, "metrics": metrics}))


def _terminate(signum, frame):
    sys.exit(128 + signum)     # unwinds, so subprocess.run kills its child


if __name__ == "__main__":
    signal.signal(signal.SIGTERM, _terminate)
    try:
        main()
    except (BenchError, OSError, ValueError, KeyError) as exc:
        print(f"benchmark error: {exc}", file=sys.stderr)
        sys.exit(1)
