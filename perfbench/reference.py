"""Reference outputs and the checks that count failed operations.

`extract()` reads the files one repetition wrote into a dict of named values;
`make_reference.py` stores that dict for the default seed in
``perfbench/reference/<workload>.json``. `check()` extracts a fresh
repetition the same way and compares it with the stored reference at the
tolerances below, which were fixed before the first measurement:

* ``R_TOL`` -- participation ratios of solved states. The solver stops at a
  stationarity residual of 1e-10 (CLI default); the state error is at most
  residual / gap, and over a gap floor of 1e-4 that is 1e-6, which bounds the
  change of r (Lipschitz in the state with a constant of order one).
* ``DELTA_C_TOL`` -- transition points, refined by bisection to 1e-3 in
  Delta/J. A transition not bracketed in the window (NaN) must stay NaN.
* ``RK4_TOL`` -- observables of RK4 trajectories (r, <d>, E). The integrator
  guarantees its norm to 1e-6 (it aborts beyond that drift); the tolerance is
  1e-6 times max(1, |value|).
* ``FIT_RTOL`` -- fit parameters at the reference seed: data reproduce to
  RK4_TOL against noise of 0.01, so least-squares parameters move by at most
  ~1e-6 / 0.01 = 1e-4 relative. Delta_c is a data-interval midpoint and
  must match to ``GRID_TOL``.
* ``NOISE_BAND`` -- ramped r at any other seed: the seed only changes the
  Gaussian noise (width sigma) added to each point, so a point and its
  reference differ by noise of width sigma * sqrt(2); beyond NOISE_BAND of
  those widths (probability ~2e-9 per point) the ramp itself is wrong.
* ``ENERGY_TOL`` -- linear eigenvalues at L = 987 (LAPACK accuracy is about
  L * eps * ||H|| ~ 1e-12; 1e-9 leaves margin).

Every compared value, every stored grid cell, every bootstrap refit and every
CLI call is one attempted operation; a mismatch, an ``ok: false`` cell, a
refit that raised and a non-zero exit are failed operations.
"""

import json
import math
from pathlib import Path

import workloads

R_TOL = 1e-10 / 1e-4
DELTA_C_TOL = 1e-3
RK4_TOL = 1e-6
NORM_DRIFT_MAX = 1e-6
FIT_RTOL = 1e-4
NOISE_BAND = 6.0
GRID_TOL = 1e-9
ENERGY_TOL = 1e-9
GAA_MISCLASSIFICATION_MAX = 0.02      # acceptance criterion 09
BOOTSTRAP_FAILURE_SHARE = 0.2         # bootstrap_delta_c's own validity rule

REFERENCE_DIR = Path(__file__).resolve().parent / "reference"


def _csv(path):
    lines = Path(path).read_text().splitlines()
    return lines[0].split(","), [ln.split(",") for ln in lines[1:]]


def _json(path):
    return json.loads(Path(path).read_text())


def _num(x):
    """float, with NaN stored as None so the reference is plain JSON."""
    x = float(x)
    return None if math.isnan(x) else x


def _extract_scan(d):
    out = {"scan.r": [], "scan.phases": []}
    for kind in ("gs", "es"):
        header, rows = _csv(d / f"r_{kind}.csv")
        out["scan.r"] += [float(x) for row in rows for x in row[1:]]
    header, rows = _csv(d / "phases.csv")
    deltas = [float(x) for x in header[1:]]
    out["scan.phases"] = [[float(row[0]), deltas[k], lab]
                          for row in rows for k, lab in enumerate(row[1:])]
    _, rows = _csv(d / "transitions.csv")
    out["scan.transitions"] = [[row[0], float(row[1]), _num(row[2]), int(row[3])]
                               for row in rows]
    return out


def _extract_fit(d):
    cfg = _json(d / "manifest.json")["config"]
    _, rows = _csv(d / "data.csv")
    fit = _json(d / "fit.json")
    return {"fit.delta": [float(r[0]) for r in rows],
            "fit.r": [float(r[1]) for r in rows],
            "fit.noise_sigma": float(cfg["noise_sigma"]),
            "fit.params": {k: fit[k] for k in ("A", "B", "gamma", "rss",
                                                "delta_c_stderr")},
            "fit.delta_c": fit["delta_c"],
            "fit.bootstrap": fit["bootstrap"],
            "fit.seed": int(cfg["seed"])}


def _extract_phases(d):
    _, rows = _csv(d / "boundaries.csv")
    return {"phases.boundaries": [[float(r[0]), _num(r[1]), _num(r[2])]
                                  for r in rows]}


def _extract_evolve(d):
    _, rows = _csv(d / "trajectory.csv")
    return {"evolve.observables": [[float(x) for x in r[1:4]] for r in rows],
            "evolve.norm_drift": [float(r[4]) for r in rows]}


def _extract_gaa(d):
    _, rows = _csv(d / "gaa_spectrum.csv")
    info = _json(d / "gaa.json")
    return {"gaa.energy": [float(r[1]) for r in rows],
            "gaa.r": [float(r[2]) for r in rows],
            "gaa.mobility_edge": info["mobility_edge"],
            "gaa.misclassification": info["misclassification"]}


EXTRACTORS = {"scan": _extract_scan, "fit": _extract_fit,
              "phases": _extract_phases, "evolve": _extract_evolve,
              "gaa": _extract_gaa}


def extract(calls, out):
    """Named values from the outputs of one repetition's CLI calls."""
    values = {}
    for sub, _ in calls:
        values.update(EXTRACTORS[sub](Path(out) / sub))
    return values


def load_reference(workload):
    return _json(REFERENCE_DIR / f"{workload}.json")


class Tally:
    """Attempted and failed operations of one repetition."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.problems = []

    def op(self, ok, what):
        self.attempted += 1
        if not ok:
            self.failed += 1
            if len(self.problems) < 20:
                self.problems.append(what)

    def ops(self, n, n_failed, what):
        self.attempted += n
        if n_failed:
            self.failed += n_failed
            self.problems.append(f"{n_failed}/{n} {what}")


def _close(a, b, tol):
    if a is None or b is None:
        return a is None and b is None
    return abs(a - b) <= tol


def read_store(path):
    """Records of a JSONL scan store, in the order they were written."""
    return [json.loads(line) for line in Path(path).read_text().splitlines()
            if line.strip()]


def _scan_checks(t, new, ref, store, seeded_records):
    """`seeded_records`: records the store held before the scan (resume)."""
    recs = read_store(store)
    cells = [r for r in recs if workloads.cell_key(r) in workloads.SCAN_GRID_KEYS]
    t.ops(len(cells), sum(1 for r in cells if not r.get("ok")),
          "stored grid cells ok: false")
    if seeded_records:
        again = [r for r in recs[seeded_records:]
                 if workloads.cell_key(r) in workloads.SCAN_GRID_KEYS]
        t.op(not again, f"resume recomputed {len(again)} stored grid cells")
    t.op(len(new["scan.r"]) == len(ref["scan.r"]), "scan grid size differs")
    for i, (a, b) in enumerate(zip(new["scan.r"], ref["scan.r"])):
        t.op(_close(a, b, R_TOL), f"scan r[{i}] = {a!r}, reference {b!r}")
    dc = {}
    for row, want in zip(new["scan.transitions"], ref["scan.transitions"]):
        kind, u, delta_c, n_cross = row
        dc[(want[0], want[1])] = want[2]
        t.op(kind == want[0] and u == want[1] and n_cross == want[3]
             and _close(delta_c, want[2], DELTA_C_TOL),
             f"transition {row} vs reference {want}")
    t.op(len(new["scan.transitions"]) == len(ref["scan.transitions"]),
         "number of transitions differs")
    for (u, delta, lab), want in zip(new["scan.phases"], ref["scan.phases"]):
        near = any(v is not None and abs(delta - v) <= DELTA_C_TOL
                   for (_, uu), v in dc.items() if uu == u)
        t.op(lab == want[2] or near,
             f"phase at U={u}, Delta={delta}: {lab} vs reference {want[2]}")


def _fit_checks(t, new, ref):
    t.op(new["fit.delta"] == ref["fit.delta"], "synthesized Delta grid differs")
    same_seed = new["fit.seed"] == ref["fit.seed"]
    band = NOISE_BAND * math.sqrt(2.0) * ref["fit.noise_sigma"]
    for d, a, b in zip(new["fit.delta"], new["fit.r"], ref["fit.r"]):
        tol = RK4_TOL * max(1.0, abs(b)) if same_seed else band
        t.op(_close(a, b, tol), f"ramped r at Delta={d}: {a!r}, reference "
                                f"{b!r} (seed {new['fit.seed']})")
    boot = new["fit.bootstrap"]
    t.ops(boot["n_resamples"], boot["n_failures"], "bootstrap refits raised")
    t.op(boot["valid"] and boot["n_failures"]
         <= BOOTSTRAP_FAILURE_SHARE * boot["n_resamples"],
         f"bootstrap not valid: {boot}")
    stderr = new["fit.params"]["delta_c_stderr"]
    t.op(stderr is not None and math.isfinite(stderr) and stderr >= 0,
         f"bootstrap stderr {stderr!r}")
    deltas = new["fit.delta"]
    mids = [0.5 * (a + b) for a, b in zip(deltas[:-1], deltas[1:])]
    t.op(any(abs(new["fit.delta_c"] - m) <= GRID_TOL for m in mids),
         f"delta_c {new['fit.delta_c']} is not a data-interval midpoint")
    if same_seed:
        off = [k for k, b in ref["fit.params"].items()
               if not _close(new["fit.params"][k], b, FIT_RTOL * abs(b))]
        t.op(not off and boot == ref["fit.bootstrap"]
             and abs(new["fit.delta_c"] - ref["fit.delta_c"]) <= GRID_TOL,
             f"fit at the reference seed differs: {new['fit.params']}, "
             f"delta_c {new['fit.delta_c']}, bootstrap {boot}")


def _phases_checks(t, new, ref):
    rows, want = new["phases.boundaries"], ref["phases.boundaries"]
    t.op(len(rows) == len(want), "number of boundary rows differs")
    for row, w in zip(rows, want):
        t.op(row[0] == w[0], f"boundary U {row[0]} vs {w[0]}")
        for a, b in zip(row[1:], w[1:]):
            t.op(_close(a, b, DELTA_C_TOL),
                 f"boundary at U={row[0]}: {a!r}, reference {b!r}")


def _evolve_checks(t, new, ref):
    rows, want = new["evolve.observables"], ref["evolve.observables"]
    t.op(len(rows) == len(want), "number of trajectory snapshots differs")
    for i, (row, w) in enumerate(zip(rows, want)):
        for a, b in zip(row, w):
            t.op(_close(a, b, RK4_TOL * max(1.0, abs(b))),
                 f"trajectory snapshot {i}: {row} vs reference {w}")
    t.op(max(new["evolve.norm_drift"]) <= NORM_DRIFT_MAX,
         f"norm drift {max(new['evolve.norm_drift'])} > {NORM_DRIFT_MAX}")


def _gaa_checks(t, new, ref):
    t.op(len(new["gaa.energy"]) == len(ref["gaa.energy"]), "spectrum size differs")
    for i, (a, b) in enumerate(zip(new["gaa.energy"], ref["gaa.energy"])):
        t.op(_close(a, b, ENERGY_TOL), f"GAA energy[{i}] = {a!r}, reference {b!r}")
    for i, (a, b) in enumerate(zip(new["gaa.r"], ref["gaa.r"])):
        t.op(_close(a, b, R_TOL), f"GAA r[{i}] = {a!r}, reference {b!r}")
    edge, want = new["gaa.mobility_edge"], ref["gaa.mobility_edge"]
    t.op(_close(edge, want, GRID_TOL * max(1.0, abs(want))),
         f"mobility edge {edge!r}, reference {want!r}")
    mis = new["gaa.misclassification"]
    t.op(mis == ref["gaa.misclassification"] and mis <= GAA_MISCLASSIFICATION_MAX,
         f"misclassification {mis}, reference {ref['gaa.misclassification']}")


def check(calls, out, codes, ref, seeded_records=0):
    """Tally of one repetition: CLI exit codes, then each output checked."""
    t = Tally()
    for (sub, argv), code in zip(calls, codes):
        t.op(code == 0, f"nlaa {argv[0]} exited with {code}")
    try:
        new = extract(calls, out)
    except (OSError, ValueError, KeyError, IndexError) as exc:
        t.op(False, f"outputs unreadable: {exc!r}")
        return t
    subs = [sub for sub, _ in calls]
    if "scan" in subs:
        _scan_checks(t, new, ref, Path(out) / "scan" / workloads.STORE_NAME,
                     seeded_records)
    if "fit" in subs:
        _fit_checks(t, new, ref)
    if "phases" in subs:
        _phases_checks(t, new, ref)
    if "evolve" in subs:
        _evolve_checks(t, new, ref)
    if "gaa" in subs:
        _gaa_checks(t, new, ref)
    return t
