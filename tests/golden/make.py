"""Write tests/golden/scan.json and tests/golden/phases.json, the pinned
oracle of the `scan` and `phases` subcommands at L = 13.

Each file holds one CLI call (ARGV below) and what it wrote, read back
from its CSVs by `record()`:

- scan: r of both kinds on the (U, Delta) grid, the phase labels, and per
  transition row its Delta_c, found flag, number of grid crossings and
  refinement solves;
- phases: Delta_c of both kinds per U, and the found flags.

Both also count the cell solves the call ran (`solves`). The CSVs print
12 significant digits, and JSON stores the floats read back from them by
their shortest round-trip repr. tests/test_golden.py reruns the same calls
through `record()` and compares. Run this with the nlaa whose values are to
be pinned on the path:

    PYTHONPATH=<checkout>/src python3 tests/golden/make.py
"""

import csv
import json
import math
import sys
import tempfile
from pathlib import Path

import nlaa
import nlaa.phasescan as phasescan
from nlaa import cli

ARGV = {
    "scan": ["scan", "--L", "13", "--delta-step", "0.25", "--u-step", "0.5"],
    "phases": ["phases", "--L", "13", "--delta-step", "0.25", "--u-step", "0.5"],
}
HERE = Path(__file__).resolve().parent


def _rows(path):
    with open(path, newline="") as f:
        header, *rows = csv.reader(f)
    return header, rows


def _num(text):
    """A CSV float, with NaN as None so that it is plain JSON."""
    x = float(text)
    return None if math.isnan(x) else x


def _read_scan(out):
    header, _ = _rows(out / "r_gs.csv")
    rec = {"deltas": [float(d) for d in header[1:]], "u": [], "r": {}}
    for kind in ("gs", "es"):
        _, rows = _rows(out / f"r_{kind}.csv")
        rec["u"] = [float(row[0]) for row in rows]
        rec["r"][kind] = [[float(x) for x in row[1:]] for row in rows]
    rec["labels"] = [row[1:] for row in _rows(out / "phases.csv")[1]]
    rec["transitions"] = [
        {"kind": kind, "u": float(u), "delta_c": _num(dc), "found": _num(dc) is not None,
         "n_crossings": int(n), "refine_solves": int(refine)}
        for kind, u, dc, n, _, _, refine in _rows(out / "transitions.csv")[1]]
    rec["failures"] = len(_rows(out / "failures.csv")[1])
    return rec


def _read_phases(out):
    rows = _rows(out / "boundaries.csv")[1]
    rec = {"u": [float(row[0]) for row in rows]}
    for col, kind in ((1, "gs"), (2, "es")):
        rec[f"delta_c_{kind}"] = [_num(row[col]) for row in rows]
        rec[f"found_{kind}"] = [_num(row[col]) is not None for row in rows]
    return rec


READ = {"scan": _read_scan, "phases": _read_phases}


def record(cmd, out):
    """Run ARGV[cmd] into the directory `out` and return what it wrote, with
    the number of cell solves it ran."""
    solve, calls = phasescan.solve_state, []

    def counted(*args, **kwargs):
        calls.append(None)
        return solve(*args, **kwargs)

    phasescan.solve_state = counted
    try:
        code = cli.main(ARGV[cmd] + ["--out", str(out)])
    finally:
        phasescan.solve_state = solve
    if code != 0:
        raise RuntimeError(f"nlaa {' '.join(ARGV[cmd])} exited with {code}")
    return {"argv": ARGV[cmd], **READ[cmd](Path(out)), "solves": len(calls)}


def main():
    for cmd in ARGV:
        with tempfile.TemporaryDirectory() as out:
            golden = {"nlaa_version": nlaa.__version__, **record(cmd, out)}
        path = HERE / f"{cmd}.json"
        path.write_text(json.dumps(golden, indent=1) + "\n")
        print(f"wrote {path} from nlaa {nlaa.__version__}", file=sys.stderr)


if __name__ == "__main__":
    main()
