"""Every subcommand but `fit` against its pinned oracle,
tests/golden/<cmd>.json, and the ramped data of the fit oracle.

Each oracle is one small CLI call and what it wrote (tests/golden/make.py
runs the call and reads the outputs; this test reruns it through the same
`record()`). Labels, flags, counts, grids and echoed inputs must equal the
oracle, and so must the work counters: solves, their iterations, the
uncertified and unconverged ones, and DOP853's right-hand-side calls and
steps. The computed quantities named in TOLERANCE may move within the
benchmark's own tolerances in perfbench/reference.py: r of solved states
within R_TOL, Delta_c within DELTA_C_TOL, ramp, evolve and interaction-sweep
observables within RK4_TOL (times max(1, |value|)) and linear energies
within ENERGY_TOL. alpha-star's mu at Delta_c, alpha* and line fit follow
from its Delta_c, so they get ALPHA_TOL, DELTA_C_TOL times the bound of
their sensitivity to it. bragg-schedule is closed-form arithmetic and is
pinned exactly. A change which reorders float arithmetic in the solver
passes once it re-pins any counter it moves, while one that moves a state
or a transition does not.
"""

import importlib.util
import json
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
GOLDEN = ROOT / "tests" / "golden"


def _load(name, path):
    spec = importlib.util.spec_from_file_location(name, path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def _reference():
    """perfbench/reference.py, which imports its sibling `workloads` by name."""
    sys.path.insert(0, str(ROOT / "perfbench"))
    try:
        return _load("perfbench_reference", ROOT / "perfbench" / "reference.py")
    finally:
        sys.path.remove(str(ROOT / "perfbench"))


ref = _reference()
make = _load("golden_make", GOLDEN / "make.py")
make_fit = _load("golden_make_fit", GOLDEN / "make_fit.py")


def _absolute(tol):
    return lambda want: tol


def _scaled(tol):
    return lambda want: tol * max(1.0, abs(want))


# alpha-star's derived numbers at the oracle's sizes: |dmu/dDelta| <= 1 + |U|
# moves mu at Delta_c by at most 2 DELTA_C_TOL; alpha* = (Dc_gs - Dc_es) /
# (mu_es - mu_gs) over a gap above 4 moves by less than 2 DELTA_C_TOL max(1,
# |alpha*|); the line through the three alpha*(U), 0.25 apart in U, moves by
# less than 5 times that
ALPHA_TOL = 10 * ref.DELTA_C_TOL


# the allowed |got - want| of every number under a field of this name, as a
# function of want; every other field must be equal
TOLERANCE = {
    "r": _absolute(ref.R_TOL),                          # scan, gaa-me
    "density": _absolute(ref.R_TOL),                    # solve
    "observables": _scaled(ref.R_TOL),                  # solve
    "r_exact": _absolute(ref.R_TOL),                    # ramp
    "r_threshold": _absolute(ref.R_TOL),                # gaa-me
    "delta_c": _absolute(ref.DELTA_C_TOL),              # scan
    "delta_c_gs": _absolute(ref.DELTA_C_TOL),           # phases, alpha-star
    "delta_c_es": _absolute(ref.DELTA_C_TOL),
    "e_c_gs": _absolute(ALPHA_TOL),                     # alpha-star
    "e_c_es": _absolute(ALPHA_TOL),
    "alpha_star": _scaled(ALPHA_TOL),
    "line": _scaled(ALPHA_TOL),
    "r_ramped": _scaled(ref.RK4_TOL),                   # ramp
    "trajectory": _scaled(ref.RK4_TOL),                 # ramp, evolve
    "final": _scaled(ref.RK4_TOL),                      # evolve, interaction-sweep
    "energies": _absolute(ref.ENERGY_TOL),              # gaa-me
    "mobility_edge": _absolute(ref.ENERGY_TOL),
}


@pytest.fixture(scope="module", params=sorted(make.ARGV))
def case(request, tmp_path_factory):
    cmd = request.param
    want = json.loads((GOLDEN / f"{cmd}.json").read_text())
    del want["nlaa_version"]            # the nlaa that wrote the oracle
    return make.record(cmd, tmp_path_factory.mktemp(cmd)), want


def _leaves(value, path=(), tol=None):
    """(path, value, tolerance) of every scalar in a record; the tolerance is
    that of the nearest enclosing TOLERANCE field, None for an exact one."""
    if isinstance(value, dict):
        for key, item in value.items():
            yield from _leaves(item, path + (key,), TOLERANCE.get(key, tol))
    elif isinstance(value, list):
        for i, item in enumerate(value):
            yield from _leaves(item, path + (i,), tol)
    else:
        yield path, value, tol


def _pairs(case, toleranced):
    """(path, got, want, tolerance) of the leaves with (or without) one."""
    got, want = (list(_leaves(rec)) for rec in case)
    assert [p for p, _, _ in got] == [p for p, _, _ in want]
    return [(p, g, w, tol) for (p, g, tol), (_, w, _) in zip(got, want)
            if (tol is not None) == toleranced]


def test_counts_and_labels_are_exact(case):
    for path, g, w, _ in _pairs(case, toleranced=False):
        assert g == w, path


def test_r_and_delta_c_within_tolerance(case):
    """r, Delta_c and every other TOLERANCE quantity; NaN (None) stays NaN."""
    for path, g, w, tol in _pairs(case, toleranced=True):
        if g is None or w is None:
            assert g is None and w is None, path
        else:
            assert abs(g - w) <= tol(w), (path, g, w)


FIT_CASES = json.loads((GOLDEN / "fit.json").read_text())["cases"]


@pytest.mark.parametrize("case", FIT_CASES, ids=lambda case: f"seed{case['seed']}")
def test_ramped_fit_data_within_rk4_tol_of_the_fit_oracle(case):
    """The data of tests/golden/fit.json, ramped again by make_fit (every
    Delta in one batch): Delta exact, r within RK4_TOL max(1, |r|)."""
    got = make_fit.ramp_fit_data(case["seed"])
    want = case["data"]
    assert [row[0] for row in got.tolist()] == [row[0] for row in want]
    for (_, g), (delta, w) in zip(got.tolist(), want):
        assert abs(g - w) <= ref.RK4_TOL * max(1.0, abs(w)), (delta, g, w)
