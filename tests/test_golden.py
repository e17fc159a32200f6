"""`scan` and `phases` against their pinned oracle, tests/golden/scan.json
and tests/golden/phases.json.

Each oracle is one L = 13 CLI call and what it wrote (tests/golden/make.py
runs the call and reads the outputs; this test reruns it through the same
`record()`). Phase labels, found flags, crossing counts and solve counts
must equal the oracle. r may move within R_TOL and Delta_c within
DELTA_C_TOL, the benchmark's own tolerances in perfbench/reference.py, so
that a change which reorders float arithmetic in the solver passes while
one that moves a state or a transition does not.
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


def _tolerances():
    """(R_TOL, DELTA_C_TOL) of perfbench/reference.py, which imports its
    sibling `workloads` by name."""
    sys.path.insert(0, str(ROOT / "perfbench"))
    try:
        ref = _load("perfbench_reference", ROOT / "perfbench" / "reference.py")
    finally:
        sys.path.remove(str(ROOT / "perfbench"))
    return ref.R_TOL, ref.DELTA_C_TOL


R_TOL, DELTA_C_TOL = _tolerances()
make = _load("golden_make", GOLDEN / "make.py")


@pytest.fixture(scope="module", params=sorted(make.ARGV))
def case(request, tmp_path_factory):
    cmd = request.param
    want = json.loads((GOLDEN / f"{cmd}.json").read_text())
    return cmd, make.record(cmd, tmp_path_factory.mktemp(cmd)), want


def _delta_c_close(got, want):
    if got is None or want is None:
        return got is None and want is None
    return abs(got - want) <= DELTA_C_TOL


def _without_delta_c(rows):
    return [{k: v for k, v in row.items() if k != "delta_c"} for row in rows]


def test_counts_and_labels_are_exact(case):
    cmd, got, want = case
    assert got["argv"] == want["argv"]
    assert got["solves"] == want["solves"]
    assert got["u"] == want["u"]
    if cmd == "scan":
        assert got["deltas"] == want["deltas"]
        assert got["labels"] == want["labels"]
        assert got["failures"] == want["failures"]
        assert _without_delta_c(got["transitions"]) == \
            _without_delta_c(want["transitions"])
    else:
        assert got["found_gs"] == want["found_gs"]
        assert got["found_es"] == want["found_es"]


def test_r_and_delta_c_within_tolerance(case):
    cmd, got, want = case
    if cmd == "scan":
        for kind in ("gs", "es"):
            for row, ref in zip(got["r"][kind], want["r"][kind], strict=True):
                assert row == pytest.approx(ref, rel=0, abs=R_TOL)
        pairs = [(g["delta_c"], w["delta_c"])
                 for g, w in zip(got["transitions"], want["transitions"], strict=True)]
    else:
        pairs = [pair for kind in ("gs", "es") for pair in zip(
            got[f"delta_c_{kind}"], want[f"delta_c_{kind}"], strict=True)]
    for g, w in pairs:
        assert _delta_c_close(g, w), (g, w)
