"""The transition fit against its pinned oracle, tests/golden/fit.json.

The oracle holds the data of the benchmark's `ramp_fit` workload at four
seeds and what the fit made of it when written (tests/golden/make_fit.py
says how). Delta_c, every bootstrap resample's Delta_c and the stderr must
equal it exactly. A and gamma may move within 1e-5 relative, about where a
least-squares stop at a step tolerance of 1e-8 leaves them; B is set by the
winning candidate and must be exact; and the RSS may only fall, up to
rounding.
"""

import json
from pathlib import Path

import numpy as np
import pytest

from nlaa.fitting import bootstrap_delta_c

GOLDEN = json.loads((Path(__file__).resolve().parent / "golden" / "fit.json")
                    .read_text())
PARAM_RTOL = 1e-5
RSS_SLACK = 1e-12


@pytest.fixture(scope="module", params=GOLDEN["cases"],
                ids=lambda case: f"seed{case['seed']}")
def case(request):
    want = request.param
    boot = want["bootstrap"]
    got = bootstrap_delta_c(np.array(want["data"]), n_resamples=boot["n_resamples"],
                            seed=want["seed"])
    return got, want


def test_delta_c_and_its_bootstrap_are_exact(case):
    got, want = case
    boot = want["bootstrap"]
    assert got.base.delta_c == want["fit"]["delta_c"]
    assert got.base.n_points == want["fit"]["n_points"]
    assert got.n_failures == boot["n_failures"]
    assert got.samples.tolist() == boot["samples"]
    assert got.stderr == boot["stderr"]


def test_fit_parameters_within_tolerance(case):
    got, want = case
    fit = want["fit"]
    assert got.base.B == fit["B"]
    assert got.base.A == pytest.approx(fit["A"], rel=PARAM_RTOL)
    assert got.base.gamma == pytest.approx(fit["gamma"], rel=PARAM_RTOL)
    assert got.base.rss <= fit["rss"] * (1 + RSS_SLACK)
