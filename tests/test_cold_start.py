"""Each subcommand loads only the scipy subpackages it runs.

`import nlaa.cli` and every subcommand that neither propagates nor
synthesizes a measurement need numpy and scipy's compiled LAPACK module
alone, which nlaa loads from its file without the scipy.linalg package
(about 0.2 s of import on its own). scipy.integrate, with scipy.linalg,
scipy.special and scipy.optimize behind it, costs about 0.4 s and 40 MB
more. Each case runs one tiny command in its own fresh interpreter and
reports which heavy modules it left in sys.modules. The checks are on
module sets, not times, so they do not depend on the machine. The
interpreters of all cases run at once, a few at a time.
"""

import json
import os
import subprocess
import sys
from concurrent.futures import ThreadPoolExecutor
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parents[1] / "src"
HEAVY = ("scipy.linalg", "scipy.integrate", "scipy.optimize", "scipy.special",
         "concurrent.futures.process")

CHILD = """
import json, sys
import nlaa.cli
try:
    rc = nlaa.cli.main(json.loads(sys.argv[1]))
except SystemExit as exc:
    rc = exc.code
print(json.dumps({"rc": rc, "loaded": [m for m in json.loads(sys.argv[2])
                                       if m in sys.modules]}))
"""

SCAN = ["scan", "--L", "13", "--delta-min", "0.5", "--delta-max", "1.5",
        "--delta-step", "0.5", "--u-min", "0", "--u-max", "0.5", "--u-step", "0.5"]
LEAN = {
    "scan": (SCAN, 0),
    "phases": (["phases", "--L", "13", "--u-min", "0.25", "--u-max", "0.25",
                "--delta-max", "4.0", "--delta-step", "0.5"], 0),
    "alpha-star": (["alpha-star", "--u-values", "0.25", "--delta-max", "0.5",
                    "--L", "13"], 3),
    "gaa-me": (["gaa-me", "--L", "55"], 0),
    "solve": (["solve", "--L", "13"], 0),
    "bragg-schedule": (["bragg-schedule"], 0),
    "bad-flag": (["scan", "--no-such-flag"], 2),
}
FIT = ["fit", "--data", "../meas.csv"]
PROPAGATING = {
    "evolve": ["evolve", "--L", "13", "--t-final", "0.1"],
    "scan-ramped": [*SCAN, "--preparation", "ramped"],
}


def _run(name, argv, root):
    """(exit code, heavy modules loaded) of `argv` run in a fresh interpreter
    with its own working directory and --out under `root`."""
    cwd = root / name
    cwd.mkdir()
    env = {**os.environ, "PYTHONPATH": str(SRC)}
    proc = subprocess.run(
        [sys.executable, "-c", CHILD, json.dumps([*argv, "--out", "out"]),
         json.dumps(HEAVY)],
        capture_output=True, text=True, env=env, cwd=cwd, timeout=120)
    assert proc.returncode == 0, proc.stderr
    got = json.loads(proc.stdout.strip().splitlines()[-1])
    return got["rc"], set(got["loaded"])


@pytest.fixture(scope="module")
def loaded(tmp_path_factory):
    root = tmp_path_factory.mktemp("cold_start")
    root.joinpath("meas.csv").write_text("delta_over_j,r\n" + "".join(
        f"{d},{0.6 * d ** -1.2 + 0.05 if d < 1.8 else 0.05}\n"
        for d in (0.2 + 0.1 * k for k in range(30))))
    cases = {**{name: argv for name, (argv, _) in LEAN.items()},
             "fit": FIT, **PROPAGATING}
    with ThreadPoolExecutor(max_workers=min(4, os.cpu_count() or 1)) as pool:
        runs = {name: pool.submit(_run, name, argv, root)
                for name, argv in cases.items()}
        return {name: run.result() for name, run in runs.items()}


@pytest.mark.parametrize("name", LEAN)
def test_subcommands_without_dynamics_or_fits_load_no_heavy_module(loaded, name):
    assert loaded[name] == (LEAN[name][1], set())


def test_fit_on_data_loads_no_heavy_module(loaded):
    # the transition fit needs numpy alone; only a synthesized measurement
    # (its ramps) loads scipy.integrate
    rc, modules = loaded["fit"]
    assert rc == 0
    assert not modules & {"scipy.linalg", "scipy.integrate", "scipy.optimize",
                          "scipy.special"}


@pytest.mark.parametrize("name", PROPAGATING)
def test_propagating_subcommands_load_integrate(loaded, name):
    rc, modules = loaded[name]
    assert rc == 0
    assert {"scipy.integrate", "scipy.linalg"} <= modules


SCAN_EVOLVE_SCAN = """
import json, sys
from pathlib import Path
import numpy as np
import nlaa.cli
scan, evolve = json.loads(sys.argv[1]), json.loads(sys.argv[2])
lean = [nlaa.cli.main([*scan, "--out", "scan1"]), "scipy.linalg" not in sys.modules]
rc = nlaa.cli.main([*evolve, "--out", "evolve"])
import scipy.linalg
from scipy.linalg.lapack import dgtsv
*_, x, info = dgtsv(np.ones(3), np.full(4, 4.0), np.ones(3), np.ones(4))
t = np.diag(np.full(4, 4.0)) + np.eye(4, k=1) + np.eye(4, k=-1)
print(json.dumps({
    "lean": lean, "evolve": rc, "scan": nlaa.cli.main([*scan, "--out", "scan2"]),
    "same": {p.name: p.read_bytes() == Path("scan2", p.name).read_bytes()
             for p in Path("scan1").glob("*.csv")},
    "dgtsv": [int(info), float(np.max(np.abs(x - np.linalg.solve(t, np.ones(4)))))],
    "bound": hasattr(scipy.linalg, "_flapack")}))
"""


def test_scan_after_evolve_in_one_interpreter_is_unchanged(tmp_path):
    """serial_path's order: a scan loads _flapack from its file, an evolve
    then imports scipy.linalg, and a second scan must write the same bytes.
    scipy.linalg.lapack keeps working, and scipy.linalg has its _flapack
    attribute as after a plain import."""
    env = {**os.environ, "PYTHONPATH": str(SRC)}
    proc = subprocess.run(
        [sys.executable, "-c", SCAN_EVOLVE_SCAN, json.dumps(SCAN),
         json.dumps(PROPAGATING["evolve"])],
        capture_output=True, text=True, env=env, cwd=tmp_path, timeout=120)
    assert proc.returncode == 0, proc.stderr
    got = json.loads(proc.stdout.strip().splitlines()[-1])
    assert got["lean"] == [0, True]
    assert (got["evolve"], got["scan"]) == (0, 0)
    assert len(got["same"]) == 5 and all(got["same"].values()), got["same"]
    info, err = got["dgtsv"]
    assert info == 0 and err < 1e-15
    assert got["bound"]
