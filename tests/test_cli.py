"""End-to-end tests of the command-line interface: outputs, manifests,
config precedence, and exit codes. All invocations run in-process through
``nlaa.cli.main``."""

import csv
import hashlib
import json
import os
import re
import tempfile
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from nlaa import eigensolve, fitting, gaa
from nlaa.cli import main
from nlaa.dynamics import EXPERIMENT_RAMP
from nlaa.fitting import piecewise_model

SIG12 = re.compile(r"^-?\d\.\d{11}e[+-]\d{2,3}$")


def _sha(path):
    return hashlib.sha256(path.read_bytes()).hexdigest()


def _rows(path):
    lines = path.read_text().strip().splitlines()
    return lines[0].split(","), [ln.split(",") for ln in lines[1:]]


def _json(path):
    return json.loads(path.read_text())


# -------------------------
# solve
# -------------------------

def test_solve_outputs_and_manifest_hashes(tmp_path):
    rc = main(["solve", "--L", "13", "--delta-over-j", "1.0",
               "--u-over-j", "0.3", "--out", str(tmp_path)])
    assert rc == 0
    header, rows = _rows(tmp_path / "state.csv")
    assert header == ["site", "re_amplitude", "im_amplitude", "density"]
    assert len(rows) == 13
    dens = np.array([float(r[3]) for r in rows])
    assert dens.sum() == pytest.approx(1.0, abs=1e-9)

    sol = _json(tmp_path / "solve.json")
    assert sol["params"]["L"] == 13 and sol["params"]["U"] == 0.3
    assert sol["residual"] <= 1e-10
    assert 0.0 < sol["participation_ratio"] <= 1.0

    man = _json(tmp_path / "manifest.json")
    assert man["subcommand"] == "solve"
    assert man["config"]["delta_over_j"] == 1.0
    for name, digest in man["outputs"].items():
        assert _sha(tmp_path / name) == digest
    assert set(man["outputs"]) == {"state.csv", "solve.json"}
    assert man["versions"]["numpy"] == np.__version__


def test_csv_floats_carry_twelve_significant_digits(tmp_path):
    main(["solve", "--L", "13", "--delta-over-j", "1.0",
          "--out", str(tmp_path)])
    _, rows = _rows(tmp_path / "state.csv")
    for r in rows:
        assert SIG12.match(r[3]), r[3]


def test_solver_failure_exits_3(tmp_path, capsys):
    # residual tolerance below machine precision cannot be met
    rc = main(["solve", "--L", "13", "--delta-over-j", "1.0",
               "--residual-tol", "1e-18", "--out", str(tmp_path)])
    assert rc == 3
    assert "solver did not converge (kind=gs, U=0.0, Delta=1.0, residual=" \
        in capsys.readouterr().err


def test_solve_json_names_the_kind_as_given(tmp_path):
    for kind in ("gs", "es"):
        assert main(["solve", "--L", "13", "--kind", kind,
                     "--out", str(tmp_path / kind)]) == 0
        assert _json(tmp_path / kind / "solve.json")["kind"] == kind


@pytest.mark.parametrize("kind, u, delta, certified", [
    ("gs", -1.0, 8.0, False),    # defocusing, a stationary state above the minimum
    ("gs", 0.5, 1.5, True), ("es", 0.5, 1.5, True), ("es", -0.5, 1.5, True)])
def test_solve_json_reports_the_certificate(tmp_path, kind, u, delta, certified):
    assert main(["solve", "--L", "21", "--kind", kind, "--u-over-j", str(u),
                 "--delta-over-j", str(delta), "--out", str(tmp_path)]) == 0
    assert _json(tmp_path / "solve.json")["certified"] is certified


def test_non_finite_diagonal_in_the_solver_exits_3(tmp_path, monkeypatch):
    # a non-finite Hamiltonian diagonal reached inside the solver is a
    # numerical failure, not bad input
    import nlaa.eigensolve as eigensolve
    monkeypatch.setattr(eigensolve, "quasiperiodic_potential",
                        lambda params: np.full(params.L, np.nan))
    rc = main(["solve", "--L", "13", "--delta-over-j", "1.0",
               "--out", str(tmp_path)])
    assert rc == 3


ZERO_STATE = "the solver ended on a zero or non-finite state"


@pytest.mark.filterwarnings("ignore::UserWarning", "ignore::RuntimeWarning")
def test_solver_ending_on_a_zero_state_exits_3(tmp_path, capsys):
    # at U/J = 1e300 the excited-state cascade collapses to the zero vector:
    # a numerical failure, not bad input
    rc = main(["solve", "--L", "13", "--kind", "es", "--u-over-j", "1e300",
               "--delta-over-j", "1", "--out", str(tmp_path)])
    assert rc == 3
    assert ZERO_STATE in capsys.readouterr().err


@pytest.mark.parametrize("argv, message", [
    (["solve", "--residual-tol", "nan"], "--residual-tol must be finite and > 0"),
    (["solve", "--residual-tol", "inf"], "--residual-tol must be finite and > 0"),
    (["solve", "--u-over-j", "1", "--max-iterations", "-5"],
     "--max-iterations must be an integer >= 1"),
    (["scan", "--max-iterations", "0"], "--max-iterations must be an integer >= 1"),
], ids=["tol-nan", "tol-inf", "solve-cap-negative", "scan-cap-zero"])
def test_bad_solver_options_exit_2(tmp_path, capsys, argv, message):
    assert main(argv + ["--out", str(tmp_path)]) == 2
    assert message in capsys.readouterr().err
    assert not (tmp_path / "manifest.json").exists()


# -------------------------
# Config file handling
# -------------------------

def test_config_file_flag_precedence(tmp_path):
    cfgfile = tmp_path / "cfg.json"
    cfgfile.write_text(json.dumps({"delta_over_j": 2.0, "L": 13}))
    rc = main(["solve", "--config", str(cfgfile), "--L", "8",
               "--out", str(tmp_path)])
    assert rc == 0
    sol = _json(tmp_path / "solve.json")
    assert sol["params"]["L"] == 8             # flag beats config
    assert sol["params"]["Delta"] == 2.0       # config beats default


def test_unknown_config_key_exits_2(tmp_path):
    cfgfile = tmp_path / "cfg.json"
    cfgfile.write_text(json.dumps({"bogus_knob": 1}))
    rc = main(["solve", "--config", str(cfgfile), "--out", str(tmp_path)])
    assert rc == 2


def test_malformed_config_exits_2(tmp_path):
    cfgfile = tmp_path / "cfg.json"
    cfgfile.write_text("{not json")
    rc = main(["solve", "--config", str(cfgfile), "--out", str(tmp_path)])
    assert rc == 2


# -------------------------
# SI parameter group
# -------------------------

def test_si_group_translates_to_internal_units(tmp_path):
    rc = main(["solve", "--L", "13", "--j-hz", "275", "--delta-hz", "550",
               "--scattering-length-a0", "25", "--out", str(tmp_path)])
    assert rc == 0
    p = _json(tmp_path / "solve.json")["params"]
    assert p["Delta"] == pytest.approx(2.0, rel=1e-12)
    assert p["U"] == pytest.approx(0.25 * 0.36781, rel=1e-3)


def test_si_mixed_with_dimensionless_exits_2(tmp_path):
    rc = main(["solve", "--j-hz", "275", "--delta-over-j", "1.0",
               "--out", str(tmp_path)])
    assert rc == 2


def test_si_without_anchor_exits_2(tmp_path):
    rc = main(["solve", "--delta-hz", "550", "--out", str(tmp_path)])
    assert rc == 2


# (argv, SI option, bad value, message): --j-hz is the anchor (> 0) except
# in bragg-schedule (>= 0, where 0 drops the on-site term)
BAD_SI = [
    (["bragg-schedule"], "j_hz", "nan", "--j-hz must be finite and >= 0"),
    (["bragg-schedule"], "j_hz", "inf", "--j-hz must be finite and >= 0"),
    (["bragg-schedule", "--delta-over-j", "1"], "j_hz", "-275",
     "--j-hz must be finite and >= 0"),
    (["bragg-schedule"], "recoil_khz", "nan", "--recoil-khz must be finite and > 0"),
    (["bragg-schedule"], "recoil_khz", "0", "--recoil-khz must be finite and > 0"),
    (["solve"], "j_hz", "nan", "--j-hz must be finite and > 0"),
    (["solve"], "j_hz", "0", "--j-hz must be finite and > 0"),
    (["solve"], "j_hz", "-inf", "--j-hz must be finite and > 0"),
    (["solve", "--j-hz", "275"], "delta_hz", "inf", "--delta-hz must be finite"),
    (["solve", "--j-hz", "275"], "scattering_length_a0", "nan",
     "--scattering-length-a0 must be finite"),
    (["solve", "--j-hz", "275"], "density_per_cm3", "0",
     "--density-per-cm3 must be finite and > 0"),
    (["solve"], "density_per_cm3", "-inf",
     "--density-per-cm3 must be finite and > 0"),
    (["evolve", "--t-final-ms", "1"], "j_hz", "nan",
     "--j-hz must be finite and > 0"),
    (["evolve", "--j-hz", "275"], "t_final_ms", "nan",
     "--t-final-ms must be finite"),
    (["ramp"], "velocity_hz_per_ms", "0",
     "--velocity-hz-per-ms must be finite and > 0"),
    (["ramp"], "velocity_hz_per_ms", "-275",
     "--velocity-hz-per-ms must be finite and > 0"),
    (["ramp"], "velocity_hz_per_ms", "nan",
     "--velocity-hz-per-ms must be finite and > 0"),
    (["ramp"], "hold_ms", "nan", "--hold-ms must be finite"),
    (["ramp"], "hold_ms", "inf", "--hold-ms must be finite"),
    (["ramp"], "j_hz", "inf", "--j-hz must be finite and > 0"),
]


@pytest.mark.parametrize("as_config", [False, True], ids=["flag", "config"])
@pytest.mark.parametrize("argv, dest, value, message", BAD_SI,
                         ids=[" ".join(a + [d, v]) for a, d, v, _ in BAD_SI])
def test_bad_si_values_exit_2_before_any_work(tmp_path, capsys, argv, dest,
                                              value, message, as_config):
    out = tmp_path / "out"
    if as_config:      # json writes nan and inf as NaN and Infinity
        extra = ["--config", _config_file(tmp_path, {dest: float(value)})]
    else:
        extra = [f"--{dest.replace('_', '-')}={value}"]
    assert main(argv + extra + ["--out", str(out)]) == 2
    assert message in capsys.readouterr().err
    assert list(out.iterdir()) == []


# Hz inputs scale by s, Hz/ms by s^2, the scattering length by s (U is
# linear in it) and ms inputs by 1/s; (argv, output, internal values)
SI_RUNS = [
    (["solve", "--L", "5", "--j-hz", "275", "--delta-hz", "412.5",
      "--scattering-length-a0", "25"], "solve.json", ("Delta", "U")),
    (["evolve", "--L", "5", "--dt", "0.01", "--j-hz", "275",
      "--t-final-ms", "0.05"], "evolve.json", ("t_final",)),
    (["ramp", "--L", "5", "--dt", "0.01", "--j-hz", "275", "--delta-hz",
      "412.5", "--velocity-hz-per-ms", "275", "--hold-ms", "0.1"],
     "ramp.json", ("Delta", "ramp_duration_internal", "hold_internal")),
]
SI_POWERS = {"--j-hz": 1, "--delta-hz": 1, "--scattering-length-a0": 1,
             "--velocity-hz-per-ms": 2, "--t-final-ms": -1, "--hold-ms": -1}


def _internal_values(run, s):
    argv, name, keys = SI_RUNS[run]
    argv = [repr(float(tok) * s ** SI_POWERS[flag]) if flag in SI_POWERS
            else tok for flag, tok in zip([None] + argv, argv)]
    with tempfile.TemporaryDirectory() as out:
        assert main(argv + ["--out", out]) == 0
        got = _json(Path(out) / name)
    return [got["params"][k] if k in ("Delta", "U") else got[k] for k in keys]


@given(st.floats(min_value=1e-3, max_value=1e3))
def test_internal_values_do_not_depend_on_the_lab_unit(s):
    for run in range(len(SI_RUNS)):
        assert _internal_values(run, s) == pytest.approx(
            _internal_values(run, 1.0), rel=1e-12, abs=0)


# (argv, message naming the flag): a value the SI checks let through, or an
# internal one, that would break the work; each must exit 2 before any output
BAD_WORK = [
    (["ramp", "--j-hz", "1e200"],
     "ramp duration from --j-hz and --velocity-hz-per-ms is inf"),
    (["ramp", "--j-hz", "1e-200"],
     "ramp duration from --j-hz and --velocity-hz-per-ms is 0.0"),
    (["ramp", "--j-hz", "1e160", "--velocity-hz-per-ms", "1e300",
      "--hold-ms", "1e200"], "hold from --j-hz and --hold-ms is inf"),
    (["ramp", "--hold-ms=-1"], "hold from --hold-ms is -"),
    (["evolve", "--t-final", "nan"], "--t-final must be finite and >= 0, got nan"),
    (["evolve", "--t-final", "inf"], "--t-final must be finite and >= 0, got inf"),
    (["evolve", "--t-final=-1"], "--t-final must be finite and >= 0, got -1.0"),
    (["evolve", "--j-hz", "1e300", "--t-final-ms", "1e300"],
     "t_final from --j-hz and --t-final-ms is inf"),
    (["solve", "--j-hz", "1e-310", "--delta-hz", "1"],
     "Delta from --j-hz and --delta-hz is inf"),
    (["solve", "--j-hz", "275", "--scattering-length-a0", "1e300",
      "--density-per-cm3", "1e300"],
     "U from --j-hz, --scattering-length-a0 and --density-per-cm3 is inf"),
    (["evolve", "--dt", "nan"], "--dt must be in (0, 0.01], got nan"),
    (["fit", "--synthesize", "--dt", "nan"], "--dt must be in (0, 0.01], got nan"),
    (["fit", "--synthesize", "--n-points", "0"], "--n-points must be an integer >= 4"),
    (["fit", "--synthesize", "--n-points", "3"], "--n-points must be an integer >= 4"),
]


@pytest.mark.parametrize("argv, message", BAD_WORK,
                         ids=[" ".join(argv) for argv, _ in BAD_WORK])
def test_values_that_break_the_work_exit_2_naming_the_flag(tmp_path, capsys,
                                                           argv, message):
    out = tmp_path / "out"
    assert main(argv[:1] + ["--L", "5"] + argv[1:] + ["--out", str(out)]) == 2
    assert message in capsys.readouterr().err
    assert list(out.iterdir()) == []


def test_ramp_ends_at_j_hz(tmp_path):
    # the anchor sets the unit and the ramp: 100/275 ms up to J/h = 100 Hz
    assert main(["ramp", "--j-hz", "100", "--delta-hz", "150",
                 "--velocity-hz-per-ms", "275", "--out", str(tmp_path)]) == 0
    rj = _json(tmp_path / "ramp.json")
    assert rj["params"]["Delta"] == 1.5
    assert rj["ramp_duration_internal"] == pytest.approx(
        2 * np.pi * 100 * (100 / 275) * 1e-3, rel=1e-12)


def test_ramp_without_j_hz_is_the_experiment_ramp(tmp_path):
    for argv in ([], ["--j-hz", "275"]):
        out = tmp_path / str(len(argv))
        assert main(["ramp", "--L", "5", "--dt", "0.01", "--hold-ms", "0.5",
                     *argv, "--out", str(out)]) == 0
        rj = _json(out / "ramp.json")
        assert rj["ramp_duration_internal"] == EXPERIMENT_RAMP.duration
        assert rj["hold_internal"] == pytest.approx(
            0.5 * EXPERIMENT_RAMP.duration, rel=1e-12)


# -------------------------
# evolve / interaction-sweep / ramp
# -------------------------

def test_evolve_trajectory_grid(tmp_path):
    rc = main(["evolve", "--L", "13", "--delta-over-j", "1.0",
               "--t-final", "0.5", "--out", str(tmp_path)])
    assert rc == 0
    header, rows = _rows(tmp_path / "trajectory.csv")
    assert header[:2] == ["time", "participation_ratio"]
    times = [float(r[0]) for r in rows]
    assert times == pytest.approx([0.0, 0.1, 0.2, 0.3, 0.4, 0.5], abs=1e-12)
    ev = _json(tmp_path / "evolve.json")
    assert ev["max_norm_drift"] < 1e-9


@pytest.mark.filterwarnings("ignore::UserWarning")
def test_evolve_integrator_failure_exits_3(tmp_path, capsys):
    # at U/J = 4e4 the integrator spends its step budget within the first
    # snapshot interval: a numerical failure that names its time
    rc = main(["evolve", "--L", "13", "--u-over-j", "40000", "--t-final", "0.5",
               "--out", str(tmp_path)])
    err = capsys.readouterr().err
    assert rc == 3
    assert "failed at t=" in err and "Traceback" not in err
    assert not (tmp_path / "trajectory.csv").exists()


def test_evolve_ms_without_anchor_exits_2(tmp_path):
    rc = main(["evolve", "--t-final-ms", "1.0", "--out", str(tmp_path)])
    assert rc == 2


@pytest.mark.parametrize("subcommand", ["evolve", "ramp"])
@pytest.mark.parametrize("stride", [0, -1])
@pytest.mark.parametrize("as_config", [False, True], ids=["flag", "config"])
def test_stride_below_one_exits_2(tmp_path, capsys, subcommand, stride,
                                  as_config):
    argv = [subcommand, "--L", "13", "--out", str(tmp_path)]
    if as_config:
        argv += ["--config", _config_file(tmp_path, {"stride": stride})]
    else:
        argv += [f"--stride={stride}"]
    assert main(argv) == 2
    assert f"--stride must be an integer >= 1, got {stride}" in capsys.readouterr().err


def test_interaction_sweep_u_grid(tmp_path):
    rc = main(["interaction-sweep", "--L", "13", "--t-final", "0.5",
               "--u-min", "-0.4", "--u-max", "0.4", "--u-step", "0.4",
               "--out", str(tmp_path)])
    assert rc == 0
    _, rows = _rows(tmp_path / "sweep.csv")
    assert [float(r[0]) for r in rows] == pytest.approx([-0.4, 0.0, 0.4])
    assert all(0.0 < float(r[2]) <= 1.0 for r in rows)


def test_ramp_reports_fidelity_deficit(tmp_path):
    rc = main(["ramp", "--L", "13", "--delta-over-j", "3.0",
               "--out", str(tmp_path)])
    assert rc == 0
    rj = _json(tmp_path / "ramp.json")
    assert rj["kind"] == "gs"
    assert 0.0 < rj["r_exact"] <= 1.0
    assert rj["r_deficit"] == pytest.approx(rj["r_exact"] - rj["r_ramped"],
                                            abs=1e-12)
    _, rows = _rows(tmp_path / "ramp_trajectory.csv")
    assert float(rows[0][0]) == 0.0


def test_ramp_whose_exact_solve_does_not_converge_exits_3(tmp_path, capsys):
    # three iterations leave the exact state unconverged: its r is no reference
    rc = main(["ramp", "--L", "13", "--delta-over-j", "1", "--u-over-j", "0.5",
               "--max-iterations", "3", "--out", str(tmp_path)])
    assert rc == 3
    assert "solver did not converge (kind=gs, U=0.5, Delta=1.0, residual=" \
        in capsys.readouterr().err
    assert not (tmp_path / "ramp.json").exists()


# -------------------------
# scan
# -------------------------

SCAN_ARGS = ["scan", "--L", "13", "--delta-min", "1.6", "--delta-max", "2.4",
             "--delta-step", "0.4", "--u-min", "-0.3", "--u-max", "0.3",
             "--u-step", "0.6", "--no-detect"]


def test_scan_matrices_and_resume(tmp_path):
    rc = main(SCAN_ARGS + ["--out", str(tmp_path)])
    assert rc == 0
    for kind in ("gs", "es"):
        header, rows = _rows(tmp_path / f"r_{kind}.csv")
        assert len(header) == 4 and len(rows) == 2    # 3 deltas x 2 u values
    cells = (tmp_path / "scan_cells.jsonl").read_text().strip().splitlines()
    assert len(cells) == 12                            # 2 kinds x 2 u x 3 delta
    before = _sha(tmp_path / "r_gs.csv")

    # second run resumes from the results file: no new cells, same matrix
    rc = main(SCAN_ARGS + ["--out", str(tmp_path)])
    assert rc == 0
    again = (tmp_path / "scan_cells.jsonl").read_text().strip().splitlines()
    assert len(again) == 12
    assert _sha(tmp_path / "r_gs.csv") == before
    assert (tmp_path / "failures.csv").read_text() == \
        "kind,u_over_j,delta_over_j,message\n"


def test_scan_detect_writes_transitions(tmp_path):
    rc = main(["scan", "--L", "13", "--delta-min", "1.0", "--delta-max",
               "3.0", "--delta-step", "0.5", "--u-min", "0.0", "--u-max",
               "0.0", "--u-step", "1.0", "--kind", "gs",
               "--out", str(tmp_path)])
    assert rc == 0
    header, rows = _rows(tmp_path / "transitions.csv")
    assert header == ["kind", "u_over_j", "delta_c_over_j", "n_crossings",
                      "crossings", "message", "refine_solves"]
    assert rows[0][0] == "gs"
    dc = float(rows[0][2])
    assert 1.5 < dc < 2.5                               # AA point at U=0
    assert rows[0][5] == ""
    # the bracket of width 0.5 takes at most ceil(log2(500)) + 1 = 10 steps
    assert 1 <= int(rows[0][6]) <= 10


@pytest.mark.parametrize("changed", [["--phi", "1"], ["--residual-tol", "1e-5"],
                                     ["--max-iterations", "60"]],
                         ids=lambda argv: argv[0])
def test_scan_store_does_not_return_cells_of_other_inputs(tmp_path, changed):
    shared, fresh = tmp_path / "shared", tmp_path / "fresh"
    assert main(SCAN_ARGS + ["--out", str(shared)]) == 0
    assert main(SCAN_ARGS + changed + ["--out", str(shared)]) == 0
    assert main(SCAN_ARGS + changed + ["--out", str(fresh)]) == 0
    for kind in ("gs", "es"):
        assert _sha(shared / f"r_{kind}.csv") == _sha(fresh / f"r_{kind}.csv")


def test_scan_malformed_inner_line_exits_2(tmp_path, capsys):
    assert main(SCAN_ARGS + ["--out", str(tmp_path)]) == 0
    store = tmp_path / "scan_cells.jsonl"
    lines = store.read_text().splitlines(keepends=True)
    store.write_text("".join(lines[:3] + ["{oops\n"] + lines[3:]))
    assert main(SCAN_ARGS + ["--out", str(tmp_path)]) == 2
    assert "line 4 is not a JSON record" in capsys.readouterr().err


@pytest.mark.parametrize("results", ["a-directory", "missing/cells.jsonl"])
def test_scan_results_path_that_cannot_be_a_file_exits_2(tmp_path, capsys,
                                                          results):
    (tmp_path / "a-directory").mkdir()
    out = tmp_path / "out"
    assert main(["scan", "--L", "5", "--results", str(tmp_path / results),
                 "--out", str(out)]) == 2
    assert capsys.readouterr().err.startswith(
        f"error: --results {tmp_path / results} must name a file")
    assert list(out.iterdir()) == []
    assert list((tmp_path / "a-directory").iterdir()) == []


def test_scan_lists_failed_cells_in_failures_csv(tmp_path):
    assert main(SCAN_ARGS + ["--max-iterations", "1", "--out", str(tmp_path)]) == 0
    with open(tmp_path / "failures.csv", newline="") as fh:
        header, *rows = list(csv.reader(fh))
    assert header == ["kind", "u_over_j", "delta_over_j", "message"]
    assert rows and all("did not converge" in msg for *_, msg in rows)
    failed = {(kind, float(u), float(d)) for kind, u, d, _ in rows}
    nan_cells = set()
    for kind in ("gs", "es"):
        head, body = _rows(tmp_path / f"r_{kind}.csv")
        nan_cells |= {(kind, float(row[0]), float(d))
                      for row in body for d, r in zip(head[1:], row[1:])
                      if r == "nan"}
    assert failed == nan_cells
    outputs = _json(tmp_path / "manifest.json")["outputs"]
    assert outputs["failures.csv"] == _sha(tmp_path / "failures.csv")


def test_scan_with_failed_refinement_solves_writes_every_file(
        tmp_path, fail_solves, refinement_points):
    # (gs, U = 0.75) loses the grid cell 1.5, and ITP's first point in the
    # bracket (1, 2) is its midpoint, that failed cell; (es, U = -0.25) fails
    # at its second refinement solve
    second = refinement_points(13, np.arange(0.0, 4.01, 0.5), "es", -0.25)[1]
    fail_solves({("gs", 0.75, 1.5), ("es", -0.25, second)})
    argv = ["scan", "--L", "13", "--delta-step", "0.5"]
    detect, grid = tmp_path / "detect", tmp_path / "grid"
    assert main(argv + ["--out", str(detect)]) == 0
    assert main(argv + ["--no-detect", "--out", str(grid)]) == 0
    assert set(_json(detect / "manifest.json")["outputs"]) == {
        "r_gs.csv", "r_es.csv", "transitions.csv", "phases.csv",
        "failures.csv", "scan_cells.jsonl"}
    rows = {}
    for out in (detect, grid):
        with open(out / "failures.csv", newline="") as fh:
            _, *body = list(csv.reader(fh))
        rows[out] = [(kind, float(u), float(d)) for kind, u, d, _ in body]
    assert len(set(rows[detect])) == len(rows[detect])
    assert set(rows[grid]) < set(rows[detect])
    assert ("gs", 0.75, 1.5) in rows[grid]
    assert ("es", -0.25, float(f"{second:.11e}")) in (set(rows[detect])
                                                     - set(rows[grid]))
    found = {(kind, float(u)): (dc, int(n), message, int(solves))
             for kind, u, dc, n, _, message, solves in _transitions(detect)}
    # the grid's bracket kept
    assert found[("gs", 0.75)][:2] == ("nan", 1)
    assert found[("gs", 0.75)][2].startswith(
        "refinement failed at Delta=1.5: solver did not converge")
    assert found[("gs", 0.75)][3] == 1
    assert found[("es", -0.25)][0] == "nan"
    assert found[("es", -0.25)][2].startswith(
        f"refinement failed at Delta={second:.6g}")
    assert found[("es", -0.25)][3] == 2
    assert all(found[(kind, 0.0)][0] != "nan" for kind in ("gs", "es"))
    _, phases = _rows(detect / "phases.csv")
    labels = {float(row[0]): set(row[1:]) for row in phases}
    assert labels[0.75] == labels[-0.25] == {"?"}
    assert "?" not in labels[0.0]


def _transitions(out):
    """transitions.csv rows; its message column may hold quoted commas."""
    with open(out / "transitions.csv", newline="") as fh:
        return list(csv.reader(fh))[1:]


def test_transitions_csv_says_why_delta_c_is_nan(tmp_path, fail_solves):
    # every bisection midpoint off U = 0 fails; (gs, U = -1) has no crossing
    fail_solves(lambda kind, u, delta: u != 0.0 and delta % 0.5 != 0.0)
    assert main(["scan", "--L", "13", "--delta-step", "0.5",
                 "--out", str(tmp_path)]) == 0
    why = re.compile(r"no downward crossing of r_c=|insufficient valid cells$"
                     r"|refinement failed at Delta=")
    messages = {}
    for kind, u, dc, _, _, message, solves in _transitions(tmp_path):
        if dc == "nan":
            assert why.match(message), message
            # a refinement ends at its first solve, which fails
            assert int(solves) == (message.startswith("refinement"))
        else:
            assert message == "" and int(solves) > 0
        messages.setdefault(dc == "nan", []).append(message)
    assert len(messages[False]) == 2                     # U = 0, both kinds
    assert {m.split(" ")[0] for m in messages[True]} == {"no", "refinement"}


@pytest.mark.filterwarnings("ignore::UserWarning", "ignore::RuntimeWarning")
def test_scan_records_a_zero_state_cell_as_failed(tmp_path):
    assert main(["scan", "--L", "13", "--kind", "es", "--u-min", "1e300",
                 "--u-max", "1e300", "--delta-min", "1", "--delta-max", "1",
                 "--no-detect", "--out", str(tmp_path)]) == 0
    with open(tmp_path / "failures.csv", newline="") as fh:
        _, *rows = list(csv.reader(fh))
    assert [row[:3] for row in rows] == [["es", "1.00000000000e+300", "1.00000000000e+00"]]
    assert rows[0][3].startswith(ZERO_STATE)
    assert _rows(tmp_path / "r_es.csv")[1] == [["1.00000000000e+300", "nan"]]


# -------------------------
# phases / alpha-star / gaa-me
# -------------------------

def test_phases_boundary_ordering(tmp_path):
    rc = main(["phases", "--L", "13", "--u-min", "0.25", "--u-max", "0.25",
               "--u-step", "1.0", "--delta-max", "4.0", "--delta-step", "0.5",
               "--out", str(tmp_path)])
    assert rc == 0
    _, rows = _rows(tmp_path / "boundaries.csv")
    assert len(rows) == 1
    u, dc_gs, dc_es = (float(x) for x in rows[0])
    assert u == 0.25
    assert dc_gs < dc_es                                # focusing shifts GS down


def test_phases_whose_grid_cell_does_not_converge_exits_3(tmp_path, capsys,
                                                          fail_solves):
    # a grid cell below the first bracket of (es, U = 0.25) fails: no
    # boundary is written from a row with a hole in it
    fail_solves({("es", 0.25, 1.0)})
    rc = main(["phases", "--L", "13", "--u-min", "0.25", "--u-max", "0.25",
               "--u-step", "1.0", "--delta-max", "4.0", "--delta-step", "0.5",
               "--out", str(tmp_path)])
    assert rc == 3
    assert "solver did not converge (kind=es, U=0.25, Delta=1.0, residual=" \
        in capsys.readouterr().err
    assert not (tmp_path / "boundaries.csv").exists()


@pytest.mark.skipif((os.cpu_count() or 1) < 2, reason="--workers 2 needs two CPUs")
def test_phases_pool_writes_the_serial_boundaries(tmp_path, monkeypatch):
    # U on both sides of 0: the pool's warm solves take the Newton exit on
    # either sign of U in the model each kind solves, lone or as rows (a
    # focusing row's two warm starts)
    finish, finish_rows, finished = eigensolve._newton_exit, eigensolve._exit_rows, []

    def spy(J, eps, U, *args):
        out = finish(J, eps, U, *args)
        finished.append((U > 0, out is not None))
        return out

    def spy_rows(J, eps, U, *args):
        outs = finish_rows(J, eps, U, *args)
        finished.extend((u > 0, out is not None) for u, out in zip(U, outs))
        return outs

    argv = ["phases", "--L", "13", "--u-min", "-0.5", "--u-max", "0.5",
            "--u-step", "0.5", "--delta-max", "4", "--delta-step", "0.25"]
    monkeypatch.setattr(eigensolve, "_newton_exit", spy)
    monkeypatch.setattr(eigensolve, "_exit_rows", spy_rows)
    assert main(argv + ["--out", str(tmp_path / "serial")]) == 0
    monkeypatch.undo()
    assert {focusing for focusing, taken in finished if taken} == {False, True}
    assert main(argv + ["--workers", "2", "--out", str(tmp_path / "pool")]) == 0
    serial, pool = (tmp_path / name / "boundaries.csv" for name in ("serial", "pool"))
    assert pool.read_bytes() == serial.read_bytes()
    assert len(_rows(serial)[1]) == 3


def test_alpha_star_unbracketed_exits_3(tmp_path):
    rc = main(["alpha-star", "--u-values", "0.25", "--delta-max", "0.5",
               "--L", "13", "--out", str(tmp_path)])
    assert rc == 3


def test_alpha_star_whose_critical_state_does_not_converge_exits_3(
        tmp_path, capsys, monkeypatch):
    # the state at Delta_c is solved after the transition is found; one left
    # unconverged must not give e_c and alpha*
    solve = gaa.solve_state
    monkeypatch.setattr(gaa, "solve_state", lambda *args, **kwargs: replace(
        solve(*args, **kwargs), converged=False))
    rc = main(["alpha-star", "--L", "13", "--u-values", "0.25", "--delta-max", "4",
               "--delta-step", "0.25", "--out", str(tmp_path)])
    assert rc == 3
    assert "solver did not converge (kind=gs, U=0.25, Delta=" \
        in capsys.readouterr().err
    assert not (tmp_path / "alpha_star.csv").exists()


def test_alpha_star_bad_u_values_exits_2(tmp_path):
    rc = main(["alpha-star", "--u-values", "abc", "--out", str(tmp_path)])
    assert rc == 2


def test_alpha_star_repeated_u_value_exits_2_before_any_solve(tmp_path, capsys):
    # two copies of one U would be fitted as a line through one point
    rc = main(["alpha-star", "--L", "13", "--u-values", "0.1,0.1",
               "--delta-max", "4", "--delta-step", "0.25", "--out", str(tmp_path)])
    assert rc == 2
    assert "--u-values must be comma-separated finite numbers, none repeated" \
        in capsys.readouterr().err
    assert list(tmp_path.iterdir()) == []
    with pytest.raises(SystemExit):
        main(["alpha-star", "--help"])
    assert "finite numbers, none repeated" in " ".join(capsys.readouterr().out.split())


def test_gaa_me_spectrum_and_edge(tmp_path):
    rc = main(["gaa-me", "--L", "233", "--alpha", "0.5",
               "--delta-over-j", "1.5", "--out", str(tmp_path)])
    assert rc == 0
    gj = _json(tmp_path / "gaa.json")
    assert gj["mobility_edge"] == pytest.approx(1.0, rel=1e-12)
    assert gj["misclassification"] <= 0.05
    assert gj["r_threshold"] is not None
    _, rows = _rows(tmp_path / "gaa_spectrum.csv")
    assert len(rows) == 233
    loc = sum(r[4] == "True" for r in rows)
    assert 0 < loc < 233


# -------------------------
# fit
# -------------------------

def test_fit_on_data_file_with_header(tmp_path):
    deltas = np.linspace(0.2, 3.4, 40)
    r = piecewise_model(deltas, 0.6, 1.0 / 21.0, 1.2, 1.8)
    datafile = tmp_path / "meas.csv"
    lines = ["delta_over_j,r"] + [f"{d},{v}" for d, v in zip(deltas, r)]
    datafile.write_text("\n".join(lines) + "\n")
    rc = main(["fit", "--data", str(datafile), "--out", str(tmp_path)])
    assert rc == 0
    fj = _json(tmp_path / "fit.json")
    assert fj["delta_c"] == pytest.approx(1.8, abs=1e-6)
    assert fj["gamma"] == pytest.approx(1.2, abs=1e-6)
    assert fj["delta_c_stderr"] is None
    header, rows = _rows(tmp_path / "fitted_curve.csv")
    assert header == ["delta_over_j", "r_data", "r_fit"]
    assert len(rows) == 40


@pytest.mark.parametrize("header", [None, "delta_over_j,r"],
                         ids=["exponent-first-row", "text-header"])
def test_fit_reads_a_first_row_only_as_a_header_if_it_is_not_numbers(
        tmp_path, header):
    # a first row in exponent form (2.000000e-01,...) holds letters but is data
    deltas = np.linspace(0.2, 3.4, 12)
    r = piecewise_model(deltas, 0.6, 1.0 / 21.0, 1.2, 1.8)
    lines = [f"{d:.6e},{v:.6e}" for d, v in zip(deltas, r)]
    datafile = tmp_path / "meas.csv"
    datafile.write_text("\n".join(([header] if header else []) + lines) + "\n")
    assert main(["fit", "--data", str(datafile), "--out", str(tmp_path)]) == 0
    assert _json(tmp_path / "fit.json")["n_points"] == 12
    _, rows = _rows(tmp_path / "fitted_curve.csv")
    assert float(rows[0][0]) == pytest.approx(0.2, abs=1e-6)


def test_fit_synthesize_runs_are_byte_identical(tmp_path):
    args = ["fit", "--synthesize", "--L", "13", "--n-points", "12",
            "--delta-min", "0.4", "--delta-max", "3.2",
            "--noise-sigma", "0.005", "--seed", "9"]
    a, b = tmp_path / "a", tmp_path / "b"
    assert main(args + ["--out", str(a)]) == 0
    assert main(args + ["--out", str(b)]) == 0
    for name in ("data.csv", "fit.json", "fitted_curve.csv"):
        assert _sha(a / name) == _sha(b / name), name


def test_fit_bootstrap_populates_stderr(tmp_path):
    deltas = np.linspace(0.2, 3.4, 40)
    rng = np.random.default_rng(11)
    r = piecewise_model(deltas, 0.05, 1.0 / 21.0, 1.2, 1.8) \
        + rng.normal(0.0, 0.01, deltas.size)
    datafile = tmp_path / "meas.csv"
    datafile.write_text("\n".join(f"{d},{v}" for d, v in zip(deltas, r)) + "\n")
    rc = main(["fit", "--data", str(datafile), "--bootstrap", "100",
               "--seed", "3", "--out", str(tmp_path)])
    assert rc == 0
    fj = _json(tmp_path / "fit.json")
    assert fj["bootstrap"]["n_resamples"] == 100
    assert fj["bootstrap"]["valid"] is True
    assert 0.0 < fj["delta_c_stderr"] < 0.3


def test_fit_json_of_an_invalid_bootstrap_is_strict_json(tmp_path, monkeypatch):
    search = fitting._search

    def search_failing(delta, w, R):        # 30 % of the bootstrap refits fail
        best, usable, converged = search(delta, w, R)
        if len(R) > 1:
            converged = converged.copy()
            converged[:3 * len(R) // 10] = False
        return best, usable, converged

    monkeypatch.setattr(fitting, "_search", search_failing)
    deltas = np.linspace(0.2, 3.4, 40)
    r = piecewise_model(deltas, 0.05, 1.0 / 21.0, 1.2, 1.8)
    datafile = tmp_path / "meas.csv"
    datafile.write_text("\n".join(f"{d},{v}" for d, v in zip(deltas, r)) + "\n")
    assert main(["fit", "--data", str(datafile), "--bootstrap", "100",
                 "--out", str(tmp_path)]) == 0

    def reject(token):
        raise ValueError(f"fit.json holds the non-standard token {token}")

    fj = json.loads((tmp_path / "fit.json").read_text(), parse_constant=reject)
    assert fj["bootstrap"] == {"n_resamples": 100, "n_failures": 30, "valid": False}
    assert fj["delta_c_stderr"] is None


def test_fit_without_source_exits_2(tmp_path):
    assert main(["fit", "--out", str(tmp_path)]) == 2


def test_fit_with_both_sources_exits_2(tmp_path):
    assert main(["fit", "--data", "x.csv", "--synthesize",
                 "--out", str(tmp_path)]) == 2


def test_fit_missing_data_file_exits_2(tmp_path):
    assert main(["fit", "--data", str(tmp_path / "nope.csv"),
                 "--out", str(tmp_path)]) == 2


@pytest.mark.parametrize("bad_row, column", [("nan,0.3", "delta"),
                                             ("1.5,nan", "r"),
                                             ("1.5,inf", "r")])
def test_fit_non_finite_data_exits_2(tmp_path, capsys, bad_row, column):
    deltas = np.linspace(0.2, 3.4, 20)
    lines = [f"{d},{v}" for d, v in
             zip(deltas, piecewise_model(deltas, 0.6, 1.0 / 21.0, 1.2, 1.8))]
    lines[4] = bad_row
    datafile = tmp_path / "meas.csv"
    datafile.write_text("delta_over_j,r\n" + "\n".join(lines) + "\n")
    rc = main(["fit", "--data", str(datafile), "--out", str(tmp_path)])
    assert rc == 2
    assert f"{column} in data row 5 is not finite" in capsys.readouterr().err
    assert not (tmp_path / "fit.json").exists()


BAD_FIT_OPTIONS = [
    (["--bootstrap", "50"], "--bootstrap must be 0 or an integer >= 100, got 50"),
    (["--bootstrap", "1"], "--bootstrap must be 0 or an integer >= 100, got 1"),
    (["--bootstrap", "-3"], "--bootstrap must be 0 or an integer >= 100, got -3"),
    (["--noise-sigma", "-0.1"], "--noise-sigma must be finite and >= 0, got -0.1"),
    (["--noise-sigma", "nan"], "--noise-sigma must be finite and >= 0, got nan"),
    (["--noise-sigma", "inf"], "--noise-sigma must be finite and >= 0, got inf"),
    (["--floor", "-0.001"], "--floor must be finite and >= 0, got -0.001"),
    (["--floor", "nan"], "--floor must be finite and >= 0, got nan"),
]


@pytest.mark.parametrize("argv, message", BAD_FIT_OPTIONS,
                         ids=[" ".join(argv) for argv, _ in BAD_FIT_OPTIONS])
def test_bad_fit_options_exit_2_before_any_synthesis(tmp_path, capsys, argv,
                                                      message):
    assert main(["fit", "--synthesize"] + argv + ["--out", str(tmp_path)]) == 2
    assert message in capsys.readouterr().err
    assert list(tmp_path.iterdir()) == []


def test_bad_fit_option_in_config_exits_2(tmp_path, capsys):
    cfg = _config_file(tmp_path, {"synthesize": True, "bootstrap": 99})
    assert main(["fit", "--config", cfg, "--out", str(tmp_path)]) == 2
    assert "--bootstrap must be 0 or an integer >= 100, got 99" in capsys.readouterr().err
    assert not (tmp_path / "data.csv").exists()


def test_fit_constant_data_exits_4(tmp_path):
    datafile = tmp_path / "flat.csv"
    datafile.write_text("\n".join(f"{d},0.3" for d in
                                  np.linspace(0.5, 3.0, 10)) + "\n")
    rc = main(["fit", "--data", str(datafile), "--out", str(tmp_path)])
    assert rc == 4


@pytest.mark.parametrize("bootstrap", ["0", "100"])
def test_fit_whose_base_fit_hits_the_newton_cap_exits_4(tmp_path, capsys,
                                                        monkeypatch, bootstrap):
    # one Newton step is too few for noisy data: the base fit fails as
    # unidentifiable rather than returning an unconverged value
    monkeypatch.setattr(fitting, "NEWTON_CAP", 1)
    deltas = np.linspace(0.2, 3.4, 40)
    r = piecewise_model(deltas, 0.6, 1.0 / 21.0, 1.2, 1.8) \
        + np.random.default_rng(2).normal(0.0, 0.01, deltas.size)
    datafile = tmp_path / "meas.csv"
    datafile.write_text("\n".join(f"{d},{v}" for d, v in zip(deltas, r)) + "\n")
    rc = main(["fit", "--data", str(datafile), "--bootstrap", bootstrap,
               "--out", str(tmp_path / "out")])
    assert rc == 4
    assert "did not converge in 1 Newton steps" in capsys.readouterr().err
    assert not (tmp_path / "out" / "fit.json").exists()


# -------------------------
# bragg-schedule / misc
# -------------------------

def test_bragg_schedule_detunings(tmp_path):
    rc = main(["bragg-schedule", "--out", str(tmp_path)])
    assert rc == 0
    header, rows = _rows(tmp_path / "bragg.csv")
    assert header == ["bond_j", "detuning_over_2pi_hz", "phase_rad"]
    assert len(rows) == 20
    assert [int(r[0]) for r in rows] == list(range(-10, 10))
    by_bond = {int(r[0]): float(r[1]) for r in rows}
    assert by_bond[0] == pytest.approx(4 * 5.3e3, rel=1e-9)
    assert by_bond[1] == pytest.approx(12 * 5.3e3, rel=1e-9)
    for r in rows:
        p = float(r[2])
        assert p == 0.0 or p == pytest.approx(np.pi, rel=1e-12)


def test_outdir_env_variable(tmp_path, monkeypatch):
    monkeypatch.setenv("NLAA_OUTDIR", str(tmp_path / "envout"))
    rc = main(["bragg-schedule"])
    assert rc == 0
    assert (tmp_path / "envout" / "bragg.csv").exists()
    assert (tmp_path / "envout" / "manifest.json").exists()


def test_out_that_is_a_file_exits_2(tmp_path, capsys, monkeypatch):
    taken = tmp_path / "taken"
    taken.write_text("keep\n")
    assert main(["solve", "--out", str(taken)]) == 2
    assert capsys.readouterr().err.startswith(f"error: --out {taken} is not")
    monkeypatch.setenv("NLAA_OUTDIR", str(taken))
    assert main(["solve"]) == 2
    assert capsys.readouterr().err.startswith(
        f"error: $NLAA_OUTDIR {taken} is not")
    assert taken.read_text() == "keep\n"
    assert sorted(tmp_path.iterdir()) == [taken]


def test_version_flag_exits_cleanly():
    with pytest.raises(SystemExit) as exc:
        main(["--version"])
    assert exc.value.code == 0


# -------------------------
# Option table: flags and config keys
# -------------------------

def _config_file(tmp_path, obj):
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps(obj))
    return str(path)


def test_synthesize_is_a_config_key(tmp_path):
    cfg = _config_file(tmp_path, {"synthesize": True, "L": 13, "n_points": 8,
                                  "dt": 0.01})
    assert main(["fit", "--config", cfg, "--out", str(tmp_path)]) == 0
    assert _json(tmp_path / "manifest.json")["config"]["synthesize"] is True
    _, rows = _rows(tmp_path / "data.csv")
    assert len(rows) == 8


def test_no_detect_is_a_config_key(tmp_path):
    args = [a for a in SCAN_ARGS if a != "--no-detect"]
    cfg = _config_file(tmp_path, {"no_detect": True})
    assert main(args + ["--config", cfg, "--out", str(tmp_path)]) == 0
    assert _json(tmp_path / "manifest.json")["config"]["no_detect"] is True
    assert (tmp_path / "r_gs.csv").exists()
    assert not (tmp_path / "transitions.csv").exists()


@pytest.mark.parametrize("argv", [
    ["solve", "--seed", "3"],
    ["interaction-sweep", "--u-over-j", "0.3"],
    ["interaction-sweep", "--j-hz", "275", "--delta-hz", "550"],
    ["ramp", "--j-target-hz", "275"],
], ids=" ".join)
def test_options_a_subcommand_does_not_read_are_usage_errors(tmp_path, argv):
    with pytest.raises(SystemExit) as exc:
        main(argv + ["--out", str(tmp_path)])
    assert exc.value.code == 2


@pytest.mark.parametrize("subcommand, key", [("solve", "seed"),
                                             ("interaction-sweep", "u_over_j"),
                                             ("interaction-sweep", "j_hz"),
                                             ("ramp", "j_target_hz")])
def test_config_keys_a_subcommand_does_not_read_exit_2(tmp_path, subcommand,
                                                       key):
    cfg = _config_file(tmp_path, {key: 3})
    assert main([subcommand, "--config", cfg, "--out", str(tmp_path)]) == 2


BAD_GRIDS = [
    (["scan", "--delta-step", "0"], "--delta-step must be finite and > 0"),
    (["scan", "--u-min", "0.5", "--u-max", "-0.5"], "empty grid"),
    (["interaction-sweep", "--u-step", "0"], "--u-step must be finite and > 0"),
    (["phases", "--u-step", "-1"], "--u-step must be finite and > 0"),
    (["phases", "--delta-step", "0"], "--delta-step must be finite and > 0"),
    (["alpha-star", "--delta-step", "-0.1"], "--delta-step must be finite and > 0"),
    (["scan", "--delta-step", "inf"], "--delta-step must be finite and > 0"),
    (["scan", "--delta-min", "nan"], "--delta-min must be finite"),
    (["scan", "--delta-max", "inf"], "--delta-max must be finite"),
    (["scan", "--u-min=-inf"], "--u-min must be finite"),
    (["interaction-sweep", "--u-max", "nan"], "--u-max must be finite"),
    (["phases", "--delta-max", "nan"], "--delta-max must be finite"),
    (["alpha-star", "--delta-max", "nan"], "--delta-max must be finite"),
    (["phases", "--delta-max", "-1"], "fewer than 2 Delta samples"),
    (["phases", "--delta-max", "0.2", "--delta-step", "0.5"],
     "fewer than 2 Delta samples"),
    (["alpha-star", "--delta-max", "0.04"], "fewer than 2 Delta samples"),
    (["scan", "--L", "5", "--delta-max", "1e300"],
     "--delta-min, --delta-max and --delta-step give more grid samples"),
    (["scan", "--L", "5", "--u-min", "-1e300", "--u-max", "1e300"],
     "--u-min, --u-max and --u-step give more grid samples"),
    (["phases", "--L", "5", "--delta-max", "1e300"],
     "--delta-max and --delta-step give more grid samples"),
]


@pytest.mark.filterwarnings("ignore::UserWarning", "ignore::RuntimeWarning")
@pytest.mark.parametrize("value", ["3", "-2.5", "1e200", "-1e300"])
def test_equal_grid_ends_give_one_point(tmp_path, value):
    # at large values u_max + u_step / 2 rounds back to u_max
    assert main(["scan", "--L", "13", "--kind", "gs", f"--u-min={value}",
                 f"--u-max={value}", "--delta-min", "1", "--delta-max", "1",
                 "--no-detect", "--out", str(tmp_path)]) == 0
    _, rows = _rows(tmp_path / "r_gs.csv")
    assert [float(row[0]) for row in rows] == [float(value)]


@pytest.mark.parametrize("argv, message", BAD_GRIDS,
                         ids=[" ".join(argv) for argv, _ in BAD_GRIDS])
def test_bad_grid_exits_2_before_any_work(tmp_path, capsys, argv, message):
    assert main(argv + ["--out", str(tmp_path)]) == 2
    assert message in capsys.readouterr().err
    assert list(tmp_path.iterdir()) == []


@pytest.mark.parametrize("subcommand, obj", [
    ("scan", {"delta_step": "0.1"}),
    ("solve", {"L": 13.5}),
    ("solve", {"L": True}),
    ("solve", {"delta_over_j": "1"}),
    ("solve", {"kind": "both"}),
    ("fit", {"synthesize": "yes"}),
    ("fit", {"synthesize": 1}),
], ids=lambda x: x if isinstance(x, str) else json.dumps(x))
def test_config_values_are_typed_like_flags(tmp_path, capsys, subcommand, obj):
    cfg = _config_file(tmp_path, obj)
    assert main([subcommand, "--config", cfg, "--out", str(tmp_path)]) == 2
    assert f"config key {next(iter(obj))!r} must be" in capsys.readouterr().err


def _declared_options():
    from nlaa.cli import COMMANDS
    return [(name, dest) for name, (_, _, defaults) in COMMANDS.items()
            for dest in defaults]


def _sample(opt):
    """A value of the option's type inside its domain, other than any default."""
    if opt.choices:
        return opt.choices[-1]
    candidates = {bool: [True], int: [7, 150, 2, 1], float: [0.375, 0.005],
                  str: ["x.csv", "0.5"]}[opt.type]
    return next(v for v in candidates if not opt.domain or opt.domain[0](v))


def _float_options():
    from nlaa.cli import _option
    return [(name, dest) for name, dest in _declared_options()
            if _option(name, dest).type is float]


@pytest.mark.parametrize("subcommand, dest", _float_options())
def test_negative_float_values_parse_in_every_form(subcommand, dest):
    from nlaa.cli import build_parser
    flag = "--" + dest.replace("_", "-")
    for text in ("-0.1", "-1e-1", "-1E-1", "-.1", "-0.01e1"):
        args = build_parser().parse_args([subcommand, flag, text])
        assert getattr(args, dest) == -0.1


@pytest.mark.parametrize("text", ["-0.25,-0.125,0.125,0.25", "-1e-1", "-2.5e-1,1e-1"])
def test_u_values_lists_starting_with_minus_parse(text):
    from nlaa.cli import build_parser
    args = build_parser().parse_args(["alpha-star", "--u-values", text])
    assert args.u_values == text


@pytest.fixture
def stub_handlers(monkeypatch):
    """Each subcommand only resolves its config and writes the manifest."""
    import nlaa.cli as cli
    for name, (_, help_, defaults) in list(cli.COMMANDS.items()):
        monkeypatch.setitem(cli.COMMANDS, name,
                            (lambda cfg, outdir: [], help_, defaults))


def _help_entries(text):
    """The entries of an argparse help's options section, each as its
    first long flag and its whole text with whitespace collapsed."""
    lines = text.split("\noptions:\n", 1)[1].splitlines()
    entries = []
    for line in lines:
        if line.startswith("  -"):
            entries.append(line)
        elif entries:
            entries[-1] += " " + line
    return {re.search(r"--[\w-]+", e).group(): " ".join(e.split()) for e in entries}


@pytest.mark.parametrize("subcommand", ["solve", "evolve", "interaction-sweep", "ramp",
                                        "scan", "phases", "alpha-star", "gaa-me", "fit",
                                        "bragg-schedule"])
def test_help_lists_exactly_the_subcommands_options_with_their_domain(
        capsys, subcommand):
    from nlaa.cli import COMMANDS, _option
    with pytest.raises(SystemExit):
        main([subcommand, "--help"])
    entries = _help_entries(capsys.readouterr().out)
    defaults = COMMANDS[subcommand][2]
    assert set(entries) == {"--help", "--config", "--out"} | {
        "--" + dest.replace("_", "-") for dest in defaults}
    for dest, default in defaults.items():
        opt, entry = _option(subcommand, dest), entries["--" + dest.replace("_", "-")]
        assert opt.help in entry
        if opt.domain:
            assert f"must be {opt.domain[1]}" in entry
        if default is not None and opt.type is not bool:
            assert entry.endswith(f"(default {default})")


def test_a_call_adds_the_options_of_its_subcommand_only(tmp_path, monkeypatch,
                                                        stub_handlers):
    import argparse

    import nlaa.cli as cli
    parsers, build = [], cli.build_parser
    monkeypatch.setattr(cli, "build_parser", lambda: parsers.append(build()) or parsers[-1])
    for used in cli.COMMANDS:
        assert main([used, "--out", str(tmp_path)]) == 0
        sub, = (a for a in parsers[-1]._actions
                if isinstance(a, argparse._SubParsersAction))
        for name, parser in sub.choices.items():
            dests = [a.dest for a in parser._actions]
            if name == used:
                assert dests == ["help", "config", "out", *cli.COMMANDS[name][2]]
            else:
                assert dests == ["help"], name
    assert len(parsers) == len(cli.COMMANDS)


@pytest.mark.parametrize("subcommand, dest", _declared_options())
def test_flag_and_config_key_give_the_same_manifest_config(
        tmp_path, stub_handlers, subcommand, dest):
    from nlaa.cli import _option
    opt = _option(subcommand, dest)
    value = _sample(opt)
    flag = ["--" + dest.replace("_", "-")]
    if opt.type is not bool:
        flag.append(str(value))
    by_flag, by_config = tmp_path / "flag", tmp_path / "config"
    assert main([subcommand, *flag, "--out", str(by_flag)]) == 0
    cfg = _config_file(tmp_path, {dest: value})
    assert main([subcommand, "--config", cfg, "--out", str(by_config)]) == 0
    got = _json(by_flag / "manifest.json")["config"]
    assert got[dest] == value
    assert got == _json(by_config / "manifest.json")["config"]


@pytest.mark.parametrize("subcommand", sorted({s for s, _ in
                                               _declared_options()}))
def test_manifest_config_reads_back_as_a_config(tmp_path, stub_handlers,
                                                subcommand):
    first, second = tmp_path / "first", tmp_path / "second"
    assert main([subcommand, "--out", str(first)]) == 0
    config = _json(first / "manifest.json")["config"]
    cfg = _config_file(tmp_path, config)
    assert main([subcommand, "--config", cfg, "--out", str(second)]) == 0
    assert _json(second / "manifest.json")["config"] == config


def _domain_options():
    from nlaa.cli import _option
    return [(name, dest) for name, dest in _declared_options()
            if _option(name, dest).domain]


def _outside(opt):
    """Values just outside the option's domain, read from its text: nan,
    +-inf and integers past the float range for a float, the first integer
    below each integer bound, and the excluded ends of an interval."""
    text = opt.domain[1]
    values = ([float("nan"), float("inf"), float("-inf"), 10 ** 400, -10 ** 400]
              if opt.type is float else [])
    bound = re.fullmatch(r"(0 or )?an integer >= (\d+)", text)
    if bound:
        return values + [int(bound[2]) - 1] + ([-1] if bound[1] else [])
    ends = re.fullmatch(r"an integer in \[(\d+), (\d+)\]", text)
    if ends:
        return [int(ends[1]) - 1, int(ends[2]) + 1]
    return values + {
        "finite": [],
        "finite and > 0": [0.0, -1.0],
        "finite and >= 0": [-5e-324],
        "in (0, 0.01]": [0.0, 0.010000000000000002],
        "in (-1, 1)": [-1.0, 1.0],
        "comma-separated finite numbers, none repeated": [
            "", ",", "abc", "0.1,nan", "1e400", "0.1,0.1", "-0.25,0.5,-0.25"],
    }[text]


@pytest.mark.parametrize("as_config", [False, True], ids=["flag", "config"])
@pytest.mark.parametrize("subcommand, dest", _domain_options())
def test_values_outside_the_domain_exit_2_naming_the_flag(tmp_path, capsys,
                                                          subcommand, dest,
                                                          as_config):
    from nlaa.cli import _option
    flag = "--" + dest.replace("_", "-")
    for i, value in enumerate(_outside(_option(subcommand, dest))):
        out = tmp_path / f"out{i}"
        if as_config:      # json writes nan and inf as NaN and Infinity
            extra = ["--config", _config_file(tmp_path, {dest: value})]
        else:
            extra = [f"{flag}={value}"]
        assert main([subcommand, *extra, "--out", str(out)]) == 2, value
        err = capsys.readouterr().err
        assert err.startswith(f"error: {flag} must be "), (value, err)
        assert list(out.iterdir()) == [], value


@pytest.mark.parametrize("as_config", [False, True], ids=["flag", "config"])
@pytest.mark.parametrize("subcommand", ["scan", "phases"])
def test_workers_above_the_cpu_count_exit_2_before_any_pool(
        tmp_path, capsys, monkeypatch, subcommand, as_config):
    import concurrent.futures

    def no_pool(*args, **kwargs):
        raise AssertionError("a process pool was created")

    # cli imports the pool from concurrent.futures when it needs one
    monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", no_pool)
    n = os.cpu_count() or 1
    # phases takes at most n workers; scan has no pool and reads no --workers
    workers = n + 1 if subcommand == "phases" else 2
    out = tmp_path / "out"
    argv = [subcommand, "--L", "5", "--out", str(out)] + (
        ["--config", _config_file(tmp_path, {"workers": workers})] if as_config
        else ["--workers", str(workers)])
    if subcommand == "scan" and not as_config:      # an argparse usage error
        with pytest.raises(SystemExit) as exc:
            main(argv)
        assert exc.value.code == 2
    else:
        assert main(argv) == 2
    expected = (f"error: --workers must be an integer in [1, {n}], got {n + 1}"
                if subcommand == "phases" else
                "error: unknown config keys ['workers']" if as_config else
                "error: unrecognized arguments: --workers 2")
    assert expected in capsys.readouterr().err
    assert not out.exists() or list(out.iterdir()) == []


def test_every_number_option_has_a_domain_that_holds_its_defaults():
    from nlaa.cli import COMMANDS, OPTIONS, _option
    for key, opt in OPTIONS.items():
        if opt.type in (int, float):
            assert opt.domain or opt.choices, key
    for subcommand, dest in _declared_options():
        opt, default = _option(subcommand, dest), COMMANDS[subcommand][2][dest]
        if default is not None and opt.domain:
            assert opt.domain[0](default), (subcommand, dest, default)
        if default is not None and opt.choices:
            assert default in opt.choices, (subcommand, dest, default)
