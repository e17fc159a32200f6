"""The functions the benchmark's traced run wraps exist in nlaa, and the
fields its span attributes read exist on what they return.

`perfbench/tracing.py` patches each entry of its TARGETS table and fails
with TraceTargetError if one is gone, reads span attributes off each return
value with the entry's extractor, and `perfbench/mapping.json` names the
spans each workload must record. Both files are read here, not changed, so
that a refactor renaming a traced function or a result field, or one that
stops calling a function a workload's spans require, fails the tests and
not only a `--trace 1` benchmark run.
"""

import importlib
import importlib.util
import inspect
import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np

from nlaa import LatticeState, ModelParams, piecewise_model

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"
SRC = PERFBENCH.parent / "src"


def _tracing():
    spec = importlib.util.spec_from_file_location("perfbench_tracing",
                                                  PERFBENCH / "tracing.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_every_traced_target_resolves_to_an_nlaa_function():
    tracing = _tracing()
    for modname, attr, _, attrs in tracing.TARGETS:
        fn = getattr(importlib.import_module(modname), attr, None)
        assert callable(fn), f"{modname}.{attr} is gone"
        if attrs is tracing._evolve_attrs:
            assert {"t_final", "dt"} <= set(inspect.signature(fn).parameters)


def test_every_required_span_is_a_traced_nlaa_function():
    spans = {span for _, _, span, _ in _tracing().TARGETS}
    mapping = json.loads((PERFBENCH / "mapping.json").read_text())
    for workload, names in mapping["workload_spans"].items():
        for name in names:
            assert name in spans, f"{workload} requires {name}, which is not traced"
            layer, attr = name.split(".", 1)
            assert callable(getattr(importlib.import_module(f"nlaa.{layer}"),
                                    attr, None)), f"nlaa.{name} is gone"


def _extractor_calls():
    """Arguments, at a tiny size, of each traced function with an extractor."""
    delta = np.linspace(0.2, 3.4, 40)
    data = np.column_stack([delta, piecewise_model(delta, 0.05, 0.05, 1.2, 1.8)
                            + 0.01 * np.sin(7.0 * delta)])
    left = np.linspace(0.2, 1.0, 5)
    return {
        "solve_state": ((ModelParams(L=5, Delta=1.0, U=0.1), "es"), {}),
        "evolve": ((ModelParams(L=5, Delta=1.0, U=0.1),
                    LatticeState.single_site(5, 2), 0.01), {}),
        "least_squares": ((np.log(left), np.ones(5),
                           piecewise_model(left, 0.5, 0.0, 1.2, 2.0)[None],
                           np.zeros(1), np.array([5])), {}),
        "bootstrap_delta_c": ((data,), {"n_resamples": 100}),
    }


def test_every_attrs_extractor_reads_a_real_return_value():
    tracing = _tracing()
    calls = _extractor_calls()
    assert {attr for _, attr, _, attrs in tracing.TARGETS if attrs} == set(calls)
    for modname, attr, _, attrs in tracing.TARGETS:
        if attrs is None:
            continue
        fn = getattr(importlib.import_module(modname), attr)
        args, kwargs = calls[attr]
        got = attrs(args, kwargs, fn(*args, **kwargs), inspect.signature(fn))
        assert got and all(isinstance(v, (bool, int, float)) for v in got.values()), \
            (attr, got)


# installs perfbench's Tracer in a fresh interpreter, runs each CLI call and
# prints its exit code and the names of the spans it recorded
TRACED_CHILD = """
import importlib.util, json, sys
import nlaa.cli
spec = importlib.util.spec_from_file_location("perfbench_tracing", sys.argv[1])
tracing = importlib.util.module_from_spec(spec)
spec.loader.exec_module(tracing)
tracer = tracing.Tracer(0)
tracer.install()
runs = []
for argv in json.loads(sys.argv[2]):
    first = len(tracer.spans)
    rc = nlaa.cli.main(argv)
    runs.append({"rc": rc, "spans": sorted({s[0] for s in tracer.spans[first:]})})
print(json.dumps(runs))
"""

# small calls of the subcommands of the ramp_fit and scan_grid workloads
TRACED_CALLS = {
    "ramp_fit": ["fit", "--synthesize", "--u-over-j", "0.3", "--bootstrap", "100",
                 "--dt", "0.01"],
    "scan_grid": ["scan", "--L", "13", "--delta-step", "0.25", "--u-step", "0.5"],
}


def test_small_workload_calls_record_every_required_span(tmp_path):
    mapping = json.loads((PERFBENCH / "mapping.json").read_text())
    calls = [[*argv, "--out", str(tmp_path / name)] for name, argv in TRACED_CALLS.items()]
    proc = subprocess.run(
        [sys.executable, "-c", TRACED_CHILD, str(PERFBENCH / "tracing.py"),
         json.dumps(calls)],
        capture_output=True, text=True, cwd=tmp_path, timeout=300,
        env={**os.environ, "PYTHONPATH": str(SRC)})
    assert proc.returncode == 0, proc.stderr
    runs = json.loads(proc.stdout.strip().splitlines()[-1])
    for name, run in zip(TRACED_CALLS, runs):
        assert run["rc"] == 0, name
        missing = set(mapping["workload_spans"][name]) - set(run["spans"])
        assert not missing, f"{name} records no {sorted(missing)}"
