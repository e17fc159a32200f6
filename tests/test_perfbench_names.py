"""The functions the benchmark's traced run wraps exist in nlaa, and the
fields its span attributes read exist on what they return.

`perfbench/tracing.py` patches each entry of its TARGETS table and fails
with TraceTargetError if one is gone, reads span attributes off each return
value with the entry's extractor, and `perfbench/mapping.json` names the
spans each workload must record. Both files are read here, not changed, so
that a refactor renaming a traced function or a result field fails the
tests and not only a `--trace 1` benchmark run.
"""

import importlib
import importlib.util
import inspect
import json
from pathlib import Path

import numpy as np

from nlaa import LatticeState, ModelParams, piecewise_model

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"


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
