"""The functions the benchmark's traced run wraps exist in nlaa.

`perfbench/tracing.py` patches each entry of its TARGETS table and fails
with TraceTargetError if one is gone, and `perfbench/mapping.json` names the
spans each workload must record. Both files are read here, not changed, so
that a refactor renaming a traced function fails the tests and not only a
`--trace 1` benchmark run.
"""

import importlib
import importlib.util
import inspect
import json
from pathlib import Path

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
