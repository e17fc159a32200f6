"""Spans around the public functions of each nlaa layer, recorded from outside.

`Tracer.install()` replaces every patch target with a timing wrapper in each
nlaa module namespace that binds it (the package imports names with
``from .x import y``, so wrapping only the defining module would miss most
calls). Spans ``[name, start, end, parent, run_id, attrs]`` are kept in
memory and written once, at the end of the repetition.

`layer_metrics()` turns a list of spans into the per-layer metrics named in
BENCHMARK.json. Span times are in the units of ``wall_s``: the time the
calibration handler of rep.py took inside a span is taken out, and the rest
is multiplied by the repetition's speed factor. A layer's self time is its
span's duration minus the time covered by its direct child spans (the code
is serial, so children do not overlap).
"""

import bisect
import functools
import importlib
import inspect
import itertools
import json
import statistics
import sys
from time import monotonic

MODEL_KERNELS = ("apply_hamiltonian", "energy_functional", "participation_ratio",
                 "momentum_width", "quasiperiodic_potential",
                 "chemical_potential")


def _solve_attrs(args, kwargs, out, sig):
    return {"iterations": int(out.iterations), "converged": bool(out.converged)}


def _evolve_attrs(args, kwargs, out, sig):
    bound = sig.bind(*args, **kwargs)
    bound.apply_defaults()
    t_final, dt = bound.arguments["t_final"], bound.arguments["dt"]
    drift = max(float(x) for x in out.norm_drift)
    return {"rk4_steps": int(round(t_final / dt)), "max_norm_drift": drift}


def _lsq_attrs(args, kwargs, out, sig):
    return {"nfev": int(out.nfev)}


def _bootstrap_attrs(args, kwargs, out, sig):
    return {"n_failures": int(out.n_failures)}


# (defining module, attribute, span name, attrs extractor). A missing target
# is an error: a refactor that renames one must update this table.
TARGETS = [
    ("nlaa.cli", "main", "cli.main", None),
    ("nlaa.phasescan", "scan_phase_diagram", "phasescan.scan_phase_diagram", None),
    ("nlaa.phasescan", "transition_for_u", "phasescan.transition_for_u", None),
    ("nlaa.phasescan", "detect_transition", "phasescan.detect_transition", None),
    ("nlaa.eigensolve", "solve_state", "eigensolve.solve_state", _solve_attrs),
    ("nlaa.eigensolve", "linear_spectrum", "eigensolve.linear_spectrum", None),
    ("nlaa.dynamics", "ramp_prepare", "dynamics.ramp_prepare", None),
    ("nlaa.dynamics", "evolve", "dynamics.evolve", _evolve_attrs),
    ("nlaa.fitting", "synthesize_measurement", "fitting.synthesize_measurement", None),
    ("nlaa.fitting", "fit_transition", "fitting.fit_transition", None),
    ("nlaa.fitting", "bootstrap_delta_c", "fitting.bootstrap_delta_c", _bootstrap_attrs),
    ("nlaa.fitting", "least_squares", "fitting.least_squares", _lsq_attrs),
    ("nlaa.gaa", "gaa_classify_spectrum", "gaa.gaa_classify_spectrum", None),
] + [("nlaa.model", k, f"model.{k}", None) for k in MODEL_KERNELS]


class TraceTargetError(RuntimeError):
    """A patch target named in TARGETS no longer exists in the package."""


class Tracer:
    def __init__(self, run_id):
        self.run_id = run_id
        self.spans = []
        self._stack = []

    def _wrap(self, name, fn, attrs):
        sig = inspect.signature(fn) if attrs is not None else None
        spans, stack, run_id = self.spans, self._stack, self.run_id

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            span = [name, 0.0, 0.0, stack[-1] if stack else None, run_id, None]
            stack.append(len(spans))
            spans.append(span)
            span[1] = monotonic()
            try:
                out = fn(*args, **kwargs)
            finally:
                span[2] = monotonic()
                stack.pop()
            if attrs is not None:
                span[5] = attrs(args, kwargs, out, sig)
            return out

        return wrapper

    def install(self):
        """Wrap every target in every loaded nlaa module that binds it."""
        for modname, attr, name, attrs in TARGETS:
            try:
                original = getattr(importlib.import_module(modname), attr)
            except (ImportError, AttributeError) as exc:
                raise TraceTargetError(
                    f"patch target {modname}.{attr} is gone ({exc}); update "
                    "perfbench/tracing.py TARGETS and perfbench/mapping.json"
                ) from exc
            if attrs is _evolve_attrs:
                params = inspect.signature(original).parameters
                if not {"t_final", "dt"} <= set(params):
                    raise TraceTargetError(
                        f"{modname}.{attr} no longer takes t_final/dt")
            wrapper = self._wrap(name, original, attrs)
            for mname, mod in list(sys.modules.items()):
                if mname != "nlaa" and not mname.startswith("nlaa."):
                    continue
                for key, value in list(vars(mod).items()):
                    if value is original:
                        setattr(mod, key, wrapper)

    def write(self, path):
        with open(path, "w") as fh:
            for name, start, end, parent, run_id, attrs in self.spans:
                fh.write(json.dumps({"name": name, "start": start, "end": end,
                                     "parent": parent, "run": run_id,
                                     "attrs": attrs}) + "\n")


def read_spans(path):
    with open(path) as fh:
        return [json.loads(line) for line in fh if line.strip()]


def _quantile(values, q):
    if not values:
        return 0.0
    if len(values) == 1:
        return values[0]
    return statistics.quantiles(values, n=100, method="inclusive")[q - 1]


def scaled_durations(spans, samples, speed):
    """Span durations without the calibration handler's time, times `speed`.

    `samples` are rep.py's (start, end, timed run) handler calls, sorted; a
    handler call runs between the bytecodes of the code it interrupts, so it
    lies wholly inside every span that contains its start.
    """
    starts = [s[0] for s in samples]
    busy = list(itertools.accumulate((end - start for start, end, _ in samples),
                                     initial=0.0))

    def inside(a, b):
        return busy[bisect.bisect_left(starts, b)] - busy[bisect.bisect_left(starts, a)]

    return [(s["end"] - s["start"] - inside(s["start"], s["end"])) * speed
            for s in spans]


def layer_metrics(spans, grid_cells, samples, speed):
    """Per-layer metrics of one traced repetition.

    `grid_cells` is the number of (kind, U, Delta) cells of the scans the
    repetition ran (0 when it ran none); cells not solved were reused.
    `samples` and `speed` scale the span times (see scaled_durations).
    """
    n = len(spans)
    dur = scaled_durations(spans, samples, speed)
    child = [0.0] * n
    for i, s in enumerate(spans):
        if s["parent"] is not None:
            child[s["parent"]] += dur[i]

    def ancestors(i):
        p = spans[i]["parent"]
        while p is not None:
            yield spans[p]["name"]
            p = spans[p]["parent"]

    by_name = {}
    for i, s in enumerate(spans):
        by_name.setdefault(s["name"], []).append(i)

    def idx(name):
        return by_name.get(name, [])

    def calls(name):
        return len(idx(name))

    def total(name):
        return sum(dur[i] for i in idx(name) if name not in ancestors(i))

    def self_s(name):
        return sum(dur[i] - child[i] for i in idx(name))

    def p_ms(name, q):
        return 1e3 * _quantile(sorted(dur[i] for i in idx(name)), q)

    def attr_sum(name, key):
        return sum(spans[i]["attrs"][key] for i in idx(name))

    solves = idx("eigensolve.solve_state")
    refine = sum(1 for i in solves
                 if "phasescan.detect_transition" in set(ancestors(i)))
    cells = sum(1 for i in solves
                if {"phasescan.scan_phase_diagram"} <= set(ancestors(i))
                and "phasescan.detect_transition" not in set(ancestors(i)))
    iterations = attr_sum("eigensolve.solve_state", "iterations")
    rk4 = attr_sum("dynamics.evolve", "rk4_steps")
    model = [i for i, s in enumerate(spans) if s["name"].startswith("model.")]
    lsq = idx("fitting.least_squares")

    return {
        "cli.self_s": self_s("cli.main"),
        "phasescan.scan_phase_diagram.self_s": self_s("phasescan.scan_phase_diagram"),
        "phasescan.transition_for_u.s": total("phasescan.transition_for_u"),
        "phasescan.detect_transition.s": total("phasescan.detect_transition"),
        "phasescan.refine_solves": refine,
        "phasescan.cells_computed": cells,
        "phasescan.cells_reused": grid_cells - cells,
        "eigensolve.solve_state.calls": len(solves),
        "eigensolve.solve_state.s": total("eigensolve.solve_state"),
        "eigensolve.solve_state.p50_ms": p_ms("eigensolve.solve_state", 50),
        "eigensolve.solve_state.p90_ms": p_ms("eigensolve.solve_state", 90),
        "eigensolve.iterations": iterations,
        "eigensolve.us_per_iteration":
            1e6 * total("eigensolve.solve_state") / iterations if iterations else 0.0,
        "eigensolve.unconverged": sum(1 for i in solves
                                      if not spans[i]["attrs"]["converged"]),
        "eigensolve.linear_spectrum.calls": calls("eigensolve.linear_spectrum"),
        "eigensolve.linear_spectrum.s": total("eigensolve.linear_spectrum"),
        "dynamics.ramp_prepare.calls": calls("dynamics.ramp_prepare"),
        "dynamics.ramp_prepare.s": total("dynamics.ramp_prepare"),
        "dynamics.evolve.calls": calls("dynamics.evolve"),
        "dynamics.evolve.s": total("dynamics.evolve"),
        "dynamics.rk4_steps": rk4,
        "dynamics.us_per_rk4_step":
            1e6 * total("dynamics.evolve") / rk4 if rk4 else 0.0,
        "dynamics.max_norm_drift": max(
            (spans[i]["attrs"]["max_norm_drift"] for i in idx("dynamics.evolve")),
            default=0.0),
        "fitting.synthesize_measurement.self_s": self_s("fitting.synthesize_measurement"),
        "fitting.fit_transition.calls": calls("fitting.fit_transition"),
        "fitting.fit_transition.s": total("fitting.fit_transition"),
        "fitting.fit_transition.p50_ms": p_ms("fitting.fit_transition", 50),
        "fitting.lsq_calls": len(lsq),
        "fitting.lsq_nfev": attr_sum("fitting.least_squares", "nfev"),
        "fitting.bootstrap_delta_c.self_s": self_s("fitting.bootstrap_delta_c"),
        "fitting.bootstrap_failures": attr_sum("fitting.bootstrap_delta_c", "n_failures"),
        "gaa.gaa_classify_spectrum.s": total("gaa.gaa_classify_spectrum"),
        "gaa.gaa_classify_spectrum.self_s": self_s("gaa.gaa_classify_spectrum"),
        "model.calls": len(model),
        "model.s": sum(dur[i] for i in model
                       if not any(a.startswith("model.") for a in ancestors(i))),
    }
