"""The package's public names: every name in ``nlaa.__all__`` is bound, so
that a deleted function cannot linger as a stale export, and the public API
has as many settable values as pinned, so that one no caller varies is not
added unnoticed."""

import importlib
import inspect

import nlaa

MODULES = ("cli", "dynamics", "eigensolve", "fitting", "gaa", "model", "phasescan")
SETTABLE_VALUES = 51


def test_every_exported_name_resolves():
    assert [name for name in nlaa.__all__ if not hasattr(nlaa, name)] == []
    assert len(set(nlaa.__all__)) == len(nlaa.__all__)


def test_star_import_binds_every_exported_name():
    namespace = {}
    exec("from nlaa import *", namespace)
    assert set(nlaa.__all__) <= set(namespace)


def _defaulted(fn):
    """Names of the parameters of `fn` that have a default."""
    try:
        params = inspect.signature(fn).parameters.values()
    except (TypeError, ValueError):     # a builtin constructor, as of an exception
        return []
    return [p.name for p in params if p.default is not inspect.Parameter.empty]


def settable_values():
    """module.name(parameter) of each parameter with a default of every public
    function, method and constructor defined in the seven modules."""
    out = []
    for name in MODULES:
        module = importlib.import_module(f"nlaa.{name}")
        for attr, obj in vars(module).items():
            if attr.startswith("_") or getattr(obj, "__module__", None) != module.__name__:
                continue
            where = f"{name}.{attr}"
            if inspect.isfunction(obj):
                out += [f"{where}({p})" for p in _defaulted(obj)]
            elif inspect.isclass(obj):
                out += [f"{where}({p})" for p in _defaulted(obj)]
                for meth, fn in vars(obj).items():
                    fn = getattr(fn, "__func__", fn)       # classmethod, staticmethod
                    if not meth.startswith("_") and inspect.isfunction(fn):
                        out += [f"{where}.{meth}({p})" for p in _defaulted(fn)]
    return out


def test_settable_values_are_as_pinned():
    found = settable_values()
    assert len(found) == SETTABLE_VALUES, "\n".join(found)
