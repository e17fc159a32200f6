"""The package's names: every name in ``nlaa.__all__`` is bound, so that a
deleted function cannot linger as a stale export; the public API has as
many settable values as pinned, so that one no caller varies is not added
unnoticed; and every private function and class is named somewhere in the
package besides its definition, so that a refactor cannot leave a dead
helper behind."""

import ast
import importlib
import inspect
from pathlib import Path

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


def test_every_private_helper_is_referenced():
    defined, named = [], set()
    for path in sorted(Path(nlaa.__file__).parent.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                if node.name.startswith("_") and not node.name.endswith("__"):
                    defined.append(f"{path.name}:{node.lineno} {node.name}")
            elif isinstance(node, ast.Name):
                named.add(node.id)
            elif isinstance(node, ast.Attribute):
                named.add(node.attr)
            elif isinstance(node, ast.alias):
                named.add(node.name)
    assert defined
    assert [d for d in defined if d.split()[1] not in named] == []
