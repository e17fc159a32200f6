"""The package's public names: every name in ``nlaa.__all__`` is bound, so
that a deleted function cannot linger as a stale export."""

import nlaa


def test_every_exported_name_resolves():
    assert [name for name in nlaa.__all__ if not hasattr(nlaa, name)] == []
    assert len(set(nlaa.__all__)) == len(nlaa.__all__)


def test_star_import_binds_every_exported_name():
    namespace = {}
    exec("from nlaa import *", namespace)
    assert set(nlaa.__all__) <= set(namespace)
