"""The package's public surface: every name in liprint.__all__ resolves."""

import liprint


def test_every_exported_name_resolves():
    missing = [name for name in liprint.__all__ if not hasattr(liprint, name)]
    assert missing == []
    assert len(set(liprint.__all__)) == len(liprint.__all__)


def test_star_import_binds_every_exported_name():
    namespace = {}
    exec("from liprint import *", namespace)
    assert set(liprint.__all__) <= namespace.keys()
