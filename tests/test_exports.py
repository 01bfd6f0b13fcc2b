"""The package's public names."""

import mds


def test_every_exported_name_resolves():
    missing = [name for name in mds.__all__ if not hasattr(mds, name)]
    assert missing == []


def test_star_import():
    names: dict = {}
    exec("from mds import *", names)
    assert set(mds.__all__) <= set(names)
