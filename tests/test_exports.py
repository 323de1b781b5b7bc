"""Every name that the package and its modules export exists.

A name left in an ``__all__`` after its object was deleted breaks
``from wscluster import *`` and misleads readers of the public surface.
"""

import importlib
import pkgutil

import pytest

import wscluster

MODULES = sorted(m.name for m in pkgutil.iter_modules(wscluster.__path__)
                 if m.name != "__main__")


@pytest.mark.parametrize("name", ["", *MODULES])
def test_every_exported_name_exists(name):
    module = importlib.import_module(f"wscluster.{name}" if name else "wscluster")
    exported = getattr(module, "__all__", [])
    assert len(set(exported)) == len(exported)
    assert [n for n in exported if not hasattr(module, n)] == []


def test_star_import_works():
    namespace = {}
    exec("from wscluster import *", namespace)
    assert set(wscluster.__all__) <= set(namespace)
