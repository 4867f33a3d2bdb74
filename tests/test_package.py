"""The package namespace: eager search-side names, every other name bound
on first read."""

import importlib

import pytest

import sidonkit

# names in __all__ that are values without a __module__
CONSTANTS = {"DENSE_NAMES": "dense", "FAMILY_TAGS": "planes3"}
# the modules whose names the package binds on first read
LAZY_MODULES = ("dense", "fields", "incidence", "planes3", "pell", "quadforms", "sparse")


def _home(name, obj):
    return CONSTANTS.get(name) or obj.__module__.rpartition(".")[2]


def test_every_exported_name_is_its_modules_object():
    for name in sidonkit.__all__:
        obj = getattr(sidonkit, name)
        module = importlib.import_module(f"sidonkit.{_home(name, obj)}")
        assert getattr(module, name) is obj, name


def test_lazy_names_are_those_outside_the_search_side():
    """__getattr__ itself returns the defining module's object, even once
    the name is bound in the package."""
    lazy = {name for name in sidonkit.__all__
            if _home(name, getattr(sidonkit, name)) in LAZY_MODULES}
    assert lazy == set(sidonkit._LAZY_MODULE)
    for name, module in sidonkit._LAZY_MODULE.items():
        assert sidonkit.__getattr__(name) is getattr(
            importlib.import_module(f"sidonkit.{module}"), name), name


def test_first_read_binds_the_name():
    """A first read stores the name in the package, so a second read
    never reaches __getattr__."""
    name, reads = "field_create", []
    real = sidonkit.__getattr__
    with pytest.MonkeyPatch.context() as mp:
        mp.delitem(sidonkit.__dict__, name, raising=False)
        mp.setattr(sidonkit, "__getattr__", lambda n: reads.append(n) or real(n))
        first = sidonkit.field_create
        second = sidonkit.field_create
        assert sidonkit.__dict__[name] is first
    assert reads == [name]
    assert first is second is getattr(sidonkit, name)


def test_star_import_binds_all():
    namespace = {}
    exec("from sidonkit import *", namespace)
    assert set(sidonkit.__all__) <= set(namespace)
    for name in sidonkit.__all__:
        assert namespace[name] is getattr(sidonkit, name), name


def test_dir_covers_all():
    assert set(sidonkit.__all__) <= set(dir(sidonkit))


def test_unknown_name_raises_attribute_error():
    with pytest.raises(AttributeError, match="no_such_name"):
        sidonkit.no_such_name
    assert not hasattr(sidonkit, "CFDATA")
