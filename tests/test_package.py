"""The public names of the ``stokit`` package, which it loads on first use."""

import importlib

import pytest

import stokit


def test_every_public_name_is_its_defining_modules_object():
    for module, names in stokit._EXPORTS.items():
        defining = importlib.import_module(f"stokit.{module}")
        for name in names:
            value = getattr(stokit, name)
            assert value is getattr(defining, name)
            assert getattr(value, "__module__", defining.__name__) == defining.__name__


def test_the_lazy_table_and_all_agree():
    assert stokit.__all__[0] == "__version__"
    exported = [name for names in stokit._EXPORTS.values() for name in names]
    assert stokit.__all__[1:] == exported
    assert len(set(exported)) == len(exported)


def test_dir_and_star_import_cover_all():
    assert set(stokit.__all__) <= set(dir(stokit))
    namespace = {}
    exec("from stokit import *", namespace)
    assert set(stokit.__all__) <= set(namespace)
    assert namespace["simulate"] is importlib.import_module("stokit.processes").simulate


def test_submodules_resolve_as_attributes():
    for module in stokit._EXPORTS:
        assert getattr(stokit, module) is importlib.import_module(f"stokit.{module}")
    from stokit import cli
    assert cli is importlib.import_module("stokit.cli")


def test_unknown_names_are_refused():
    with pytest.raises(AttributeError, match="no_such_name"):
        stokit.no_such_name
    with pytest.raises(ImportError):
        from stokit import no_such_name  # noqa: F401


def test_names_follow_a_rebinding_in_their_module(monkeypatch):
    """Names are looked up in their module on each use, so a wrapper bound
    there (as the benchmark's tracer binds its spans) is seen, and is gone
    again once it is unbound."""
    processes = importlib.import_module("stokit.processes")
    original = processes.simulate
    monkeypatch.setattr(processes, "simulate", len)
    assert stokit.simulate is len
    monkeypatch.undo()
    assert stokit.simulate is original
