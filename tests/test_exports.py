"""Each module's ``__all__`` names what the module defines, once each."""

from __future__ import annotations

import importlib
import inspect

import pytest

import effparse


@pytest.mark.parametrize("module_name", effparse.__all__)
def test_every_export_resolves_once(module_name: str) -> None:
    module = importlib.import_module(f"effparse.{module_name}")
    exports = module.__all__
    assert [name for name in exports if not hasattr(module, name)] == []
    assert len(set(exports)) == len(exports)


@pytest.mark.parametrize("module_name", effparse.__all__)
def test_exported_classes_and_functions_are_defined_there(module_name: str) -> None:
    module = importlib.import_module(f"effparse.{module_name}")
    exported = [getattr(module, name) for name in module.__all__]
    defined = [obj for obj in exported if inspect.isclass(obj) or inspect.isfunction(obj)]
    assert [obj.__qualname__ for obj in defined if obj.__module__ != module.__name__] == []
