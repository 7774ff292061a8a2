"""Every name a coherentrx module exports through ``__all__`` must exist."""

import importlib
import pkgutil

import pytest

import coherentrx

MODULES = ["coherentrx"] + [
    f"coherentrx.{info.name}" for info in pkgutil.iter_modules(coherentrx.__path__)
]


@pytest.mark.parametrize("name", MODULES)
def test_all_names_resolve(name):
    module = importlib.import_module(name)
    missing = [n for n in getattr(module, "__all__", ()) if not hasattr(module, n)]
    assert missing == []
