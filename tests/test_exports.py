"""Every name a module exports in ``__all__`` resolves on it, once."""

import importlib

import pytest


@pytest.mark.parametrize(
    "name",
    ["shiftop", "shiftop.wiener", "shiftop.operators", "shiftop.invertibility", "shiftop.process"],
)
def test_all_names_resolve(name):
    module = importlib.import_module(name)
    assert [n for n in module.__all__ if not hasattr(module, n)] == []
    assert len(set(module.__all__)) == len(module.__all__)
