"""The package's public names."""

import inspect
import typing

import pytest

import isddp


@pytest.mark.parametrize("name", isddp.__all__)
def test_type_hints_of_every_public_callable_resolve(name):
    # the annotations are strings (``from __future__ import annotations``),
    # so a name they use without importing it fails only when resolved
    obj = getattr(isddp, name)
    if not callable(obj):
        return
    typing.get_type_hints(obj)
    if inspect.isclass(obj):
        for _, member in inspect.getmembers(obj, inspect.isfunction):
            if member.__module__.startswith("isddp"):
                typing.get_type_hints(member)
