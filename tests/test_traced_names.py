"""The benchmark's traced run wraps functions of ``disambig`` by name.

A rename or deletion of one of them would otherwise show up only when the
traced benchmark runs, so this checks ``perfbench/layers.py:TARGETS``
against the package on every test run.
"""

from __future__ import annotations

import importlib

import pytest


@pytest.fixture(scope="module")
def targets(repo_root) -> dict[str, tuple[str, ...]]:
    with pytest.MonkeyPatch.context() as patch:
        patch.syspath_prepend(str(repo_root / "perfbench"))  # layers.py imports its sibling tracing.py
        return importlib.import_module("layers").TARGETS


def test_every_traced_name_is_a_function_of_its_module(targets):
    assert targets
    missing = [f"{module}.{name}" for module, names in targets.items() for name in names
               if not callable(getattr(importlib.import_module(f"disambig.{module}"), name, None))]
    assert missing == []
