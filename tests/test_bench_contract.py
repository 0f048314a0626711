"""The traced benchmark run rebinds the module attributes listed in
perfbench/tracing.py; a refactor that drops one breaks that run with an
AttributeError, so every target must stay importable and callable."""

import importlib
import importlib.util
import os

import pytest

TRACING = os.path.join(os.path.dirname(__file__), os.pardir, "perfbench", "tracing.py")


def _targets():
    spec = importlib.util.spec_from_file_location("perfbench_tracing", TRACING)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return [(m, attr) for _, modules, attr, _, _ in module.TARGETS for m in modules]


@pytest.mark.parametrize("modname, attr", _targets())
def test_trace_target_exists(modname, attr):
    assert callable(getattr(importlib.import_module(modname), attr, None))
