"""The benchmark's span tracer finds every function it wraps.

``perfbench/tracer.py`` records a target it cannot resolve as absent, and
the layer metrics that read its spans then report 0 without failing. A
rename in the library would pass the benchmark unnoticed, so this test
resolves each target. The tracer source is only read and executed here,
never imported as a module, so nothing is written next to it.
"""

import importlib
import sys
import types
from pathlib import Path

import pytest

TRACER = Path(__file__).resolve().parents[1] / "perfbench" / "tracer.py"


def _targets():
    module = types.ModuleType("perfbench_tracer")
    sys.modules[module.__name__] = module  # its dataclasses look the module up
    exec(compile(TRACER.read_text(), str(TRACER), "exec"), module.__dict__)
    return module.TARGETS


@pytest.mark.parametrize("module_name, attr, span", _targets())
def test_tracer_target_resolves(module_name, attr, span):
    module = importlib.import_module(module_name)
    assert callable(getattr(module, attr, None)), f"{span}: {module_name}.{attr} is missing"
