"""The names the benchmark's tracer wraps exist in chamberwalk.

The tracer skips a layer whose wrapped names are all gone, so a traced run
would print fewer metrics rather than fail; this test fails instead.
"""

import importlib
import importlib.util
from pathlib import Path

import pytest

_TRACING = Path(__file__).resolve().parents[1] / "bench" / "tracing.py"


def _targets():
    spec = importlib.util.spec_from_file_location("bench_tracing", _TRACING)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return [pytest.param(module_name, path, id=f"{module_name}.{path}")
            for _, module_name, path in module.TARGETS]


@pytest.mark.parametrize("module_name, path", _targets())
def test_traced_name_resolves(module_name, path):
    owner = importlib.import_module(module_name)
    *outer, attr = path.split(".")
    for part in outer:
        owner = getattr(owner, part)
    # Tracer.install reads class attributes from the class's own __dict__
    if isinstance(owner, type):
        assert attr in owner.__dict__, f"{module_name}.{path}"
    else:
        assert hasattr(owner, attr), f"{module_name}.{path}"
