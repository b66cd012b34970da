"""The names the benchmark's tracer wraps exist in chamberwalk, and a short
traced benchmark run ends with a correct result line.

The tracer skips a layer whose wrapped names are all gone, so a traced run
would print fewer metrics rather than fail; these tests fail instead.
"""

import importlib
import importlib.util
import json
import subprocess
import sys
from pathlib import Path

import pytest

_ROOT = Path(__file__).resolve().parents[1]
_TRACING = _ROOT / "bench" / "tracing.py"


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


@pytest.mark.parametrize("workload", ["ball-build", "exact-chains"])
def test_traced_run_prints_a_correct_result_line(workload):
    proc = subprocess.run(
        [sys.executable, "bench/run.py", "--workload", workload, "--seed", "1",
         "--seconds", "0.5", "--trace", "1"],
        cwd=_ROOT, capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, proc.stderr
    lines = proc.stdout.splitlines()
    assert lines, f"no result line; stderr: {proc.stderr}"
    result = json.loads(lines[-1])
    assert result["correct"] is True, proc.stderr
