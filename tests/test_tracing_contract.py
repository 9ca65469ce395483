"""What the benchmark's tracer needs of the package.

``bench/tracing.py`` wraps the public module-level functions of the layer
modules and reports per-function metrics for the names in ``NAMED``.  A
named function that is deleted, renamed or made private drops its metrics,
and output written to stdout at import or at exit corrupts the result line
the benchmark reads last.  The tracer module is loaded from its file and
left unchanged.
"""

import importlib
import importlib.util
import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]


@pytest.fixture(scope="module")
def tracing():
    spec = importlib.util.spec_from_file_location("bench_tracing", ROOT / "bench" / "tracing.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_named_functions_are_public_module_functions(tracing):
    for layer in tracing.LAYERS:
        importlib.import_module(f"quasilines.{layer}")
    public = dict(tracing.public_functions())
    missing = [name for name in tracing.NAMED if name not in public]
    assert not missing
    assert set(tracing.COUNT_HITS) <= set(tracing.NAMED)


def test_import_and_exit_write_nothing_to_stdout():
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    done = subprocess.run(
        [sys.executable, "-c", "import quasilines, quasilines.cli"],
        capture_output=True, text=True, env=env, check=True,
    )
    assert (done.stdout, done.stderr) == ("", "")
