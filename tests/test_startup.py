"""What ``import picgof`` does and does not load at start-up.

Each case runs a fresh interpreter, with ``OPENBLAS_NUM_THREADS`` removed from
its environment unless the case sets it: the thread cap can only act before
numpy is first imported, and what an import loads shows only in a process
where nothing else loaded it first.
"""

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import picgof as pg

SRC = str(Path(pg.__file__).resolve().parent.parent)


def run_python(code: str, **env: str) -> dict:
    """The JSON that ``code`` prints in a fresh interpreter that finds picgof."""
    environ = {k: v for k, v in os.environ.items() if k != "OPENBLAS_NUM_THREADS"}
    environ["PYTHONPATH"] = os.pathsep.join(filter(None, [SRC, environ.get("PYTHONPATH")]))
    proc = subprocess.run([sys.executable, "-c", code], env={**environ, **env},
                          capture_output=True, text=True, check=True)
    return json.loads(proc.stdout)


REPORT = ("import json, os; print(json.dumps({'var': os.environ.get('OPENBLAS_NUM_THREADS'), "
          "'threads': len(os.listdir('/proc/self/task')) if os.path.isdir('/proc/self/task') else None}))")


def test_import_caps_openblas_at_one_thread():
    out = run_python("import picgof; " + REPORT)
    assert out["var"] == "1"
    if out["threads"] is None:
        pytest.skip("no /proc/self/task to count threads in")
    assert out["threads"] == 1


@pytest.mark.parametrize("preset, seen", [("2", "2"), ("", "1")])
def test_preset_value_is_kept_unless_empty(preset, seen):
    assert run_python("import picgof; " + REPORT, OPENBLAS_NUM_THREADS=preset)["var"] == seen


def test_numpy_imported_first_leaves_environment_untouched():
    assert run_python("import numpy, picgof; " + REPORT)["var"] is None


def test_pool_module_loads_only_when_asked_for():
    out = run_python(
        "import json, sys, picgof.cli; loaded = 'concurrent.futures' in sys.modules; "
        "import concurrent.futures, picgof.montecarlo as mc; "
        "print(json.dumps({'loaded': loaded, "
        "'real': mc.ProcessPoolExecutor is concurrent.futures.ProcessPoolExecutor, "
        "'other': hasattr(mc, 'ThreadPoolExecutor')}))"
    )
    assert out == {"loaded": False, "real": True, "other": False}
