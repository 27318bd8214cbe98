"""canet runs on numpy and the Python standard library alone."""

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parents[1] / "src"

# Imports every canet module and prints them, and every module the imports
# added from outside numpy, canet and the standard library.  Modules with
# neither a file nor a spec (cython_runtime and the like, which numpy's
# compiled extensions create as they load) are numpy's own.
PROBE = """
import importlib, json, pkgutil, sys
before = set(sys.modules)
import canet
loaded = [importlib.import_module("canet." + info.name).__name__
          for info in pkgutil.iter_modules(canet.__path__)]
foreign = sorted(
    name for name in set(sys.modules) - before
    if name.partition(".")[0] not in sys.stdlib_module_names | {"canet", "numpy"}
    and (getattr(sys.modules[name], "__file__", None) is not None
         or getattr(sys.modules[name], "__spec__", None) is not None))
print(json.dumps({"loaded": loaded, "foreign": foreign}))
"""


def test_every_module_imports_with_numpy_and_the_standard_library_only():
    done = subprocess.run([sys.executable, "-c", PROBE], capture_output=True, text=True,
                          env=dict(os.environ, PYTHONPATH=str(SRC)), timeout=120)
    assert done.returncode == 0, done.stderr
    result = json.loads(done.stdout.splitlines()[-1])
    expected = sorted(f"canet.{path.stem}" for path in (SRC / "canet").glob("*.py")
                      if path.stem != "__init__")
    assert sorted(result["loaded"]) == expected
    assert result["foreign"] == []


# Runs ``canet synth``, ``train`` and ``evaluate`` in this interpreter, in the
# directory it is given, and prints whether a thread pool's modules were loaded.
THREAD_POOL_PROBE = """
import json, sys
from canet.cli import main
out = sys.argv[1]
assert main(["synth", "--sensors", "3", "--length", "120", "--seed", "1", "--spikes", "1",
             "--out", out]) == 0
assert main(["train", "--data", out + "/train.csv", "--out", out + "/run", "--seed", "1",
             "--window", "4", "--layers", "1", "--heads", "2", "--model-dim", "8",
             "--embed-dim", "4", "--neighbor-k", "2", "--batch-size", "32",
             "--max-epochs", "1"]) == 0
assert main(["evaluate", "--data", out + "/test.csv", "--checkpoint", out + "/run/model.ckpt",
             "--out", out + "/eval"]) == 0
print(json.dumps({name: name in sys.modules for name in ("concurrent.futures", "logging")}))
"""


@pytest.mark.parametrize("threads, pooled", [("1", False), ("2", True)])
def test_a_one_thread_run_loads_no_thread_pool(tmp_path, threads, pooled):
    done = subprocess.run([sys.executable, "-c", THREAD_POOL_PROBE, str(tmp_path)],
                          capture_output=True, text=True, timeout=300,
                          env=dict(os.environ, PYTHONPATH=str(SRC), CAN_THREADS=threads))
    assert done.returncode == 0, done.stderr
    loaded = json.loads(done.stdout.splitlines()[-1])
    assert loaded == {"concurrent.futures": pooled, "logging": pooled}
