"""canet runs on numpy and the Python standard library alone."""

import json
import os
import subprocess
import sys
from pathlib import Path

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
