"""canet runs on numpy and the Python standard library alone, gives each
name one import path, and declares its version once."""

import ast
import json
import os
import re
import subprocess
import sys
import warnings
from pathlib import Path

import pytest

import canet

ROOT = Path(__file__).resolve().parents[1]
SRC = ROOT / "src"


def probe(code: str, *args: str, **env: str):
    """Runs ``code`` in a fresh interpreter on ``src/`` and decodes the JSON
    of its last output line."""
    done = subprocess.run([sys.executable, "-c", code, *args], capture_output=True, text=True,
                          env=dict(os.environ, PYTHONPATH=str(SRC), **env), timeout=300)
    assert done.returncode == 0, done.stderr
    return json.loads(done.stdout.splitlines()[-1])


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
    result = probe(PROBE)
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
    loaded = probe(THREAD_POOL_PROBE, str(tmp_path), CAN_THREADS=threads)
    assert loaded == {"concurrent.futures": pooled, "logging": pooled}


# Imports the package alone and prints the canet modules that loaded, and the
# package's public names that are not modules.
SURFACE_PROBE = """
import json, sys, types
import canet
print(json.dumps({
    "loaded": sorted(name for name in sys.modules if name.partition(".")[0] == "canet"),
    "names": sorted(name for name, value in vars(canet).items()
                    if not name.startswith("_") and not isinstance(value, types.ModuleType)),
}))
"""


def test_the_package_reexports_one_name_and_loads_only_its_modules():
    assert probe(SURFACE_PROBE) == {"loaded": ["canet", "canet.attention", "canet.tensor"],
                                    "names": ["scaled_dot_attention"]}


# Runs each import statement it is given, then resolves each dotted path by
# importing its longest module prefix and reading the rest as attributes, and
# prints what failed.
README_PROBE = """
import importlib, json, sys
statements, paths = json.loads(sys.argv[1])
failed = []
for statement in statements:
    try:
        exec(statement, {})
    except ImportError:
        failed.append(statement)
for path in paths:
    parts = path.split(".")
    for cut in range(len(parts), 0, -1):
        try:
            target = importlib.import_module(".".join(parts[:cut]))
            break
        except ModuleNotFoundError:
            continue
    try:
        for part in parts[cut:]:
            target = getattr(target, part)
    except AttributeError:
        failed.append(path)
print(json.dumps(failed))
"""


def test_every_canet_path_in_the_readme_exists():
    readme = (ROOT / "README.md").read_text()
    statements = [ast.unparse(node)
                  for block in re.findall(r"^```python\n(.*?)^```", readme, re.M | re.S)
                  for node in ast.walk(ast.parse(block))
                  if isinstance(node, ast.Import) and node.names[0].name.startswith("canet")
                  or isinstance(node, ast.ImportFrom) and node.module.startswith("canet")]
    paths = sorted(set(re.findall(r"\bcanet(?:\.[A-Za-z_]\w*)+", readme)))
    assert statements and paths
    assert probe(README_PROBE, json.dumps([statements, paths])) == []


def test_the_version_is_declared_once():
    from setuptools.config.pyprojecttoml import read_configuration
    pyproject = ROOT / "pyproject.toml"
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")                 # setuptools calls its table beta
        declared = read_configuration(pyproject, expand=False)["project"]
        expanded = read_configuration(pyproject, expand=True)["project"]
    assert "version" not in declared and declared["dynamic"] == ["version"]
    assert expanded["version"] == canet.__version__
