import json
import os
import subprocess
import sys
from pathlib import Path

import sparse_expand

# Imports every module of the package in a fresh interpreter and prints the
# top-level names of the modules that importing them loaded.
_IMPORT_ALL = """
import importlib, json, pkgutil, sys
before = set(sys.modules)
import sparse_expand
for info in pkgutil.iter_modules(sparse_expand.__path__):
    importlib.import_module("sparse_expand." + info.name)
print(json.dumps(sorted({name.partition(".")[0] for name in set(sys.modules) - before})))
"""


def test_the_package_loads_only_the_standard_library_and_click():
    src = str(Path(sparse_expand.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
    done = subprocess.run(
        [sys.executable, "-c", _IMPORT_ALL], env=env, capture_output=True, text=True, timeout=60
    )
    assert done.returncode == 0, done.stderr
    loaded = set(json.loads(done.stdout))
    assert "sparse_expand" in loaded and "click" in loaded
    assert loaded - sys.stdlib_module_names - {"sparse_expand", "click"} == set()
