"""What a cold start loads, and the lazy re-exports of the evlab package."""

import os
import subprocess
import sys
from pathlib import Path

import evlab

SRC = Path(evlab.__file__).resolve().parent.parent

COLD_START = """
import sys
before = set(sys.modules)
import evlab, evlab.cli
print(" ".join(sorted(set(sys.modules) - before)))
"""

LAZY_EXPORTS = """
import sys
import evlab
assert [m for m in sys.modules if m.startswith("evlab.")] == [], "a submodule loaded"
submodules = ("cli", "evidence", "numerics", "scale", "transition")
for name in submodules:
    assert getattr(evlab, name) is sys.modules["evlab." + name], name
modules = [getattr(evlab, name) for name in submodules]
for name in evlab.__all__:
    homes = {id(vars(m)[name]) for m in modules if name in vars(m)}
    assert homes == {id(getattr(evlab, name))}, name
listed = dir(evlab)
missing = [name for name in (*evlab.__all__, *submodules, "__version__") if name not in listed]
assert not missing, missing
try:
    evlab.no_such_name
except AttributeError as err:
    assert "no_such_name" in str(err)
else:
    raise AssertionError("unknown attribute resolved")
print(len(evlab.__all__))
"""


def _fresh(code: str) -> str:
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                          env={**os.environ, "PYTHONPATH": str(SRC)}, check=False)
    assert proc.returncode == 0, proc.stderr
    return proc.stdout


def test_cold_start_loads_neither_dataclasses_json_nor_scale():
    loaded = set(_fresh(COLD_START).split())
    assert {"evlab.cli", "evlab.evidence", "evlab.numerics", "evlab.transition"} <= loaded
    assert not loaded & {"dataclasses", "json", "evlab.scale"}


def test_every_export_resolves_lazily_to_its_home_object():
    assert int(_fresh(LAZY_EXPORTS)) == len(evlab.__all__) == 60


def test_star_import_gives_every_export():
    namespace: dict = {}
    exec("from evlab import *", namespace)
    assert set(evlab.__all__) <= set(namespace)
