"""What a cold start loads, what evlab imports, and the lazy re-exports of the package."""

import ast
import os
import re
import subprocess
import sys
from pathlib import Path

import evlab

SRC = Path(evlab.__file__).resolve().parent.parent
README = Path(__file__).resolve().parent.parent / "README.md"

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

# The tracemalloc peak of compiling each module's source, the smaller of two
# compiles, after one compile to warm the interpreter up.
COMPILE_PEAKS = """
import sys, tracemalloc
from pathlib import Path

def peak(source, name):
    tracemalloc.start()
    compile(source, name, "exec")
    peak = tracemalloc.get_traced_memory()[1]
    tracemalloc.stop()
    return peak

sources = {path.name: path.read_text(encoding="utf-8")
           for path in sorted(Path(sys.argv[1]).glob("*.py"))}
compile(sources["scale.py"], "scale.py", "exec")
for name, source in sources.items():
    print(name, min(peak(source, name), peak(source, name)))
"""


def _fresh(code: str, *args: str) -> str:
    proc = subprocess.run([sys.executable, "-c", code, *args], capture_output=True, text=True,
                          env={**os.environ, "PYTHONPATH": str(SRC)}, check=False)
    assert proc.returncode == 0, proc.stderr
    return proc.stdout


def test_cold_start_loads_neither_dataclasses_json_nor_scale():
    loaded = set(_fresh(COLD_START).split())
    assert {"evlab.cli", "evlab._flags", "evlab.evidence", "evlab.numerics",
            "evlab.transition"} <= loaded
    # the exact Bayes factors and p-values stay on plain ints
    assert not loaded & {"dataclasses", "json", "evlab.scale", "fractions", "decimal"}


def test_no_module_compiles_far_above_scale():
    # Without a bytecode cache every launch compiles the modules from source,
    # and the largest compile peak is part of the process's peak RSS; so the
    # CLI's argument grammar compiles on its own, in _flags.
    peaks = {name: int(peak) for name, peak in
             map(str.split, _fresh(COMPILE_PEAKS, str(SRC / "evlab")).splitlines())}
    ratios = {name: peak / peaks["scale.py"] for name, peak in peaks.items()}
    assert not {name: ratio for name, ratio in ratios.items() if ratio > 1.25}


def test_every_export_resolves_lazily_to_its_home_object():
    assert int(_fresh(LAZY_EXPORTS)) == len(evlab.__all__) == 40


def test_star_import_gives_every_export():
    namespace: dict = {}
    exec("from evlab import *", namespace)
    assert set(evlab.__all__) <= set(namespace)


def test_imports_only_the_standard_library():
    outside = []
    for path in sorted((SRC / "evlab").glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.Import):
                names = [alias.name for alias in node.names]
            elif isinstance(node, ast.ImportFrom) and node.level == 0:
                names = [node.module]
            else:
                continue  # relative imports stay inside evlab
            outside += [(path.name, name) for name in names
                        if name.partition(".")[0] not in sys.stdlib_module_names]
    assert not outside


def _modules() -> dict[str, ast.Module]:
    return {path.name: ast.parse(path.read_text(encoding="utf-8"))
            for path in sorted((SRC / "evlab").glob("*.py"))}


def _reads(tree: ast.AST) -> set[str]:
    """Names a tree reads: as a variable, as a module attribute, or by import."""
    reads = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
            reads.add(node.id)
        elif isinstance(node, ast.Attribute):
            reads.add(node.attr)
        elif isinstance(node, ast.ImportFrom):
            reads.update(alias.name for alias in node.names)
    return reads


def test_every_import_is_read():
    unread = []
    for name, tree in _modules().items():
        if name == "__init__.py":
            continue  # the package's namespace is its lazy re-exports
        bound = []
        for node in ast.walk(tree):
            if isinstance(node, ast.Import):
                bound += [alias.asname or alias.name.partition(".")[0] for alias in node.names]
            elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
                bound += [alias.asname or alias.name for alias in node.names]
        loaded = {node.id for node in ast.walk(tree)
                  if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load)}
        unread += [(name, bound_name) for bound_name in bound if bound_name not in loaded]
    assert not unread


def test_every_private_module_name_is_read():
    modules = _modules()
    reads = set().union(*map(_reads, modules.values()))
    unread = []
    for name, tree in modules.items():
        for node in tree.body:
            if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
                defined = [node.name]
            elif isinstance(node, (ast.Assign, ast.AnnAssign)):
                targets = node.targets if isinstance(node, ast.Assign) else [node.target]
                defined = [t.id for t in targets if isinstance(t, ast.Name)]
            else:
                continue
            unread += [(name, d) for d in defined if d.startswith("_")
                       and not (d.startswith("__") and d.endswith("__")) and d not in reads]
    assert not unread


def test_every_public_name_is_read_or_documented():
    # A name in __all__ that the package reads only where it is defined, and
    # that the README's "Library usage" does not name, is kept for the tests alone.
    modules = _modules()
    readme = README.read_text(encoding="utf-8")
    usage = readme[readme.index("## Library usage"):].partition("\n## ")[0]
    documented = set(re.findall(r"\w+", usage))
    unread = [name for name, home in evlab._HOMES.items() if name not in documented
              and not any(name in _reads(tree) for module, tree in modules.items()
                          if module != f"{home}.py")]
    assert not unread
