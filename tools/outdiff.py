"""Compare the CLI's output bytes of a parent revision and the checkout, command by command.

    python3 tools/outdiff.py --parent HEAD~1
    python3 tools/outdiff.py --parent HEAD~1 --expect changed.txt

The parent is ``src`` of ``git archive REV``, extracted into a temporary
directory (``--parent-tree DIR`` takes a directory holding an ``evlab``
package instead); the change is the checkout's ``src/evlab``. Both load in
this process as distinct packages, which works because evlab imports only
relatively. Each command of the corpus runs once per side through that
side's ``cli.main``, in-process, under ``COLUMNS=100``, in a temporary
working directory, so that an ``--out`` file lands there. A command differs
when its stdout, stderr, exit code or the files it wrote differ; each such
command is printed with the first thing that differs.

The corpus, in this order, each distinct command once: every ``evlab`` line
of the README's ``sh`` blocks; every warm-up op and probe of each benchmark
workload, and blocks 0 and 1 of seeds 1 and 2 (``bench/workloads.py``, read
only); the ``--help`` of evlab and of every subcommand; and the edge
commands of ``tools/outdiff_edges.txt``. ``--stride K`` runs every K-th.

Exits 1 if a command differs that ``--expect FILE`` (one command per line,
as printed here) does not list, and 0 otherwise. Writes nothing in the
checkout: no bytecode, and every file a command writes is in a temporary
directory. Standard library and git only.
"""

from __future__ import annotations

import argparse
import contextlib
import difflib
import importlib.util
import io
import os
import re
import shlex
import shutil
import subprocess
import sys
import tarfile
import tempfile
from pathlib import Path
from types import ModuleType
from typing import Callable, NamedTuple

ROOT = Path(__file__).resolve().parent.parent
EDGES = ROOT / "tools" / "outdiff_edges.txt"
DIFF_LINES = 20  # lines of a unified diff shown per differing command


class Outcome(NamedTuple):
    status: object  # the exit code, or what main raised
    stdout: bytes
    stderr: bytes
    files: dict[str, bytes]  # path relative to the working directory -> bytes


def _load(path: Path, name: str, package: bool) -> ModuleType:
    """The module at path (a package's directory where package) as sys.modules[name]."""
    if package:
        spec = importlib.util.spec_from_file_location(
            name, path / "__init__.py", submodule_search_locations=[str(path)])
    else:
        spec = importlib.util.spec_from_file_location(name, path)
    module = importlib.util.module_from_spec(spec)
    sys.modules[name] = module
    spec.loader.exec_module(module)
    return module


def load_cli(src: Path, name: str) -> ModuleType:
    """src/evlab's cli module, with the package loaded as `name`."""
    _load(src / "evlab", name, package=True)
    return importlib.import_module(f"{name}.cli")


def extract(rev: str, dest: Path) -> Path:
    """Extract `git archive rev src` under dest, and return the extracted src."""
    archive = subprocess.run(["git", "-C", str(ROOT), "archive", "--format=tar", rev, "src"],
                             capture_output=True, check=True).stdout
    with tarfile.open(fileobj=io.BytesIO(archive)) as tar:
        # the "data" filter where this Python has it (3.12, and 3.10.12 on)
        tar.extractall(dest, **({"filter": "data"} if hasattr(tarfile, "data_filter") else {}))
    return dest / "src"


def readme_commands() -> list[tuple[str, ...]]:
    """Every `evlab` line of README.md's sh blocks, as tests/test_readme.py reads them."""
    readme = (ROOT / "README.md").read_text(encoding="utf-8")
    blocks = re.findall(r"```sh\n(.*?)```", readme, flags=re.DOTALL)
    return [tuple(shlex.split(line, comments=True)[1:]) for block in blocks
            for line in block.splitlines() if line.strip().startswith("evlab ")]


def workload_commands() -> list[tuple[str, ...]]:
    """Each workload's warm-up ops and probes, then blocks 0-1 of seeds 1-2."""
    workloads = _load(ROOT / "bench" / "workloads.py", "_outdiff_workloads", package=False)
    ops = []
    for workload in workloads.WORKLOADS:
        ops += workloads.warmup(workload) + workloads.probes(workload)
        ops += [op for seed in (1, 2) for index in (0, 1)
                for op in workloads.block(workload, seed, index)]
    return [tuple(op.argv) for op in ops]


def help_commands(parser: argparse.ArgumentParser, prefix: tuple[str, ...] = ()):
    """`--help` of the parser and of each of its subcommands, depth first."""
    yield (*prefix, "--help")
    for action in parser._actions:
        if isinstance(action, argparse._SubParsersAction):
            for name, sub in action.choices.items():
                yield from help_commands(sub, (*prefix, name))


def edge_commands() -> list[tuple[str, ...]]:
    lines = EDGES.read_text(encoding="utf-8").splitlines()
    return [tuple(shlex.split(line)) for line in lines if line.strip() and not line.startswith("#")]


def run(main: Callable[[list[str]], int], argv: tuple[str, ...], workdir: Path) -> Outcome:
    """main(argv) with its streams captured and workdir as the working directory,
    which is emptied again afterwards."""
    out, err = io.StringIO(), io.StringIO()
    here = os.getcwd()
    os.chdir(workdir)
    try:
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            try:
                status = main(list(argv))
            except SystemExit as exit:
                status = exit.code
            except Exception as error:  # a traceback where the other side may give none
                status = f"raised {type(error).__name__}: {error}"
    finally:
        os.chdir(here)
    files = {}
    for path in sorted(workdir.rglob("*")):
        if path.is_file():
            files[path.relative_to(workdir).as_posix()] = path.read_bytes()
    for path in workdir.iterdir():
        shutil.rmtree(path) if path.is_dir() else path.unlink()
    return Outcome(status, out.getvalue().encode(), err.getvalue().encode(), files)


def first_difference(parent: Outcome, change: Outcome) -> list[str]:
    """Lines saying what differs first: the exit code, stdout, stderr or a file."""
    if parent.status != change.status:
        return [f"  exit {parent.status!r} -> {change.status!r}"]
    streams = [("stdout", parent.stdout, change.stdout), ("stderr", parent.stderr, change.stderr)]
    streams += [(f"file {name}", parent.files.get(name, b""), change.files.get(name, b""))
                for name in sorted({*parent.files, *change.files})]
    for label, old, new in streams:
        if old != new:
            diff = difflib.unified_diff(old.decode(errors="replace").splitlines(),
                                        new.decode(errors="replace").splitlines(),
                                        f"parent {label}", f"change {label}", lineterm="")
            return [f"  {line}" for line in list(diff)[:DIFF_LINES]]
    if parent.files.keys() != change.files.keys():
        return [f"  files {sorted(parent.files)} -> {sorted(change.files)}"]
    return []


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    side = parser.add_mutually_exclusive_group(required=True)
    side.add_argument("--parent", metavar="REV", help="git revision whose src is the parent")
    side.add_argument("--parent-tree", metavar="DIR", type=Path,
                      help="directory holding the parent's evlab package (a checkout's src)")
    parser.add_argument("--expect", metavar="FILE", type=Path,
                        help="commands, one per line, that are meant to differ")
    parser.add_argument("--stride", type=int, default=1, metavar="K",
                        help="run every K-th command of the corpus (default 1)")
    args = parser.parse_args(argv)
    if args.stride < 1:
        parser.error(f"--stride must be at least 1, got {args.stride}")
    expected = set()
    if args.expect:
        lines = args.expect.read_text(encoding="utf-8").splitlines()
        expected = {shlex.join(shlex.split(line)) for line in lines if line.strip()}

    sys.dont_write_bytecode = True  # nothing of the checkout is imported before this
    os.environ["COLUMNS"] = "100"
    with tempfile.TemporaryDirectory(prefix="evlab-outdiff-") as scratch:
        scratch = Path(scratch)
        if args.parent:
            try:
                parent_src = extract(args.parent, scratch / "parent")
            except subprocess.CalledProcessError as err:
                parser.error(f"git archive {args.parent} src failed: "
                             f"{err.stderr.decode(errors='replace').strip()}")
        else:
            parent_src = args.parent_tree
        clis = (load_cli(parent_src, "_outdiff_parent"), load_cli(ROOT / "src", "_outdiff_change"))
        helps = [command for cli in clis for command in help_commands(cli.build_parser())]
        corpus = list(dict.fromkeys(
            readme_commands() + workload_commands() + helps + edge_commands()))[::args.stride]
        workdir = scratch / "work"
        workdir.mkdir()

        unexpected = listed = 0
        for argv in corpus:
            parent, change = (run(cli.main, argv, workdir) for cli in clis)
            if parent == change:
                continue
            command = shlex.join(argv)
            listed += command in expected
            unexpected += command not in expected
            print(f"{'expected' if command in expected else 'differs'}: {command}")
            print("\n".join(first_difference(parent, change)), flush=True)
    print(f"{len(corpus)} commands: {listed + unexpected} differ, {listed} of them expected")
    return 1 if unexpected else 0


if __name__ == "__main__":
    sys.exit(main())
