"""tools/outdiff.py, on a slice of its corpus: the checkout against itself shows
no difference, a changed tree shows one, and the checkout is left as it was."""

import importlib.util
import os
import re
import shlex
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

from test_readme import _examples as readme_examples

ROOT = Path(__file__).resolve().parent.parent
TOOL = ROOT / "tools" / "outdiff.py"
STRIDE = "20"  # about 23 of the corpus's 465 commands


def _outdiff(*args):
    env = {key: value for key, value in os.environ.items() if key != "PYTHONDONTWRITEBYTECODE"}
    return subprocess.run([sys.executable, str(TOOL), "--stride", STRIDE, *args], env=env,
                          capture_output=True, text=True, timeout=300)


def _files():
    return {(path, path.stat().st_mtime_ns) for path in ROOT.rglob("*")
            if ".git" not in path.relative_to(ROOT).parts and path.is_file()}


def test_the_checkout_against_itself_differs_nowhere_and_writes_nothing():
    before = _files()
    run = _outdiff("--parent-tree", str(ROOT / "src"))
    assert run.returncode == 0, run.stdout + run.stderr
    assert re.fullmatch(r"[0-9]+ commands: 0 differ, 0 of them expected\n", run.stdout)
    assert _files() == before  # no bytecode, no --out file


def test_a_changed_tree_differs_unless_expected(tmp_path):
    # the parent prints 11 significant digits, where the checkout prints 12
    shutil.copytree(ROOT / "src" / "evlab", tmp_path / "evlab",
                    ignore=shutil.ignore_patterns("__pycache__"))
    cli = tmp_path / "evlab" / "cli.py"
    cli.write_text(cli.read_text(encoding="utf-8").replace("{value:.12g}", "{value:.11g}"),
                   encoding="utf-8")
    run = _outdiff("--parent-tree", str(tmp_path))
    assert run.returncode == 1
    differing = [line.removeprefix("differs: ") for line in run.stdout.splitlines()
                 if line.startswith("differs: ")]
    assert differing and "  --- parent stdout" in run.stdout
    (tmp_path / "expect.txt").write_text("\n".join(differing) + "\n", encoding="utf-8")
    run = _outdiff("--parent-tree", str(tmp_path), "--expect", str(tmp_path / "expect.txt"))
    assert run.returncode == 0, run.stdout
    assert run.stdout.endswith(
        f" commands: {len(differing)} differ, {len(differing)} of them expected\n")


def _outdiff_module():
    spec = importlib.util.spec_from_file_location("outdiff", TOOL)
    outdiff = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(outdiff)
    return outdiff


def test_the_corpus_reads_the_readme_as_its_test_does():
    assert _outdiff_module().readme_commands() == [
        tuple(shlex.split(line, comments=True)[1:]) for line in readme_examples()]


def test_a_revision_is_extracted_from_git_archive(tmp_path):
    # HEAD, which a shallow clone has too; HEAD~1 it may not have
    if subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"],
                      capture_output=True).returncode != 0:
        pytest.skip("not a git checkout")
    src = _outdiff_module().extract("HEAD", tmp_path)
    assert src == tmp_path / "src"
    assert (src / "evlab" / "cli.py").is_file()
