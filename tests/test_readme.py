"""Every `evlab` example in README.md runs and prints its documented header."""

import re
import shlex
from pathlib import Path

import pytest

from evlab.cli import main

README = (Path(__file__).resolve().parent.parent / "README.md").read_text(encoding="utf-8")


def _examples() -> list[str]:
    blocks = re.findall(r"```sh\n(.*?)```", README, flags=re.DOTALL)
    return [line.strip() for block in blocks for line in block.splitlines()
            if line.strip().startswith("evlab ")]


def _headers() -> dict[str, str]:
    """The README's header table: subcommand -> CSV header."""
    return dict(re.findall(r"^\| `([a-z0-9 -]+)` +\| `([a-z0-9_,]+)` \|$", README, flags=re.M))


def test_readme_lists_examples_and_headers():
    assert len(_examples()) >= 15
    assert len(_headers()) == 7


@pytest.mark.parametrize("line", _examples())
def test_readme_example_runs(line, capsys, tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    argv = shlex.split(line, comments=True)[1:]
    status = main(argv)
    out = capsys.readouterr().out
    if "--out" in argv:
        assert out == ""
        out = (tmp_path / argv[argv.index("--out") + 1]).read_text(encoding="utf-8")
    assert status == 0
    lines = out.splitlines()
    subcommand = " ".join(argv[:2]) if argv[0] == "audit" else argv[0]
    assert lines[0] == _headers()[subcommand]
    assert len(lines) >= 2
