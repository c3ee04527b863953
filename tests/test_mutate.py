"""tools/mutate.py reads the checkout once: the copy it makes at start supplies
every site, every mutant and the restore after each, whatever happens to the
checkout later. The tests' run is faked, so no pytest starts."""

import importlib.util
import shutil
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
MODULE = Path("src", "evlab", "transition.py")


def _mutate(monkeypatch):
    monkeypatch.setattr(sys, "dont_write_bytecode", True)  # no __pycache__ under tools
    spec = importlib.util.spec_from_file_location("mutate", ROOT / "tools" / "mutate.py")
    mutate = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(mutate)
    return mutate


def test_every_mutant_and_restore_come_from_the_copy_made_at_start(tmp_path, monkeypatch,
                                                                   capsys):
    checkout = tmp_path / "checkout"
    shutil.copytree(ROOT, checkout, ignore=shutil.ignore_patterns(
        ".git", "__pycache__", ".hypothesis", ".pytest_cache", "*.egg-info", "out"))
    (checkout / ".git").mkdir()
    (checkout / ".git" / "HEAD").write_text("ref: refs/heads/main\n", encoding="utf-8")
    (checkout / "src" / "evlab" / "__pycache__").mkdir()
    (checkout / "src" / "evlab" / "__pycache__" / "transition.pyc").write_bytes(b"stale")
    snapshot = (checkout / MODULE).read_text(encoding="utf-8")
    mutate = _mutate(monkeypatch)
    monkeypatch.setattr(mutate, "ROOT", checkout)
    tested, restored = [], []

    def passes(tree, seed, timeout=None):
        if not tested:
            for name in ("README.md", "BENCHMARK.json", "tools/outdiff_edges.txt",
                         "bench/workloads.py"):
                assert (tree / name).is_file(), name
            assert not (tree / ".git").exists()
            assert not list(tree.rglob("__pycache__"))
            # an edit to the checkout mid-run, which moves every offset after line 1
            (checkout / MODULE).write_text("# edited\n" + snapshot, encoding="utf-8")
        tested.append((tree / MODULE).read_text(encoding="utf-8"))
        return True

    def killed(site, tree, *args, original=mutate.killed):
        verdict = original(site, tree, *args)
        restored.append((site, (tree / MODULE).read_text(encoding="utf-8")))
        return verdict

    monkeypatch.setattr(mutate, "passes", passes)
    monkeypatch.setattr(mutate, "killed", killed)
    assert mutate.main(["--modules", "transition", "--sample", "2"]) == 0
    assert capsys.readouterr().out.endswith("survived\nkilled 0 of 2\n")

    sites = [site for site, _ in restored]
    assert len(sites) == 2 and set(sites) <= set(mutate.sites("transition", snapshot))
    assert tested == [snapshot, *(mutate.mutant_source(site, snapshot) for site in sites)]
    assert snapshot not in tested[1:]
    assert [text for _, text in restored] == [snapshot, snapshot]
