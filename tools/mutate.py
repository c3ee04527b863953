"""Mutation testing of evlab's modules: which one-operator changes do the tests miss?

    python3 tools/mutate.py --modules transition --seed 1 --sample 20

Each mutant makes one change at one site of a module under ``src/evlab``:
it swaps ``<``/``<=``, ``>``/``>=``, ``==``/``!=``, ``+``/``-`` or
``*``/``/`` (each way), or ``and``/``or`` (every keyword of one boolean
expression); it turns a numeric literal ``c`` into ``(c + 1)`` or
``(c - 1)``; it drops ``abs`` from ``abs(e)``; or it moves the end of a
``range`` by one, ``range(a, b)`` into ``range(a, (b) + 1)`` or
``range(a, (b) - 1)``. Code inside f-strings is left alone. ``--sample N``
runs N sites drawn by ``--seed`` (the same seed draws the same sites);
without it every site runs.

The tool first copies the checkout, less ``.git`` and its caches, to a
temporary directory, and reads each module's text once, from that copy: the
sites, every mutant and the restore after it all come from that one text. So
the checkout is never read again or written, and may change during a run.
The copy runs ``python -m pytest -x -q -p no:cacheprovider tests
bench/test_selfcheck.py``, with hypothesis seeded by ``--seed`` so that a
verdict repeats: once unmutated, and then once per mutant. If the unmutated
run fails, no mutant could survive, so the tool says so and exits 1. Its
time, times TIMEOUT_FACTOR, is each mutant's timeout; a failure or a timeout
kills a mutant. One line is printed per mutant, ``module:line:column old →
new: killed|survived``, then the kill count. A survivor is a change no test
notices: either a missing test or an equivalent mutant, which cannot change
any result. ``--sample 0`` only makes the copy and counts its sites.

Standard library only. A full run takes hours, so CI runs a single mutant;
run it on the modules a change touches.
"""

from __future__ import annotations

import argparse
import ast
import io
import os
import random
import shutil
import subprocess
import sys
import tempfile
import time
import tokenize
from pathlib import Path
from typing import NamedTuple

ROOT = Path(__file__).resolve().parent.parent
UNCOPIED = shutil.ignore_patterns(".git", "__pycache__", ".hypothesis", ".pytest_cache",
                                  "*.egg-info", "out")
PYTEST = ("-m", "pytest", "-x", "-q", "-p", "no:cacheprovider", "tests", "bench/test_selfcheck.py")
TIMEOUT_FACTOR = 3  # a mutant's tests that take this many times the unmutated run's loop

_SWAPS = {
    ast.Lt: ast.LtE, ast.LtE: ast.Lt, ast.Gt: ast.GtE, ast.GtE: ast.Gt,
    ast.Eq: ast.NotEq, ast.NotEq: ast.Eq, ast.Add: ast.Sub, ast.Sub: ast.Add,
    ast.Mult: ast.Div, ast.Div: ast.Mult, ast.And: ast.Or, ast.Or: ast.And,
}
_TEXT = {
    ast.Lt: "<", ast.LtE: "<=", ast.Gt: ">", ast.GtE: ">=", ast.Eq: "==", ast.NotEq: "!=",
    ast.Add: "+", ast.Sub: "-", ast.Mult: "*", ast.Div: "/", ast.And: "and", ast.Or: "or",
}


class Site(NamedTuple):
    module: str
    line: int
    column: int  # 1-based, of the first character changed
    old: str  # what the change reads as, for the report
    new: str
    edits: tuple[tuple[int, int, str], ...]  # (start, end) character offsets and their new text


def _operators(node: ast.AST) -> list[tuple[type, ast.AST, ast.AST]]:
    """(operator type, operand before, operand after) for each swappable operator."""
    if isinstance(node, ast.Compare):
        operands = [node.left, *node.comparators]
        return [(type(op), a, b) for op, a, b in zip(node.ops, operands, operands[1:])
                if type(op) in _SWAPS]
    if isinstance(node, ast.BinOp) and type(node.op) in _SWAPS:
        return [(type(node.op), node.left, node.right)]
    return []


def sites(module: str, source: str) -> list[Site]:
    """Every mutation site of source, the text of src/evlab/<module>.py, in source order."""
    lines = source.splitlines(keepends=True)
    starts = [0]
    for line in lines:
        starts.append(starts[-1] + len(line))
    tokens = [tok for tok in tokenize.generate_tokens(io.StringIO(source).readline)
              if tok.type in (tokenize.OP, tokenize.NAME)]

    def between(text: str, a: ast.AST, b: ast.AST) -> list[tuple[int, int]]:
        """Offsets of the tokens spelled text between the end of a and the start of b."""
        lo, hi = (a.end_lineno, a.end_col_offset), (b.lineno, b.col_offset)
        offsets = [starts[tok.start[0] - 1] + tok.start[1] for tok in tokens
                   if tok.string == text and lo <= tok.start < hi]
        return [(offset, offset + len(text)) for offset in offsets]

    def offset(line: int, byte_column: int) -> int:
        """The character offset of an ast position, whose column counts UTF-8 bytes."""
        return starts[line - 1] + len(lines[line - 1].encode("utf-8")[:byte_column].decode("utf-8"))

    def span(node: ast.AST) -> tuple[int, int]:
        return (offset(node.lineno, node.col_offset), offset(node.end_lineno, node.end_col_offset))

    def site(old: str, new: str, edits: list[tuple[int, int, str]]) -> Site:
        line = source.count("\n", 0, edits[0][0]) + 1
        column = edits[0][0] - starts[line - 1] + 1
        return Site(module, line, column, old, new, tuple(edits))

    def swap(kind: type, spans: list[tuple[int, int]]) -> Site:
        new = _TEXT[_SWAPS[kind]]
        return site(_TEXT[kind], new, [(start, end, new) for start, end in spans])

    tree = ast.parse(source)
    in_fstring = {id(inner) for node in ast.walk(tree) if isinstance(node, ast.JoinedStr)
                  for inner in ast.walk(node)}
    found = []
    for node in ast.walk(tree):
        if id(node) in in_fstring:
            continue
        if isinstance(node, ast.BoolOp):
            kind = type(node.op)
            spans = [span for a, b in zip(node.values, node.values[1:])
                     for span in between(_TEXT[kind], a, b)]
            if len(spans) == len(node.values) - 1:
                found.append(swap(kind, spans))
        for kind, a, b in _operators(node):
            spans = between(_TEXT[kind], a, b)
            if len(spans) == 1:
                found.append(swap(kind, spans))
        if (isinstance(node, ast.Constant) and isinstance(node.value, (int, float))
                and not isinstance(node.value, bool)):
            text = ast.get_source_segment(source, node)
            for sign in "+-":
                found.append(site(text, f"({text} {sign} 1)", [(*span(node), f"({text} {sign} 1)")]))
        if (isinstance(node, ast.Call) and isinstance(node.func, ast.Name) and not node.keywords
                and not any(isinstance(arg, ast.Starred) for arg in node.args)):
            if node.func.id == "abs" and len(node.args) == 1:
                found.append(site("abs(…)", "(…)", [(*span(node.func), "")]))
            elif node.func.id == "range" and 1 <= len(node.args) <= 3:
                end = node.args[0 if len(node.args) == 1 else 1]
                if isinstance(end, ast.Constant):
                    continue  # the literal's own mutants move it by one
                text = ast.get_source_segment(source, end)
                start, stop = span(end)
                for sign in "+-":
                    found.append(site(f"range end {text}", f"({text}) {sign} 1",
                                      [(start, start, "("), (stop, stop, f") {sign} 1")]))
    return sorted(found, key=lambda site: (site.edits, site.new))


def mutant_source(site: Site, source: str) -> str:
    """source, the text the site was found in, with the site mutated."""
    for start, end, text in reversed(site.edits):
        source = source[:start] + text + source[end:]
    return source


def passes(tree: Path, seed: int, timeout: float | None = None) -> bool:
    """Whether the tests in tree, with hypothesis seeded by seed, pass within timeout seconds."""
    env = {**os.environ, "PYTHONPATH": str(tree / "src"), "PYTHONDONTWRITEBYTECODE": "1"}
    try:
        run = subprocess.run([sys.executable, *PYTEST, f"--hypothesis-seed={seed}"],
                             cwd=tree, env=env, timeout=timeout,
                             stdout=subprocess.DEVNULL, stderr=subprocess.DEVNULL)
        return run.returncode == 0
    except subprocess.TimeoutExpired:
        return False
    finally:
        shutil.rmtree(tree / ".hypothesis", ignore_errors=True)  # no example carries over


def killed(site: Site, tree: Path, source: str, seed: int, timeout: float) -> bool:
    """Whether the tests in tree fail, or run past timeout seconds, with source mutated."""
    target = tree / "src" / "evlab" / f"{site.module}.py"
    target.write_text(mutant_source(site, source), encoding="utf-8")
    try:
        return not passes(tree, seed, timeout)
    finally:
        target.write_text(source, encoding="utf-8")


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--modules", default="numerics,evidence,transition,scale",
                        help="comma-separated modules of src/evlab (default: the four cores)")
    parser.add_argument("--seed", type=int, default=1, help="seed of the sample (default 1)")
    parser.add_argument("--sample", type=int, default=None, metavar="N",
                        help="run N sites drawn by the seed (default: every site)")
    args = parser.parse_args(argv)

    kills = 0
    with tempfile.TemporaryDirectory(prefix="evlab-mutate-") as scratch:
        tree = Path(scratch)
        shutil.copytree(ROOT, tree, ignore=UNCOPIED, dirs_exist_ok=True)
        sources = {module: (tree / "src" / "evlab" / f"{module}.py").read_text(encoding="utf-8")
                   for module in args.modules.split(",")}
        every = [site for module, source in sources.items() for site in sites(module, source)]
        chosen = every
        if args.sample is not None and args.sample < len(every):
            chosen = sorted(random.Random(args.seed).sample(every, args.sample),
                            key=lambda site: (site.module, site.edits, site.new))
        print(f"{len(chosen)} of {len(every)} sites", flush=True)
        if not chosen:
            return 0
        start = time.perf_counter()
        if not passes(tree, args.seed):
            print("the tests fail on the unmutated tree, so every mutant would read killed",
                  file=sys.stderr)
            return 1
        timeout = TIMEOUT_FACTOR * (time.perf_counter() - start)
        print(f"clean run passed; each mutant's timeout is {timeout:.0f} s", flush=True)
        for site in chosen:
            verdict = killed(site, tree, sources[site.module], args.seed, timeout)
            kills += verdict
            print(f"{site.module}:{site.line}:{site.column} {site.old} → {site.new}: "
                  f"{'killed' if verdict else 'survived'}", flush=True)
    print(f"killed {kills} of {len(chosen)}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
