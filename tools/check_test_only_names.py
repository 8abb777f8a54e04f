#!/usr/bin/env python3
"""Checker for names in ``src/repro`` that only a test calls.

Lists every top-level function and class in ``src/repro``, and every
method of a top-level class, private ones included (dunder functions
and methods, which the language calls — a module's ``__getattr__`` and
``__dir__`` as much as a class's ``__init__`` — and the harness's own
helpers are left out), then counts the name's identifier tokens in
the ``.py`` files of ``src/``, ``benchmarks/``, ``examples/`` and
``tools/``.  String literals count, so a ``SPAN_TABLE`` entry in
``benchmarks/e2e/spans.py`` is a reference;
comments, docstrings and the package ``__init__.py`` files under
``src/`` do not, since a mention or a re-export calls nothing, and
neither does the microbenchmark harness ``src/repro/bench/perf.py``:
a subsystem that only a synthetic benchmark drives is as unused as
one that only a test drives.
A name whose every token is one of its own ``def`` / ``class`` lines
is referenced by nothing but ``tests/`` (or the harness): it either
gets a caller or goes, with its tests.  The only exceptions are
:data:`ALLOWED`, names whose docstring quotes the paper; that list may
only shrink.  This file is left out of the count, so listing a name
here is not a use.

Blind spot: the count is of bare names, not of the definitions they
resolve to.  A name that several definitions share counts as a use of
all of them, so a method that only a test calls looks used as long as
another definition's caller spells the same name (``RuleEngine.remove``
beside ``RecoveryManager.remove``).  ROADMAP item 3(d) lists the methods
this hides.

Usage::

    python tools/check_test_only_names.py [repo_root]
"""

from __future__ import annotations

import ast
import io
import re
import sys
import tokenize
from collections import Counter
from pathlib import Path

#: qualified name -> why it stays without a caller outside ``tests/``
ALLOWED = {
    "DesignActivity.revoke_finality":
        "the spec reformulation of Sect.5.4, quoted in its docstring",
    "ScriptCursor.reset_subtree":
        "the designer-driven re-iteration of Sect.5.3, quoted in its "
        "docstring",
}
#: the trees whose source counts as a reference
_REFERENCING = ("src", "benchmarks", "examples", "tools")
#: the microbenchmark harness: a caller that runs no design work
_HARNESS = Path("src", "repro", "bench", "perf.py")
_WORD = re.compile(r"[A-Za-z_]\w*")
_DOCUMENTED = (ast.Module, ast.ClassDef, ast.FunctionDef,
               ast.AsyncFunctionDef)


def _dunder(name: str) -> bool:
    """A name the language calls, never the program's own code."""
    return name.startswith("__") and name.endswith("__")


def checked_names(root: Path) -> list[tuple[str, str, int]]:
    """``(qualified name, file, line)`` of every checked definition."""
    found: list[tuple[str, str, int]] = []
    for path in sorted((root / "src" / "repro").rglob("*.py")):
        if path.relative_to(root) == _HARNESS:
            continue
        where = str(path.relative_to(root))
        tree = ast.parse(path.read_text(encoding="utf-8"))
        for node in tree.body:
            if not isinstance(node, (ast.FunctionDef, ast.ClassDef)) \
                    or _dunder(node.name):
                continue
            found.append((node.name, where, node.lineno))
            if isinstance(node, ast.ClassDef):
                found.extend(
                    (f"{node.name}.{item.name}", where, item.lineno)
                    for item in node.body
                    if isinstance(item, ast.FunctionDef)
                    and not _dunder(item.name))
    return found


def _words(text: str) -> tuple[list[str], list[str]]:
    """(identifier words, names a ``def`` / ``class`` defines) of the
    code and string literals of *text*, docstrings and comments left
    out."""
    docstrings = {
        (node.body[0].lineno, node.body[0].col_offset)
        for node in ast.walk(ast.parse(text))
        if isinstance(node, _DOCUMENTED) and node.body
        and isinstance(node.body[0], ast.Expr)
        and isinstance(node.body[0].value, ast.Constant)
        and isinstance(node.body[0].value.value, str)}
    words: list[str] = []
    defined: list[str] = []
    previous = ""
    for token in tokenize.generate_tokens(io.StringIO(text).readline):
        if token.type == tokenize.COMMENT or token.start in docstrings:
            continue
        words += _WORD.findall(token.string)
        if token.type == tokenize.NAME and previous in ("def", "class"):
            defined.append(token.string)
        previous = token.string
    return words, defined


def test_only_names(root: Path) -> list[tuple[str, str, int]]:
    """The definitions nothing outside ``tests/`` references."""
    tokens: Counter[str] = Counter()
    definitions: Counter[str] = Counter()
    this_file = Path(__file__).resolve()
    for tree in _REFERENCING:
        for path in sorted((root / tree).rglob("*.py")):
            if path.resolve() == this_file \
                    or path.relative_to(root) == _HARNESS \
                    or (tree == "src" and path.name == "__init__.py"):
                continue
            words, defined = _words(path.read_text(encoding="utf-8"))
            tokens.update(words)
            if tree == "src":
                definitions.update(defined)
    return [(name, where, line)
            for name, where, line in checked_names(root)
            if tokens[name.rsplit(".", 1)[-1]]
            <= definitions[name.rsplit(".", 1)[-1]]]


def main(argv: list[str] | None = None) -> int:
    args = sys.argv[1:] if argv is None else argv
    root = Path(args[0]).resolve() if args \
        else Path(__file__).resolve().parent.parent
    found = test_only_names(root)
    problems = [f"{where}:{line}: {name} is referenced only by tests/"
                for name, where, line in found if name not in ALLOWED]
    flagged = {name for name, __, __ in found}
    problems += [f"ALLOWED lists {name}, which now has a caller or is "
                 f"gone: drop the entry"
                 for name in sorted(set(ALLOWED) - flagged)]
    if problems:
        print("\n".join(problems))
        return 1
    print(f"every name in src/repro has a caller outside tests/ "
          f"({len(ALLOWED)} allowed)")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
