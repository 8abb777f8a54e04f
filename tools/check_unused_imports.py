#!/usr/bin/env python3
"""Checker for module-level imports that their module never reads.

Walks every ``.py`` file under ``src/repro`` and ``tools`` and lists
each name a module-level ``import`` / ``from ... import`` binds (also
one under a top-level ``if`` or ``try``, such as an ``if
TYPE_CHECKING:`` block) that no expression of the module reads.  A
read is a ``Name`` loaded anywhere in the module, a name inside a
string annotation (``def f(kernel: "Kernel")``), or an entry of the
module's ``__all__``.  A package ``__init__.py`` is left out: its
imports are its re-exports.  ``from __future__ import ...`` binds no
name, and an import whose line says ``# noqa: F401`` is made for its
side effect (``import repro.vlsi.chip_planner`` loads a module that
later runs).

Usage::

    python tools/check_unused_imports.py [repo_root]
"""

from __future__ import annotations

import ast
import sys
from pathlib import Path

#: the trees whose modules are checked
_CHECKED = (Path("src", "repro"), Path("tools"))


def _imports(tree: ast.Module) -> list[tuple[str, int]]:
    """``(bound name, line)`` of every module-level import of *tree*."""
    found: list[tuple[str, int]] = []
    pending: list[ast.stmt] = list(tree.body)
    while pending:
        node = pending.pop(0)
        if isinstance(node, ast.Import):
            found.extend((alias.asname or alias.name.split(".")[0],
                          node.lineno) for alias in node.names)
        elif isinstance(node, ast.ImportFrom):
            if node.module != "__future__":
                found.extend((alias.asname or alias.name, node.lineno)
                             for alias in node.names if alias.name != "*")
        elif isinstance(node, (ast.If, ast.Try)):
            pending.extend(ast.iter_child_nodes(node))
        elif isinstance(node, ast.ExceptHandler):
            pending.extend(node.body)
    return found


def _annotations(tree: ast.Module) -> list[ast.expr]:
    """Every annotation expression of *tree*."""
    found: list[ast.expr] = []
    for node in ast.walk(tree):
        if isinstance(node, ast.arg):
            found.append(node.annotation)
        elif isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            found.append(node.returns)
        elif isinstance(node, ast.AnnAssign):
            found.append(node.annotation)
    return [node for node in found if node is not None]


def _read_names(tree: ast.Module) -> set[str]:
    """The names *tree* reads: loaded names, names inside string
    annotations, and ``__all__`` entries."""
    read = {node.id for node in ast.walk(tree)
            if isinstance(node, ast.Name)
            and not isinstance(node.ctx, ast.Store)}
    for annotation in _annotations(tree):
        for node in ast.walk(annotation):
            if isinstance(node, ast.Constant) \
                    and isinstance(node.value, str):
                try:
                    quoted = ast.parse(node.value, mode="eval")
                except SyntaxError:
                    continue
                read.update(name.id for name in ast.walk(quoted)
                            if isinstance(name, ast.Name))
    for node in tree.body:
        if isinstance(node, ast.Assign):
            targets = node.targets
        elif isinstance(node, (ast.AugAssign, ast.AnnAssign)):
            targets = [node.target]
        else:
            continue
        if node.value is not None and any(
                isinstance(target, ast.Name) and target.id == "__all__"
                for target in targets):
            read.update(entry.value for entry in ast.walk(node.value)
                        if isinstance(entry, ast.Constant)
                        and isinstance(entry.value, str))
    return read


def unused_imports(root: Path) -> list[tuple[str, int, str]]:
    """``(file, line, name)`` of every import nothing reads."""
    found: list[tuple[str, int, str]] = []
    for checked in _CHECKED:
        for path in sorted((root / checked).rglob("*.py")):
            if path.name == "__init__.py":
                continue
            text = path.read_text(encoding="utf-8")
            tree = ast.parse(text)
            read = _read_names(tree)
            lines = text.splitlines()
            where = path.relative_to(root).as_posix()
            found.extend((where, line, name)
                         for name, line in _imports(tree)
                         if name not in read
                         and "# noqa: F401" not in lines[line - 1])
    return found


def main(argv: list[str] | None = None) -> int:
    args = sys.argv[1:] if argv is None else argv
    root = Path(args[0]).resolve() if args \
        else Path(__file__).resolve().parent.parent
    found = unused_imports(root)
    if found:
        print("\n".join(f"{where}:{line}: {name} is imported but never "
                        f"read" for where, line, name in found))
        return 1
    print("every module-level import in src/repro and tools is read")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
