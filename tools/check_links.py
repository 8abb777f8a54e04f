#!/usr/bin/env python3
"""Relative-link and example-call checker for the repo's markdown docs.

Scans ``README.md``, ``ROADMAP.md``, ``docs/*.md`` and
``examples/README.md`` for markdown links/images and verifies that
every **relative** target resolves to an existing file or directory
(anchors are stripped; external ``http(s):``/``mailto:`` targets and
bare in-page ``#anchors`` are skipped).  In fenced code blocks and in
inline code spans it also checks that every keyword of a call of one
of :data:`_CONSTRUCTORS` (``ConcordSystem(...)``, ``TeRig(...)``,
``make_vlsi_system(...)``, ...) is a parameter of it — read from the
source, nothing is imported — so the docs cannot advertise an option
that does not exist.  Exits non-zero listing every problem — cheap
enough to keep blocking in CI.

Usage::

    python tools/check_links.py [repo_root]
"""

from __future__ import annotations

import ast
import re
import sys
from pathlib import Path

#: inline markdown links/images: [text](target) / ![alt](target)
_LINK = re.compile(r"!?\[[^\]]*\]\(([^)\s]+)(?:\s+\"[^\"]*\")?\)")
#: targets that are not this repo's business
_EXTERNAL = re.compile(r"^(https?:|mailto:|ftp:)", re.IGNORECASE)
#: the callables whose documented calls are checked, and their source
#: (a class stands for its ``__init__``)
_CONSTRUCTORS = {"TeRig": "src/repro/te/rig.py",
                 "ConcordSystem": "src/repro/core/system.py",
                 "ServerTM": "src/repro/te/transaction_manager.py",
                 "ClientTM": "src/repro/te/transaction_manager.py",
                 "Network": "src/repro/net/network.py",
                 "CooperationManager":
                     "src/repro/core/cooperation_manager.py",
                 "make_vlsi_system": "src/repro/scenario/delegation.py"}
_CALL = re.compile(r"\b(" + "|".join(_CONSTRUCTORS) + r")\(")
#: an inline code span: `code`
_SPAN = re.compile(r"`([^`]+)`")


def doc_files(root: Path) -> list[Path]:
    """The markdown files whose links this repo guarantees."""
    files = [root / "README.md", root / "ROADMAP.md"]
    files.extend(sorted((root / "docs").glob("*.md")))
    files.extend(sorted((root / "examples").glob("*.md")))
    return [f for f in files if f.is_file()]


def constructor_parameters(root: Path) -> dict[str, set[str]]:
    """Parameter names of each checked class's ``__init__`` and each
    checked function."""
    parameters: dict[str, set[str]] = {}
    for name, source in _CONSTRUCTORS.items():
        if not (root / source).is_file():
            continue
        tree = ast.parse((root / source).read_text(encoding="utf-8"))
        for node in tree.body:
            if getattr(node, "name", None) != name:
                continue
            if isinstance(node, ast.ClassDef):
                node = next((item for item in node.body
                             if isinstance(item, ast.FunctionDef)
                             and item.name == "__init__"), None)
            if isinstance(node, ast.FunctionDef):
                parameters[name] = {
                    arg.arg
                    for arg in node.args.args + node.args.kwonlyargs}
    return parameters


def _call_keywords(code: str, start: int) -> list[str] | None:
    """Keyword names of the call whose ``(`` sits just before *start*
    (None when the parentheses never close or the arguments do not
    parse)."""
    depth = 1
    for end in range(start, len(code)):
        depth += {"(": 1, ")": -1}.get(code[end], 0)
        if depth == 0:
            break
    else:
        return None
    try:
        call = ast.parse(f"f({code[start:end]})", mode="eval").body
    except SyntaxError:
        return None
    return [keyword.arg for keyword in call.keywords if keyword.arg]


def check_calls(block: list[str], first_line: int, where: str,
                parameters: dict[str, set[str]]) -> list[str]:
    """Unknown-keyword descriptions for one fenced code block (or one
    inline code span)."""
    problems: list[str] = []
    # prose elides arguments with an ellipsis character
    code = "\n".join(re.sub(r"#.*", "", line).replace("\u2026", "...")
                     for line in block)
    for match in _CALL.finditer(code):
        name = match.group(1)
        lineno = first_line + code.count("\n", 0, match.start())
        keywords = _call_keywords(code, match.end())
        if keywords is None:
            problems.append(f"{where}:{lineno}: cannot read the "
                            f"arguments of {name}(...)")
            continue
        for keyword in keywords:
            if name in parameters and keyword not in parameters[name]:
                problems.append(f"{where}:{lineno}: {name}() has no "
                                f"parameter {keyword!r}")
    return problems


def check_file(path: Path, root: Path,
               parameters: dict[str, set[str]]) -> list[str]:
    """Broken-link and unknown-keyword descriptions for one file."""
    problems: list[str] = []
    text = path.read_text(encoding="utf-8")
    where = str(path.relative_to(root))
    in_fence = False
    block: list[str] = []
    for lineno, line in enumerate(text.splitlines(), start=1):
        if line.lstrip().startswith("```"):
            if in_fence:
                problems.extend(check_calls(
                    block, lineno - len(block), where, parameters))
                block = []
            in_fence = not in_fence
            continue
        if in_fence:
            block.append(line)
            continue
        for span in _SPAN.finditer(line):
            problems.extend(check_calls(
                [span.group(1)], lineno, where, parameters))
        for match in _LINK.finditer(line):
            target = match.group(1)
            if _EXTERNAL.match(target) or target.startswith("#"):
                continue
            resolved = (path.parent / target.split("#", 1)[0]).resolve()
            if not resolved.exists():
                problems.append(
                    f"{where}:{lineno}: broken link -> {target}")
    return problems


def main(argv: list[str] | None = None) -> int:
    args = sys.argv[1:] if argv is None else argv
    root = Path(args[0]).resolve() if args \
        else Path(__file__).resolve().parent.parent
    files = doc_files(root)
    if not files:
        print(f"no markdown docs found under {root}")
        return 2
    parameters = constructor_parameters(root)
    problems: list[str] = []
    for path in files:
        problems.extend(check_file(path, root, parameters))
    checked = ", ".join(str(f.relative_to(root)) for f in files)
    if problems:
        print("\n".join(problems))
        print(f"\n{len(problems)} problem(s) across: {checked}")
        return 1
    print(f"all relative links resolve and all documented call "
          f"keywords exist ({checked})")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
