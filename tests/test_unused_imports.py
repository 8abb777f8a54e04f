"""No module in ``src/repro`` or ``tools`` imports a name it never reads.

Tier-1 mirror of the CI docs job's ``tools/check_unused_imports.py``:
every module-level import binds a name the module reads — in code, in
a string annotation or in ``__all__`` — or is a package
``__init__.py``'s re-export.
"""

from __future__ import annotations

import importlib.util
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def _load_checker():
    spec = importlib.util.spec_from_file_location(
        "check_unused_imports", ROOT / "tools" / "check_unused_imports.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_every_import_is_read(capsys):
    checker = _load_checker()
    assert checker.main([str(ROOT)]) == 0, capsys.readouterr().out


def test_checker_flags_an_import_nothing_reads(tmp_path, capsys):
    checker = _load_checker()
    package = tmp_path / "src" / "repro"
    package.mkdir(parents=True)
    (tmp_path / "tools").mkdir()
    (package / "parts.py").write_text(
        "from __future__ import annotations\n\n"
        "import json\n"
        "import os.path\n"
        "from dataclasses import dataclass, field\n"
        "from typing import TYPE_CHECKING\n\n"
        "if TYPE_CHECKING:\n"
        "    from repro.kernel import Kernel, Network\n\n"
        "try:\n"
        "    import tomllib\n"
        "except ImportError:\n"
        "    tomllib = None\n\n"
        "@dataclass\n"
        "class Box:\n"
        "    size: int = 0\n\n"
        "def load(kernel: \"Kernel\") -> str:\n"
        "    return os.path.basename(str(kernel))\n", encoding="utf-8")
    (tmp_path / "tools" / "tool.py").write_text(
        "import sys\nimport argparse\n\nsys.exit(0)\n", encoding="utf-8")
    assert checker.main([str(tmp_path)]) == 1
    out = capsys.readouterr().out
    for flagged in ("src/repro/parts.py:3: json",
                    "src/repro/parts.py:5: field",
                    "src/repro/parts.py:9: Network",
                    "src/repro/parts.py:12: tomllib",
                    "tools/tool.py:2: argparse"):
        assert f"{flagged} is imported but never read" in out
    for read in ("annotations", " os ", "dataclass ", "TYPE_CHECKING",
                 "Kernel", " sys "):
        assert f"{read.strip()} is imported" not in out, read


def test_a_re_export_all_and_a_side_effect_import_are_reads(tmp_path,
                                                            capsys):
    """A package ``__init__.py`` re-exports what it imports, a module's
    ``__all__`` exports it, and ``# noqa: F401`` marks an import made
    for its side effect: none of them is flagged."""
    checker = _load_checker()
    package = tmp_path / "src" / "repro"
    package.mkdir(parents=True)
    (tmp_path / "tools").mkdir()
    (package / "__init__.py").write_text(
        "from repro.parts import Box\n", encoding="utf-8")
    (package / "parts.py").write_text(
        "from json import dumps, loads\n"
        "import repro.plugins  # noqa: F401\n\n"
        '__all__ = ["dumps"]\n'
        "__all__ += [\"loads\"]\n\n"
        "class Box:\n    pass\n", encoding="utf-8")
    assert checker.main([str(tmp_path)]) == 0, capsys.readouterr().out
