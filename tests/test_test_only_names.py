"""No name in ``src/repro`` is there for its tests alone.

Tier-1 mirror of the CI docs job's ``tools/check_test_only_names.py``:
every function, class and method, private ones included, has a
reference outside ``tests/``, or is one of the allowed names whose
docstring quotes the paper — and that list may only shrink.
"""

from __future__ import annotations

import ast
import importlib.util
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent

#: size of the allowlist; lower it when an entry goes, never raise it
ALLOWED_AT_MOST = 2


def _load_checker():
    spec = importlib.util.spec_from_file_location(
        "check_test_only_names",
        ROOT / "tools" / "check_test_only_names.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def _docstring(qualified: str) -> str:
    cls, method = qualified.split(".")
    for path in (ROOT / "src" / "repro").rglob("*.py"):
        for node in ast.parse(path.read_text(encoding="utf-8")).body:
            if isinstance(node, ast.ClassDef) and node.name == cls:
                for item in node.body:
                    if isinstance(item, ast.FunctionDef) \
                            and item.name == method:
                        return ast.get_docstring(item) or ""
    raise AssertionError(f"{qualified} is not defined in src/repro")


def test_every_name_has_a_caller_outside_tests(capsys):
    checker = _load_checker()
    assert checker.main([str(ROOT)]) == 0, capsys.readouterr().out


def test_the_allowlist_only_shrinks_and_quotes_the_paper():
    allowed = _load_checker().ALLOWED
    assert len(allowed) <= ALLOWED_AT_MOST
    for name, reason in allowed.items():
        assert reason
        docstring = _docstring(name)
        assert '"' in docstring and "Sect." in docstring, name


def test_checker_flags_a_name_only_a_test_calls(tmp_path, capsys):
    checker = _load_checker()
    (tmp_path / "src" / "repro").mkdir(parents=True)
    (tmp_path / "benchmarks").mkdir()
    (tmp_path / "tests").mkdir()
    (tmp_path / "src" / "repro" / "parts.py").write_text(
        "def used():\n    return lonely_helper()\n\n"
        "def lonely_helper():\n    pass\n\n"
        "class Box:\n"
        "    def spanned(self):\n        return self._private()\n\n"
        "    def tested(self):\n        pass\n\n"
        "    def timed(self):\n        pass\n\n"
        "    def _private(self):\n        pass\n", encoding="utf-8")
    (tmp_path / "benchmarks" / "spans.py").write_text(
        'SPAN_TABLE = {"box": ("repro.parts:Box.spanned",)}\n'
        "from repro.parts import Box, used\n", encoding="utf-8")
    (tmp_path / "tests" / "test_parts.py").write_text(
        "from repro.parts import Box\nBox().tested()\n", encoding="utf-8")
    # the microbenchmark harness is no caller either
    (tmp_path / "src" / "repro" / "bench").mkdir()
    (tmp_path / "src" / "repro" / "bench" / "perf.py").write_text(
        "from repro.parts import Box\nBox().timed()\n", encoding="utf-8")
    assert checker.main([str(tmp_path)]) == 1
    out = capsys.readouterr().out
    assert "src/repro/parts.py:11: Box.tested is referenced only by " \
        "tests/" in out
    assert "src/repro/parts.py:14: Box.timed is referenced only by " \
        "tests/" in out
    for referenced in ("used", "lonely_helper", "Box.spanned",
                       "Box._private"):
        assert f" {referenced} is" not in out


def test_checker_flags_a_private_name_only_a_test_calls(tmp_path, capsys):
    """A leading underscore hides nothing: a private function or
    method that only a test calls is flagged too.  Dunder methods,
    which the language calls, and the harness's own helpers are not."""
    checker = _load_checker()
    package = tmp_path / "src" / "repro"
    (package / "bench").mkdir(parents=True)
    (tmp_path / "examples").mkdir()
    (tmp_path / "tests").mkdir()
    (package / "parts.py").write_text(
        "def used():\n    return Box()\n\n"
        "def _rebuild_check():\n    return True\n\n"
        "class Box:\n"
        "    def __init__(self):\n        self.size = 1\n\n"
        "    def _probe(self):\n        pass\n", encoding="utf-8")
    (tmp_path / "examples" / "demo.py").write_text(
        "from repro.parts import used\nused()\n", encoding="utf-8")
    (package / "bench" / "perf.py").write_text(
        "from repro.parts import _rebuild_check, used\n\n"
        "def _harness_rig():\n    return used()\n\n"
        "_rebuild_check()\n", encoding="utf-8")
    (tmp_path / "tests" / "test_parts.py").write_text(
        "from repro.bench.perf import _harness_rig\n"
        "from repro.parts import Box, _rebuild_check\n"
        "assert _rebuild_check()\nBox()._probe()\n_harness_rig()\n",
        encoding="utf-8")
    assert checker.main([str(tmp_path)]) == 1
    out = capsys.readouterr().out
    assert "src/repro/parts.py:4: _rebuild_check is referenced only by " \
        "tests/" in out
    assert "src/repro/parts.py:11: Box._probe is referenced only by " \
        "tests/" in out
    for exempt in ("Box.__init__", "_harness_rig", "used"):
        assert f" {exempt} is" not in out


def test_a_re_export_a_mention_or_a_comment_is_no_caller(tmp_path,
                                                         capsys):
    """Only code and non-docstring string literals outside the package
    ``__init__.py`` files count: a name that is re-exported, named in
    its own docstring or in a comment is still flagged; one named in a
    string under ``benchmarks/`` is not."""
    checker = _load_checker()
    package = tmp_path / "src" / "repro"
    package.mkdir(parents=True)
    (tmp_path / "benchmarks").mkdir()
    (package / "__init__.py").write_text(
        "from repro.parts import exported\n"
        '__all__ = ["exported"]\n', encoding="utf-8")
    (package / "parts.py").write_text(
        '"""Module docstring naming mentioned."""\n\n'
        "def exported():\n    pass\n\n"
        "def mentioned():\n"
        '    """See mentioned and commented."""\n\n'
        "def commented():\n    pass  # commented() is handy\n\n"
        "def spanned():\n    pass\n", encoding="utf-8")
    (tmp_path / "benchmarks" / "spans.py").write_text(
        'TABLE = ("repro.parts:spanned",)\n', encoding="utf-8")
    assert checker.main([str(tmp_path)]) == 1
    out = capsys.readouterr().out
    for flagged in ("exported", "mentioned", "commented"):
        assert f" {flagged} is referenced only by tests/" in out
    assert " spanned is" not in out


def test_a_module_level_dunder_is_left_out(tmp_path, capsys):
    """The interpreter calls a module's ``__getattr__`` and ``__dir__``
    (PEP 562) as it calls a class's ``__init__``: a top-level dunder
    function is not checked, a top-level helper beside it still is."""
    checker = _load_checker()
    package = tmp_path / "src" / "repro"
    package.mkdir(parents=True)
    (package / "__init__.py").write_text(
        "def __getattr__(name):\n    return name\n\n"
        "def __dir__():\n    return []\n\n"
        "def _unused():\n    pass\n", encoding="utf-8")
    assert checker.main([str(tmp_path)]) == 1
    out = capsys.readouterr().out
    assert "src/repro/__init__.py:7: _unused is referenced only by " \
        "tests/" in out
    for exempt in ("__getattr__", "__dir__"):
        assert f" {exempt} is" not in out
