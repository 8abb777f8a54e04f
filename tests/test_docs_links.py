"""The docs tree exists and its relative cross-links resolve.

Tier-1 mirror of the CI docs job: ``tools/check_links.py`` must pass
from a clean checkout, and the documents the README promises must
actually exist.
"""

from __future__ import annotations

import importlib.util
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def _load_checker():
    spec = importlib.util.spec_from_file_location(
        "check_links", ROOT / "tools" / "check_links.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_docs_tree_exists():
    assert (ROOT / "docs" / "coherence.md").is_file()
    assert (ROOT / "docs" / "architecture.md").is_file()
    assert (ROOT / "examples" / "README.md").is_file()


def test_readme_links_into_docs():
    readme = (ROOT / "README.md").read_text(encoding="utf-8")
    assert "docs/coherence.md" in readme
    assert "docs/architecture.md" in readme
    assert "examples/README.md" in readme


def test_examples_catalog_covers_every_example():
    catalog = (ROOT / "examples" / "README.md").read_text(
        encoding="utf-8")
    for script in sorted((ROOT / "examples").glob("*.py")):
        assert script.name in catalog, \
            f"examples/README.md does not list {script.name}"


def test_all_relative_links_resolve(capsys):
    checker = _load_checker()
    assert checker.main([str(ROOT)]) == 0, capsys.readouterr().out


def test_checker_flags_broken_links(tmp_path):
    checker = _load_checker()
    (tmp_path / "docs").mkdir()
    (tmp_path / "README.md").write_text(
        "see [missing](docs/missing.md) and [ok](docs/ok.md)\n",
        encoding="utf-8")
    (tmp_path / "docs" / "ok.md").write_text("fine\n", encoding="utf-8")
    assert checker.main([str(tmp_path)]) == 1


def test_checker_flags_keywords_the_constructor_does_not_have(
        tmp_path, capsys):
    checker = _load_checker()
    (tmp_path / "src" / "repro" / "te").mkdir(parents=True)
    (tmp_path / "src" / "repro" / "te" / "rig.py").write_text(
        "class TeRig:\n"
        "    def __init__(self, trace=True, lease_ttl=None):\n"
        "        pass\n", encoding="utf-8")
    (tmp_path / "README.md").write_text(
        "Outside a fence TeRig(anything=1) is prose.\n\n"
        "```python\n"
        "rig = TeRig(trace=False,          # quiet\n"
        "            lease_ttl=max(1, 2))\n"
        "```\n", encoding="utf-8")
    assert checker.main([str(tmp_path)]) == 0
    (tmp_path / "README.md").write_text(
        "```python\n"
        "rig = TeRig(trace=False,\n"
        "            eviction_policy=\"lru\")\n"
        "```\n", encoding="utf-8")
    assert checker.main([str(tmp_path)]) == 1
    assert "README.md:2: TeRig() has no parameter 'eviction_policy'" \
        in capsys.readouterr().out


def test_checker_flags_a_removed_keyword_in_an_inline_span(
        tmp_path, capsys):
    checker = _load_checker()
    (tmp_path / "src" / "repro" / "core").mkdir(parents=True)
    (tmp_path / "src" / "repro" / "core" / "system.py").write_text(
        "class ConcordSystem:\n"
        "    def __init__(self, trace=True, seed=0):\n"
        "        pass\n", encoding="utf-8")
    (tmp_path / "src" / "repro" / "scenario").mkdir(parents=True)
    (tmp_path / "src" / "repro" / "scenario" / "delegation.py").write_text(
        "def make_vlsi_system(workstations=(), trace=True):\n"
        "    pass\n", encoding="utf-8")
    (tmp_path / "README.md").write_text(
        "Build one with `ConcordSystem(seed=3)` or "
        "`make_vlsi_system((\"ws-1\",), trace=\u2026)`.\n",
        encoding="utf-8")
    assert checker.main([str(tmp_path)]) == 0
    (tmp_path / "README.md").write_text(
        "Leases expire with `ConcordSystem(lease_ttl=T)`, points every\n"
        "`make_vlsi_system((\"ws-1\",), recovery_interval=30.0)`.\n",
        encoding="utf-8")
    assert checker.main([str(tmp_path)]) == 1
    out = capsys.readouterr().out
    assert "README.md:1: ConcordSystem() has no parameter 'lease_ttl'" \
        in out
    assert "README.md:2: make_vlsi_system() has no parameter " \
        "'recovery_interval'" in out
