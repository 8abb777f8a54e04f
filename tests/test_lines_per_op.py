"""``tools/lines_per_op.py``: exact lines per designer op of an e2e
workload, by layer and by function, at smoke size.

The tool reads ``benchmarks/e2e`` and writes nothing there; a line
count does not depend on the host, so the same tree counted twice
reads the same.
"""

from __future__ import annotations

import importlib.util
import json
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
TOOL = ROOT / "tools" / "lines_per_op.py"
E2E = ROOT / "benchmarks" / "e2e"


def _tool(*args: str) -> str:
    done = subprocess.run([sys.executable, str(TOOL), *args],
                          capture_output=True, text=True, check=True,
                          cwd=ROOT)
    return done.stdout


def _listing() -> list[str]:
    return sorted(path.relative_to(E2E).as_posix()
                  for path in E2E.rglob("*"))


def test_a_smoke_count_adds_up_and_writes_nothing_in_the_benchmark():
    before = _listing()
    result = json.loads(_tool("campaign_reads", "--smoke", "--json"))
    assert _listing() == before
    assert result["problems"] == []
    assert result["ops"] > 0
    assert result["lines"] == sum(result["layers"].values()) \
        == sum(result["functions"].values())
    assert {"te", "txn", "net", "sim", "scenario", "outside"} \
        <= set(result["layers"])
    assert "txn/leases.py:LeaseTable.grant" in result["functions"]


def test_the_table_names_the_top_functions():
    out = _tool("cm_cooperation", "--smoke", "--top", "3").splitlines()
    assert out[0].startswith("cm_cooperation (smoke size, seed 0): ")
    assert out[0].endswith(" lines/op")
    assert out[1].split() == ["layer", "lines/op", "share"]
    assert out[-4] == "top 3 functions (lines/op):"
    assert all(":" in line for line in out[-3:])


def test_the_same_tree_counted_twice_reads_the_same():
    out = _tool("cm_cooperation", "--smoke", "--base", str(ROOT),
                "--top", "0")
    rows = [line.split() for line in out.splitlines()[2:]]
    assert rows[0][0] == "total"
    assert all(row[1] == row[2] for row in rows)


def _load_tool():
    spec = importlib.util.spec_from_file_location("lines_per_op", TOOL)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_the_delta_lists_the_functions_that_moved_most():
    render_delta = _load_tool().render_delta
    base = {"workload": "w", "smoke": True, "seed": 0, "ops": 10,
            "lines": 300, "layers": {"te": 200, "net": 100},
            "functions": {"te/a.py:A.gone": 50, "te/a.py:A.same": 150,
                          "net/b.py:B.less": 100}}
    head = {"workload": "w", "smoke": True, "seed": 0, "ops": 10,
            "lines": 230, "layers": {"te": 170, "net": 60},
            "functions": {"te/a.py:A.same": 150, "te/a.py:A.new": 20,
                          "net/b.py:B.less": 60}}
    out = render_delta(base, head, 3).splitlines()
    assert out[-5] == "top 3 functions by change (lines/op):"
    assert out[-4].split() == ["base", "head", "ratio", "function"]
    assert [line.split() for line in out[-3:]] == [
        ["5.0", "0.0", "0.000", "te/a.py:A.gone"],
        ["10.0", "6.0", "0.600", "net/b.py:B.less"],
        ["0.0", "2.0", "-", "te/a.py:A.new"]]
    assert render_delta(base, head, 0).splitlines()[-1].split() \
        == ["net", "10.0", "6.0", "0.600"]


def test_the_delta_of_a_tree_with_itself_lists_no_move():
    out = _tool("cm_cooperation", "--smoke", "--base", str(ROOT),
                "--top", "4").splitlines()
    assert out[-6] == "top 4 functions by change (lines/op):"
    rows = [line.split() for line in out[-4:]]
    assert all(row[0] == row[1] and row[2] == "1.000" for row in rows)
