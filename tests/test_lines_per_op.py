"""``tools/lines_per_op.py``: exact lines per designer op of an e2e
workload, by layer and by function, at smoke size.

The tool reads ``benchmarks/e2e`` and writes nothing there; a line
count does not depend on the host, so the same tree counted twice
reads the same.
"""

from __future__ import annotations

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
    out = _tool("cm_cooperation", "--smoke", "--base", str(ROOT))
    rows = [line.split() for line in out.splitlines()[2:]]
    assert rows[0][0] == "total"
    assert all(row[1] == row[2] for row in rows)
