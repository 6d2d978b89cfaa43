"""The pair runner's summary, on the stored BENCH_pr22.json, and its
standard-library-only imports."""

import ast
import importlib.util
import json
import os
import sys

import pytest

from conftest import ROOT

TOOL = os.path.join(ROOT, "tools", "bench_pairs.py")


def _tool():
    spec = importlib.util.spec_from_file_location("bench_pairs", TOOL)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def _bench_pr22():
    with open(os.path.join(ROOT, "BENCH_pr22.json"), encoding="utf-8") as fh:
        return json.load(fh)


# wall_s medians, parent and change, and pairs won by the change, out of 10
_PR22_WALL = {"acceptance-grid": (1.908, 1.437, 10),
              "particle-oracle": (0.598, 0.578, 8),
              "cli-example": (0.518, 0.480, 7)}


def test_summary_reproduces_bench_pr22_medians():
    stored = _bench_pr22()
    summary = _tool().summarize(stored)
    assert list(summary) == list(_PR22_WALL)
    for workload, (parent, change, won) in _PR22_WALL.items():
        wall = summary[workload]["medians"]["wall_s"]
        assert round(wall["parent_median"], 3) == parent
        assert round(wall["change_median"], 3) == change
        assert (wall["pairs_change_lower"], wall["pairs"]) == (won, 10)
        # every metric as the file was assembled by hand, and no failures
        for metric, rec in summary[workload]["medians"].items():
            want = stored["workloads"][workload]["medians"][metric]
            assert rec == pytest.approx(want, rel=1e-12)
        assert summary[workload]["failed_total"] == {"parent": 0,
                                                     "change": 0}
    text = _tool().format_summary(summary)
    assert "particle-oracle   wall_s" in text and "8/10" in text


def test_tool_imports_only_the_standard_library():
    with open(TOOL, encoding="utf-8") as fh:
        tree = ast.parse(fh.read())
    names = {alias.name.split(".")[0] for node in ast.walk(tree)
             if isinstance(node, ast.Import) for alias in node.names}
    names |= {node.module.split(".")[0] for node in ast.walk(tree)
              if isinstance(node, ast.ImportFrom) and node.level == 0}
    assert names and names <= set(sys.stdlib_module_names)
