"""The pair runner's summary and its verdicts, on the stored
BENCH_pr22.json and on every committed BENCH file, its
standard-library-only imports, and the one list of config subcommands
that it, the CLI and the CI workflow each spell out."""

import ast
import glob
import importlib.util
import json
import math
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


@pytest.mark.parametrize("name", sorted(
    os.path.basename(path)
    for path in glob.glob(os.path.join(ROOT, "BENCH_*.json"))))
def test_every_committed_bench_file_summarizes(name):
    # each workload: a finite wall_s median per side over all its stored
    # pairs, and the failed operations per side. Kills a summary that
    # counts 10 pairs whatever the file holds (BENCH_aa.json has 5).
    with open(os.path.join(ROOT, name), encoding="utf-8") as fh:
        stored = json.load(fh)
    summary = _tool().summarize(stored)
    assert list(summary) == list(stored["workloads"])
    for workload, rec in summary.items():
        wall = rec["medians"]["wall_s"]
        assert math.isfinite(wall["parent_median"])
        assert math.isfinite(wall["change_median"])
        assert wall["pairs"] == len(stored["workloads"][workload]["pairs"])
        assert all(isinstance(rec["failed_total"][side], int)
                   for side in ("parent", "change"))
    assert _tool().format_summary(summary)


# The gains the pair rule shows in each stored file, as (workload,
# metric); a file not named here shows none.
_GAINS = {"BENCH_pr22.json": {("acceptance-grid", "wall_s"),
                              ("acceptance-grid", "peak_rss_mib"),
                              ("particle-oracle", "peak_rss_mib")}}


@pytest.mark.parametrize("name", sorted(
    os.path.basename(path)
    for path in glob.glob(os.path.join(ROOT, "BENCH_*.json"))))
def test_verdicts_of_every_committed_bench_file(name):
    # no stored change is worse than its parent beyond the bound, only
    # the three gains of BENCH_pr22.json pass the pair rule, and the
    # table prints a yes for each. Kills the IQR gap dropped from the
    # rule (BENCH_pr26.json particle-oracle wall_s, 9/10 pairs, would
    # show a gain).
    tool = _tool()
    with open(os.path.join(ROOT, name), encoding="utf-8") as fh:
        summary = tool.summarize(json.load(fh))
    bound = tool.bounds()
    gains = set()
    for workload, rec in summary.items():
        for metric, med in rec["medians"].items():
            assert not tool.worse_beyond(med, bound[metric])
            if tool.gain_shown(med):
                gains.add((workload, metric))
    assert gains == _GAINS.get(name, set())
    text = tool.format_summary(summary)
    assert text.count(" yes ") == len(gains)


def test_verdicts_of_two_stored_wall_times():
    # acceptance-grid wall_s of BENCH_pr22.json, a gain: 10/10 pairs and a
    # median gap of 0.471 s against a parent IQR of 0.194 s; particle-oracle
    # wall_s of BENCH_pr26.json, none: 9/10 pairs, gap 0.145 s, IQR 0.266 s
    tool = _tool()
    for name, workload, want in (("BENCH_pr22.json", "acceptance-grid",
                                  (10, 0.471, 0.194, True)),
                                 ("BENCH_pr26.json", "particle-oracle",
                                  (9, 0.145, 0.266, False))):
        with open(os.path.join(ROOT, name), encoding="utf-8") as fh:
            med = tool.summarize(json.load(fh))[workload]["medians"]["wall_s"]
        gap = med["parent_median"] - med["change_median"]
        assert (med["pairs_change_lower"], round(gap, 3),
                round(med["parent_iqr"], 3), tool.gain_shown(med)) == want


def _med(won, pairs, parent, change, iqr):
    return {"parent_median": parent, "change_median": change,
            "relative_change": change / parent - 1.0, "parent_iqr": iqr,
            "pairs_change_lower": won, "pairs": pairs}


def test_gain_rule_and_bound_edges():
    # kills each part of the rule loosened: fewer than 10 pairs allowed,
    # 8/10 counted as nine tenths, a gap equal to the IQR counted as
    # larger, and a change exactly at its bound counted as worse
    tool = _tool()
    assert tool.gain_shown(_med(9, 10, 1.0, 0.5, 0.25))
    assert tool.gain_shown(_med(18, 20, 1.0, 0.5, 0.25))
    assert not tool.gain_shown(_med(9, 9, 1.0, 0.5, 0.25))
    assert not tool.gain_shown(_med(8, 10, 1.0, 0.5, 0.25))
    assert not tool.gain_shown(_med(10, 10, 1.0, 0.5, 0.5))
    assert not tool.worse_beyond(_med(0, 10, 1.0, 1.25, 0.1), 0.25)
    assert tool.worse_beyond(_med(0, 10, 1.0, 1.2501, 0.1), 0.25)
    assert not tool.worse_beyond(_med(0, 10, 1.0, 0.5, 0.1), 0.25)
    # every gated end-to-end metric of the benchmark has its bound
    assert set(tool.bounds()) == set(tool.METRICS)


def test_config_subcommand_lists_agree():
    # the CI workflow's CONFIG_SUBCOMMANDS, the pair runner's and the
    # CLI's config subcommands, read without a yaml parser. Kills a
    # subcommand added to the CLI but not to the workflow.
    from activerods import cli

    path = os.path.join(ROOT, ".github", "workflows", "tests.yml")
    with open(path, encoding="utf-8") as fh:
        line = next(ln for ln in fh
                    if ln.strip().startswith("CONFIG_SUBCOMMANDS:"))
    workflow = tuple(line.split(":", 1)[1].split())
    assert workflow == tuple(_tool().CONFIG_SUBCOMMANDS)
    assert workflow == tuple(cli._CONFIG_COMMANDS)


def test_tool_imports_only_the_standard_library():
    with open(TOOL, encoding="utf-8") as fh:
        tree = ast.parse(fh.read())
    names = {alias.name.split(".")[0] for node in ast.walk(tree)
             if isinstance(node, ast.Import) for alias in node.names}
    names |= {node.module.split(".")[0] for node in ast.walk(tree)
              if isinstance(node, ast.ImportFrom) and node.level == 0}
    assert names and names <= set(sys.stdlib_module_names)
