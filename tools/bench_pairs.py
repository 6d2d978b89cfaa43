"""Alternating before/after pairs of the in-repo benchmark, kept as a
BENCH_<label>.json file.

Run from the root of a git checkout:

    python3 tools/bench_pairs.py --parent REV --change REV --label NAME \\
        --pairs particle-oracle=10 --pairs cli-example=5

REV is anything `git archive` takes (a commit, a branch, or the tree of
`git write-tree` for staged work). Each side is unpacked from git into
a temporary directory, so both run from clean checkouts. For each
workload, pair k runs `python3 perfbench/run.py --workload W --seed S
--seconds T --trace 0` from each checkout's root, the parent first in
odd pairs and the change first in even ones; then each side runs once
with `--trace 1`. Each side also runs its own CLI's config subcommands
on configs/example.cfg once, and the file keeps every CSV's sha256 and
the names of the CSVs that differ between the sides.

The summary of a stored file (medians per side, the parent's
interquartile range, the pairs the change won, failed operations, and
two verdicts per metric: whether the pairs show a gain, and whether the
change is worse than the parent beyond the metric's bound in
BENCHMARK.json, which the tool reads and never writes):

    python3 tools/bench_pairs.py --summary BENCH_pr22.json

This file uses the standard library only.
"""

from __future__ import annotations

import argparse
import hashlib
import io
import json
import os
import platform
import re
import statistics
import subprocess
import sys
import tarfile
import tempfile

METRICS = ("wall_s", "setup_s", "peak_rss_mib")
BENCHMARK = os.path.join(os.path.dirname(os.path.abspath(__file__)),
                         os.pardir, "BENCHMARK.json")
SIDES = ("parent", "change")
# perfbench's report line of wall_s, e.g.
#   wall_s   0.578 s   median of 52 passes, min 0.488983, max 0.687895
_WALL_LINE = re.compile(r"^\s*wall_s\s.*median of (\d+) passes, "
                        r"min (\S+), max (\S+)$", re.M)


def checkout(rev: str, dest: str) -> None:
    """Unpack rev's files, as `git archive` gives them, into dest."""
    tar = subprocess.run(["git", "archive", "--format=tar", rev],
                         capture_output=True, check=True).stdout
    with tarfile.open(fileobj=io.BytesIO(tar)) as archive:
        archive.extractall(dest, filter="data")


def bench(root: str, workload: str, seed: int, seconds: float,
          trace: int) -> dict:
    """One perfbench run from root: its manifest line, its result line
    and, for untraced runs, the count, minimum and maximum of its wall_s
    samples."""
    cmd = [sys.executable, os.path.join("perfbench", "run.py"), "--workload",
           workload, "--seed", str(seed), "--seconds", f"{seconds:g}",
           "--trace", str(trace)]
    out = subprocess.run(cmd, cwd=root, capture_output=True, text=True,
                         check=True).stdout
    lines = out.splitlines()
    run = {"seed": seed, "seconds": seconds,
           "manifest": next(ln for ln in lines if ln.startswith("manifest ")),
           "result": lines[-1]}
    wall = _WALL_LINE.search(out)
    if not trace and wall:
        run["wall_s_samples"] = {"count": int(wall[1]),
                                 "min": float(wall[2]),
                                 "max": float(wall[3])}
    return run


def config_subcommands(root: str) -> list:
    """The config subcommands of root's own CLI, in its order."""
    env = dict(os.environ, PYTHONPATH=os.path.join(root, "src"))
    return subprocess.run(
        [sys.executable, "-c",
         "from activerods.cli import _CONFIG_COMMANDS as c; print(*c)"],
        cwd=root, env=env, capture_output=True, text=True,
        check=True).stdout.split()


def csv_hashes(root: str, out_dir: str) -> dict:
    """sha256 of every CSV that root's config subcommands write; each
    side runs the subcommands its own CLI has."""
    env = dict(os.environ, PYTHONPATH=os.path.join(root, "src"))
    for sub in config_subcommands(root):
        subprocess.run([sys.executable, "-m", "activerods.cli", sub,
                        "--config", os.path.join("configs", "example.cfg"),
                        "--out", out_dir], cwd=root, env=env,
                       capture_output=True, check=True)
    hashes = {}
    for name in sorted(os.listdir(out_dir)):
        with open(os.path.join(out_dir, name), "rb") as fh:
            hashes[name] = hashlib.sha256(fh.read()).hexdigest()
    return hashes


def _median_record(parent: list, change: list) -> dict:
    quartiles = statistics.quantiles(parent, n=4)
    p_med, c_med = statistics.median(parent), statistics.median(change)
    return {"parent_median": p_med, "change_median": c_med,
            "relative_change": c_med / p_med - 1.0,
            "parent_iqr": quartiles[2] - quartiles[0],
            "pairs_change_lower": sum(c < p for p, c in zip(parent, change)),
            "pairs": len(parent)}


def summarize(bench_file: dict) -> dict:
    """Per workload: each metric's medians per side, the parent's
    interquartile range and the pairs the change won (lower is better
    for every metric), and the failed operations per side, all read
    from the result lines of the pairs."""
    summary = {}
    for workload, rec in bench_file["workloads"].items():
        results = {side: [json.loads(pair[side]["result"])
                          for pair in rec["pairs"]] for side in SIDES}
        summary[workload] = {
            "medians": {m: _median_record(
                *([r["metrics"][m]["value"] for r in results[side]]
                  for side in SIDES)) for m in METRICS},
            "failed_total": {side: sum(r["failed"] for r in results[side])
                             for side in SIDES}}
    return summary


def bounds() -> dict:
    """Each end-to-end metric's bound from BENCHMARK.json: the fraction
    of the parent's median by which the change's may be worse."""
    with open(BENCHMARK, encoding="utf-8") as fh:
        return {m["name"]: m["bound"] for m in json.load(fh)["end_to_end"]}


def gain_shown(med: dict) -> bool:
    """A gain by the pair rule: at least 10 pairs, the change lower in at
    least nine tenths of them (ties count for neither), and the medians
    further apart than the parent's interquartile range."""
    return (med["pairs"] >= 10
            and 10 * med["pairs_change_lower"] >= 9 * med["pairs"]
            and med["parent_median"] - med["change_median"]
            > med["parent_iqr"])


def worse_beyond(med: dict, bound: float) -> bool:
    """The change's median above the parent's by more than bound, a
    fraction of the parent's median (lower is better for every metric)."""
    return med["relative_change"] > bound


def format_summary(summary: dict) -> str:
    bound = bounds()
    rows = [f"{'workload':<18}{'metric':<14}{'parent':>10}{'change':>10}"
            f"{'rel':>8}{'won':>7}{'p IQR':>9}  {'gain':<5}"
            f"{'worse':<12}failed p/c"]
    for workload, rec in summary.items():
        failed = "{parent}/{change}".format(**rec["failed_total"])
        for metric, med in rec["medians"].items():
            worse = "yes" if worse_beyond(med, bound[metric]) else "no"
            rows.append(
                f"{workload:<18}{metric:<14}{med['parent_median']:>10.4g}"
                f"{med['change_median']:>10.4g}"
                f"{med['relative_change']:>+8.1%}"
                f"{med['pairs_change_lower']:>4}/{med['pairs']:<2}"
                f"{med['parent_iqr']:>9.3g}  "
                f"{'yes' if gain_shown(med) else 'no':<5}"
                f"{f'{worse} (>{bound[metric]:.0%})':<12}{failed}")
    return "\n".join(rows)


def _rev_id(rev: str) -> str:
    return subprocess.run(["git", "rev-parse", rev], capture_output=True,
                          text=True, check=True).stdout.strip()


def run_pairs(args) -> dict:
    revs = {"parent": _rev_id(args.parent), "change": _rev_id(args.change)}
    pairs = dict(spec.split("=") for spec in args.pairs)
    out = {"description": (
               "Alternating parent/change pairs of the in-repo benchmark, "
               "one git-archive checkout per side, run one after the other "
               "on one host. Odd pairs ran the parent first, even pairs the "
               "change first. The checkouts hold no .git, so each manifest "
               "reads git_commit unknown; the revisions are recorded here."),
           "command": (f"python3 perfbench/run.py --workload <workload> "
                       f"--seed {args.seed} --seconds {args.seconds:g} "
                       f"--trace 0"),
           "host": (f"{os.cpu_count()}-CPU {platform.machine()}, Python "
                    f"{platform.python_version()}"),
           "parent": revs["parent"], "change": revs["change"],
           "workloads": {},
           "trace": {"command": (f"python3 perfbench/run.py --workload "
                                 f"<workload> --seed {args.seed} --seconds "
                                 f"{args.seconds:g} --trace 1"),
                     "runs": []}}
    with tempfile.TemporaryDirectory() as tmp:
        roots = {side: os.path.join(tmp, side) for side in SIDES}
        for side in SIDES:
            checkout(revs[side], roots[side])
        for workload, count in pairs.items():
            runs = []
            for k in range(1, int(count) + 1):
                order = SIDES if k % 2 else SIDES[::-1]
                pair = {"pair": k, "first": order[0]}
                for side in order:
                    pair[side] = {"commit": revs[side], **bench(
                        roots[side], workload, args.seed, args.seconds, 0)}
                runs.append(pair)
                print(f"{workload} pair {k} done", file=sys.stderr)
            out["workloads"][workload] = {"pairs": runs}
            for side in SIDES:
                out["trace"]["runs"].append(
                    {"workload": workload, "side": side,
                     "commit": revs[side], **bench(
                         roots[side], workload, args.seed, args.seconds, 1)})
        csv = {side: csv_hashes(roots[side], os.path.join(tmp, side + "-csv"))
               for side in SIDES}
    for workload, rec in summarize(out).items():
        out["workloads"][workload].update(rec)
    out["csv"] = {**csv, "differ": sorted(
        name for name in set(csv["parent"]) | set(csv["change"])
        if csv["parent"].get(name) != csv["change"].get(name))}
    return out


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(
        description="before/after benchmark pairs; run from a git checkout")
    ap.add_argument("--summary", metavar="BENCH_FILE",
                    help="print the summary of a stored BENCH file and stop")
    ap.add_argument("--parent")
    ap.add_argument("--change")
    ap.add_argument("--label")
    ap.add_argument("--pairs", action="append", default=[],
                    metavar="WORKLOAD=K", help="K pairs of WORKLOAD")
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=30.0)
    args = ap.parse_args(argv)
    if args.summary:
        with open(args.summary, encoding="utf-8") as fh:
            print(format_summary(summarize(json.load(fh))))
        return 0
    if not (args.parent and args.change and args.label and args.pairs):
        ap.error("--parent, --change, --label and --pairs are required")
    for spec in args.pairs:
        workload, _, count = spec.partition("=")
        if not count.isdigit() or int(count) < 2:
            ap.error(f"--pairs {spec}: give WORKLOAD=K with K >= 2, so that "
                     "the parent's runs have quartiles")
    out = run_pairs(args)
    path = f"BENCH_{args.label}.json"
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(out, fh, indent=1)
        fh.write("\n")
    print(format_summary(summarize(out)))
    print(f"wrote {path}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
