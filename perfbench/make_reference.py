"""Regenerate perfbench/reference.json, the cli-example reference.

Runs every config subcommand once on configs/example.cfg (seeds as the
example sets them) and stores, per subcommand, the CSVs it writes and,
per CSV that does not depend on the seed, its fingerprint (row count,
SHA-256, per-column sums; see workloads.fingerprint).  Run from the root
of a checkout, only when a change is meant to alter CLI output:

    PYTHONPATH=src python3 perfbench/make_reference.py
"""

from __future__ import annotations

import contextlib
import io
import json
import os
import shutil
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)

import workloads  # noqa: E402
from metrics import SUBCOMMANDS  # noqa: E402
from activerods import cli  # noqa: E402


def main() -> int:
    root = os.getcwd()
    work = os.path.join(root, ".perfbench", "make-reference")
    cfg = os.path.join(root, "configs", "example.cfg")
    ref = {"config": "configs/example.cfg", "subcommands": {}, "csv": {}}
    try:
        for sub in SUBCOMMANDS:
            out_dir = os.path.join(work, sub)
            with contextlib.redirect_stdout(io.StringIO()):
                code = cli.main([sub, "--config", cfg, "--out", out_dir])
            if code != 0:
                print(f"error: {sub} exited {code}", file=sys.stderr)
                return 1
            names = sorted(n for n in os.listdir(out_dir)
                           if n.endswith(".csv"))
            ref["subcommands"][sub] = names
            for name in names:
                if name not in workloads.SEEDED_CSVS:
                    ref["csv"][name] = workloads.fingerprint(
                        os.path.join(out_dir, name))
    finally:
        shutil.rmtree(work, ignore_errors=True)
    with open(workloads.REFERENCE_PATH, "w", encoding="utf-8") as fh:
        json.dump(ref, fh, indent=1, sort_keys=True)
        fh.write("\n")
    print(f"wrote {os.path.relpath(workloads.REFERENCE_PATH, root)}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
