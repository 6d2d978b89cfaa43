"""One benchmark process: set up a workload, then optionally measure it.

Started by run.py with PYTHONPATH pointing at the checkout's ``src``.
It prints ``READY`` once set-up is done (run.py times set-up from the
process start to that line).  With ``--role setup`` it exits there; with
``--role measure`` it runs timed passes for ``--seconds`` and prints one
``RESULT <json>`` line.

With ``--trace 0`` every pass runs with the package unwrapped except the
two grid-solver entry points and the particle step, which count work
(a handful of calls per pass).  With ``--trace 1`` passes alternate
between that state and full tracing, so trace overhead is measured on
neighbouring passes.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import statistics
import sys
import time

import spans
import workloads
from metrics import layer_values

WORK_COUNTERS = {"full_solver.run_full", "limit_solver.run_limit",
                 "particles.em_step"}


def _blas_version() -> str:
    import numpy as np
    try:
        deps = np.show_config(mode="dicts")["Build Dependencies"]
        return f"{deps['blas']['name']} {deps['blas']['version']}"
    except (TypeError, KeyError, AttributeError):
        return "unknown"


def versions() -> dict:
    import numpy
    import scipy
    import activerods
    return {"python": platform.python_version(), "numpy": numpy.__version__,
            "scipy": scipy.__version__, "blas": _blas_version(),
            "activerods": getattr(activerods, "__version__", "unknown")}


def _work_counts(stats: dict) -> dict:
    def count(span, key):
        return stats.get(span, {}).get(key, 0)
    return {"cell_updates": count("full_solver.run_full", "cell_updates")
            + count("limit_solver.run_limit", "cell_updates"),
            "particle_steps": count("particles.em_step", "particle_steps")}


def peak_rss_mib() -> float:
    """Peak resident memory of this process plus that of its largest
    waited-for child (ru_maxrss is in KiB on Linux)."""
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    child = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return (own + child) / 1024.0


def cpu_seconds() -> float:
    """CPU time of this process and of its waited-for children."""
    t = os.times()
    return t.user + t.system + t.children_user + t.children_system


def run_pass(wl, traced: bool, tracer, counter) -> dict:
    tr = tracer if traced else counter
    tr.install(None if traced else WORK_COUNTERS)
    first = len(tr.spans)
    try:
        c0, w0 = cpu_seconds(), time.perf_counter()
        raw = wl.execute(tr if traced else spans.NullTracer())
        w1, c1 = time.perf_counter(), cpu_seconds()
    finally:
        tr.uninstall()
    outcome = wl.check(raw)
    del raw
    stats = spans.aggregate(tr.spans, first)
    rec = {"traced": traced, "wall_s": w1 - w0, "cpu_s": c1 - c0,
           "attempted": outcome.attempted, "failed": outcome.failed,
           "problems": outcome.problems, "info": outcome.info}
    rec.update(_work_counts(stats))
    if traced:
        rec["layers"] = layer_values(
            stats, lambda n, a: spans.count_inside(tr.spans, n, a, first))
        rec["tree_problems"] = spans.check_tree(tr.spans, first)[:10]
    else:
        del counter.spans[first:]
    return rec


def measure(wl, seconds: float, trace: bool):
    """Closed loop: the next pass starts when the last one is checked.
    Stops before a pass that would end after ``seconds``, once at least
    one pass of each needed kind is done."""
    tracer, counter = spans.Tracer(), spans.Tracer()
    passes, durations = [], []
    start = time.perf_counter()
    while True:
        t0 = time.perf_counter()
        traced = trace and len(passes) % 2 == 1
        passes.append(run_pass(wl, traced, tracer, counter))
        durations.append(time.perf_counter() - t0)
        kinds = {p["traced"] for p in passes}
        enough = kinds == ({False, True} if trace else {False})
        elapsed = time.perf_counter() - start
        if enough and elapsed + statistics.median(durations) > seconds:
            break
    return passes, tracer, counter


def write_trace(tracer, root: str, name: str, seed: int) -> str:
    names = sorted({s[0] for s in tracer.spans})
    index = {n: k for k, n in enumerate(names)}
    path = os.path.join(root, ".perfbench",
                        f"trace-{name}-seed{seed}-{os.getpid()}.json")
    os.makedirs(os.path.dirname(path), exist_ok=True)
    with open(path, "w", encoding="utf-8") as fh:
        json.dump({"fields": ["name", "start", "end", "parent", "counts"],
                   "names": names,
                   "spans": [[index[s[0]], s[1], s[2], s[3], s[4]]
                             for s in tracer.spans]}, fh)
    return path


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True,
                    choices=sorted(workloads.WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, default=10.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--size", choices=("full", "tiny"), default="full")
    ap.add_argument("--role", choices=("setup", "measure"), required=True)
    args = ap.parse_args(argv)

    root = os.getcwd()
    wl = workloads.WORKLOADS[args.workload](args.seed, root,
                                            tiny=args.size == "tiny")
    try:
        wl.setup()
        print("READY", flush=True)
        if args.role == "setup":
            return 0
        passes, tracer, counter = measure(wl, args.seconds,
                                          bool(args.trace))
        result = {
            "passes": passes,
            "peak_rss_mib": peak_rss_mib(),
            "versions": versions(),
            "workload": wl.manifest(),
            "counter_errors": {**counter.counter_errors,
                               **tracer.counter_errors},
        }
        if args.trace:
            result["trace_file"] = os.path.relpath(
                write_trace(tracer, root, args.workload, args.seed), root)
        print("RESULT " + json.dumps(result), flush=True)
        return 0
    finally:
        close = getattr(wl, "close", None)
        if close is not None:
            close()


if __name__ == "__main__":
    sys.exit(main())
