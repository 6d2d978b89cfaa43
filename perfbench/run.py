"""activerods benchmark: end-to-end and per-layer metrics for three workloads.

Run from the root of a checkout:

    python3 perfbench/run.py --workload acceptance-grid --seed 1 \\
        --seconds 30 --trace 0

Workloads: acceptance-grid, particle-oracle, cli-example, or ``all`` for
the three in turn.  ``--trace 0`` reports the end-to-end metrics;
``--trace 1`` reports the per-layer metrics from a traced run.  The last
line of standard output is one JSON object with the keys ``correct``,
``attempted``, ``failed`` and ``metrics``.  See perfbench/README.md.

This file uses the standard library only: the workload runs in child
processes (worker.py), so that set-up can be timed from a fresh
interpreter several times per run.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
import threading
import time

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)

from metrics import END_TO_END, PER_LAYER, REPORTED  # noqa: E402

WORKLOAD_NAMES = ("acceptance-grid", "particle-oracle", "cli-example")
# Fresh interpreters timed per run; the median is setup_s.
SETUP_SAMPLES = 7
# BLAS / OpenMP threads per process.  One thread keeps the figures steady
# on a shared host; no hot path of the workloads is a BLAS call.
THREADS = 1
THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS",
               "NUMEXPR_NUM_THREADS")
# Every child must be done by then; the whole run must end within 180 s.
RUN_DEADLINE_S = 170.0


class BenchError(Exception):
    pass


def child_env(root: str) -> dict:
    env = dict(os.environ)
    src = os.path.join(root, "src")
    env["PYTHONPATH"] = src + (os.pathsep + env["PYTHONPATH"]
                               if env.get("PYTHONPATH") else "")
    for var in THREAD_VARS:
        env[var] = str(THREADS)
    return env


def _lscpu_caches() -> dict:
    try:
        out = subprocess.run(["lscpu"], capture_output=True, text=True,
                             timeout=10).stdout
    except (OSError, subprocess.SubprocessError):
        return {}
    caches = {}
    for line in out.splitlines():
        key, _, val = line.partition(":")
        if key.strip() in ("L2 cache", "L3 cache"):
            caches[key.strip().split()[0]] = val.strip()
    return caches


def _git_commit(root: str) -> str:
    """HEAD of the checkout, or "unknown" when it is not a git work tree
    of its own."""
    try:
        out = subprocess.run(["git", "rev-parse", "--show-toplevel", "HEAD"],
                             cwd=root, capture_output=True, text=True,
                             timeout=10)
    except (OSError, subprocess.SubprocessError):
        return "unknown"
    lines = out.stdout.split()
    if out.returncode != 0 or len(lines) != 2 or \
            os.path.realpath(lines[0]) != os.path.realpath(root):
        return "unknown"
    return lines[1]


def host_manifest(root: str) -> dict:
    return {
        "git_commit": _git_commit(root),
        "python": platform.python_version(),
        "nproc": os.cpu_count(),
        "affinity_cpus": len(os.sched_getaffinity(0))
        if hasattr(os, "sched_getaffinity") else None,
        "caches": _lscpu_caches(),
        "thread_env": {v: str(THREADS) for v in THREAD_VARS},
    }


def _remaining(deadline: float) -> float:
    left = deadline - time.monotonic()
    if left <= 0:
        raise BenchError("run exceeded its time limit")
    return left


def spawn(root: str, args, role: str, deadline: float):
    """Start a worker; return (seconds until it printed READY, result or
    None).  The worker is always waited for, and killed if it overruns."""
    cmd = [sys.executable, os.path.join(HERE, "worker.py"),
           "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace),
           "--size", args.size, "--role", role]
    limit = _remaining(deadline)
    t0 = time.perf_counter()
    proc = subprocess.Popen(cmd, cwd=root, env=child_env(root),
                            stdout=subprocess.PIPE, text=True)
    watchdog = threading.Timer(limit, proc.kill)
    watchdog.start()
    try:
        ready = proc.stdout.readline()
        setup_s = time.perf_counter() - t0
        rest, _ = proc.communicate()
    finally:
        watchdog.cancel()
        if proc.poll() is None:
            proc.kill()
        proc.wait()
    if ready.strip() != "READY" or proc.returncode != 0:
        raise BenchError(f"{role} worker for {args.workload} failed "
                         f"(exit {proc.returncode}; -9 is the time limit)")
    result = None
    for line in rest.splitlines():
        if line.startswith("RESULT "):
            result = json.loads(line[len("RESULT "):])
    if role == "measure" and result is None:
        raise BenchError(f"worker for {args.workload} printed no result")
    return setup_s, result


def _median(xs):
    return statistics.median(xs) if xs else 0.0


def summarize(setup_samples: list, res: dict) -> dict:
    passes = res["passes"]
    plain = [p for p in passes if not p["traced"]]
    traced = [p for p in passes if p["traced"]]
    wall = _median([p["wall_s"] for p in plain])
    attempted = sum(p["attempted"] for p in passes)
    failed = sum(p["failed"] for p in passes)
    cells = _median([p["cell_updates"] for p in plain])
    psteps = _median([p["particle_steps"] for p in plain])
    e2e = {"wall_s": wall, "setup_s": _median(setup_samples),
           "peak_rss_mib": res["peak_rss_mib"]}
    reported = {"cell_updates_per_s": cells / wall if cells else None,
                "particle_steps_per_s": psteps / wall if psteps else None,
                "failed_ratio": failed / attempted if attempted else 1.0}
    layers = {}
    if traced:
        for name, _, _ in PER_LAYER:
            if name in ("process.cpu_s", "trace.overhead_s"):
                continue
            layers[name] = _median([p["layers"][name] for p in traced])
        layers["process.cpu_s"] = _median([p["cpu_s"] for p in plain])
        layers["trace.overhead_s"] = \
            _median([p["wall_s"] for p in traced]) - wall
    problems = [q for p in passes for q in p["problems"]]
    problems += [q for p in traced for q in p.get("tree_problems", [])]
    info = {}
    for p in plain:
        for key, val in p["info"].items():
            info.setdefault(key, []).append(val)
    return {"e2e": e2e, "reported": reported, "layers": layers,
            "attempted": attempted, "failed": failed, "problems": problems,
            "passes": len(plain), "traced_passes": len(traced),
            "wall_samples": [p["wall_s"] for p in plain],
            "setup_samples": setup_samples, "info": info}


def run_workload(root: str, args) -> dict:
    deadline = time.monotonic() + RUN_DEADLINE_S
    setup_samples = []
    for _ in range(SETUP_SAMPLES - 1):
        setup_samples.append(spawn(root, args, "setup", deadline)[0])
    setup_s, res = spawn(root, args, "measure", deadline)
    setup_samples.append(setup_s)
    summary = summarize(setup_samples, res)
    manifest = host_manifest(root)
    manifest.update(workload=args.workload, seed=args.seed,
                    seconds=args.seconds, trace=args.trace, size=args.size,
                    passes=summary["passes"],
                    traced_passes=summary["traced_passes"],
                    setup_samples=len(setup_samples),
                    versions=res["versions"], inputs=res["workload"],
                    trace_file=res.get("trace_file"),
                    counter_errors=res["counter_errors"])
    summary["manifest"] = manifest
    return summary


def _fmt(val) -> str:
    return "n/a" if val is None else f"{val:.6g}"


def report(name: str, s: dict, trace: int):
    print(f"manifest {json.dumps(s['manifest'], sort_keys=True)}")
    print(f"== {name}: {s['passes']} timed passes"
          + (f", {s['traced_passes']} traced" if trace else ""))
    units = {n: u for n, u, _ in END_TO_END + REPORTED + PER_LAYER}
    walls = s["wall_samples"]
    print(f"  {'wall_s':<42} {_fmt(s['e2e']['wall_s']):>12} s   median of "
          f"{len(walls)} passes, min {_fmt(min(walls))}, "
          f"max {_fmt(max(walls))}")
    print(f"  {'setup_s':<42} {_fmt(s['e2e']['setup_s']):>12} s   median of "
          f"{len(s['setup_samples'])} fresh interpreters")
    print(f"  {'peak_rss_mib':<42} {_fmt(s['e2e']['peak_rss_mib']):>12} MiB")
    for key, val in s["reported"].items():
        print(f"  {key:<42} {_fmt(val):>12} {units[key]}")
    print(f"  {'attempted / failed':<42} {s['attempted']:>12} / {s['failed']}")
    for key, vals in sorted(s["info"].items()):
        print(f"  {key:<42} {_fmt(_median(vals)):>12}   median over passes")
    for key, val in s["layers"].items():
        print(f"  {key:<42} {_fmt(val):>12} {units[key]}")
    for p in s["problems"][:20]:
        print(f"  FAILED {p}")


def metrics_json(s: dict, trace: int) -> dict:
    spec = PER_LAYER if trace else END_TO_END
    vals = s["layers"] if trace else s["e2e"]
    return {name: {"value": vals[name], "unit": unit}
            for name, unit, _ in spec}


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(
        description="activerods benchmark; run from a checkout's root")
    ap.add_argument("--workload", required=True,
                    choices=WORKLOAD_NAMES + ("all",))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--size", choices=("full", "tiny"), default="full",
                    help="tiny: small inputs, for the self-test only")
    args = ap.parse_args(argv)

    root = os.getcwd()
    for need in (os.path.join("src", "activerods", "__init__.py"),
                 os.path.join("configs", "example.cfg")):
        if not os.path.isfile(os.path.join(root, need)):
            print(f"error: {need} not found; run from the root of an "
                  "activerods checkout", file=sys.stderr)
            return 2

    names = WORKLOAD_NAMES if args.workload == "all" else (args.workload,)
    summaries = {}
    try:
        for name in names:
            args.workload = name
            summaries[name] = run_workload(root, args)
            report(name, summaries[name], args.trace)
    except BenchError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    if len(names) == 1:
        s = summaries[names[0]]
        metrics = metrics_json(s, args.trace)
    else:
        metrics = {f"{n}.{k}": v for n, s in summaries.items()
                   for k, v in metrics_json(s, args.trace).items()}
    failed = sum(s["failed"] for s in summaries.values())
    attempted = sum(s["attempted"] for s in summaries.values())
    print(json.dumps({"correct": failed == 0, "attempted": attempted,
                      "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
