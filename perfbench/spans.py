"""Span recorder that wraps the public functions of the activerods modules.

Spans are recorded from the benchmark's side of each call: every public
function defined in an ``activerods`` module is replaced, in every
``activerods.*`` module that binds its name, by a wrapper that opens a
span named ``<module>.<function>`` (the module that defines it) and
closes it when the call returns.  A span is ``[name, start, end, parent,
counts]``; spans live in memory and are written out by the caller.

Work counts are derived from the call's arguments and result through the
public API only, so the benchmark keeps working when the program's
internals are refactored.
"""

from __future__ import annotations

import functools
import inspect
import math
import os
import sys
import time
from contextlib import contextmanager

import numpy as np

_PACKAGE = "activerods"


@functools.lru_cache(maxsize=None)
def _signature(fn):
    return inspect.signature(fn)


def _bound(fn, args, kwargs):
    return _signature(fn).bind(*args, **kwargs).arguments


def _cell_updates(fn, args, kwargs, out, mods):
    """n_y * n_phi times the steps of the snapshot march: ceil(span / dt)
    per segment, the plan run_full and run_limit follow."""
    a = _bound(fn, args, kwargs)
    field = a["f0"] if "f0" in a else a["s0"].bulk
    dt = mods["full_solver"].resolve_dt(a["params"], field.phi_grid, a["cfg"])
    steps, t = 0, 0.0
    for t_next in sorted(set(float(x) for x in a["snapshot_times"])):
        if t_next - t > 1e-14:
            steps += max(1, math.ceil((t_next - t) / dt - 1e-12))
            t = t_next
    return {"cell_updates": field.values.size * steps}


def _phi_subcycles(fn, args, kwargs, out, mods):
    # The angular CFL sub-cycle count the phi_substep docstring promises.
    a = _bound(fn, args, kwargs)
    h, dt, D = a["h"], a["dt"], a["D"]
    safety = a.get("safety", 0.9)
    denom = float(np.max(np.abs(a["Phi_face"]))) / h + 2.0 * D / h ** 2
    if denom <= 0.0 or dt <= 0.0:
        return {"subcycles": 0}
    return {"subcycles": max(1, math.ceil(dt / (safety / denom) - 1e-12))}


def _resolvent_unknowns(fn, args, kwargs, out, mods):
    return {"unknowns": _bound(fn, args, kwargs)["p"].rhs.values.size}


def _em_particle_steps(fn, args, kwargs, out, mods):
    return {"particle_steps": _bound(fn, args, kwargs)["e"].n}


def _csv_bytes(fn, args, kwargs, out, mods):
    return {"bytes": os.path.getsize(out)}


def _rows(fn, args, kwargs, out, mods):
    return {"rows": len(out)}


COUNTERS = {
    "full_solver.run_full": _cell_updates,
    "limit_solver.run_limit": _cell_updates,
    "full_solver.phi_substep": _phi_subcycles,
    "limit_solver.resolvent_solve": _resolvent_unknowns,
    "particles.em_step": _em_particle_steps,
    "reports.write_csv": _csv_bytes,
    "reports.field_rows": _rows,
}


def package_modules():
    """Every imported ``activerods.*`` module, keyed by its short name."""
    return {name.split(".")[-1]: mod for name, mod in sys.modules.items()
            if name.startswith(_PACKAGE + ".") and mod is not None}


def public_functions(mods):
    """(module, attribute, function, span name) for every public function
    of the package bound in any package module."""
    out = []
    for mod in mods.values():
        for attr, obj in vars(mod).items():
            if attr.startswith("_") or not inspect.isfunction(obj):
                continue
            home = getattr(obj, "__module__", "") or ""
            if not home.startswith(_PACKAGE + "."):
                continue
            out.append((mod, attr, obj,
                        f"{home.split('.')[-1]}.{obj.__name__}"))
    return out


class Tracer:
    """In-memory span recorder.  Single-threaded: children nest strictly
    inside their parent, so a span's self time is its duration minus the
    durations of its direct children."""

    def __init__(self):
        self.spans = []
        self._stack = []
        self._paused = 0
        self._patched = []
        self.counter_errors = {}

    # -- spans ------------------------------------------------------------

    def open(self, name: str) -> int:
        idx = len(self.spans)
        parent = self._stack[-1] if self._stack else -1
        self.spans.append([name, time.perf_counter(), 0.0, parent, None])
        self._stack.append(idx)
        return idx

    def close(self, idx: int):
        self.spans[idx][2] = time.perf_counter()
        self._stack.pop()

    @contextmanager
    def span(self, name: str):
        idx = self.open(name)
        try:
            yield idx
        finally:
            self.close(idx)

    @contextmanager
    def paused(self):
        self._paused += 1
        try:
            yield
        finally:
            self._paused -= 1

    def add_counts(self, idx: int, counts: dict):
        rec = self.spans[idx]
        rec[4] = dict(counts) if rec[4] is None else \
            {k: rec[4].get(k, 0) + v for k, v in counts.items()}

    # -- wrapping ---------------------------------------------------------

    def _wrap(self, fn, name, mods):
        counter = COUNTERS.get(name)
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if tracer._paused:
                return fn(*args, **kwargs)
            idx = tracer.open(name)
            try:
                out = fn(*args, **kwargs)
            finally:
                tracer.close(idx)
            if counter is not None:
                with tracer.paused():
                    try:
                        tracer.add_counts(idx, counter(fn, args, kwargs,
                                                       out, mods))
                    except (TypeError, KeyError, AttributeError,
                            OSError) as exc:
                        tracer.counter_errors[name] = repr(exc)
            return out

        return traced

    def install(self, only=None):
        """Wrap every public package function where it is bound, or only
        those whose span name is in ``only``."""
        if self._patched:
            return
        mods = package_modules()
        wrappers = {}
        for mod, attr, fn, name in public_functions(mods):
            if only is not None and name not in only:
                continue
            if fn not in wrappers:
                wrappers[fn] = self._wrap(fn, name, mods)
            self._patched.append((mod, attr, fn))
            setattr(mod, attr, wrappers[fn])

    def uninstall(self):
        for mod, attr, fn in reversed(self._patched):
            setattr(mod, attr, fn)
        self._patched = []


class NullTracer:
    """Stands in for Tracer when tracing is off."""

    @contextmanager
    def span(self, name: str):
        yield -1


def check_tree(spans, start: int = 0) -> list:
    """Problems with the span tree from index ``start`` on: unclosed
    spans, children outside their parent, negative self time."""
    problems = []
    child_sum = {}
    for k in range(start, len(spans)):
        name, t0, t1, parent, _ = spans[k]
        if t1 < t0:
            problems.append(f"span {k} ({name}) ends before it starts")
        if parent >= 0:
            _, p0, p1, _, _ = spans[parent]
            if t0 < p0 or t1 > p1:
                problems.append(f"span {k} ({name}) lies outside its parent")
            child_sum[parent] = child_sum.get(parent, 0.0) + (t1 - t0)
    for k, covered in child_sum.items():
        _, t0, t1, _, _ = spans[k]
        if (t1 - t0) - covered < -1e-9:
            problems.append(f"span {k} ({spans[k][0]}) has negative self time")
    return problems


def aggregate(spans, start: int = 0) -> dict:
    """Per span name: total time ``s`` (outermost spans of that name
    only, so recursion is not counted twice), ``self_s``, ``calls`` and
    the summed work counts, over spans from index ``start`` on."""
    child_time = {}
    for k in range(start, len(spans)):
        parent = spans[k][3]
        if parent >= start:
            child_time[parent] = child_time.get(parent, 0.0) + \
                spans[k][2] - spans[k][1]
    stats = {}
    for k in range(start, len(spans)):
        name, t0, t1, parent, counts = spans[k]
        st = stats.setdefault(name, {"s": 0.0, "self_s": 0.0, "calls": 0})
        dur = t1 - t0
        st["calls"] += 1
        st["self_s"] += dur - child_time.get(k, 0.0)
        p = parent
        while p >= start and spans[p][0] != name:
            p = spans[p][3]
        if p < start:
            st["s"] += dur
        for key, val in (counts or {}).items():
            st[key] = st.get(key, 0) + val
    return stats


def count_inside(spans, name: str, ancestor: str, start: int = 0) -> int:
    """Number of ``name`` spans that have an ``ancestor`` span above them."""
    n = 0
    for k in range(start, len(spans)):
        if spans[k][0] != name:
            continue
        p = spans[k][3]
        while p >= start:
            if spans[p][0] == ancestor:
                n += 1
                break
            p = spans[p][3]
    return n
