"""The benchmark's three workloads.

Each workload is a closed loop driven by one process: ``setup`` prepares
the inputs from the workload seed, ``execute`` makes one timed pass of
calls into activerods and returns its raw outputs, and ``check`` judges
those outputs outside the timed region.  Every call into the package goes
through a module attribute (``particles.run_particles``, not a name
imported into this file), so that the span wrappers see it.
"""

from __future__ import annotations

import contextlib
import csv
import hashlib
import io
import json
import os
import random
import re
import shutil
import traceback

import numpy as np

import activerods  # noqa: F401  (imports every submodule)
from activerods import (acceptance, cli, coefficients, config, full_solver,
                        grids, particles)

from metrics import CRITERIA, SUBCOMMANDS
from spans import package_modules

HERE = os.path.dirname(os.path.abspath(__file__))
REFERENCE_PATH = os.path.join(HERE, "reference.json")


class Outcome:
    """Checks of one pass: each attempted operation passes or fails."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.problems = []
        self.info = {}

    def record(self, what: str, problems: list):
        self.attempted += 1
        if problems:
            self.failed += 1
            self.problems.extend(f"{what}: {p}" for p in problems)


def attempt(fn, *args, **kwargs):
    """(result, None), or (None, traceback text) if the call raised: an
    operation that fails is counted as failed and never stops the run."""
    try:
        return fn(*args, **kwargs), None
    except Exception:
        return None, traceback.format_exc(limit=-3)


def _c13_params(T: float):
    """Criterion 13's model: shifted-sine speed, paper shear, D = 0.2."""
    return coefficients.ModelParams(
        epsilon=0.05, D=0.2, T=T,
        V=coefficients.AngularCoefficient("shifted_sine",
                                          {"g0": 1.0, "a": 0.5}),
        Phi=coefficients.AngularCoefficient("paper_shear", {"gamma": 0.5}))


def _c13_grid_run(T: float, y_max: float = 8.0):
    """Criterion 13's 256 x 128 run_full from the bulk-exponential start
    to T; returns (f0, f_T)."""
    params = _c13_params(T)
    eps = params.epsilon
    f0 = config.bulk_exp_field(grids.build_y_grid(y_max, 256, 8 * eps, 32),
                               grids.build_phi_grid(128))
    f_T = full_solver.run_full(f0, params, full_solver.FullSolverConfig(),
                               [T])[-1][1]
    return f0, f_T


def _clear_caches():
    """Drop every lru_cache in the package, so a pass pays for the heavy
    solves that each check-all user pays for."""
    for mod in package_modules().values():
        for obj in list(vars(mod).values()):
            clear = getattr(obj, "cache_clear", None)
            if callable(clear):
                clear()


# -- acceptance-grid ---------------------------------------------------------


class AcceptanceGrid:
    """Criteria 1-12 and 14 plus the 256 x 128 grid reference of
    criterion 13, each pass from cold caches.  Deterministic: the seed
    changes nothing, because no grid criterion draws random numbers
    from outside the program."""

    name = "acceptance-grid"

    def __init__(self, seed: int, root: str, tiny: bool = False):
        self.seed = seed
        self.criteria = (1, 3, 9) if tiny else CRITERIA

    def setup(self):
        pass

    def manifest(self) -> dict:
        return {"criteria": list(self.criteria), "deterministic": True}

    def execute(self, tracer):
        _clear_caches()
        results = []
        for cid in self.criteria:
            with tracer.span(f"acceptance.run_criterion.c{cid:02d}"):
                results.append((cid, *attempt(acceptance.run_criterion,
                                              cid)))
        with tracer.span("workload.c13_reference"):
            reference = attempt(_c13_grid_run, 0.5)
        return results, reference

    def check(self, raw) -> Outcome:
        results, (fields, err) = raw
        out = Outcome()
        for cid, res, exc in results:
            out.record(f"criterion {cid}",
                       [exc] if exc else [] if res.passed else [res.line()])
        if err:
            out.record("criterion 13 grid reference", [err])
            return out
        f0, f_T = fields
        m0 = float(np.sum(f0.values * f0.y_grid.widths[:, None]))
        mT = float(np.sum(f_T.values * f_T.y_grid.widths[:, None]))
        problems = []
        if abs(mT - m0) > 1e-8 * abs(m0):
            problems.append(f"mass drift {abs(mT - m0) / abs(m0):.3e}")
        if f_T.values.min() < -1e-12 * np.abs(f_T.values).max():
            problems.append(f"negative cell value {f_T.values.min():.3e}")
        out.record("criterion 13 grid reference", problems)
        return out


# -- particle-oracle ---------------------------------------------------------


class ParticleOracle:
    """The particle half of criterion 13 at its pinned N = 1,000,000 and
    dt = 1e-3, for a fixed number of steps; the grid reference at the
    same final time is built in set-up."""

    name = "particle-oracle"
    N = 1_000_000
    DT = 1e-3
    STEPS = 25
    Y_MAX = 8.0
    TV_TOL = 0.05   # criterion 13's bound

    def __init__(self, seed: int, root: str, tiny: bool = False):
        self.seed = seed
        if tiny:
            self.N, self.STEPS = 400_000, 2
        self.T = self.STEPS * self.DT
        self.params = _c13_params(self.T)

    def setup(self):
        _, f_T = _c13_grid_run(self.T, self.Y_MAX)
        eps = self.params.epsilon
        self.coarse_y = grids.build_y_grid(self.Y_MAX, 64, 8 * eps, 32)
        self.coarse_phi = grids.build_phi_grid(32)
        vals = grids.aggregate_phi(f_T.values, 4)
        vals = grids.overlap_average_y(f_T.y_grid.faces, vals,
                                       self.coarse_y.faces)
        vol = self.coarse_y.widths[:, None] * self.coarse_phi.h
        self.reference = grids.PhaseField(vals / np.sum(vals * vol),
                                          self.coarse_y, self.coarse_phi)

    def manifest(self) -> dict:
        return {"particles": self.N, "particle_dt": self.DT,
                "steps": self.STEPS, "particle_seed": self.seed,
                "particle_array_bytes": 8 * self.N}

    def execute(self, tracer):
        return attempt(self._oracle)

    def _oracle(self):
        ens = particles.sample_initial(self.N, self.seed, self.Y_MAX)
        ens = particles.run_particles(ens, self.params, self.DT, self.T,
                                      y_max=self.Y_MAX)
        hist = particles.histogram(ens, self.coarse_y, self.coarse_phi)
        return ens, particles.tv_distance(hist, self.reference)

    def check(self, raw) -> Outcome:
        result, err = raw
        out = Outcome()
        if err:
            out.record("particle run", [err])
            return out
        ens, tv = result
        problems = []
        if ens.step != self.STEPS:
            problems.append(f"ensemble made {ens.step} steps, "
                            f"expected {self.STEPS}")
        if not tv <= self.TV_TOL:
            problems.append(f"TV distance {tv:.4f} > {self.TV_TOL}")
        out.record("particle run", problems)
        out.info["tv_distance"] = tv
        return out


# -- cli-example -------------------------------------------------------------


SEEDED_CSVS = ("particles.csv",)
# The 200k-particle histogram against the run-full snapshot at T on the
# example's 48 x 16 grid; the gap is the coarse grid's discretization
# error (0.043, the same to three digits for every seed tried).
CLI_TV_TOL = 0.06


def read_csv(path: str):
    with open(path, newline="", encoding="utf-8") as fh:
        rows = list(csv.reader(fh))
    return rows[0], rows[1:]


def fingerprint(path: str) -> dict:
    """Row count, SHA-256 and per-column sums of a CSV.  A numeric column
    keeps [sum, sum of |x|, position-weighted sum] over its finite cells
    and its count of non-finite cells; any other column keeps a hash of
    its cells."""
    with open(path, "rb") as fh:
        sha = hashlib.sha256(fh.read()).hexdigest()
    header, rows = read_csv(path)
    cols = {}
    for j, name in enumerate(header):
        cells = [r[j] for r in rows]
        try:
            x = np.array([float(c) for c in cells])
        except ValueError:
            cols[name] = hashlib.sha256(
                "\n".join(cells).encode()).hexdigest()
            continue
        finite = np.isfinite(x)
        w = 1.0 + (np.arange(len(x)) % 7) / 7.0
        xf = np.where(finite, x, 0.0)
        cols[name] = [float(xf.sum()), float(np.abs(xf).sum()),
                      float((w * xf).sum()), int((~finite).sum())]
    return {"rows": len(rows), "sha256": sha, "columns": cols}


def compare_fingerprints(got: dict, ref: dict, rtol: float = 1e-9) -> list:
    """Value mismatches between two fingerprints (bytes are not compared)."""
    problems = []
    if got["rows"] != ref["rows"]:
        return [f"{got['rows']} rows, reference has {ref['rows']}"]
    if set(got["columns"]) != set(ref["columns"]):
        return [f"columns {sorted(got['columns'])}, "
                f"reference has {sorted(ref['columns'])}"]
    for name, r in ref["columns"].items():
        g = got["columns"][name]
        if isinstance(r, str) or isinstance(g, str):
            if g != r:
                problems.append(f"column {name} differs")
            continue
        scale = max(r[1], 1e-300)
        if g[3] != r[3] or any(abs(a - b) > rtol * scale
                               for a, b in zip(g[:3], r[:3])):
            problems.append(f"column {name} sums {g[:3]} vs {r[:3]}")
    return problems


def write_example_config(root: str, dest: str, seed: int) -> str:
    """Copy of configs/example.cfg whose ``seeds`` are drawn from the
    workload seed; every other key is left as the example sets it."""
    with open(os.path.join(root, "configs", "example.cfg"),
              encoding="utf-8") as fh:
        text = fh.read()
    rng = random.Random(seed)
    seeds = " ".join(str(rng.randrange(1, 2 ** 31)) for _ in range(3))
    text, n = re.subn(r"(?m)^seeds\s*=.*$", f"seeds = {seeds}", text)
    if n != 1:
        raise RuntimeError("configs/example.cfg has no single seeds line")
    os.makedirs(os.path.dirname(dest), exist_ok=True)
    with open(dest, "w", encoding="utf-8") as fh:
        fh.write(text)
    return dest


def load_reference() -> dict:
    with open(REFERENCE_PATH, encoding="utf-8") as fh:
        return json.load(fh)


def particle_tv(cfg, particles_csv: str, snapshots_csv: str) -> float:
    """TV distance between the particles histogram and the run-full
    snapshot at the last snapshot time, normalized to unit mass."""
    y_grid, phi_grid = cfg.build_grids()
    shape = (y_grid.n_y, phi_grid.n_phi)
    _, rows = read_csv(particles_csv)
    hist = np.array([float(r[2]) for r in rows]).reshape(shape)
    _, rows = read_csv(snapshots_csv)
    snap = np.array([[float(c) for c in r] for r in rows])
    last = snap[snap[:, 0] == snap[:, 0].max(), 3].reshape(shape)
    vol = y_grid.widths[:, None] * phi_grid.h
    f = last / np.sum(last * vol)
    return float(0.5 * np.sum(np.abs(hist - f) * vol))


class CliExample:
    """Every config subcommand through ``cli.main`` on a seeded copy of
    configs/example.cfg, writing CSVs to a scratch directory in the
    checkout."""

    name = "cli-example"

    def __init__(self, seed: int, root: str, tiny: bool = False):
        self.seed = seed
        self.root = root
        self.work = os.path.join(root, ".perfbench",
                                 f"cli-example-{os.getpid()}")
        self.passes = 0
        self.first_seeded = {}

    def setup(self):
        self.config_path = write_example_config(
            self.root, os.path.join(self.work, "example.cfg"), self.seed)
        self.cfg = config.load_config(self.config_path)
        self.reference = load_reference()

    def manifest(self) -> dict:
        n = self.cfg.experiment.n_particles
        return {"config_seeds": list(self.cfg.experiment.seeds),
                "particles": n, "particle_array_bytes": 8 * n,
                "grid": [self.cfg.grid.n_y, self.cfg.grid.n_phi]}

    def execute(self, tracer):
        self.passes += 1
        pass_dir = os.path.join(self.work, f"pass-{self.passes}")
        runs = []
        for sub in SUBCOMMANDS:
            out_dir = os.path.join(pass_dir, sub)
            buf = io.StringIO()
            with tracer.span(f"cli.{sub}"), contextlib.redirect_stdout(buf):
                code, err = attempt(cli.main, [sub, "--config",
                                               self.config_path,
                                               "--out", out_dir])
            runs.append((sub, err or code, buf.getvalue(), out_dir))
        return pass_dir, runs

    def check(self, raw) -> Outcome:
        pass_dir, runs = raw
        out = Outcome()
        csv_files = identical = 0
        snapshots = None
        for sub, code, stdout, out_dir in runs:
            problems = []
            if code != 0:
                problems.append(f"exit code {code}")
            verdict = (stdout.strip().splitlines() or [""])[-1]
            if sub.startswith("check-") and not verdict.startswith("PASS"):
                problems.append(f"printed {verdict[:80]!r}")
            names = sorted(n for n in os.listdir(out_dir)
                           if n.endswith(".csv")) \
                if os.path.isdir(out_dir) else []
            expected = self.reference["subcommands"].get(sub, [])
            if names != expected:
                problems.append(f"wrote {names}, expected {expected}")
            for name in names:
                path = os.path.join(out_dir, name)
                fp = fingerprint(path)
                if name in SEEDED_CSVS:
                    # same seed -> same values as this run's first pass
                    ref = self.first_seeded.setdefault(name, fp)
                else:
                    ref = self.reference["csv"].get(name)
                if ref is None:
                    problems.append(f"{name} has no reference")
                    continue
                problems.extend(f"{name}: {p}"
                                for p in compare_fingerprints(fp, ref))
                csv_files += 1
                identical += fp["sha256"] == ref["sha256"]
                if name == "full_snapshots.csv":
                    snapshots = path
            if sub == "particles" and "particles.csv" in names:
                if snapshots is None:
                    problems.append("no run-full snapshots to compare with")
                else:
                    tv = particle_tv(self.cfg,
                                     os.path.join(out_dir, "particles.csv"),
                                     snapshots)
                    out.info["tv_distance"] = tv
                    if not tv <= CLI_TV_TOL:
                        problems.append(f"TV distance {tv:.4f} against "
                                        f"run-full > {CLI_TV_TOL}")
            out.record(sub, problems)
        out.info["csv_files"] = csv_files
        out.info["csv_byte_identical"] = identical
        shutil.rmtree(pass_dir, ignore_errors=True)
        return out

    def close(self):
        shutil.rmtree(self.work, ignore_errors=True)


WORKLOADS = {w.name: w for w in (AcceptanceGrid, ParticleOracle, CliExample)}
