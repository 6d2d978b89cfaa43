"""Command-line interface.

Subcommands:

    run-full         integrate the kinetic model, dump field snapshots
    run-limit        integrate the coupled bulk-wall limiting system
    composite        limit solve + matched-layer reconstruction + residuals
    sweep            epsilon ladder with composite errors and fitted order
    decompose        D=0 run split into wall mode and orthogonal remainder
    particles        stochastic ensemble histogram
    check-coercivity accretivity gap battery for the model's coefficients
    check-resolvent  regularized resolvent stability ratios
    check-all        the full acceptance suite, one line per criterion

Each config subcommand is a function of the loaded config and a writer.
One runner loads the config and resolves the output directory: --out,
else ACTIVERODS_OUT_DIR, else the config's [output] directory, an empty
value counting as unset.  Its write(*tables) writes all the CSVs of a
subcommand there at once, all or none, with one "wrote" line per CSV.

Exit codes: 0 success, 1 failed check, 2 configuration problem or out of
memory, 3 violated model assumption, 4 numerical failure.
"""

from __future__ import annotations

import argparse
import contextlib
import os
import sys

import numpy as np

from . import acceptance
from .asymptotics import build_inner, composite_refined, composite_simple, \
    residual_report
from .coefficients import validate_assumptions
from .config import load_config
from .decomposition import decompose, default_tests, energy_step, weak_pairings
from .errors import (ActiveRodsError, ConfigurationError, FitError,
                     NumericalFailureError)
from .full_solver import run_full
from .grids import norms
from .limit_solver import coercivity_check, resolvent_check, run_limit
from .particles import histogram, run_particles, sample_initial
from .reports import cell_rows, field_rows, profile_rows, write_csv
from .sweep import SWEEP_COLUMNS, fit_order, sweep_epsilon


def _require_finite(what: str, *values):
    """Refuse to write results that overflowed or went NaN."""
    if not all(np.isfinite(v).all() for v in values):
        raise NumericalFailureError(
            f"{what} produced non-finite values; the coefficients may be "
            "too large for double precision")


def _run(args) -> int:
    """Load the config, resolve the output directory and run the config
    subcommand args.cmd with a CSV writer into that directory."""
    cfg = load_config(args.config)
    out_dir = args.out or os.environ.get("ACTIVERODS_OUT_DIR") or cfg.out_dir

    def write(*tables):
        """Write each (name, header, rows) table to out_dir/name, all or
        none: each CSV is staged under a temporary name, and once all are
        staged they are renamed into place, each printing its "wrote"
        line. On an error the files not yet renamed are removed."""
        temps = [os.path.join(out_dir, f".{name}.{os.getpid()}.tmp")
                 for name, _, _ in tables]
        paths = [os.path.join(out_dir, name) for name, _, _ in tables]
        renamed = 0
        try:
            for (name, header, rows), tmp in zip(tables, temps):
                write_csv(tmp, header, rows)
            for (name, _, _), path in zip(tables, paths):
                if os.path.isdir(path):
                    raise IsADirectoryError(f"{path} is a directory")
            for (name, _, rows), tmp, path in zip(tables, temps, paths):
                os.replace(tmp, path)
                renamed += 1
                print(f"wrote {path} ({len(rows)} rows)")
        except OSError as exc:
            raise OSError(
                f"{args.command}: cannot write {name}: {exc}") from exc
        finally:
            for tmp in temps[renamed:]:
                with contextlib.suppress(OSError):
                    os.remove(tmp)

    return args.cmd(cfg, write)


# -- subcommands --------------------------------------------------------------


def _cmd_run_full(cfg, write) -> int:
    y_grid, phi_grid = cfg.build_grids()
    f0 = cfg.initial_field(y_grid, phi_grid)
    snaps = run_full(f0, cfg.model, cfg.time, cfg.experiment.snapshot_times)
    write(("full_snapshots.csv", ("t", "y", "phi", "f"),
           [row for t, f in snaps for row in field_rows(t, f)]))
    last = snaps[-1][1]
    print(f"final mass {norms(last)['mass']:.12g} at t={snaps[-1][0]:g}")
    return 0


def _cmd_run_limit(cfg, write) -> int:
    y_grid, phi_grid = cfg.build_grids()
    s0 = cfg.initial_limit_state(y_grid, phi_grid)
    snaps = run_limit(s0, cfg.model, cfg.time, cfg.experiment.snapshot_times)
    bulk_rows, wall_rows = [], []
    for t, s in snaps:
        bulk_rows.extend(field_rows(t, s.bulk))
        wall_rows.extend(profile_rows(t, phi_grid.nodes, s.wall))
    write(("limit_bulk.csv", ("t", "y", "phi", "rho_bulk"), bulk_rows),
          ("limit_wall.csv", ("t", "phi", "rho_wall"), wall_rows))
    print(f"final combined mass {snaps[-1][1].combined_mass():.12g}")
    return 0


def _cmd_composite(cfg, write) -> int:
    y_grid, phi_grid = cfg.build_grids()
    s0 = cfg.initial_limit_state(y_grid, phi_grid)
    # overflow shows as one error from _require_finite, not numpy warnings
    with np.errstate(all="ignore"):
        s_T = run_limit(s0, cfg.model, cfg.time, [cfg.model.T])[-1][1]
        inner = build_inner(s_T, cfg.model)
        f_bar = composite_simple(s_T, cfg.model.epsilon, cfg.model.V)
        f_hat = composite_refined(f_bar, inner, cfg.model.epsilon, cfg.model.V)
        resid = residual_report(s_T, inner, cfg.model)
    _require_finite("composite", f_bar.values, f_hat.values, resid.l1_R,
                    resid.l1_r)
    write(("composite.csv", ("y", "phi", "f_bar", "f_hat"),
           cell_rows(y_grid, phi_grid, f_bar.values, f_hat.values)),
          ("residual.csv", ("epsilon", "l1_R", "l1_r"),
           [(cfg.model.epsilon, resid.l1_R, resid.l1_r)]))
    return 0


def _cmd_sweep(cfg, write) -> int:
    with np.errstate(all="ignore"):
        records = sweep_epsilon(cfg)
    # the last column, order_vs_prev, is NaN by design on the first row
    _require_finite("sweep", [r.row()[:-1] for r in records])
    write(("sweep.csv", SWEEP_COLUMNS, [r.row() for r in records]))
    try:
        order = fit_order(records)
        refined = fit_order(records, "l1_error_refined")
        print(f"fitted order {order:.4f} over {len(records)} epsilons")
        print(f"refined-composite fitted order {refined:.4f}")
    except FitError as exc:
        print(f"no order fit: {exc}")
    return 0


def _cmd_decompose(cfg, write) -> int:
    if cfg.model.D != 0.0:
        raise ConfigurationError(
            "decompose requires D = 0 (set D = 0 in [model])")
    y_grid, phi_grid = cfg.build_grids()
    f0 = cfg.initial_field(y_grid, phi_grid)
    tests = default_tests(phi_grid)
    mode_rows, energy_rows = [], []
    with np.errstate(all="ignore"):
        snaps = run_full(f0, cfg.model, cfg.time,
                         cfg.experiment.snapshot_times)
        for t, f in snaps:
            dec = decompose(f, cfg.model.V, cfg.model.epsilon)
            E, diss = energy_step(dec, cfg.model.V)
            mode_rows.extend(profile_rows(t, phi_grid.nodes, dec.m))
            energy_rows.append((t, E, diss))
        pairings = weak_pairings(dec, tests)
    _require_finite("decompose", mode_rows, energy_rows, pairings)
    pair_rows = [(cfg.model.epsilon, name, val) for (name, _), val in
                 zip(tests, pairings)]
    write(("modes.csv", ("t", "phi", "m"), mode_rows),
          ("energy.csv", ("t", "E", "dissipation"), energy_rows),
          ("pairings.csv", ("epsilon", "test", "pairing"), pair_rows))
    return 0


def _cmd_particles(cfg, write) -> int:
    if cfg.experiment.initial != "bulk_exp":
        raise ConfigurationError(
            f"particles starts from the bulk-exponential law; it cannot run "
            f"[experiment] initial = {cfg.experiment.initial}")
    validate_assumptions(cfg.model.V)
    y_grid, phi_grid = cfg.build_grids()
    seed = cfg.experiment.seeds[0]
    ens = sample_initial(cfg.experiment.n_particles, seed, cfg.grid.y_max)
    ens = run_particles(ens, cfg.model, cfg.experiment.particle_dt,
                        cfg.model.T, y_max=cfg.grid.y_max)
    h = histogram(ens, y_grid, phi_grid)
    write(("particles.csv", ("y", "phi", "density"),
           cell_rows(y_grid, phi_grid, h.values)))
    print(f"{cfg.experiment.n_particles} particles, seed {seed}, "
          f"T={cfg.model.T:g}")
    return 0


def _cmd_check(cfg, write, label, check, header) -> int:
    """One operator probe: rows to <label>.csv, verdict to stdout."""
    rows, ok, detail = check(cfg.model)
    write((f"{label}.csv", header, rows))
    print(f"{'PASS' if ok else 'FAIL'} {label}: {detail}")
    return 0 if ok else 1


def _cmd_check_all(args) -> int:
    results = acceptance.run_all()
    for res in results:
        print(res.line())
    failed = sum(not r.passed for r in results)
    print(f"{len(results) - failed}/{len(results)} criteria passed")
    return 1 if failed else 0


# -- parser -------------------------------------------------------------------


_CONFIG_COMMANDS = {
    "run-full": (_cmd_run_full, "integrate the kinetic model"),
    "run-limit": (_cmd_run_limit, "integrate the bulk-wall limiting system"),
    "composite": (_cmd_composite, "matched-layer reconstruction and residuals"),
    "sweep": (_cmd_sweep, "epsilon ladder with composite errors"),
    "decompose": (_cmd_decompose, "wall-mode decomposition along a D=0 run"),
    "particles": (_cmd_particles, "stochastic ensemble histogram"),
    "check-coercivity": (lambda cfg, write: _cmd_check(
        cfg, write, "coercivity", coercivity_check,
        ("sample", "n_y", "n_phi", "lambda", "gap")),
        "accretivity gap battery"),
    "check-resolvent": (lambda cfg, write: _cmd_check(
        cfg, write, "resolvent", resolvent_check, ("eps_reg", "ratio")),
        "resolvent stability ratios"),
}


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="activerods",
        description="Solvers and checks for wall-confined active rod "
                    "kinetics and its thin-layer limit.")
    sub = parser.add_subparsers(dest="command", required=True)
    for name, (fn, helptext) in _CONFIG_COMMANDS.items():
        p = sub.add_parser(name, help=helptext)
        p.add_argument("--config", required=True, help="path to a run config")
        p.add_argument("--out", default=None, help="output directory "
                       "(overrides config and environment)")
        p.set_defaults(func=_run, cmd=fn)
    p_all = sub.add_parser("check-all", help="run the full acceptance suite")
    p_all.set_defaults(func=_cmd_check_all)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code) if exc.code else 0
    try:
        return args.func(args)
    except (ActiveRodsError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return getattr(exc, "exit_code", 2)
    except MemoryError:
        print("error: out of memory for the requested sizes; reduce "
              "n_particles or the grid sizes", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
