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

Exit codes: 0 success, 1 failed check, 2 configuration problem or out of
memory, 3 violated model assumption, 4 numerical failure.  The output
directory comes from the config's [output] section, overridden by the
ACTIVERODS_OUT_DIR environment variable, overridden by --out.
"""

from __future__ import annotations

import argparse
import os
import sys

import numpy as np

from . import acceptance
from .asymptotics import build_inner, composite_refined, composite_simple, \
    residual_report
from .coefficients import validate_assumptions
from .config import RunConfig, load_config
from .decomposition import decompose, default_tests, energy_step, weak_pairings
from .errors import (ActiveRodsError, ConfigurationError, FitError,
                     NumericalFailureError)
from .full_solver import run_full
from .grids import norms
from .limit_solver import run_limit
from .particles import histogram, run_particles, sample_initial
from .reports import field_rows, profile_rows, write_csv
from .sweep import SWEEP_COLUMNS, fit_order, sweep_epsilon


def _out_dir(cfg: RunConfig, args) -> str:
    out = getattr(args, "out", None)
    if out:
        return out
    env = os.environ.get("ACTIVERODS_OUT_DIR")
    if env:
        return env
    return cfg.out_dir


def _require_finite(what: str, *values):
    """Refuse to write results that overflowed or went NaN."""
    if not all(np.isfinite(v).all() for v in values):
        raise NumericalFailureError(
            f"{what} produced non-finite values; the coefficients may be "
            "too large for double precision")


def _write(cfg, args, name, header, rows) -> str:
    path = os.path.join(_out_dir(cfg, args), name)
    write_csv(path, header, rows)
    print(f"wrote {path} ({len(rows)} rows)")
    return path


# -- subcommands --------------------------------------------------------------


def _cmd_run_full(args) -> int:
    cfg = load_config(args.config)
    y_grid, phi_grid = cfg.build_grids()
    f0 = cfg.initial_field(y_grid, phi_grid)
    snaps = run_full(f0, cfg.model_params(), cfg.solver_config(),
                     cfg.experiment.snapshot_times)
    rows = []
    for t, f in snaps:
        rows.extend(field_rows(t, f))
    _write(cfg, args, "full_snapshots.csv", ("t", "y", "phi", "f"), rows)
    last = snaps[-1][1]
    print(f"final mass {norms(last)['mass']:.12g} at t={snaps[-1][0]:g}")
    return 0


def _cmd_run_limit(args) -> int:
    cfg = load_config(args.config)
    y_grid, phi_grid = cfg.build_grids()
    s0 = cfg.initial_limit_state(y_grid, phi_grid)
    snaps = run_limit(s0, cfg.model_params(), cfg.solver_config(),
                      cfg.experiment.snapshot_times)
    bulk_rows, wall_rows = [], []
    for t, s in snaps:
        bulk_rows.extend(field_rows(t, s.bulk))
        wall_rows.extend(profile_rows(t, phi_grid.nodes, s.wall))
    _write(cfg, args, "limit_bulk.csv", ("t", "y", "phi", "rho_bulk"),
           bulk_rows)
    _write(cfg, args, "limit_wall.csv", ("t", "phi", "rho_wall"), wall_rows)
    print(f"final combined mass {snaps[-1][1].combined_mass():.12g}")
    return 0


def _cmd_composite(args) -> int:
    cfg = load_config(args.config)
    y_grid, phi_grid = cfg.build_grids()
    s0 = cfg.initial_limit_state(y_grid, phi_grid)
    # overflow shows as one error from _require_finite, not numpy warnings
    with np.errstate(all="ignore"):
        s_T = run_limit(s0, cfg.model_params(), cfg.solver_config(),
                        [cfg.T])[-1][1]
        inner = build_inner(s_T, cfg.model_params())
        f_bar = composite_simple(s_T, cfg.epsilon, cfg.V)
        f_hat = composite_refined(s_T, inner, cfg.epsilon, cfg.V)
        resid = residual_report(s_T, inner, cfg.model_params())
    _require_finite("composite", f_bar.values, f_hat.values, resid.l1_R,
                    resid.l1_r)
    rows = []
    for i in range(y_grid.n_y):
        for j in range(phi_grid.n_phi):
            rows.append((y_grid.centers[i], phi_grid.nodes[j],
                         f_bar.values[i, j], f_hat.values[i, j]))
    _write(cfg, args, "composite.csv", ("y", "phi", "f_bar", "f_hat"), rows)
    _write(cfg, args, "residual.csv", ("epsilon", "l1_R", "l1_r"),
           [(resid.epsilon, resid.l1_R, resid.l1_r)])
    return 0


def _cmd_sweep(args) -> int:
    cfg = load_config(args.config)
    with np.errstate(all="ignore"):
        records = sweep_epsilon(cfg)
    # the last column, order_vs_prev, is NaN by design on the first row
    _require_finite("sweep", [r.row()[:-1] for r in records])
    _write(cfg, args, "sweep.csv", SWEEP_COLUMNS,
           [r.row() for r in records])
    try:
        order = fit_order(records)
        refined = fit_order(records, "l1_error_refined")
        print(f"fitted order {order:.4f} over {len(records)} epsilons")
        print(f"refined-composite fitted order {refined:.4f}")
    except FitError as exc:
        print(f"no order fit: {exc}")
    return 0


def _cmd_decompose(args) -> int:
    cfg = load_config(args.config)
    if cfg.D != 0.0:
        raise ConfigurationError(
            "decompose requires D = 0 (set D = 0 in [model])")
    y_grid, phi_grid = cfg.build_grids()
    f0 = cfg.initial_field(y_grid, phi_grid)
    tests = default_tests(phi_grid)
    mode_rows, energy_rows = [], []
    with np.errstate(all="ignore"):
        snaps = run_full(f0, cfg.model_params(), cfg.solver_config(),
                         cfg.experiment.snapshot_times)
        for t, f in snaps:
            dec = decompose(f, cfg.V, cfg.epsilon)
            E, diss = energy_step(dec, cfg.V)
            mode_rows.extend(profile_rows(t, phi_grid.nodes, dec.m))
            energy_rows.append((t, E, diss))
        pairings = weak_pairings(dec, tests)
    _require_finite("decompose", mode_rows, energy_rows, pairings)
    _write(cfg, args, "modes.csv", ("t", "phi", "m"), mode_rows)
    _write(cfg, args, "energy.csv", ("t", "E", "dissipation"), energy_rows)
    pair_rows = [(cfg.epsilon, name, val) for (name, _), val in
                 zip(tests, pairings)]
    _write(cfg, args, "pairings.csv", ("epsilon", "test", "pairing"),
           pair_rows)
    return 0


def _cmd_particles(args) -> int:
    cfg = load_config(args.config)
    validate_assumptions(cfg.V)
    y_grid, phi_grid = cfg.build_grids()
    seed = cfg.experiment.seeds[0]
    ens = sample_initial(cfg.experiment.n_particles, seed, cfg.grid.y_max)
    ens = run_particles(ens, cfg.model_params(), cfg.experiment.particle_dt,
                        cfg.T, y_max=cfg.grid.y_max)
    h = histogram(ens, y_grid, phi_grid)
    rows = []
    for i in range(y_grid.n_y):
        for j in range(phi_grid.n_phi):
            rows.append((y_grid.centers[i], phi_grid.nodes[j],
                         h.values[i, j]))
    _write(cfg, args, "particles.csv", ("y", "phi", "density"), rows)
    print(f"{cfg.experiment.n_particles} particles, seed {seed}, "
          f"T={cfg.T:g}")
    return 0


def _cmd_check_coercivity(args) -> int:
    cfg = load_config(args.config)
    samples, worst, ok = acceptance.coercivity_check(cfg.model_params())
    _write(cfg, args, "coercivity.csv",
           ("sample", "n_y", "n_phi", "lambda", "gap"),
           [(k, *s) for k, s in enumerate(samples)])
    print(f"{'PASS' if ok else 'FAIL'} coercivity: min gap {worst:.3e} "
          f"over {len(samples)} fields (tol {acceptance.GAP_TOL:g})")
    return 0 if ok else 1


def _cmd_check_resolvent(args) -> int:
    cfg = load_config(args.config)
    pairs, spread, ok = acceptance.resolvent_check(cfg.model_params())
    _write(cfg, args, "resolvent.csv", ("eps_reg", "ratio"), pairs)
    print(f"{'PASS' if ok else 'FAIL'} resolvent: ratio spread {spread:.3f} "
          f"across eps_reg ladder (need < {acceptance.SPREAD_MAX:g})")
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
    "check-coercivity": (_cmd_check_coercivity, "accretivity gap battery"),
    "check-resolvent": (_cmd_check_resolvent, "resolvent stability ratios"),
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
        p.set_defaults(func=fn)
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
    except ActiveRodsError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return exc.exit_code
    except OSError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except MemoryError:
        print("error: out of memory for the requested sizes; reduce "
              "n_particles or the grid sizes", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
