"""Scale-parameter sweeps: solve the kinetic model over a ladder of
epsilon values, compare against composite approximations built from the
limiting system, and fit the observed convergence order.

Per ladder row the limiting system is re-solved on the row's own grid
with the row's own time step, so the discretization bias shared by the
two solves cancels in the difference and the O(epsilon) gap survives
down to small epsilon.  A single fine uniform-grid limit solve supplies
the smooth data for the layer corrector and the residual report.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, fields, replace

import numpy as np

from .asymptotics import (build_inner, composite_refined, composite_simple,
                          residual_report)
from .config import RunConfig
from .decomposition import decompose, weak_pairings
from .errors import ConfigurationError, FitError
from .full_solver import run_full
from .grids import build_phi_grid, build_y_grid, norms, PhaseField
from .limit_solver import run_limit


@dataclass
class SweepRecord:
    epsilon: float
    t_final: float
    l1_error: float
    l1_error_refined: float
    l1_R: float
    l1_r: float
    mass_full: float
    mass_limit_combined: float
    order_vs_prev: float


# the sweep CSV's header, one column per field
SWEEP_COLUMNS = tuple(f.name for f in fields(SweepRecord))


@dataclass
class WeakPairingRecord:
    epsilon: float
    test: str
    pairing_full: float
    pairing_limit: float
    abs_diff: float


def _check_ladder(eps_list) -> list:
    eps = [float(e) for e in eps_list]
    if len(eps) == 0:
        raise ConfigurationError("epsilon_list is empty")
    if any(b >= a for a, b in zip(eps, eps[1:])):
        raise ConfigurationError("epsilon_list must be strictly decreasing")
    return eps


def reference_limit_state(cfg: RunConfig):
    """Limiting system solved to T on a fine uniform y grid (same angular
    resolution as the sweep rows)."""
    n = max(2 * cfg.grid.n_y, 512)
    y_grid = build_y_grid(cfg.grid.y_max, n, cfg.grid.y_max / 2.0, n // 2)
    phi_grid = build_phi_grid(cfg.grid.n_phi)
    _, s0 = cfg.initial_states(y_grid, phi_grid)
    snaps = run_limit(s0, cfg.model, cfg.time, [cfg.model.T])
    return snaps[-1][1]


def _paired_solve(cfg: RunConfig, eps: float):
    """Kinetic and limiting solves to T at one epsilon, on that epsilon's
    grids. Returns (f_T, s_T, params)."""
    cfg = replace(cfg, model=replace(cfg.model, epsilon=eps))
    y_grid, phi_grid = cfg.build_grids()
    params = cfg.model
    f0, s0 = cfg.initial_states(y_grid, phi_grid)
    f_T = run_full(f0, params, cfg.time, [params.T])[-1][1]
    s_T = run_limit(s0, params, cfg.time, [params.T])[-1][1]
    return f_T, s_T, params


def sweep_epsilon(cfg: RunConfig) -> list:
    """One SweepRecord per epsilon in cfg.experiment.epsilon_list."""
    eps_list = _check_ladder(cfg.experiment.epsilon_list)

    ref_state = reference_limit_state(cfg)
    inner_ref = build_inner(ref_state, cfg.model)

    records = []
    prev_err = None
    for eps in eps_list:
        f_T, s_T, params = _paired_solve(cfg, eps)
        y_grid, phi_grid = f_T.y_grid, f_T.phi_grid
        f_bar = composite_simple(s_T, eps, cfg.model.V)
        f_hat = composite_refined(f_bar, inner_ref, eps)

        diff_bar = PhaseField(f_T.values - f_bar.values, y_grid, phi_grid)
        diff_hat = PhaseField(f_T.values - f_hat.values, y_grid, phi_grid)
        err = norms(diff_bar)["l1"]
        err_hat = norms(diff_hat)["l1"]

        resid = residual_report(ref_state, inner_ref, params,
                                eval_y_grid=y_grid)

        order = float("nan") if prev_err is None else \
            math.log2(prev_err / err) if err > 0 and prev_err > 0 else \
            float("nan")
        records.append(SweepRecord(
            epsilon=eps, t_final=cfg.model.T, l1_error=err,
            l1_error_refined=err_hat, l1_R=resid.l1_R, l1_r=resid.l1_r,
            mass_full=norms(f_T)["mass"],
            mass_limit_combined=s_T.combined_mass(),
            order_vs_prev=order))
        prev_err = err
    return records


def fit_order(records, column: str = "l1_error") -> float:
    """Least-squares slope of log error against log epsilon.

    Requires at least three records on a dyadic epsilon ladder with
    positive errors; anything else raises FitError.
    """
    if len(records) < 3:
        raise FitError("order fit needs at least 3 sweep records")
    eps = np.array([r.epsilon for r in records], dtype=float)
    errs = np.array([getattr(r, column) for r in records], dtype=float)
    ratios = eps[:-1] / eps[1:]
    if np.any(np.abs(ratios - 2.0) > 0.05 * 2.0):
        raise FitError("order fit needs a dyadic epsilon ladder")
    if np.any(errs < 0) or not np.all(np.isfinite(errs)):
        raise FitError("order fit needs finite nonnegative errors")
    if np.all(errs == 0):
        return 0.0
    if np.any(errs <= 0):
        raise FitError("order fit needs strictly positive errors")
    spread = errs.max() / errs.min()
    if spread < 1.0 + 1e-12:
        return 0.0
    slope = np.polyfit(np.log(eps), np.log(errs), 1)[0]
    return float(slope)


def weak_pairing_sweep(cfg: RunConfig) -> list:
    """Wall-trace weak pairings: kinetic solve vs matched limit solve.

    Only defined for D = 0, where the decomposition's boundary profile
    has an exact counterpart in the limiting wall density.
    """
    if cfg.model.D != 0.0:
        raise ConfigurationError("weak pairing sweep requires D = 0")
    eps_list = _check_ladder(cfg.experiment.epsilon_list)

    records = []
    for eps in eps_list:
        f_T, s_T, _ = _paired_solve(cfg, eps)
        dec = decompose(f_T, cfg.model.V, eps)
        for (name, pf), (_, pl) in zip(
                weak_pairings(dec.m, f_T.phi_grid),
                weak_pairings(dec.V_nodes * s_T.wall, f_T.phi_grid)):
            records.append(WeakPairingRecord(
                epsilon=eps, test=name, pairing_full=pf,
                pairing_limit=pl, abs_diff=abs(pf - pl)))
    return records
