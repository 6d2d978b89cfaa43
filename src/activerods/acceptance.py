"""Quantitative acceptance suite.

Fourteen numbered checks, each exercising one guaranteed property of the
package at a pinned configuration and tolerance.  `run_all` returns one
result per check; the CLI's check-all subcommand and the test suite both
render them one line apiece.  Heavy solves are cached so checks sharing
a run do not repeat it.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .asymptotics import build_inner
from .coefficients import (AngularCoefficient, ModelParams,
                           epsilon_from_physical, sup_abs)
from .config import GridSection, RunConfig, bulk_exp_field
from .decomposition import decompose, energy_step
from .errors import ActiveRodsError
from .full_solver import FullSolverConfig, run_full, steady_layer
from .grids import (PhaseField, aggregate_phi, build_phi_grid, build_y_grid,
                    norms, overlap_average_y)
from .limit_solver import (coercivity_check, manufactured_state,
                           resolvent_check, run_limit)
from .particles import histogram, run_particles, sample_initial, tv_distance
from .sweep import fit_order, sweep_epsilon, weak_pairing_sweep

_trapz = getattr(np, "trapezoid", None) or np.trapz


@dataclass
class CriterionResult:
    cid: int
    name: str
    passed: bool
    detail: str

    def line(self) -> str:
        tag = "PASS" if self.passed else "FAIL"
        return f"{tag} {self.cid:02d} {self.name}: {self.detail}"


_SHIFTED_SINE = AngularCoefficient("shifted_sine", {"g0": 1.0, "a": 0.5})


def _shear(gamma) -> AngularCoefficient:
    return AngularCoefficient("paper_shear", {"gamma": gamma})


def _const(v) -> AngularCoefficient:
    return AngularCoefficient("constant", {"value": v})


def _base_config(D=0.2, dt="auto") -> RunConfig:
    """The conservation-check configuration: graded 256 x 128 grid."""
    return RunConfig(ModelParams(epsilon=0.02, D=D, T=1.0, V=_SHIFTED_SINE,
                                 Phi=_shear(0.5)),
                     GridSection(n_phi=128, n_y=256, y_max=8.0,
                                 layer_width="auto", layer_cells=32),
                     FullSolverConfig(dt=dt))


# -- cached heavy runs --------------------------------------------------------


@lru_cache(maxsize=None)
def _sweep_records():
    cfg = _base_config()
    cfg.experiment.epsilon_list = [0.08, 0.04, 0.02, 0.01]
    return tuple(sweep_epsilon(cfg))


@lru_cache(maxsize=None)
def _weak_records():
    cfg = _base_config(D=0.0, dt=0.01)
    cfg.experiment.epsilon_list = [0.08, 0.04, 0.02, 0.01]
    return tuple(weak_pairing_sweep(cfg))


@lru_cache(maxsize=None)
def _d0_run():
    """D = 0 kinetic run decomposed at t = 0 and ten snapshot times;
    returns (params, [(t, Decomposition)])."""
    eps = 0.05
    params = ModelParams(epsilon=eps, D=0.0, T=1.0, V=_const(1.0),
                         Phi=_shear(0.5))
    y_grid = build_y_grid(8.0, 128, 8 * eps, 32)
    phi_grid = build_phi_grid(64)
    f0 = bulk_exp_field(y_grid, phi_grid)
    times = [round(0.1 * k, 10) for k in range(1, 11)]
    snaps = run_full(f0, params, FullSolverConfig(dt=0.01), times)
    return params, [(t, decompose(f, params.V, eps))
                    for t, f in [(0.0, f0)] + snaps]


@lru_cache(maxsize=None)
def _manufactured_ladder():
    """Limit solves of the closed-form bulk-wall pair at three dyadic
    resolutions; returns (params, levels) with the solved states."""
    params = ModelParams(epsilon=0.05, D=0.5, T=1.0, V=_const(1.0),
                         Phi=_const(0.0))
    levels = []
    for n_y, n_phi, dt in ((64, 32, 0.05), (128, 64, 0.025),
                           (256, 128, 0.0125)):
        y_grid = build_y_grid(20.0, n_y, 10.0, n_y // 2)   # uniform
        phi_grid = build_phi_grid(n_phi)
        s0 = manufactured_state(0.0, 1.0, 1.0, params.D, y_grid, phi_grid)
        s_T = run_limit(s0, params, FullSolverConfig(dt=dt), [1.0])[-1][1]
        exact = manufactured_state(1.0, 1.0, 1.0, params.D, y_grid, phi_grid)
        levels.append((n_y, n_phi, dt, s0, s_T, exact))
    return params, levels


# -- criteria -----------------------------------------------------------------


def _c1_scale_arithmetic() -> tuple:
    val = epsilon_from_physical(2e3, 3.0, 1e3)
    target, rel = 6.6e-4, 0.05
    return abs(val - target) <= rel * target, (
        f"eps={val:.6e}, target {target:.1e} +- {rel:.0%}")


def _c2_conservation() -> tuple:
    # the sweep row at the base epsilon is this very run: base config,
    # bulk-exponential start, dt = auto, solved to T
    cfg = _base_config()
    m0 = norms(bulk_exp_field(*cfg.build_grids()))["mass"]
    mT = next(r.mass_full for r in _sweep_records()
              if r.epsilon == cfg.model.epsilon)
    drift, tol = abs(mT - m0) / abs(m0), 1e-8
    return drift <= tol, f"relative drift {drift:.3e} (tol {tol:g})"


def _c3_steady_layer() -> tuple:
    eps = 0.05
    params = ModelParams(epsilon=eps, D=0.5, T=1.0, V=_const(1.0),
                         Phi=_const(0.0))
    y_grid = build_y_grid(4.0, 128, 18 * eps, 72)
    phi_grid = build_phi_grid(16)
    f0 = steady_layer(params.V, eps, y_grid, phi_grid)
    f_T = run_full(f0, params, FullSolverConfig(), [1.0])[-1][1]
    diff = PhaseField(f_T.values - f0.values, y_grid, phi_grid)
    dev, tol = norms(diff)["l1"], 1e-6
    return dev <= tol, f"L1 deviation {dev:.3e} at T=1 (tol {tol:g})"


def _c4_rotating_layer() -> tuple:
    eps = 0.05
    T = 0.5
    params = ModelParams(epsilon=eps, D=0.0, T=T, V=_const(1.0),
                         Phi=_const(1.0))
    y_grid = build_y_grid(4.0, 96, 16 * eps, 64)
    errs = []
    h_list = []
    for k, n_phi in enumerate((32, 64, 128, 256)):
        phi_grid = build_phi_grid(n_phi)
        dt = T / (4 * 2 ** k)
        layer = steady_layer(params.V, eps, y_grid, phi_grid)
        prof0 = (1.0 + 0.5 * np.sin(phi_grid.nodes)) / (2.0 * np.pi)
        f0 = PhaseField(layer.values * prof0[None, :], y_grid, phi_grid)
        f_T = run_full(f0, params, FullSolverConfig(dt=dt), [T])[-1][1]
        profT = (1.0 + 0.5 * np.sin(phi_grid.nodes - T)) / (2.0 * np.pi)
        exact = layer.values * profT[None, :]
        diff = PhaseField(f_T.values - exact, y_grid, phi_grid)
        errs.append(norms(diff)["l1"])
        h_list.append(phi_grid.h)
    slope = float(np.polyfit(np.log(h_list), np.log(errs), 1)[0])
    lo, hi = 0.8, 1.2
    err_txt = ">".join(f"{e:.2e}" for e in errs)
    return lo <= slope <= hi, (
        f"fitted order {slope:.3f} in [{lo:g},{hi:g}], L1 errors {err_txt}")


def _c5_manufactured() -> tuple:
    _, levels = _manufactured_ladder()
    errs = []
    drifts = []
    for n_y, n_phi, dt, s0, s_T, exact in levels:
        e_bulk = float(np.max(np.abs(s_T.bulk.values - exact.bulk.values)))
        e_wall = float(np.max(np.abs(s_T.wall - exact.wall)))
        errs.append(max(e_bulk, e_wall))
        m0 = s0.combined_mass()
        drifts.append(abs(s_T.combined_mass() - m0) / abs(m0))
    ratios = [errs[k + 1] / errs[k] for k in range(len(errs) - 1)]
    (lo, hi), tol = (0.4, 0.6), 1e-10
    ok = (all(lo <= r <= hi for r in ratios)
          and all(d <= tol for d in drifts))
    ratio_txt = ",".join(f"{r:.3f}" for r in ratios)
    return ok, (f"Linf ratios [{ratio_txt}] in [{lo:g},{hi:g}], "
                f"max mass drift {max(drifts):.2e} (tol {tol:g})")


def _c6_composite_error() -> tuple:
    recs = _sweep_records()
    errs = [r.l1_error for r in recs]
    decreasing = all(b < a for a, b in zip(errs, errs[1:]))
    order, need = fit_order(list(recs)), 0.7
    err_txt = ">".join(f"{e:.2e}" for e in errs)
    return decreasing and order >= need, (
        f"l1_error {err_txt}, fitted order {order:.3f} "
        f"(need decreasing, >={need:g})")


def _c7_residual_scaling() -> tuple:
    recs = _sweep_records()
    eps = np.array([r.epsilon for r in recs])
    tot = np.array([r.l1_R + r.l1_r for r in recs])
    slope = float(np.polyfit(np.log(eps), np.log(tot), 1)[0])
    lo, hi = 0.75, 1.25
    return lo <= slope <= hi, f"slope {slope:.3f} in [{lo:g},{hi:g}]"


def _c8_orthogonality() -> tuple:
    snaps = _d0_run()[1][1:]
    worst = max(dec.defect for _, dec in snaps)
    tol = 1e-8
    return worst <= tol, (f"max relative defect {worst:.3e} over "
                          f"{len(snaps)} snapshots (tol {tol:g})")


def _c9_energy_bound() -> tuple:
    params, decs = _d0_run()
    C = sup_abs(params.Phi, 1) + 2.0 * sup_abs(params.V, 0) + 2.0
    times, energies, diss = zip(*((t, *energy_step(dec)) for t, dec in decs))
    E0 = energies[0]
    ok = True
    worst = -np.inf
    for k in range(1, len(times)):
        integral = float(_trapz(diss[:k + 1], times[:k + 1]))
        lhs = energies[k] + integral
        rhs = E0 * math.exp(C * times[k])
        worst = max(worst, lhs / rhs)
        if lhs > rhs:
            ok = False
    return ok, (f"max (E+int diss)/(E0 e^Ct) = {worst:.3f} "
                f"with C={C:.2f} (need <= 1)")


def _c10_weak_pairings() -> tuple:
    recs = _weak_records()
    by_test = {}
    for r in recs:
        by_test.setdefault(r.test, []).append(r)
    ok = True
    parts = []
    for name, rows in by_test.items():
        rows.sort(key=lambda r: -r.epsilon)
        diffs = [r.abs_diff for r in rows]
        mono = all(b < a for a, b in zip(diffs, diffs[1:]))
        ok = ok and mono
        parts.append(f"{name}:{'dec' if mono else 'NOT-dec'}"
                     f"({diffs[0]:.1e}->{diffs[-1]:.1e})")
    return ok, "; ".join(parts)


# The model of both operator probes, criteria 11 and 12.
_PROBE_PARAMS = ModelParams(epsilon=0.05, D=0.5, T=1.0, V=_SHIFTED_SINE,
                            Phi=_shear(1.0))


def _c11_coercivity() -> tuple:
    return coercivity_check(_PROBE_PARAMS)[1:]


def _c12_resolvent() -> tuple:
    return resolvent_check(_PROBE_PARAMS)[1:]


def _c13_particle_oracle() -> tuple:
    eps = 0.05
    T = 0.5
    params = ModelParams(epsilon=eps, D=0.2, T=T, V=_SHIFTED_SINE,
                         Phi=_shear(0.5))
    y_max = 8.0
    fine_y = build_y_grid(y_max, 256, 8 * eps, 32)
    fine_phi = build_phi_grid(128)
    f0 = bulk_exp_field(fine_y, fine_phi)
    f_T = run_full(f0, params, FullSolverConfig(), [T])[-1][1]

    coarse_y = build_y_grid(y_max, 64, 8 * eps, 32)
    coarse_phi = build_phi_grid(32)
    vals = aggregate_phi(f_T.values, 4)
    vals = overlap_average_y(fine_y.faces, vals, coarse_y.faces)
    pde = PhaseField(vals, coarse_y, coarse_phi)
    pde = PhaseField(pde.values / norms(pde)["mass"], coarse_y, coarse_phi)

    ens = sample_initial(1_000_000, 20240817, y_max)
    ens = run_particles(ens, params, 1e-3, T, y_max=y_max)
    hist = histogram(ens, coarse_y, coarse_phi)
    tv, tol = tv_distance(hist, pde), 0.05
    return tv <= tol, f"TV distance {tv:.4f} at T={T} (tol {tol:g})"


def _c14_compatibility() -> tuple:
    params, levels = _manufactured_ladder()
    l1s = []
    for n_y, n_phi, dt, s0, s_T, exact in levels:
        inner = build_inner(s_T, params)
        h_phi = s_T.bulk.phi_grid.h
        l1s.append(float(np.sum(np.abs(inner.compat_residual)) * h_phi))
    ratios = [l1s[k] / l1s[k + 1] for k in range(len(l1s) - 1)]
    lo, hi = 1.4, 2.6
    ratio_txt = ",".join(f"{r:.3f}" for r in ratios)
    return all(lo <= r <= hi for r in ratios), (
        f"compat L1 halving ratios [{ratio_txt}] in [{lo:g},{hi:g}]")


# Each criterion returns (passed, detail); its name is given here once.
_CRITERIA = (
    ("scale-parameter-arithmetic", _c1_scale_arithmetic),
    ("kinetic-mass-conservation", _c2_conservation),
    ("steady-layer-stationarity", _c3_steady_layer),
    ("rotating-layer-order", _c4_rotating_layer),
    ("limit-manufactured-convergence", _c5_manufactured),
    ("composite-error-decay", _c6_composite_error),
    ("residual-epsilon-scaling", _c7_residual_scaling),
    ("layer-mode-orthogonality", _c8_orthogonality),
    ("energy-gronwall-bound", _c9_energy_bound),
    ("weak-pairing-convergence", _c10_weak_pairings),
    ("coercivity-gap", _c11_coercivity),
    ("resolvent-uniformity", _c12_resolvent),
    ("particle-histogram-agreement", _c13_particle_oracle),
    ("compatibility-defect-halving", _c14_compatibility),
)


def run_criterion(cid: int) -> CriterionResult:
    if not 1 <= cid <= len(_CRITERIA):
        raise ValueError(f"no criterion {cid}")
    name, fn = _CRITERIA[cid - 1]
    try:
        return CriterionResult(cid, name, *fn())
    except ActiveRodsError as exc:
        return CriterionResult(cid, name, False,
                               f"raised {type(exc).__name__}: {exc}")


def run_all() -> list:
    return [run_criterion(cid) for cid in range(1, len(_CRITERIA) + 1)]
