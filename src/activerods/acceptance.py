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
                           epsilon_from_physical, mu0, sup_abs)
from .config import GridSection, RunConfig, bulk_exp_field
from .decomposition import decompose, energy_step
from .errors import ActiveRodsError, NumericalFailureError
from .full_solver import FullSolverConfig, run_full, steady_layer
from .grids import (PhaseField, aggregate_phi, build_phi_grid, build_y_grid,
                    eval_on_nodes, exp_cell_integrals, norms, overlap_average_y)
from .limit_solver import (LineField, ResolventProblem, _gap_scale,
                           build_line_grid, coercivity_gap,
                           manufactured_state, resolvent_solve, run_limit)
from .particles import histogram, run_particles, sample_initial, tv_distance
from .sweep import fit_order, sweep_epsilon, weak_pairing_sweep

_trapz = getattr(np, "trapezoid", None) or np.trapz

# Bounds of the operator probes, shared by criteria 11 and 12 and by the
# check-coercivity and check-resolvent subcommands.
GAP_TOL = -1e-8       # worst coercivity gap must be >= GAP_TOL
_GAP_ROUNDOFF = 16    # the gap's round-off floor, in eps times its scale
SPREAD_MAX = 2.0      # resolvent ratio spread max/min must be < SPREAD_MAX


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
    """D = 0 kinetic run decomposed at ten snapshot times."""
    eps = 0.05
    params = ModelParams(epsilon=eps, D=0.0, T=1.0, V=_const(1.0),
                         Phi=_shear(0.5))
    y_grid = build_y_grid(8.0, 128, 8 * eps, 32)
    phi_grid = build_phi_grid(64)
    f0 = bulk_exp_field(y_grid, phi_grid)
    times = [round(0.1 * k, 10) for k in range(1, 11)]
    snaps = run_full(f0, params, FullSolverConfig(dt=0.01), times)
    return params, f0, snaps


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
    target = 6.6e-4
    ok = abs(val - target) <= 0.05 * target
    return ok, f"eps={val:.6e}, target {target:.1e} +- 5%"


def _c2_conservation() -> tuple:
    # the sweep row at the base epsilon is this very run: base config,
    # bulk-exponential start, dt = auto, solved to T
    cfg = _base_config()
    m0 = norms(bulk_exp_field(*cfg.build_grids()))["mass"]
    mT = next(r.mass_full for r in _sweep_records()
              if r.epsilon == cfg.model.epsilon)
    drift = abs(mT - m0) / abs(m0)
    ok = drift <= 1e-8
    return ok, f"relative drift {drift:.3e} (tol 1e-08)"


def _c3_steady_layer() -> tuple:
    eps = 0.05
    params = ModelParams(epsilon=eps, D=0.5, T=1.0, V=_const(1.0),
                         Phi=_const(0.0))
    y_grid = build_y_grid(4.0, 128, 18 * eps, 72)
    phi_grid = build_phi_grid(16)
    f0 = steady_layer(params.V, eps, y_grid, phi_grid)
    f_T = run_full(f0, params, FullSolverConfig(), [1.0])[-1][1]
    diff = PhaseField(f_T.values - f0.values, y_grid, phi_grid)
    dev = norms(diff)["l1"]
    ok = dev <= 1e-6
    return ok, f"L1 deviation {dev:.3e} at T=1 (tol 1e-06)"


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
    ok = 0.8 <= slope <= 1.2
    err_txt = ">".join(f"{e:.2e}" for e in errs)
    return ok, (f"fitted order {slope:.3f} in [0.8,1.2], "
                f"L1 errors {err_txt}")


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
    ok = (all(0.4 <= r <= 0.6 for r in ratios)
          and all(d <= 1e-10 for d in drifts))
    ratio_txt = ",".join(f"{r:.3f}" for r in ratios)
    return ok, (f"Linf ratios [{ratio_txt}] in [0.4,0.6], "
                f"max mass drift {max(drifts):.2e} (tol 1e-10)")


def _c6_composite_error() -> tuple:
    recs = _sweep_records()
    errs = [r.l1_error for r in recs]
    decreasing = all(b < a for a, b in zip(errs, errs[1:]))
    order = fit_order(list(recs))
    ok = decreasing and order >= 0.7
    err_txt = ">".join(f"{e:.2e}" for e in errs)
    return ok, (f"l1_error {err_txt}, fitted order {order:.3f} "
                f"(need decreasing, >=0.7)")


def _c7_residual_scaling() -> tuple:
    recs = _sweep_records()
    eps = np.array([r.epsilon for r in recs])
    tot = np.array([r.l1_R + r.l1_r for r in recs])
    slope = float(np.polyfit(np.log(eps), np.log(tot), 1)[0])
    ok = 0.75 <= slope <= 1.25
    return ok, f"slope {slope:.3f} in [0.75,1.25]"


def _c8_orthogonality() -> tuple:
    params, f0, snaps = _d0_run()
    eps = params.epsilon
    worst = 0.0
    for _, f in snaps:
        dec = decompose(f, params.V, eps)
        V_nodes = eval_on_nodes(params.V, f.phi_grid)
        I = exp_cell_integrals(V_nodes, eps, f.y_grid.faces)
        defect = float(np.max(np.abs(np.sum(dec.u.values * I, axis=0))))
        scale = norms(f)["l1"]
        worst = max(worst, defect / scale)
    ok = worst <= 1e-8
    return ok, (f"max relative defect {worst:.3e} over "
                f"{len(snaps)} snapshots (tol 1e-08)")


def _c9_energy_bound() -> tuple:
    params, f0, snaps = _d0_run()
    C = sup_abs(params.Phi, 1) + 2.0 * sup_abs(params.V, 0) + 2.0
    dec0 = decompose(f0, params.V, params.epsilon)
    E0, diss0 = energy_step(dec0, params.V)
    times = [0.0]
    energies = [E0]
    diss = [diss0]
    for t, f in snaps:
        d = decompose(f, params.V, params.epsilon)
        E, dd = energy_step(d, params.V)
        times.append(t)
        energies.append(E)
        diss.append(dd)
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


def coercivity_check(params: ModelParams):
    """Gap of the accretivity inequality at the shift lam = mu0(Phi) + 1
    for random band-limited fields u = exp(-(y/sigma)^2) * (trig
    polynomial of degree <= 6). Returns the (n_y, n_phi, lam, gap) rows,
    the worst gap, and whether it meets worst >= GAP_TOL. A non-finite
    gap, or a worst gap below GAP_TOL by no more than its round-off
    floor, says nothing about coercivity: NumericalFailureError."""
    lam = mu0(params.Phi) + 1.0
    rng = np.random.default_rng(1234)
    samples = []
    worst, worst_u = math.inf, None
    # overflow shows as one NumericalFailureError, not numpy warnings
    with np.errstate(all="ignore"):
        for n_y, n_phi in ((301, 32), (601, 48)):
            grid = build_line_grid(8.0, n_y)
            phi_grid = build_phi_grid(n_phi)
            for _ in range(10):
                sigma = rng.uniform(0.8, 2.0)
                prof = np.exp(-(grid.nodes / sigma) ** 2)
                ang = np.full(phi_grid.n_phi, rng.normal())
                for k in range(1, 7):
                    ang = ang + rng.normal() * np.cos(k * phi_grid.nodes) \
                              + rng.normal() * np.sin(k * phi_grid.nodes)
                u = LineField(prof[:, None] * ang[None, :], grid, phi_grid)
                gap = coercivity_gap(u, lam, params)
                samples.append((n_y, n_phi, lam, gap))
                if gap < worst:
                    worst, worst_u = gap, u
        if not all(math.isfinite(s[-1]) for s in samples):
            raise NumericalFailureError(
                "coercivity gaps are non-finite; the coefficients may be "
                "too large for double precision")
        if worst < GAP_TOL:
            floor = _GAP_ROUNDOFF * np.finfo(float).eps \
                * _gap_scale(worst_u, lam, params)
            if worst >= GAP_TOL - floor:
                raise NumericalFailureError(
                    f"min coercivity gap {worst:.3e} is within its "
                    f"round-off floor {floor:.3e} of the tolerance; the "
                    "coefficients may be too large for double precision")
    return samples, worst, worst >= GAP_TOL


def resolvent_check(params: ModelParams):
    """Stability ratio of the resolvent solve at lam = mu0(Phi) + 1 for a
    fixed smooth right-hand side, one per regularization strength.
    Returns the (eps_reg, ratio) pairs, the spread max/min of the ratios,
    and whether it meets spread < SPREAD_MAX. A zero or non-finite ratio
    has no spread: NumericalFailureError."""
    lam = mu0(params.Phi) + 1.0
    grid = build_line_grid(12.0, 481)
    phi_grid = build_phi_grid(32)
    prof = np.exp(-grid.nodes ** 2)
    ang = 1.0 + np.cos(phi_grid.nodes) + 0.5 * np.sin(2 * phi_grid.nodes)
    rhs = LineField(prof[:, None] * ang[None, :], grid, phi_grid)
    pairs = []
    # overflow shows as one NumericalFailureError, not numpy warnings
    with np.errstate(all="ignore"):
        for eps_reg in (1e-1, 1e-2, 1e-3):
            sol = resolvent_solve(ResolventProblem(eps_reg=eps_reg, lam=lam,
                                                   rhs=rhs), params)
            pairs.append((eps_reg, sol.ratio))
    ratios = [r for _, r in pairs]
    if not all(0.0 < r < math.inf for r in ratios):
        raise NumericalFailureError(
            f"resolvent ratios {ratios} are zero or non-finite; the "
            "coefficients may be too large for double precision")
    spread = max(ratios) / min(ratios)
    return pairs, spread, spread < SPREAD_MAX


# The model of both operator probes, criteria 11 and 12.
_PROBE_PARAMS = ModelParams(epsilon=0.05, D=0.5, T=1.0, V=_SHIFTED_SINE,
                            Phi=_shear(1.0))


def _c11_coercivity() -> tuple:
    samples, worst, ok = coercivity_check(_PROBE_PARAMS)
    return ok, (f"min gap {worst:.3e} over {len(samples)} fields "
                f"(tol {GAP_TOL:g})")


def _c12_resolvent() -> tuple:
    pairs, spread, ok = resolvent_check(_PROBE_PARAMS)
    ratio_txt = ",".join(f"{r:.3f}" for _, r in pairs)
    return ok, (f"ratios [{ratio_txt}], spread {spread:.3f} "
                f"(need < {SPREAD_MAX:g})")


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
    tv = tv_distance(hist, pde)
    ok = tv <= 0.05
    return ok, f"TV distance {tv:.4f} at T={T} (tol 0.05)"


def _c14_compatibility() -> tuple:
    params, levels = _manufactured_ladder()
    l1s = []
    for n_y, n_phi, dt, s0, s_T, exact in levels:
        inner = build_inner(s_T, params)
        h_phi = s_T.bulk.phi_grid.h
        l1s.append(float(np.sum(np.abs(inner.compat_residual)) * h_phi))
    ratios = [l1s[k] / l1s[k + 1] for k in range(len(l1s) - 1)]
    ok = all(1.4 <= r <= 2.6 for r in ratios)
    ratio_txt = ",".join(f"{r:.3f}" for r in ratios)
    return ok, f"compat L1 halving ratios [{ratio_txt}] in [1.4,2.6]"


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
