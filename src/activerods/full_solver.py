"""Split-step finite-volume solver for the thin-layer kinetic problem.

One field f(y, phi) on the half strip evolves under wall-normal drift
toward the wall plus weak wall-normal diffusion (strength eps), and
angular drift plus angular diffusion:

    d_t f + d_phi(Phi f - D d_phi f) + d_y G = 0,
    G = -V f - eps d_y f,       G = 0 at y = 0 and y = y_max.

The y-substep is implicit (backward Euler) in conservative flux form
with an exponentially fitted two-point flux

    G_face = V (e^{-rho} f_below - f_above) / (1 - e^{-rho}),
    rho = V * dist(centers) / eps,

which reduces to upwind-from-above as eps -> 0 and to the plain
two-point diffusive flux as V -> 0, keeps the M-matrix property, and
annihilates exact cell averages of e^{-V y/eps} on the uniform layer
block to machine precision. The phi-substep is explicit conservative
upwind plus centered diffusion, sub-cycled under a CFL bound.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .coefficients import ModelParams, sup_abs, validate_assumptions
from .errors import ConfigurationError, NumericalFailureError
from .grids import (PhaseField, YGrid, PhiGrid, eval_on_nodes,
                    exp_cell_averages)

_MAX_SUBCYCLES = 10 ** 6


@dataclass(frozen=True)
class FullSolverConfig:
    dt: object = "auto"          # positive float, or "auto" for the CFL bound
    splitting: str = "lie"       # "lie" (y then phi) or "strang"
    safety: float = 0.9

    def __post_init__(self):
        if self.splitting not in ("lie", "strang"):
            raise ConfigurationError(
                f"splitting must be 'lie' or 'strang', got {self.splitting!r}"
            )
        if self.dt != "auto":
            if not (isinstance(self.dt, (int, float)) and self.dt > 0):
                raise ConfigurationError(f"dt must be positive or 'auto', got {self.dt!r}")
        if not (0 < self.safety <= 1):
            raise ConfigurationError(f"safety must be in (0, 1], got {self.safety}")


def phi_cfl_dt(params: ModelParams, phi_grid: PhiGrid, safety: float = 0.9):
    """Stable explicit step for the angular substep, or None if the
    angular operator vanishes. The combined bound

        dt <= safety / (max|Phi|/h + 2 D / h^2)

    implies both of the individual advective and diffusive bounds."""
    h = phi_grid.h
    denom = sup_abs(params.Phi, 0) / h + 2.0 * params.D / h ** 2
    if denom <= 0.0:
        return None
    return safety / denom


def resolve_dt(params: ModelParams, phi_grid: PhiGrid,
               cfg: FullSolverConfig, fallback: float = 0.05) -> float:
    if cfg.dt != "auto":
        return float(cfg.dt)
    bound = phi_cfl_dt(params, phi_grid, cfg.safety)
    if bound is None:
        return fallback
    return bound


def _fitted_flux_coeffs(V_nodes: np.ndarray, eps: float, y_grid: YGrid):
    """Per-face coefficients of the exponentially fitted flux.

    Returns (a, b), each shaped (n_y + 1, n_phi), with
    G_face_i = a_i * f_{i-1} - b_i * f_i for interior faces and
    a = b = 0 on the wall and top faces (no-flux).
    """
    n_y = y_grid.n_y
    V = np.asarray(V_nodes, dtype=float)[None, :]
    a = np.zeros((n_y + 1, V.shape[1]))
    b = np.zeros_like(a)
    d = np.diff(y_grid.centers)[:, None]            # distances, faces 1..n-1
    rho = V * d / eps
    den = -np.expm1(-rho)                           # 1 - e^{-rho}, stable
    a[1:n_y, :] = V * np.exp(-rho) / den
    b[1:n_y, :] = V / den
    return a, b


def _implicit_y_step(values: np.ndarray, a: np.ndarray, b: np.ndarray,
                     widths: np.ndarray, dt: float) -> np.ndarray:
    """Backward-Euler step of d_t f + (G_{i+1} - G_i)/w_i = 0 with the
    linear flux G_i = a_i f_{i-1} - b_i f_i. Vectorized Thomas solve
    across the angular axis. Exactly conservative by telescoping."""
    n_y = values.shape[0]
    w = widths[:, None]
    r = dt / w
    diag = 1.0 + r * (a[1:, :] + b[:-1, :])
    lower = -r * a[:-1, :]          # coefficient of f_{i-1} in row i
    upper = -r * b[1:, :]           # coefficient of f_{i+1} in row i

    # forward elimination
    cp = np.empty_like(values)
    dp = np.empty_like(values)
    cp[0] = upper[0] / diag[0]
    dp[0] = values[0] / diag[0]
    for i in range(1, n_y):
        denom = diag[i] - lower[i] * cp[i - 1]
        cp[i] = upper[i] / denom
        dp[i] = (values[i] - lower[i] * dp[i - 1]) / denom
    out = np.empty_like(values)
    out[n_y - 1] = dp[n_y - 1]
    for i in range(n_y - 2, -1, -1):
        out[i] = dp[i] - cp[i] * out[i + 1]
    return out


def phi_substep(values: np.ndarray, Phi_face: np.ndarray, D: float,
                h: float, dt: float, safety: float = 0.9) -> np.ndarray:
    """Explicit conservative angular substep, sub-cycled under CFL.

    Upwinds on the sign of Phi at each face, centered two-point
    diffusion. Works on any array whose last axis is the angle."""
    denom = float(np.max(np.abs(Phi_face))) / h + 2.0 * D / h ** 2
    if denom <= 0.0 or dt <= 0.0:
        return values.copy()
    stable = safety / denom
    n_sub = max(1, math.ceil(dt / stable - 1e-12))
    if n_sub > _MAX_SUBCYCLES:
        raise ConfigurationError(
            f"angular CFL requires {n_sub} sub-cycles (> {_MAX_SUBCYCLES}); "
            "reduce dt or refine the angle grid"
        )
    dts = dt / n_sub
    out = values.copy()
    pos = Phi_face >= 0.0
    for _ in range(n_sub):
        nxt = np.roll(out, -1, axis=-1)
        upw = np.where(pos, out, nxt)
        F = Phi_face * upw - D * (nxt - out) / h
        out = out - (dts / h) * (F - np.roll(F, 1, axis=-1))
    return out


def _split_stepper(y_step, params: ModelParams, phi_grid: PhiGrid,
                   cfg: FullSolverConfig):
    """The Lie (y then phi) or Strang (half phi, y, half phi) splitting
    of an implicit y-substep with the explicit angular substep, as a
    step(state, dt) callable.

    The state is a tuple of angle-last arrays: (f,) for the kinetic
    model, (bulk, wall) for the limiting system. y_step(state, dt)
    advances the whole tuple at once; each array then takes its own
    angular substep."""
    Phi_face = np.asarray(
        params.Phi(phi_grid.faces), dtype=float) * np.ones(phi_grid.n_phi)

    def phi_step(state, dt):
        return tuple(phi_substep(v, Phi_face, params.D, phi_grid.h, dt,
                                 cfg.safety) for v in state)

    if cfg.splitting == "lie":
        return lambda state, dt: phi_step(y_step(state, dt), dt)
    return lambda state, dt: phi_step(
        y_step(phi_step(state, 0.5 * dt), dt), 0.5 * dt)


def _full_stepper(params: ModelParams, y_grid: YGrid, phi_grid: PhiGrid,
                  cfg: FullSolverConfig):
    """Split step of the kinetic model on the state (f,)."""
    validate_assumptions(params.V)
    a, b = _fitted_flux_coeffs(eval_on_nodes(params.V, phi_grid),
                               params.epsilon, y_grid)
    return _split_stepper(
        lambda state, dt: (
            _implicit_y_step(state[0], a, b, y_grid.widths, dt),),
        params, phi_grid, cfg)


def step_full(f: PhaseField, params: ModelParams, cfg: FullSolverConfig,
              dt: float | None = None) -> PhaseField:
    """One split step of the kinetic problem. dt defaults to the
    configured (or CFL-resolved) step."""
    step = _full_stepper(params, f.y_grid, f.phi_grid, cfg)
    if dt is None:
        dt = resolve_dt(params, f.phi_grid, cfg)
    (out,) = step((f.values,), dt)
    _check_health(out, f.y_grid, f.phi_grid)
    return PhaseField(out, f.y_grid, f.phi_grid)


def _check_health(values: np.ndarray, y_grid: YGrid, phi_grid: PhiGrid):
    mass = float(np.sum(values * y_grid.widths[:, None]) * phi_grid.h)
    if not np.isfinite(mass):
        raise NumericalFailureError("solver produced non-finite values")
    scale = float(np.sum(np.abs(values) * y_grid.widths[:, None]) * phi_grid.h)
    if mass < -1e-9 * max(scale, 1e-300):
        raise NumericalFailureError(f"total mass went negative: {mass}")


def _march(step, state: tuple, snapshot_times, T: float, dt_target: float,
           check) -> list:
    """Advance state from t = 0, landing exactly on every requested time.

    Each segment between snapshots takes ceil(span / dt_target) equal
    steps and ends with check(state). Returns a list of (t, state copy)
    pairs, one per requested time (t = 0 gives a copy of the input)."""
    times = sorted(set(float(t) for t in snapshot_times))
    if not times:
        raise ConfigurationError("need at least one snapshot time")
    if times[0] < -1e-15 or times[-1] > T + 1e-12:
        raise ConfigurationError(
            f"snapshot times must lie in [0, T={T}], got {times}"
        )
    out = []
    t = 0.0
    for t_next in times:
        span = t_next - t
        if span > 1e-14:
            n = max(1, math.ceil(span / dt_target - 1e-12))
            dt = span / n
            for _ in range(n):
                state = step(state, dt)
            check(state)
            t = t_next
        out.append((t_next, tuple(v.copy() for v in state)))
    return out


def run_full(f0: PhaseField, params: ModelParams, cfg: FullSolverConfig,
             snapshot_times) -> list:
    """Integrate from f0, landing exactly on every requested time.

    Returns a list of (t, PhaseField) pairs, one per requested time
    (including t = 0 if requested, which returns a copy of f0).
    """
    y_grid, phi_grid = f0.y_grid, f0.phi_grid
    snaps = _march(_full_stepper(params, y_grid, phi_grid, cfg), (f0.values,),
                   snapshot_times, params.T,
                   resolve_dt(params, phi_grid, cfg),
                   lambda state: _check_health(state[0], y_grid, phi_grid))
    return [(t, PhaseField(f, y_grid, phi_grid)) for t, (f,) in snaps]


def steady_layer(V, eps: float, y_grid: YGrid, phi_grid: PhiGrid) -> PhaseField:
    """Exact cell averages of the stationary wall-layer profile
    (V/eps) e^{-V y / eps}, unit mass per angle up to domain truncation."""
    if eps <= 0:
        raise ConfigurationError(f"eps must be positive, got {eps}")
    V_nodes = eval_on_nodes(V, phi_grid)
    avg = exp_cell_averages(V_nodes, eps, y_grid)
    return PhaseField((V_nodes[None, :] / eps) * avg, y_grid, phi_grid)
