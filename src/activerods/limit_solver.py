"""Degenerate coupled bulk-wall system and operator-bound spot checks.

The bulk density rho(y, phi) on the half strip loses its wall-normal
diffusion entirely:

    d_t rho + d_phi(Phi rho - D d_phi rho) - V d_y rho = 0,

so characteristics flow toward the wall and no boundary condition is
imposed at y = 0; instead the outgoing flux feeds an angular wall
density w(phi):

    d_t w + d_phi(Phi w - D d_phi w) = V rho|_{y=0}.

Discretely the bulk y-step is implicit upwind-from-above (an upper
bidiagonal solve) and the wall source is defined as exactly the
discrete flux through the wall face, so the combined mass telescopes to
machine precision. The splitting, the angular substep and the march
to snapshot times are shared with the full solver.

The operator spot checks (coercivity gap, regularized resolvent bound)
live on a separate uniform whole-line y grid, because the underlying
inequalities are posed with unbounded y of both signs.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
import scipy.sparse as sp
import scipy.sparse.linalg as spla

from .coefficients import ModelParams, mu0, validate_assumptions
from .errors import ConfigurationError, NumericalFailureError
from .full_solver import (FullSolverConfig, _march, _split_stepper,
                          resolve_dt)
from .grids import (PhaseField, PhiGrid, YGrid, eval_on_nodes,
                    phi_derivative)


@dataclass
class BulkWallState:
    """Bulk phase density plus angular wall density."""

    bulk: PhaseField
    wall: np.ndarray

    def __post_init__(self):
        self.wall = np.asarray(self.wall, dtype=float)
        if self.wall.shape != (self.bulk.phi_grid.n_phi,):
            raise ConfigurationError(
                f"wall profile shape {self.wall.shape} does not match "
                f"n_phi = {self.bulk.phi_grid.n_phi}"
            )

    def copy(self) -> "BulkWallState":
        return BulkWallState(self.bulk.copy(), self.wall.copy())

    def combined_mass(self) -> float:
        h = self.bulk.phi_grid.h
        bulk_mass = float(
            np.sum(self.bulk.values * self.bulk.y_grid.widths[:, None]) * h)
        return bulk_mass + float(np.sum(self.wall) * h)


def _upwind_y_step(bulk: np.ndarray, wall: np.ndarray, V_nodes: np.ndarray,
                   widths: np.ndarray, dt: float):
    """Implicit upwind-from-above sweep plus exact wall source.

    Row i of the backward-Euler system reads
    f_i (1 + r_i) - r_i f_{i+1} = f_i_old, r_i = dt V / w_i, with
    f_n = 0 (zero inflow at the top). Solved top-down; the wall then
    gains exactly dt * V * f_0_new, the discrete outgoing flux.
    """
    n_y = bulk.shape[0]
    r = dt * V_nodes[None, :] / widths[:, None]
    out = np.empty_like(bulk)
    out[n_y - 1] = bulk[n_y - 1] / (1.0 + r[n_y - 1])
    for i in range(n_y - 2, -1, -1):
        out[i] = (bulk[i] + r[i] * out[i + 1]) / (1.0 + r[i])
    return out, wall + dt * V_nodes * out[0]


def _limit_stepper(params: ModelParams, y_grid: YGrid, phi_grid: PhiGrid,
                   cfg: FullSolverConfig):
    """Split step of the limiting system on the state (bulk, wall)."""
    validate_assumptions(params.V)
    V_nodes = eval_on_nodes(params.V, phi_grid)
    return _split_stepper(
        lambda state, dt: _upwind_y_step(*state, V_nodes, y_grid.widths, dt),
        params, phi_grid, cfg)


def _check_finite(state):
    if not all(np.isfinite(v).all() for v in state):
        raise NumericalFailureError("limit solver produced non-finite values")


def step_limit(s: BulkWallState, params: ModelParams, dt: float,
               cfg: FullSolverConfig | None = None) -> BulkWallState:
    """One split step of the coupled bulk-wall system."""
    y_grid, phi_grid = s.bulk.y_grid, s.bulk.phi_grid
    step = _limit_stepper(params, y_grid, phi_grid, cfg or FullSolverConfig())
    bulk, wall = step((s.bulk.values, s.wall), dt)
    _check_finite((bulk, wall))
    return BulkWallState(PhaseField(bulk, y_grid, phi_grid), wall)


def run_limit(s0: BulkWallState, params: ModelParams, cfg: FullSolverConfig,
              snapshot_times) -> list:
    """Integrate the limiting system, landing exactly on the requested
    times. Returns a list of (t, BulkWallState) pairs."""
    y_grid, phi_grid = s0.bulk.y_grid, s0.bulk.phi_grid
    snaps = _march(_limit_stepper(params, y_grid, phi_grid, cfg),
                   (s0.bulk.values, s0.wall), snapshot_times, params.T,
                   resolve_dt(params, phi_grid, cfg), _check_finite)
    return [(t, BulkWallState(PhaseField(bulk, y_grid, phi_grid), wall))
            for t, (bulk, wall) in snaps]


def manufactured_state(t: float, a0: float, a1: float, D: float,
                       y_grid: YGrid, phi_grid: PhiGrid) -> BulkWallState:
    """Closed-form solution of the limiting system for V = 1, Phi = 0:

        bulk = e^{-(y+t)} (a0 + a1 e^{-D t} cos phi)
        wall = (1 - e^{-t}) (a0 + a1 e^{-D t} cos phi)

    Verified by direct substitution; the angular mode decays at rate D,
    the wall accumulates the outgoing characteristic flux. Sampled at
    cell centers and angular nodes."""
    y = y_grid.centers[:, None]
    mode = a0 + a1 * math.exp(-D * t) * np.cos(phi_grid.nodes)
    bulk = np.exp(-(y + t)) * mode[None, :]
    wall = (1.0 - math.exp(-t)) * mode
    return BulkWallState(PhaseField(bulk, y_grid, phi_grid), wall)


# ---------------------------------------------------------------------------
# whole-line operator checks


@dataclass(frozen=True)
class WholeLineGrid:
    """Uniform node-centered grid on [-y_half, y_half]."""

    nodes: np.ndarray
    h: float

    @property
    def n_y(self) -> int:
        return self.nodes.size

    @property
    def trapezoid_weights(self) -> np.ndarray:
        w = np.full(self.nodes.size, self.h)
        w[0] *= 0.5
        w[-1] *= 0.5
        return w


def build_line_grid(y_half: float, n_y: int) -> WholeLineGrid:
    if y_half <= 0 or n_y < 8:
        raise ConfigurationError("whole-line grid needs y_half > 0, n_y >= 8")
    nodes = np.linspace(-y_half, y_half, int(n_y))
    return WholeLineGrid(nodes=nodes, h=float(nodes[1] - nodes[0]))


@dataclass
class LineField:
    """Node values on the whole-line tensor grid, shape (n_y, n_phi)."""

    values: np.ndarray
    line_grid: WholeLineGrid
    phi_grid: PhiGrid

    def __post_init__(self):
        self.values = np.asarray(self.values, dtype=float)
        expected = (self.line_grid.n_y, self.phi_grid.n_phi)
        if self.values.shape != expected:
            raise ConfigurationError(
                f"line field shape {self.values.shape} != grid {expected}")


def _d_y(values: np.ndarray, h: float) -> np.ndarray:
    out = np.empty_like(values)
    out[1:-1] = (values[2:] - values[:-2]) / (2.0 * h)
    out[0] = (values[1] - values[0]) / h
    out[-1] = (values[-1] - values[-2]) / h
    return out


def _line_inner(a: np.ndarray, b: np.ndarray, grid: WholeLineGrid,
                phi_grid: PhiGrid) -> float:
    wy = grid.trapezoid_weights[:, None]
    return float(np.sum(a * b * wy) * phi_grid.h)


def coercivity_gap(u: LineField, lam: float, params: ModelParams) -> float:
    """Discrete coercivity margin of the shifted transport operator
    B = V d_y + d_phi(Phi .) - D d_phi^2 on the whole line:

        gap = <(B + lam) u, u> - (lam - mu0) ||u||^2 - D ||d_phi u||^2

    with spectral angular differentiation (exact for band-limited u)
    and centered differences plus trapezoid quadrature in y. The
    underlying inequality guarantees gap >= ||u||^2 - O(h^2) >= 0
    whenever lam >= mu0(Phi)."""
    m0 = mu0(params.Phi)
    if lam <= m0:
        raise ConfigurationError(
            f"shift lam = {lam} must exceed mu0 = {m0:.6g}")
    vals = u.values
    V_nodes = eval_on_nodes(params.V, u.phi_grid)
    Phi_nodes = eval_on_nodes(params.Phi, u.phi_grid)

    Bu = (V_nodes[None, :] * _d_y(vals, u.line_grid.h)
          + phi_derivative(Phi_nodes[None, :] * vals, 1)
          - params.D * phi_derivative(vals, 2))
    du_phi = phi_derivative(vals, 1)

    norm2 = _line_inner(vals, vals, u.line_grid, u.phi_grid)
    gap = (_line_inner(Bu, vals, u.line_grid, u.phi_grid)
           + lam * norm2
           - (lam - m0) * norm2
           - params.D * _line_inner(du_phi, du_phi, u.line_grid, u.phi_grid))
    return float(gap)


@dataclass
class ResolventProblem:
    """Shifted regularized transport equation (B_eps + lam) u = rhs on
    the whole-line grid. lam must exceed mu0(Phi); eps_reg > 0."""

    lam: float
    eps_reg: float
    rhs: LineField

    def __post_init__(self):
        if self.eps_reg <= 0:
            raise ConfigurationError(f"eps_reg must be > 0, got {self.eps_reg}")


@dataclass
class ResolventSolution:
    u: LineField
    ratio: float   # (||u||^2 + ||du_phi||^2 + ||du_y||^2 + ||d2u_phi||^2) / ||f||^2


def resolvent_solve(p: ResolventProblem, params: ModelParams) -> ResolventSolution:
    """Sparse direct solve of (V d_y - eps_reg d_y^2 + d_phi(Phi .)
    - D d_phi^2 + lam) u = f with Dirichlet ends in y (the true
    solution decays) and periodic angle. Reports the graph-norm ratio
    whose boundedness, uniformly as eps_reg shrinks, is the point."""
    m0 = mu0(params.Phi)
    if p.lam <= m0:
        raise ConfigurationError(
            f"shift lam = {p.lam} must exceed mu0 = {m0:.6g}")
    grid = p.rhs.line_grid
    phi_grid = p.rhs.phi_grid
    n_y, n_p = grid.n_y, phi_grid.n_phi
    hy, hp = grid.h, phi_grid.h
    V_nodes = eval_on_nodes(params.V, phi_grid)
    Phi_nodes = eval_on_nodes(params.Phi, phi_grid)

    def idx(iy, jp):
        return iy * n_p + (jp % n_p)

    rows, cols, data = [], [], []
    rhs_vec = np.zeros(n_y * n_p)
    for iy in range(n_y):
        boundary = iy == 0 or iy == n_y - 1
        for jp in range(n_p):
            k = idx(iy, jp)
            if boundary:
                rows.append(k); cols.append(k); data.append(1.0)
                continue
            rhs_vec[k] = p.rhs.values[iy, jp]
            V = V_nodes[jp]
            # lam + diffusion diagonals
            rows.append(k); cols.append(k)
            data.append(p.lam + 2.0 * p.eps_reg / hy ** 2
                        + 2.0 * params.D / hp ** 2)
            # V d_y - eps_reg d_y^2, centered
            rows.append(k); cols.append(idx(iy + 1, jp))
            data.append(V / (2.0 * hy) - p.eps_reg / hy ** 2)
            rows.append(k); cols.append(idx(iy - 1, jp))
            data.append(-V / (2.0 * hy) - p.eps_reg / hy ** 2)
            # d_phi(Phi u), centered, and -D d_phi^2
            rows.append(k); cols.append(idx(iy, jp + 1))
            data.append(Phi_nodes[(jp + 1) % n_p] / (2.0 * hp)
                        - params.D / hp ** 2)
            rows.append(k); cols.append(idx(iy, jp - 1))
            data.append(-Phi_nodes[(jp - 1) % n_p] / (2.0 * hp)
                        - params.D / hp ** 2)
    A = sp.csr_matrix((data, (rows, cols)), shape=(n_y * n_p, n_y * n_p))
    try:
        u_vec = spla.spsolve(A, rhs_vec)
    except RuntimeError as exc:
        raise NumericalFailureError(f"resolvent system not solvable: {exc}")
    if not np.isfinite(u_vec).all():
        raise NumericalFailureError("resolvent solve returned non-finite values")

    u = LineField(u_vec.reshape(n_y, n_p), grid, phi_grid)
    du_y = _d_y(u.values, hy)
    du_p = phi_derivative(u.values, 1)
    d2u_p = phi_derivative(u.values, 2)
    f2 = _line_inner(p.rhs.values, p.rhs.values, grid, phi_grid)
    if f2 == 0.0:
        return ResolventSolution(u=u, ratio=0.0)
    num = (_line_inner(u.values, u.values, grid, phi_grid)
           + _line_inner(du_p, du_p, grid, phi_grid)
           + _line_inner(du_y, du_y, grid, phi_grid)
           + _line_inner(d2u_p, d2u_p, grid, phi_grid))
    return ResolventSolution(u=u, ratio=float(num / f2))
