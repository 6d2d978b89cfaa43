"""Degenerate coupled bulk-wall system and operator-bound spot checks.

The bulk density rho(y, phi) on the half strip loses its wall-normal
diffusion entirely:

    d_t rho + d_phi(Phi rho - D d_phi rho) - V d_y rho = 0,

so characteristics flow toward the wall and no boundary condition is
imposed at y = 0; instead the outgoing flux feeds an angular wall
density w(phi):

    d_t w + d_phi(Phi w - D d_phi w) = V rho|_{y=0}.

Discretely the bulk y-step is implicit upwind-from-above, an upper
bidiagonal system that goes through the full solver's tridiagonal
column factorization (cyclic reduction in y) once per step size, so that
each step runs only the precomputed eliminations, whose multipliers are
all non-negative: non-negative data stay exactly non-negative. The zero
sub-diagonal makes the multipliers that would add a row's lower
neighbour zero everywhere, and the factorization leaves their products
out: five numpy calls per level instead of nine (0.17 ms at 256 x 128),
the same result up to the sign of a zero. The wall source is defined as exactly the
discrete flux through the wall face, so the combined mass telescopes to
machine precision. The splitting, the angular substep and the march to
snapshot times are shared with the full solver.

The operator spot checks (coercivity gap, regularized resolvent bound)
live on a separate uniform whole-line y grid, because the underlying
inequalities are posed with unbounded y of both signs. The resolvent
system is solved by block elimination over the y rows, 3.9 MiB at 481 x 32.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .coefficients import ModelParams, mu0, validate_assumptions
from .errors import ConfigurationError, NumericalFailureError
from .full_solver import FullSolverConfig, _factor_columns, _march
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

    def combined_mass(self) -> float:
        h = self.bulk.phi_grid.h
        bulk_mass = float(
            np.sum(self.bulk.values * self.bulk.y_grid.widths[:, None]) * h)
        return bulk_mass + float(np.sum(self.wall) * h)


def _upwind_y_step(V_nodes: np.ndarray, widths: np.ndarray, dt: float):
    """Implicit upwind-from-above sweep plus exact wall source, factored
    once for the step size dt: returns the step (bulk, wall) -> (bulk,
    wall).

    Row i of the backward-Euler system reads
    f_i (1 + r_i) - r_i f_{i+1} = f_i_old, r_i = dt V / w_i, with
    f_n = 0 (zero inflow at the top): an upper bidiagonal system, factored
    by _factor_columns with a zero sub-diagonal. The wall then gains
    exactly dt * V * f_0_new, the discrete outgoing flux.
    """
    r = dt * V_nodes[None, :] / widths[:, None]
    solve = _factor_columns(np.zeros_like(r), 1.0 + r, -r)
    source = dt * V_nodes

    def step(state):
        bulk, wall = state
        out = solve(bulk)
        return out, wall + source * out[0]

    return step


def _check_finite(state):
    if not all(np.isfinite(v).all() for v in state):
        raise NumericalFailureError("limit solver produced non-finite values")


def run_limit(s0: BulkWallState, params: ModelParams, cfg: FullSolverConfig,
              snapshot_times) -> list:
    """Integrate the limiting system, landing exactly on the requested
    times. Returns a list of (t, BulkWallState) pairs."""
    y_grid, phi_grid = s0.bulk.y_grid, s0.bulk.phi_grid
    validate_assumptions(params.V)
    V_nodes = eval_on_nodes(params.V, phi_grid)
    snaps = _march(lambda dt: _upwind_y_step(V_nodes, y_grid.widths, dt),
                   (s0.bulk.values, s0.wall), params, phi_grid, cfg,
                   snapshot_times, _check_finite)
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
    trapezoid_weights: np.ndarray

    @property
    def n_y(self) -> int:
        return self.nodes.size


def build_line_grid(y_half: float, n_y: int) -> WholeLineGrid:
    if y_half <= 0 or n_y < 8:
        raise ConfigurationError("whole-line grid needs y_half > 0, n_y >= 8")
    nodes = np.linspace(-y_half, y_half, int(n_y))
    h = float(nodes[1] - nodes[0])
    weights = np.full(nodes.size, h)
    weights[[0, -1]] *= 0.5
    return WholeLineGrid(nodes=nodes, h=h, trapezoid_weights=weights)


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


def _line_inner(a: np.ndarray, b: np.ndarray, grid: WholeLineGrid,
                phi_grid: PhiGrid) -> float:
    wy = grid.trapezoid_weights[:, None]
    return float(np.sum(a * b * wy) * phi_grid.h)


def _checked_mu0(lam: float, params: ModelParams) -> float:
    m0 = mu0(params.Phi)
    if not m0 < lam < math.inf:
        raise ConfigurationError(f"shift lam = {lam} must be finite and > mu0 = {m0:.6g}")
    return m0


def _gap_parts(u: LineField, lam: float, params: ModelParams):
    """mu0 and the arrays of the coercivity gap: the three parts of B u
    (V d_y u, d_phi(Phi u) and D d_phi^2 u, the last one subtracted) and
    d_phi u."""
    m0 = _checked_mu0(lam, params)
    vals = u.values
    V_nodes = eval_on_nodes(params.V, u.phi_grid)
    Phi_nodes = eval_on_nodes(params.Phi, u.phi_grid)
    return (m0, V_nodes[None, :] * np.gradient(vals, u.line_grid.h, axis=0),
            phi_derivative(Phi_nodes[None, :] * vals, 1),
            params.D * phi_derivative(vals, 2), phi_derivative(vals, 1))


def coercivity_gap(u: LineField, lam: float, params: ModelParams) -> float:
    """Discrete coercivity margin of the shifted transport operator
    B = V d_y + d_phi(Phi .) - D d_phi^2 on the whole line:

        gap = <(B + lam) u, u> - (lam - mu0) ||u||^2 - D ||d_phi u||^2

    with spectral angular differentiation (exact for band-limited u)
    and centered differences plus trapezoid quadrature in y. The
    underlying inequality guarantees gap >= ||u||^2 - O(h^2) >= 0
    whenever lam >= mu0(Phi)."""
    m0, v_dy, phi_dphi, d_dphi2, du_phi = _gap_parts(u, lam, params)
    vals = u.values
    norm2 = _line_inner(vals, vals, u.line_grid, u.phi_grid)
    gap = (_line_inner(v_dy + phi_dphi - d_dphi2, vals, u.line_grid,
                       u.phi_grid)
           + lam * norm2
           - (lam - m0) * norm2
           - params.D * _line_inner(du_phi, du_phi, u.line_grid, u.phi_grid))
    return float(gap)


def _gap_scale(u: LineField, lam: float, params: ModelParams) -> float:
    """The sum of the magnitudes of the coercivity gap's integrands, the
    scale its round-off grows with."""
    m0, *parts, du_phi = _gap_parts(u, lam, params)
    a = np.abs(u.values)

    def inner(x, y):
        return _line_inner(x, y, u.line_grid, u.phi_grid)

    return (sum(inner(np.abs(p), a) for p in parts)
            + (abs(lam) + abs(lam - m0)) * inner(a, a)
            + params.D * inner(du_phi, du_phi))


@dataclass
class ResolventProblem:
    """Shifted regularized transport equation (B_eps + lam) u = rhs on
    the whole-line grid. lam must exceed mu0(Phi); eps_reg > 0."""

    lam: float
    eps_reg: float
    rhs: LineField

    def __post_init__(self):
        if not (math.isfinite(self.lam) and 0 < self.eps_reg < math.inf):
            raise ConfigurationError(f"need a finite lam and a finite eps_reg > 0, "
                                     f"got {self.lam} and {self.eps_reg}")


@dataclass
class ResolventSolution:
    u: LineField
    ratio: float   # (||u||^2 + ||du_phi||^2 + ||du_y||^2 + ||d2u_phi||^2) / ||f||^2


def _resolvent_blocks(p: ResolventProblem, params: ModelParams):
    """(L, B, U) with interior row i of the y-major resolvent system
    L u_{i-1} + B u_i + U u_{i+1} = f_i: the per-angle diagonals of
    V d_y - eps_reg d_y^2, and the periodic angular block, the same on
    every row, of lam, the y-diagonal and d_phi(Phi .) - D d_phi^2."""
    hy, phi_grid = p.rhs.line_grid.h, p.rhs.phi_grid
    n_p, hp = phi_grid.n_phi, phi_grid.h
    V_nodes = eval_on_nodes(params.V, phi_grid)
    Phi_nodes = eval_on_nodes(params.Phi, phi_grid)
    dy2, dp2 = p.eps_reg / hy ** 2, params.D / hp ** 2
    j = np.arange(n_p)
    B = np.diag(np.full(n_p, p.lam + 2.0 * dy2 + 2.0 * dp2))
    B[j, (j + 1) % n_p] += np.roll(Phi_nodes, -1) / (2.0 * hp) - dp2
    B[j, j - 1] += -np.roll(Phi_nodes, 1) / (2.0 * hp) - dp2
    return -V_nodes / (2.0 * hy) - dy2, B, V_nodes / (2.0 * hy) - dy2


def resolvent_solve(p: ResolventProblem, params: ModelParams) -> ResolventSolution:
    """Direct solve of (V d_y - eps_reg d_y^2 + d_phi(Phi .) - D d_phi^2
    + lam) u = f with Dirichlet ends in y (the true solution decays) and
    periodic angle. Reports the graph-norm ratio whose boundedness,
    uniformly as eps_reg shrinks, is the point.

    Block-tridiagonal elimination over the y rows: from S_1 = B, g_1 =
    f_1, solve S_i [W_i | y_i] = [U | g_i] by one LAPACK gesv per row
    (pivoting within the block), S_{i+1} = B - L W_i, g_{i+1} = f_{i+1}
    - L y_i; then u_i = y_i - W_i u_{i+1}. Keeps one n_phi x (n_phi + 1)
    block per row, 3.9 MiB at 481 x 32."""
    _checked_mu0(p.lam, params)
    grid, phi_grid, f = p.rhs.line_grid, p.rhs.phi_grid, p.rhs.values
    L, B, U = _resolvent_blocks(p, params)
    n = phi_grid.n_phi
    X = np.zeros((grid.n_y, n, n + 1))      # [W_i | y_i]
    S, rhs = B, np.concatenate((np.diag(U), f[1, :, None]), axis=1)
    try:
        for i in range(1, grid.n_y - 1):
            X[i] = np.linalg.solve(S, rhs)
            S = B - L[:, None] * X[i, :, :n]
            rhs[:, n] = f[i + 1] - L * X[i, :, n]
    except np.linalg.LinAlgError as exc:
        raise NumericalFailureError(f"resolvent system not solvable: {exc}")
    u_vals = np.zeros(f.shape)
    for i in range(grid.n_y - 2, 0, -1):
        u_vals[i] = X[i, :, n] - X[i, :, :n] @ u_vals[i + 1]
    if not np.isfinite(u_vals).all():
        raise NumericalFailureError("resolvent solve returned non-finite values")
    u = LineField(u_vals, grid, phi_grid)
    f2 = _line_inner(f, f, grid, phi_grid)
    if f2 == 0.0:
        return ResolventSolution(u=u, ratio=0.0)
    num = sum(_line_inner(g, g, grid, phi_grid)
              for g in (u_vals, phi_derivative(u_vals, 1),
                        np.gradient(u_vals, grid.h, axis=0),
                        phi_derivative(u_vals, 2)))
    return ResolventSolution(u=u, ratio=float(num / f2))
