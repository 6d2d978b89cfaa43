"""Degenerate coupled bulk-wall system and operator-bound spot checks.

The bulk density rho(y, phi) on the half strip loses its wall-normal
diffusion entirely:

    d_t rho + d_phi(Phi rho - D d_phi rho) - V d_y rho = 0,

so characteristics flow toward the wall and no boundary condition is
imposed at y = 0; instead the outgoing flux feeds an angular wall
density w(phi):

    d_t w + d_phi(Phi w - D d_phi w) = V rho|_{y=0}.

Discretely the bulk y-step is the kinetic model's implicit fitted-flux
step at eps = 0, where the flux is upwind from above (an upper
bidiagonal M-matrix, so non-negative data stay exactly non-negative),
with the wall face open: the wall gains exactly the discrete flux
through it, so the combined mass telescopes to machine precision. The
splitting, the angular substep, the march to snapshot times and the
health check are shared with the full solver.

The operator spot checks (coercivity gap, regularized resolvent bound)
live on a separate uniform whole-line y grid, because the underlying
inequalities are posed with unbounded y of both signs. The resolvent
system is solved by block elimination over the y rows. The probe
batteries coercivity_check and resolvent_check, and their bounds GAP_TOL
and SPREAD_MAX, live here too: acceptance criteria 11 and 12 and the
check-coercivity and check-resolvent subcommands run them.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .coefficients import ModelParams, mu0, validate_assumptions
from .errors import ConfigurationError, NumericalFailureError
from .full_solver import FullSolverConfig, _fitted_flux_coeffs, _march
from .grids import PhaseField, PhiGrid, YGrid, build_phi_grid, phi_derivative


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


def run_limit(s0: BulkWallState, params: ModelParams, cfg: FullSolverConfig,
              snapshot_times) -> list:
    """Integrate the limiting system, landing exactly on the requested
    times. Returns a list of (t, BulkWallState) pairs."""
    y_grid, phi_grid = s0.bulk.y_grid, s0.bulk.phi_grid
    validate_assumptions(params.V)
    V_nodes = params.V(phi_grid.nodes)
    a, b = _fitted_flux_coeffs(V_nodes, 0.0, y_grid)
    b[0] = V_nodes                              # the open wall face
    snaps = _march((s0.bulk.values, s0.wall), a, b, params, y_grid, phi_grid,
                   cfg, snapshot_times)
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

# Bounds of the two probe batteries below.
GAP_TOL = -1e-8       # worst coercivity gap must be >= GAP_TOL
_GAP_ROUNDOFF = 16    # the gap's round-off floor, in eps times its scale
SPREAD_MAX = 2.0      # resolvent ratio spread max/min must be < SPREAD_MAX


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
    V_nodes = params.V(u.phi_grid.nodes)
    Phi_nodes = params.Phi(u.phi_grid.nodes)
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
    V_nodes = params.V(phi_grid.nodes)
    Phi_nodes = params.Phi(phi_grid.nodes)
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
    block per row."""
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


def coercivity_check(params: ModelParams):
    """Gap of the accretivity inequality at the shift lam = mu0(Phi) + 1
    for random band-limited fields u = exp(-(y/sigma)^2) * (trig
    polynomial of degree <= 6). Returns the (sample, n_y, n_phi, lam, gap)
    rows, whether the worst gap meets worst >= GAP_TOL, and a one-line
    detail naming the worst gap and the bound. A non-finite gap, or a
    worst gap below GAP_TOL by no more than its round-off floor, says
    nothing about coercivity: NumericalFailureError."""
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
                samples.append((len(samples), n_y, n_phi, lam, gap))
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
    return samples, worst >= GAP_TOL, (
        f"min gap {worst:.3e} over {len(samples)} fields (tol {GAP_TOL:g})")


def resolvent_check(params: ModelParams):
    """Stability ratio of the resolvent solve at lam = mu0(Phi) + 1 for a
    fixed smooth right-hand side, one per regularization strength.
    Returns the (eps_reg, ratio) rows, whether their spread max/min meets
    spread < SPREAD_MAX, and a one-line detail naming the ratios, the
    spread and the bound. A zero or non-finite ratio has no spread:
    NumericalFailureError."""
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
    ratio_txt = ",".join(f"{r:.3f}" for r in ratios)
    return pairs, spread < SPREAD_MAX, (
        f"ratios [{ratio_txt}], spread {spread:.3f} (need < {SPREAD_MAX:g})")
