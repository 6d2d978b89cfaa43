"""Matched-asymptotics machinery: corrector coefficients, composite
approximations, and residual norms.

Notation used throughout this module: z = y/eps is the stretched wall
coordinate, w_hat the wall density, u0 the bulk density with wall trace
u0_hat. The corrector is a cubic polynomial m3(z) multiplying the layer
exponential e^{-Vz}; its coefficients (c1, c2, c3) are determined by
matching powers of z in m3'' - V m3' = A1 + A2 z + A3 z^2, where the
A-profiles collect the angular transport applied to the leading layer
by the product rule. The composites and the residual report take eps
in (0, inf) and speeds that are positive and finite only: grids' layer
quadratures refuse any others, and p0_coeffs refuses the same speeds.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .coefficients import AngularCoefficient, ModelParams
from .grids import (PhaseField, PhiGrid, YGrid, _layer_speeds,
                    phi_derivative, poly_exp_cell_averages, trace_wall,
                    wall_layer)
from .limit_solver import BulkWallState


@dataclass
class InnerExpansion:
    """Corrector data assembled from a bulk-wall state.

    The A-profiles eliminate d_t(w_hat) through the wall equation with
    the state's first bulk cell value (the exact discrete source the
    limit stepper feeds the wall), while compat_residual compares c1
    against -V times the second-order extrapolated wall trace u0_hat, so
    it measures the consistency of the limiting solve instead of being
    zero by construction. V_nodes are the nodal speeds the coefficients
    were built with, and the decay rates of the corrector layer.
    """

    c1: np.ndarray
    c2: np.ndarray
    c3: np.ndarray
    compat_residual: np.ndarray
    V_nodes: np.ndarray


@dataclass
class ResidualReport:
    l1_R: float
    l1_r: float


def _wall_rate(w, u0, Vv, Phiv, D: float):
    """d_t w by the wall equation d_t w = -d_phi(Phi w) + D d_phi^2 w + V u0."""
    return -phi_derivative(Phiv * w, 1) + D * phi_derivative(w, 2) + Vv * u0


def _transport(Q, dt_Q, Vp, Vpp, Phiv, D: float):
    """Coefficients of z^k, z^(k+1) and z^(k+2) in
    (d_t + d_phi(Phi .) - D d_phi^2)(Q z^k e^{-zV}) * e^{+zV}, collected
    by the product rule; they do not depend on k."""
    return (dt_Q + phi_derivative(Phiv * Q, 1) - D * phi_derivative(Q, 2),
            -Vp * Phiv * Q + D * (Vpp * Q + 2.0 * Vp * phi_derivative(Q, 1)),
            -D * Vp ** 2 * Q)


def a_coeffs(w_hat: np.ndarray, u0_hat: np.ndarray, V: AngularCoefficient,
             Phi: AngularCoefficient, D: float, phi_grid: PhiGrid):
    """Coefficients (A1, A2, A3) of z^0, z^1, z^2 in
    (d_t + d_phi(Phi .) - D d_phi^2)(w_hat V e^{-zV}) * e^{+zV}: the
    transport expansion of Q = w_hat V with d_t(w_hat) eliminated through
    the wall equation d_t w = -d_phi(Phi w) + D d_phi^2 w + V u0_hat.
    """
    Vv, Vp, Vpp = (V(phi_grid.nodes, k) for k in range(3))
    Phiv = Phi(phi_grid.nodes)
    w_hat = np.asarray(w_hat, dtype=float)
    dt_w = _wall_rate(w_hat, np.asarray(u0_hat, dtype=float), Vv, Phiv, D)
    return _transport(w_hat * Vv, Vv * dt_w, Vp, Vpp, Phiv, D)


def p0_coeffs(A1: np.ndarray, A2: np.ndarray, A3: np.ndarray,
              V_nodes: np.ndarray, u0_hat: np.ndarray):
    """Cubic corrector coefficients from matching powers of z in
    m3'' - V m3' = A1 + A2 z + A3 z^2 (the constant term of m3 is zero),
    plus the flux-compatibility defect at the wall.

        c3 = -A3/(3V);  c2 = (6 c3 - A2)/(2V);  c1 = (2 c2 - A1)/V;
        compat_residual = c1 + V u0_hat.

    The wall flux condition demands c1 = -V u0_hat exactly when the
    wall equation holds exactly; the residual measures the gap.
    Returns (c1, c2, c3, compat_residual). A speed that is not positive
    and finite: AssumptionViolationError.
    """
    V = _layer_speeds(V_nodes)
    A1 = np.asarray(A1, dtype=float)
    A2 = np.asarray(A2, dtype=float)
    A3 = np.asarray(A3, dtype=float)
    c3 = -A3 / (3.0 * V)
    c2 = (6.0 * c3 - A2) / (2.0 * V)
    c1 = (2.0 * c2 - A1) / V
    compat = c1 + V * np.asarray(u0_hat, dtype=float)
    return c1, c2, c3, compat


def build_inner(state: BulkWallState, params: ModelParams) -> InnerExpansion:
    """Assemble the corrector data from a limiting solve."""
    phi_grid = state.bulk.phi_grid
    V_nodes = params.V(phi_grid.nodes)
    A1, A2, A3 = a_coeffs(state.wall, state.bulk.values[0], params.V,
                          params.Phi, params.D, phi_grid)
    c1, c2, c3, compat = p0_coeffs(A1, A2, A3, V_nodes,
                                   trace_wall(state.bulk))
    return InnerExpansion(c1=c1, c2=c2, c3=c3, compat_residual=compat,
                          V_nodes=V_nodes)


def composite_simple(state: BulkWallState, eps: float,
                     V: AngularCoefficient) -> PhaseField:
    """Leading composite: wall layer carrying the wall density plus the
    bulk density, on the bulk's grids."""
    y_grid, phi_grid = state.bulk.y_grid, state.bulk.phi_grid
    layer = wall_layer(state.wall, V, eps, y_grid, phi_grid)
    return PhaseField(layer.values + state.bulk.values, y_grid, phi_grid)


def composite_refined(base: PhaseField, inner: InnerExpansion,
                      eps: float) -> PhaseField:
    """Refined composite: the leading composite base, as composite_simple
    returns it, plus the cubic corrector layer m3(y/eps) e^{-V y/eps}
    with inner's speeds, cell-averaged in closed form on base's grids."""
    coeffs = np.stack([np.zeros_like(inner.c1), inner.c1, inner.c2, inner.c3])
    corr = poly_exp_cell_averages(coeffs, inner.V_nodes, eps, base.y_grid)
    return PhaseField(base.values + corr, base.y_grid, base.phi_grid)


def _d2_y_nonuniform(values: np.ndarray, centers: np.ndarray) -> np.ndarray:
    """Three-point second derivative in y on possibly nonuniform centers."""
    out = np.zeros_like(values)
    hl = (centers[1:-1] - centers[:-2])[:, None]
    hr = (centers[2:] - centers[1:-1])[:, None]
    out[1:-1] = 2.0 * ((values[2:] - values[1:-1]) / hr
                       - (values[1:-1] - values[:-2]) / hl) / (hl + hr)
    out[0] = out[1]
    out[-1] = out[-2]
    return out


def residual_report(state: BulkWallState, inner: InnerExpansion,
                    params: ModelParams,
                    eval_y_grid: YGrid | None = None) -> ResidualReport:
    """L1 norms of the interior and wall defects of the refined composite.

    The kinetic operator applied to the refined composite reduces
    analytically to

        R = (d_t + d_phi(Phi .) - D d_phi^2)(m3(z) e^{-Vz}) - eps d_y^2 u0,

    because the wall-normal part annihilates the leading layer exactly
    and the corrector ODE cancels the A-profile source. The first part
    expands into sum_k q_k(phi) z^k e^{-Vz} (k <= 5) by the product
    rule; time derivatives of the corrector coefficients come from the
    limiting equations (the coefficient maps are linear in the pair
    (w_hat, u0)), never from time differencing. The wall defect is
    r = -eps d_y u0|_{y=0} by one-sided differencing.
    """
    eps = params.epsilon
    phi_grid = state.bulk.phi_grid
    y_lim = state.bulk.y_grid
    eval_y = eval_y_grid or y_lim
    Vv, Vp, Vpp = (params.V(phi_grid.nodes, k) for k in range(3))
    Phiv = params.Phi(phi_grid.nodes)
    D = params.D

    rho = state.bulk.values
    centers = y_lim.centers

    # time derivatives straight from the limiting equations
    dy_rho = np.gradient(rho, centers, axis=0)
    dt_rho = (Vv[None, :] * dy_rho
              - phi_derivative(Phiv[None, :] * rho, 1)
              + D * phi_derivative(rho, 2))
    dt_w = _wall_rate(state.wall, rho[0], Vv, Phiv, D)
    dt_A = a_coeffs(dt_w, dt_rho[0, :], params.V, params.Phi, D, phi_grid)
    dt_cs = p0_coeffs(*dt_A, Vv, np.zeros_like(Vv))[:3]

    q = np.zeros((6, phi_grid.n_phi))
    for k, (ck, dt_ck) in enumerate(zip((inner.c1, inner.c2, inner.c3),
                                        dt_cs), start=1):
        q[k:k + 3] += _transport(ck, dt_ck, Vp, Vpp, Phiv, D)

    layer_part = poly_exp_cell_averages(q, Vv, eps, eval_y)

    d2rho = _d2_y_nonuniform(rho, centers)
    bulk_part = np.empty((eval_y.n_y, phi_grid.n_phi))
    for j in range(phi_grid.n_phi):
        bulk_part[:, j] = np.interp(eval_y.centers, centers, d2rho[:, j])

    R = layer_part - eps * bulk_part
    l1_R = float(np.sum(np.abs(R) * eval_y.widths[:, None]) * phi_grid.h)

    r = -eps * (rho[1, :] - rho[0, :]) / (centers[1] - centers[0])
    l1_r = float(np.sum(np.abs(r)) * phi_grid.h)
    return ResidualReport(l1_R=l1_R, l1_r=l1_r)
