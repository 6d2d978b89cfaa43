"""Orthogonal layer/remainder decomposition and energy monitors for the
zero-angular-diffusion problem.

A field f splits as f = (m/eps) e^{-V y/eps} + u with the remainder u
orthogonal to the layer weight e^{-V y/eps} in the y-integral sense,
per angle. In the continuum m = 2V * integral(f e^{-Vy/eps} dy); on a
finite grid the literal scaling leaves an orthogonality defect at
cell-averaging size, so the pairing is normalized by the discrete Gram
factor of the layer profile instead:

    m = eps * pairing(f) / S,   S(phi) = sum_i I_i^2 / w_i,

with I_i the exact cell integral of the weight. S -> eps/(2V) as the
grid resolves the layer, so this converges to the 2V scaling while
making the discrete orthogonality exact to round-off. The layer weight
exists only for 0 < eps < inf and positive finite speeds;
exp_cell_integrals refuses any others.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .coefficients import AngularCoefficient
from .errors import NumericalFailureError
from .grids import PhaseField, exp_cell_integrals, norms


@dataclass
class Decomposition:
    """Layer amplitude m and remainder u at eps, the nodal speeds V_nodes
    of the layer weight, and the defect max_phi |sum_i u_i I_i| / ||f||_L1."""

    m: np.ndarray
    u: PhaseField
    epsilon: float
    V_nodes: np.ndarray
    defect: float


def decompose(f: PhaseField, V: AngularCoefficient, eps: float) -> Decomposition:
    """Split f into layer amplitude m and orthogonal remainder u.

    The orthogonality defect is asserted below 1e-8; with the Gram
    normalization it sits at round-off.
    """
    y_grid, phi_grid = f.y_grid, f.phi_grid
    V_nodes = V(phi_grid.nodes)
    I = exp_cell_integrals(V_nodes, eps, y_grid.faces)
    w = y_grid.widths[:, None]

    pairing = np.sum(f.values * I, axis=0)
    S = np.sum(I * I / w, axis=0)
    m = eps * pairing / S

    layer_avg = I / w          # exact cell averages of e^{-Vy/eps}
    u_vals = f.values - (m / eps)[None, :] * layer_avg
    u = PhaseField(u_vals, y_grid, phi_grid)

    defect = float(np.max(np.abs(np.sum(u_vals * I, axis=0)))) \
        / max(norms(f)["l1"], 1e-300)
    if defect > 1e-8:
        raise NumericalFailureError(
            f"decomposition lost orthogonality: defect {defect:.3e} "
            f"of ||f||_L1 exceeds 1e-8")
    return Decomposition(m=m, u=u, epsilon=eps, V_nodes=V_nodes,
                         defect=defect)


def energy_step(dec: Decomposition):
    """Energy E = integral(u^2) + integral(m^2 / 4V) and the wall-normal
    dissipation eps * integral((d_y u)^2), with the wall derivative by
    first-order one-sided difference. Returns (E, dissipation)."""
    u = dec.u
    y_grid, phi_grid = u.y_grid, u.phi_grid
    h = phi_grid.h

    E = float(np.sum(u.values ** 2 * y_grid.widths[:, None]) * h
              + np.sum(dec.m ** 2 / (4.0 * dec.V_nodes)) * h)

    d = np.diff(y_grid.centers)[:, None]
    slopes = (u.values[1:, :] - u.values[:-1, :]) / d
    # interior faces weighted by center distances; the wall sample reuses
    # the first interior slope over the wall-to-first-center gap
    diss_density = np.sum(slopes ** 2 * d, axis=0) \
        + slopes[0, :] ** 2 * y_grid.centers[0]
    dissipation = float(dec.epsilon * np.sum(diss_density) * h)
    return E, dissipation


def weak_pairings(m: np.ndarray, phi_grid) -> list:
    """Angular pairings integral(m h dphi) of a wall profile m at the
    nodes of phi_grid against the test profiles h = 1, cos phi and
    sin phi, as (name, value) pairs."""
    tests = (("one", np.ones(phi_grid.n_phi)), ("cos", np.cos(phi_grid.nodes)),
             ("sin", np.sin(phi_grid.nodes)))
    return [(name, float(np.sum(m * vals) * phi_grid.h))
            for name, vals in tests]

