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
making the discrete orthogonality exact to round-off.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .coefficients import AngularCoefficient
from .errors import ConfigurationError, NumericalFailureError
from .grids import PhaseField, eval_on_nodes, exp_cell_integrals, norms


@dataclass
class Decomposition:
    m: np.ndarray
    u: PhaseField
    epsilon: float


def decompose(f: PhaseField, V: AngularCoefficient, eps: float) -> Decomposition:
    """Split f into layer amplitude m and orthogonal remainder u.

    The orthogonality defect max_phi |sum_i u_i I_i| is asserted below
    1e-8 * ||f||_L1; with the Gram normalization it sits at round-off.
    """
    if eps <= 0:
        raise ConfigurationError(f"eps must be positive, got {eps}")
    y_grid, phi_grid = f.y_grid, f.phi_grid
    V_nodes = eval_on_nodes(V, phi_grid)
    I = exp_cell_integrals(V_nodes, eps, y_grid.faces)
    w = y_grid.widths[:, None]

    pairing = np.sum(f.values * I, axis=0)
    S = np.sum(I * I / w, axis=0)
    m = eps * pairing / S

    layer_avg = I / w          # exact cell averages of e^{-Vy/eps}
    u_vals = f.values - (m / eps)[None, :] * layer_avg
    u = PhaseField(u_vals, y_grid, phi_grid)

    defect = float(np.max(np.abs(np.sum(u_vals * I, axis=0))))
    scale = norms(f)["l1"]
    if defect > 1e-8 * max(scale, 1e-300):
        raise NumericalFailureError(
            f"decomposition lost orthogonality: defect {defect:.3e} "
            f"exceeds 1e-8 * ||f|| = {1e-8 * scale:.3e}"
        )
    return Decomposition(m=m, u=u, epsilon=eps)


def energy_step(dec: Decomposition, V: AngularCoefficient):
    """Energy E = integral(u^2) + integral(m^2 / 4V) and the wall-normal
    dissipation eps * integral((d_y u)^2), with the wall derivative by
    first-order one-sided difference. Returns (E, dissipation)."""
    u = dec.u
    y_grid, phi_grid = u.y_grid, u.phi_grid
    h = phi_grid.h
    V_nodes = eval_on_nodes(V, phi_grid)

    E = float(np.sum(u.values ** 2 * y_grid.widths[:, None]) * h
              + np.sum(dec.m ** 2 / (4.0 * V_nodes)) * h)

    d = np.diff(y_grid.centers)[:, None]
    slopes = (u.values[1:, :] - u.values[:-1, :]) / d
    # interior faces weighted by center distances; the wall sample reuses
    # the first interior slope over the wall-to-first-center gap
    diss_density = np.sum(slopes ** 2 * d, axis=0) \
        + slopes[0, :] ** 2 * y_grid.centers[0]
    dissipation = float(dec.epsilon * np.sum(diss_density) * h)
    return E, dissipation


def weak_pairings(dec: Decomposition, tests) -> list:
    """Angular pairings of m against test profiles: integral(m h dphi).

    tests is a list of (name, values) pairs, as default_tests gives."""
    h = dec.u.phi_grid.h
    return [float(np.sum(dec.m * np.asarray(vals, dtype=float)) * h)
            for _, vals in tests]


def default_tests(phi_grid) -> list:
    return [
        ("one", np.ones(phi_grid.n_phi)),
        ("cos", np.cos(phi_grid.nodes)),
        ("sin", np.sin(phi_grid.nodes)),
    ]

