"""Grids, fields and quadrature helpers.

The computational domain is the half strip (0, y_max) x [0, 2*pi). The
wall-normal grid is cell centered and graded: a uniform block of
`layer_cells` cells covers [0, layer_width] (resolving the thin wall
layer), and the remaining cells stretch geometrically up to y_max. The
angular grid is uniform with nodes phi_j = 2*pi*j/n_phi; each node owns
the cell [phi_j - h/2, phi_j + h/2).

Closed-form cell integrals of exp(-V y / eps) and of polynomial times
exponential layer profiles live here too, since several modules rely on
them agreeing to machine precision. The layer e^{-V y/eps}/eps exists
only for 0 < eps < inf and finite speeds V > 0: these two refuse any
other eps or speed before any arithmetic, and so all built on them does.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .coefficients import AngularCoefficient
from .errors import AssumptionViolationError, ConfigurationError, GridError

_MAX_STRETCH_RATIO = 2.0


@dataclass(frozen=True)
class PhiGrid:
    """Uniform periodic angular grid."""

    n_phi: int
    nodes: np.ndarray
    h: float

    @property
    def faces(self):
        # face j sits between node j and node j+1 (mod n)
        return self.nodes + 0.5 * self.h


@dataclass(frozen=True)
class YGrid:
    """Graded cell-centered wall-normal grid on [0, y_max]."""

    faces: np.ndarray
    centers: np.ndarray
    widths: np.ndarray

    @property
    def n_y(self) -> int:
        return self.centers.size


@dataclass
class PhaseField:
    """Cell values on the tensor grid: shape (n_y, n_phi).

    Values are understood as cell averages in y at angular nodes.
    """

    values: np.ndarray
    y_grid: YGrid
    phi_grid: PhiGrid

    def __post_init__(self):
        self.values = np.asarray(self.values, dtype=float)
        expected = (self.y_grid.n_y, self.phi_grid.n_phi)
        if self.values.shape != expected:
            raise ConfigurationError(
                f"field shape {self.values.shape} does not match grid {expected}"
            )


def build_phi_grid(n_phi: int) -> PhiGrid:
    n_phi = int(n_phi)
    if n_phi < 4:
        raise GridError(f"need at least 4 angular nodes, got {n_phi}")
    h = 2.0 * np.pi / n_phi
    nodes = h * np.arange(n_phi)
    return PhiGrid(n_phi=n_phi, nodes=nodes, h=h)


def _solve_stretch_ratio(delta: float, rest: float, n_stretch: int) -> float:
    """Ratio r >= 1 with delta * sum_{k=1..n} r^k = rest, by bisection.

    Widths must grow monotonically away from the wall, so r < 1 requests
    (stretched region smaller than the uniform continuation) are rejected.
    """
    k = np.arange(1, n_stretch + 1, dtype=float)

    def total(r: float) -> float:
        # past about 512 cells r ** k overflows to inf before r = 4, which
        # compares right: it is no error
        with np.errstate(over="ignore"):
            return float(delta * np.sum(r ** k))

    target = rest
    at_one = total(1.0)
    if abs(at_one - target) <= 1e-12 * target:
        return 1.0
    if at_one > target:
        raise GridError(
            "stretched region would need shrinking cells; "
            "decrease n_y or layer_cells"
        )
    lo, hi = 1.0, 4.0
    if total(hi) < target:
        raise GridError(
            "stretched region cannot reach y_max even at ratio 4; "
            "increase n_y or the layer cell budget"
        )
    for _ in range(200):
        mid = 0.5 * (lo + hi)
        if total(mid) < target:
            lo = mid
        else:
            hi = mid
        if hi - lo <= 1e-15 * hi:
            break
    return 0.5 * (lo + hi)


def build_y_grid(y_max: float, n_y: int, layer_width: float,
                 layer_cells: int) -> YGrid:
    """Graded wall-normal grid: uniform layer block plus geometric stretch.

    Preconditions: y_max > layer_width > 0 and n_y > layer_cells >= 8.
    The stretch ratio must not exceed 2, else the request is rejected.
    """
    y_max = float(y_max)
    layer_width = float(layer_width)
    n_y = int(n_y)
    layer_cells = int(layer_cells)
    if not (y_max > layer_width > 0.0):
        raise GridError(
            f"need y_max > layer_width > 0, got y_max={y_max}, "
            f"layer_width={layer_width}"
        )
    if layer_cells < 8:
        raise GridError(f"need layer_cells >= 8, got {layer_cells}")
    if n_y <= layer_cells:
        raise GridError(f"need n_y > layer_cells, got n_y={n_y}, "
                        f"layer_cells={layer_cells}")

    delta = layer_width / layer_cells
    n_stretch = n_y - layer_cells
    rest = y_max - layer_width

    r = _solve_stretch_ratio(delta, rest, n_stretch)
    if r > _MAX_STRETCH_RATIO * (1.0 + 1e-9):
        raise GridError(
            f"required stretch ratio {r:.4g} exceeds {_MAX_STRETCH_RATIO}; "
            "the far region would be under-resolved"
        )

    uniform_faces = np.linspace(0.0, layer_width, layer_cells + 1)
    stretch_widths = delta * r ** np.arange(1, n_stretch + 1, dtype=float)
    # normalize the cumulative drift so the last face lands exactly on y_max
    stretch_widths *= rest / stretch_widths.sum()
    stretch_faces = layer_width + np.cumsum(stretch_widths)
    stretch_faces[-1] = y_max
    faces = np.concatenate([uniform_faces, stretch_faces])
    centers = 0.5 * (faces[:-1] + faces[1:])
    widths = np.diff(faces)
    return YGrid(faces=faces, centers=centers, widths=widths)


def norms(field: PhaseField) -> dict:
    """L1 norm and total mass of a phase field."""
    w = field.y_grid.widths[:, None]
    h = field.phi_grid.h
    vol = w * h
    vals = field.values
    return {
        "l1": float(np.sum(np.abs(vals) * vol)),
        "mass": float(np.sum(vals * vol)),
    }


def trace_wall(field: PhaseField) -> np.ndarray:
    """Wall value per angle by linear extrapolation from the first two
    cell centers. Exact for fields linear in y."""
    c = field.y_grid.centers
    if c.size < 2:
        raise GridError("wall trace needs at least two cells")
    c1, c2 = c[0], c[1]
    v1, v2 = field.values[0, :], field.values[1, :]
    return v1 * c2 / (c2 - c1) - v2 * c1 / (c2 - c1)


def _check_layer_eps(eps: float) -> None:
    if not 0.0 < eps < np.inf:
        raise ConfigurationError(
            f"the wall layer needs 0 < eps < inf, got eps = {eps}")


def _layer_speeds(V_nodes) -> np.ndarray:
    """The nodal speeds as a float array, once every one is known to be
    positive and finite, as the wall layer needs."""
    V = np.asarray(V_nodes, dtype=float)
    if not np.all((0.0 < V) & (V < np.inf)):
        raise AssumptionViolationError(
            f"the wall layer needs a positive finite speed at every node; "
            f"min {np.min(V):.6g}")
    return V


def exp_cell_integrals(V_nodes: np.ndarray, eps: float,
                       faces: np.ndarray) -> np.ndarray:
    """Exact integrals of exp(-V y / eps) over every y cell, per angle.

    Returns shape (n_y, n_phi). Stable for arbitrarily stiff layers: the
    exponentials only ever underflow to zero. eps outside (0, inf):
    ConfigurationError; a speed not positive and finite:
    AssumptionViolationError.
    """
    _check_layer_eps(eps)
    V = _layer_speeds(V_nodes)[None, :]
    y = np.asarray(faces, dtype=float)[:, None]
    E = np.exp(-V * y / eps)
    return (eps / V) * (E[:-1, :] - E[1:, :])


def exp_cell_averages(V_nodes: np.ndarray, eps: float,
                      y_grid: YGrid) -> np.ndarray:
    I = exp_cell_integrals(V_nodes, eps, y_grid.faces)
    return I / y_grid.widths[:, None]


def wall_layer(w_hat: np.ndarray, V: AngularCoefficient, eps: float,
               y_grid: YGrid, phi_grid: PhiGrid) -> PhaseField:
    """Exact cell averages of the wall layer (1/eps) w_hat(phi) V(phi)
    e^{-V y / eps}, which carries mass w_hat per angle up to domain
    truncation."""
    w_hat = np.asarray(w_hat, dtype=float)
    V_nodes = V(phi_grid.nodes)
    avg = exp_cell_averages(V_nodes, eps, y_grid)
    return PhaseField((w_hat * V_nodes / eps)[None, :] * avg, y_grid, phi_grid)


def poly_exp_cell_averages(coeffs: np.ndarray, V_nodes: np.ndarray,
                           eps: float, y_grid: YGrid) -> np.ndarray:
    """Exact cell averages of sum_k c_k(phi) * z^k * exp(-V z), z = y/eps.

    coeffs has shape (k_max + 1, n_phi). Uses the closed-form
    antiderivative of z^k exp(-V z); no quadrature error. eps or speeds
    as exp_cell_integrals refuses them: the same errors.
    """
    _check_layer_eps(eps)
    V = _layer_speeds(V_nodes)[None, :]
    coeffs = np.atleast_2d(np.asarray(coeffs, dtype=float))
    z = (y_grid.faces / eps)[:, None]
    E = np.exp(-V * z)
    out = np.zeros((y_grid.n_y, V.shape[1]))
    kmax = coeffs.shape[0] - 1
    for k in range(kmax + 1):
        ck = coeffs[k]
        if not np.any(ck):
            continue
        # S_k(z) = sum_{i=0..k} k!/(k-i)! * z^(k-i) / V^(i+1)
        S = np.zeros_like(E)
        fact = 1.0
        for i in range(k + 1):
            if i > 0:
                fact *= (k - i + 1)
            S += fact * z ** (k - i) / V ** (i + 1)
        T = E * S  # -d/dz (T) = z^k exp(-Vz) ... up to sign handled below
        out += ck[None, :] * eps * (T[:-1, :] - T[1:, :])
    return out / y_grid.widths[:, None]


def phi_derivative(values: np.ndarray, order: int = 1) -> np.ndarray:
    """Spectral derivative along the periodic last (angle) axis.

    Exact for trigonometric polynomials below the Nyquist mode; the odd
    derivative of the unpaired Nyquist mode is set to zero as usual.
    """
    values = np.asarray(values, dtype=float)
    n = values.shape[-1]
    k = np.arange(n // 2 + 1, dtype=float)
    mult = (1j * k) ** order
    if order % 2 == 1 and n % 2 == 0:
        mult[-1] = 0.0
    return np.fft.irfft(np.fft.rfft(values) * mult, n=n)


def overlap_average_y(src_faces: np.ndarray, src_values: np.ndarray,
                      tgt_faces: np.ndarray) -> np.ndarray:
    """Conservatively re-average piecewise-constant cell data in y.

    src_values has shape (n_src, ...) with cells given by src_faces.
    Target faces must lie inside the source span. Exact for the
    piecewise-constant density: cumulative mass is interpolated linearly.
    """
    src_faces = np.asarray(src_faces, dtype=float)
    tgt_faces = np.asarray(tgt_faces, dtype=float)
    if tgt_faces[0] < src_faces[0] - 1e-12 or tgt_faces[-1] > src_faces[-1] + 1e-12:
        raise GridError("target grid extends beyond the source grid")
    w_src = np.diff(src_faces)
    vals = np.asarray(src_values, dtype=float)
    cum = np.concatenate(
        [np.zeros((1,) + vals.shape[1:]),
         np.cumsum(vals * w_src.reshape((-1,) + (1,) * (vals.ndim - 1)), axis=0)],
        axis=0)
    idx = np.clip(np.searchsorted(src_faces, tgt_faces, side="right") - 1,
                  0, len(w_src) - 1)
    frac = tgt_faces - src_faces[idx]
    cum_t = cum[idx] + vals[idx] * frac.reshape((-1,) + (1,) * (vals.ndim - 1))
    w_tgt = np.diff(tgt_faces)
    return np.diff(cum_t, axis=0) / w_tgt.reshape((-1,) + (1,) * (vals.ndim - 1))


def aggregate_phi(values: np.ndarray, factor: int) -> np.ndarray:
    """Conservatively aggregate node-centered angular cells by an integer
    factor. Coarse cell k is centered on fine node factor*k; for even
    factors the two straddling fine cells contribute half each."""
    values = np.asarray(values, dtype=float)
    n = values.shape[-1]
    factor = int(factor)
    if factor < 1 or n % factor:
        raise GridError(f"angular size {n} not divisible by factor {factor}")
    half = factor // 2
    offsets = np.arange(-half, half + 1)
    weights = np.ones(offsets.size)
    if factor % 2 == 0:
        weights[0] = weights[-1] = 0.5
    coarse_idx = np.arange(0, n, factor)
    out = np.zeros(values.shape[:-1] + (coarse_idx.size,))
    for off, wgt in zip(offsets, weights):
        out += wgt * values[..., (coarse_idx + off) % n]
    return out / factor
