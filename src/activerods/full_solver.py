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
block to machine precision. Its tridiagonal matrix changes only with the
step size, so it is factored once per step size, by cyclic reduction in
y over all angle columns at once, and every step runs only the
precomputed eliminations: nine numpy calls per level of the reduction,
fewer where a multiplier is zero everywhere and its product is left out
(which changes at most the sign of a zero), log2(n_y) levels, and no
loop over rows. The work buffer keeps the even rows and the odd rows in
two halves, so the first level, half of all the work, runs on
contiguous memory. The matrix is an M-matrix and every multiplier of the
solve is non-negative, so the step maps non-negative data to exactly
non-negative data. The phi-substep is explicit conservative upwind plus
centered diffusion, sub-cycled under a CFL bound. Its set-up (the
sub-cycle count and the two face weights of the flux with the step
folded in) is cached per drift, D, h and dt, so each sub-cycle is five
numpy passes and no gather.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .coefficients import ModelParams, sup_abs, validate_assumptions
from .errors import ConfigurationError, NumericalFailureError
from .grids import PhaseField, YGrid, PhiGrid, wall_layer

# Most equal steps one snapshot segment, or one angular substep's CFL
# sub-cycling, may take; a request for more is a configuration error.
_MAX_STEPS = 10 ** 6


@dataclass(frozen=True)
class FullSolverConfig:
    dt: object = "auto"          # positive float, or "auto" for the CFL bound
    splitting: str = "lie"       # "lie" (y then phi) or "strang"
    safety = 0.9                 # fraction of the angular CFL bound taken

    def __post_init__(self):
        if self.splitting not in ("lie", "strang"):
            raise ConfigurationError(
                f"splitting must be 'lie' or 'strang', got {self.splitting!r}"
            )
        if self.dt != "auto":
            if not (isinstance(self.dt, (int, float)) and self.dt > 0):
                raise ConfigurationError(f"dt must be positive or 'auto', got {self.dt!r}")


def resolve_dt(params: ModelParams, phi_grid: PhiGrid,
               cfg: FullSolverConfig) -> float:
    """The configured step, or for dt = "auto" the stable explicit step
    of the angular substep (0.05 when the angular operator vanishes).
    The combined bound

        dt <= safety / (max|Phi|/h + 2 D / h^2)

    implies both of the individual advective and diffusive bounds."""
    if cfg.dt != "auto":
        return float(cfg.dt)
    h = phi_grid.h
    denom = sup_abs(params.Phi, 0) / h + 2.0 * params.D / h ** 2
    return 0.05 if denom <= 0.0 else cfg.safety / denom


def _fitted_flux_coeffs(V_nodes: np.ndarray, eps: float, y_grid: YGrid):
    """Per-face coefficients of the exponentially fitted flux.

    Returns (a, b), each shaped (n_y + 1, n_phi), with
    G_face_i = a_i * f_{i-1} - b_i * f_i for interior faces and
    a = b = 0 on the wall and top faces (no-flux). At eps = 0 the Peclet
    number is infinite and the flux is upwind from above, a = 0 and
    b = V exactly: the limiting system's bulk flux once its caller opens
    the wall face (b_0 = V).
    """
    n_y = y_grid.n_y
    V = np.asarray(V_nodes, dtype=float)[None, :]
    a = np.zeros((n_y + 1, V.shape[1]))
    b = np.zeros_like(a)
    d = np.diff(y_grid.centers)[:, None]            # distances, faces 1..n-1
    # a Peclet number beyond float range, or eps = 0, is the upwind limit
    # rho = inf: then a = 0 and b = V below, so it is no error
    with np.errstate(over="ignore", divide="ignore"):
        rho = V * d / eps
    den = -np.expm1(-rho)                           # 1 - e^{-rho}, stable
    a[1:n_y, :] = V * np.exp(-rho) / den
    b[1:n_y, :] = V / den
    return a, b


def _factor_columns(lower: np.ndarray, diag: np.ndarray,
                    upper: np.ndarray):
    """Factor the tridiagonal system of every angle column at once by
    cyclic reduction and return solve(rhs), which runs only the
    precomputed eliminations.

    All arguments are shaped (n_y, n_phi); row i of column j reads
    lower[i, j] x[i-1, j] + diag[i, j] x[i, j] + upper[i, j] x[i+1, j]
    = rhs[i, j] (lower[0] and upper[-1] are ignored). Each level of the
    reduction takes the rows at a stride 2^k from the wall, eliminates the
    odd ones of them from the even ones, and halves the system, until only
    the wall row is left; the back-substitution then recovers the odd rows
    of each level from the even ones. The factorization keeps, per level,
    the multipliers that add the odd rows into the even ones, the negated
    off-diagonals and reciprocal pivots of the back-substitution, and the
    views of one work buffer that each of them acts on, so that a solve is
    at most nine numpy calls per level and no loop over rows.

    The columns lie end to end, each padded with identity rows to a
    power-of-two length of at least 2, and the work buffer holds their
    even rows in one half and their odd rows in the other, so that the
    first level, which carries half of all the work, runs on two
    contiguous halves and the rows of every later level are a single
    strided view of the even half. The system stays block diagonal, so the
    multipliers that join two columns, or a column and its padding, are
    zeros, and x + 0 * y is x for finite y: the padding rows stay zero,
    and each column comes out as if solved alone. A multiplier that is
    zero everywhere (the sub-diagonal ones of an upper bidiagonal system,
    and those of the last level that only join columns) has its product
    left out of the solve, which changes nothing but, at most, the sign
    of a zero.

    For an M-matrix (positive diagonal, non-positive off-diagonals,
    non-negative inverse), which the y-operator is at every eps, every
    reduced system is one too, so every multiplier is non-negative and a
    solve only multiplies and adds: a non-negative rhs gives an exactly
    non-negative solution. Raises NumericalFailureError if a reduced pivot
    is not positive and finite or the elimination overflows."""
    n_y, n_phi = diag.shape
    size = max(2, 1 << (n_y - 1).bit_length())     # rows per padded column
    buf = np.zeros((2, n_phi, size // 2))           # even rows | odd rows
    d = np.ones((n_phi, size))
    d[:, :n_y] = diag.T
    lo, up = np.zeros_like(d), np.zeros_like(d)
    lo[:, 1:n_y] = lower[1:].T
    up[:, :n_y - 1] = upper[:-1].T
    d, lo, up = d.reshape(-1), lo.reshape(-1), up.reshape(-1)
    down, back, pivots = [], [], []

    def add_product(ops, m, x, acc):
        """Append acc += m * x, through a work array, to ops, unless m is
        zero everywhere."""
        if m.any():
            tmp = np.empty_like(m)
            ops += [(np.multiply, m, x, tmp), (np.add, acc, tmp, acc)]

    # an overflow, a division by zero or an invalid operation stops the
    # factorization; a NaN or an infinity in the input reaches a reduced
    # pivot, whose reciprocal is then not positive
    even, odd = buf.reshape(2, -1)
    try:
        with np.errstate(over="raise", divide="raise", invalid="raise",
                         under="ignore"):
            while True:
                d_odd, lo_odd, up_odd = d[1::2], lo[1::2], up[1::2]
                left = -lo[2::2] / d_odd[:-1]
                right = -up[::2] / d_odd
                add_product(down, left, odd[:-1], even[1:])
                add_product(down, right, odd, even)
                level = []
                add_product(level, -lo_odd, even, odd)
                add_product(level, -up_odd[:-1], even[1:], odd[:-1])
                pivots.append(1.0 / d_odd)
                level.append((np.multiply, pivots[-1], odd, odd))
                back = level + back
                d = d[::2].copy()
                d[1:] += left * up_odd[:-1]
                d += right * lo_odd
                if d.size == n_phi:
                    break
                lo = np.zeros_like(d)
                lo[1:] = left * lo_odd[:-1]
                up = right * up_odd
                even, odd = even[::2], even[1::2]
            pivots.append(1.0 / d)
            failed = not (np.concatenate(pivots) > 0.0).all()
    except FloatingPointError:
        failed = True
    if failed:
        raise NumericalFailureError(
            "tridiagonal y-operator has a pivot that is not positive and "
            "finite")
    # the last level's even rows are the wall rows, one per column
    ops = down + [(np.multiply, pivots[-1], even, even)] + back
    n_even = (n_y + 1) // 2
    real = buf[0, :, :n_even], buf[1, :, :n_y // 2]
    padding = buf[0, :, n_even:], buf[1, :, n_y // 2:]

    def solve(rhs: np.ndarray) -> np.ndarray:
        np.copyto(real[0], rhs.T[:, ::2])
        np.copyto(real[1], rhs.T[:, 1::2])
        # a solve of finite data leaves the padding zero; this keeps a
        # non-finite one from reaching the next
        for rows in padding:
            rows.fill(0.0)
        for op, m, x, out in ops:
            op(m, x, out)
        out = np.empty((n_phi, n_y))
        out[:, ::2], out[:, 1::2] = real
        return out.T

    return solve


def _implicit_y_step(a: np.ndarray, b: np.ndarray, widths: np.ndarray,
                     dt: float):
    """Backward-Euler step of d_t f + (G_{i+1} - G_i)/w_i = 0 with the
    linear flux G_i = a_i f_{i-1} - b_i f_i, factored once for the step
    size dt by _factor_columns: returns the step (f, *walls) ->
    (f_new, *walls_new).

    Each wall density gains exactly what left through the wall face,
    dt b_0 f_0_new, so the mass of f plus a wall telescopes; with the wall
    face closed (b_0 = 0) f alone is exactly conservative."""
    r = dt / widths[:, None]
    solve = _factor_columns(-r * a[:-1, :], 1.0 + r * (a[1:, :] + b[:-1, :]),
                            -r * b[1:, :])
    gain = dt * b[0]

    def step(state):
        f = solve(state[0])
        return (f, *(wall + gain * f[0] for wall in state[1:]))

    return step


def _step_count(span: float, step: float, what: str, remedy: str) -> int:
    """Number of equal steps of at most `step` that cover `span`:
    ceil(span / step), less a 1e-12 slack so that an exact multiple is not
    rounded up, and at least one. Raises ConfigurationError when that is
    not finite or exceeds _MAX_STEPS."""
    n = span / step - 1e-12 if step > 0.0 else math.inf
    if not n <= _MAX_STEPS:
        raise ConfigurationError(
            f"{what} needs {n:.3g} steps, more than {_MAX_STEPS}; {remedy}")
    return max(1, math.ceil(n))


@lru_cache(maxsize=256)
def _angular_setup(Phi_bytes: bytes, D: float, h: float, dt: float):
    """Check phi_substep's arguments (the drift as its float64 bytes) and
    return (n_sub, own, nxt): the sub-cycle count, 0 when the substep is
    the identity, and the face weights as read-only angle-major columns.

    With c = (dt / n_sub) / h, the flux through face j + 1/2 times c is
    own_j u_j + nxt_j u_{j+1}, where own = c (max(Phi, 0) + D / h) and
    nxt = c (min(Phi, 0) - D / h)."""
    Phi_face = np.frombuffer(Phi_bytes)
    if not (math.isfinite(dt) and dt >= 0.0):
        raise ConfigurationError(
            f"angular substep needs a finite dt >= 0, got {dt!r}")
    if not (math.isfinite(D) and D >= 0.0):
        raise ConfigurationError(
            f"angular diffusion D must be finite and >= 0, got {D!r}")
    if not (math.isfinite(h) and h > 0.0):
        raise ConfigurationError(
            f"angular cell width h must be finite and > 0, got {h!r}")
    if not np.isfinite(Phi_face).all():
        raise ConfigurationError("angular drift Phi has non-finite values")
    drain = np.maximum(Phi_face, 0.0) - np.minimum(
        np.concatenate((Phi_face[-1:], Phi_face[:-1])), 0.0)
    denom = float(np.max(drain)) / h + 2.0 * D / h ** 2
    if denom <= 0.0 or dt == 0.0:
        return 0, None, None
    n_sub = _step_count(dt, FullSolverConfig.safety / denom,
                        "angular sub-cycling at the CFL bound",
                        "reduce dt or D, or use fewer angles")
    c = (dt / n_sub) / h
    Phi = Phi_face[:, None]
    own = c * (np.maximum(Phi, 0.0) + D / h)
    nxt = c * (np.minimum(Phi, 0.0) - D / h)
    own.flags.writeable = nxt.flags.writeable = False
    return n_sub, own, nxt


def phi_substep(values: np.ndarray, Phi_face: np.ndarray, D: float,
                h: float, dt: float) -> np.ndarray:
    """Explicit conservative angular substep, sub-cycled at
    FullSolverConfig.safety of the CFL bound.

    Upwinds on the sign of Phi at each face, centered two-point
    diffusion. Works on any array whose last axis is the angle; the
    result is laid out angle-major in memory. The sub-cycle bound counts
    the outflow through both faces of a cell (Phi can change sign outward
    across one), which keeps non-negative values non-negative.

    Each sub-cycle forms the face fluxes F = own u + nxt u_{j+1} from the
    weights of _angular_setup, which fold in the step and are built once
    per drift, D, h and dt, and takes u -= F_j - F_{j-1}, so that mass
    telescopes. Raises ConfigurationError for a negative or non-finite dt
    or D, an h that is not positive and finite, a non-finite Phi_face, or
    more than _MAX_STEPS sub-cycles; dt = 0 or a vanishing operator
    returns a copy."""
    n_sub, own, nxt = _angular_setup(
        np.asarray(Phi_face, dtype=float).tobytes(), D, h, dt)
    # angle-major, so that shifting the angle by one is a copy of
    # contiguous blocks; it is also the layout of the y-solve's columns,
    # so neither substep transposes the other's output. The work arrays
    # come first, so that the result does not sit above their freed space
    # on the heap: the other order held up to 1.5 MiB more memory over the
    # grid criteria.
    n_phi = values.shape[-1]
    F, tmp = np.empty((2, n_phi, values.size // n_phi))
    out = np.array(values.transpose(-1, *range(values.ndim - 1)),
                   dtype=float, order="C")
    u = out.reshape(n_phi, -1)
    for _ in range(n_sub):
        np.multiply(own, u, out=F)
        np.multiply(nxt[:-1], u[1:], out=tmp[:-1])
        np.multiply(nxt[-1:], u[:1], out=tmp[-1:])
        np.add(F, tmp, out=F)
        np.subtract(F[1:], F[:-1], out=tmp[1:])
        np.subtract(F[:1], F[-1:], out=tmp[:1])
        np.subtract(u, tmp, out=u)
    return out.transpose(*range(1, out.ndim), 0)


def _check_health(state: tuple, y_grid: YGrid, phi_grid: PhiGrid):
    """Refuse a state with a non-finite value, or whose total mass (the
    cells weighted by their widths, plus any wall density) is negative
    beyond round-off."""
    if not all(np.isfinite(v).all() for v in state):
        raise NumericalFailureError("solver produced non-finite values")
    f, *walls = state
    w = y_grid.widths[:, None]
    mass = float(np.sum(f * w) + sum(np.sum(v) for v in walls)) * phi_grid.h
    scale = float(np.sum(np.abs(f) * w)
                  + sum(np.sum(np.abs(v)) for v in walls)) * phi_grid.h
    if mass < -1e-9 * max(scale, 1e-300):
        raise NumericalFailureError(f"total mass went negative: {mass}")


def _march(state: tuple, a: np.ndarray, b: np.ndarray, params: ModelParams,
           y_grid: YGrid, phi_grid: PhiGrid, cfg: FullSolverConfig,
           snapshot_times) -> list:
    """Advance state from t = 0 by split steps of the resolved dt,
    landing exactly on every requested time.

    The state is a tuple of angle-last arrays: (f,) for the kinetic
    model, (bulk, wall) for the limiting system. The y-substep is
    _implicit_y_step of the flux (a, b), factored once for each step size,
    which advances the whole tuple at once: the wall gains what leaves
    through the wall face, and the kinetic model's is closed. Each array
    then takes its own angular substep, after the y-substep (Lie) or in
    two halves around it (Strang).

    Each segment between snapshots takes ceil(span / dt) equal steps,
    factored once per segment because segments can differ in dt, and ends
    with _check_health. Returns a list of (t, state copy) pairs, one per
    requested time (t = 0 gives a copy of the input). A segment that would
    need more than _MAX_STEPS steps is refused before any step is taken."""
    Phi_face = params.Phi(phi_grid.faces)
    dt_target = resolve_dt(params, phi_grid, cfg)

    def phi_step(state, dt):
        return tuple(phi_substep(v, Phi_face, params.D, phi_grid.h, dt)
                     for v in state)

    times = sorted(set(float(t) for t in snapshot_times))
    if not times:
        raise ConfigurationError("need at least one snapshot time")
    if times[0] < -1e-15 or times[-1] > params.T + 1e-12:
        raise ConfigurationError(
            f"snapshot times must lie in [0, T={params.T}], got {times}"
        )
    plan = []
    t = 0.0
    for t_next in times:
        span = t_next - t
        n = 0
        if span > 1e-14:
            n = _step_count(span, dt_target,
                            f"reaching t = {t_next:g} at dt = {dt_target:g}",
                            "increase dt")
            t = t_next
        plan.append((t_next, span, n))
    out = []
    for t_next, span, n in plan:
        if n:
            dt = span / n
            y = _implicit_y_step(a, b, y_grid.widths, dt)
            for _ in range(n):
                if cfg.splitting == "lie":
                    state = phi_step(y(state), dt)
                else:
                    state = phi_step(y(phi_step(state, 0.5 * dt)), 0.5 * dt)
            _check_health(state, y_grid, phi_grid)
        out.append((t_next, tuple(v.copy() for v in state)))
    return out


def run_full(f0: PhaseField, params: ModelParams, cfg: FullSolverConfig,
             snapshot_times) -> list:
    """Integrate from f0, landing exactly on every requested time.

    Returns a list of (t, PhaseField) pairs, one per requested time
    (including t = 0 if requested, which returns a copy of f0).
    """
    y_grid, phi_grid = f0.y_grid, f0.phi_grid
    validate_assumptions(params.V)
    a, b = _fitted_flux_coeffs(params.V(phi_grid.nodes),
                               params.epsilon, y_grid)
    snaps = _march((f0.values,), a, b, params, y_grid, phi_grid, cfg,
                   snapshot_times)
    return [(t, PhaseField(f, y_grid, phi_grid)) for t, (f,) in snaps]


def steady_layer(V, eps: float, y_grid: YGrid, phi_grid: PhiGrid) -> PhaseField:
    """Exact cell averages of the stationary wall-layer profile
    (V/eps) e^{-V y / eps}: the wall layer of unit wall density."""
    return wall_layer(np.ones(phi_grid.n_phi), V, eps, y_grid, phi_grid)
