"""Monte Carlo oracle: the rod dynamics as an SDE in (y, phi).

    dy = -V(phi) dt + sqrt(2 eps) dW_y      (reflected at y = 0)
    dphi = Phi(phi) dt + sqrt(2 D) dW_phi   (wrapped mod 2 pi)

Randomness is counter-based: every particle owns a substream keyed by
seed XOR (k * stream_stride), and every (step, channel) pair maps to
one 64-bit hash output, so ensembles are bitwise reproducible no matter
how steps are scheduled or partitioned across workers. No generator
state is carried between calls.

em_step works through the ensemble in cache-sized chunks and, when
there is more than one chunk, runs them on a thread pool with one
thread per available CPU (numpy releases the interpreter lock inside
its loops). A particle's update reads only its own position, angle and
counter-keyed draws, and the chunk kernel applies the same elementwise
operations in the same order as a whole-array step, so the result is
bitwise the same for every chunk size, thread count and completion
order.
"""

from __future__ import annotations

import contextvars
import functools
import os
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass

import numpy as np

from .coefficients import ModelParams, _values, sup_abs
from .errors import ConfigurationError, NumericalFailureError
from .grids import PhaseField, PhiGrid, YGrid

_GOLDEN = 0x9E3779B97F4A7C15
_DEFAULT_STRIDE = 0xBF58476D1CE4E5B9   # odd, so substream keys stay distinct
_CHANNELS = 4
# Particles per em_step chunk: its six 8-byte scratch rows take 1.5 MiB,
# so they stay in a 2 MiB L2 while the input and output rows stream
# through once. Smaller chunks lose more to per-call and lock overhead
# than they gain (2^12 and 2^14 were slower on a 2-CPU Xeon at 1e6
# particles; 2^16 splits 2e5 particles unevenly across two threads).
_CHUNK = 1 << 15


@dataclass
class ParticleEnsemble:
    y: np.ndarray
    phi: np.ndarray
    n: int
    seed: int
    stream_stride: int = _DEFAULT_STRIDE
    step: int = 0

    def __post_init__(self):
        self.y = np.asarray(self.y, dtype=float)
        self.phi = np.asarray(self.phi, dtype=float)
        if self.y.shape != (self.n,) or self.phi.shape != (self.n,):
            raise ConfigurationError("particle arrays must have shape (n,)")


def _mix64(x: np.ndarray, tmp: np.ndarray) -> np.ndarray:
    """splitmix64 finalizer, in place on uint64 x (wraparound is
    modular); tmp is uint64 scratch of x's shape."""
    for shift, mult in ((30, 0xBF58476D1CE4E5B9), (27, 0x94D049BB133111EB)):
        np.right_shift(x, np.uint64(shift), out=tmp)
        x ^= tmp
        x *= np.uint64(mult)
    np.right_shift(x, np.uint64(31), out=tmp)
    x ^= tmp
    return x


def _keys(seed: int, stride: int, lo: int, hi: int) -> np.ndarray:
    """Substream keys seed XOR (k * stride) of particles lo..hi-1."""
    keys = np.arange(lo, hi, dtype=np.uint64)
    keys *= np.uint64(stride % (1 << 64))
    keys ^= np.uint64(seed % (1 << 64))
    return keys


def _uniform(keys: np.ndarray, slot: int, channel: int, out: np.ndarray,
             bits: np.ndarray, tmp: np.ndarray) -> np.ndarray:
    """One independent uniform (0,1) draw per key for the given (step
    slot, channel) counter, written into float64 out; bits and tmp are
    uint64 scratch of the keys' shape."""
    counter = slot * _CHANNELS + channel + 1
    np.add(keys, np.uint64((_GOLDEN * counter) % (1 << 64)), out=bits)
    _mix64(bits, tmp)
    np.right_shift(bits, np.uint64(11), out=tmp)
    np.add(tmp, 0.5, out=out)
    out *= 2.0 ** -53
    return out


def _uniforms(seed: int, stride: int, n: int, slot: int,
              channel: int) -> np.ndarray:
    """One independent uniform (0,1) draw per particle for the given
    (step slot, channel) counter."""
    keys = _keys(seed, stride, 0, n)
    return _uniform(keys, slot, channel, np.empty(n), np.empty_like(keys),
                    np.empty_like(keys))


def sample_initial(n: int, seed: int, y_max: float,
                   stream_stride: int = _DEFAULT_STRIDE) -> ParticleEnsemble:
    """Draw the standard initial law: y from the unit-rate exponential
    truncated to [0, y_max] (inverse CDF), phi uniform on [0, 2 pi).
    Uses counter slot 0; dynamics steps start at slot 1."""
    u_y = _uniforms(seed, stream_stride, n, 0, 2)
    u_p = _uniforms(seed, stream_stride, n, 0, 3)
    y = -np.log1p(-u_y * (1.0 - np.exp(-y_max)))
    phi = 2.0 * np.pi * u_p
    return ParticleEnsemble(y=y, phi=phi, n=n, seed=seed,
                            stream_stride=stream_stride, step=0)


def em_step(e: ParticleEnsemble, params: ModelParams, dt: float,
            y_max: float | None = None) -> ParticleEnsemble:
    """One Euler-Maruyama step; reflects at the wall (and at y_max when
    given, matching the zero-flux top face of the grid solvers)."""
    bound = 0.1 / max(sup_abs(params.Phi, 0), sup_abs(params.V, 0))
    if dt > bound * (1.0 + 1e-12):
        raise ConfigurationError(
            f"particle step dt = {dt} exceeds the weak-order bound {bound:.3g}")
    y, phi = np.empty(e.n), np.empty(e.n)
    step = functools.partial(
        _step_chunk, e, y, phi, params, dt,
        np.sqrt(2.0 * params.epsilon * dt), np.sqrt(2.0 * params.D * dt),
        y_max)
    chunks = [slice(lo, min(lo + _CHUNK, e.n))
              for lo in range(0, e.n, _CHUNK)]
    workers = min(_cpu_count(), len(chunks))
    if workers > 1:
        with ThreadPoolExecutor(max_workers=workers) as pool:
            # each chunk runs in a copy of the caller's context, so that
            # numpy's error state (a context variable) holds in it too
            futures = [pool.submit(contextvars.copy_context().run, step, sl)
                       for sl in chunks]
            for future in futures:
                future.result()
    else:
        for sl in chunks:
            step(sl)
    return ParticleEnsemble(y=y, phi=phi, n=e.n, seed=e.seed,
                            stream_stride=e.stream_stride, step=e.step + 1)


def _cpu_count() -> int:
    """CPUs this process may run on."""
    if hasattr(os, "sched_getaffinity"):
        return len(os.sched_getaffinity(0))
    return os.cpu_count() or 1


def _step_chunk(e: ParticleEnsemble, y: np.ndarray, phi: np.ndarray,
                params: ModelParams, dt: float, sigma_y: float,
                sigma_phi: float, y_max: float | None, sl: slice):
    """em_step on particles sl of e, written into y[sl] and phi[sl].

    Six chunk-sized scratch rows (the keys and work) are reused across
    the stages. The per-element operations and their order are those of
    the one-shot formula
        y   = |y - V dt + sigma_y z_y|        (reflected at y_max)
        phi = (phi + Phi dt + sigma_phi z_phi) mod 2 pi
    with (z_y, z_phi) the Box-Muller pair of the step's two draws.
    """
    y0, phi0, y1, phi1 = e.y[sl], e.phi[sl], y[sl], phi[sl]
    work = np.empty((5, len(y0)))
    z_y, z_phi, r, a, b = work
    keys = _keys(e.seed, e.stream_stride, sl.start, sl.stop)
    bits, tmp = a.view(np.uint64), b.view(np.uint64)
    slot = e.step + 1
    _uniform(keys, slot, 0, r, bits, tmp)
    _uniform(keys, slot, 1, z_phi, bits, tmp)
    np.log(r, out=r)
    r *= -2.0
    np.sqrt(r, out=r)
    z_phi *= 2.0 * np.pi
    np.cos(z_phi, out=z_y)
    np.sin(z_phi, out=z_phi)
    z_y *= r
    z_phi *= r
    sin_phi = np.sin(phi0, out=r)
    V = _values(params.V, sin_phi, a)
    V *= dt
    np.subtract(y0, V, out=y1)
    z_y *= sigma_y
    y1 += z_y
    np.abs(y1, out=y1)
    if y_max is not None:
        np.subtract(2.0 * y_max, y1, out=y1, where=y1 > y_max)
    Phi = _values(params.Phi, sin_phi, a)
    Phi *= dt
    np.add(phi0, Phi, out=phi1)
    z_phi *= sigma_phi
    phi1 += z_phi
    # np.mod is exactly the identity on (0, 2 pi) (fmod is exact and no
    # sign fix applies), so only angles that left it, and 0 for the
    # sign of -0.0, go through it: one pass of compares, not of fmod
    wrap = phi1 >= 2.0 * np.pi
    wrap |= phi1 <= 0.0
    np.mod(phi1, 2.0 * np.pi, out=phi1, where=wrap)


def run_particles(e: ParticleEnsemble, params: ModelParams, dt: float,
                  t_final: float, y_max: float | None = None) -> ParticleEnsemble:
    """March to t_final with fixed dt (last step shortened to land)."""
    import math
    n_steps = max(1, math.ceil(t_final / dt - 1e-12))
    step_dt = t_final / n_steps
    for _ in range(n_steps):
        e = em_step(e, params, step_dt, y_max=y_max)
    return e


def histogram(e: ParticleEnsemble, y_grid: YGrid,
              phi_grid: PhiGrid) -> PhaseField:
    """Bin particles into the grid cells and normalize to unit mass.

    The angular bin of node j is [phi_j - h/2, phi_j + h/2). Cells are
    half-open on the right except the last one in each direction, which
    also holds its right edge (y = y_max, or a shifted angle that
    rounds up to 2 pi); particles above y_max are dropped."""
    h = phi_grid.h
    shifted = np.mod(e.phi + 0.5 * h, 2.0 * np.pi)
    edges_phi = np.linspace(0.0, 2.0 * np.pi, phi_grid.n_phi + 1)
    n_y, n_phi = y_grid.n_y, phi_grid.n_phi
    iy = _cell_index(e.y, y_grid.faces)
    ip = _cell_index(shifted, edges_phi)
    inside = (iy >= 0) & (iy < n_y) & (ip >= 0) & (ip < n_phi)
    counts = np.bincount(iy[inside] * n_phi + ip[inside],
                         minlength=n_y * n_phi).reshape(n_y, n_phi)
    total = int(counts.sum())
    if total == 0:
        raise NumericalFailureError("no particles fell inside the grid")
    vol = y_grid.widths[:, None] * h
    density = counts / (total * vol)
    return PhaseField(density, y_grid, phi_grid)


def _cell_index(x: np.ndarray, edges: np.ndarray) -> np.ndarray:
    """Index of the cell [edges[i], edges[i+1]) holding each x, the last
    cell closed on the right; -1 or len(edges) - 1 when x is outside."""
    idx = np.searchsorted(edges, x, side="right") - 1
    idx[x == edges[-1]] -= 1
    return idx


def tv_distance(h_field: PhaseField, f_field: PhaseField) -> float:
    """Total variation distance between two normalized densities on the
    same grids: half the volume-weighted L1 difference."""
    from .grids import norms
    if h_field.values.shape != f_field.values.shape:
        raise ConfigurationError("histogram and field shapes differ")
    m_h = norms(h_field)["mass"]
    m_f = norms(f_field)["mass"]
    if abs(m_h - m_f) > 1e-6:
        raise NumericalFailureError(
            f"mass mismatch {abs(m_h - m_f):.3e} exceeds 1e-6; "
            "normalize both inputs first")
    vol = h_field.y_grid.widths[:, None] * h_field.phi_grid.h
    return float(0.5 * np.sum(np.abs(h_field.values - f_field.values) * vol))
