"""Monte Carlo oracle: the rod dynamics as an SDE in (y, phi).

    dy = -V(phi) dt + sqrt(2 eps) dW_y      (reflected at y = 0)
    dphi = Phi(phi) dt + sqrt(2 D) dW_phi   (wrapped mod 2 pi)

Randomness is counter-based: every particle owns a substream keyed by
seed XOR (k * S) for one fixed odd 64-bit S, and every (step, channel)
pair maps to one 64-bit hash output, so ensembles are bitwise
reproducible no matter how steps are scheduled or partitioned across
workers. No generator state is carried between calls.

em_step, sample_initial and histogram work through the ensemble in
cache-sized chunks and, when there is more than one chunk, run them on
a thread pool with one thread per available CPU (numpy releases the
interpreter lock inside its loops). A particle's update reads only its
own position, angle and counter-keyed draws, and the chunk kernels
apply the same elementwise operations in the same order as a
whole-array pass; histogram adds up integer counts per chunk. So the
result is bitwise the same for every chunk size, thread count and
completion order.

The step takes its three trig passes in float32: cos and sin of the
Box-Muller angle 2 pi u, and sin(phi) for V and Phi (of phi reduced mod
2 pi in float64 first, so that every finite angle has a float32 cast).
numpy vectorises float32 sin and cos, and calls scalar libm for
float64, which made these passes most of the step. Their results are
upcast at once; the hashing, log and sqrt, the coefficients, the
update, the reflection and the wrap stay float64. The float32 rounding
(about 1e-7 in z and in sin(phi)) is far below the Monte Carlo noise and
the time-step bias that the histogram checks measure. It is also
elementwise: numpy's float32 sin and cos give each element the same
bits whatever the slice length or offset it sits at, so chunking and
threads still change no bit.

run_particles advances one private copy of the ensemble in place: every
step overwrites the copy's arrays (em_step's out=), so the caller's
ensemble is never touched and no step allocates its output. _step_chunk
reads each particle's old position and angle before it writes the new
ones, and nothing else reads them, so a step in place gives the same
bits as a step into fresh arrays. The march also opens one chunk pool for all its
steps, instead of one per step, and shuts it down before it returns;
which thread runs a chunk never changed a bit. Called alone, em_step,
sample_initial and histogram each open and close a pool of their own.
"""

from __future__ import annotations

import contextlib
import contextvars
import functools
import os
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, replace

import numpy as np

from .coefficients import ModelParams, _values, sup_abs
from .errors import ConfigurationError, NumericalFailureError
from .full_solver import _step_count
from .grids import PhaseField, PhiGrid, YGrid

_GOLDEN = 0x9E3779B97F4A7C15
_STRIDE = 0xBF58476D1CE4E5B9   # odd, so substream keys stay distinct
_CHANNELS = 4
# Particles per em_step chunk: its six 8-byte scratch rows take 1.5 MiB,
# so they stay in a 2 MiB L2 while the input and output rows stream
# through once. Smaller chunks lose more to per-call and lock overhead
# than they gain (2^12 and 2^14 were slower on a 2-CPU Xeon at 1e6
# particles; 2^16 splits 2e5 particles unevenly across two threads).
_CHUNK = 1 << 15
# The chunk pool of the run_particles march in progress in this context,
# if any; _run_chunks opens a pool per call when there is none.
_MARCH_POOL = contextvars.ContextVar("activerods_march_pool", default=None)


@dataclass
class ParticleEnsemble:
    y: np.ndarray
    phi: np.ndarray
    n: int
    seed: int
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


def _keys(seed: int, lo: int, hi: int) -> np.ndarray:
    """Substream keys seed XOR (k * _STRIDE) of particles lo..hi-1."""
    keys = np.arange(lo, hi, dtype=np.uint64)
    keys *= np.uint64(_STRIDE)
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
    # below 2^53, so the int64 view converts exactly, and faster
    np.add(tmp.view(np.int64), 0.5, out=out)
    out *= 2.0 ** -53
    return out


def sample_initial(n: int, seed: int, y_max: float) -> ParticleEnsemble:
    """Draw the standard initial law: y from the unit-rate exponential
    truncated to [0, y_max] (inverse CDF), phi uniform on [0, 2 pi).
    Uses counter slot 0; dynamics steps start at slot 1."""
    y, phi = np.empty(n), np.empty(n)
    _run_chunks(n, functools.partial(
        _initial_chunk, seed, 1.0 - np.exp(-y_max), y, phi))
    return ParticleEnsemble(y=y, phi=phi, n=n, seed=seed, step=0)


def _initial_chunk(seed: int, mass: float, y: np.ndarray, phi: np.ndarray,
                   sl: slice):
    """sample_initial on particles sl: y = -log1p(-u_y * mass) and
    phi = 2 pi u_phi, the draws written straight into y[sl], phi[sl]."""
    keys = _keys(seed, sl.start, sl.stop)
    bits, tmp = np.empty_like(keys), np.empty_like(keys)
    u_y = _uniform(keys, 0, 2, y[sl], bits, tmp)
    u_phi = _uniform(keys, 0, 3, phi[sl], bits, tmp)
    u_y *= -mass                    # (-u_y) * mass: negation is exact
    np.log1p(u_y, out=u_y)
    np.negative(u_y, out=u_y)
    u_phi *= 2.0 * np.pi


def em_step(e: ParticleEnsemble, params: ModelParams, dt: float,
            y_max: float | None = None, *,
            out: ParticleEnsemble | None = None) -> ParticleEnsemble:
    """One Euler-Maruyama step; reflects at the wall (and at y_max when
    given, matching the zero-flux top face of the grid solvers).

    With out, the step is written into out's arrays (out may be e
    itself) and out, relabelled as e's next step, is returned; else
    into a new ensemble. dt must be finite, >= 0 and at most the weak-order
    bound 0.1 / max(sup|V|, sup|Phi|), which V = Phi = 0 lifts."""
    drift = max(sup_abs(params.Phi, 0), sup_abs(params.V, 0))
    bound = 0.1 / drift if drift > 0.0 else np.inf
    if not 0.0 <= dt < np.inf or dt > bound * (1.0 + 1e-12):
        raise ConfigurationError(f"particle step dt = {dt} must be finite and "
                                 f"within the weak-order bound [0, {bound:.3g}]")
    if out is None:
        out = ParticleEnsemble(y=np.empty(e.n), phi=np.empty(e.n), n=e.n,
                               seed=e.seed)
    elif out.n != e.n:
        raise ConfigurationError(
            f"out holds {out.n} particles, the ensemble {e.n}")
    _run_chunks(e.n, functools.partial(
        _step_chunk, e, out.y, out.phi, params, dt,
        np.sqrt(2.0 * params.epsilon * dt), np.sqrt(2.0 * params.D * dt),
        y_max))
    out.seed, out.step = e.seed, e.step + 1
    return out


def _run_chunks(n: int, kernel):
    """Call kernel(sl) on consecutive _CHUNK-particle slices of 0..n-1:
    when there is more than one chunk, on the march's pool if one is
    open, else on a pool with one thread per available CPU for this call
    only; inline otherwise."""
    chunks = [slice(lo, min(lo + _CHUNK, n)) for lo in range(0, n, _CHUNK)]
    workers = min(_cpu_count(), len(chunks))
    if workers <= 1:
        for sl in chunks:
            kernel(sl)
        return
    march_pool = _MARCH_POOL.get()
    with (ThreadPoolExecutor(max_workers=workers) if march_pool is None
          else contextlib.nullcontext(march_pool)) as pool:
        # each chunk runs in a copy of the caller's context, so that
        # numpy's error state (a context variable) holds in it too
        futures = [pool.submit(contextvars.copy_context().run, kernel, sl)
                   for sl in chunks]
        for future in futures:
            future.result()


def _cpu_count() -> int:
    """CPUs this process may run on."""
    if hasattr(os, "sched_getaffinity"):
        return len(os.sched_getaffinity(0))
    return os.cpu_count() or 1


def _step_chunk(e: ParticleEnsemble, y: np.ndarray, phi: np.ndarray,
                params: ModelParams, dt: float, sigma_y: float,
                sigma_phi: float, y_max: float | None, sl: slice):
    """em_step on particles sl of e, written into y[sl] and phi[sl].

    Five chunk-sized float64 scratch rows are reused across the stages,
    viewed as uint64 for the hashing, as float32 for the trig and as
    bool for the wrap masks. The per-element operations and their order
    are those of the one-shot formula
        y   = |y - V dt + sigma_y z_y|        (reflected at y_max)
        phi = (phi + Phi dt + sigma_phi z_phi) mod 2 pi
    with (z_y, z_phi) = r (cos t, sin t) the Box-Muller pair of the
    step's two draws, cos t and sin t taken in float32 of t = 2 pi u2,
    and V, Phi evaluated in float64 from the float32 sine of phi mod 2 pi.
    """
    # y1 and phi1 may be y0 and phi0 (em_step's out=e). That is safe
    # because the only reads of y0 are at or before the first write of y1
    # (np.subtract(y0, V, out=y1), elementwise), and likewise for phi0
    # (_mod_2pi into r, then np.add(phi0, Phi, out=phi1)): keep that order.
    y0, phi0, y1, phi1 = e.y[sl], e.phi[sl], y[sl], phi[sl]
    n = len(y0)
    work = np.empty((5, n))
    z_y, z_phi, r, a, b = work
    keys = _keys(e.seed, sl.start, sl.stop)
    bits, tmp = a.view(np.uint64), b.view(np.uint64)
    slot = e.step + 1
    _uniform(keys, slot, 0, r, bits, tmp)
    _uniform(keys, slot, 1, z_phi, bits, tmp)
    np.log(r, out=r)
    r *= -2.0
    np.sqrt(r, out=r)
    cos_t, sin_t = a.view(np.float32)[:n], b.view(np.float32)[:n]
    np.multiply(z_phi, 2.0 * np.pi, out=sin_t, casting="same_kind")
    np.cos(sin_t, out=cos_t)
    np.sin(sin_t, out=sin_t)
    np.copyto(z_y, cos_t)
    z_y *= r
    np.copyto(z_phi, sin_t)
    z_phi *= r
    # reduced first, so that every finite angle has a float32 cast
    sin_phi = _mod_2pi(phi0, r, b.view(np.bool_))
    sin_32 = a.view(np.float32)[:n]
    np.copyto(sin_32, sin_phi, casting="same_kind")
    np.sin(sin_32, out=sin_32)
    np.copyto(sin_phi, sin_32)
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
    _mod_2pi(phi1, phi1, b.view(np.bool_))


def _mod_2pi(x: np.ndarray, out: np.ndarray, masks: np.ndarray) -> np.ndarray:
    """np.mod(x, 2 pi) into out (which may be x); masks is bool scratch
    of at least twice x's length.

    np.mod is exactly the identity on (0, 2 pi) (fmod is exact and no
    sign fix applies), so only angles outside it, and 0 for the sign of
    -0.0, go through it: passes of compares, not of fmod."""
    n = len(x)
    outside, below = masks[:n], masks[n:2 * n]
    np.greater_equal(x, 2.0 * np.pi, out=outside)
    np.less_equal(x, 0.0, out=below)
    outside |= below
    if out is not x:
        np.copyto(out, x)
    np.mod(x, 2.0 * np.pi, out=out, where=outside)
    return out


def run_particles(e: ParticleEnsemble, params: ModelParams, dt: float,
                  t_final: float, y_max: float | None = None) -> ParticleEnsemble:
    """March to a finite t_final >= 0 in equal steps of at most dt.

    The march runs in place on a copy of e, which is left unchanged, and
    all its steps share one chunk pool, shut down before this returns.
    More than full_solver._MAX_STEPS steps raise ConfigurationError."""
    if not 0.0 <= t_final < np.inf:
        raise ConfigurationError(
            f"t_final must be finite and >= 0, got {t_final}")
    n_steps = 0 if t_final == 0.0 else _step_count(
        t_final, dt, f"the particle march to t = {t_final:g} at "
        f"particle_dt = {dt:g}", "increase particle_dt")
    e = replace(e, y=e.y.copy(), phi=e.phi.copy())
    # threads start on demand, so never more than a step has chunks
    with ThreadPoolExecutor(max_workers=_cpu_count()) as pool:
        token = _MARCH_POOL.set(pool)
        try:
            # em_step through the module, once per step, so that
            # wrappers of the module attribute see every step
            for _ in range(n_steps):
                em_step(e, params, t_final / n_steps, y_max=y_max, out=e)
        finally:
            _MARCH_POOL.reset(token)
    return e


def histogram(e: ParticleEnsemble, y_grid: YGrid,
              phi_grid: PhiGrid) -> PhaseField:
    """Bin particles into the grid cells and normalize to unit mass.

    The angular bin of node j is [phi_j - h/2, phi_j + h/2). Cells are
    half-open on the right except the last one in each direction, which
    also holds its right edge (y = y_max, or a shifted angle that
    rounds up to 2 pi); particles above y_max are dropped."""
    h = phi_grid.h
    edges_phi = np.linspace(0.0, 2.0 * np.pi, phi_grid.n_phi + 1)
    n_y, n_phi = y_grid.n_y, phi_grid.n_phi
    parts = np.zeros((-(-e.n // _CHUNK), n_y * n_phi), dtype=np.int64)
    _run_chunks(e.n, functools.partial(
        _count_chunk, e, y_grid.faces, edges_phi, 0.5 * h, parts))
    counts = parts.sum(axis=0).reshape(n_y, n_phi)
    total = int(counts.sum())
    if total == 0:
        raise NumericalFailureError("no particles fell inside the grid")
    vol = y_grid.widths[:, None] * h
    density = counts / (total * vol)
    return PhaseField(density, y_grid, phi_grid)


def _count_chunk(e: ParticleEnsemble, y_faces: np.ndarray,
                 edges_phi: np.ndarray, half_h: float, parts: np.ndarray,
                 sl: slice):
    """Cell counts of particles sl into row sl.start // _CHUNK of parts;
    the rows sum to the histogram's counts in any order."""
    n_y, n_phi = len(y_faces) - 1, len(edges_phi) - 1
    iy = _cell_index(e.y[sl], y_faces)
    shifted = e.phi[sl] + half_h
    ip = _cell_index(_mod_2pi(shifted, shifted,
                              np.empty(2 * len(shifted), dtype=np.bool_)),
                     edges_phi)
    inside = (iy >= 0) & (iy < n_y) & (ip >= 0) & (ip < n_phi)
    parts[sl.start // _CHUNK] = np.bincount(iy[inside] * n_phi + ip[inside],
                                           minlength=n_y * n_phi)


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
