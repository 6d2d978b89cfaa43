"""Monte Carlo oracle: the rod dynamics as an SDE in (y, phi).

    dy = -V(phi) dt + sqrt(2 eps) dW_y      (reflected at y = 0)
    dphi = Phi(phi) dt + sqrt(2 D) dW_phi   (wrapped mod 2 pi)

Randomness is counter-based: every draw is one splitmix64 hash of a
(key, counter) input, so ensembles are bitwise reproducible no matter
how steps are scheduled or partitioned across workers. No generator
state is carried between calls. For a seed in [0, 2^64), which
ParticleEnsemble checks, one fixed odd 64-bit S and the golden-ratio
constant G (all sums mod 2^64):

- sample_initial (counter slot 0) keys particle k by seed XOR (k S) and
  hashes key + c G with c = 3 for its y draw and c = 4 for its angle.
- Step s of a march (slot s = e.step + 1) takes one hash per particle,
  h = mix64(K + k S + s G) with K = mix64(seed). A chunk of particles
  lo.. adds the one constant K + lo S + s G to _STRIDES, a read-only
  table of j S made at import. The high 40 bits of h give the
  Box-Muller radius uniform u = (h >> 24 + 1/2) 2^-40, the low 24 bits
  the angle t = 2 pi (h mod 2^24) 2^-24.

So the radius is at most sqrt(-2 ln(2^-41)) = sqrt(82 ln 2) = 7.54,
which caps |z_y| and |z_phi| at 7.54 standard deviations (a normal
exceeds that with probability 5e-14 per draw); the angle has the
resolution its float32 cos and sin can use. The radius is taken as
sqrt(2 ln 2) times sqrt(40 - log2(h >> 24 + 1/2)), with sqrt(2 ln 2)
folded into the noise amplitudes sqrt(2 eps dt) and sqrt(2 D dt), and
dt into the coefficients' parameters, so neither costs a pass; eps = 0
or D = 0 makes that amplitude 0, with no division by it.

em_step, sample_initial and histogram work through the ensemble in
cache-sized chunks and, when there is more than one chunk, run them on
the process's thread pool, with one thread per available CPU (numpy
releases the interpreter lock inside its loops). The pool is made on
first use and kept, so every step of a march and every lone call share
its threads; a forked child makes its own. A particle's update reads
only its own position, angle and counter-keyed draws, and the chunk
kernels apply the same elementwise operations in the same order as a
whole-array pass; histogram adds up integer counts per chunk. So the
result is bitwise the same for every chunk size, thread count and
completion order. Two passes a chunk may skip change no bit: the
reduction of the old angles mod 2 pi when they all lie in (0, 2 pi)
already (np.mod is the identity there), and the reflection at y_max
when no particle is above it.

The step takes its three trig passes in float32: cos and sin of the
Box-Muller angle t, and sin(phi) for V and Phi (of phi reduced mod
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

em_step advances its ensemble in place: it overwrites the ensemble's
arrays, so no step allocates its output. run_particles steps one private
copy, so the caller's ensemble is never touched. y_max = inf, the
default of both, is no top wall.

histogram bins with no search: an axis's faces are looked up in a
uniform bucket table, and one exact compare with the same faces
settles the cell (see _Cuts), so its counts are those of a binary
search over the faces, bit for bit.
"""

from __future__ import annotations

import contextvars
import functools
import math
import os
from concurrent.futures import ThreadPoolExecutor, wait
from dataclasses import dataclass, replace

import numpy as np

from .coefficients import ModelParams, _values, sup_abs
from .errors import ConfigurationError, NumericalFailureError
from .full_solver import _step_count
from .grids import PhaseField, PhiGrid, YGrid, norms

_GOLDEN = 0x9E3779B97F4A7C15
_STRIDE = 0xBF58476D1CE4E5B9   # odd, so substream keys stay distinct
_RADIUS_BITS = 40              # high bits of a step's hash; the rest, 24,
_ANGLE_BITS = 24               # give the Box-Muller angle
# sqrt(-2 ln u) = sqrt(2 ln 2) sqrt(-log2 u): the factor rides on the
# noise amplitudes
_SQRT_2LN2 = math.sqrt(2.0 * math.log(2.0))
# Particles per em_step chunk: its five 8-byte scratch rows and the hash
# table of j * _STRIDE take 1.5 MiB, so they stay in a 2 MiB L2 while
# the input and output rows stream through once. Smaller chunks lose
# more to per-call and lock overhead than they gain (2^12 and 2^14 were
# slower on a 2-CPU Xeon at 1e6 particles; 2^16 splits 2e5 particles
# unevenly across two threads).
_CHUNK = 1 << 15
# Buckets of a histogram axis at most: each bucket holds one face, and
# a particle needs one compare, when no two faces are closer than
# top / _MAX_BUCKETS (2e-3 at y_max = 8).
_MAX_BUCKETS = 1 << 12
# j * _STRIDE mod 2^64 for j < _CHUNK, the particle part of a step's hash
# input; a chunk may not be longer
_STRIDES = np.arange(_CHUNK, dtype=np.uint64) * np.uint64(_STRIDE)
_STRIDES.flags.writeable = False


@dataclass
class ParticleEnsemble:
    y: np.ndarray
    phi: np.ndarray
    seed: int
    step: int = 0

    def __post_init__(self):
        self.y = np.asarray(self.y, dtype=float)
        self.phi = np.asarray(self.phi, dtype=float)
        if self.y.ndim != 1 or self.phi.shape != self.y.shape:
            raise ConfigurationError(
                "particle arrays y and phi must be 1-D and of one length")
        _check_seed(self.seed)

    @property
    def n(self) -> int:
        return len(self.y)


def _check_seed(seed: int):
    if not 0 <= seed < 1 << 64:
        raise ConfigurationError(
            f"seed must be an integer in [0, 2^64), got {seed}")


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
    """Substream keys seed XOR (k * _STRIDE) of particles lo..hi-1, at
    most _CHUNK of them."""
    keys = _STRIDES[:hi - lo] + np.uint64(lo * _STRIDE % (1 << 64))
    keys ^= np.uint64(seed)
    return keys


def _uniform(keys: np.ndarray, counter: int, out: np.ndarray,
             bits: np.ndarray, tmp: np.ndarray) -> np.ndarray:
    """One independent uniform (0,1) draw per key for the given counter,
    written into float64 out; bits and tmp are uint64 scratch of the
    keys' shape."""
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
    Uses counter slot 0; dynamics steps start at slot 1 (see the module
    docstring)."""
    e = ParticleEnsemble(y=np.empty(n), phi=np.empty(n), seed=seed)
    _run_chunks(n, functools.partial(
        _initial_chunk, seed, 1.0 - np.exp(-y_max), e.y, e.phi))
    return e


def _initial_chunk(seed: int, mass: float, y: np.ndarray, phi: np.ndarray,
                   sl: slice):
    """sample_initial on particles sl: y = -log1p(-u_y * mass) and
    phi = 2 pi u_phi, the draws written straight into y[sl], phi[sl]."""
    keys = _keys(seed, sl.start, sl.stop)
    bits, tmp = np.empty_like(keys), np.empty_like(keys)
    u_y = _uniform(keys, 3, y[sl], bits, tmp)
    u_phi = _uniform(keys, 4, phi[sl], bits, tmp)
    u_y *= -mass                    # (-u_y) * mass: negation is exact
    np.log1p(u_y, out=u_y)
    np.negative(u_y, out=u_y)
    u_phi *= 2.0 * np.pi


def em_step(e: ParticleEnsemble, params: ModelParams, dt: float,
            y_max: float = math.inf) -> ParticleEnsemble:
    """One Euler-Maruyama step of e, in place; returns e. A step that
    raises part-way may leave e's arrays partly stepped.

    Reflects at the wall and at y_max (the zero-flux top face of the
    grid solvers; inf, the default, is no top wall). dt must be finite,
    >= 0 and at most the weak-order bound 0.1 / max(sup|V|, sup|Phi|),
    which V = Phi = 0 lifts. e's y and phi must be writeable and its
    seed in [0, 2^64)."""
    drift = max(sup_abs(params.Phi, 0), sup_abs(params.V, 0))
    bound = 0.1 / drift if drift > 0.0 else np.inf
    if not 0.0 <= dt < np.inf or dt > bound * (1.0 + 1e-12):
        raise ConfigurationError(f"particle step dt = {dt} must be finite and "
                                 f"within the weak-order bound [0, {bound:.3g}]")
    if not (e.y.flags.writeable and e.phi.flags.writeable):
        raise ConfigurationError("ensemble arrays y and phi must be writeable")
    _check_seed(e.seed)
    seed_key = _mix64(np.array([e.seed], dtype=np.uint64),
                      np.empty(1, dtype=np.uint64))[0]
    _run_chunks(e.n, functools.partial(
        _step_chunk, e, params, dt,
        math.sqrt(2.0 * params.epsilon * dt) * _SQRT_2LN2,
        math.sqrt(2.0 * params.D * dt) * _SQRT_2LN2, y_max,
        int(seed_key) + (e.step + 1) * _GOLDEN))
    e.step += 1
    return e


def _run_chunks(n: int, kernel) -> list:
    """kernel(sl) of consecutive _CHUNK-particle slices of 0..n-1, in
    chunk order: on the process's pool for this CPU count when there is
    more than one chunk and CPU, inline otherwise. Every chunk has
    finished before this returns or raises the first chunk's error."""
    chunks = [slice(lo, min(lo + _CHUNK, n)) for lo in range(0, n, _CHUNK)]
    workers = _cpu_count()
    if len(chunks) <= 1 or workers <= 1:
        return [kernel(sl) for sl in chunks]
    pool = _pool(workers, os.getpid())
    # each chunk runs in a copy of the caller's context, so that numpy's
    # error state (a context variable) holds in it too
    futures = [pool.submit(contextvars.copy_context().run, kernel, sl)
               for sl in chunks]
    wait(futures)
    return [future.result() for future in futures]


@functools.cache
def _pool(workers: int, pid: int) -> ThreadPoolExecutor:
    """The chunk pool for this CPU count in process pid: a forked child
    has none of its parent's threads, so it makes its own. Threads start
    on demand: never more than the most chunks one call has had."""
    return ThreadPoolExecutor(max_workers=workers)


def _cpu_count() -> int:
    """CPUs this process may run on."""
    if hasattr(os, "sched_getaffinity"):
        return len(os.sched_getaffinity(0))
    return os.cpu_count() or 1


def _step_chunk(e: ParticleEnsemble, params: ModelParams, dt: float,
                c_y: float, c_phi: float, y_max: float, step_key: int,
                sl: slice):
    """em_step on particles sl of e, in place in e.y[sl] and e.phi[sl].

    step_key is mix64(seed) + slot * _GOLDEN, and c_y, c_phi are the noise
    amplitudes sqrt(2 eps dt) and sqrt(2 D dt) times sqrt(2 ln 2). Five
    chunk-sized float64 scratch rows are reused across the stages,
    viewed as uint64 for the hashing, as float32 for the trig and as
    bool for the wrap masks. The per-element operations and their order
    are those of the one-shot formula
        r   = sqrt(40 - log2(h >> 24 + 1/2)),  t = 2 pi (h mod 2^24) 2^-24
        y   = |(y - V dt) + (c_y r) cos t|        (reflected at y_max)
        phi = ((phi + Phi dt) + (c_phi r) sin t) mod 2 pi
    with h the particle's hash (module docstring), cos t and sin t taken
    in float32, and V dt, Phi dt evaluated in float64, dt folded into
    the parameters, from the float32 sine of phi mod 2 pi.
    """
    # In place, which is safe because the only reads of the old y are at
    # or before its first write (np.subtract(y, V, out=y), elementwise),
    # and likewise for phi (the fast-path check and the sine, then
    # np.add(phi, Phi, out=phi)): keep that order.
    y, phi = e.y[sl], e.phi[sl]
    n = len(y)
    work = np.empty((5, n))
    r, z, sin_phi, a, b = work
    bits, tmp = a.view(np.uint64), b.view(np.uint64)
    offset = (step_key + sl.start * _STRIDE) % (1 << 64)
    np.add(_STRIDES[:n], np.uint64(offset), out=bits)
    _mix64(bits, tmp)
    np.right_shift(bits, np.uint64(_ANGLE_BITS), out=tmp)
    # below 2^40, so the int64 view converts exactly, and faster
    np.add(tmp.view(np.int64), 0.5, out=r)
    np.log2(r, out=r)
    np.subtract(float(_RADIUS_BITS), r, out=r)
    np.sqrt(r, out=r)
    np.bitwise_and(bits, np.uint64((1 << _ANGLE_BITS) - 1), out=tmp)
    t = z.view(np.float32)[:n]
    np.multiply(tmp.view(np.int64), 2.0 * np.pi * 2.0 ** -_ANGLE_BITS,
                out=t, casting="same_kind")
    cos_t, sin_t = b.view(np.float32)[:n], b.view(np.float32)[n:]
    np.cos(t, out=cos_t)
    np.sin(t, out=sin_t)
    sin_32 = a.view(np.float32)[:n]
    if _inside_circle(phi):
        np.copyto(sin_32, phi, casting="same_kind")
    else:
        # reduced first, so that every finite angle has a float32 cast
        np.copyto(sin_32, _mod_2pi(phi, sin_phi, z.view(np.bool_)),
                  casting="same_kind")
    np.sin(sin_32, out=sin_32)
    np.copyto(sin_phi, sin_32)
    V = _values(params.V, sin_phi, a, dt)
    np.subtract(y, V, out=y)
    np.multiply(r, c_y, out=z)
    z *= cos_t
    y += z
    np.abs(y, out=y)
    # skipped only when no particle is above y_max; a NaN maximum, which
    # may hide one, takes the masked pass
    if not y.max() <= y_max:
        np.subtract(2.0 * y_max, y, out=y, where=y > y_max)
    Phi = _values(params.Phi, sin_phi, a, dt)
    np.add(phi, Phi, out=phi)
    np.multiply(r, c_phi, out=z)
    z *= sin_t
    phi += z
    _mod_2pi(phi, phi, a.view(np.bool_))


def _inside_circle(x: np.ndarray) -> bool:
    """Whether every x lies in (0, 2 pi), where np.mod(x, 2 pi) is x;
    False when any x is NaN, since NaN fails both compares."""
    return bool(0.0 < x.min()) and bool(x.max() < 2.0 * np.pi)


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
                  t_final: float, y_max: float = math.inf) -> ParticleEnsemble:
    """March to a finite t_final >= 0 in equal steps of at most dt,
    reflecting at y_max as em_step does (inf: no top wall).

    em_step advances one copy of e in place, so e is left unchanged.
    More than full_solver._MAX_STEPS steps raise ConfigurationError."""
    if not 0.0 <= t_final < np.inf:
        raise ConfigurationError(
            f"t_final must be finite and >= 0, got {t_final}")
    n_steps = 0 if t_final == 0.0 else _step_count(
        t_final, dt, f"the particle march to t = {t_final:g} at "
        f"particle_dt = {dt:g}", "increase particle_dt")
    e = replace(e, y=e.y.copy(), phi=e.phi.copy())
    # em_step through the module, once per step, so that wrappers of the
    # module attribute see every step
    for _ in range(n_steps):
        em_step(e, params, t_final / n_steps, y_max)
    return e


def histogram(e: ParticleEnsemble, y_grid: YGrid,
              phi_grid: PhiGrid) -> PhaseField:
    """Bin particles into the grid cells and normalize to unit mass.

    The angular bin of node j is [phi_j - h/2, phi_j + h/2). Cells are
    half-open on the right except the last one in each direction, which
    also holds its right edge (y = y_max, or a shifted angle that
    rounds up to 2 pi); particles above y_max are dropped."""
    h = phi_grid.h
    n_y, n_phi = y_grid.n_y, phi_grid.n_phi
    parts = _run_chunks(e.n, functools.partial(
        _count_chunk, e, _Cuts.of(y_grid.faces),
        _Cuts.of(np.linspace(0.0, 2.0 * np.pi, n_phi + 1)), 0.5 * h))
    counts = sum(parts, np.zeros(n_y * n_phi, dtype=np.int64)).reshape(
        n_y, n_phi)
    total = int(counts.sum())
    if total == 0:
        raise NumericalFailureError("no particles fell inside the grid")
    vol = y_grid.widths[:, None] * h
    density = counts / (total * vol)
    return PhaseField(density, y_grid, phi_grid)


def _count_chunk(e: ParticleEnsemble, y_cuts: _Cuts, phi_cuts: _Cuts,
                 half_h: float, sl: slice) -> np.ndarray:
    """Flat cell counts of particles sl, y by the faces of y_cuts and
    (phi + half_h) mod 2 pi by those of phi_cuts; the chunks' counts sum
    to the histogram's counts in any order."""
    n = sl.stop - sl.start
    work = np.empty((3, n))
    shifted = np.add(e.phi[sl], half_h, out=work[0])
    _mod_2pi(shifted, shifted, work[1].view(np.bool_))
    # each axis' count of faces <= x: 0 below the grid, the cell index
    # plus 1 inside it, the number of faces above it or for NaN
    width = len(phi_cuts.faces) + 1
    flat = y_cuts.count(e.y[sl], work[1], work[2])
    flat *= width
    flat += phi_cuts.count(shifted, work[1], work[2])
    counts = np.bincount(flat, minlength=(len(y_cuts.faces) + 1) * width)
    return counts.reshape(-1, width)[1:-1, 1:-1].ravel()


@dataclass(frozen=True)
class _Cuts:
    """Counts, for each x, how many of an axis's faces lie at or below
    it, with the top face counted only for x above it (so the last cell
    holds its right edge): the cell index plus 1 inside the faces, 0
    below them, and len(faces) above them or for NaN.

    With the top face nudged up to top, x falls in bucket
    b(x) = int(fmax(fmin(x, top), 0) * scale); fmin comes first, so that
    NaN takes the top bucket. b is monotone in x, so a face in a lower
    bucket than x's is below x, one in a higher bucket above it,
    whatever the rounding. Only the faces in x's own bucket need a
    compare:
        count(x) = below[b] - sum_k (at[k, b] > x)
    where below[b] counts the faces in buckets up to b and row k of at
    holds each bucket's k-th face, or -inf. Buckets are refined until
    each holds one face, up to _MAX_BUCKETS; NaN fails every compare,
    so it counts every face."""
    faces: np.ndarray
    top: float
    scale: float
    below: np.ndarray
    at: np.ndarray

    @classmethod
    def of(cls, faces: np.ndarray) -> "_Cuts":
        """The tables for increasing faces (the top one nudged up)."""
        faces = np.array(faces, dtype=float)
        faces[-1] = np.nextafter(faces[-1], np.inf)
        top = float(faces[-1])
        n_buckets = 2 * len(faces)
        while True:
            scale = n_buckets / top
            b = _Cuts._bucket(faces, top, scale, np.empty(len(faces)))
            depth = int(np.bincount(b).max())
            if depth == 1 or n_buckets >= _MAX_BUCKETS:
                break
            n_buckets *= 2
        size = int(b[-1]) + 1
        below = np.cumsum(np.bincount(b, minlength=size))
        at = np.full((depth, size), -np.inf)
        rank = np.arange(len(b)) - np.searchsorted(b, b)
        at[rank, b] = faces
        return cls(faces, top, scale, below, at)

    @staticmethod
    def _bucket(x: np.ndarray, top: float, scale: float,
                t: np.ndarray) -> np.ndarray:
        np.fmin(x, top, out=t)
        np.fmax(t, 0.0, out=t)
        t *= scale
        return t.astype(np.intp)

    def count(self, x: np.ndarray, t: np.ndarray,
              scratch: np.ndarray) -> np.ndarray:
        """count(x) as intp; t and scratch are float64 rows of x's
        length."""
        b = self._bucket(x, self.top, self.scale, t)
        count = np.take(self.below, b, mode="clip")
        above = scratch.view(np.bool_)[:len(x)]
        for row in self.at:
            np.take(row, b, out=t, mode="clip")
            np.greater(t, x, out=above)
            count -= above
        return count


def tv_distance(h_field: PhaseField, f_field: PhaseField) -> float:
    """Total variation distance between two normalized densities on the
    same grids: half the volume-weighted L1 difference."""
    if h_field.values.shape != f_field.values.shape:
        raise ConfigurationError("histogram and field shapes differ")
    m_h = norms(h_field)["mass"]
    m_f = norms(f_field)["mass"]
    if abs(m_h - m_f) > 1e-6:
        raise NumericalFailureError(
            f"mass mismatch {abs(m_h - m_f):.3e} exceeds 1e-6; "
            "normalize both inputs first")
    diff = replace(h_field, values=h_field.values - f_field.values)
    return 0.5 * norms(diff)["l1"]
