import math
import os
import sys
import textwrap
import threading
import time
import warnings
from dataclasses import replace

import numpy as np
import pytest

from activerods import (ConfigurationError, ModelParams,
                        NumericalFailureError, ParticleEnsemble, PhaseField,
                        build_phi_grid, build_y_grid, em_step, histogram,
                        norms, run_particles, sample_initial, sup_abs,
                        tv_distance)
from activerods import particles

from conftest import (coeff_value_reference, const, run_python, shear,
                      shifted_sine, wall_drive)


# -- whole-array references ---------------------------------------------------
# The one-shot em_step and the histogram2d histogram that the chunked step
# and the bincount histogram replaced, kept as the references they must
# match bitwise. em_step takes its trig in float32; the float64 formula it
# replaced stays as the statistical comparator (em_step_float64), and the
# earlier two-hash step as the comparator of the draw's law
# (em_step_two_hash).

def _mix64_reference(x):
    x = (x ^ (x >> np.uint64(30))) * np.uint64(0xBF58476D1CE4E5B9)
    x = (x ^ (x >> np.uint64(27))) * np.uint64(0x94D049BB133111EB)
    return x ^ (x >> np.uint64(31))


_GOLDEN = 0x9E3779B97F4A7C15


def _xor_key_uniforms(seed, n, counter):
    # one 53-bit uniform per particle, keyed by seed XOR (k * stride): the
    # stream of sample_initial (counters 3 and 4) and of the two-hash step
    keys = np.uint64(seed % (1 << 64)) ^ (
        np.arange(n, dtype=np.uint64) * np.uint64(particles._STRIDE))
    offset = np.uint64((_GOLDEN * counter) % (1 << 64))
    bits = _mix64_reference(keys + offset)
    return ((bits >> np.uint64(11)).astype(np.float64) + 0.5) * 2.0 ** -53


def _uniforms_reference(seed, n, slot):
    # the step's radius and angle uniforms at a counter slot, both from
    # one hash of mix64(seed) + k * stride + slot * golden per particle
    seed_key = _mix64_reference(np.array([seed % (1 << 64)], dtype=np.uint64))
    bits = _mix64_reference(
        seed_key + np.arange(n, dtype=np.uint64) * np.uint64(particles._STRIDE)
        + np.uint64((slot * _GOLDEN) % (1 << 64)))
    u_r = ((bits >> np.uint64(24)).astype(np.float64) + 0.5) * 2.0 ** -40
    u_t = (bits & np.uint64((1 << 24) - 1)).astype(np.float64) * 2.0 ** -24
    return u_r, u_t


# sqrt(-2 ln u) = sqrt(2 ln 2) sqrt(-log2 u); the radius uniform u is at
# least 2^-41, so |z| is at most sqrt(82 ln 2)
_SQRT_2LN2 = math.sqrt(2.0 * math.log(2.0))
_Z_CAP = math.sqrt(82.0 * math.log(2.0))


def _sin32(phi):
    # float32 sine of the angle reduced mod 2 pi in float64, upcast again
    return np.sin(np.mod(phi, 2.0 * np.pi).astype(np.float32)).astype(
        np.float64)


def _finish_step(e, params, dt, y_max, z_y, z_p, sin):
    # the drift and the noise (already scaled) applied, reflected and
    # wrapped, with dt folded into the coefficients' parameters
    V = coeff_value_reference(params.V, e.phi, sin, scale=dt)
    Phi = coeff_value_reference(params.Phi, e.phi, sin, scale=dt)
    y = np.abs((e.y - V) + z_y)
    over = y > y_max
    y[over] = 2.0 * y_max - y[over]
    phi = np.mod((e.phi + Phi) + z_p, 2.0 * np.pi)
    return ParticleEnsemble(y=y, phi=phi, seed=e.seed, step=e.step + 1)


def em_step_reference(e, params, dt, y_max=math.inf, float32_trig=True):
    drift = max(sup_abs(params.Phi, 0), sup_abs(params.V, 0))
    assert dt * drift <= 0.1 * (1.0 + 1e-12)
    u_r, u_t = _uniforms_reference(e.seed, e.n, e.step + 1)
    # sqrt(-log2 u_r), from log2 of the 40-bit numerator 2^40 u_r (exact)
    r = np.sqrt(40.0 - np.log2(u_r * 2.0 ** 40))
    theta = 2.0 * np.pi * u_t
    sin = np.sin
    if float32_trig:
        theta, sin = theta.astype(np.float32), _sin32
    c_y = math.sqrt(2.0 * params.epsilon * dt) * _SQRT_2LN2
    c_p = math.sqrt(2.0 * params.D * dt) * _SQRT_2LN2
    return _finish_step(e, params, dt, y_max, (r * c_y) * np.cos(theta),
                        (r * c_p) * np.sin(theta), sin)


def em_step_two_hash(e, params, dt, y_max=math.inf):
    # the step before one hash served both uniforms: two 53-bit uniforms
    # per particle and step, counters 4 slot + 1 and 4 slot + 2
    slot = e.step + 1
    u1 = _xor_key_uniforms(e.seed, e.n, 4 * slot + 1)
    u2 = _xor_key_uniforms(e.seed, e.n, 4 * slot + 2)
    r = np.sqrt(-2.0 * np.log(u1))
    theta = (2.0 * np.pi * u2).astype(np.float32)
    z_y = np.sqrt(2.0 * params.epsilon * dt) * (r * np.cos(theta))
    z_p = np.sqrt(2.0 * params.D * dt) * (r * np.sin(theta))
    return _finish_step(e, params, dt, y_max, z_y, z_p, _sin32)


def em_step_float64(e, params, dt, y_max=math.inf):
    return em_step_reference(e, params, dt, y_max, float32_trig=False)


def histogram_reference(e, y_grid, phi_grid):
    h = phi_grid.h
    shifted = np.mod(e.phi + 0.5 * h, 2.0 * np.pi)
    edges_phi = np.linspace(0.0, 2.0 * np.pi, phi_grid.n_phi + 1)
    counts, _, _ = np.histogram2d(e.y, shifted,
                                  bins=[y_grid.faces, edges_phi])
    vol = y_grid.widths[:, None] * h
    return PhaseField(counts / (counts.sum() * vol), y_grid, phi_grid)


def _assert_same_ensemble(a, b):
    # bit patterns, so that -0.0 and 0.0 count as different
    np.testing.assert_array_equal(a.y.view(np.uint64), b.y.view(np.uint64))
    np.testing.assert_array_equal(a.phi.view(np.uint64),
                                  b.phi.view(np.uint64))
    assert (a.n, a.seed, a.step) == (b.n, b.seed, b.step)


def _drift_params(T=2.0):
    return ModelParams(epsilon=0.0, D=0.0, T=T, V=const(1.0), Phi=const(1.0))


def _copy(e):
    return replace(e, y=e.y.copy(), phi=e.phi.copy())


def _stepped(e, params, dt, y_max=math.inf):
    # em_step of a copy of e, which em_step would otherwise overwrite
    return em_step(_copy(e), params, dt, y_max)


def test_bitwise_determinism():
    params = ModelParams(epsilon=0.05, D=0.2, T=1.0, V=shifted_sine(1.0, 0.5),
                         Phi=const(1.0))
    a = run_particles(sample_initial(2000, 42, 8.0), params, 0.01, 0.3)
    b = run_particles(sample_initial(2000, 42, 8.0), params, 0.01, 0.3)
    np.testing.assert_array_equal(a.y, b.y)
    np.testing.assert_array_equal(a.phi, b.phi)
    c = run_particles(sample_initial(2000, 43, 8.0), params, 0.01, 0.3)
    assert np.any(c.y != a.y)


def test_split_run_matches_single_run():
    params = ModelParams(epsilon=0.05, D=0.2, T=1.0, V=shifted_sine(1.0, 0.5),
                         Phi=const(1.0))
    e0 = sample_initial(2000, 42, 8.0)
    single = run_particles(e0, params, 0.01, 0.1)
    half = run_particles(e0, params, 0.01, 0.05)
    split = run_particles(half, params, 0.01, 0.05)
    np.testing.assert_array_equal(split.y, single.y)
    np.testing.assert_array_equal(split.phi, single.phi)
    assert split.step == single.step == 10


def test_noiseless_drift_exact():
    n = 16
    e = ParticleEnsemble(y=np.full(n, 1.0), phi=np.linspace(0, 6, n), seed=5)
    params = _drift_params()
    out = run_particles(e, params, 0.01, 0.4)
    np.testing.assert_allclose(out.y, 0.6, atol=1e-10)
    np.testing.assert_allclose(
        out.phi, np.mod(np.linspace(0, 6, n) + 0.4, 2.0 * math.pi),
        atol=1e-10)


def test_noiseless_drift_sticks_at_wall():
    # wall folding pins a noiseless inward drifter within one step of 0
    n = 8
    e = ParticleEnsemble(y=np.full(n, 1.0), phi=np.zeros(n), seed=5)
    out = run_particles(e, _drift_params(), 0.01, 1.3)
    assert np.all(out.y >= 0.0)
    assert np.all(out.y <= 0.01 + 1e-12)


def test_mean_decrement_matches_mean_speed():
    n = 100_000
    dt = 0.01
    params = ModelParams(epsilon=0.0, D=0.0, T=1.0, V=shifted_sine(1.0, 0.5),
                         Phi=const(0.0))
    e0 = sample_initial(n, 77, 8.0)
    e0 = ParticleEnsemble(y=np.full(n, 4.0), phi=e0.phi, seed=77)
    e1 = _stepped(e0, params, dt)
    drop = float(np.mean(e0.y - e1.y))
    # E[V] = 1.5 under the uniform angle law; 3 sigma monte carlo band
    sigma = 0.5 / math.sqrt(2.0) * dt / math.sqrt(n)
    assert abs(drop - 1.5 * dt) <= 3.0 * sigma + 3.0 * dt / math.sqrt(n)


def test_histogram_mass_and_single_cell():
    yg = build_y_grid(4.0, 48, 0.4, 16)
    pg = build_phi_grid(16)
    n = 500
    e = ParticleEnsemble(y=np.full(n, 0.11), phi=np.zeros(n), seed=1)
    h = histogram(e, yg, pg)
    assert norms(h)["mass"] == pytest.approx(1.0, rel=1e-12)
    dens = np.zeros((48, 16))
    dens[4, 0] = 1.0 / (yg.widths[4] * pg.h)
    np.testing.assert_allclose(h.values, dens, rtol=1e-12)


def test_histogram_flat_angle_marginal():
    yg = build_y_grid(8.0, 48, 0.4, 16)
    pg = build_phi_grid(16)
    e = sample_initial(100_000, 2024, 8.0)
    h = histogram(e, yg, pg)
    marginal = np.sum(h.values * yg.widths[:, None], axis=0)
    assert np.max(np.abs(marginal * 2.0 * math.pi - 1.0)) <= 0.05


def test_histogram_needs_particles_inside():
    yg = build_y_grid(4.0, 48, 0.4, 16)
    pg = build_phi_grid(8)
    e = ParticleEnsemble(y=np.full(10, 10.0), phi=np.zeros(10), seed=1)
    with pytest.raises(NumericalFailureError):
        histogram(e, yg, pg)


def test_tv_distance_cases():
    yg = build_y_grid(4.0, 48, 0.4, 16)
    pg = build_phi_grid(8)
    vol00 = yg.widths[0] * pg.h
    a = np.zeros((48, 8))
    a[0, 0] = 1.0 / vol00
    b = np.zeros((48, 8))
    b[5, 3] = 1.0 / (yg.widths[5] * pg.h)
    fa = PhaseField(a, yg, pg)
    fb = PhaseField(b, yg, pg)
    assert tv_distance(fa, fa) == 0.0
    assert tv_distance(fa, fb) == pytest.approx(1.0, rel=1e-12)
    doubled = PhaseField(2.0 * a, yg, pg)
    with pytest.raises(NumericalFailureError):
        tv_distance(fa, doubled)
    finer = PhaseField(np.zeros((48, 16)), yg, build_phi_grid(16))
    with pytest.raises(ConfigurationError, match="shapes differ"):
        tv_distance(finer, fa)


def test_reflection_keeps_domain():
    params = ModelParams(epsilon=0.5, D=0.2, T=1.0, V=shifted_sine(1.0, 0.5),
                         Phi=const(1.0))
    e = run_particles(sample_initial(5000, 9, 2.0), params, 0.01, 0.5,
                      y_max=2.0)
    assert np.all(e.y >= 0.0)
    assert np.all(e.y <= 2.0)
    assert np.all((e.phi >= 0.0) & (e.phi < 2.0 * math.pi))


def test_em_step_dt_bound():
    e = sample_initial(100, 3, 8.0)
    params = _drift_params()
    with pytest.raises(ConfigurationError):
        em_step(e, params, 0.2)


def test_em_step_rejects_negative_or_nonfinite_dt():
    e = sample_initial(100, 3, 8.0)
    for dt in (-0.01, -math.inf, math.inf, math.nan):
        with pytest.raises(ConfigurationError):
            em_step(e, _drift_params(), dt)


def test_em_step_without_drift_is_pure_diffusion():
    # V = Phi = 0: no drift, so no weak-order bound on dt
    params = ModelParams(epsilon=0.05, D=0.2, T=1.0, V=const(0.0),
                         Phi=const(0.0))
    e = sample_initial(1000, 4, 3.0)
    out = _stepped(e, params, 0.5)
    assert np.all(np.isfinite(out.y)) and np.all(np.isfinite(out.phi))
    _assert_same_ensemble(out, em_step_reference(e, params, 0.5))


def test_run_particles_rejects_negative_or_nonfinite_t_final():
    e = sample_initial(5, 1, 4.0)
    for t_final in (-0.5, -1e-300, math.inf, math.nan):
        with pytest.raises(ConfigurationError):
            run_particles(e, _drift_params(), 0.01, t_final)


def test_run_particles_at_time_zero_returns_unchanged_copy():
    for step in (0, 3):
        e = sample_initial(5, 1, 4.0)
        e.step = step
        out = run_particles(e, _drift_params(), 0.01, 0.0)
        _assert_same_ensemble(out, e)
        assert not np.shares_memory(out.y, e.y)
        assert not np.shares_memory(out.phi, e.phi)


def test_ensemble_shape_check():
    # 1-D arrays of one length, whose length is the read-only n; kills
    # the 1-D check removed (a 2-D or 0-D pair would pass)
    for y, phi in [(np.zeros(5), np.zeros(4)), (np.zeros((2, 3)),) * 2,
                   (np.float64(1.0),) * 2]:
        with pytest.raises(ConfigurationError):
            ParticleEnsemble(y=y, phi=phi, seed=1)
    e = ParticleEnsemble(y=[0.5, 1.0, 2.0], phi=np.zeros(3), seed=1)
    assert e.n == 3
    with pytest.raises(AttributeError):
        e.n = 4


def test_sample_initial_matches_reference_draws():
    # one inline chunk, and several chunks with a ragged tail on the pool
    for n in (1001, int(3.4 * particles._CHUNK)):
        e = sample_initial(n, 9, 8.0)
        u_y = _xor_key_uniforms(9, n, 3)
        u_p = _xor_key_uniforms(9, n, 4)
        np.testing.assert_array_equal(
            e.y, -np.log1p(-u_y * (1.0 - np.exp(-8.0))))
        np.testing.assert_array_equal(e.phi, 2.0 * np.pi * u_p)


# Each family drives both V and Phi once; V need not be positive here.
_FAMILY_PAIRS = [(const(1.3), shifted_sine(0.2, -0.4)),
                 (shifted_sine(1.0, 0.5), shear(0.5)),
                 (shear(-0.8), wall_drive(0.3, 1.1)),
                 (wall_drive(2.0, 0.7), const(-0.6))]


@pytest.mark.parametrize("chunks", [0.3, 3.4])
@pytest.mark.parametrize("pair", range(len(_FAMILY_PAIRS)))
@pytest.mark.parametrize("eps, D", [(0.0, 0.0), (0.05, 0.2)])
@pytest.mark.parametrize("y_max", [None, 2.0])
def test_chunked_step_matches_whole_array_reference(chunks, pair, eps, D,
                                                    y_max):
    # n below one chunk (one inline chunk) and n over several chunks with
    # a ragged tail (thread pool); D = 0 still draws, and adds, z_phi.
    # y_max None takes em_step's default, inf: no top wall
    n = int(chunks * particles._CHUNK)
    top = {} if y_max is None else {"y_max": y_max}
    V, Phi = _FAMILY_PAIRS[pair]
    params = ModelParams(epsilon=eps, D=D, T=1.0, V=V, Phi=Phi)
    dt = 0.01
    e0 = sample_initial(n, 100 + pair, 3.0)
    ref_1 = ref = em_step_reference(e0, params, dt, **top)
    for _ in range(2):
        ref = em_step_reference(ref, params, dt, **top)
    _assert_same_ensemble(_stepped(e0, params, dt, **top), ref_1)
    _assert_same_ensemble(run_particles(e0, params, dt, 3 * dt, **top), ref)


def test_step_independent_of_chunk_size_and_thread_count(monkeypatch):
    # many small ragged chunks on more threads than cores, with the
    # interpreter switching threads as often as it can: every particle
    # must still get its own update, written once
    params = ModelParams(epsilon=0.05, D=0.2, T=1.0,
                         V=shifted_sine(1.0, 0.5), Phi=shear(0.5))
    e0 = sample_initial(20_011, 5, 8.0)
    ref = em_step_reference(e0, params, 0.01, y_max=8.0)
    interval = sys.getswitchinterval()
    try:
        sys.setswitchinterval(1e-6)
        for chunk, cpus in [(997, 8), (4096, 1), (20_011, 3)]:
            monkeypatch.setattr(particles, "_CHUNK", chunk)
            monkeypatch.setattr(particles, "_cpu_count", lambda: cpus)
            _assert_same_ensemble(_stepped(e0, params, 0.01, y_max=8.0),
                                  ref)
    finally:
        sys.setswitchinterval(interval)


def test_step_wraps_angles_like_np_mod():
    # angles on and beyond both ends of [0, 2 pi), including -0.0, with
    # no angular noise, so that the drift alone decides the wrap
    two_pi = 2.0 * np.pi
    phi = np.array([-0.0, 0.0, 5e-324, -5e-324, two_pi,
                    np.nextafter(two_pi, 0.0), -7.0, 7.0, 20.0, -20.0])
    e = ParticleEnsemble(y=np.linspace(0.0, 1.0, len(phi)), phi=phi, seed=3)
    for Phi in (shear(0.5), const(0.0), const(-1e-3)):
        params = ModelParams(epsilon=0.05, D=0.0, T=1.0, V=const(1.0),
                             Phi=Phi)
        _assert_same_ensemble(_stepped(e, params, 0.01),
                              em_step_reference(e, params, 0.01))


@pytest.mark.parametrize("chunks", [0.3, 2.5])
def test_step_keeps_caller_error_state(chunks):
    # a non-finite angle in the last chunk: the caller's np.errstate
    # reaches the worker threads, and the error reaches the caller
    n = int(chunks * particles._CHUNK)
    phi = np.zeros(n)
    phi[-1] = np.inf
    e = ParticleEnsemble(y=np.ones(n), phi=phi, seed=1)
    params = ModelParams(epsilon=0.05, D=0.2, T=1.0,
                         V=shifted_sine(1.0, 0.5), Phi=const(1.0))
    with np.errstate(invalid="raise"), pytest.raises(FloatingPointError):
        em_step(e, params, 0.01)


_MARCH_PARAMS = ModelParams(epsilon=0.05, D=0.2, T=1.0,
                            V=shifted_sine(1.0, 0.5), Phi=shear(0.5))


@pytest.mark.parametrize("chunks", [0.3, 2.5])
@pytest.mark.parametrize("y_max", [None, 2.0])
def test_em_step_in_place_matches_fresh_arrays(chunks, y_max):
    # em_step overwrites e's own arrays and returns e, labelled as its
    # next step, with the bits of the whole-array reference, which writes
    # fresh arrays; y_max None takes the default, no top wall. Kills a
    # step into fresh arrays.
    top = {} if y_max is None else {"y_max": y_max}
    e = sample_initial(int(chunks * particles._CHUNK), 11, 3.0)
    e.step = 4
    fresh = em_step_reference(e, _MARCH_PARAMS, 0.01, **top)
    y, phi = e.y, e.phi
    out = em_step(e, _MARCH_PARAMS, 0.01, **top)
    assert out is e and out.y is y and out.phi is phi
    _assert_same_ensemble(out, fresh)


def test_em_step_refuses_read_only_arrays():
    # em_step writes into e.y and e.phi, so a read-only one is refused
    # before any chunk runs, leaving both arrays and e.step as they were.
    # Kills the check removed: numpy's ValueError escapes, and with phi
    # read-only the chunks have already stepped y.
    for name in ("y", "phi"):
        e = sample_initial(int(2.5 * particles._CHUNK), 11, 3.0)
        e.step = 4
        before = _copy(e)
        getattr(e, name).flags.writeable = False
        with pytest.raises(ConfigurationError,
                           match="y and phi must be writeable"):
            em_step(e, _MARCH_PARAMS, 0.01)
        _assert_same_ensemble(e, before)


def test_run_particles_matches_em_step_chain_and_keeps_input():
    e0 = sample_initial(int(2.5 * particles._CHUNK), 12, 3.0)
    e0.step = 2
    before = _copy(e0)
    chain = _copy(e0)
    for _ in range(5):
        chain = em_step(chain, _MARCH_PARAMS, 0.01, y_max=3.0)
    out = run_particles(e0, _MARCH_PARAMS, 0.01, 0.05, y_max=3.0)
    _assert_same_ensemble(out, chain)
    _assert_same_ensemble(e0, before)
    assert not np.shares_memory(out.y, e0.y)
    assert not np.shares_memory(out.phi, e0.phi)


def test_run_particles_independent_of_thread_count(monkeypatch):
    # one pool over all steps, writing in place: also with many small
    # ragged chunks on more threads than cores and frequent thread switches
    e0 = sample_initial(int(3.4 * particles._CHUNK), 13, 3.0)
    ref = e0
    for _ in range(4):
        ref = em_step_reference(ref, _MARCH_PARAMS, 0.01, y_max=3.0)
    interval = sys.getswitchinterval()
    try:
        for chunk, cpus, switch in [(particles._CHUNK, 1, interval),
                                    (particles._CHUNK, 2, interval),
                                    (particles._CHUNK, 3, interval),
                                    (997, 8, 1e-6)]:
            monkeypatch.setattr(particles, "_CHUNK", chunk)
            monkeypatch.setattr(particles, "_cpu_count", lambda: cpus)
            sys.setswitchinterval(switch)
            _assert_same_ensemble(
                run_particles(e0, _MARCH_PARAMS, 0.01, 0.04, y_max=3.0), ref)
    finally:
        sys.setswitchinterval(interval)


def test_chunk_pool_lives_with_the_process(monkeypatch):
    # one pool per CPU count serves every step of a march and every lone
    # call, and its threads outlive each call: once a march has started
    # them, no later march or lone call starts or stops a thread
    monkeypatch.setattr(particles, "_cpu_count", lambda: 2)
    make_pool, pools = particles._pool, []

    def recorded_pool(*args):
        pools.append(make_pool(*args))
        return pools[-1]

    monkeypatch.setattr(particles, "_pool", recorded_pool)
    e0 = sample_initial(int(2.5 * particles._CHUNK), 14, 3.0)
    run_particles(e0, _MARCH_PARAMS, 0.01, 0.04)
    start = threading.active_count()
    run_particles(e0, _MARCH_PARAMS, 0.01, 0.04)
    em_step(e0, _MARCH_PARAMS, 0.01)
    sample_initial(e0.n, 15, 3.0)
    histogram(e0, build_y_grid(4.0, 48, 0.4, 16), build_phi_grid(8))
    assert threading.active_count() == start
    # sample_initial, two marches of four steps, em_step, sample_initial
    # and histogram: all on the one pool
    assert len(pools) == 12
    assert all(pool is pools[0] for pool in pools)


def test_cpu_count_without_affinity(monkeypatch):
    # where the OS has no affinity call, the pool sizes itself by
    # os.cpu_count(), and by one CPU when that count is unknown (None).
    # Kills the fallback's "or 1" dropped, which returns None.
    monkeypatch.delattr(os, "sched_getaffinity", raising=False)
    monkeypatch.setattr(os, "cpu_count", lambda: 3)
    assert particles._cpu_count() == 3
    monkeypatch.setattr(os, "cpu_count", lambda: None)
    assert particles._cpu_count() == 1


def test_run_chunks_returns_in_order_and_waits_on_error(monkeypatch):
    monkeypatch.setattr(particles, "_CHUNK", 10)
    monkeypatch.setattr(particles, "_cpu_count", lambda: 3)

    def later_first(sl):
        # the earliest chunks finish last
        time.sleep(0.01 * (5 - sl.start // 10))
        return sl.start, sl.stop

    assert particles._run_chunks(45, later_first) == [
        (0, 10), (10, 20), (20, 30), (30, 40), (40, 45)]
    finished = []

    def first_fails(sl):
        if sl.start == 0:
            raise ValueError("first chunk")
        time.sleep(0.05)
        finished.append(sl.start)

    with pytest.raises(ValueError, match="first chunk"):
        particles._run_chunks(45, first_fails)
    assert sorted(finished) == [10, 20, 30, 40]


@pytest.mark.skipif(not hasattr(os, "fork"), reason="needs os.fork")
def test_forked_child_makes_its_own_pool():
    # a forked child has none of the pool threads its parent started: on
    # the parent's pool its chunks would wait in the queue for ever (the
    # alarm ends such a child)
    proc = run_python(["-c", textwrap.dedent("""
        import os, signal
        import numpy as np
        from activerods import particles
        particles._cpu_count = lambda: 2
        e = particles.sample_initial(3 * particles._CHUNK, 1, 3.0)
        pid = os.fork()
        if pid == 0:
            signal.alarm(20)
            child = particles.sample_initial(e.n, 1, 3.0)
            os._exit(0 if np.array_equal(child.y, e.y) else 1)
        raise SystemExit(os.waitstatus_to_exitcode(os.waitpid(pid, 0)[1]))
        """)])
    assert proc.returncode == 0, proc.stderr


def test_histogram_wraps_edge_angles_like_np_mod():
    # angles whose shifted value phi + h/2 lands on 0, on 2 pi, beyond it,
    # or is NaN: the masked _mod_2pi must bin them as np.mod does
    yg = build_y_grid(4.0, 48, 0.4, 16)
    pg = build_phi_grid(16)
    two_pi, h = 2.0 * np.pi, pg.h
    phi = np.array([-0.0, 0.0, -0.5 * h, two_pi - 0.5 * h,
                    np.nextafter(two_pi - 0.5 * h, 0.0),
                    np.nextafter(two_pi - 0.5 * h, 7.0), two_pi, 7.0, 20.0,
                    1e300, -5e-324, np.nan])
    e = ParticleEnsemble(y=np.linspace(0.05, 3.9, len(phi)), phi=phi, seed=1)
    np.testing.assert_array_equal(histogram(e, yg, pg).values,
                                  histogram_reference(e, yg, pg).values)


def test_histogram_matches_histogram2d():
    yg = build_y_grid(4.0, 48, 0.4, 16)
    pg = build_phi_grid(16)
    rng = np.random.default_rng(7)
    n = 50_000
    random = ParticleEnsemble(y=rng.uniform(-0.5, 4.5, n),
                              phi=rng.uniform(-7.0, 13.0, n), seed=1)
    # edges: y on every face (0 and y_max included) and beyond y_max;
    # shifted angles on every bin edge, and one just below 0 that np.mod
    # rounds up to exactly 2 pi
    h = pg.h
    edges_phi = np.linspace(0.0, 2.0 * np.pi, pg.n_phi + 1)
    wrap = np.nextafter(-0.5 * h, -1.0)
    assert np.mod(wrap + 0.5 * h, 2.0 * np.pi) == 2.0 * np.pi
    y = np.concatenate([yg.faces, [4.0 + 1e-12, 5.0, np.nan],
                        np.full(pg.n_phi + 2, 4.0), [4.0, 0.0]])
    phi = np.concatenate([np.zeros(len(yg.faces) + 3),
                          edges_phi - 0.5 * h, [wrap],
                          [wrap, wrap]])
    edge = ParticleEnsemble(y=y, phi=phi, seed=1)
    for e in (random, edge):
        np.testing.assert_array_equal(histogram(e, yg, pg).values,
                                      histogram_reference(e, yg, pg).values)
    # the top face and the rounded-up angle land in the last cells
    assert histogram(edge, yg, pg).values[-1, -1] > 0.0


def _count_chunk_reference(e, y_faces, edges_phi, half_h):
    # the binary-search binning that the bucket tables replaced
    def cell_index(x, edges):
        idx = np.searchsorted(edges, x, side="right") - 1
        idx[x == edges[-1]] -= 1
        return idx

    n_y, n_phi = len(y_faces) - 1, len(edges_phi) - 1
    iy = cell_index(e.y, y_faces)
    ip = cell_index(np.mod(e.phi + half_h, 2.0 * np.pi), edges_phi)
    inside = (iy >= 0) & (iy < n_y) & (ip >= 0) & (ip < n_phi)
    return np.bincount(iy[inside] * n_phi + ip[inside],
                       minlength=n_y * n_phi)


def _around(x, ulps=2):
    # x and its neighbours up to ulps floating-point steps away
    out = [np.asarray(x, dtype=float)]
    for direction in (np.inf, -np.inf):
        step = out[0]
        for _ in range(ulps):
            step = np.nextafter(step, direction)
            out.append(step)
    return np.concatenate([np.ravel(v) for v in out])


_BIN_GRIDS = {
    "criterion 13": (build_y_grid(8.0, 64, 0.4, 32).faces, 32),
    "example config": (build_y_grid(4.0, 48, 0.4, 16).faces, 16),
    "two cells": (np.array([0.0, 0.3, 1.0]), 2),
    # faces 3e-5 apart: several share a bucket, so a lookup compares more
    "crowded layer": (build_y_grid(8.0, 64, 1e-3, 32).faces, 4),
}


@pytest.mark.parametrize("grid", _BIN_GRIDS)
def test_count_chunk_matches_binary_search(grid):
    y_faces, n_phi = _BIN_GRIDS[grid]
    edges_phi = np.linspace(0.0, 2.0 * np.pi, n_phi + 1)
    h = 2.0 * np.pi / n_phi
    y_max, two_pi = y_faces[-1], 2.0 * np.pi
    odd = [np.nan, np.inf, -np.inf, 1e308, -1e308, -5e-324, -0.0]
    # every face and its neighbours (0 and y_max among them), values out
    # of range, NaN and infinities
    ys = np.concatenate([_around(y_faces), [-1.0, y_max + 1.0], odd])
    # angles whose shifted value phi + h/2 lands on or next to every bin
    # edge, 2 pi - h/2 among them, or wraps, or is not finite
    phis = np.concatenate([_around(edges_phi - 0.5 * h), _around(-0.5 * h),
                           _around(two_pi), [7.0, 20.0, 1e300], odd])
    rng = np.random.default_rng(len(y_faces))
    n_random = 20_000
    y = np.concatenate([ys, rng.choice(ys, len(phis)), np.repeat(ys, 3),
                        rng.uniform(-0.5, y_max + 0.5, n_random)])
    phi = np.concatenate([rng.choice(phis, len(ys)), phis,
                          np.tile(phis[:3], len(ys)),
                          rng.uniform(-7.0, 13.0, n_random)])
    e = ParticleEnsemble(y=y, phi=phi, seed=1)
    cuts = particles._Cuts.of(y_faces), particles._Cuts.of(edges_phi)
    if grid == "crowded layer":
        assert cuts[0].at.shape[0] > 1
    with np.errstate(invalid="ignore"):
        expect = _count_chunk_reference(e, y_faces, edges_phi, 0.5 * h)
        np.testing.assert_array_equal(
            particles._count_chunk(e, *cuts, 0.5 * h, slice(0, e.n)), expect)
        # a chunk of the ensemble counts its own particles only
        part = ParticleEnsemble(y=y[100:-50], phi=phi[100:-50], seed=1)
        np.testing.assert_array_equal(
            particles._count_chunk(e, *cuts, 0.5 * h, slice(100, e.n - 50)),
            _count_chunk_reference(part, y_faces, edges_phi, 0.5 * h))


def test_step_finite_and_silent_on_huge_angles():
    # finite angles far beyond float32's range (about 3.4e38) are reduced
    # mod 2 pi before the float32 sine, so no cast overflows to inf
    phi = np.array([1e300, -1e300, 3.5e38, -3.5e38, np.finfo(float).max,
                    -np.finfo(float).max, 1e10, 7.0])
    e = ParticleEnsemble(y=np.ones(len(phi)), phi=phi, seed=4)
    params = ModelParams(epsilon=0.05, D=0.2, T=1.0,
                         V=shifted_sine(1.0, 0.5), Phi=shear(0.5))
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        out = _stepped(e, params, 0.01)
        ref = em_step_reference(e, params, 0.01)
    assert np.all(np.isfinite(out.y)) and np.all(np.isfinite(out.phi))
    _assert_same_ensemble(out, ref)


def _step_noise(step, n, seed):
    # (z_y, z_phi) of one step, read back from particles that neither
    # reflect nor wrap: y = 10 - dt + 0.1 z_y, phi = pi + dt + 0.1 z_phi
    params = ModelParams(epsilon=0.5, D=0.5, T=1.0, V=const(1.0),
                         Phi=const(1.0))
    e = ParticleEnsemble(y=np.full(n, 10.0), phi=np.full(n, np.pi),
                         seed=seed)
    out = step(e, params, 0.01)
    return (out.y - (10.0 - 0.01)) / 0.1, (out.phi - (np.pi + 0.01)) / 0.1


def test_float32_trig_noise_moments_match_float64():
    # first four moments, and the cross moment, of the float32-trig and
    # the float64 Box-Muller pairs from the same draws agree with each
    # other and with the standard normal within 5 standard errors; the
    # 40-bit radius uniform caps |z| at sqrt(82 ln 2)
    n = 1_000_000
    new = _step_noise(em_step, n, 31)
    old = _step_noise(em_step_float64, n, 31)
    gauss = [0.0, 1.0, 0.0, 3.0]
    for z_new, z_old in zip(new, old):
        for k in range(1, 5):
            mean = np.mean(z_new ** k)
            se = np.std(z_new ** k) / math.sqrt(n)
            assert abs(mean - np.mean(z_old ** k)) <= 5.0 * se
            assert abs(mean - gauss[k - 1]) <= 5.0 * se
        # read back from y and phi, so a few ulps of 10 over 0.1
        assert np.max(np.abs(z_new)) <= _Z_CAP + 1e-12
    cross = new[0] * new[1]
    assert abs(np.mean(cross)) <= 5.0 * np.std(cross) / math.sqrt(n)


def test_one_hash_draw_has_the_two_hash_law():
    # criterion 13's model and ensemble: one step of em_step and of the
    # two-hash comparator give increments of y and phi whose means and
    # variances agree within 5 standard errors
    params = ModelParams(epsilon=0.05, D=0.2, T=0.5,
                         V=shifted_sine(1.0, 0.5), Phi=shear(0.5))
    n = 1_000_000
    e = sample_initial(n, 20240817, 8.0)
    moments = []
    for step in (_stepped, em_step_two_hash):
        out = step(e, params, 1e-3, y_max=8.0)
        d_phi = np.mod(out.phi - e.phi + np.pi, 2.0 * np.pi) - np.pi
        for d in (out.y - e.y, d_phi):
            sq = (d - np.mean(d)) ** 2
            moments.append((np.mean(d), np.var(d), np.std(sq) / math.sqrt(n)))
    for (m1, v1, se1), (m2, v2, se2) in zip(moments[:2], moments[2:]):
        assert abs(m1 - m2) <= 5.0 * math.sqrt((v1 + v2) / n)
        assert abs(v1 - v2) <= 5.0 * math.hypot(se1, se2)


def test_zero_noise_steps_silently():
    # eps = 0 and D = 0 make the noise amplitudes 0, with no division by
    # them: no warning, no floating-point error, and the drift alone
    params = ModelParams(epsilon=0.0, D=0.0, T=1.0, V=shifted_sine(1.0, 0.5),
                         Phi=shear(0.5))
    e = sample_initial(int(2.5 * particles._CHUNK), 23, 3.0)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with np.errstate(divide="raise", over="raise", invalid="raise"):
            out = _stepped(e, params, 0.01, y_max=3.0)
    _assert_same_ensemble(out, em_step_reference(e, params, 0.01, y_max=3.0))
    V = coeff_value_reference(params.V, e.phi, _sin32, scale=0.01)
    np.testing.assert_array_equal(out.y, np.abs(e.y - V))


def test_angle_fast_path_matches_masked_path(monkeypatch):
    # chunks whose old angles all lie in (0, 2 pi) skip their reduction
    # mod 2 pi; a chunk holding a NaN angle, or an angle of 0, takes it.
    # Forcing the reduction everywhere changes no bit.
    n = int(3.4 * particles._CHUNK)
    e = sample_initial(n, 21, 3.0)
    e.phi[5] = np.nan
    e.phi[particles._CHUNK + 7] = 0.0
    inside, fast = particles._inside_circle, []

    def recorded(x):
        fast.append(inside(x))
        return fast[-1]

    monkeypatch.setattr(particles, "_inside_circle", recorded)
    got = _stepped(e, _MARCH_PARAMS, 0.01, y_max=3.0)
    assert sorted(fast) == [False, False, True, True]
    monkeypatch.setattr(particles, "_inside_circle", lambda x: False)
    _assert_same_ensemble(got, _stepped(e, _MARCH_PARAMS, 0.01, y_max=3.0))
    assert np.isnan(got.phi[5]) and np.isnan(got.y[5])


def test_reflection_skip_matches_masked_path():
    # the tail chunk has no particle past y_max and skips the reflection;
    # the first chunk's maximum is NaN, and its particles past y_max must
    # still reflect
    n = int(2.5 * particles._CHUNK)
    e = sample_initial(n, 22, 2.0)
    e.y[3] = np.nan
    e.y[10:30] = 1.999
    e.y[2 * particles._CHUNK:] = np.minimum(e.y[2 * particles._CHUNK:], 1.0)
    free = _stepped(e, _MARCH_PARAMS, 0.01)
    assert np.any(free.y[:particles._CHUNK] > 2.0)
    assert not np.any(free.y[2 * particles._CHUNK:] > 2.0)
    _assert_same_ensemble(_stepped(e, _MARCH_PARAMS, 0.01, y_max=2.0),
                          em_step_reference(e, _MARCH_PARAMS, 0.01, y_max=2.0))


def test_float32_trig_histogram_at_noise_floor():
    # criterion 13's model and cells: one step of the float32-trig and
    # the float64 kernel from the same ensemble differ by far less than
    # two independent float64 ensembles do
    params = ModelParams(epsilon=0.05, D=0.2, T=0.5,
                         V=shifted_sine(1.0, 0.5), Phi=shear(0.5))
    yg = build_y_grid(8.0, 64, 0.4, 32)
    pg = build_phi_grid(32)
    n = 1_000_000

    def one_step(step, seed):
        e = step(sample_initial(n, seed, 8.0), params, 1e-3, y_max=8.0)
        return histogram(e, yg, pg)

    old = one_step(em_step_float64, 20240817)
    floor = tv_distance(old, one_step(em_step_float64, 1))
    assert tv_distance(one_step(em_step, 20240817), old) <= 0.1 * floor


def test_float32_trig_is_elementwise():
    # the step's chunking leaves its bits alone only if numpy's float32
    # sin and cos give an element the same bits at any slice length and
    # offset (vector body or scalar tail), with out= or without
    rng = np.random.default_rng(11)
    x = (rng.random(5000) * 2.0 * np.pi).astype(np.float32)
    for trig in (np.sin, np.cos):
        whole = trig(x).view(np.uint32)
        for length in (*range(1, 40), 997, 4096):
            for offset in (0, 1, 3, 7, 8, 15, 17):
                part = x[offset:offset + length]
                out = np.empty_like(part)
                trig(part, out=out)
                expect = whole[offset:offset + length]
                np.testing.assert_array_equal(out.view(np.uint32), expect)
                np.testing.assert_array_equal(trig(part).view(np.uint32),
                                              expect)
