import math
import sys
import threading
import warnings

import numpy as np
import pytest

from activerods import (ConfigurationError, ModelParams,
                        NumericalFailureError, ParticleEnsemble, PhaseField,
                        build_phi_grid, build_y_grid, em_step, histogram,
                        norms, run_particles, sample_initial, sup_abs,
                        tv_distance)
from activerods import particles

from conftest import (coeff_value_reference, const, shear, shifted_sine,
                      wall_drive)


# -- whole-array references ---------------------------------------------------
# The one-shot em_step and the histogram2d histogram that the chunked step
# and the bincount histogram replaced, kept as the references they must
# match bitwise. em_step takes its trig in float32; the float64 formula it
# replaced stays as the statistical comparator (em_step_float64).

def _mix64_reference(x):
    x = (x ^ (x >> np.uint64(30))) * np.uint64(0xBF58476D1CE4E5B9)
    x = (x ^ (x >> np.uint64(27))) * np.uint64(0x94D049BB133111EB)
    return x ^ (x >> np.uint64(31))


def _uniforms_reference(seed, stride, n, slot, channel):
    keys = np.uint64(seed % (1 << 64)) ^ (
        np.arange(n, dtype=np.uint64) * np.uint64(stride % (1 << 64)))
    counter = slot * 4 + channel + 1
    offset = np.uint64((0x9E3779B97F4A7C15 * counter) % (1 << 64))
    bits = _mix64_reference(keys + offset)
    return ((bits >> np.uint64(11)).astype(np.float64) + 0.5) * 2.0 ** -53


def _sin32(phi):
    # float32 sine of the angle reduced mod 2 pi in float64, upcast again
    return np.sin(np.mod(phi, 2.0 * np.pi).astype(np.float32)).astype(
        np.float64)


def em_step_reference(e, params, dt, y_max=None, float32_trig=True):
    drift = max(sup_abs(params.Phi, 0), sup_abs(params.V, 0))
    assert dt * drift <= 0.1 * (1.0 + 1e-12)
    slot = e.step + 1
    u1 = _uniforms_reference(e.seed, particles._STRIDE, e.n, slot, 0)
    u2 = _uniforms_reference(e.seed, particles._STRIDE, e.n, slot, 1)
    r = np.sqrt(-2.0 * np.log(u1))
    theta = 2.0 * np.pi * u2
    sin = np.sin
    if float32_trig:
        theta, sin = theta.astype(np.float32), _sin32
    z_y, z_p = r * np.cos(theta), r * np.sin(theta)
    V = coeff_value_reference(params.V, e.phi, sin)
    Phi = coeff_value_reference(params.Phi, e.phi, sin)
    y = e.y - V * dt + np.sqrt(2.0 * params.epsilon * dt) * z_y
    phi = e.phi + Phi * dt + np.sqrt(2.0 * params.D * dt) * z_p
    y = np.abs(y)
    if y_max is not None:
        over = y > y_max
        if np.any(over):
            y[over] = 2.0 * y_max - y[over]
    phi = np.mod(phi, 2.0 * np.pi)
    return ParticleEnsemble(y=y, phi=phi, n=e.n, seed=e.seed,
                            step=e.step + 1)


def em_step_float64(e, params, dt, y_max=None):
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
    return ModelParams(epsilon=0.0, D=0.0, T=T, V=const(1.0), Phi=const(1.0),
                       allow_zero_epsilon=True)


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
    e = ParticleEnsemble(y=np.full(n, 1.0), phi=np.linspace(0, 6, n), n=n,
                         seed=5)
    params = _drift_params()
    out = run_particles(e, params, 0.01, 0.4)
    np.testing.assert_allclose(out.y, 0.6, atol=1e-10)
    np.testing.assert_allclose(
        out.phi, np.mod(np.linspace(0, 6, n) + 0.4, 2.0 * math.pi),
        atol=1e-10)


def test_noiseless_drift_sticks_at_wall():
    # wall folding pins a noiseless inward drifter within one step of 0
    n = 8
    e = ParticleEnsemble(y=np.full(n, 1.0), phi=np.zeros(n), n=n, seed=5)
    out = run_particles(e, _drift_params(), 0.01, 1.3)
    assert np.all(out.y >= 0.0)
    assert np.all(out.y <= 0.01 + 1e-12)


def test_mean_decrement_matches_mean_speed():
    n = 100_000
    dt = 0.01
    params = ModelParams(epsilon=0.0, D=0.0, T=1.0, V=shifted_sine(1.0, 0.5),
                         Phi=const(0.0), allow_zero_epsilon=True)
    e0 = sample_initial(n, 77, 8.0)
    e0 = ParticleEnsemble(y=np.full(n, 4.0), phi=e0.phi, n=n, seed=77)
    e1 = em_step(e0, params, dt)
    drop = float(np.mean(e0.y - e1.y))
    # E[V] = 1.5 under the uniform angle law; 3 sigma monte carlo band
    sigma = 0.5 / math.sqrt(2.0) * dt / math.sqrt(n)
    assert abs(drop - 1.5 * dt) <= 3.0 * sigma + 3.0 * dt / math.sqrt(n)


def test_histogram_mass_and_single_cell():
    yg = build_y_grid(4.0, 48, 0.4, 16)
    pg = build_phi_grid(16)
    n = 500
    e = ParticleEnsemble(y=np.full(n, 0.11), phi=np.zeros(n), n=n, seed=1)
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
    e = ParticleEnsemble(y=np.full(10, 10.0), phi=np.zeros(10), n=10, seed=1)
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
    out = em_step(e, params, 0.5)
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
    with pytest.raises(ConfigurationError):
        ParticleEnsemble(y=np.zeros(5), phi=np.zeros(4), n=5, seed=1)


def test_sample_initial_matches_reference_draws():
    # one inline chunk, and several chunks with a ragged tail on the pool
    for n in (1001, int(3.4 * particles._CHUNK)):
        e = sample_initial(n, 9, 8.0)
        u_y = _uniforms_reference(9, particles._STRIDE, n, 0, 2)
        u_p = _uniforms_reference(9, particles._STRIDE, n, 0, 3)
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
    # a ragged tail (thread pool); D = 0 still draws, and adds, z_phi
    n = int(chunks * particles._CHUNK)
    V, Phi = _FAMILY_PAIRS[pair]
    params = ModelParams(epsilon=eps, D=D, T=1.0, V=V, Phi=Phi,
                         allow_zero_epsilon=True)
    dt = 0.01
    e0 = sample_initial(n, 100 + pair, 3.0)
    ref = e0
    for _ in range(3):
        ref = em_step_reference(ref, params, dt, y_max=y_max)
    _assert_same_ensemble(em_step(e0, params, dt, y_max=y_max),
                          em_step_reference(e0, params, dt, y_max=y_max))
    _assert_same_ensemble(run_particles(e0, params, dt, 3 * dt,
                                        y_max=y_max), ref)


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
            _assert_same_ensemble(em_step(e0, params, 0.01, y_max=8.0), ref)
    finally:
        sys.setswitchinterval(interval)


def test_step_wraps_angles_like_np_mod():
    # angles on and beyond both ends of [0, 2 pi), including -0.0, with
    # no angular noise, so that the drift alone decides the wrap
    two_pi = 2.0 * np.pi
    phi = np.array([-0.0, 0.0, 5e-324, -5e-324, two_pi,
                    np.nextafter(two_pi, 0.0), -7.0, 7.0, 20.0, -20.0])
    e = ParticleEnsemble(y=np.linspace(0.0, 1.0, len(phi)), phi=phi,
                         n=len(phi), seed=3)
    for Phi in (shear(0.5), const(0.0), const(-1e-3)):
        params = ModelParams(epsilon=0.05, D=0.0, T=1.0, V=const(1.0),
                             Phi=Phi)
        _assert_same_ensemble(em_step(e, params, 0.01),
                              em_step_reference(e, params, 0.01))


@pytest.mark.parametrize("chunks", [0.3, 2.5])
def test_step_keeps_caller_error_state(chunks):
    # a non-finite angle in the last chunk: the caller's np.errstate
    # reaches the worker threads, and the error reaches the caller
    n = int(chunks * particles._CHUNK)
    phi = np.zeros(n)
    phi[-1] = np.inf
    e = ParticleEnsemble(y=np.ones(n), phi=phi, n=n, seed=1)
    params = ModelParams(epsilon=0.05, D=0.2, T=1.0,
                         V=shifted_sine(1.0, 0.5), Phi=const(1.0))
    with np.errstate(invalid="raise"), pytest.raises(FloatingPointError):
        em_step(e, params, 0.01)


def _copy(e):
    return ParticleEnsemble(y=e.y.copy(), phi=e.phi.copy(), n=e.n,
                            seed=e.seed, step=e.step)


_MARCH_PARAMS = ModelParams(epsilon=0.05, D=0.2, T=1.0,
                            V=shifted_sine(1.0, 0.5), Phi=shear(0.5))


@pytest.mark.parametrize("chunks", [0.3, 2.5])
@pytest.mark.parametrize("y_max", [None, 2.0])
def test_em_step_in_place_matches_fresh_arrays(chunks, y_max):
    e = sample_initial(int(chunks * particles._CHUNK), 11, 3.0)
    e.step = 4
    fresh = em_step(e, _MARCH_PARAMS, 0.01, y_max=y_max)
    inplace = _copy(e)
    y, phi = inplace.y, inplace.phi
    out = em_step(inplace, _MARCH_PARAMS, 0.01, y_max=y_max, out=inplace)
    assert out is inplace and out.y is y and out.phi is phi
    _assert_same_ensemble(out, fresh)
    # out with other labels takes e's seed and next step
    other = ParticleEnsemble(y=np.zeros(e.n), phi=np.zeros(e.n), n=e.n,
                             seed=99, step=0)
    _assert_same_ensemble(em_step(e, _MARCH_PARAMS, 0.01, y_max=y_max,
                                  out=other), fresh)


def test_em_step_out_size_mismatch_raises():
    e = sample_initial(100, 3, 8.0)
    out = ParticleEnsemble(y=np.zeros(99), phi=np.zeros(99), n=99, seed=3)
    with pytest.raises(ConfigurationError):
        em_step(e, _MARCH_PARAMS, 0.01, out=out)


def test_run_particles_matches_em_step_chain_and_keeps_input():
    e0 = sample_initial(int(2.5 * particles._CHUNK), 12, 3.0)
    e0.step = 2
    before = _copy(e0)
    chain = e0
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


def test_run_particles_shares_one_pool_and_leaves_no_thread(monkeypatch):
    # the pool's threads live from the first step to the end of the march
    # (one pool for all steps), and none is left once run_particles returns
    monkeypatch.setattr(particles, "_cpu_count", lambda: 2)
    step, alive = particles.em_step, []

    def counted_step(*args, **kwargs):
        out = step(*args, **kwargs)
        alive.append(threading.active_count())
        return out

    monkeypatch.setattr(particles, "em_step", counted_step)
    e0 = sample_initial(int(2.5 * particles._CHUNK), 14, 3.0)
    start = threading.active_count()
    run_particles(e0, _MARCH_PARAMS, 0.01, 0.04)
    assert threading.active_count() == start
    assert len(alive) == 4 and min(alive) > start
    # em_step alone still shuts its own pool down
    step(e0, _MARCH_PARAMS, 0.01)
    assert threading.active_count() == start


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
    e = ParticleEnsemble(y=np.linspace(0.05, 3.9, len(phi)), phi=phi,
                         n=len(phi), seed=1)
    np.testing.assert_array_equal(histogram(e, yg, pg).values,
                                  histogram_reference(e, yg, pg).values)


def test_histogram_matches_histogram2d():
    yg = build_y_grid(4.0, 48, 0.4, 16)
    pg = build_phi_grid(16)
    rng = np.random.default_rng(7)
    n = 50_000
    random = ParticleEnsemble(y=rng.uniform(-0.5, 4.5, n),
                              phi=rng.uniform(-7.0, 13.0, n), n=n, seed=1)
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
    edge = ParticleEnsemble(y=y, phi=phi, n=len(y), seed=1)
    for e in (random, edge):
        np.testing.assert_array_equal(histogram(e, yg, pg).values,
                                      histogram_reference(e, yg, pg).values)
    # the top face and the rounded-up angle land in the last cells
    assert histogram(edge, yg, pg).values[-1, -1] > 0.0


def test_step_finite_and_silent_on_huge_angles():
    # finite angles far beyond float32's range (about 3.4e38) are reduced
    # mod 2 pi before the float32 sine, so no cast overflows to inf
    phi = np.array([1e300, -1e300, 3.5e38, -3.5e38, np.finfo(float).max,
                    -np.finfo(float).max, 1e10, 7.0])
    e = ParticleEnsemble(y=np.ones(len(phi)), phi=phi, n=len(phi), seed=4)
    params = ModelParams(epsilon=0.05, D=0.2, T=1.0,
                         V=shifted_sine(1.0, 0.5), Phi=shear(0.5))
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        out = em_step(e, params, 0.01)
        ref = em_step_reference(e, params, 0.01)
    assert np.all(np.isfinite(out.y)) and np.all(np.isfinite(out.phi))
    _assert_same_ensemble(out, ref)


def _step_noise(step, n, seed):
    # (z_y, z_phi) of one step, read back from particles that neither
    # reflect nor wrap: y = 10 - dt + 0.1 z_y, phi = pi + dt + 0.1 z_phi
    params = ModelParams(epsilon=0.5, D=0.5, T=1.0, V=const(1.0),
                         Phi=const(1.0))
    e = ParticleEnsemble(y=np.full(n, 10.0), phi=np.full(n, np.pi), n=n,
                         seed=seed)
    out = step(e, params, 0.01)
    return (out.y - (10.0 - 0.01)) / 0.1, (out.phi - (np.pi + 0.01)) / 0.1


def test_float32_trig_noise_moments_match_float64():
    # first four moments, and the cross moment, of the float32-trig and
    # the float64 Box-Muller pairs from the same draws agree with each
    # other and with the standard normal within 5 standard errors
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
    cross = new[0] * new[1]
    assert abs(np.mean(cross)) <= 5.0 * np.std(cross) / math.sqrt(n)


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
