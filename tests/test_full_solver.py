import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from scipy.linalg import solve_banded

from activerods import (AssumptionViolationError, ConfigurationError,
                        FullSolverConfig, ModelParams, NumericalFailureError,
                        PhaseField, build_phi_grid, build_y_grid,
                        eval_on_nodes, manufactured_state, norms, phi_substep,
                        run_full, run_limit, steady_layer, step_full,
                        step_limit)
from activerods.full_solver import (_fitted_flux_coeffs, _implicit_y_step,
                                    resolve_dt)
from activerods.limit_solver import _upwind_y_step

from conftest import (angular_drifts, const, graded_y_grids, positive_speeds,
                      patchy_values, round_off_bound, shear, shifted_sine,
                      wall_drive)


def test_steady_layer_mass():
    yg = build_y_grid(4.0, 96, 0.8, 64)
    pg = build_phi_grid(16)
    f = steady_layer(const(1.0), 0.05, yg, pg)
    assert norms(f)["mass"] == pytest.approx(2.0 * math.pi, rel=1e-12)


def test_steady_layer_partial_integral():
    # profile 20 exp(-20 y); its integral over [0, 0.05] is 1 - 1/e
    yg = build_y_grid(2.0, 40, 0.05, 10)
    pg = build_phi_grid(4)
    f = steady_layer(const(2.0), 0.1, yg, pg)
    got = float(np.sum(f.values[:10, 0] * yg.widths[:10]))
    assert got == pytest.approx(1.0 - math.exp(-1.0), rel=1e-12)
    with pytest.raises(ConfigurationError):
        steady_layer(const(2.0), 0.0, yg, pg)


def test_layer_is_stationary():
    eps = 0.05
    yg = build_y_grid(4.0, 128, 18 * eps, 72)
    pg = build_phi_grid(16)
    params = ModelParams(epsilon=eps, D=0.5, T=0.2, V=const(1.0),
                         Phi=const(0.0))
    f0 = steady_layer(params.V, eps, yg, pg)
    snaps = run_full(f0, params, FullSolverConfig(dt=0.02), [0.2])
    dev = norms(PhaseField(snaps[-1][1].values - f0.values, yg, pg))["l1"]
    assert dev <= 1e-8


def test_layer_stationary_angle_dependent_speed():
    eps = 0.05
    yg = build_y_grid(4.0, 128, 18 * eps, 72)
    pg = build_phi_grid(16)
    params = ModelParams(epsilon=eps, D=0.0, T=0.1, V=shifted_sine(1.0, 0.5),
                         Phi=const(0.0))
    f0 = steady_layer(params.V, eps, yg, pg)
    snaps = run_full(f0, params, FullSolverConfig(dt=0.01), [0.1])
    dev = norms(PhaseField(snaps[-1][1].values - f0.values, yg, pg))["l1"]
    assert dev <= 1e-8


def test_rotating_layer_error_bound():
    # pure angular transport of the stationary layer times a profile
    eps = 0.05
    T = 0.25
    yg = build_y_grid(4.0, 96, 0.8, 64)
    pg = build_phi_grid(64)
    params = ModelParams(epsilon=eps, D=0.0, T=T, V=const(1.0),
                         Phi=const(1.0))
    prof = (1.0 + 0.5 * np.sin(pg.nodes)) / (2.0 * math.pi)
    layer = steady_layer(params.V, eps, yg, pg)
    f0 = PhaseField(layer.values * prof[None, :], yg, pg)
    snaps = run_full(f0, params, FullSolverConfig(dt=T / 16), [T])
    exact = layer.values * ((1.0 + 0.5 * np.sin(pg.nodes - T))
                            / (2.0 * math.pi))[None, :]
    err = norms(PhaseField(snaps[-1][1].values - exact, yg, pg))["l1"]
    assert err <= 1e-2


def test_zero_field_stays_zero(small_grids, unit_params):
    yg, pg = small_grids
    f = PhaseField(np.zeros((yg.n_y, pg.n_phi)), yg, pg)
    out = step_full(f, unit_params, FullSolverConfig(dt=0.01))
    assert np.all(out.values == 0.0)


def test_run_full_time_zero(small_grids, unit_params):
    yg, pg = small_grids
    f0 = steady_layer(unit_params.V, unit_params.epsilon, yg, pg)
    snaps = run_full(f0, unit_params, FullSolverConfig(dt=0.01), [0.0])
    t, f = snaps[0]
    assert t == 0.0
    np.testing.assert_array_equal(f.values, f0.values)
    assert f.values is not f0.values


def test_long_run_mass_drift():
    yg = build_y_grid(4.0, 48, 0.4, 16)
    pg = build_phi_grid(16)
    params = ModelParams(epsilon=0.02, D=0.2, T=0.6, V=shifted_sine(1.0, 0.5),
                         Phi=shear(0.5))
    f0 = steady_layer(params.V, params.epsilon, yg, pg)
    m0 = norms(f0)["mass"]
    snaps = run_full(f0, params, FullSolverConfig(dt=0.002), [0.6])
    m1 = norms(snaps[-1][1])["mass"]
    assert abs(m1 - m0) <= 1e-12 * m0


def test_nan_input_rejected(small_grids, unit_params):
    yg, pg = small_grids
    vals = np.zeros((yg.n_y, pg.n_phi))
    vals[0, 0] = np.nan
    f = PhaseField(vals, yg, pg)
    with pytest.raises(NumericalFailureError):
        step_full(f, unit_params, FullSolverConfig(dt=0.01))


def test_solver_config_validation():
    with pytest.raises(ConfigurationError):
        FullSolverConfig(splitting="yoshida")
    with pytest.raises(ConfigurationError):
        FullSolverConfig(dt=-0.1)
    with pytest.raises(ConfigurationError):
        FullSolverConfig(dt="later")
    with pytest.raises(ConfigurationError):
        FullSolverConfig(safety=0.0)


def test_subcycle_cap():
    vals = np.ones((4, 16))
    Phi_face = np.zeros(16)
    h = 2.0 * math.pi / 16
    with pytest.raises(ConfigurationError):
        phi_substep(vals, Phi_face, 1e9, h, 0.1)


def test_phi_substep_positive_where_drift_diverges():
    # Phi = -sin(phi) on four nodes: the cell at phi = pi drains through
    # both of its faces, so its outflow rate is twice max|Phi| / h
    pg = build_phi_grid(4)
    vals = np.array([[0.0, 0.0, 1.0, 0.0]])
    for dt in np.linspace(0.1, 4.0, 40):
        out = phi_substep(vals, -np.sin(pg.faces), 0.0, pg.h, dt)
        assert np.min(out) >= 0.0
        assert np.sum(out) == pytest.approx(1.0, rel=1e-14)


def test_speed_sign_assumption_enforced(small_grids):
    yg, pg = small_grids
    params = ModelParams(epsilon=0.05, D=0.0, T=0.5, V=wall_drive(0.5, 1.0),
                         Phi=const(0.0))
    f = PhaseField(np.ones((yg.n_y, pg.n_phi)), yg, pg)
    with pytest.raises(AssumptionViolationError):
        step_full(f, params, FullSolverConfig(dt=0.01))


def test_strang_step_conserves(small_grids):
    yg, pg = small_grids
    params = ModelParams(epsilon=0.05, D=0.1, T=0.5, V=shifted_sine(1.0, 0.5),
                         Phi=shear(0.5))
    f0 = steady_layer(params.V, params.epsilon, yg, pg)
    out = step_full(f0, params, FullSolverConfig(dt=0.01, splitting="strang"))
    assert np.all(np.isfinite(out.values))
    assert norms(out)["mass"] == pytest.approx(norms(f0)["mass"], rel=1e-12)


@pytest.mark.parametrize("splitting", ["lie", "strang"])
def test_run_full_one_step_matches_step_full(small_grids, splitting):
    yg, pg = small_grids
    params = ModelParams(epsilon=0.05, D=0.2, T=0.5, V=shifted_sine(1.0, 0.5),
                         Phi=shear(0.5))
    f0 = steady_layer(params.V, params.epsilon, yg, pg)
    cfg = FullSolverConfig(dt=0.01, splitting=splitting)
    (t, f), = run_full(f0, params, cfg, [0.01])
    assert t == 0.01
    np.testing.assert_array_equal(f.values,
                                  step_full(f0, params, cfg, 0.01).values)


@settings(max_examples=200, deadline=None)
@given(graded_y_grids(), st.integers(4, 16), positive_speeds, angular_drifts,
       st.floats(0.0, 1.0), st.floats(0.005, 0.5), st.floats(1e-3, 2.0),
       st.sampled_from(["lie", "strang"]), st.integers(0, 2 ** 32 - 1))
def test_step_preserves_mass_and_positivity(yg, n_phi, V, Phi, D, eps, dt,
                                            splitting, seed):
    pg = build_phi_grid(n_phi)
    f = PhaseField(patchy_values(seed, (yg.n_y, n_phi)), yg, pg)
    params = ModelParams(epsilon=eps, D=D, T=0.5, V=V, Phi=Phi)
    out = step_full(f, params, FullSolverConfig(dt=dt, splitting=splitting))
    a, b = _fitted_flux_coeffs(eval_on_nodes(V, pg), eps, yg)
    rel = round_off_bound(1.0 + dt / yg.widths[:, None] * (a[1:] + b[:-1]))
    assert norms(out)["mass"] == pytest.approx(norms(f)["mass"],
                                               rel=max(rel, 1e-12))
    assert np.min(out.values) >= -1e-12


def _thomas_reference(values, a, b, widths, dt):
    """Row-loop Thomas solve of the fitted-flux backward-Euler system."""
    n_y = values.shape[0]
    r = dt / widths[:, None]
    diag = 1.0 + r * (a[1:, :] + b[:-1, :])
    lower = -r * a[:-1, :]
    upper = -r * b[1:, :]
    cp = np.empty_like(values)
    dp = np.empty_like(values)
    cp[0] = upper[0] / diag[0]
    dp[0] = values[0] / diag[0]
    for i in range(1, n_y):
        denom = diag[i] - lower[i] * cp[i - 1]
        cp[i] = upper[i] / denom
        dp[i] = (values[i] - lower[i] * dp[i - 1]) / denom
    out = np.empty_like(values)
    out[n_y - 1] = dp[n_y - 1]
    for i in range(n_y - 2, -1, -1):
        out[i] = dp[i] - cp[i] * out[i + 1]
    return out


def _upwind_reference(bulk, wall, V_nodes, widths, dt):
    """Row-loop top-down back-substitution of the limit y-step."""
    n_y = bulk.shape[0]
    r = dt * V_nodes[None, :] / widths[:, None]
    out = np.empty_like(bulk)
    out[n_y - 1] = bulk[n_y - 1] / (1.0 + r[n_y - 1])
    for i in range(n_y - 2, -1, -1):
        out[i] = (bulk[i] + r[i] * out[i + 1]) / (1.0 + r[i])
    return out, wall + dt * V_nodes * out[0]


@settings(max_examples=200, deadline=None)
@given(graded_y_grids(), st.integers(4, 16), positive_speeds,
       st.floats(0.005, 0.5), st.floats(1e-4, 1.0), st.integers(0, 2 ** 32 - 1))
def test_y_steps_match_row_loop_references(yg, n_phi, V, eps, dt, seed):
    V_nodes = eval_on_nodes(V, build_phi_grid(n_phi))
    rng = np.random.default_rng(seed)
    vals = rng.uniform(0.0, 1.0, size=(yg.n_y, n_phi))
    wall = rng.uniform(0.0, 1.0, size=n_phi)
    w = yg.widths[:, None]
    mass = np.sum(vals * w)

    # LAPACK pivots, which reorders the fitted-flux arithmetic
    a, b = _fitted_flux_coeffs(V_nodes, eps, yg)
    tol = round_off_bound(1.0 + dt / w * (a[1:] + b[:-1]))
    ref = _thomas_reference(vals, a, b, yg.widths, dt)
    out = _implicit_y_step(a, b, yg.widths, dt)(vals)
    assert np.sum(np.abs(out - ref) * w) <= tol * np.sum(ref * w)
    assert abs(np.sum(out * w) - mass) <= tol * mass

    # with a zero sub-diagonal it does the reference's arithmetic exactly
    tol = round_off_bound(1.0 + dt * V_nodes / w)
    bulk, wall_new = _upwind_y_step(V_nodes, yg.widths, dt)((vals, wall))
    ref_bulk, ref_wall = _upwind_reference(vals, wall, V_nodes, yg.widths, dt)
    np.testing.assert_array_equal(bulk, ref_bulk)
    np.testing.assert_array_equal(wall_new, ref_wall)
    total = mass + np.sum(wall)
    assert abs(np.sum(bulk * w) + np.sum(wall_new) - total) <= tol * total


# ---------------------------------------------------------------------------
# the solvers as they were before each y-operator was factored once per step
# size and the angular substep kept its work arrays: every result must match
# them bit for bit


def _solve_columns_reference(lower, diag, upper, rhs):
    """One unfactored LAPACK gtsv solve (scipy solve_banded) over the
    phi-major angle columns with zero coupling between them."""
    n_y, n_phi = rhs.shape
    ab = np.zeros((3, n_phi, n_y))
    ab[0, :, 1:] = upper[:-1].T
    ab[1] = diag.T
    ab[2, :, :-1] = lower[1:].T
    x = solve_banded((1, 1), ab.reshape(3, -1), rhs.T.flatten(),
                     overwrite_ab=True, overwrite_b=True, check_finite=False)
    return x.reshape(n_phi, n_y).T


def _phi_substep_reference(values, Phi_face, D, h, dt, safety=0.9):
    """The angular substep with np.roll and np.where on every sub-cycle."""
    drain = np.maximum(Phi_face, 0.0) - np.minimum(np.roll(Phi_face, 1), 0.0)
    denom = float(np.max(drain)) / h + 2.0 * D / h ** 2
    if denom <= 0.0 or dt <= 0.0:
        return values.copy()
    n_sub = max(1, math.ceil(dt / (safety / denom) - 1e-12))
    dts = dt / n_sub
    out = values.copy()
    pos = Phi_face >= 0.0
    for _ in range(n_sub):
        nxt = np.roll(out, -1, axis=-1)
        upw = np.where(pos, out, nxt)
        F = Phi_face * upw - D * (nxt - out) / h
        out = out - (dts / h) * (F - np.roll(F, 1, axis=-1))
    return out


def _fitted_y_reference(a, b, widths):
    def y_step(state, dt):
        r = dt / widths[:, None]
        return (_solve_columns_reference(
            -r * a[:-1, :], 1.0 + r * (a[1:, :] + b[:-1, :]), -r * b[1:, :],
            state[0]),)
    return y_step


def _upwind_y_reference(V_nodes, widths):
    def y_step(state, dt):
        bulk, wall = state
        r = dt * V_nodes[None, :] / widths[:, None]
        out = _solve_columns_reference(np.zeros_like(r), 1.0 + r, -r, bulk)
        return out, wall + dt * V_nodes * out[0]
    return y_step


def _march_reference(y_step, state, params, pg, cfg, times):
    """Split steps with every y-operator solved from scratch, marched to
    the snapshot times in ceil(span / dt) equal steps per segment."""
    Phi_face = np.asarray(params.Phi(pg.faces), dtype=float) * np.ones(
        pg.n_phi)

    def phi_step(state, dt):
        return tuple(_phi_substep_reference(v, Phi_face, params.D, pg.h, dt,
                                            cfg.safety) for v in state)

    def step(state, dt):
        if cfg.splitting == "lie":
            return phi_step(y_step(state, dt), dt)
        return phi_step(y_step(phi_step(state, 0.5 * dt), dt), 0.5 * dt)

    dt_target = resolve_dt(params, pg, cfg)
    out, t = [], 0.0
    for t_next in sorted(set(times)):
        span = t_next - t
        if span > 1e-14:
            n = max(1, math.ceil(span / dt_target - 1e-12))
            for _ in range(n):
                state = step(state, span / n)
            t = t_next
        out.append(state)
    return out


def _assert_same_bits(x, y):
    x, y = np.asarray(x), np.asarray(y)
    assert x.shape == y.shape
    np.testing.assert_array_equal(x.view(np.uint64), y.view(np.uint64))


@pytest.mark.parametrize("Phi", [shear(0.5), wall_drive(0.3, 1.0)],
                         ids=["Phi_one_sign", "Phi_sign_change"])
@pytest.mark.parametrize("D", [0.0, 0.2])
@pytest.mark.parametrize("splitting", ["lie", "strang"])
def test_solvers_match_unfactored_reference(splitting, D, Phi):
    # dt = 0.02 splits the three segments into 2 steps of 0.015, 4 of
    # 0.0175 and 11 of 0.21 / 11: each segment needs its own factorization
    yg = build_y_grid(4.0, 48, 0.4, 16)
    pg = build_phi_grid(16)
    params = ModelParams(epsilon=0.05, D=D, T=0.5, V=shifted_sine(1.0, 0.5),
                         Phi=Phi)
    cfg = FullSolverConfig(dt=0.02, splitting=splitting)
    times = [0.03, 0.1, 0.31]
    V_nodes = eval_on_nodes(params.V, pg)

    layer = steady_layer(params.V, params.epsilon, yg, pg).values
    f0 = PhaseField(layer * (1.0 + 0.5 * np.cos(pg.nodes))[None, :], yg, pg)
    a, b = _fitted_flux_coeffs(V_nodes, params.epsilon, yg)
    ref = _march_reference(_fitted_y_reference(a, b, yg.widths),
                           (f0.values,), params, pg, cfg, times)
    snaps = run_full(f0, params, cfg, times)
    assert [t for t, _ in snaps] == times
    for (_, f), (f_ref,) in zip(snaps, ref):
        _assert_same_bits(f.values, f_ref)
    (f_ref,) = _march_reference(_fitted_y_reference(a, b, yg.widths),
                                (f0.values,), params, pg, cfg, [0.013])[0]
    _assert_same_bits(step_full(f0, params, cfg, 0.013).values, f_ref)

    s0 = manufactured_state(0.0, 1.0, 0.5, D, yg, pg)
    ref = _march_reference(_upwind_y_reference(V_nodes, yg.widths),
                           (s0.bulk.values, s0.wall), params, pg, cfg, times)
    snaps = run_limit(s0, params, cfg, times)
    for (_, s), (bulk, wall) in zip(snaps, ref):
        _assert_same_bits(s.bulk.values, bulk)
        _assert_same_bits(s.wall, wall)
    bulk, wall = _march_reference(_upwind_y_reference(V_nodes, yg.widths),
                                  (s0.bulk.values, s0.wall), params, pg, cfg,
                                  [0.013])[0]
    s1 = step_limit(s0, params, 0.013, cfg)
    _assert_same_bits(s1.bulk.values, bulk)
    _assert_same_bits(s1.wall, wall)


@pytest.mark.parametrize("shape", [(16,), (5, 16), (2, 3, 16)])
@pytest.mark.parametrize("D", [0.0, 0.3])
def test_phi_substep_matches_roll_reference(shape, D):
    pg = build_phi_grid(16)
    k = np.arange(16)
    drifts = {
        "positive": 0.2 + np.cos(pg.faces) ** 2,
        "negative": -0.5 - np.sin(pg.faces) ** 2,
        "sign change": np.sin(pg.faces) - 0.3,
        # -0.0 counts as Phi >= 0, so the faces with it upwind from out
        "signed zeros": -np.sin(pg.faces) ** 2 * (k % 3 != 0),
        "zero": np.zeros(16),
    }
    # about half the cells empty, so that signed zeros occur in the result
    vals = patchy_values(7, shape)
    for name, Phi_face in drifts.items():
        for dt in (0.0, 0.01, 0.4, 3.0):
            for v in (vals, np.asfortranarray(vals)):
                out = phi_substep(v, Phi_face, D, pg.h, dt)
                _assert_same_bits(
                    out, _phi_substep_reference(v, Phi_face, D, pg.h, dt))
