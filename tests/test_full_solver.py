import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from activerods import (AssumptionViolationError, ConfigurationError,
                        FullSolverConfig, ModelParams, NumericalFailureError,
                        PhaseField, build_phi_grid, build_y_grid,
                        eval_on_nodes, norms, phi_substep, run_full,
                        steady_layer, step_full)
from activerods.full_solver import _fitted_flux_coeffs, _implicit_y_step
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
    out = _implicit_y_step(vals, a, b, yg.widths, dt)
    assert np.sum(np.abs(out - ref) * w) <= tol * np.sum(ref * w)
    assert abs(np.sum(out * w) - mass) <= tol * mass

    # with a zero sub-diagonal it does the reference's arithmetic exactly
    tol = round_off_bound(1.0 + dt * V_nodes / w)
    bulk, wall_new = _upwind_y_step(vals, wall, V_nodes, yg.widths, dt)
    ref_bulk, ref_wall = _upwind_reference(vals, wall, V_nodes, yg.widths, dt)
    np.testing.assert_array_equal(bulk, ref_bulk)
    np.testing.assert_array_equal(wall_new, ref_wall)
    total = mass + np.sum(wall)
    assert abs(np.sum(bulk * w) + np.sum(wall_new) - total) <= tol * total
