import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from activerods import (AssumptionViolationError, ConfigurationError,
                        FullSolverConfig, ModelParams, NumericalFailureError,
                        PhaseField, build_phi_grid, build_y_grid, norms,
                        phi_substep, run_full, steady_layer, step_full)

from conftest import const, shear, shifted_sine, wall_drive


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


@settings(max_examples=25, deadline=None)
@given(st.integers(0, 2 ** 32 - 1))
def test_step_preserves_mass_and_positivity(seed):
    yg = build_y_grid(4.0, 32, 0.4, 8)
    pg = build_phi_grid(8)
    rng = np.random.default_rng(seed)
    vals = rng.uniform(0.0, 1.0, size=(32, 8))
    f = PhaseField(vals, yg, pg)
    params = ModelParams(epsilon=0.05, D=0.1, T=0.5, V=shifted_sine(1.0, 0.5),
                         Phi=shear(0.5))
    out = step_full(f, params, FullSolverConfig(dt=0.05))
    assert norms(out)["mass"] == pytest.approx(norms(f)["mass"], rel=1e-12)
    assert np.min(out.values) >= -1e-12
