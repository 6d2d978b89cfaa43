import math

import numpy as np
import pytest

from activerods import (BulkWallState, ConfigurationError, FullSolverConfig,
                        LineField, ModelParams, NumericalFailureError,
                        PhaseField, ResolventProblem, build_line_grid,
                        build_phi_grid, build_y_grid, coercivity_gap,
                        manufactured_state, resolvent_solve, run_limit,
                        step_limit)

from conftest import const, shear, shifted_sine


def _uniform_grids(n_y=128, n_phi=16, y_max=8.0):
    return build_y_grid(y_max, n_y, y_max / 2, n_y // 2), build_phi_grid(n_phi)


def test_characteristic_decay():
    # V = 1, Phi = 0: bulk e^{-(y+t)}, wall 1 - e^{-t}
    yg, pg = _uniform_grids()
    params = ModelParams(epsilon=0.0, D=0.0, T=0.5, V=const(1.0),
                         Phi=const(0.0), allow_zero_epsilon=True)
    s0 = manufactured_state(0.0, 1.0, 0.0, 0.0, yg, pg)
    snaps = run_limit(s0, params, FullSolverConfig(dt=0.005), [0.5])
    s = snaps[-1][1]
    exact = manufactured_state(0.5, 1.0, 0.0, 0.0, yg, pg)
    assert np.max(np.abs(s.bulk.values - exact.bulk.values)) <= 0.02
    assert np.max(np.abs(s.wall - exact.wall)) <= 0.02


def test_empty_bulk_keeps_wall():
    yg, pg = _uniform_grids(64, 8)
    params = ModelParams(epsilon=0.0, D=0.0, T=1.0, V=shifted_sine(1.0, 0.5),
                         Phi=const(0.0), allow_zero_epsilon=True)
    wall0 = 1.0 + 0.3 * np.cos(pg.nodes)
    s0 = BulkWallState(PhaseField(np.zeros((64, 8)), yg, pg), wall0.copy())
    snaps = run_limit(s0, params, FullSolverConfig(dt=0.01), [1.0])
    np.testing.assert_array_equal(snaps[-1][1].wall, wall0)
    assert np.all(snaps[-1][1].bulk.values == 0.0)


def test_combined_mass_conserved():
    yg = build_y_grid(4.0, 48, 0.4, 16)
    pg = build_phi_grid(16)
    params = ModelParams(epsilon=0.0, D=0.2, T=0.4, V=shifted_sine(1.0, 0.5),
                         Phi=shear(0.5), allow_zero_epsilon=True)
    bulk0 = np.exp(-yg.centers)[:, None] * np.ones((1, 16))
    s0 = BulkWallState(PhaseField(bulk0, yg, pg), np.zeros(16))
    m0 = s0.combined_mass()
    for splitting in ("lie", "strang"):
        cfg = FullSolverConfig(dt=0.002, splitting=splitting)
        snaps = run_limit(s0, params, cfg, [0.4])
        assert abs(snaps[-1][1].combined_mass() - m0) <= 1e-12 * m0


@pytest.mark.parametrize("splitting", ["lie", "strang"])
def test_run_limit_one_step_matches_step_limit(splitting):
    yg = build_y_grid(4.0, 48, 0.4, 16)
    pg = build_phi_grid(16)
    params = ModelParams(epsilon=0.0, D=0.2, T=0.4, V=shifted_sine(1.0, 0.5),
                         Phi=shear(0.5), allow_zero_epsilon=True)
    bulk0 = np.exp(-yg.centers)[:, None] * (1.0 + 0.3 * np.cos(pg.nodes))
    s0 = BulkWallState(PhaseField(bulk0, yg, pg), 0.2 + 0.1 * np.sin(pg.nodes))
    cfg = FullSolverConfig(dt=0.01, splitting=splitting)
    (t, s), = run_limit(s0, params, cfg, [0.01])
    assert t == 0.01
    one = step_limit(s0, params, 0.01, cfg)
    np.testing.assert_array_equal(s.bulk.values, one.bulk.values)
    np.testing.assert_array_equal(s.wall, one.wall)


def test_manufactured_state_values():
    yg, pg = _uniform_grids(64, 8)
    s = manufactured_state(1.0, 1.0, 1.0, 0.5, yg, pg)
    want = (1.0 - math.exp(-1.0)) * (1.0 + math.exp(-0.5))
    assert s.wall[0] == pytest.approx(want, rel=1e-12)
    s0 = manufactured_state(0.0, 1.0, 1.0, 0.5, yg, pg)
    np.testing.assert_array_equal(s0.wall, np.zeros(8))
    np.testing.assert_allclose(
        s0.bulk.values,
        np.exp(-yg.centers)[:, None] * (1.0 + np.cos(pg.nodes))[None, :],
        rtol=1e-13)
    flat = manufactured_state(0.7, 2.0, 0.0, 0.5, yg, pg)
    np.testing.assert_allclose(flat.wall, 2.0 * (1.0 - math.exp(-0.7)),
                               rtol=1e-13)


def test_manufactured_state_solves_system():
    yg, pg = _uniform_grids(128, 16)
    params = ModelParams(epsilon=0.0, D=0.5, T=0.25, V=const(1.0),
                         Phi=const(0.0), allow_zero_epsilon=True)
    s0 = manufactured_state(0.0, 1.0, 1.0, 0.5, yg, pg)
    snaps = run_limit(s0, params, FullSolverConfig(dt=0.0025), [0.25])
    exact = manufactured_state(0.25, 1.0, 1.0, 0.5, yg, pg)
    assert np.max(np.abs(snaps[-1][1].wall - exact.wall)) <= 0.02
    assert np.max(np.abs(snaps[-1][1].bulk.values
                         - exact.bulk.values)) <= 0.02


def test_wall_shape_mismatch():
    yg, pg = _uniform_grids(64, 8)
    with pytest.raises(ConfigurationError):
        BulkWallState(PhaseField(np.zeros((64, 8)), yg, pg), np.zeros(7))


def test_step_limit_nonfinite():
    yg, pg = _uniform_grids(64, 8)
    params = ModelParams(epsilon=0.0, D=0.0, T=1.0, V=const(1.0),
                         Phi=const(0.0), allow_zero_epsilon=True)
    bulk = np.zeros((64, 8))
    bulk[3, 2] = np.nan
    s = BulkWallState(PhaseField(bulk, yg, pg), np.zeros(8))
    with pytest.raises(NumericalFailureError):
        step_limit(s, params, 0.01)


def test_coercivity_gap_plain():
    grid = build_line_grid(8.0, 801)
    pg = build_phi_grid(32)
    u = LineField(np.exp(-grid.nodes[:, None] ** 2)
                  * np.sin(pg.nodes)[None, :], grid, pg)
    params = ModelParams(epsilon=0.05, D=0.0, T=1.0, V=const(1.0),
                         Phi=const(0.0))
    norm2 = float(np.sum(u.values ** 2
                         * grid.trapezoid_weights[:, None]) * pg.h)
    gap = coercivity_gap(u, 2.0, params)
    assert gap == pytest.approx(norm2, rel=1e-8)


def test_coercivity_shift_too_small():
    grid = build_line_grid(8.0, 101)
    pg = build_phi_grid(8)
    u = LineField(np.zeros((101, 8)), grid, pg)
    params = ModelParams(epsilon=0.05, D=0.0, T=1.0, V=const(1.0),
                         Phi=shear(1.0))
    # mu0 = 1.5 for this shear strength
    with pytest.raises(ConfigurationError):
        coercivity_gap(u, 1.5, params)
    assert coercivity_gap(u, 2.5, params) == 0.0


def test_resolvent_basic():
    grid = build_line_grid(8.0, 241)
    pg = build_phi_grid(16)
    rhs = LineField(np.exp(-grid.nodes[:, None] ** 2)
                    * (1.0 + np.cos(pg.nodes))[None, :], grid, pg)
    params = ModelParams(epsilon=0.05, D=0.2, T=1.0, V=const(1.0),
                         Phi=const(0.0))
    sol = resolvent_solve(ResolventProblem(2.0, 1e-2, rhs), params)
    assert 0.0 < sol.ratio < 10.0
    zero = LineField(np.zeros((241, 16)), grid, pg)
    assert resolvent_solve(ResolventProblem(2.0, 1e-2, zero),
                           params).ratio == 0.0
    with pytest.raises(ConfigurationError):
        ResolventProblem(2.0, 0.0, rhs)
    with pytest.raises(ConfigurationError):
        resolvent_solve(ResolventProblem(0.5, 1e-2, rhs), params)


def test_line_grid_validation():
    with pytest.raises(ConfigurationError):
        build_line_grid(0.0, 100)
    with pytest.raises(ConfigurationError):
        build_line_grid(8.0, 4)
    grid = build_line_grid(8.0, 101)
    pg = build_phi_grid(8)
    with pytest.raises(ConfigurationError):
        LineField(np.zeros((8, 101)), grid, pg)
