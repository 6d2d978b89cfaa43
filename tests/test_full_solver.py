import math
import warnings

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from activerods import (AssumptionViolationError, BulkWallState,
                        ConfigurationError, FullSolverConfig, ModelParams,
                        NumericalFailureError, PhaseField, build_phi_grid,
                        build_y_grid, bulk_exp_field,
                        full_solver, manufactured_state, norms, phi_substep,
                        run_full, run_limit, steady_layer, sup_abs)
from activerods.full_solver import (_angular_setup, _factor_columns,
                                    _fitted_flux_coeffs, _implicit_y_step,
                                    resolve_dt)

from conftest import (angular_drifts, const, graded_y_grids, positive_speeds,
                      patchy_values, round_off_bound, shear, shifted_sine,
                      wall_drive)


def _one_step(f, params, dt, splitting="lie"):
    """One split step of exactly dt, with run_full's health check; needs
    params.T >= dt."""
    cfg = FullSolverConfig(dt=dt, splitting=splitting)
    (_, out), = run_full(f, params, cfg, [dt])
    return out


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
    out = _one_step(f, unit_params, 0.01)
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
        _one_step(f, unit_params, 0.01)


def test_solver_config_validation():
    with pytest.raises(ConfigurationError):
        FullSolverConfig(splitting="yoshida")
    with pytest.raises(ConfigurationError):
        FullSolverConfig(dt=-0.1)
    with pytest.raises(ConfigurationError):
        FullSolverConfig(dt="later")


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
        _one_step(f, params, 0.01)


@pytest.mark.parametrize("solver", ["full", "limit"])
def test_speed_sign_checked_before_snapshot_times(small_grids, solver):
    # a speed with minimum <= 0 (exit 3) is reported before snapshot
    # times beyond T or no snapshot time at all (exit 2)
    yg, pg = small_grids
    f = PhaseField(np.ones((yg.n_y, pg.n_phi)), yg, pg)

    def run(V, times=(0.0, 1.0)):
        params = ModelParams(epsilon=0.05, D=0.0, T=0.5, V=V, Phi=const(0.0))
        cfg = FullSolverConfig(dt=0.01)
        if solver == "full":
            return run_full(f, params, cfg, times)
        return run_limit(BulkWallState(f, np.zeros(pg.n_phi)), params, cfg,
                         times)

    with pytest.raises(AssumptionViolationError):
        run(wall_drive(0.5, 1.0))
    with pytest.raises(AssumptionViolationError):
        run(wall_drive(0.5, 1.0), ())
    with pytest.raises(ConfigurationError, match="snapshot times"):
        run(const(1.0))
    with pytest.raises(ConfigurationError,
                       match="need at least one snapshot time"):
        run(const(1.0), ())


@pytest.mark.parametrize("solver", ["full", "limit"])
def test_negative_mass_is_a_numerical_failure(small_grids, unit_params,
                                              solver):
    yg, pg = small_grids
    f0 = PhaseField(-bulk_exp_field(yg, pg).values, yg, pg)
    cfg = FullSolverConfig(dt=0.01)
    with pytest.raises(NumericalFailureError,
                       match="total mass went negative"):
        if solver == "full":
            run_full(f0, unit_params, cfg, [0.01])
        else:
            run_limit(BulkWallState(f0, np.zeros(pg.n_phi)), unit_params,
                      cfg, [0.01])


def test_strang_step_conserves(small_grids):
    yg, pg = small_grids
    params = ModelParams(epsilon=0.05, D=0.1, T=0.5, V=shifted_sine(1.0, 0.5),
                         Phi=shear(0.5))
    f0 = steady_layer(params.V, params.epsilon, yg, pg)
    out = _one_step(f0, params, 0.01, "strang")
    assert np.all(np.isfinite(out.values))
    assert norms(out)["mass"] == pytest.approx(norms(f0)["mass"], rel=1e-12)


@settings(max_examples=200, deadline=None)
@given(graded_y_grids(), st.integers(4, 16), positive_speeds, angular_drifts,
       st.floats(0.0, 1.0), st.floats(0.005, 0.5), st.floats(1e-3, 2.0),
       st.sampled_from(["lie", "strang"]), st.integers(0, 2 ** 32 - 1))
def test_step_preserves_mass_and_positivity(yg, n_phi, V, Phi, D, eps, dt,
                                            splitting, seed):
    pg = build_phi_grid(n_phi)
    f = PhaseField(patchy_values(seed, (yg.n_y, n_phi)), yg, pg)
    params = ModelParams(epsilon=eps, D=D, T=2.0, V=V, Phi=Phi)
    out = _one_step(f, params, dt, splitting)
    a, b = _fitted_flux_coeffs(V(pg.nodes), eps, yg)
    rel = round_off_bound(1.0 + dt / yg.widths[:, None] * (a[1:] + b[:-1]))
    assert norms(out)["mass"] == pytest.approx(norms(f)["mass"],
                                               rel=max(rel, 1e-12))
    assert np.min(out.values) >= -1e-12


def _open_wall_coeffs(V_nodes, yg):
    """run_limit's flux: the fitted flux at eps = 0 with the wall face
    open."""
    a, b = _fitted_flux_coeffs(V_nodes, 0.0, yg)
    b[0] = V_nodes
    return a, b


def _fitted_diagonals(a, b, widths, dt):
    """(lower, diag, upper) of the fitted-flux backward-Euler system."""
    r = dt / widths[:, None]
    return -r * a[:-1, :], 1.0 + r * (a[1:, :] + b[:-1, :]), -r * b[1:, :]


def _thomas(lower, diag, upper, values):
    """Row-loop Thomas solve of a tridiagonal system over angle columns."""
    n_y = values.shape[0]
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


def _thomas_reference(values, a, b, widths, dt):
    """Row-loop Thomas solve of the fitted-flux backward-Euler system."""
    return _thomas(*_fitted_diagonals(a, b, widths, dt), values)


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
    V_nodes = V(build_phi_grid(n_phi).nodes)
    rng = np.random.default_rng(seed)
    vals = rng.uniform(0.0, 1.0, size=(yg.n_y, n_phi))
    wall = rng.uniform(0.0, 1.0, size=n_phi)
    w = yg.widths[:, None]
    mass = np.sum(vals * w)

    # cyclic reduction orders the arithmetic differently from row-loop
    # Thomas: both agree to round-off
    a, b = _fitted_flux_coeffs(V_nodes, eps, yg)
    tol = round_off_bound(1.0 + dt / w * (a[1:] + b[:-1]))
    out, = _implicit_y_step(a, b, yg.widths, dt)((vals,))
    ref = _thomas_reference(vals, a, b, yg.widths, dt)
    assert np.sum(np.abs(out - ref) * w) <= tol * np.sum(ref * w)
    assert abs(np.sum(out * w) - mass) <= tol * mass

    # at eps = 0 with the wall face open it is the top-down
    # back-substitution, up to round-off; the wall gains exactly the
    # discrete outgoing flux
    a, b = _open_wall_coeffs(V_nodes, yg)
    tol = round_off_bound(1.0 + dt / w * V_nodes)
    bulk, wall_new = _implicit_y_step(a, b, yg.widths, dt)((vals, wall))
    ref_bulk, _ = _upwind_reference(vals, wall, V_nodes, yg.widths, dt)
    assert np.sum(np.abs(bulk - ref_bulk) * w) <= tol * np.sum(ref_bulk * w)
    np.testing.assert_array_equal(wall_new, wall + dt * V_nodes * bulk[0])
    total = mass + np.sum(wall)
    assert abs(np.sum(bulk * w) + np.sum(wall_new) - total) <= tol * total


@settings(max_examples=100, deadline=None)
@given(graded_y_grids(), st.integers(4, 16), positive_speeds,
       st.floats(0.005, 0.5), st.floats(1e-4, 1.0), st.integers(0, 2 ** 32 - 1))
def test_y_steps_match_lapack_reference(yg, n_phi, V, eps, dt, seed):
    # LAPACK's pivoted gtsv orders the arithmetic differently again, for
    # the kinetic operator and for the limit's, with the wall face open
    V_nodes = V(build_phi_grid(n_phi).nodes)
    vals = patchy_values(seed, (yg.n_y, n_phi))
    w = yg.widths[:, None]
    for a, b in (_fitted_flux_coeffs(V_nodes, eps, yg),
                 _open_wall_coeffs(V_nodes, yg)):
        out, = _implicit_y_step(a, b, yg.widths, dt)((vals,))
        ref = _solve_banded_reference(
            *_fitted_diagonals(a, b, yg.widths, dt), vals)
        tol = round_off_bound(1.0 + dt / w * (a[1:] + b[:-1]))
        assert np.sum(np.abs(out - ref) * w) <= tol * np.sum(ref * w)


@settings(max_examples=200, deadline=None)
@given(graded_y_grids(), st.integers(4, 16), positive_speeds,
       st.floats(1e-4, 2.0), st.integers(0, 2 ** 32 - 1))
def test_open_wall_face_moves_only_the_wall_cell(yg, n_phi, V, dt, seed):
    # the system is upper bidiagonal and no multiplier carries row 0
    # upward, so opening the wall face leaves rows 1..n-1 bit for bit;
    # what the wall gains, cell 0 of the closed step keeps
    V_nodes = V(build_phi_grid(n_phi).nodes)
    vals = patchy_values(seed, (yg.n_y, n_phi))
    wall = patchy_values(seed + 1, n_phi)
    w = yg.widths[:, None]
    a, b = _open_wall_coeffs(V_nodes, yg)
    bulk, wall_new = _implicit_y_step(a, b, yg.widths, dt)((vals, wall))
    a, b = _fitted_flux_coeffs(V_nodes, 0.0, yg)
    closed, wall_same = _implicit_y_step(a, b, yg.widths, dt)((vals, wall))
    _assert_same_bits(bulk[1:], closed[1:])
    _assert_same_bits(wall_same, wall)
    kept = closed[0] * yg.widths[0]
    moved = bulk[0] * yg.widths[0] + dt * V_nodes * bulk[0]
    tol = round_off_bound(1.0 + dt / w * V_nodes)
    assert np.all(np.abs(kept - moved) <= tol * kept)


def test_run_full_at_zero_epsilon_is_the_closed_wall_limit():
    # at epsilon = 0 the kinetic march steps the upwind flux with the wall
    # face closed: with no angular operator, rows 1.. are the limit's bit
    # for bit, and cell 0 keeps what the limit's wall gains. Kills
    # ModelParams refusing epsilon = 0 again.
    yg, pg = build_y_grid(4.0, 48, 0.4, 16), build_phi_grid(8)
    params = ModelParams(epsilon=0.0, D=0.0, T=0.5, V=shifted_sine(1.0, 0.5),
                         Phi=const(0.0))
    cfg = FullSolverConfig(dt=0.01)
    bulk = PhaseField(patchy_values(3, (48, 8)), yg, pg)
    (_, f), = run_full(bulk, params, cfg, [0.5])
    (_, s), = run_limit(BulkWallState(bulk, np.zeros(8)), params, cfg, [0.5])
    _assert_same_bits(f.values[1:], s.bulk.values[1:])
    w0 = yg.widths[0]
    np.testing.assert_allclose(f.values[0] * w0, s.bulk.values[0] * w0
                               + s.wall, rtol=1e-12)


def _random_fitted_system(rng, n_y, n_phi):
    """Random fitted-flux diagonals (face rates a, b >= 0, zero on the
    wall and top faces) and cell widths, and the round-off allowance of
    their solve."""
    a = np.zeros((n_y + 1, n_phi))
    b = np.zeros_like(a)
    a[1:n_y] = rng.uniform(0.0, 5.0, size=(n_y - 1, n_phi))
    b[1:n_y] = rng.uniform(0.0, 5.0, size=(n_y - 1, n_phi))
    widths = rng.uniform(0.01, 1.0, size=n_y)
    dt = rng.uniform(1e-3, 1.0)
    lower, diag, upper = _fitted_diagonals(a, b, widths, dt)
    return lower, diag, upper, widths[:, None], round_off_bound(diag)


def test_cyclic_reduction_at_every_size():
    # padded or not, each column agrees with Thomas to round-off and comes
    # out bit for bit as when it is solved alone
    rng = np.random.default_rng(20240817)
    for n_y in range(1, 71):
        for n_phi in range(1, 6):
            lower, diag, upper, w, tol = _random_fitted_system(rng, n_y,
                                                               n_phi)
            rhs = patchy_values(n_y * 10 + n_phi, (n_y, n_phi))
            out = _factor_columns(lower, diag, upper)(rhs)
            ref = _thomas(lower, diag, upper, rhs)
            assert out.shape == (n_y, n_phi)
            assert np.sum(np.abs(out - ref) * w) <= tol * np.sum(ref * w)
            for j in range(n_phi):
                col = slice(j, j + 1)
                _assert_same_bits(out[:, col], _factor_columns(
                    lower[:, col], diag[:, col], upper[:, col])(rhs[:, col]))


def _strided_cyclic_reduction(lower, diag, upper):
    """The cyclic reduction as it was before the work buffer was split into
    even and odd rows: the columns end to end in one flat buffer, each
    level a stride-2^k view of it, and every product applied, zero
    multipliers included. Returns solve(rhs)."""
    n_y, n_phi = diag.shape
    size = 1 << (n_y - 1).bit_length()
    buf = np.zeros((n_phi, size))
    flat = buf.reshape(-1)
    d = np.ones((n_phi, size))
    d[:, :n_y] = diag.T
    lo, up = np.zeros_like(d), np.zeros_like(d)
    lo[:, 1:n_y] = lower[1:].T
    up[:, :n_y - 1] = upper[:-1].T
    d, lo, up = d.reshape(-1), lo.reshape(-1), up.reshape(-1)
    down, back = [], []
    stride = 1
    while stride < size:
        even, odd = flat[::2 * stride], flat[stride::2 * stride]
        d_odd, lo_odd, up_odd = d[1::2], lo[1::2], up[1::2]
        left = -lo[2::2] / d_odd[:-1]
        right = -up[::2] / d_odd
        down += [(left, odd[:-1], even[1:]), (right, odd, even)]
        back = [(-lo_odd, even, odd), (-up_odd[:-1], even[1:], odd[:-1]),
                (1.0 / d_odd, odd, None)] + back
        d = d[::2].copy()
        d[1:] += left * up_odd[:-1]
        d += right * lo_odd
        lo = np.zeros_like(d)
        lo[1:] = left * lo_odd[:-1]
        up = right * up_odd
        stride *= 2
    wall = flat[::size]
    ops = down + [(1.0 / d, wall, None)] + back

    def solve(rhs):
        buf[:] = 0.0
        buf[:, :n_y] = rhs.T
        for m, x, acc in ops:
            if acc is None:
                x *= m
            else:
                acc += m * x
        return buf[:, :n_y].copy().T

    return solve


def test_cyclic_reduction_matches_strided_reference_bit_for_bit():
    # the even | odd halves and the dropped zero products change nothing
    # for data without a -0.0, the fitted systems' nor the upwind ones'
    rng = np.random.default_rng(20240818)
    for n_y in range(1, 71):
        for n_phi in range(1, 6):
            r = rng.uniform(1e-3, 5.0, size=(n_y, n_phi))
            systems = [_random_fitted_system(rng, n_y, n_phi)[:3],
                       (np.zeros_like(r), 1.0 + r, -r)]
            rhs = patchy_values(n_y * 10 + n_phi, (n_y, n_phi))
            for system in systems:
                out = _factor_columns(*system)(rhs)
                _assert_same_bits(out, _strided_cyclic_reduction(*system)(rhs))
                assert out.T.flags.c_contiguous


def test_non_finite_solve_does_not_reach_the_next(small_grids):
    # a NaN and an inf spread through zero multipliers into the padding
    # rows; the next solve with the same factorization must not see them
    yg, pg = small_grids
    V_nodes = shifted_sine(1.0, 0.5)(pg.nodes)
    bad = patchy_values(5, (yg.n_y, pg.n_phi))
    bad[3, 2], bad[-1, 5] = np.nan, np.inf
    vals = patchy_values(6, (yg.n_y, pg.n_phi))
    wall = patchy_values(7, pg.n_phi)
    with np.errstate(invalid="ignore"):
        for a, b in (_fitted_flux_coeffs(V_nodes, 0.05, yg),
                     _open_wall_coeffs(V_nodes, yg)):
            step = _implicit_y_step(a, b, yg.widths, 0.01)
            step((bad, wall))
            for x, y in zip(step((vals, wall)), _implicit_y_step(
                    a, b, yg.widths, 0.01)((vals, wall))):
                _assert_same_bits(x, y)


@settings(max_examples=200, deadline=None)
@given(graded_y_grids(), st.integers(4, 16), positive_speeds,
       st.floats(1e-3, 0.5), st.floats(1e-4, 2.0), st.integers(-300, 300),
       st.integers(0, 2 ** 32 - 1))
def test_y_steps_keep_nonnegative_data_nonnegative(yg, n_phi, V, eps, dt,
                                                   exponent, seed):
    # every multiplier of the solve is >= 0, so this holds exactly, at any
    # scale of the data
    V_nodes = V(build_phi_grid(n_phi).nodes)
    vals = patchy_values(seed, (yg.n_y, n_phi)) * 10.0 ** exponent
    wall = patchy_values(seed + 1, n_phi)
    a, b = _fitted_flux_coeffs(V_nodes, eps, yg)
    assert np.min(_implicit_y_step(a, b, yg.widths, dt)((vals,))[0]) >= 0.0
    a, b = _open_wall_coeffs(V_nodes, yg)
    bulk, wall_new = _implicit_y_step(a, b, yg.widths, dt)((vals, wall))
    assert np.min(bulk) >= 0.0
    assert np.min(wall_new) >= 0.0


def test_y_step_at_peclet_overflow_is_upwind(small_grids):
    # V d / eps overflows: rho = inf, so a = 0 and the fitted flux is
    # upwind from above, with a no-flux wall; eps = 0 gives the same
    # coefficients exactly
    yg, pg = small_grids
    V_nodes = shifted_sine(1e308, 0.5)(pg.nodes)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        a, b = _fitted_flux_coeffs(V_nodes, 0.05, yg)
        assert not a.any()
        for got in zip((a, b), _fitted_flux_coeffs(V_nodes, 0.0, yg)):
            _assert_same_bits(*got)
        vals = patchy_values(3, (yg.n_y, pg.n_phi))
        out, = _implicit_y_step(a, b, yg.widths, 0.005)((vals,))
    ref = _thomas_reference(vals, a, b, yg.widths, 0.005)
    w = yg.widths[:, None]
    tol = round_off_bound(1.0 + 0.005 / w * (a[1:] + b[:-1]))
    assert np.min(out) >= 0.0
    assert np.sum(np.abs(out - ref) * w) <= tol * np.sum(ref * w)
    assert abs(np.sum(out * w) - np.sum(vals * w)) <= tol * np.sum(vals * w)


@pytest.mark.parametrize("case", [
    "zero pivot", "negative diagonal", "singular", "nan lower", "nan diag",
    "nan upper", "inf upper"])
def test_factor_rejects_bad_systems_quietly(case):
    n_y, n_phi = 9, 3
    lower = np.full((n_y, n_phi), -0.25)
    diag = np.ones((n_y, n_phi))
    upper = np.full((n_y, n_phi), -0.25)
    if case == "zero pivot":
        diag[4, 1] = 0.0
    elif case == "negative diagonal":
        diag[7, 2] = -1.0
    elif case == "singular":
        # rows of zero sum: the constant column is in the null space
        lower[:] = upper[:] = -0.5
        diag[0] = diag[-1] = 0.5
    elif case == "nan lower":
        lower[6, 0] = np.nan
    elif case == "nan diag":
        diag[2, 2] = np.nan
    elif case == "nan upper":
        upper[3, 1] = np.nan
    else:
        upper[0, 0] = np.inf
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(NumericalFailureError):
            _factor_columns(lower, diag, upper)


# ---------------------------------------------------------------------------
# the solvers as they were before each y-operator was factored once per step
# size and the angular substep kept its work arrays, with each y-solve a cyclic
# reduction worked out afresh row by row: every result must match them bit for
# bit


def _solve_banded_reference(lower, diag, upper, rhs):
    """One unfactored LAPACK gtsv solve (scipy solve_banded) over the
    phi-major angle columns with zero coupling between them."""
    solve_banded = pytest.importorskip("scipy.linalg").solve_banded
    n_y, n_phi = rhs.shape
    ab = np.zeros((3, n_phi, n_y))
    ab[0, :, 1:] = upper[:-1].T
    ab[1] = diag.T
    ab[2, :, :-1] = lower[1:].T
    x = solve_banded((1, 1), ab.reshape(3, -1), rhs.T.flatten(),
                     overwrite_ab=True, overwrite_b=True, check_finite=False)
    return x.reshape(n_phi, n_y).T


def _cyclic_reduction_rows(rows):
    """Odd-even cyclic reduction of the rows (lower, diag, upper, rhs),
    each a vector over the angles, written out row by row: add each odd
    row into its even neighbours, solve the even rows the same way, then
    recover the odd rows. Returns the solution rows."""
    m = len(rows)
    if m == 1:
        _, d, _, r = rows[0]
        return [1.0 / d * r]
    reduced = []
    for j in range(0, m, 2):
        lo, d, up, r = rows[j]
        new_lo = new_up = 0.0
        if j > 0:
            lo_l, d_l, up_l, r_l = rows[j - 1]
            left = -lo / d_l
            d = d + left * up_l
            new_lo = left * lo_l
            r = r + left * r_l
        if j + 1 < m:
            lo_r, d_r, up_r, r_r = rows[j + 1]
            right = -up / d_r
            d = d + right * lo_r
            new_up = right * up_r
            r = r + right * r_r
        reduced.append((new_lo, d, new_up, r))
    x = [None] * m
    x[::2] = _cyclic_reduction_rows(reduced)
    for j in range(1, m, 2):
        lo, d, up, r = rows[j]
        x[j] = r + -lo * x[j - 1]
        if j + 1 < m:
            x[j] = x[j] + -up * x[j + 1]
        x[j] = 1.0 / d * x[j]
    return x


def _solve_columns_reference(lower, diag, upper, rhs):
    """Cyclic reduction of every angle column, multipliers and all,
    derived afresh row by row on each call."""
    return np.array(_cyclic_reduction_rows(list(zip(lower, diag, upper,
                                                    rhs))))


def _phi_substeps(Phi_face, D, h, dt, safety):
    """The sub-cycle count and sub-step of the angular substep, 0 sub-cycles
    when it is the identity."""
    drain = np.maximum(Phi_face, 0.0) - np.minimum(np.roll(Phi_face, 1), 0.0)
    denom = float(np.max(drain)) / h + 2.0 * D / h ** 2
    if denom <= 0.0 or dt <= 0.0:
        return 0, 0.0
    n_sub = max(1, math.ceil(dt / (safety / denom) - 1e-12))
    return n_sub, dt / n_sub


def _phi_substep_reference(values, Phi_face, D, h, dt, safety=0.9):
    """The angular substep in face-weight form, with np.roll on every
    sub-cycle: F = own u + nxt u_{j+1}, u -= F_j - F_{j-1}."""
    n_sub, dts = _phi_substeps(Phi_face, D, h, dt, safety)
    out = values.copy()
    if n_sub == 0:
        return out
    c = dts / h
    own = c * (np.maximum(Phi_face, 0.0) + D / h)
    nxt = c * (np.minimum(Phi_face, 0.0) - D / h)
    for _ in range(n_sub):
        F = own * out + nxt * np.roll(out, -1, axis=-1)
        out = out - (F - np.roll(F, 1, axis=-1))
    return out


def _phi_flux_reference(values, Phi_face, D, h, dt, safety=0.9):
    """The angular substep in flux form, with np.roll and np.where on every
    sub-cycle: F = Phi u_upwind - D (u_{j+1} - u_j) / h,
    u -= (dt / h) (F_j - F_{j-1})."""
    n_sub, dts = _phi_substeps(Phi_face, D, h, dt, safety)
    out = values.copy()
    pos = Phi_face >= 0.0
    for _ in range(n_sub):
        nxt = np.roll(out, -1, axis=-1)
        upw = np.where(pos, out, nxt)
        F = Phi_face * upw - D * (nxt - out) / h
        out = out - (dts / h) * (F - np.roll(F, 1, axis=-1))
    return out


def _fitted_y_reference(a, b, widths):
    """The y-substep of the flux (a, b): each wall gains dt b_0 f_0_new."""
    def y_step(state, dt):
        r = dt / widths[:, None]
        f = _solve_columns_reference(
            -r * a[:-1, :], 1.0 + r * (a[1:, :] + b[:-1, :]), -r * b[1:, :],
            state[0])
        return (f, *(wall + dt * b[0] * f[0] for wall in state[1:]))
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


def test_resolve_dt_auto_is_the_angular_cfl_step(small_grids):
    yg, pg = small_grids
    params = ModelParams(epsilon=0.05, D=0.2, T=0.5, V=shifted_sine(1.0, 0.5),
                         Phi=shear(0.5))
    auto = FullSolverConfig()
    dt = resolve_dt(params, pg, auto)
    assert dt == FullSolverConfig.safety / (
        sup_abs(params.Phi, 0) / pg.h + 2.0 * params.D / pg.h ** 2)
    still = ModelParams(epsilon=0.05, D=0.0, T=0.5, V=const(1.0),
                        Phi=const(0.0))
    assert resolve_dt(still, pg, auto) == 0.05
    f0 = bulk_exp_field(yg, pg)
    for (t_auto, f_auto), (t_dt, f_dt) in zip(
            run_full(f0, params, auto, [0.2, 0.5]),
            run_full(f0, params, FullSolverConfig(dt=dt), [0.2, 0.5])):
        assert t_auto == t_dt
        _assert_same_bits(f_auto.values, f_dt.values)


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
    V_nodes = params.V(pg.nodes)

    layer = steady_layer(params.V, params.epsilon, yg, pg).values
    f0 = PhaseField(layer * (1.0 + 0.5 * np.cos(pg.nodes))[None, :], yg, pg)
    a, b = _fitted_flux_coeffs(V_nodes, params.epsilon, yg)
    ref = _march_reference(_fitted_y_reference(a, b, yg.widths),
                           (f0.values,), params, pg, cfg, times)
    snaps = run_full(f0, params, cfg, times)
    assert [t for t, _ in snaps] == times
    for (_, f), (f_ref,) in zip(snaps, ref):
        _assert_same_bits(f.values, f_ref)

    s0 = manufactured_state(0.0, 1.0, 0.5, D, yg, pg)
    ref = _march_reference(_fitted_y_reference(*_open_wall_coeffs(V_nodes, yg),
                                               yg.widths),
                           (s0.bulk.values, s0.wall), params, pg, cfg, times)
    snaps = run_limit(s0, params, cfg, times)
    for (_, s), (bulk, wall) in zip(snaps, ref):
        _assert_same_bits(s.bulk.values, bulk)
        _assert_same_bits(s.wall, wall)


def _drift_table(pg):
    k = np.arange(pg.n_phi)
    return {
        "positive": 0.2 + np.cos(pg.faces) ** 2,
        "negative": -0.5 - np.sin(pg.faces) ** 2,
        "sign change": np.sin(pg.faces) - 0.3,
        # -0.0 reaches the face weights through max(Phi, 0) and
        # min(Phi, 0)
        "signed zeros": -np.sin(pg.faces) ** 2 * (k % 3 != 0),
        "zero": np.zeros(pg.n_phi),
    }


@pytest.mark.parametrize("shape", [(16,), (5, 16), (2, 3, 16)])
@pytest.mark.parametrize("D", [0.0, 0.3])
def test_phi_substep_matches_roll_reference(shape, D):
    pg = build_phi_grid(16)
    # about half the cells empty, so that signed zeros occur in the result
    vals = patchy_values(7, shape)
    for name, Phi_face in _drift_table(pg).items():
        for dt in (0.0, 0.01, 0.4, 3.0):
            for v in (vals, np.asfortranarray(vals)):
                out = phi_substep(v, Phi_face, D, pg.h, dt)
                _assert_same_bits(
                    out, _phi_substep_reference(v, Phi_face, D, pg.h, dt))


@pytest.mark.parametrize("shape", [(16,), (5, 16), (2, 3, 16)])
@pytest.mark.parametrize("D", [0.0, 0.3])
def test_face_weights_match_flux_form(shape, D):
    # folding dt / h into the face weights changes the result by round-off
    # only, with dt = 3.0 taking several sub-cycles
    pg = build_phi_grid(16)
    vals = patchy_values(7, shape)
    for name, Phi_face in _drift_table(pg).items():
        for dt in (0.0, 0.01, 0.4, 3.0):
            out = _phi_substep_reference(vals, Phi_face, D, pg.h, dt)
            ref = _phi_flux_reference(vals, Phi_face, D, pg.h, dt)
            assert np.max(np.abs(out - ref)) <= 1e-13 * np.max(np.abs(ref)), \
                (name, dt)


@pytest.mark.parametrize("splitting", ["lie", "strang"])
def test_march_calls_phi_substep_per_array_and_half_step(splitting,
                                                         monkeypatch):
    # the march reaches the angular substep through the module attribute:
    # once per state array and step for Lie, at dt / 2 twice for Strang
    calls = []

    def counted(values, Phi_face, D, h, dt):
        calls.append((values.shape, dt))
        return phi_substep(values, Phi_face, D, h, dt)

    monkeypatch.setattr(full_solver, "phi_substep", counted)
    yg = build_y_grid(4.0, 48, 0.4, 16)
    pg = build_phi_grid(16)
    params = ModelParams(epsilon=0.05, D=0.2, T=0.5, V=shifted_sine(1.0, 0.5),
                         Phi=wall_drive(0.3, 1.0))
    cfg = FullSolverConfig(dt=0.02, splitting=splitting)
    times = [0.03, 0.1, 0.31]
    # 2 steps of 0.015, 4 of 0.0175 and 11 of 0.21 / 11
    steps = ([0.03 / 2] * 2 + [(0.1 - 0.03) / 4] * 4
             + [(0.31 - 0.1) / 11] * 11)
    per_step = 1 if splitting == "lie" else 2
    subs = [dt / per_step for dt in steps for _ in range(per_step)]

    run_full(steady_layer(params.V, params.epsilon, yg, pg), params, cfg,
             times)
    assert [shape for shape, _ in calls] == [(48, 16)] * len(subs)
    assert [dt for _, dt in calls] == subs

    calls.clear()
    run_limit(manufactured_state(0.0, 1.0, 0.5, 0.2, yg, pg), params, cfg,
              times)
    assert [shape for shape, _ in calls] == [(48, 16), (16,)] * len(subs)
    assert [dt for _, dt in calls] == [dt for dt in subs for _ in range(2)]


def test_angular_weights_are_read_only():
    pg = build_phi_grid(16)
    Phi_face = np.sin(pg.faces) - 0.3
    n_sub, own, nxt = _angular_setup(Phi_face.tobytes(), 0.3, pg.h, 0.4)
    assert n_sub > 1
    for w in (own, nxt):
        with pytest.raises(ValueError):
            w[0] = 1.0
        with pytest.raises(ValueError):
            w *= 2.0
    # the cache hands the same weights to the next call with equal
    # arguments, and they are unchanged
    assert _angular_setup(Phi_face.copy().tobytes(), 0.3, pg.h, 0.4)[1] is own
    _assert_same_bits(own[:, 0], 0.4 / n_sub / pg.h
                      * (np.maximum(Phi_face, 0.0) + 0.3 / pg.h))


@pytest.mark.parametrize("D, h, dt, Phi", [
    (-5.0, 1.0, 0.1, 0.3), (-0.001, 1.0, 0.1, 0.3), (0.2, 1.0, -0.1, 0.3),
    (math.nan, 1.0, 0.1, 0.3), (math.inf, 1.0, 0.1, 0.3),
    (0.2, 1.0, math.nan, 0.3), (0.2, 1.0, math.inf, 0.3),
    (0.2, 1.0, 0.1, math.nan), (0.2, 1.0, 0.1, -math.inf),
    (0.2, 0.0, 0.1, 0.3), (0.2, -1.0, 0.1, 0.3),
], ids=["D_negative", "D_small_negative", "dt_negative", "D_nan", "D_inf",
        "dt_nan", "dt_inf", "Phi_nan", "Phi_inf", "h_zero", "h_negative"])
def test_phi_substep_rejects_bad_arguments(D, h, dt, Phi):
    # a negative D, dt or h made the CFL bound negative, and the substep
    # then returned its input unchanged, or for a small negative D ran
    # anti-diffusion
    h *= build_phi_grid(16).h
    Phi_face = np.full(16, 0.3)
    Phi_face[5] = Phi
    with pytest.raises(ConfigurationError):
        phi_substep(patchy_values(7, (4, 16)), Phi_face, D, h, dt)


@pytest.mark.parametrize("Phi, D, dt", [(0.3, 0.2, 0.0), (0.0, 0.0, 0.1)],
                         ids=["dt_zero", "operator_zero"])
def test_phi_substep_identity_returns_copy(Phi, D, dt):
    pg = build_phi_grid(16)
    vals = patchy_values(7, (4, 16))
    out = phi_substep(vals, np.full(16, Phi), D, pg.h, dt)
    assert not np.shares_memory(out, vals)
    _assert_same_bits(out, vals)


@pytest.mark.parametrize("splitting", ["lie", "strang"])
@pytest.mark.parametrize("solver", ["full", "limit"])
def test_split_step_is_first_order_in_time(solver, splitting):
    # both substeps are first order (backward Euler in y, forward Euler in
    # angle), so no splitting of them is better: on a smooth case, halving
    # dt halves the L1 error at T against a run at dt / 64
    yg = build_y_grid(4.0, 24, 0.4, 8)
    pg = build_phi_grid(8)
    T = 0.25
    params = ModelParams(epsilon=0.05, D=0.2, T=T, V=shifted_sine(1.0, 0.5),
                         Phi=shear(0.5))
    s0 = manufactured_state(0.0, 1.0, 0.5, params.D, yg, pg)

    def state_at(n):
        cfg = FullSolverConfig(dt=T / n, splitting=splitting)
        if solver == "full":
            return run_full(s0.bulk, params, cfg, [T])[-1][1].values, 0.0
        s = run_limit(s0, params, cfg, [T])[-1][1]
        return s.bulk.values, s.wall

    def l1_error(n):
        bulk, wall = state_at(n)
        return (np.sum(np.abs(bulk - ref[0]) * yg.widths[:, None])
                + np.sum(np.abs(wall - ref[1]))) * pg.h

    ref = state_at(640)
    assert 1.8 <= l1_error(10) / l1_error(20) <= 2.2
