import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from activerods import (BulkWallState, ConfigurationError, FullSolverConfig,
                        LineField, ModelParams, NumericalFailureError,
                        PhaseField, ResolventProblem, build_line_grid,
                        build_phi_grid, build_y_grid, coercivity_gap,
                        manufactured_state, mu0,
                        resolvent_solve, run_limit)
from activerods.grids import PhiGrid
from activerods.limit_solver import _gap_scale, _resolvent_blocks

from conftest import (angular_drifts, const, graded_y_grids, positive_speeds,
                      patchy_values, round_off_bound, shear, shifted_sine,
                      wall_drive)


def _uniform_grids(n_y=128, n_phi=16, y_max=8.0):
    return build_y_grid(y_max, n_y, y_max / 2, n_y // 2), build_phi_grid(n_phi)


def _one_step(s, params, dt, splitting="lie"):
    """One split step of exactly dt, with run_limit's health check; needs
    params.T >= dt."""
    cfg = FullSolverConfig(dt=dt, splitting=splitting)
    (_, out), = run_limit(s, params, cfg, [dt])
    return out


def test_characteristic_decay():
    # V = 1, Phi = 0: bulk e^{-(y+t)}, wall 1 - e^{-t}
    yg, pg = _uniform_grids()
    params = ModelParams(epsilon=0.0, D=0.0, T=0.5, V=const(1.0),
                         Phi=const(0.0))
    s0 = manufactured_state(0.0, 1.0, 0.0, 0.0, yg, pg)
    snaps = run_limit(s0, params, FullSolverConfig(dt=0.005), [0.5])
    s = snaps[-1][1]
    exact = manufactured_state(0.5, 1.0, 0.0, 0.0, yg, pg)
    assert np.max(np.abs(s.bulk.values - exact.bulk.values)) <= 0.02
    assert np.max(np.abs(s.wall - exact.wall)) <= 0.02


def test_empty_bulk_keeps_wall():
    yg, pg = _uniform_grids(64, 8)
    params = ModelParams(epsilon=0.0, D=0.0, T=1.0, V=shifted_sine(1.0, 0.5),
                         Phi=const(0.0))
    wall0 = 1.0 + 0.3 * np.cos(pg.nodes)
    s0 = BulkWallState(PhaseField(np.zeros((64, 8)), yg, pg), wall0.copy())
    snaps = run_limit(s0, params, FullSolverConfig(dt=0.01), [1.0])
    np.testing.assert_array_equal(snaps[-1][1].wall, wall0)
    assert np.all(snaps[-1][1].bulk.values == 0.0)


def test_combined_mass_conserved():
    yg = build_y_grid(4.0, 48, 0.4, 16)
    pg = build_phi_grid(16)
    params = ModelParams(epsilon=0.0, D=0.2, T=0.4, V=shifted_sine(1.0, 0.5),
                         Phi=shear(0.5))
    bulk0 = np.exp(-yg.centers)[:, None] * np.ones((1, 16))
    s0 = BulkWallState(PhaseField(bulk0, yg, pg), np.zeros(16))
    m0 = s0.combined_mass()
    for splitting in ("lie", "strang"):
        cfg = FullSolverConfig(dt=0.002, splitting=splitting)
        snaps = run_limit(s0, params, cfg, [0.4])
        assert abs(snaps[-1][1].combined_mass() - m0) <= 1e-12 * m0


@settings(max_examples=200, deadline=None)
@given(graded_y_grids(), st.integers(4, 16), positive_speeds, angular_drifts,
       st.floats(0.0, 1.0), st.floats(1e-3, 2.0),
       st.sampled_from(["lie", "strang"]), st.integers(0, 2 ** 32 - 1))
def test_step_limit_preserves_mass_and_positivity(yg, n_phi, V, Phi, D, dt,
                                                  splitting, seed):
    pg = build_phi_grid(n_phi)
    vals = patchy_values(seed, (yg.n_y + 1, n_phi))
    s = BulkWallState(PhaseField(vals[1:], yg, pg), vals[0])
    params = ModelParams(epsilon=0.0, D=D, T=2.0, V=V, Phi=Phi)
    out = _one_step(s, params, dt, splitting)
    rel = round_off_bound(1.0 + dt * V(pg.nodes) / yg.widths[:, None])
    assert out.combined_mass() == pytest.approx(s.combined_mass(),
                                                rel=max(rel, 1e-12))
    assert np.min(out.bulk.values) >= -1e-12
    assert np.min(out.wall) >= -1e-12


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
                         Phi=const(0.0))
    s0 = manufactured_state(0.0, 1.0, 1.0, 0.5, yg, pg)
    snaps = run_limit(s0, params, FullSolverConfig(dt=0.0025), [0.25])
    exact = manufactured_state(0.25, 1.0, 1.0, 0.5, yg, pg)
    assert np.max(np.abs(snaps[-1][1].wall - exact.wall)) <= 0.02
    assert np.max(np.abs(snaps[-1][1].bulk.values
                         - exact.bulk.values)) <= 0.02


def test_constant_wall_drift_rotates_the_closed_form():
    # V = 1, Phi = c, D > 0: the angular operator commutes with the
    # y-transport, so manufactured_state's solution rotates with the drift:
    #   bulk = e^{-(y+t)} g,  wall = (1 - e^{-t}) g,
    #   g = a0 + a1 e^{-D t} cos(phi - c t),
    # and g_t + c g_phi - D g_phiphi = 0 by substitution. Halving dt, the
    # y cells and the angular cells halves the bulk and wall errors (first
    # order; ratios 1.95 and 1.95 measured). Kills the mutant that negates
    # the drift of the wall's angular substep only in _march: its wall
    # error stays at 0.53 (ratio 1.00).
    c, D, T, a0, a1 = 1.0, 0.2, 1.0, 1.0, 1.0
    params = ModelParams(epsilon=0.0, D=D, T=T, V=const(1.0), Phi=const(c))

    def rotated(t, yg, pg):
        g = a0 + a1 * math.exp(-D * t) * np.cos(pg.nodes - c * t)
        bulk = np.exp(-(yg.centers[:, None] + t)) * g
        wall = (1.0 - math.exp(-t)) * g
        return BulkWallState(PhaseField(bulk, yg, pg), wall)

    errors = []
    for n_y, n_phi, dt in [(64, 32, 0.01), (128, 64, 0.005)]:
        yg, pg = _uniform_grids(n_y, n_phi)
        (_, s), = run_limit(rotated(0.0, yg, pg), params,
                            FullSolverConfig(dt=dt), [T])
        exact = rotated(T, yg, pg)
        errors.append((np.max(np.abs(s.bulk.values - exact.bulk.values)),
                       np.max(np.abs(s.wall - exact.wall))))
    for coarse, fine in zip(*errors):
        assert 1.8 <= coarse / fine <= 2.2


def test_wall_shape_mismatch():
    yg, pg = _uniform_grids(64, 8)
    with pytest.raises(ConfigurationError):
        BulkWallState(PhaseField(np.zeros((64, 8)), yg, pg), np.zeros(7))


def test_step_limit_nonfinite():
    yg, pg = _uniform_grids(64, 8)
    params = ModelParams(epsilon=0.0, D=0.0, T=1.0, V=const(1.0),
                         Phi=const(0.0))
    bulk = np.zeros((64, 8))
    bulk[3, 2] = np.nan
    s = BulkWallState(PhaseField(bulk, yg, pg), np.zeros(8))
    with pytest.raises(NumericalFailureError):
        _one_step(s, params, 0.01)


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


@settings(max_examples=100, deadline=None)
@given(V=positive_speeds, Phi=angular_drifts, D=st.floats(0.0, 2.0),
       modes=st.lists(st.floats(-1.0, 1.0), min_size=7, max_size=7),
       sigma=st.floats(0.5, 1.5))
def test_coercivity_gap_is_the_closed_form(V, Phi, D, modes, sigma):
    # summation by parts: for u of angular degree <= 3, negligible at both
    # ends in y, the V d_y term sums to zero and the D terms cancel, so the
    # gap is the sum of (mu0 + Phi' / 2) u^2, up to round-off of the gap's
    # scale (the worst of 2000 draws was 0.9 eps times it)
    grid = build_line_grid(8.0, 161)
    pg = build_phi_grid(16)
    k = np.arange(1, 4)[:, None]
    ang = (modes[0] + np.asarray(modes[1:4]) @ np.cos(k * pg.nodes)
           + np.asarray(modes[4:]) @ np.sin(k * pg.nodes))
    u = LineField(np.exp(-(grid.nodes / sigma) ** 2)[:, None] * ang[None, :],
                  grid, pg)
    params = ModelParams(epsilon=0.05, D=D, V=V, Phi=Phi)
    lam = mu0(Phi) + 1.0
    weight = mu0(Phi) + 0.5 * Phi(pg.nodes, 1)
    closed = float(np.sum(weight * u.values ** 2
                          * grid.trapezoid_weights[:, None]) * pg.h)
    assert abs(coercivity_gap(u, lam, params) - closed) <= \
        8 * np.finfo(float).eps * _gap_scale(u, lam, params)


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


@pytest.mark.parametrize("lam", [math.nan, math.inf])
def test_coercivity_gap_rejects_nonfinite_shift(lam):
    grid = build_line_grid(6.0, 9)
    u = LineField(np.ones((9, 4)), grid, build_phi_grid(4))
    params = ModelParams(epsilon=0.05, D=0.0, T=1.0, V=const(1.0),
                         Phi=shear(1.0))
    with pytest.raises(ConfigurationError, match="finite"):
        coercivity_gap(u, lam, params)


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


@pytest.mark.parametrize("eps_reg", [1e-1, 1e-2])
def test_resolvent_manufactured_second_order(eps_reg):
    # u* = e^{-y^2} (1 + cos phi + sin(2 phi) / 2) with f = (B_eps + lam) u*
    # in closed form, at criterion 12's coefficients: halving both steps
    # quarters the max-norm error of the second-order scheme. A block
    # that is off by a few per cent stalls the ratio near 1 (with D = 0
    # the coarse grid is still pre-asymptotic, ratio 2.7).
    params = ModelParams(epsilon=0.05, D=0.5, T=1.0, V=shifted_sine(1.0, 0.5),
                         Phi=shear(1.0))
    lam = mu0(params.Phi) + 1.0

    def max_error(n_y, n_phi):
        grid, pg = build_line_grid(12.0, n_y), build_phi_grid(n_phi)
        y, phi = grid.nodes[:, None], pg.nodes[None, :]
        V, Phi, dPhi = (c(pg.nodes, k)[None, :] for c, k in
                        ((params.V, 0), (params.Phi, 0), (params.Phi, 1)))
        g = np.exp(-y ** 2)
        A = 1.0 + np.cos(phi) + 0.5 * np.sin(2.0 * phi)
        dA = -np.sin(phi) + np.cos(2.0 * phi)
        d2A = -np.cos(phi) - 2.0 * np.sin(2.0 * phi)
        u = g * A
        f = (lam * u - 2.0 * y * V * u - eps_reg * (4.0 * y ** 2 - 2.0) * u
             + g * (dPhi * A + Phi * dA) - params.D * g * d2A)
        sol = resolvent_solve(ResolventProblem(lam, eps_reg,
                                               LineField(f, grid, pg)), params)
        return float(np.max(np.abs(sol.u.values - u)))

    assert 3.5 <= max_error(241, 16) / max_error(481, 32) <= 4.5


def test_line_grid_validation():
    with pytest.raises(ConfigurationError):
        build_line_grid(0.0, 100)
    with pytest.raises(ConfigurationError):
        build_line_grid(8.0, 4)
    grid = build_line_grid(8.0, 101)
    pg = build_phi_grid(8)
    with pytest.raises(ConfigurationError):
        LineField(np.zeros((8, 101)), grid, pg)


def _loop_assembled_resolvent(p, params):
    """Row-loop COO assembly of the resolvent system, as (matrix, rhs)."""
    sp = pytest.importorskip("scipy.sparse")
    n_y, n_p = p.rhs.line_grid.n_y, p.rhs.phi_grid.n_phi
    hy, hp = p.rhs.line_grid.h, p.rhs.phi_grid.h
    V_nodes = params.V(p.rhs.phi_grid.nodes)
    Phi_nodes = params.Phi(p.rhs.phi_grid.nodes)

    def idx(iy, jp):
        return iy * n_p + (jp % n_p)

    rows, cols, data = [], [], []
    rhs_vec = np.zeros(n_y * n_p)
    for iy in range(n_y):
        for jp in range(n_p):
            k = idx(iy, jp)
            if iy == 0 or iy == n_y - 1:
                rows.append(k); cols.append(k); data.append(1.0)
                continue
            rhs_vec[k] = p.rhs.values[iy, jp]
            V = V_nodes[jp]
            entries = [
                (k, p.lam + 2.0 * p.eps_reg / hy ** 2
                 + 2.0 * params.D / hp ** 2),
                (idx(iy + 1, jp), V / (2.0 * hy) - p.eps_reg / hy ** 2),
                (idx(iy - 1, jp), -V / (2.0 * hy) - p.eps_reg / hy ** 2),
                (idx(iy, jp + 1), Phi_nodes[(jp + 1) % n_p] / (2.0 * hp)
                 - params.D / hp ** 2),
                (idx(iy, jp - 1), -Phi_nodes[(jp - 1) % n_p] / (2.0 * hp)
                 - params.D / hp ** 2)]
            for col, val in entries:
                rows.append(k); cols.append(col); data.append(val)
    A = sp.csr_matrix((data, (rows, cols)), shape=(n_y * n_p, n_y * n_p))
    return A, rhs_vec


def _dense_from_blocks(L, B, U, n_y):
    """The whole resolvent matrix from its row blocks, identity end rows
    included."""
    n_p = B.shape[0]
    A = np.zeros((n_y, n_p, n_y, n_p))
    A[0, :, 0] = A[-1, :, -1] = np.eye(n_p)
    for i in range(1, n_y - 1):
        A[i, :, i - 1] = np.diag(L)
        A[i, :, i] = B
        A[i, :, i + 1] = np.diag(U)
    return A.reshape(n_y * n_p, n_y * n_p)


def _relative_residual(A, u, rhs_vec):
    return np.max(np.abs(A @ u - rhs_vec)) / np.max(np.abs(rhs_vec))


def _check_against_superlu(p, params):
    """The block solve against SuperLU on the loop-assembled matrix: the
    same answer to 1e-11 of max|u|, and a residual within 10x SuperLU's
    (+1e-15)."""
    spla = pytest.importorskip("scipy.sparse.linalg")
    A, rhs_vec = _loop_assembled_resolvent(p, params)
    u_ref = spla.spsolve(A, rhs_vec)
    u = resolvent_solve(p, params).u.values.ravel()
    assert np.max(np.abs(u - u_ref)) <= 1e-11 * np.max(np.abs(u_ref))
    assert (_relative_residual(A, u, rhs_vec)
            <= 10.0 * _relative_residual(A, u_ref, rhs_vec) + 1e-15)


def _phi_grid(n_phi):
    # build_phi_grid's nodes, also for the n_phi = 3 it refuses
    h = 2.0 * np.pi / n_phi
    return PhiGrid(n_phi=n_phi, nodes=h * np.arange(n_phi), h=h)


@pytest.mark.parametrize("n_phi", [4, 5, 16])
def test_resolvent_matches_loop_assembly(n_phi):
    grid = build_line_grid(6.0, 61)
    pg = build_phi_grid(n_phi)
    rhs = LineField(np.exp(-grid.nodes[:, None] ** 2)
                    * (1.0 + np.cos(pg.nodes) + np.sin(2 * pg.nodes))[None, :],
                    grid, pg)
    params = ModelParams(epsilon=0.05, D=0.3, T=1.0, V=wall_drive(1.0, 0.5),
                         Phi=shear(1.0))
    p = ResolventProblem(mu0(params.Phi) + 1.0, 1e-2, rhs)
    A, _ = _loop_assembled_resolvent(p, params)
    np.testing.assert_array_equal(
        _dense_from_blocks(*_resolvent_blocks(p, params), grid.n_y),
        A.toarray())
    _check_against_superlu(p, params)


@settings(max_examples=40, deadline=None)
@given(V=positive_speeds, Phi=angular_drifts, n_y=st.integers(9, 41),
       n_phi=st.integers(3, 12), D=st.floats(0.0, 2.0),
       eps_reg=st.floats(1e-6, 1.0), seed=st.integers(0, 2 ** 16))
def test_resolvent_residual_property(V, Phi, n_y, n_phi, D, eps_reg, seed):
    grid = build_line_grid(6.0, n_y)
    pg = _phi_grid(n_phi)
    rhs = LineField(np.random.default_rng(seed).normal(size=(n_y, n_phi)),
                    grid, pg)
    params = ModelParams(epsilon=0.05, D=D, T=1.0, V=V, Phi=Phi)
    _check_against_superlu(
        ResolventProblem(mu0(Phi) + 1.0, eps_reg, rhs), params)


@pytest.mark.parametrize("field", ["lam", "eps_reg"])
@pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
def test_resolvent_problem_rejects_nonfinite(field, bad):
    grid = build_line_grid(6.0, 9)
    rhs = LineField(np.ones((9, 4)), grid, build_phi_grid(4))
    args = {"lam": 2.0, "eps_reg": 1e-2, field: bad}
    with pytest.raises(ConfigurationError, match="finite"):
        ResolventProblem(rhs=rhs, **args)


def _singular(a, b):
    raise np.linalg.LinAlgError("Singular matrix")


def _nan_solve(a, b):
    return np.full(np.shape(b), np.nan)


@pytest.mark.parametrize("block_solve", [_singular, _nan_solve])
def test_resolvent_block_failure_is_numerical(block_solve, monkeypatch):
    grid = build_line_grid(6.0, 41)
    rhs = LineField(np.exp(-grid.nodes[:, None] ** 2) * np.ones((1, 8)),
                    grid, build_phi_grid(8))
    params = ModelParams(epsilon=0.05, D=0.3, T=1.0, V=const(1.0),
                         Phi=shear(1.0))
    p = ResolventProblem(mu0(params.Phi) + 1.0, 1e-2, rhs)
    monkeypatch.setattr(np.linalg, "solve", block_solve)
    with pytest.raises(NumericalFailureError):
        resolvent_solve(p, params)
