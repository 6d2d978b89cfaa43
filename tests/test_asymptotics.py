import math
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from activerods import (AssumptionViolationError, BulkWallState,
                        ConfigurationError, ModelParams,
                        PhaseField, a_coeffs, build_inner, build_phi_grid,
                        build_y_grid, bulk_exp_field, composite_refined,
                        composite_simple, decompose, exp_cell_averages,
                        exp_cell_integrals, norms, p0_coeffs, phi_derivative,
                        poly_exp_cell_averages, residual_report, steady_layer,
                        trace_wall, wall_layer)
from activerods.asymptotics import _d2_y_nonuniform

from conftest import (angular_drifts, const, graded_y_grids, positive_speeds,
                      shear, shifted_sine, wall_drive)


def _state(yg, pg, wall_amp=0.3, bulk_amp=0.2):
    wall = 1.0 + wall_amp * np.cos(pg.nodes)
    bulk = (np.exp(-yg.centers)[:, None]
            * (1.0 + bulk_amp * np.sin(pg.nodes))[None, :])
    return BulkWallState(PhaseField(bulk, yg, pg), wall)


def test_wall_layer_mass_exact():
    yg = build_y_grid(4.0, 48, 0.4, 16)
    pg = build_phi_grid(16)
    f = wall_layer(np.ones(16), const(1.0), 0.5, yg, pg)
    want = 2.0 * math.pi * (1.0 - math.exp(-4.0 / 0.5))
    assert norms(f)["mass"] == pytest.approx(want, rel=1e-13)

    zero = wall_layer(np.zeros(16), const(1.0), 0.5, yg, pg)
    assert np.all(zero.values == 0.0)


def _layer_calls(V=shifted_sine(1.0, 0.5)):
    """Every function that puts the layer e^{-V y/eps}/eps on a grid, as
    a call of eps alone with the speed V. The state, corrector and leading
    composite they start from are built with a positive speed, and the
    corrector then takes V's nodal values. residual_report reads eps from
    its ModelParams, which itself refuses a negative, NaN or infinite eps,
    so the eps test calls it at 0 only."""
    yg = build_y_grid(4.0, 48, 0.4, 16)
    pg = build_phi_grid(16)
    Phi = shear(0.5)
    Vv = V(pg.nodes)
    state = _state(yg, pg)
    good = ModelParams(epsilon=0.05, D=0.2, T=1.0, V=shifted_sine(1.0, 0.5),
                       Phi=Phi)
    inner = replace(build_inner(state, good), V_nodes=Vv)
    base = composite_simple(state, 0.05, good.V)
    return {
        "exp_cell_integrals": lambda eps: exp_cell_integrals(Vv, eps,
                                                             yg.faces),
        "exp_cell_averages": lambda eps: exp_cell_averages(Vv, eps, yg),
        "poly_exp_cell_averages": lambda eps: poly_exp_cell_averages(
            np.ones((4, pg.n_phi)), Vv, eps, yg),
        "wall_layer": lambda eps: wall_layer(state.wall, V, eps, yg, pg),
        "steady_layer": lambda eps: steady_layer(V, eps, yg, pg),
        "composite_simple": lambda eps: composite_simple(state, eps, V),
        "composite_refined": lambda eps: composite_refined(base, inner, eps),
        "decompose": lambda eps: decompose(base, V, eps),
        "residual_report": lambda eps: residual_report(
            state, inner, ModelParams(epsilon=eps, D=0.2, T=1.0, V=V,
                                      Phi=Phi)),
    }


_BAD_EPS = (0.0, -0.1, math.nan, math.inf)


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("name, eps", [
    (name, eps) for name in _layer_calls() if name != "residual_report"
    for eps in _BAD_EPS] + [("residual_report", 0.0)])
def test_layer_refuses_eps_outside_open_half_line(name, eps):
    # the layer exists only for 0 < eps < inf, a rule the two closed-form
    # quadratures own: every caller refuses 0 (the limit's eps), a
    # negative eps, NaN and inf before any warning. Kills either
    # quadrature's guard removed (a warning or finite numbers at eps <= 0).
    with pytest.raises(ConfigurationError, match="0 < eps < inf"):
        _layer_calls()[name](eps)


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("name", list(_layer_calls()))
@pytest.mark.parametrize("V", [const(0.0), const(-1.0), wall_drive(0.5, 1.0)],
                         ids=["V=0", "V=-1", "wall_drive(0.5,1)"])
def test_layer_refuses_speed_not_positive(name, V):
    # the layer decays only for a speed V > 0 at every node, a rule the
    # two quadratures and p0_coeffs own: V = 0 used to give NaN and three
    # RuntimeWarnings, V = -1 cells down to -1.9e35 and the wall drive
    # cells down to -7.7e17, all without an error. Kills the speed check
    # in either quadrature removed (a warning, or finite numbers and no
    # error), and in p0_coeffs (residual_report warns at V = 0).
    with pytest.raises(AssumptionViolationError, match="positive finite"):
        _layer_calls(V)[name](0.05)


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("bad", [math.inf, math.nan])
def test_layer_refuses_speed_not_finite(bad):
    # a nodal speed array can hold inf or NaN, which no coefficient family
    # yields. Kills the finite half of the speed check dropped: an
    # infinite speed warns at the wall face or passes p0_coeffs.
    yg = build_y_grid(4.0, 48, 0.4, 16)
    Vv = np.array([1.0, bad, 1.0, 1.0])
    for call in (lambda: exp_cell_integrals(Vv, 0.05, yg.faces),
                 lambda: poly_exp_cell_averages(np.ones((2, 4)), Vv, 0.05, yg),
                 lambda: p0_coeffs(*np.zeros((3, 4)), Vv, np.zeros(4))):
        with pytest.raises(AssumptionViolationError, match="positive finite"):
            call()


def test_wall_layer_sharpens_with_eps():
    # first cell much thinner than the layer: peak value scales like 1/eps
    yg = build_y_grid(4.0, 32, 0.01, 8)
    pg = build_phi_grid(8)
    v1 = wall_layer(np.ones(8), const(1.0), 0.05, yg, pg).values[0, 0]
    v2 = wall_layer(np.ones(8), const(1.0), 0.025, yg, pg).values[0, 0]
    assert 1.9 <= v2 / v1 <= 2.1


def _printed_a2_a3(w, V, Phi, D, pg):
    """A2 and A3 of a previously printed closed form, whose D-proportional
    terms carry an extra factor Phi: the reference the product-rule
    collection of a_coeffs is compared with."""
    Vv, Vp, Vpp = (V(pg.nodes, k) for k in range(3))
    Phiv = Phi(pg.nodes)
    Q = w * Vv
    dQ = phi_derivative(Q, 1)
    return (-Vp * Phiv * Q + D * (Vpp * Phiv * Q + 2.0 * Vp * dQ),
            -D * Vp ** 2 * Phiv * Q)


def test_a_coeffs_no_angular_transport():
    pg = build_phi_grid(32)
    w = 1.0 + 0.3 * np.cos(pg.nodes)
    u0 = 0.7 + 0.1 * np.sin(pg.nodes)
    V = shifted_sine(1.0, 0.5)
    A1, A2, A3 = a_coeffs(w, u0, V, const(0.0), 0.0, pg)
    A2p, A3p = _printed_a2_a3(w, V, const(0.0), 0.0, pg)
    Vv = V(pg.nodes)
    np.testing.assert_allclose(A1, Vv ** 2 * u0, atol=1e-12)
    assert np.all(A2 == 0.0)
    assert np.all(A3 == 0.0)
    np.testing.assert_allclose(A2p, A2, atol=0.0)
    np.testing.assert_allclose(A3p, A3, atol=0.0)


def test_a_coeffs_pure_drift():
    pg = build_phi_grid(32)
    w = 1.0 + 0.3 * np.cos(pg.nodes)
    u0 = np.zeros(32)
    V, Phi = shifted_sine(1.0, 0.5), shear(0.5)
    A1, A2, A3 = a_coeffs(w, u0, V, Phi, 0.0, pg)
    A2p, A3p = _printed_a2_a3(w, V, Phi, 0.0, pg)
    Vv = V(pg.nodes)
    Vp = V(pg.nodes, 1)
    Phiv = Phi(pg.nodes)
    np.testing.assert_allclose(A2, -Vp * Phiv * Vv * w, atol=1e-12)
    assert np.all(A3 == 0.0)
    # the two published routes coincide without angular diffusion
    np.testing.assert_allclose(A2p, A2, atol=1e-14)
    np.testing.assert_allclose(A3p, A3, atol=1e-14)


def test_a_coeffs_constant_speed():
    pg = build_phi_grid(32)
    w = 1.0 + 0.3 * np.cos(pg.nodes)
    u0 = 0.5 * np.ones(32)
    _, A2, A3 = a_coeffs(w, u0, const(2.0), shear(1.0), 0.4, pg)
    A2p, A3p = _printed_a2_a3(w, const(2.0), shear(1.0), 0.4, pg)
    assert np.max(np.abs(A2)) <= 1e-14
    assert np.max(np.abs(A3)) <= 1e-14
    assert np.max(np.abs(A2p)) <= 1e-14
    assert np.max(np.abs(A3p)) <= 1e-14


def test_printed_variant_differs_with_diffusion():
    # angle-dependent speed, nontrivial drift, D > 0: the two routes split
    pg = build_phi_grid(32)
    w = 1.0 + 0.3 * np.cos(pg.nodes)
    u0 = 0.5 * np.ones(32)
    _, A2, A3 = a_coeffs(w, u0, shifted_sine(1.0, 0.5), shear(0.5), 0.4, pg)
    A2p, A3p = _printed_a2_a3(w, shifted_sine(1.0, 0.5), shear(0.5), 0.4, pg)
    assert np.max(np.abs(A2 - A2p)) > 1e-3
    assert np.max(np.abs(A3 - A3p)) > 1e-3


def test_p0_coeffs_frozen():
    V = np.ones(4)
    u0 = 0.7 * np.ones(4)
    c1, c2, c3, compat = p0_coeffs(np.zeros(4), np.zeros(4), np.zeros(4),
                                   V, u0)
    assert np.all(c1 == 0.0)
    assert np.all(c2 == 0.0) and np.all(c3 == 0.0)
    np.testing.assert_allclose(compat, 0.7, rtol=1e-14)

    c1, c2, c3, _ = p0_coeffs(np.zeros(4), np.zeros(4), 3.0 * np.ones(4),
                              V, u0)
    np.testing.assert_allclose(c3, -1.0, rtol=1e-14)
    np.testing.assert_allclose(c2, -3.0, rtol=1e-14)
    np.testing.assert_allclose(c1, -6.0, rtol=1e-14)

    with pytest.raises(AssumptionViolationError):
        p0_coeffs(np.zeros(4), np.zeros(4), np.zeros(4), np.zeros(4), u0)


def test_corrector_ode_identity():
    rng = np.random.default_rng(11)
    A1 = rng.normal(size=16)
    A2 = rng.normal(size=16)
    A3 = rng.normal(size=16)
    V = rng.uniform(0.5, 2.0, size=16)
    c1, c2, c3, _ = p0_coeffs(A1, A2, A3, V, np.zeros(16))
    # m3 = c1 z + c2 z^2 + c3 z^3 solves m3'' - V m3' = A1 + A2 z + A3 z^2
    for z in (0.0, 1.0, 2.0):
        lhs = (2.0 * c2 + 6.0 * c3 * z) - V * (c1 + 2.0 * c2 * z
                                               + 3.0 * c3 * z * z)
        assert np.max(np.abs(lhs - (A1 + A2 * z + A3 * z * z))) <= 1e-12


def test_composite_simple_zero_wall():
    yg = build_y_grid(4.0, 48, 0.4, 16)
    pg = build_phi_grid(16)
    s = _state(yg, pg)
    s.wall[:] = 0.0
    comp = composite_simple(s, 0.05, const(1.0))
    np.testing.assert_array_equal(comp.values, s.bulk.values)


def test_composite_refined_adds_corrector():
    yg = build_y_grid(4.0, 48, 0.4, 16)
    pg = build_phi_grid(16)
    s = _state(yg, pg)
    params = ModelParams(epsilon=0.05, D=0.3, T=1.0, V=shifted_sine(1.0, 0.5),
                         Phi=shear(0.5))
    inner = build_inner(s, params)
    simple = composite_simple(s, params.epsilon, params.V)
    refined = composite_refined(simple, inner, params.epsilon)
    coeffs = np.stack([np.zeros(16), inner.c1, inner.c2, inner.c3])
    corr = poly_exp_cell_averages(coeffs,
                                  params.V(pg.nodes),
                                  params.epsilon, yg)
    np.testing.assert_allclose(refined.values - simple.values, corr,
                               rtol=1e-12, atol=1e-14)


def test_composite_far_field_matches_bulk():
    yg = build_y_grid(8.0, 64, 0.4, 16)
    pg = build_phi_grid(16)
    s = _state(yg, pg)
    comp = composite_simple(s, 0.05, const(1.0))
    np.testing.assert_allclose(comp.values[-1, :], s.bulk.values[-1, :],
                               atol=1e-12)


def test_composite_mass_additive():
    yg = build_y_grid(4.0, 48, 0.4, 16)
    pg = build_phi_grid(16)
    s = _state(yg, pg)
    eps = 0.05
    V = shifted_sine(1.0, 0.5)
    comp = composite_simple(s, eps, V)
    Vv = V(pg.nodes)
    layer_mass = float(np.sum(
        s.wall * (1.0 - np.exp(-Vv * 4.0 / eps))) * pg.h)
    bulk_mass = norms(s.bulk)["mass"]
    assert norms(comp)["mass"] == pytest.approx(bulk_mass + layer_mass,
                                                rel=1e-12)


def test_corrector_layer_shrinks_linearly():
    yg = build_y_grid(4.0, 128, 0.8, 96)
    pg = build_phi_grid(16)
    s = _state(yg, pg)
    params = ModelParams(epsilon=0.05, D=0.3, T=1.0, V=shifted_sine(1.0, 0.5),
                         Phi=shear(0.5))
    inner = build_inner(s, params)

    def corr_l1(eps):
        simple = composite_simple(s, eps, params.V)
        refined = composite_refined(simple, inner, eps)
        diff = PhaseField(refined.values - simple.values, yg, pg)
        return norms(diff)["l1"]

    ratio = corr_l1(0.05) / corr_l1(0.025)
    assert 1.8 <= ratio <= 2.2


def test_residual_zero_state():
    yg = build_y_grid(4.0, 48, 0.4, 16)
    pg = build_phi_grid(16)
    s = BulkWallState(PhaseField(np.zeros((48, 16)), yg, pg), np.zeros(16))
    params = ModelParams(epsilon=0.05, D=0.3, T=1.0, V=shifted_sine(1.0, 0.5),
                         Phi=shear(0.5))
    inner = build_inner(s, params)
    rep = residual_report(s, inner, params)
    assert rep.l1_R == 0.0
    assert rep.l1_r == 0.0


def test_residual_flat_bulk_has_no_wall_defect():
    yg = build_y_grid(4.0, 48, 0.4, 16)
    pg = build_phi_grid(16)
    bulk = np.ones((48, 16)) * (1.0 + 0.2 * np.sin(pg.nodes))[None, :]
    s = BulkWallState(PhaseField(bulk, yg, pg), np.ones(16))
    params = ModelParams(epsilon=0.05, D=0.3, T=1.0, V=shifted_sine(1.0, 0.5),
                         Phi=shear(0.5))
    inner = build_inner(s, params)
    rep = residual_report(s, inner, params)
    assert rep.l1_r == 0.0
    assert np.isfinite(rep.l1_R)


def test_build_inner_invariants():
    yg = build_y_grid(4.0, 48, 0.4, 16)
    pg = build_phi_grid(32)
    s = _state(yg, pg)
    params = ModelParams(epsilon=0.05, D=0.3, T=1.0, V=shifted_sine(1.0, 0.5),
                         Phi=shear(0.5))
    inner = build_inner(s, params)
    A1, A2, A3 = a_coeffs(s.wall, s.bulk.values[0, :], params.V, params.Phi,
                          params.D, pg)
    Vv = params.V(pg.nodes)
    np.testing.assert_allclose(inner.c3, -A3 / (3.0 * Vv), rtol=1e-13)
    np.testing.assert_allclose(inner.c2, (6.0 * inner.c3 - A2) / (2.0 * Vv),
                               rtol=1e-13)
    np.testing.assert_allclose(inner.c1, (2.0 * inner.c2 - A1) / Vv,
                               rtol=1e-13)
    np.testing.assert_allclose(inner.compat_residual,
                               inner.c1 + Vv * trace_wall(s.bulk),
                               rtol=1e-12, atol=1e-14)


def _reference_a_coeffs(w, u0, V, Phi, D, pg):
    """a_coeffs hand-expanded, with its own copy of the wall rate: the
    reference the shared transport expansion must match bitwise."""
    Vv, Vp, Vpp = (V(pg.nodes, k) for k in range(3))
    Phiv = Phi(pg.nodes)
    Q = w * Vv
    dQ = phi_derivative(Q, 1)
    dt_w = -phi_derivative(Phiv * w, 1) + D * phi_derivative(w, 2) \
        + Vv * u0
    A1 = Vv * dt_w + phi_derivative(Phiv * Q, 1) - D * phi_derivative(Q, 2)
    A2 = -Vp * Phiv * Q + D * (Vpp * Q + 2.0 * Vp * dQ)
    A3 = -D * Vp ** 2 * Q
    return A1, A2, A3


def _reference_residual(s, inner, params, eval_y):
    """(l1_R, l1_r) of residual_report with the q-loop and the wall rate
    hand-expanded."""
    eps, D, pg, yl = params.epsilon, params.D, s.bulk.phi_grid, s.bulk.y_grid
    Vv, Vp, Vpp = (params.V(pg.nodes, k) for k in range(3))
    Phiv = params.Phi(pg.nodes)
    rho, centers = s.bulk.values, yl.centers
    dt_rho = (Vv[None, :] * np.gradient(rho, centers, axis=0)
              - phi_derivative(Phiv[None, :] * rho, 1)
              + D * phi_derivative(rho, 2))
    dt_w = (-phi_derivative(Phiv * s.wall, 1) + D * phi_derivative(s.wall, 2)
            + Vv * rho[0, :])
    dt_c1, dt_c2, dt_c3, _ = p0_coeffs(
        *_reference_a_coeffs(dt_w, dt_rho[0, :], params.V, params.Phi, D, pg),
        Vv, np.zeros_like(Vv))
    q = np.zeros((6, pg.n_phi))
    for k, ck, dt_ck in ((1, inner.c1, dt_c1), (2, inner.c2, dt_c2),
                         (3, inner.c3, dt_c3)):
        q[k] += dt_ck + phi_derivative(Phiv * ck, 1) \
            - D * phi_derivative(ck, 2)
        q[k + 1] += -Vp * Phiv * ck \
            + D * (Vpp * ck + 2.0 * Vp * phi_derivative(ck, 1))
        q[k + 2] += -D * Vp ** 2 * ck
    d2rho = _d2_y_nonuniform(rho, centers)
    bulk = np.stack([np.interp(eval_y.centers, centers, d2rho[:, j])
                     for j in range(pg.n_phi)], axis=1)
    R = poly_exp_cell_averages(q, Vv, eps, eval_y) - eps * bulk
    r = -eps * (rho[1, :] - rho[0, :]) / (centers[1] - centers[0])
    return (float(np.sum(np.abs(R) * eval_y.widths[:, None]) * pg.h),
            float(np.sum(np.abs(r)) * pg.h))


@settings(max_examples=60, deadline=None)
@given(positive_speeds, angular_drifts,
       st.one_of(st.just(0.0), st.floats(0.0, 2.0, exclude_min=True)),
       st.integers(4, 40), graded_y_grids(), graded_y_grids(),
       st.floats(0.01, 0.5), st.integers(0, 2 ** 32 - 1))
def test_wall_layer_algebra_matches_hand_expanded(V, Phi, D, n_phi, yg, eval_y,
                                                  eps, seed):
    rng = np.random.default_rng(seed)
    pg = build_phi_grid(n_phi)
    s = BulkWallState(PhaseField(rng.normal(size=(yg.n_y, n_phi)), yg, pg),
                      rng.normal(size=n_phi))
    params = ModelParams(epsilon=eps, D=D, T=1.0, V=V, Phi=Phi)
    Vv = V(pg.nodes)

    inner = build_inner(s, params)
    c1, c2, c3, compat = p0_coeffs(
        *_reference_a_coeffs(s.wall, s.bulk.values[0, :], V, Phi, D, pg),
        Vv, trace_wall(s.bulk))
    for got, want in ((inner.c1, c1), (inner.c2, c2), (inner.c3, c3),
                      (inner.compat_residual, compat)):
        np.testing.assert_array_equal(got, want)

    for grid in (None, eval_y):
        rep = residual_report(s, inner, params, grid)
        assert (rep.l1_R, rep.l1_r) == _reference_residual(s, inner, params,
                                                           grid or yg)

    avg = exp_cell_averages(Vv, eps, yg)
    layer = (s.wall * Vv / eps)[None, :] * avg
    corr = poly_exp_cell_averages(np.stack([np.zeros(n_phi), c1, c2, c3]),
                                  Vv, eps, yg)
    np.testing.assert_array_equal(
        composite_refined(composite_simple(s, eps, V), inner, eps).values,
        layer + s.bulk.values + corr)
    np.testing.assert_array_equal(steady_layer(V, eps, yg, pg).values,
                                  (Vv[None, :] / eps) * avg)
    np.testing.assert_array_equal(
        bulk_exp_field(yg, pg).values,
        exp_cell_integrals(np.ones(n_phi), 1.0, yg.faces)
        / yg.widths[:, None] / (2.0 * np.pi))
