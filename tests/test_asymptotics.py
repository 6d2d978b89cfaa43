import math

import numpy as np
import pytest

from activerods import (BulkWallState, ConfigurationError, ModelParams,
                        PhaseField, a_coeffs, build_inner, build_phi_grid,
                        build_y_grid, composite_refined, composite_simple,
                        eval_on_nodes, norms, p0_coeffs, phi_derivative,
                        poly_exp_cell_averages, residual_report, trace_wall,
                        wall_layer)

from conftest import const, shear, shifted_sine


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
    with pytest.raises(ConfigurationError):
        wall_layer(np.ones(16), const(1.0), 0.0, yg, pg)


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
    Vv, Vp, Vpp = (eval_on_nodes(V, pg, k) for k in range(3))
    Phiv = eval_on_nodes(Phi, pg)
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
    Vv = eval_on_nodes(V, pg)
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
    Vv = eval_on_nodes(V, pg)
    Vp = eval_on_nodes(V, pg, 1)
    Phiv = eval_on_nodes(Phi, pg)
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
    c0, c1, c2, c3, compat = p0_coeffs(np.zeros(4), np.zeros(4), np.zeros(4),
                                       V, u0)
    assert np.all(c0 == 0.0) and np.all(c1 == 0.0)
    assert np.all(c2 == 0.0) and np.all(c3 == 0.0)
    np.testing.assert_allclose(compat, 0.7, rtol=1e-14)

    _, c1, c2, c3, _ = p0_coeffs(np.zeros(4), np.zeros(4), 3.0 * np.ones(4),
                                 V, u0)
    np.testing.assert_allclose(c3, -1.0, rtol=1e-14)
    np.testing.assert_allclose(c2, -3.0, rtol=1e-14)
    np.testing.assert_allclose(c1, -6.0, rtol=1e-14)

    with pytest.raises(ConfigurationError):
        p0_coeffs(np.zeros(4), np.zeros(4), np.zeros(4), np.zeros(4), u0)


def test_corrector_ode_identity():
    rng = np.random.default_rng(11)
    A1 = rng.normal(size=16)
    A2 = rng.normal(size=16)
    A3 = rng.normal(size=16)
    V = rng.uniform(0.5, 2.0, size=16)
    c0, c1, c2, c3, _ = p0_coeffs(A1, A2, A3, V, np.zeros(16))
    # m3 = c0 + c1 z + c2 z^2 + c3 z^3 solves m3'' - V m3' = A1 + A2 z + A3 z^2
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
    refined = composite_refined(s, inner, params.epsilon, params.V)
    coeffs = np.stack([inner.c0, inner.c1, inner.c2, inner.c3])
    corr = poly_exp_cell_averages(coeffs,
                                  eval_on_nodes(params.V, pg),
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
    Vv = eval_on_nodes(V, pg)
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
        refined = composite_refined(s, inner, eps, params.V)
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
    assert rep.epsilon == 0.05


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
    Vv = eval_on_nodes(params.V, pg)
    np.testing.assert_allclose(inner.c3, -inner.a3 / (3.0 * Vv), rtol=1e-13)
    np.testing.assert_allclose(inner.c2, (6.0 * inner.c3 - inner.a2)
                               / (2.0 * Vv), rtol=1e-13)
    np.testing.assert_allclose(inner.c1, (2.0 * inner.c2 - inner.a1) / Vv,
                               rtol=1e-13)
    np.testing.assert_allclose(inner.compat_residual,
                               inner.c1 + Vv * trace_wall(s.bulk),
                               rtol=1e-12, atol=1e-14)
    np.testing.assert_array_equal(inner.u0_source, s.bulk.values[0, :])
