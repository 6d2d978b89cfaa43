import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from activerods import (Decomposition, FullSolverConfig,
                        ModelParams, NumericalFailureError, PhaseField,
                        build_phi_grid, build_y_grid, decomposition,
                        decompose, energy_step,
                        exp_cell_averages, exp_cell_integrals, norms,
                        run_full, steady_layer, weak_pairings)
from activerods.grids import YGrid

from conftest import const, shifted_sine


def test_decompose_steady_layer_exact():
    yg = build_y_grid(4.0, 96, 0.8, 64)
    pg = build_phi_grid(16)
    for V in (const(1.0), shifted_sine(1.0, 0.5)):
        f = steady_layer(V, 0.05, yg, pg)
        dec = decompose(f, V, 0.05)
        np.testing.assert_allclose(dec.m, V(pg.nodes), rtol=1e-14)
        peak = np.max(np.abs(f.values))
        assert np.max(np.abs(dec.u.values)) <= 1e-14 * peak


def test_decompose_smooth_amplitude():
    # f = c e^{-y}: the layer amplitude tends to 2 c eps / (1 + eps)
    eps, c = 0.1, 0.7
    yg = build_y_grid(8.0, 512, 4.0, 256)
    pg = build_phi_grid(8)
    vals = c * exp_cell_averages(np.ones(8), 1.0, yg)
    f = PhaseField(vals, yg, pg)
    dec = decompose(f, const(1.0), eps)
    want = 2.0 * c * eps / (1.0 + eps)
    np.testing.assert_allclose(dec.m, want, rtol=5e-3)


def test_decompose_zero_field():
    yg = build_y_grid(4.0, 48, 0.4, 16)
    pg = build_phi_grid(8)
    dec = decompose(PhaseField(np.zeros((48, 8)), yg, pg), const(1.0), 0.1)
    assert np.all(dec.m == 0.0)
    assert np.all(dec.u.values == 0.0)


def test_decompose_refuses_lost_orthogonality(monkeypatch):
    # the guard compares the round-off defect of <u, layer> with 1e-8
    # ||f||: a field reported to have no mass leaves the defect above it
    yg = build_y_grid(4.0, 48, 0.4, 16)
    pg = build_phi_grid(8)
    f = PhaseField(np.random.default_rng(3).random((48, 8)), yg, pg)
    decompose(f, shifted_sine(1.0, 0.5), 0.1)
    monkeypatch.setattr(decomposition, "norms", lambda field: {"l1": 0.0})
    with pytest.raises(NumericalFailureError, match="lost orthogonality"):
        decompose(f, shifted_sine(1.0, 0.5), 0.1)


def test_energy_of_pure_amplitude():
    yg = build_y_grid(4.0, 48, 0.4, 16)
    pg = build_phi_grid(64)
    u = PhaseField(np.zeros((48, 64)), yg, pg)
    dec = Decomposition(m=np.ones(64), u=u, epsilon=0.05,
                        V_nodes=np.ones(64), defect=0.0)
    E, diss = energy_step(dec)
    assert E == pytest.approx(math.pi / 2, rel=1e-12)
    assert diss == 0.0


def test_energy_step_by_hand():
    # 3 cells x 4 angles: faces 0, 1, 3, 4 give widths 1, 2, 1, centers
    # 0.5, 2, 3.5 and center distances 1.5; angle width h = pi / 2
    faces = np.array([0.0, 1.0, 3.0, 4.0])
    yg = YGrid(faces=faces, centers=0.5 * (faces[1:] + faces[:-1]),
               widths=np.diff(faces))
    pg = build_phi_grid(4)
    u = PhaseField(np.array([[1.0, 0.0, 2.0, 1.0],
                             [4.0, 3.0, 2.0, 1.0],
                             [1.0, 3.0, 2.0, 0.0]]), yg, pg)
    dec = Decomposition(m=np.array([1.0, 2.0, 0.0, -1.0]), u=u, epsilon=0.1,
                        V_nodes=2.0 * np.ones(4), defect=0.0)
    E, diss = energy_step(dec)
    # sum u^2 w = 6 * 1 + 30 * 2 + 14 * 1 = 80; sum m^2 / (4 V) = 6 / 8
    assert E == pytest.approx((80.0 + 0.75) * math.pi / 2, rel=1e-14)
    # per angle, slopes^2 * 1.5 plus the first slope^2 * 0.5 at the wall:
    # slopes (2, -2): 12 + 2; (2, 0): 6 + 2; (0, 0): 0; (0, -2/3): 2/3
    assert diss == pytest.approx(0.1 * (68.0 / 3.0) * math.pi / 2,
                                 rel=1e-14)


def test_energy_dissipation_positive():
    yg = build_y_grid(4.0, 48, 0.4, 16)
    pg = build_phi_grid(8)
    u = PhaseField(np.exp(-yg.centers)[:, None] * np.ones((1, 8)), yg, pg)
    dec = Decomposition(m=np.zeros(8), u=u, epsilon=0.05,
                        V_nodes=np.ones(8), defect=0.0)
    E, diss = energy_step(dec)
    assert E > 0.0
    assert diss > 0.0


def test_energy_growth_bound():
    # V = 1, Phi = 0: growth constant 2 sup V + sup |Phi'| + 2 = 4
    eps = 0.05
    yg = build_y_grid(4.0, 96, 16 * eps, 64)
    pg = build_phi_grid(16)
    params = ModelParams(epsilon=eps, D=0.0, T=0.5, V=const(1.0),
                         Phi=const(0.0))
    layer = steady_layer(params.V, eps, yg, pg)
    f0 = PhaseField(layer.values * (1.0 + 0.5 * np.sin(pg.nodes))[None, :],
                    yg, pg)
    snaps = run_full(f0, params, FullSolverConfig(dt=0.01),
                     [0.1, 0.2, 0.3, 0.4, 0.5])
    E0, _ = energy_step(decompose(f0, params.V, eps))
    for t, f in snaps:
        E, _ = energy_step(decompose(f, params.V, eps))
        assert E <= E0 * math.exp(4.0 * t) * (1.0 + 1e-6)


def test_weak_pairings_frozen():
    # 1 + cos(phi) pairs to 2 pi with 1, to pi with cos and to 0 with sin.
    # Kills the cos and sin profiles swapped, which a constant m, pairing
    # to 0 with both, cannot see.
    pg = build_phi_grid(64)
    pairs = weak_pairings(1.0 + np.cos(pg.nodes), pg)
    assert [name for name, _ in pairs] == ["one", "cos", "sin"]
    np.testing.assert_allclose([val for _, val in pairs],
                               [2.0 * math.pi, math.pi, 0.0],
                               rtol=1e-14, atol=1e-14)


@settings(max_examples=25, deadline=None)
@given(st.integers(0, 2 ** 32 - 1))
def test_reconstruct_roundtrip(seed):
    yg = build_y_grid(4.0, 48, 0.4, 16)
    pg = build_phi_grid(8)
    rng = np.random.default_rng(seed)
    f = PhaseField(rng.uniform(0.0, 1.0, size=(48, 8)), yg, pg)
    V = shifted_sine(1.0, 0.5)
    dec = decompose(f, V, 0.1)
    # the inverse of decompose: (m / eps) times the exact cell averages of
    # the layer weight, plus the remainder
    I = exp_cell_integrals(V(pg.nodes), 0.1, yg.faces)
    back = (dec.m / 0.1)[None, :] * (I / yg.widths[:, None]) + dec.u.values
    np.testing.assert_allclose(back, f.values, rtol=1e-11, atol=1e-12)
    # orthogonality of the remainder against the layer weight, which
    # decompose reports as the defect criterion 8 bounds: max_phi
    # |sum_i u_i I_i| / ||f||_L1, bit for bit. Kills the defect stored
    # without its division by ||f||_L1.
    defect = float(np.max(np.abs(np.sum(dec.u.values * I, axis=0))))
    assert defect <= 1e-10 * max(norms(f)["l1"], 1e-300)
    assert dec.defect == defect / norms(f)["l1"]
