import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from activerods import (ConfigurationError, Decomposition, FullSolverConfig,
                        ModelParams, PhaseField, build_phi_grid, build_y_grid,
                        decompose, default_tests, energy_step, eval_on_nodes,
                        exp_cell_averages, exp_cell_integrals, norms,
                        run_full, steady_layer, weak_pairings)

from conftest import const, shifted_sine


def test_decompose_steady_layer_exact():
    yg = build_y_grid(4.0, 96, 0.8, 64)
    pg = build_phi_grid(16)
    for V in (const(1.0), shifted_sine(1.0, 0.5)):
        f = steady_layer(V, 0.05, yg, pg)
        dec = decompose(f, V, 0.05)
        np.testing.assert_allclose(dec.m, eval_on_nodes(V, pg), rtol=1e-14)
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
    with pytest.raises(ConfigurationError):
        decompose(PhaseField(np.zeros((48, 8)), yg, pg), const(1.0), 0.0)


def test_energy_of_pure_amplitude():
    yg = build_y_grid(4.0, 48, 0.4, 16)
    pg = build_phi_grid(64)
    u = PhaseField(np.zeros((48, 64)), yg, pg)
    dec = Decomposition(m=np.ones(64), u=u, epsilon=0.05)
    E, diss = energy_step(dec, const(1.0))
    assert E == pytest.approx(math.pi / 2, rel=1e-12)
    assert diss == 0.0


def test_energy_dissipation_positive():
    yg = build_y_grid(4.0, 48, 0.4, 16)
    pg = build_phi_grid(8)
    u = PhaseField(np.exp(-yg.centers)[:, None] * np.ones((1, 8)), yg, pg)
    dec = Decomposition(m=np.zeros(8), u=u, epsilon=0.05)
    E, diss = energy_step(dec, const(1.0))
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
    E0, _ = energy_step(decompose(f0, params.V, eps), params.V)
    for t, f in snaps:
        E, _ = energy_step(decompose(f, params.V, eps), params.V)
        assert E <= E0 * math.exp(4.0 * t) * (1.0 + 1e-6)


def test_weak_pairings_frozen():
    yg = build_y_grid(4.0, 48, 0.4, 16)
    pg = build_phi_grid(64)
    u = PhaseField(np.zeros((48, 64)), yg, pg)
    dec = Decomposition(m=np.ones(64), u=u, epsilon=0.05)
    vals = weak_pairings(dec, default_tests(pg))
    assert vals[0] == pytest.approx(2.0 * math.pi, rel=1e-12)
    assert abs(vals[1]) <= 1e-12
    assert abs(vals[2]) <= 1e-12


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
    I = exp_cell_integrals(eval_on_nodes(V, pg), 0.1, yg.faces)
    back = (dec.m / 0.1)[None, :] * (I / yg.widths[:, None]) + dec.u.values
    np.testing.assert_allclose(back, f.values, rtol=1e-11, atol=1e-12)
    # orthogonality of the remainder against the layer weight
    defect = float(np.max(np.abs(np.sum(dec.u.values * I, axis=0))))
    assert defect <= 1e-10 * max(norms(f)["l1"], 1e-300)
