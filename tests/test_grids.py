import math

import numpy as np
import pytest
from hypothesis import assume, given, strategies as st

from activerods import (ConfigurationError, GridError, PhaseField,
                        aggregate_phi, build_phi_grid, build_y_grid,
                        exp_cell_averages, exp_cell_integrals, norms,
                        overlap_average_y, phi_derivative,
                        poly_exp_cell_averages, trace_wall)
from activerods.grids import YGrid


def test_graded_grid_example():
    g = build_y_grid(8.0, 128, 0.25, 32)
    assert g.n_y == 128
    assert g.faces[0] == 0.0
    assert g.faces[32] == pytest.approx(0.25, abs=1e-15)
    assert g.faces[-1] == pytest.approx(8.0, abs=1e-12)
    np.testing.assert_allclose(g.widths[:32], 0.25 / 32, rtol=1e-14)
    # widths never shrink and never more than double
    assert np.all(g.widths[1:] >= g.widths[:-1] * (1 - 1e-9))
    assert np.all(g.widths[1:] <= g.widths[:-1] * (2 + 1e-6))


def test_degenerate_uniform_grid():
    g = build_y_grid(8.0, 64, 4.0, 32)
    np.testing.assert_allclose(g.widths, 0.125, rtol=1e-12)


def test_grid_rejections():
    with pytest.raises(GridError):
        build_y_grid(8.0, 32, 0.25, 32)
    with pytest.raises(GridError):
        build_y_grid(8.0, 40, 0.25, 4)
    with pytest.raises(GridError):
        build_y_grid(8.0, 40, -0.25, 16)
    # far region would need a stretch ratio above 2
    with pytest.raises(GridError):
        build_y_grid(100.0, 40, 0.4, 32)
    # stretched region smaller than the uniform continuation
    with pytest.raises(GridError):
        build_y_grid(1.0, 128, 0.9, 16)
    # far region too long for two cells even at the largest ratio
    with pytest.raises(GridError, match="cannot reach y_max even at ratio 4"):
        build_y_grid(1e6, 12, 0.1, 10)


def test_phi_grid():
    g = build_phi_grid(4)
    assert g.h == pytest.approx(math.pi / 2, rel=1e-15)
    np.testing.assert_allclose(g.nodes,
                               [0.0, math.pi / 2, math.pi, 1.5 * math.pi],
                               rtol=1e-15)
    with pytest.raises(GridError):
        build_phi_grid(3)


def test_norms_ones_field():
    yg = build_y_grid(8.0, 64, 4.0, 32)
    pg = build_phi_grid(16)
    f = PhaseField(np.ones((64, 16)), yg, pg)
    n = norms(f)
    assert n["mass"] == pytest.approx(8.0 * 2.0 * math.pi, rel=1e-12)
    assert n["l1"] == pytest.approx(n["mass"], rel=1e-12)
    assert set(n) == {"l1", "mass"}


def test_trace_wall_quadratic():
    yg = build_y_grid(16.0, 16, 8.0, 8)
    pg = build_phi_grid(4)
    vals = np.zeros((16, 4))
    vals[0, :] = 0.25   # y^2 at center 0.5
    vals[1, :] = 2.25   # y^2 at center 1.5
    np.testing.assert_allclose(trace_wall(PhaseField(vals, yg, pg)), -0.75,
                               rtol=1e-13)


def test_trace_wall_linear_exact():
    yg = build_y_grid(8.0, 48, 0.5, 16)
    pg = build_phi_grid(4)
    vals = 2.0 + 3.0 * yg.centers[:, None] * np.ones((1, 4))
    np.testing.assert_allclose(trace_wall(PhaseField(vals, yg, pg)), 2.0,
                               rtol=1e-12)


def test_trace_wall_needs_two_cells():
    # one cell cannot fix a line: a GridError, where without the guard
    # the second center's lookup raises IndexError
    yg = YGrid(faces=np.array([0.0, 1.0]), centers=np.array([0.5]),
               widths=np.array([1.0]))
    with pytest.raises(GridError, match="two cells"):
        trace_wall(PhaseField(np.ones((1, 4)), yg, build_phi_grid(4)))


def test_exp_cell_integrals_frozen():
    I = exp_cell_integrals(np.array([1.0]), 1.0, np.array([0.0, 1.0, 2.0]))
    np.testing.assert_allclose(
        I[:, 0], [1.0 - math.exp(-1.0), math.exp(-1.0) - math.exp(-2.0)],
        rtol=1e-14)


def test_exp_cell_averages_consistent():
    yg = build_y_grid(4.0, 48, 0.4, 16)
    V = np.full(8, 1.5)
    avg = exp_cell_averages(V, 0.1, yg)
    I = exp_cell_integrals(V, 0.1, yg.faces)
    np.testing.assert_allclose(avg * yg.widths[:, None], I, rtol=1e-14)
    # total integral telescopes to (eps/V)(1 - exp(-V y_max / eps))
    total = I.sum(axis=0)
    np.testing.assert_allclose(total, (0.1 / 1.5), rtol=1e-12)


def test_poly_exp_constant_row_matches():
    yg = build_y_grid(4.0, 48, 0.4, 16)
    V = np.full(8, 2.0)
    eps = 1.0
    a = poly_exp_cell_averages(np.ones((1, 8)), V, eps, yg)
    b = exp_cell_averages(V, eps, yg)
    np.testing.assert_allclose(a, b, rtol=1e-12)


def test_poly_exp_linear_frozen():
    # integral of z exp(-z) over [0, 1] equals 1 - 2/e
    yg = build_y_grid(2.0, 16, 1.0, 8)
    V = np.ones(4)
    coeffs = np.zeros((2, 4))
    coeffs[1, :] = 1.0
    avg = poly_exp_cell_averages(coeffs, V, 1.0, yg)
    got = float(np.sum(avg[:8, 0] * yg.widths[:8]))
    assert got == pytest.approx(1.0 - 2.0 / math.e, rel=1e-12)


def test_phi_derivative_trig():
    pg = build_phi_grid(32)
    s = np.sin(pg.nodes)
    np.testing.assert_allclose(phi_derivative(s), np.cos(pg.nodes),
                               atol=1e-12)
    np.testing.assert_allclose(phi_derivative(s, order=2), -s, atol=1e-12)


def test_phi_derivative_nyquist():
    pg = build_phi_grid(8)
    nyq = np.cos(4.0 * pg.nodes)
    np.testing.assert_allclose(phi_derivative(nyq), 0.0, atol=1e-12)


def test_overlap_average_conservative():
    src_faces = np.linspace(0.0, 4.0, 65)
    rng = np.random.default_rng(7)
    vals = rng.uniform(0.0, 2.0, size=64)
    tgt_faces = np.linspace(0.0, 4.0, 17)
    out = overlap_average_y(src_faces, vals, tgt_faces)
    assert np.sum(out * np.diff(tgt_faces)) == pytest.approx(
        np.sum(vals * np.diff(src_faces)), rel=1e-13)
    same = overlap_average_y(src_faces, vals, src_faces)
    np.testing.assert_allclose(same, vals, rtol=1e-13)
    with pytest.raises(GridError):
        overlap_average_y(src_faces, vals, np.linspace(0.0, 5.0, 9))


def test_aggregate_phi():
    rng = np.random.default_rng(3)
    vals = rng.uniform(size=32)
    out = aggregate_phi(vals, 4)
    assert out.size == 8
    # mean over the circle is preserved
    assert out.mean() == pytest.approx(vals.mean(), rel=1e-13)
    np.testing.assert_allclose(aggregate_phi(np.full(32, 1.7), 4), 1.7,
                               rtol=1e-13)
    with pytest.raises(GridError):
        aggregate_phi(vals, 5)


def test_aggregate_phi_identity_and_odd_factor():
    vals = np.random.default_rng(4).uniform(size=(3, 48))
    np.testing.assert_array_equal(aggregate_phi(vals, 1), vals)
    out = aggregate_phi(vals, 3)
    assert out.shape == (3, 16)
    # coarse cell k is fine cells 3k-1, 3k and 3k+1 whole, wrapping at 0
    for k in range(16):
        cells = vals[:, [(3 * k - 1) % 48, 3 * k, 3 * k + 1]]
        np.testing.assert_allclose(out[:, k], cells.sum(axis=1) / 3,
                                   rtol=1e-15)
    np.testing.assert_allclose(out.mean(axis=1), vals.mean(axis=1),
                               rtol=1e-13)


def test_field_shape_mismatch():
    yg = build_y_grid(4.0, 48, 0.4, 16)
    pg = build_phi_grid(8)
    with pytest.raises(ConfigurationError):
        PhaseField(np.zeros((8, 48)), yg, pg)


@given(st.floats(2.0, 20.0), st.floats(0.02, 0.3), st.integers(8, 24),
       st.integers(12, 48))
def test_grading_invariants(y_max, frac, layer_cells, n_stretch):
    layer_width = frac * y_max
    n_y = layer_cells + n_stretch
    try:
        g = build_y_grid(y_max, n_y, layer_width, layer_cells)
    except GridError:
        assume(False)
    assert g.faces[0] == 0.0
    assert g.faces[-1] == pytest.approx(y_max, rel=1e-12)
    assert np.all(np.diff(g.faces) > 0)
    assert np.all(g.widths[1:] >= g.widths[:-1] * (1 - 1e-9))
    assert np.all(g.widths[1:] <= g.widths[:-1] * (2 + 1e-6))
    assert g.centers.size == n_y
