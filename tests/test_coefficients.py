import math

import numpy as np
import pytest
from hypothesis import given, strategies as st

from activerods import (AngularCoefficient, AssumptionViolationError,
                        ConfigurationError, ModelParams,
                        epsilon_from_physical, mu0, sup_abs,
                        validate_assumptions)
from activerods.coefficients import _values, eval_coeff

from conftest import (angular_drifts, coeff_value_reference, const,
                      positive_speeds, shear, shifted_sine, wall_drive)


def test_shifted_sine_value():
    V = shifted_sine(1.0, 0.5)
    assert eval_coeff(V, math.pi / 2) == pytest.approx(2.0, abs=1e-14)


def test_paper_shear_value():
    Phi = shear(1.0)
    assert eval_coeff(Phi, math.pi / 4) == pytest.approx(-0.5, abs=1e-14)


def test_constant_orders():
    c = const(3.5)
    assert eval_coeff(c, 1.2, 0) == 3.5
    assert eval_coeff(c, 1.2, 1) == 0.0
    assert eval_coeff(c, 1.2, 2) == 0.0
    with pytest.raises(ConfigurationError, match="order must be 0, 1 or 2"):
        eval_coeff(c, 0.3, 3)


def test_wall_drive_value():
    V = wall_drive(1.0, 0.4)
    assert eval_coeff(V, math.pi / 2) == pytest.approx(0.6, abs=1e-14)
    assert eval_coeff(V, 0.0) == pytest.approx(1.0, abs=1e-14)


def test_shifted_sine_derivatives():
    V = shifted_sine(1.0, 0.5)
    assert eval_coeff(V, 0.0, 1) == pytest.approx(0.5, abs=1e-14)
    assert eval_coeff(V, math.pi / 2, 2) == pytest.approx(-0.5, abs=1e-14)


def test_paper_shear_derivatives():
    Phi = shear(2.0)
    # d/dphi of -2 sin^2 = -2 sin(2 phi)
    assert eval_coeff(Phi, math.pi / 4, 1) == pytest.approx(-2.0, abs=1e-14)
    assert eval_coeff(Phi, 0.0, 2) == pytest.approx(-4.0, abs=1e-14)


def test_unknown_family_rejected():
    with pytest.raises(ConfigurationError):
        AngularCoefficient("quadratic", {"a": 1.0})


def test_missing_param_rejected():
    with pytest.raises(ConfigurationError):
        AngularCoefficient("shifted_sine", {"g0": 1.0})


def test_extra_param_rejected():
    with pytest.raises(ConfigurationError):
        AngularCoefficient("constant", {"value": 1.0, "slope": 2.0})


@pytest.mark.parametrize("family, params", [
    ("constant", {"value": 1.0}),
    ("shifted_sine", {"g0": 1.0, "a": 0.5}),
    ("paper_shear", {"gamma": 1.0}),
    ("wall_drive", {"g": 1.0, "v_prop": 0.5})])
@pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf, 10 ** 400])
def test_nonfinite_param_rejected(family, params, bad):
    for key in params:
        with pytest.raises(ConfigurationError, match="finite number"):
            AngularCoefficient(family, {**params, key: bad})


def test_gmin_shifted_sine():
    # min over phi of g0 + a(1 + sin phi) is g0, attained at phi = -pi/2
    g = validate_assumptions(shifted_sine(1.0, 0.5))
    assert g == pytest.approx(1.0, abs=1e-6)


def test_gmin_constant():
    assert validate_assumptions(const(2.0)) == pytest.approx(2.0, abs=1e-12)


def test_gmin_wall_drive():
    g = validate_assumptions(wall_drive(1.0, 0.5))
    assert g == pytest.approx(0.5, abs=1e-6)


def test_assumption_violation():
    with pytest.raises(AssumptionViolationError):
        validate_assumptions(wall_drive(0.5, 1.0))
    # a speed that touches zero exactly is not strictly positive
    for g in (0.5, 1.0 / 3.0, 7.1):
        for v_prop in (g, -g):
            with pytest.raises(AssumptionViolationError):
                validate_assumptions(wall_drive(g, v_prop))


def test_mu0_examples():
    assert mu0(const(7.0)) == pytest.approx(1.0, abs=1e-12)
    assert mu0(shear(1.0)) == pytest.approx(1.5, abs=1e-6)
    assert mu0(shear(2.0)) == pytest.approx(2.0, abs=1e-6)


def test_sup_abs():
    assert sup_abs(shifted_sine(1.0, 0.5), 0) == pytest.approx(2.0, abs=1e-6)
    assert sup_abs(shear(0.5), 1) == pytest.approx(0.5, abs=1e-6)


def _sampled(coeff, order):
    # the 4096-angle sampling that validate_assumptions, sup_abs and mu0
    # used before they read the bounds at _EXTREMES, kept as their
    # reference; its angles hold the four of _EXTREMES exactly
    phi = np.linspace(0.0, 2.0 * np.pi, 4096, endpoint=False)
    return eval_coeff(coeff, phi, order)


@given(st.one_of(angular_drifts, positive_speeds))
def test_bounds_match_sampled_angles(coeff):
    # sup|.| has no signed zero, so == is bit for bit there; the minimum
    # may differ from the sampled one only in the sign of a zero, which
    # validate_assumptions refuses either way
    for order in (0, 1, 2):
        assert sup_abs(coeff, order) == np.max(np.abs(_sampled(coeff, order)))
    g_min = np.min(_sampled(coeff, 0))
    if g_min > 0.0:
        assert validate_assumptions(coeff) == g_min
    else:
        with pytest.raises(AssumptionViolationError):
            validate_assumptions(coeff)


def test_sup_abs_rejects_order():
    for order in (-1, 3):
        with pytest.raises(ConfigurationError):
            sup_abs(const(1.0), order)


def test_epsilon_from_physical():
    assert epsilon_from_physical(2e3, 3.0, 1e3) == pytest.approx(
        6.666666666666667e-4, rel=1e-12)
    assert epsilon_from_physical(1.0, 4.0, 0.5) == pytest.approx(1.0,
                                                                 rel=1e-12)
    with pytest.raises(ConfigurationError):
        epsilon_from_physical(-1.0, 4.0, 0.5)
    with pytest.raises(ConfigurationError):
        epsilon_from_physical(1.0, 0.0, 0.5)


def test_model_params_validation():
    # epsilon, D and T each take any finite value >= 0, 0 included (the
    # limit's epsilon)
    V, Phi = const(1.0), const(0.0)
    p = ModelParams(epsilon=0.0, D=0.0, T=0.0, V=V, Phi=Phi)
    assert (p.epsilon, p.D, p.T) == (0.0, 0.0, 0.0)
    # NaN passes every `<` comparison, so each non-finite value is a case
    for name in ("epsilon", "D", "T"):
        for bad in (-0.1, -5e-324, math.nan, math.inf, -math.inf):
            kw = {"epsilon": 0.1, "D": 0.0, "T": 1.0, name: bad}
            with pytest.raises(ConfigurationError, match=name):
                ModelParams(V=V, Phi=Phi, **kw)


_FAMILIES = [const(1.3), shifted_sine(1.0, 0.5), shear(0.7),
             wall_drive(1.0, 0.3)]


@given(st.floats(-10.0, 10.0), st.integers(0, 2),
       st.integers(0, len(_FAMILIES) - 1))
def test_periodicity(phi, order, idx):
    c = _FAMILIES[idx]
    a = eval_coeff(c, phi, order)
    b = eval_coeff(c, phi + 2.0 * math.pi, order)
    assert abs(a - b) <= 1e-12 * (1.0 + abs(a))


@given(st.floats(-6.0, 6.0), st.integers(0, len(_FAMILIES) - 1))
def test_derivative_consistency(phi, idx):
    # centered difference of order-0 values matches the order-1 formula
    c = _FAMILIES[idx]
    h = 1e-5
    fd = (eval_coeff(c, phi + h) - eval_coeff(c, phi - h)) / (2.0 * h)
    assert abs(fd - eval_coeff(c, phi, 1)) <= 1e-7


def test_vectorized_eval():
    V = shifted_sine(1.0, 0.5)
    phi = np.linspace(0.0, 2.0 * np.pi, 9)
    vals = eval_coeff(V, phi)
    assert vals.shape == phi.shape
    assert vals[0] == pytest.approx(1.5, abs=1e-14)


@pytest.mark.parametrize("idx", range(len(_FAMILIES)))
def test_order0_matches_family_formulas(idx):
    c = _FAMILIES[idx]
    phi = np.random.default_rng(idx).uniform(-20.0, 20.0, 1001)
    np.testing.assert_array_equal(eval_coeff(c, phi),
                                  coeff_value_reference(c, phi))
    assert eval_coeff(c, 0.7) == float(coeff_value_reference(c, 0.7))
    # the particle step's dt folded into the parameters
    np.testing.assert_array_equal(
        _values(c, np.sin(phi), np.empty_like(phi), 1e-3),
        coeff_value_reference(c, phi, scale=1e-3))
