"""Acceptance battery: every check prints its one-line verdict and the
test fails if the verdict is FAIL. The heavy shared runs are cached
inside the acceptance module, so criteria sharing a sweep reuse it."""

from activerods import ConfigurationError, acceptance


def _run(cid):
    res = acceptance.run_criterion(cid)
    print(res.line())
    assert res.passed, res.detail
    return res


def test_01_scale_parameter_arithmetic():
    _run(1)


def test_02_kinetic_mass_conservation():
    _run(2)


def test_03_steady_layer_stationarity():
    _run(3)


def test_04_rotating_layer_order():
    _run(4)


def test_05_limit_manufactured_convergence():
    _run(5)


def test_06_composite_error_decay():
    _run(6)


def test_07_residual_epsilon_scaling():
    _run(7)


def test_08_layer_mode_orthogonality():
    _run(8)


def test_09_energy_gronwall_bound():
    _run(9)


def test_10_weak_pairing_convergence():
    _run(10)


def test_11_coercivity_gap():
    _run(11)


def test_12_resolvent_uniformity():
    _run(12)


def test_13_particle_histogram_agreement():
    _run(13)


def test_14_compatibility_defect_halving():
    _run(14)


def test_raising_criterion_keeps_its_name(monkeypatch):
    def no_scales(*args):
        raise ConfigurationError("no physical scales")

    monkeypatch.setattr(acceptance, "epsilon_from_physical", no_scales)
    res = acceptance.run_criterion(1)
    assert res.name == "scale-parameter-arithmetic"
    assert not res.passed
    assert res.detail == "raised ConfigurationError: no physical scales"
