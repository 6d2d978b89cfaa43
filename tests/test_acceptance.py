"""Acceptance battery: every check prints its one-line verdict, and the
test fails if the verdict is FAIL or the line differs from check-all's
output stored in check_all.txt. The heavy shared runs are cached inside
the acceptance module, so criteria sharing a sweep reuse it.

Each bound is printed in its line, so a changed bound changes a pinned
line: criterion 4's order range [0.8,1.2] widened to [0.8,1.25] fails
test_04. A change that moves a printed number on purpose regenerates
the file: `PYTHONPATH=src python -m activerods.cli check-all >
tests/check_all.txt`.
"""

import os
import re

from activerods import acceptance

with open(os.path.join(os.path.dirname(__file__), "check_all.txt"),
          encoding="utf-8") as fh:
    _STORED = fh.read().splitlines()

# These numbers sit at round-off, so each is compared with the bound its
# line prints, and every other character of the line with the stored one.
_ROUND_OFF = {2: "relative drift", 5: "max mass drift",
              8: "max relative defect"}


def _cut(line, label):
    """line with the number after label cut out, that number, and the
    bound the line prints for it."""
    m = re.search(label + r" (\S+) .*\(tol (\S+)\)$", line)
    return line[:m.start(1)] + "#" + line[m.end(1):], float(m[1]), float(m[2])


def _run(cid):
    res = acceptance.run_criterion(cid)
    print(res.line())
    assert res.passed, res.detail
    line, want = res.line(), _STORED[cid - 1]
    if cid in _ROUND_OFF:
        line, value, bound = _cut(line, _ROUND_OFF[cid])
        assert value <= bound
        want = _cut(want, _ROUND_OFF[cid])[0]
    assert line == want
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
