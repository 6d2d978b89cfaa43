import os
import re
import subprocess
import sys

import numpy as np
import pytest
from hypothesis import strategies as st

from activerods import (AngularCoefficient, ModelParams, build_phi_grid,
                        build_y_grid)
from activerods.config import _KEYS

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))

# Every [section] key of the config table, plus one coefficient parameter.
CONFIG_KEYS = ([(section, key) for section, keys in _KEYS.items()
                for key in keys] + [("model", "V.params.a")])

# Values the config fuzzers set a key to: parse errors, non-finite and
# extreme numbers, and words.
FUZZ_VALUES = ["", "abc", "nan", "inf", "-1", "0", "1.5", "1e300", "1e-300",
               "auto"]


def run_python(args):
    """Run a fresh interpreter on the package in this checkout."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (os.path.join(ROOT, "src"), env.get("PYTHONPATH")) if p)
    return subprocess.run([sys.executable, *args], env=env, cwd=ROOT,
                          capture_output=True, text=True, timeout=120)


def with_key(text, section, key, value):
    """Config text with [section] key set to value."""
    text, n = re.subn(rf"^{re.escape(key)} = .*$", f"{key} = {value}", text,
                      flags=re.M)
    if n == 0:
        text = text.replace(f"[{section}]\n", f"[{section}]\n{key} = {value}\n")
    return text


def _small_example():
    """The example config shrunk to a few cheap steps: T = 0.02 on a
    24 x 8 grid, and a thousand particles."""
    with open(os.path.join(ROOT, "configs", "example.cfg"),
              encoding="utf-8") as fh:
        text = fh.read()
    for edit in (("model", "T", "0.02"), ("grid", "n_y", "24"),
                 ("grid", "n_phi", "8"), ("grid", "layer_cells", "8"),
                 ("experiment", "snapshot_times", "0.0 0.02"),
                 ("experiment", "n_particles", "1000")):
        text = with_key(text, *edit)
    return text


SMALL_EXAMPLE = _small_example()


def const(v):
    return AngularCoefficient("constant", {"value": v})


def shifted_sine(g0=1.0, a=0.5):
    return AngularCoefficient("shifted_sine", {"g0": g0, "a": a})


def shear(gamma=1.0):
    return AngularCoefficient("paper_shear", {"gamma": gamma})


def wall_drive(g=1.0, v_prop=0.5):
    return AngularCoefficient("wall_drive", {"g": g, "v_prop": v_prop})


@pytest.fixture
def small_grids():
    return build_y_grid(4.0, 48, 0.4, 16), build_phi_grid(16)


@pytest.fixture
def unit_params():
    return ModelParams(epsilon=0.05, D=0.0, T=0.5, V=const(1.0),
                       Phi=const(0.0))


def round_off_bound(diag):
    """Relative round-off allowance of a conservative y-solve. Scaled by
    the cell widths, its M-matrix has unit column sums and a non-negative
    inverse, so its condition number in the width-weighted L1 norm is
    max(2 diag - 1); a backward-stable solve errs by a few ulps of that."""
    return 16 * np.finfo(float).eps * float(np.max(2.0 * diag - 1.0))


def patchy_values(seed, shape):
    """Uniform [0, 1) values with about half the cells empty, so that a
    negative weight in an update shows up as a negative cell."""
    rng = np.random.default_rng(seed)
    return rng.uniform(0.0, 1.0, size=shape) * (rng.random(shape) < 0.5)


# Strictly positive speeds from every family that has them (wall_drive
# needs g > |v_prop|), and angular drifts of every family and sign.
positive_speeds = st.one_of(
    st.builds(const, st.floats(0.1, 3.0)),
    st.builds(shifted_sine, st.floats(0.1, 2.0), st.floats(0.0, 1.0)),
    st.builds(lambda g, frac: wall_drive(g, frac * g),
              st.floats(0.1, 2.0), st.floats(-0.95, 0.95)))

angular_drifts = st.one_of(
    st.builds(const, st.floats(-2.0, 2.0)),
    st.builds(shifted_sine, st.floats(-2.0, 2.0), st.floats(-1.0, 1.0)),
    st.builds(shear, st.floats(-2.0, 2.0)),
    st.builds(wall_drive, st.floats(-2.0, 2.0), st.floats(-2.0, 2.0)))


@st.composite
def graded_y_grids(draw):
    """Uniform wall block plus a geometric stretch of ratio 1.02 to 1.3;
    y_max is chosen so that build_y_grid recovers that ratio."""
    layer_cells = draw(st.integers(8, 24))
    n_stretch = draw(st.integers(4, 32))
    layer_width = draw(st.floats(0.05, 1.0))
    ratio = draw(st.floats(1.02, 1.3))
    k = np.arange(1, n_stretch + 1)
    y_max = layer_width * (1.0 + np.sum(ratio ** k) / layer_cells)
    return build_y_grid(y_max, layer_cells + n_stretch, layer_width,
                        layer_cells)


def coeff_value_reference(coeff, phi, sin=np.sin, scale=1.0):
    """Order-0 family formulas as written out per family, each with its
    own sin(phi): the reference the shared-sine evaluation must match
    bitwise. sin is the sine the evaluation uses; scale multiplies each
    parameter first, as the particle step folds dt into them."""
    phi = np.asarray(phi, dtype=float)
    p = {k: float(v) * scale for k, v in coeff.params.items()}
    if coeff.family == "constant":
        return np.full_like(phi, p["value"])
    if coeff.family == "shifted_sine":
        return p["g0"] + p["a"] * (1.0 + sin(phi))
    if coeff.family == "paper_shear":
        return -p["gamma"] * sin(phi) ** 2
    return p["g"] - p["v_prop"] * sin(phi)
