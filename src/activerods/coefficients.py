"""Angular coefficient fields for the rod model.

The swim speed V(phi) and the angular drift Phi(phi) are smooth 2*pi
periodic functions given in closed form. Each family carries exact
first and second derivatives so downstream code never differentiates
numerically where it does not have to.

Families
--------
constant      : value
shifted_sine  : g0 + a * (1 + sin(phi))
paper_shear   : -gamma * sin(phi)**2
wall_drive    : g - v_prop * sin(phi)

Their bounds, taken where sin and cos of phi or 2 phi are exactly 0 or
+-1 (phi = 0, pi/4, pi/2, 3 pi/2), are exact to the last bit:

family        min c             sup|c|               sup|c'|   sup|c''|
constant      c                 |c|                  0         0
shifted_sine  min(g0, g0 + 2a)  max(|g0|, |g0 + 2a|) |a|       |a|
paper_shear   min(0, -gamma)    |gamma|              |gamma|   2|gamma|
wall_drive    g - |v_prop|      |g| + |v_prop|       |v_prop|  |v_prop|
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .errors import AssumptionViolationError, ConfigurationError

# Each family's parameter names.
_FAMILIES = {
    "constant": ("value",),
    "shifted_sine": ("g0", "a"),
    "paper_shear": ("gamma",),
    "wall_drive": ("g", "v_prop"),
}


@dataclass(frozen=True)
class AngularCoefficient:
    """A closed-form 2*pi periodic coefficient, callable at angles.

    Parameters
    ----------
    family : str
        One of the registered family names.
    params : dict
        Family parameters, see module docstring.
    """

    family: str
    params: dict = field(default_factory=dict)

    def __post_init__(self):
        if self.family not in _FAMILIES:
            raise ConfigurationError(
                f"unknown coefficient family {self.family!r}; "
                f"expected one of {tuple(_FAMILIES)}"
            )
        missing = [k for k in _FAMILIES[self.family] if k not in self.params]
        if missing:
            raise ConfigurationError(
                f"family {self.family!r} missing parameters {missing}"
            )
        extra = [k for k in self.params if k not in _FAMILIES[self.family]]
        if extra:
            raise ConfigurationError(
                f"family {self.family!r} got unknown parameters {extra}"
            )
        for key, val in self.params.items():
            try:
                finite = np.isfinite(float(val))
            except (TypeError, ValueError, OverflowError):
                finite = False
            if not finite:
                raise ConfigurationError(f"parameter {key!r} of family {self.family!r} "
                                         f"is not a finite number: {val!r}")

    def __call__(self, phi, order: int = 0):
        return eval_coeff(self, phi, order)


def eval_coeff(coeff: AngularCoefficient, phi, order: int = 0):
    """Evaluate a coefficient or its exact phi-derivative.

    order 0 is the value, 1 and 2 the first and second derivative.
    Accepts scalars or arrays; returns the matching shape.
    """
    if order not in (0, 1, 2):
        raise ConfigurationError(f"derivative order must be 0, 1 or 2, got {order}")
    phi = np.asarray(phi, dtype=float)
    p = coeff.params
    fam = coeff.family
    if order == 0:
        out = _values(coeff, np.sin(phi), np.empty_like(phi))
    elif fam == "constant":
        out = np.zeros_like(phi)
    elif fam == "shifted_sine":
        a = float(p["a"])
        if order == 1:
            out = a * np.cos(phi)
        else:
            out = -a * np.sin(phi)
    elif fam == "paper_shear":
        gamma = float(p["gamma"])
        if order == 1:
            out = -gamma * np.sin(2.0 * phi)
        else:
            out = -2.0 * gamma * np.cos(2.0 * phi)
    else:  # wall_drive
        v_prop = float(p["v_prop"])
        if order == 1:
            out = -v_prop * np.cos(phi)
        else:
            out = v_prop * np.sin(phi)
    if out.ndim == 0:
        return float(out)
    return out


def _values(coeff: AngularCoefficient, sin_phi, out: np.ndarray,
            scale: float = 1.0) -> np.ndarray:
    """scale times the order-0 values of coeff from a precomputed
    sin(phi), written into out and returned.

    Every family is a polynomial of degree <= 2 in sin(phi), so callers
    that need several coefficients at the same angles share one sine.
    scale multiplies the family's parameters, not the values, so it
    costs no pass of its own; scale = 1 changes no bit. The in-place
    ufuncs keep each formula's rounding, e.g. shifted_sine is
    g0 s + (a s) * (1 + sin(phi)) to the last bit, with p s the scaled
    parameter p.
    """
    p = {k: float(v) * scale for k, v in coeff.params.items()}
    fam = coeff.family
    if fam == "constant":
        out[...] = p["value"]
    elif fam == "shifted_sine":
        np.add(sin_phi, 1.0, out=out)
        out *= p["a"]
        out += p["g0"]
    elif fam == "paper_shear":
        np.square(sin_phi, out=out)
        out *= -p["gamma"]
    else:  # wall_drive
        np.multiply(sin_phi, p["v_prop"], out=out)
        np.subtract(p["g"], out, out=out)
    return out


def _bounds(coeff: AngularCoefficient) -> tuple:
    """(min c, sup|c|, sup|c'|, sup|c''|), the module docstring's table."""
    p = {k: float(v) for k, v in coeff.params.items()}
    if coeff.family == "constant":
        c = p["value"]
        return c, abs(c), 0.0, 0.0
    if coeff.family == "shifted_sine":
        g0, top = p["g0"], p["g0"] + 2.0 * p["a"]
        return min(g0, top), max(abs(g0), abs(top)), abs(p["a"]), abs(p["a"])
    if coeff.family == "paper_shear":
        gamma = p["gamma"]
        return min(0.0, -gamma), abs(gamma), abs(gamma), 2.0 * abs(gamma)
    g, v = p["g"], p["v_prop"]
    return g - abs(v), abs(g) + abs(v), abs(v), abs(v)


def validate_assumptions(V: AngularCoefficient) -> float:
    """Check that the speed field stays strictly positive.

    Returns the exact minimum g_min = min_phi V(phi). Raises
    AssumptionViolationError when min <= 0.
    """
    g_min = _bounds(V)[0]
    if g_min <= 0.0:
        raise AssumptionViolationError(
            f"speed field must be strictly positive; min {g_min:.6g}")
    return g_min


def sup_abs(coeff: AngularCoefficient, order: int = 0) -> float:
    """Exact sup norm of a coefficient or one of its derivatives."""
    if order not in (0, 1, 2):
        raise ConfigurationError(f"derivative order must be 0, 1 or 2, got {order}")
    return _bounds(coeff)[1 + order]


def mu0(Phi: AngularCoefficient) -> float:
    """Drift-compression constant 0.5 * sup|Phi'| + 1.

    Shifting the angular operator by any lambda >= mu0 makes its symmetric
    part coercive with unit margin; used by the operator checks.
    """
    return 0.5 * sup_abs(Phi, 1) + 1.0


@dataclass(frozen=True)
class ModelParams:
    """Physical and numerical model parameters.

    epsilon is the translational/rotational diffusion ratio driving the
    wall layer width; epsilon = 0 is allowed only for limiting-system
    runs. D is the angular diffusion coefficient, T the final time; the
    defaults are a config's: D = 0, T = 1, V = 1 and Phi = 0.
    """

    epsilon: float
    D: float = 0.0
    T: float = 1.0
    V: AngularCoefficient = AngularCoefficient("constant", {"value": 1.0})
    Phi: AngularCoefficient = AngularCoefficient("constant", {"value": 0.0})
    allow_zero_epsilon: bool = False

    def __post_init__(self):
        if not (0 < self.epsilon < np.inf
                or self.epsilon == 0 and self.allow_zero_epsilon):
            raise ConfigurationError(
                f"epsilon must be finite and > 0 for the full problem, "
                f"got {self.epsilon}")
        for name, value in (("D", self.D), ("T", self.T)):
            if not 0 <= value < np.inf:
                raise ConfigurationError(
                    f"{name} must be finite and >= 0, got {value}")


def epsilon_from_physical(D_tr: float, D_rot: float, L: float) -> float:
    """Dimensionless layer parameter from translational diffusion,
    rotational diffusion and confinement length: D_tr / (D_rot * L**2)."""
    D_tr, D_rot, L = float(D_tr), float(D_rot), float(L)
    if D_tr <= 0 or D_rot <= 0 or L <= 0:
        raise ConfigurationError(
            "epsilon_from_physical needs strictly positive D_tr, D_rot, L"
        )
    return D_tr / (D_rot * L * L)
