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
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .errors import AssumptionViolationError, ConfigurationError

_FAMILIES = ("constant", "shifted_sine", "paper_shear", "wall_drive")

_REQUIRED_PARAMS = {
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
                f"expected one of {_FAMILIES}"
            )
        missing = [k for k in _REQUIRED_PARAMS[self.family] if k not in self.params]
        if missing:
            raise ConfigurationError(
                f"family {self.family!r} missing parameters {missing}"
            )
        extra = [k for k in self.params if k not in _REQUIRED_PARAMS[self.family]]
        if extra:
            raise ConfigurationError(
                f"family {self.family!r} got unknown parameters {extra}"
            )
        for key, val in self.params.items():
            try:
                float(val)
            except (TypeError, ValueError):
                raise ConfigurationError(
                    f"parameter {key!r} of family {self.family!r} is not numeric: "
                    f"{val!r}"
                ) from None

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


def _values(coeff: AngularCoefficient, sin_phi, out: np.ndarray) -> np.ndarray:
    """Order-0 values of coeff from a precomputed sin(phi), written into
    out and returned.

    Every family is a polynomial of degree <= 2 in sin(phi), so callers
    that need several coefficients at the same angles share one sine.
    The in-place ufuncs keep each formula's rounding, e.g. shifted_sine
    is g0 + a * (1 + sin(phi)) to the last bit.
    """
    p = coeff.params
    fam = coeff.family
    if fam == "constant":
        out[...] = float(p["value"])
    elif fam == "shifted_sine":
        np.add(sin_phi, 1.0, out=out)
        out *= float(p["a"])
        out += float(p["g0"])
    elif fam == "paper_shear":
        np.square(sin_phi, out=out)
        out *= -float(p["gamma"])
    else:  # wall_drive
        np.multiply(sin_phi, float(p["v_prop"]), out=out)
        np.subtract(float(p["g"]), out, out=out)
    return out


# Dense sampling detects sign defects of the closed-form families reliably;
# all registered families are trigonometric polynomials of degree <= 2.
_DEFAULT_SAMPLES = 4096


def validate_assumptions(V: AngularCoefficient, n_samples: int = _DEFAULT_SAMPLES):
    """Check that the speed field stays strictly positive.

    Returns the sampled minimum g_min = min_phi V(phi). Raises
    AssumptionViolationError when min <= 0.
    """
    n = max(int(n_samples), 256)
    phi = np.linspace(0.0, 2.0 * np.pi, n, endpoint=False)
    vals = eval_coeff(V, phi, 0)
    g_min = float(np.min(vals))
    if g_min <= 0.0:
        where = float(phi[int(np.argmin(vals))])
        raise AssumptionViolationError(
            f"speed field must be strictly positive; min {g_min:.6g} "
            f"near phi = {where:.6g}"
        )
    return g_min


def sup_abs(coeff: AngularCoefficient, order: int = 0,
            n_samples: int = _DEFAULT_SAMPLES) -> float:
    """Sampled sup norm of a coefficient or one of its derivatives."""
    phi = np.linspace(0.0, 2.0 * np.pi, int(n_samples), endpoint=False)
    return float(np.max(np.abs(eval_coeff(coeff, phi, order))))


def mu0(Phi: AngularCoefficient, n_samples: int = _DEFAULT_SAMPLES) -> float:
    """Drift-compression constant 0.5 * sup|Phi'| + 1.

    Shifting the angular operator by any lambda >= mu0 makes its symmetric
    part coercive with unit margin; used by the operator checks.
    """
    return 0.5 * sup_abs(Phi, 1, n_samples) + 1.0


@dataclass(frozen=True)
class ModelParams:
    """Physical and numerical model parameters.

    epsilon is the translational/rotational diffusion ratio driving the
    wall layer width; epsilon = 0 is allowed only for limiting-system
    runs. D is the angular diffusion coefficient, T the final time.
    """

    epsilon: float
    D: float
    T: float
    V: AngularCoefficient
    Phi: AngularCoefficient
    allow_zero_epsilon: bool = False

    def __post_init__(self):
        if self.epsilon < 0 or (self.epsilon == 0 and not self.allow_zero_epsilon):
            raise ConfigurationError(
                f"epsilon must be > 0 for the full problem, got {self.epsilon}"
            )
        if self.D < 0:
            raise ConfigurationError(f"D must be >= 0, got {self.D}")
        if self.T < 0:
            raise ConfigurationError(f"T must be >= 0, got {self.T}")


def epsilon_from_physical(D_tr: float, D_rot: float, L: float) -> float:
    """Dimensionless layer parameter from translational diffusion,
    rotational diffusion and confinement length: D_tr / (D_rot * L**2)."""
    D_tr, D_rot, L = float(D_tr), float(D_rot), float(L)
    if D_tr <= 0 or D_rot <= 0 or L <= 0:
        raise ConfigurationError(
            "epsilon_from_physical needs strictly positive D_tr, D_rot, L"
        )
    return D_tr / (D_rot * L * L)
