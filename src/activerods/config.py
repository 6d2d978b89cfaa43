"""Run configuration: sectioned key=value files parsed into dataclasses.

Sections and keys:

    [model]       epsilon, D, T, V.family, V.params.<name>,
                  Phi.family, Phi.params.<name>
    [grid]        n_phi, n_y, y_max, layer_width (float or "auto" = 8*eps),
                  layer_cells
    [time]        dt (float or "auto"), splitting (lie | strang)
    [experiment]  epsilon_list, snapshot_times, seeds (comma lists),
                  n_particles, particle_dt, initial (bulk_exp | steady_layer)
    [output]      directory

Unknown sections or keys and non-finite numbers are rejected. The
environment variable ACTIVERODS_OUT_DIR overrides [output] directory; a
CLI --out flag overrides both.
"""

from __future__ import annotations

import configparser
import math
from dataclasses import dataclass, field

import numpy as np

from .coefficients import AngularCoefficient, ModelParams
from .errors import ConfigurationError
from .full_solver import FullSolverConfig, steady_layer
from .grids import (PhaseField, PhiGrid, YGrid, build_phi_grid, build_y_grid,
                    exp_cell_integrals)
from .limit_solver import BulkWallState

_KNOWN_KEYS = {
    "model": {"epsilon", "D", "T", "V.family", "Phi.family"},
    "grid": {"n_phi", "n_y", "y_max", "layer_width", "layer_cells"},
    "time": {"dt", "splitting"},
    "experiment": {"epsilon_list", "snapshot_times", "seeds", "n_particles",
                   "particle_dt", "initial"},
    "output": {"directory"},
}

_INITIAL_CHOICES = ("bulk_exp", "steady_layer")


@dataclass
class GridSection:
    n_phi: int = 64
    n_y: int = 128
    y_max: float = 8.0
    layer_width: object = "auto"    # float or "auto" (8 * epsilon, capped)
    layer_cells: int = 32


@dataclass
class ExperimentSection:
    epsilon_list: list = field(default_factory=list)
    snapshot_times: list = field(default_factory=list)
    seeds: list = field(default_factory=lambda: [1])
    n_particles: int = 100_000
    particle_dt: float = 1e-3
    initial: str = "bulk_exp"


@dataclass
class RunConfig:
    epsilon: float = 0.02
    D: float = 0.0
    T: float = 1.0
    V: AngularCoefficient = None
    Phi: AngularCoefficient = None
    grid: GridSection = field(default_factory=GridSection)
    dt: object = "auto"
    splitting: str = "lie"
    experiment: ExperimentSection = field(default_factory=ExperimentSection)
    out_dir: str = "out"

    def __post_init__(self):
        if self.V is None:
            self.V = AngularCoefficient("constant", {"value": 1.0})
        if self.Phi is None:
            self.Phi = AngularCoefficient("constant", {"value": 0.0})
        if not self.experiment.epsilon_list:
            self.experiment.epsilon_list = [self.epsilon]
        if not self.experiment.snapshot_times:
            self.experiment.snapshot_times = [0.0, self.T]
        if self.experiment.initial not in _INITIAL_CHOICES:
            raise ConfigurationError(
                f"initial must be one of {_INITIAL_CHOICES}, "
                f"got {self.experiment.initial!r}")

    # -- derived builders ---------------------------------------------------

    def model_params(self, epsilon: float | None = None,
                     D: float | None = None) -> ModelParams:
        return ModelParams(
            epsilon=self.epsilon if epsilon is None else float(epsilon),
            D=self.D if D is None else float(D),
            T=self.T, V=self.V, Phi=self.Phi)

    def layer_width_for(self, epsilon: float) -> float:
        if self.grid.layer_width == "auto":
            return min(8.0 * epsilon, 0.25 * self.grid.y_max)
        return float(self.grid.layer_width)

    def build_grids(self, epsilon: float | None = None):
        eps = self.epsilon if epsilon is None else float(epsilon)
        g = self.grid
        y_grid = build_y_grid(g.y_max, g.n_y, self.layer_width_for(eps),
                              g.layer_cells)
        phi_grid = build_phi_grid(g.n_phi)
        return y_grid, phi_grid

    def solver_config(self) -> FullSolverConfig:
        return FullSolverConfig(dt=self.dt, splitting=self.splitting)

    def initial_field(self, y_grid: YGrid, phi_grid: PhiGrid,
                      epsilon: float | None = None) -> PhaseField:
        eps = self.epsilon if epsilon is None else float(epsilon)
        if self.experiment.initial == "steady_layer":
            return steady_layer(self.V, eps, y_grid, phi_grid)
        return bulk_exp_field(y_grid, phi_grid)

    def initial_limit_state(self, y_grid: YGrid,
                            phi_grid: PhiGrid) -> BulkWallState:
        """The limiting-system split of initial_field: an exponential bulk
        carries no wall mass, a steady layer is pure wall mass."""
        if self.experiment.initial == "steady_layer":
            bulk = PhaseField(np.zeros((y_grid.n_y, phi_grid.n_phi)),
                              y_grid, phi_grid)
            return BulkWallState(bulk, np.ones(phi_grid.n_phi))
        bulk = bulk_exp_field(y_grid, phi_grid)
        return BulkWallState(bulk, np.zeros(phi_grid.n_phi))


def bulk_exp_field(y_grid: YGrid, phi_grid: PhiGrid) -> PhaseField:
    """Exact cell averages of e^{-y} / (2 pi), angle-independent."""
    ones = np.ones(phi_grid.n_phi)
    I = exp_cell_integrals(ones, 1.0, y_grid.faces)
    vals = I / y_grid.widths[:, None] / (2.0 * np.pi)
    return PhaseField(vals, y_grid, phi_grid)


# -- parsing ----------------------------------------------------------------


def _floats(text: str) -> list:
    try:
        vals = [float(tok) for tok in text.replace(",", " ").split()]
    except ValueError:
        raise ConfigurationError(f"expected a list of numbers, got {text!r}")
    if not all(math.isfinite(v) for v in vals):
        raise ConfigurationError(f"expected finite numbers, got {text!r}")
    return vals


def _ints(text: str) -> list:
    vals = _floats(text)
    out = [int(v) for v in vals]
    if any(o != v for o, v in zip(out, vals)):
        raise ConfigurationError(f"expected integers, got {text!r}")
    return out


def _float(section: str, key: str, text: str) -> float:
    try:
        val = float(text)
    except ValueError:
        raise ConfigurationError(f"[{section}] {key} = {text!r} is not a number")
    if not math.isfinite(val):
        raise ConfigurationError(f"[{section}] {key} = {text!r} is not finite")
    return val


def _int(section: str, key: str, text: str) -> int:
    try:
        return int(text)
    except ValueError:
        raise ConfigurationError(f"[{section}] {key} = {text!r} is not an integer")


def _coefficient(prefix: str, items: dict) -> AngularCoefficient:
    family = items.get(f"{prefix}.family")
    if family is None:
        raise ConfigurationError(f"missing key {prefix}.family in [model]")
    params = {}
    for key, val in items.items():
        if key.startswith(f"{prefix}.params."):
            name = key[len(f"{prefix}.params."):]
            params[name] = _float("model", key, val)
    return AngularCoefficient(family.strip(), params)


def parse_config(text: str) -> RunConfig:
    cp = configparser.ConfigParser(interpolation=None)
    cp.optionxform = str
    try:
        cp.read_string(text)
    except configparser.Error as exc:
        raise ConfigurationError(f"config parse error: {exc}")

    for section in cp.sections():
        if section not in _KNOWN_KEYS:
            raise ConfigurationError(f"unknown config section [{section}]")
        for key in cp[section]:
            if section == "model" and (key.startswith("V.params.")
                                       or key.startswith("Phi.params.")):
                continue
            if key not in _KNOWN_KEYS[section]:
                raise ConfigurationError(
                    f"unknown key {key!r} in section [{section}]")

    model = dict(cp["model"]) if cp.has_section("model") else {}
    if "epsilon" not in model:
        raise ConfigurationError("missing key epsilon in [model]")
    epsilon = _float("model", "epsilon", model["epsilon"])
    if epsilon <= 0:
        raise ConfigurationError(f"epsilon must be > 0, got {epsilon}")
    D = _float("model", "D", model.get("D", "0"))
    T = _float("model", "T", model.get("T", "1"))
    V = _coefficient("V", model) if "V.family" in model else None
    Phi = _coefficient("Phi", model) if "Phi.family" in model else None

    g = GridSection()
    if cp.has_section("grid"):
        sec = cp["grid"]
        if "n_phi" in sec:
            g.n_phi = _int("grid", "n_phi", sec["n_phi"])
        if "n_y" in sec:
            g.n_y = _int("grid", "n_y", sec["n_y"])
        if "y_max" in sec:
            g.y_max = _float("grid", "y_max", sec["y_max"])
        if "layer_width" in sec:
            lw = sec["layer_width"].strip()
            g.layer_width = "auto" if lw == "auto" else _float("grid",
                                                               "layer_width", lw)
        if "layer_cells" in sec:
            g.layer_cells = _int("grid", "layer_cells", sec["layer_cells"])
    dt = "auto"
    splitting = "lie"
    if cp.has_section("time"):
        sec = cp["time"]
        if "dt" in sec:
            raw = sec["dt"].strip()
            dt = "auto" if raw == "auto" else _float("time", "dt", raw)
            if dt != "auto" and dt <= 0:
                raise ConfigurationError(f"dt must be > 0, got {dt}")
        if "splitting" in sec:
            splitting = sec["splitting"].strip().lower()
            if splitting not in ("lie", "strang"):
                raise ConfigurationError(
                    f"splitting must be lie or strang, got {splitting!r}")

    ex = ExperimentSection()
    if cp.has_section("experiment"):
        sec = cp["experiment"]
        if "epsilon_list" in sec:
            ex.epsilon_list = _floats(sec["epsilon_list"])
            if any(e <= 0 for e in ex.epsilon_list):
                raise ConfigurationError("epsilon_list entries must be > 0")
        if "snapshot_times" in sec:
            ex.snapshot_times = _floats(sec["snapshot_times"])
        if "seeds" in sec:
            ex.seeds = _ints(sec["seeds"])
            if not ex.seeds:
                raise ConfigurationError("seeds must list at least one seed")
        if "n_particles" in sec:
            ex.n_particles = _int("experiment", "n_particles",
                                  sec["n_particles"])
            if ex.n_particles <= 0:
                raise ConfigurationError(
                    f"n_particles must be > 0, got {ex.n_particles}")
        if "particle_dt" in sec:
            ex.particle_dt = _float("experiment", "particle_dt",
                                    sec["particle_dt"])
            if not ex.particle_dt > 0:
                raise ConfigurationError(
                    f"particle_dt must be > 0, got {ex.particle_dt}")
        if "initial" in sec:
            ex.initial = sec["initial"].strip()

    out_dir = "out"
    if cp.has_section("output") and "directory" in cp["output"]:
        out_dir = cp["output"]["directory"].strip()

    return RunConfig(epsilon=epsilon, D=D, T=T, V=V, Phi=Phi, grid=g,
                     dt=dt, splitting=splitting, experiment=ex,
                     out_dir=out_dir)


def load_config(path: str) -> RunConfig:
    try:
        with open(path, "r", encoding="utf-8") as fh:
            text = fh.read()
    except OSError as exc:
        raise ConfigurationError(f"cannot read config file {path}: {exc}")
    return parse_config(text)
