"""Run configuration: sectioned key=value files parsed into dataclasses.

A loaded config is RunConfig(model, grid, time, experiment, out_dir),
one field per section: the ModelParams of [model], the GridSection of
[grid], the FullSolverConfig of [time], the ExperimentSection of
[experiment], and [output] directory.

`_KEYS` is the one table of sections and keys, each with its parser:
number, integer, number list (commas or spaces), integer list,
"auto"-or-number, or choice. [model] also takes V.params.<name> and
Phi.params.<name>, numbers that need V.family or Phi.family. Only
epsilon is required; an absent key keeps its dataclass default.

Unknown sections or keys and non-finite numbers are rejected, naming
the [section] key. The table adds only the rules no constructor owns:
epsilon > 0 (ModelParams also takes the limit's 0), epsilon_list
entries > 0, at least one seed, integer seeds, n_particles > 0,
particle_dt > 0 and initial bulk_exp | steady_layer. ModelParams (D,
T >= 0), FullSolverConfig (dt > 0, splitting lie | strang) and
AngularCoefficient (the families) check the rest while the config
loads. A CLI --out flag overrides [output] directory.
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
                    exp_cell_averages)
from .limit_solver import BulkWallState


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
    model: ModelParams
    grid: GridSection = field(default_factory=GridSection)
    time: FullSolverConfig = field(default_factory=FullSolverConfig)
    experiment: ExperimentSection = field(default_factory=ExperimentSection)
    out_dir: str = "out"

    def __post_init__(self):
        if not self.experiment.epsilon_list:
            self.experiment.epsilon_list = [self.model.epsilon]
        if not self.experiment.snapshot_times:
            self.experiment.snapshot_times = [0.0, self.model.T]

    # -- derived builders ---------------------------------------------------

    def build_grids(self):
        g = self.grid
        width = g.layer_width
        if width == "auto":
            width = min(8.0 * self.model.epsilon, 0.25 * g.y_max)
        y_grid = build_y_grid(g.y_max, g.n_y, float(width), g.layer_cells)
        return y_grid, build_phi_grid(g.n_phi)

    def initial_states(self, y_grid: YGrid, phi_grid: PhiGrid):
        """The kinetic start of [experiment] initial and its split for the
        limiting system, (PhaseField, BulkWallState), sharing no array: an
        exponential bulk carries no wall mass, a steady layer is all wall."""
        n_phi = phi_grid.n_phi
        if self.experiment.initial == "steady_layer":
            f0 = steady_layer(self.model.V, self.model.epsilon, y_grid,
                              phi_grid)
            bulk, wall = np.zeros((y_grid.n_y, n_phi)), np.ones(n_phi)
        else:
            f0 = bulk_exp_field(y_grid, phi_grid)
            bulk, wall = f0.values.copy(), np.zeros(n_phi)
        return f0, BulkWallState(PhaseField(bulk, y_grid, phi_grid), wall)


def bulk_exp_field(y_grid: YGrid, phi_grid: PhiGrid) -> PhaseField:
    """Exact cell averages of e^{-y} / (2 pi), angle-independent."""
    vals = exp_cell_averages(np.ones(phi_grid.n_phi), 1.0, y_grid)
    return PhaseField(vals / (2.0 * np.pi), y_grid, phi_grid)


# -- parsing ----------------------------------------------------------------


def _number(text: str) -> float:
    try:
        val = float(text)
    except ValueError:
        raise ConfigurationError("not a number") from None
    if not math.isfinite(val):
        raise ConfigurationError("not finite")
    return val


def _integer(text: str) -> int:
    try:
        return int(text)
    except ValueError:
        raise ConfigurationError("not an integer") from None


def _numbers(text: str) -> list:
    return [_number(tok) for tok in text.replace(",", " ").split()]


def _integers(text: str) -> list:
    vals = _numbers(text)
    if any(v != int(v) for v in vals):
        raise ConfigurationError("not a list of integers")
    return [int(v) for v in vals]


def _auto_or_number(text: str):
    return "auto" if text.strip() == "auto" else _number(text)


def _choice(text: str) -> str:
    """A word; the constructor that reads it checks it against its choices."""
    return text.strip()


def _rule(parse, holds, need: str):
    """parse, then refuse a value for which holds(value) is false."""
    def parse_checked(text):
        if not holds(val := parse(text)):
            raise ConfigurationError(f"must be {need}")
        return val
    return parse_checked


# A key fills the field of its name in its section's dataclass;
# [output] directory fills RunConfig.out_dir.
_KEYS = {
    "model": {"epsilon": _rule(_number, lambda eps: eps > 0, "> 0"),
              "D": _number, "T": _number,
              "V.family": _choice, "Phi.family": _choice},
    "grid": {"n_phi": _integer, "n_y": _integer, "y_max": _number,
             "layer_width": _auto_or_number, "layer_cells": _integer},
    "time": {"dt": _auto_or_number,
             "splitting": lambda text: _choice(text).lower()},
    "experiment": {
        "epsilon_list": _rule(_numbers, lambda v: all(e > 0 for e in v),
                              "a list of numbers > 0"),
        "snapshot_times": _numbers,
        "seeds": _rule(_integers, bool, "a list of at least one seed"),
        "n_particles": _rule(_integer, lambda n: n > 0, "> 0"),
        "particle_dt": _rule(_number, lambda dt: dt > 0, "> 0"),
        "initial": _rule(_choice, lambda v: v in ("bulk_exp", "steady_layer"),
                         "bulk_exp or steady_layer")},
    "output": {"directory": _choice},
}


def parse_config(text: str, source: str = "<string>") -> RunConfig:
    """Parse config text; source names it in the one-line parse errors."""
    cp = configparser.ConfigParser(interpolation=None)
    cp.optionxform = str
    try:
        cp.read_string(text, source)
    except configparser.Error as exc:
        if isinstance(exc, configparser.MissingSectionHeaderError):
            lineno, what = exc.lineno, "is not under a [section] header"
        elif isinstance(exc, configparser.ParsingError):
            lineno, what = exc.errors[0][0], "is not a key = value line"
        else:   # duplicates: configparser names file and line on one line
            raise ConfigurationError(f"config parse error: {exc}") from None
        line = text.split("\n")[lineno - 1].strip()
        raise ConfigurationError(f"config parse error: {source}, line "
                                 f"{lineno}: {line!r} {what}") from None

    found = {section: {} for section in _KEYS}
    params = {"V": {}, "Phi": {}}
    for section in cp.sections():
        if section not in _KEYS:
            raise ConfigurationError(f"unknown config section [{section}]")
        for key, raw in cp[section].items():
            coeff, _, name = key.partition(".params.")
            if section == "model" and coeff in params and name:
                parse, into = _number, params[coeff]
            elif key in _KEYS[section]:
                parse, into, name = _KEYS[section][key], found[section], key
            else:
                raise ConfigurationError(
                    f"unknown key {key!r} in section [{section}]")
            try:
                into[name] = parse(raw)
            except ConfigurationError as exc:
                raise ConfigurationError(
                    f"[{section}] {key} = {raw!r}: {exc}") from None

    model = found["model"]
    if "epsilon" not in model:
        raise ConfigurationError("missing key epsilon in [model]")
    for coeff, values in params.items():
        family = model.pop(f"{coeff}.family", None)
        if family is not None:
            model[coeff] = AngularCoefficient(family, values)
        elif values:
            raise ConfigurationError(
                f"{coeff}.params.* in [model] needs a {coeff}.family")
    cfg = RunConfig(ModelParams(**model), GridSection(**found["grid"]),
                    FullSolverConfig(**found["time"]),
                    ExperimentSection(**found["experiment"]))
    if "directory" in found["output"]:
        cfg.out_dir = found["output"]["directory"]
    return cfg


def load_config(path: str) -> RunConfig:
    """Parse the config file at path, UTF-8 with or without a BOM."""
    try:
        with open(path, "r", encoding="utf-8-sig") as fh:
            text = fh.read()
    except (OSError, UnicodeDecodeError) as exc:
        raise ConfigurationError(f"cannot read config file {path}: {exc}")
    return parse_config(text, path)
