"""CSV writers with reproducible float formatting.

Floats are written with 17 significant digits, which round-trips any
double exactly, so repeated runs of a deterministic experiment produce
byte-identical files.
"""

from __future__ import annotations

import os
from functools import lru_cache

import numpy as np


def _conversion(cls) -> str:
    """The printf conversion of a cell of type cls: strings as they are,
    booleans and integers as decimal integers, anything else as a float
    with 17 significant digits."""
    if issubclass(cls, str):
        return "%s"
    if issubclass(cls, (bool, np.bool_, int, np.integer)):
        return "%d"
    return "%.17g"


@lru_cache(maxsize=256)
def _row_format(types: tuple) -> str:
    """The printf format of a row whose cells have these types; a
    program writes rows of a handful of type signatures."""
    return ",".join(map(_conversion, types))


def write_csv(path: str, header, rows) -> str:
    """Write rows (iterables of cells) under a header; returns the path.
    Each row is formatted by one printf call, with the format of its cell
    types."""
    parent = os.path.dirname(path)
    if parent:
        os.makedirs(parent, exist_ok=True)
    lines = [",".join(str(h) for h in header)]
    for row in rows:
        row = tuple(row)
        lines.append(_row_format(tuple(map(type, row))) % row)
    with open(path, "w", encoding="utf-8", newline="") as fh:
        fh.write("\n".join(lines) + "\n")
    return path


def cell_rows(y_grid, phi_grid, *values) -> list:
    """(y, phi, v[i, j] for each v) rows of fields on the cells of
    y_grid x phi_grid, y-major: the row layout of every grid CSV."""
    return [(y, phi, *cell) for y, row in zip(y_grid.centers, zip(*values))
            for phi, cell in zip(phi_grid.nodes, zip(*row))]


def field_rows(t: float, field) -> list:
    """Flatten a phase-space field into (t, y, phi, value) rows."""
    return [(t, *row)
            for row in cell_rows(field.y_grid, field.phi_grid, field.values)]


def profile_rows(t: float, phi_nodes, values) -> list:
    """(t, phi, value) rows of an angular profile."""
    return [(t, phi, v) for phi, v in zip(phi_nodes, values)]
