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


def field_rows(t: float, field) -> list:
    """Flatten a phase-space field into (t, y, phi, value) rows."""
    rows = []
    yc = field.y_grid.centers
    ph = field.phi_grid.nodes
    for i in range(field.y_grid.n_y):
        for j in range(field.phi_grid.n_phi):
            rows.append((t, yc[i], ph[j], field.values[i, j]))
    return rows


def profile_rows(t: float, phi_nodes, values) -> list:
    return [(t, phi_nodes[j], values[j]) for j in range(len(phi_nodes))]
