import math
import pathlib
import warnings

import numpy as np
import pytest
from hypothesis import given, strategies as st

from activerods import (ConfigurationError, PhaseField, build_phi_grid,
                        build_y_grid, field_rows, load_config,
                        norms, parse_config, profile_rows, steady_layer,
                        write_csv)

from conftest import CONFIG_KEYS, FUZZ_VALUES, with_key

FULL_TEXT = """
[model]
epsilon = 0.05
D = 0.2
T = 1.0
V.family = shifted_sine
V.params.g0 = 1.0
V.params.a = 0.5
Phi.family = paper_shear
Phi.params.gamma = 0.5

[grid]
n_phi = 32
n_y = 64
y_max = 4.0
layer_width = auto
layer_cells = 16

[time]
dt = 0.01
splitting = strang

[experiment]
epsilon_list = 0.08, 0.04, 0.02
snapshot_times = 0.5, 1.0
seeds = 1, 2
n_particles = 1000
particle_dt = 0.001
initial = steady_layer

[output]
directory = results
"""


def test_parse_full_config():
    cfg = parse_config(FULL_TEXT)
    assert cfg.model.epsilon == 0.05
    assert cfg.model.D == 0.2
    assert cfg.model.T == 1.0
    assert cfg.model.V(math.pi / 2) == pytest.approx(2.0)
    assert cfg.model.Phi(math.pi / 4) == pytest.approx(-0.25)
    assert cfg.grid.n_phi == 32
    assert cfg.grid.n_y == 64
    assert cfg.grid.layer_width == "auto"
    assert cfg.time.dt == 0.01
    assert cfg.time.splitting == "strang"
    assert cfg.experiment.epsilon_list == [0.08, 0.04, 0.02]
    assert cfg.experiment.seeds == [1, 2]
    assert cfg.experiment.n_particles == 1000
    assert cfg.experiment.initial == "steady_layer"
    assert cfg.out_dir == "results"


def test_parse_defaults():
    cfg = parse_config("[model]\nepsilon = 0.1\n")
    assert cfg.model.V(0.3) == 1.0
    assert cfg.model.Phi(0.3) == 0.0
    assert cfg.time.dt == "auto"
    assert cfg.time.splitting == "lie"
    assert cfg.experiment.epsilon_list == [0.1]
    assert cfg.experiment.snapshot_times == [0.0, 1.0]
    assert cfg.experiment.initial == "bulk_exp"
    assert cfg.out_dir == "out"
    assert cfg.grid.n_phi == 64 and cfg.grid.n_y == 128


@pytest.mark.parametrize("text", [
    "[model]\nepsilon = 0.1\n[extra]\nfoo = 1\n",
    "[model]\nepsilon = 0.1\n[grid]\nfoo = 1\n",
    "[model]\nD = 0.1\n",
    "[model]\nepsilon = -0.1\n",
    "[model]\nepsilon = abc\n",
    "[model]\nepsilon = 0.1\n[time]\ndt = -1\n",
    "[model]\nepsilon = 0.1\n[time]\nsplitting = rk4\n",
    "[model]\nepsilon = 0.1\n[output]\nformats = json\n",
    "[model]\nepsilon = 0.1\n[experiment]\ninitial = bogus\n",
    "[model]\nepsilon = 0.1\n[experiment]\nseeds = 1.5\n",
    "[model]\nepsilon = 0.1\n[experiment]\nseeds =\n",
    "[model]\nepsilon = 0.1\n[experiment]\nn_particles = 0\n",
    "[model]\nepsilon = 0.1\n[experiment]\nparticle_dt = 0\n",
    "[model]\nepsilon = 0.1\nV.family = shifted_sine\n",
    "[model]\nepsilon = nan\n",
    "[model]\nepsilon = 0.1\nD = nan\n",
    "[model]\nepsilon = 0.1\nD = inf\n",
    "[model]\nepsilon = 0.1\nT = inf\n",
    "[model]\nepsilon = 0.1\nPhi.family = paper_shear\n"
    "Phi.params.gamma = nan\n",
    "[model]\nepsilon = 0.1\nPhi.family = paper_shear\n"
    "Phi.params.gamma = -inf\n",
    "[model]\nepsilon = 0.1\n[time]\ndt = nan\n",
    "[model]\nepsilon = 0.1\n[experiment]\nsnapshot_times = 0 inf\n",
])
def test_parse_rejects(text):
    with pytest.raises(ConfigurationError):
        parse_config(text)


@pytest.mark.parametrize("text", [
    "[model]\nepsilon = 0.1\nV.params.g0 = 1.0\n",
    "[model]\nepsilon = 0.1\nPhi.params.gamma = 0.5\n",
    "[model]\nepsilon = 0.1\nD = -1\n",
    "[model]\nepsilon = 0.1\nT = -1\n",
], ids=["V-params-without-family", "Phi-params-without-family",
        "negative-D", "negative-T"])
def test_parse_rejects_at_load(text):
    # each of these once parsed: the coefficient params were dropped, and
    # a negative D or T failed only in the subcommand that built the model
    with pytest.raises(ConfigurationError):
        parse_config(text)


@given(st.sampled_from(CONFIG_KEYS + [("model", "V.params.x")]),
       st.sampled_from(FUZZ_VALUES))
def test_parse_fuzz_returns_or_raises_configuration_error(where, value):
    # parse only: a fuzzed n_y or n_particles must never reach a solver
    text = with_key(FULL_TEXT, *where, value)
    assert f"{where[1]} = {value}" in text
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        try:
            parse_config(text)
        except ConfigurationError:
            pass


def _layer_width(text):
    # the end of the uniform layer block of the config's y grid
    cfg = parse_config(text)
    return cfg.build_grids()[0].faces[cfg.grid.layer_cells]


def test_layer_width_auto():
    assert _layer_width("[model]\nepsilon = 0.02\n") == pytest.approx(0.16)
    # capped at a quarter of the domain height
    assert _layer_width("[model]\nepsilon = 1.5\n") == pytest.approx(2.0)
    assert _layer_width("[model]\nepsilon = 0.02\n"
                        "[grid]\nlayer_width = 0.5\n") == 0.5


def test_build_grids_and_initial_fields():
    cfg = parse_config(FULL_TEXT)
    yg, pg = cfg.build_grids()
    assert yg.n_y == 64 and pg.n_phi == 32
    # the uniform layer block ends at the auto layer width, 8 epsilon
    assert yg.faces[cfg.grid.layer_cells] == pytest.approx(0.4)

    f0, s0 = cfg.initial_states(yg, pg)
    ref = steady_layer(cfg.model.V, 0.05, yg, pg)
    np.testing.assert_allclose(f0.values, ref.values, rtol=1e-14)
    assert np.all(s0.bulk.values == 0.0)
    np.testing.assert_array_equal(s0.wall, np.ones(32))

    cfg_b = parse_config("[model]\nepsilon = 0.1\n[grid]\ny_max = 4.0\n")
    yg2, pg2 = cfg_b.build_grids()
    f0b, s0b = cfg_b.initial_states(yg2, pg2)
    assert norms(f0b)["mass"] == pytest.approx(1.0 - math.exp(-4.0),
                                               rel=1e-12)
    # the limit's bulk is the kinetic start, in an array of its own
    np.testing.assert_array_equal(s0b.bulk.values, f0b.values)
    assert np.all(s0b.wall == 0.0)
    assert s0b.combined_mass() == pytest.approx(1.0 - math.exp(-4.0),
                                                rel=1e-12)
    for f, s in ((f0, s0), (f0b, s0b)):
        assert not np.shares_memory(f.values, s.bulk.values)


def test_load_config(tmp_path):
    p = tmp_path / "run.ini"
    p.write_text(FULL_TEXT)
    cfg = load_config(str(p))
    assert cfg.model.epsilon == 0.05
    with pytest.raises(ConfigurationError):
        load_config(str(tmp_path / "missing.ini"))


def _cell(tmp_path, value) -> str:
    # the text write_csv gives one value, read back from a one-cell file
    path = str(tmp_path / "cell.csv")
    write_csv(path, ["v"], [(value,)])
    with open(path) as fh:
        header, cell = fh.read().splitlines()
    return cell


def test_format_value(tmp_path):
    assert _cell(tmp_path, 0.02) == "0.02"
    assert _cell(tmp_path, 7) == "7"
    assert _cell(tmp_path, True) == "1"
    assert _cell(tmp_path, False) == "0"
    assert _cell(tmp_path, "label") == "label"
    assert float(_cell(tmp_path, np.float64(0.1))) == 0.1


def test_write_csv(tmp_path):
    path = str(tmp_path / "sub" / "data.csv")
    rows = [(0.0, 1, "a"), (0.5, 2, "b"), (0.02, True, "label"),
            (np.float64(0.1), False, "")]
    out = write_csv(path, ["t", "k", "tag"], rows)
    assert out == path
    raw = pathlib.Path(path).read_bytes()
    assert raw.endswith(b"\n")
    assert raw.decode() == ("t,k,tag\n0,1,a\n0.5,2,b\n0.02,1,label\n"
                            "0.10000000000000001,0,\n")
    # rewriting the same rows is byte identical
    write_csv(path, ["t", "k", "tag"], rows)
    assert pathlib.Path(path).read_bytes() == raw


def test_write_csv_pins_cell_bytes(tmp_path):
    cells = ["tag", True, False, np.bool_(True), np.bool_(False), 7, -3,
             np.int64(-12), np.uint8(200), 0.1, 1e-320, np.float64(1 / 3),
             np.float32(0.1), 0.0, -0.0, math.nan, math.inf, -math.inf]
    want = ("tag,1,0,1,0,7,-3,-12,200,0.10000000000000001,"
            "9.9998886718268301e-321,0.33333333333333331,0.10000000149011612,"
            "0,-0,nan,inf,-inf")
    header = [f"c{k}" for k in range(len(cells))]
    path = str(tmp_path / "cells.csv")
    # a list, a tuple and a generator row, and a row of other types
    write_csv(path, header, [cells, tuple(cells), (c for c in cells),
                             cells[::-1]])
    back = ",".join(reversed(want.split(",")))
    assert pathlib.Path(path).read_bytes() == "\n".join(
        [",".join(header), want, want, want, back, ""]).encode()


@given(st.floats(allow_nan=False, allow_infinity=False))
def test_write_csv_round_trips_floats(tmp_path_factory, x):
    path = str(tmp_path_factory.getbasetemp() / "round_trip.csv")
    write_csv(path, ["x"], [(x,)])
    with open(path) as fh:
        header, cell = fh.read().splitlines()
    # 17 significant digits give back every bit, the sign of zero too
    assert float(cell).hex() == x.hex()


def test_row_helpers():
    yg = build_y_grid(4.0, 48, 0.4, 16)
    pg = build_phi_grid(8)
    f = PhaseField(np.ones((48, 8)), yg, pg)
    rows = field_rows(0.5, f)
    assert len(rows) == 48 * 8
    assert rows[0] == (0.5, yg.centers[0], 0.0, 1.0)
    prows = profile_rows(0.25, pg.nodes, np.arange(8.0))
    assert len(prows) == 8
    assert prows[3] == (0.25, pg.nodes[3], 3.0)
