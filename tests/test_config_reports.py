import math

import numpy as np
import pytest
from hypothesis import given, strategies as st

from activerods import (ConfigurationError, PhaseField, build_phi_grid,
                        build_y_grid, field_rows, format_value, load_config,
                        norms, parse_config, profile_rows, steady_layer,
                        write_csv)

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
    assert cfg.epsilon == 0.05
    assert cfg.D == 0.2
    assert cfg.T == 1.0
    assert cfg.V(math.pi / 2) == pytest.approx(2.0)
    assert cfg.Phi(math.pi / 4) == pytest.approx(-0.25)
    assert cfg.grid.n_phi == 32
    assert cfg.grid.n_y == 64
    assert cfg.grid.layer_width == "auto"
    assert cfg.dt == 0.01
    assert cfg.splitting == "strang"
    assert cfg.experiment.epsilon_list == [0.08, 0.04, 0.02]
    assert cfg.experiment.seeds == [1, 2]
    assert cfg.experiment.n_particles == 1000
    assert cfg.experiment.initial == "steady_layer"
    assert cfg.out_dir == "results"


def test_parse_defaults():
    cfg = parse_config("[model]\nepsilon = 0.1\n")
    assert cfg.V(0.3) == 1.0
    assert cfg.Phi(0.3) == 0.0
    assert cfg.dt == "auto"
    assert cfg.splitting == "lie"
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


def test_layer_width_auto():
    cfg = parse_config("[model]\nepsilon = 0.02\n")
    assert cfg.layer_width_for(0.02) == pytest.approx(0.16)
    # capped at a quarter of the domain height
    assert cfg.layer_width_for(1.5) == pytest.approx(2.0)
    cfg2 = parse_config("[model]\nepsilon = 0.02\n[grid]\nlayer_width = 0.5\n")
    assert cfg2.layer_width_for(0.02) == 0.5


def test_build_grids_and_initial_fields():
    cfg = parse_config(FULL_TEXT)
    yg, pg = cfg.build_grids()
    assert yg.n_y == 64 and pg.n_phi == 32
    assert yg.layer_width == pytest.approx(cfg.layer_width_for(0.05))

    f0 = cfg.initial_field(yg, pg)
    ref = steady_layer(cfg.V, 0.05, yg, pg)
    np.testing.assert_allclose(f0.values, ref.values, rtol=1e-14)

    s0 = cfg.initial_limit_state(yg, pg)
    assert np.all(s0.bulk.values == 0.0)
    np.testing.assert_array_equal(s0.wall, np.ones(32))

    cfg_b = parse_config("[model]\nepsilon = 0.1\n[grid]\ny_max = 4.0\n")
    yg2, pg2 = cfg_b.build_grids()
    f0b = cfg_b.initial_field(yg2, pg2)
    assert norms(f0b)["mass"] == pytest.approx(1.0 - math.exp(-4.0),
                                               rel=1e-12)
    s0b = cfg_b.initial_limit_state(yg2, pg2)
    assert np.all(s0b.wall == 0.0)
    assert s0b.combined_mass() == pytest.approx(1.0 - math.exp(-4.0),
                                                rel=1e-12)


def test_load_config(tmp_path):
    p = tmp_path / "run.ini"
    p.write_text(FULL_TEXT)
    cfg = load_config(str(p))
    assert cfg.epsilon == 0.05
    with pytest.raises(ConfigurationError):
        load_config(str(tmp_path / "missing.ini"))


def test_format_value():
    assert format_value(0.02) == "0.02"
    assert format_value(7) == "7"
    assert format_value(True) == "1"
    assert format_value(False) == "0"
    assert format_value("label") == "label"
    assert float(format_value(np.float64(0.1))) == 0.1


@given(st.floats(allow_nan=False, allow_infinity=False))
def test_format_value_round_trips(x):
    assert float(format_value(x)) == x


def test_write_csv(tmp_path):
    path = str(tmp_path / "sub" / "data.csv")
    rows = [(0.0, 1, "a"), (0.5, 2, "b")]
    out = write_csv(path, ["t", "k", "tag"], rows)
    assert out == path
    raw = open(path, "rb").read()
    assert raw.endswith(b"\n")
    assert raw.decode() == "t,k,tag\n0,1,a\n0.5,2,b\n"
    # rewriting the same rows is byte identical
    write_csv(path, ["t", "k", "tag"], rows)
    assert open(path, "rb").read() == raw


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
