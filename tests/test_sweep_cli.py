import math
import os
import pathlib
import re

import numpy as np
import pytest

from activerods import (ConfigurationError, FitError, SweepRecord, fit_order,
                        full_solver, load_config, parse_config, sweep_epsilon,
                        weak_pairing_sweep)
from activerods import acceptance, cli
from activerods.cli import main

from conftest import ROOT, SMALL_EXAMPLE, run_python


STEADY_TEXT = """
[model]
epsilon = 0.05
D = 0.0
T = 0.2
V.family = constant
V.params.value = 1.0
Phi.family = constant
Phi.params.value = 0.0

[grid]
n_phi = 8
n_y = 96
y_max = 4.0
layer_width = 0.9
layer_cells = 72

[time]
dt = 0.01

[experiment]
epsilon_list = 0.05
initial = steady_layer
"""

CLI_TEXT = """
[model]
epsilon = 0.05
D = 0.0
T = 0.1
V.family = shifted_sine
V.params.g0 = 1.0
V.params.a = 0.5
Phi.family = paper_shear
Phi.params.gamma = 0.5

[grid]
n_phi = 8
n_y = 48
y_max = 4.0
layer_width = 0.4
layer_cells = 16

[time]
dt = 0.02

[experiment]
epsilon_list = 0.08 0.04
snapshot_times = 0.05 0.1
n_particles = 2000
particle_dt = 0.005
"""

BAD_SPEED_TEXT = """
[model]
epsilon = 0.05
T = 0.1
V.family = wall_drive
V.params.g = 0.5
V.params.v_prop = 1.0

[grid]
n_phi = 8
n_y = 48
y_max = 4.0
layer_width = 0.4
layer_cells = 16

[time]
dt = 0.02
"""


def _rec(eps, err, err_ref=1.0):
    return SweepRecord(epsilon=eps, t_final=1.0, l1_error=err,
                       l1_error_refined=err_ref, l1_R=0.0, l1_r=0.0,
                       mass_full=1.0, mass_limit_combined=1.0,
                       order_vs_prev=float("nan"))


def test_fit_order_frozen():
    recs = [_rec(0.4, 0.4), _rec(0.2, 0.2), _rec(0.1, 0.1)]
    assert fit_order(recs) == pytest.approx(1.0, abs=1e-12)

    recs2 = [_rec(0.4, 0.16, 0.16), _rec(0.2, 0.04, 0.04),
             _rec(0.1, 0.01, 0.01)]
    assert fit_order(recs2, column="l1_error_refined") == pytest.approx(
        2.0, abs=1e-12)

    flat = [_rec(0.4, 0.3), _rec(0.2, 0.3), _rec(0.1, 0.3)]
    assert fit_order(flat) == 0.0

    zeros = [_rec(0.4, 0.0), _rec(0.2, 0.0), _rec(0.1, 0.0)]
    assert fit_order(zeros) == 0.0


def test_fit_order_rejects():
    with pytest.raises(FitError):
        fit_order([_rec(0.4, 0.4), _rec(0.2, 0.2)])
    with pytest.raises(FitError):
        fit_order([_rec(0.4, 0.4), _rec(0.3, 0.3), _rec(0.2, 0.2)])
    with pytest.raises(FitError):
        fit_order([_rec(0.4, 0.4), _rec(0.2, -0.2), _rec(0.1, 0.1)])
    with pytest.raises(FitError):
        fit_order([_rec(0.4, 0.4), _rec(0.2, 0.0), _rec(0.1, 0.1)])
    with pytest.raises(FitError):
        fit_order([_rec(0.4, float("nan")), _rec(0.2, 0.2), _rec(0.1, 0.1)])


def test_sweep_steady_layer_is_scheme_exact():
    cfg = parse_config(STEADY_TEXT)
    records = sweep_epsilon(cfg)
    assert len(records) == 1
    r = records[0]
    assert r.epsilon == 0.05
    assert r.l1_error <= 1e-6
    assert r.mass_full == pytest.approx(2.0 * math.pi, rel=1e-9)
    assert r.mass_limit_combined == pytest.approx(2.0 * math.pi, rel=1e-9)
    assert math.isnan(r.order_vs_prev)
    assert np.isfinite(r.l1_error_refined)
    assert np.isfinite(r.l1_R) and np.isfinite(r.l1_r)


def test_sweep_ladder_validation():
    cfg = parse_config(STEADY_TEXT.replace("epsilon_list = 0.05",
                                           "epsilon_list = 0.04, 0.08"))
    with pytest.raises(ConfigurationError):
        sweep_epsilon(cfg)
    # a config fills an empty epsilon_list with its epsilon, so only a
    # list emptied later reaches _check_ladder's empty-list guard; without
    # the guard the sweep returns no rows
    cfg.experiment.epsilon_list = []
    with pytest.raises(ConfigurationError, match="epsilon_list is empty"):
        sweep_epsilon(cfg)


def test_sweep_order_on_a_ladder_that_does_not_halve():
    # each row's order is its log error ratio over its log epsilon ratio:
    # half the log error ratio after a fourfold step
    cfg = parse_config(CLI_TEXT.replace("epsilon_list = 0.08 0.04",
                                        "epsilon_list = 0.08 0.02 0.01"))
    records = sweep_epsilon(cfg)
    errs = [r.l1_error for r in records]
    assert math.isnan(records[0].order_vs_prev)
    assert records[1].order_vs_prev == pytest.approx(
        0.5 * math.log2(errs[0] / errs[1]), rel=1e-12)
    assert records[2].order_vs_prev == math.log2(errs[1] / errs[2])
    # first order over the fourfold step, not twice that
    assert 0.5 < records[1].order_vs_prev < 1.5


def test_weak_pairing_sweep_requires_no_angular_diffusion():
    cfg = parse_config(STEADY_TEXT.replace("D = 0.0", "D = 0.1"))
    with pytest.raises(ConfigurationError):
        weak_pairing_sweep(cfg)


def test_weak_pairing_sweep_steady():
    cfg = parse_config(STEADY_TEXT)
    records = weak_pairing_sweep(cfg)
    names = [r.test for r in records]
    assert names == ["one", "cos", "sin"]
    # steady layer vs unit wall: both pairings give 2 pi V for test "one"
    assert records[0].pairing_full == pytest.approx(2.0 * math.pi, rel=1e-6)
    assert records[0].pairing_limit == pytest.approx(2.0 * math.pi, rel=1e-6)
    assert records[0].abs_diff <= 1e-6


@pytest.fixture(scope="module")
def cli_config(tmp_path_factory):
    d = tmp_path_factory.mktemp("cli")
    p = d / "run.ini"
    p.write_text(CLI_TEXT)
    return str(p)


def _lines(path):
    with open(path) as fh:
        return fh.read().splitlines()


def test_cli_run_full(cli_config, tmp_path):
    out = str(tmp_path / "o1")
    assert main(["run-full", "--config", cli_config, "--out", out]) == 0
    lines = _lines(os.path.join(out, "full_snapshots.csv"))
    assert lines[0] == "t,y,phi,f"
    assert len(lines) == 1 + 2 * 48 * 8


def test_cli_run_limit(cli_config, tmp_path):
    out = str(tmp_path / "o2")
    assert main(["run-limit", "--config", cli_config, "--out", out]) == 0
    assert _lines(os.path.join(out, "limit_bulk.csv"))[0] == \
        "t,y,phi,rho_bulk"
    wall = _lines(os.path.join(out, "limit_wall.csv"))
    assert wall[0] == "t,phi,rho_wall"
    assert len(wall) == 1 + 2 * 8


def test_cli_composite(cli_config, tmp_path):
    out = str(tmp_path / "o3")
    assert main(["composite", "--config", cli_config, "--out", out]) == 0
    assert _lines(os.path.join(out, "composite.csv"))[0] == \
        "y,phi,f_bar,f_hat"
    resid = _lines(os.path.join(out, "residual.csv"))
    assert resid[0] == "epsilon,l1_R,l1_r"
    assert len(resid) == 2


def test_cli_sweep_and_rerun_identical(cli_config, tmp_path):
    # the first run sets the angular substeps up from a cold cache, the
    # second reuses every one of them
    setup = full_solver._angular_setup
    setup.cache_clear()
    out_a = str(tmp_path / "a")
    out_b = str(tmp_path / "b")
    assert main(["sweep", "--config", cli_config, "--out", out_a]) == 0
    cold = setup.cache_info()
    assert main(["sweep", "--config", cli_config, "--out", out_b]) == 0
    warm = setup.cache_info()
    assert cold.misses > 0 and warm.misses == cold.misses
    assert warm.hits > cold.hits
    assert os.listdir(out_a) == os.listdir(out_b) == ["sweep.csv"]
    raw_a = pathlib.Path(out_a, "sweep.csv").read_bytes()
    raw_b = pathlib.Path(out_b, "sweep.csv").read_bytes()
    assert raw_a == raw_b
    lines = raw_a.decode().splitlines()
    assert lines[0].startswith("epsilon,t_final,l1_error")
    assert len(lines) == 3


def test_cli_decompose(cli_config, tmp_path):
    out = str(tmp_path / "o4")
    assert main(["decompose", "--config", cli_config, "--out", out]) == 0
    assert _lines(os.path.join(out, "modes.csv"))[0] == "t,phi,m"
    assert _lines(os.path.join(out, "energy.csv"))[0] == "t,E,dissipation"
    assert _lines(os.path.join(out, "pairings.csv"))[0] == \
        "epsilon,test,pairing"


def test_cli_particles(cli_config, tmp_path):
    out = str(tmp_path / "o6")
    assert main(["particles", "--config", cli_config, "--out", out]) == 0
    assert _lines(os.path.join(out, "particles.csv"))[0] == "y,phi,density"


def test_cli_check_coercivity(cli_config, tmp_path):
    out = str(tmp_path / "o7")
    assert main(["check-coercivity", "--config", cli_config,
                 "--out", out]) == 0
    lines = _lines(os.path.join(out, "coercivity.csv"))
    assert lines[0] == "sample,n_y,n_phi,lambda,gap"
    assert len(lines) == 21


def test_cli_check_resolvent(cli_config, tmp_path):
    out = str(tmp_path / "o8")
    assert main(["check-resolvent", "--config", cli_config,
                 "--out", out]) == 0
    lines = _lines(os.path.join(out, "resolvent.csv"))
    assert lines[0] == "eps_reg,ratio"
    assert len(lines) == 4


@pytest.mark.parametrize("block_solve", ["raise", "nan"])
def test_cli_check_resolvent_block_failure_exits_4(block_solve, cli_config,
                                                   tmp_path, monkeypatch,
                                                   capsys):
    def fake(a, b):
        if block_solve == "raise":
            raise np.linalg.LinAlgError("Singular matrix")
        return np.full(np.shape(b), np.nan)

    monkeypatch.setattr(np.linalg, "solve", fake)
    assert main(["check-resolvent", "--config", cli_config,
                 "--out", str(tmp_path / "o")]) == 4
    err = capsys.readouterr().err
    assert "Traceback" not in err
    assert len(err.strip().splitlines()) == 1
    assert err.startswith("error: resolvent")


def test_cli_error_codes(cli_config, tmp_path):
    assert main(["no-such-command"]) == 2
    assert main(["run-full"]) == 2
    assert main(["run-full", "--config", str(tmp_path / "missing.ini")]) == 2
    bad = tmp_path / "bad.ini"
    bad.write_text("[model]\nepsilon = 0.1\n[grid]\nbogus = 3\n")
    assert main(["run-full", "--config", str(bad)]) == 2
    slow = tmp_path / "assume.ini"
    # v_prop = 2 g, and v_prop = g, where the speed touches zero
    for text in (BAD_SPEED_TEXT, BAD_SPEED_TEXT.replace("v_prop = 1.0",
                                                        "v_prop = 0.5")):
        slow.write_text(text)
        assert main(["run-full", "--config", str(slow),
                     "--out", str(tmp_path / "o9")]) == 3


def test_cli_particles_refuses_steady_layer_initial(tmp_path, capsys):
    # the ensemble always starts from the bulk-exponential law, so a
    # config asking for another initial law exits 2 with one line naming
    # the key, and writes no CSV; without the check it exits 0
    path = tmp_path / "steady.ini"
    path.write_text(CLI_TEXT + "initial = steady_layer\n")
    out = tmp_path / "out"
    assert main(["particles", "--config", str(path), "--out", str(out)]) == 2
    err = capsys.readouterr().err
    assert len(err.strip().splitlines()) == 1
    assert "[experiment] initial = steady_layer" in err
    assert not os.path.exists(out)


def test_cli_out_dir_precedence(cli_config, tmp_path):
    flag_dir = str(tmp_path / "flag")
    assert main(["particles", "--config", cli_config, "--out", flag_dir]) == 0
    assert os.path.exists(os.path.join(flag_dir, "particles.csv"))

    # an empty --out counts as unset
    cfg_dir = tmp_path / "cfg"
    with_dir = tmp_path / "with_dir.ini"
    with_dir.write_text(CLI_TEXT + f"\n[output]\ndirectory = {cfg_dir}\n")
    assert main(["particles", "--config", str(with_dir), "--out", ""]) == 0
    assert os.listdir(cfg_dir) == ["particles.csv"]


def test_cli_config_not_utf8_exits_2(tmp_path, capsys):
    path = tmp_path / "latin1.ini"
    path.write_bytes(b"[model]\nepsilon = 0.05\n# caf\xe9\n")
    out = tmp_path / "out"
    assert main(["run-full", "--config", str(path), "--out", str(out)]) == 2
    err = capsys.readouterr().err
    assert "Traceback" not in err
    assert len(err.strip().splitlines()) == 1
    assert err.startswith("error: cannot read config file")
    assert not out.exists()


@pytest.mark.parametrize("text, lineno", [
    (CLI_TEXT.replace("[model]\n", "[model]\nepsilon = 0.1\n"), 4),
    (CLI_TEXT + "\n[model]\nD = 0.1\n", CLI_TEXT.count("\n") + 2),
    ("epsilon = 0.1\n" + CLI_TEXT.lstrip(), 1),
    ("[model\n" + CLI_TEXT.split("[model]\n", 1)[1], 1),
    (CLI_TEXT.replace("D = 0.0\n", "D = 0.0\nfoo\n"), 5),
], ids=["key", "section", "key-before-header", "malformed-header",
        "key-without-value"])
def test_cli_config_parse_error_names_the_file(text, lineno, tmp_path, capsys):
    path = tmp_path / "broken.ini"
    path.write_text(text)
    out = tmp_path / "out"
    assert main(["run-full", "--config", str(path), "--out", str(out)]) == 2
    err = capsys.readouterr().err
    assert "Traceback" not in err
    assert len(err.strip().splitlines()) == 1
    assert err.startswith("error: config parse error: ")
    assert str(path) in err
    assert re.search(rf"line +{lineno}\b", err)
    assert not out.exists()


def _probe_config(tmp_path):
    """A config whose [model] is the model of criteria 11 and 12."""
    p = acceptance._PROBE_PARAMS
    lines = ["[model]", f"epsilon = {p.epsilon!r}", f"D = {p.D!r}",
             f"T = {p.T!r}"]
    for name, coeff in (("V", p.V), ("Phi", p.Phi)):
        lines.append(f"{name}.family = {coeff.family}")
        lines += [f"{name}.params.{k} = {v!r}" for k, v in coeff.params.items()]
    path = tmp_path / "probe.ini"
    path.write_text("\n".join(lines) + "\n")
    assert load_config(str(path)).model == p
    return str(path)


@pytest.mark.parametrize("command, label, cid", [
    ("check-coercivity", "coercivity", 11),
    ("check-resolvent", "resolvent", 12)])
def test_cli_probe_prints_its_criterion_detail(command, label, cid, tmp_path,
                                               capsys):
    assert main([command, "--config", _probe_config(tmp_path),
                 "--out", str(tmp_path / "out")]) == 0
    verdict = capsys.readouterr().out.splitlines()[-1]
    assert verdict == f"PASS {label}: " + acceptance.run_criterion(cid).detail


def test_cli_config_with_byte_order_mark(tmp_path, capsys):
    # as some Windows editors save UTF-8
    plain = os.path.join(ROOT, "configs", "example.cfg")
    bom = tmp_path / "bom.cfg"
    bom.write_bytes(b"\xef\xbb\xbf" + pathlib.Path(plain).read_bytes())
    assert load_config(str(bom)) == load_config(plain)
    for name, path in (("plain", plain), ("bom", str(bom))):
        assert main(["run-full", "--config", path,
                     "--out", str(tmp_path / name)]) == 0
    name = "full_snapshots.csv"
    assert pathlib.Path(tmp_path, "bom", name).read_bytes() == \
        pathlib.Path(tmp_path, "plain", name).read_bytes()


def test_cli_check_all_prints_one_line_per_criterion(monkeypatch, capsys):
    def raises():
        raise ConfigurationError("no such grid")

    monkeypatch.setattr(acceptance, "_CRITERIA", (
        ("passes", lambda: (True, "within bound")),
        ("fails", lambda: (False, "out of bound")),
        ("raises", raises)))
    assert main(["check-all"]) == 1
    assert capsys.readouterr().out.splitlines() == [
        "PASS 01 passes: within bound",
        "FAIL 02 fails: out of bound",
        "FAIL 03 raises: raised ConfigurationError: no such grid",
        "1/3 criteria passed"]
    for cid in (0, 4):
        with pytest.raises(ValueError, match=f"no criterion {cid}"):
            acceptance.run_criterion(cid)

    monkeypatch.setattr(acceptance, "_CRITERIA", acceptance._CRITERIA[:1])
    assert main(["check-all"]) == 0
    assert capsys.readouterr().out.splitlines() == [
        "PASS 01 passes: within bound", "1/1 criteria passed"]


def test_raising_criterion_keeps_its_name(monkeypatch):
    def no_scales(*args):
        raise ConfigurationError("no physical scales")

    monkeypatch.setattr(acceptance, "epsilon_from_physical", no_scales)
    res = acceptance.run_criterion(1)
    assert res.name == "scale-parameter-arithmetic"
    assert not res.passed
    assert res.detail == "raised ConfigurationError: no physical scales"


def test_energy_bound_fails_when_energy_grows(monkeypatch):
    # criterion 9's fail branch: every energy after the first reported
    # 1000 times too large breaks the Gronwall bound
    real, calls = acceptance.energy_step, []

    def growing(dec):
        E, diss = real(dec)
        calls.append(E)
        return E * (1.0 if len(calls) == 1 else 1e3), diss

    monkeypatch.setattr(acceptance, "energy_step", growing)
    res = acceptance.run_criterion(9)
    assert len(calls) > 2
    assert not res.passed
    assert res.detail.endswith("(need <= 1)")
    assert float(res.detail.split(" = ")[1].split()[0]) > 1.0


def test_package_imports_without_scipy():
    # scipy.linalg alone would add about 0.16 s and 20 MiB to every start
    proc = run_python(["-c", "import sys, activerods, activerods.cli; "
                              "print(sorted(m for m in sys.modules "
                              "if m.split('.')[0] == 'scipy'))"])
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "[]"


def test_cli_out_of_memory_exits_2(cli_config, tmp_path, monkeypatch,
                                   capsys):
    # stands in for an ensemble too large to allocate, without allocating it
    def no_memory(*args, **kwargs):
        raise MemoryError

    monkeypatch.setattr("activerods.cli.sample_initial", no_memory)
    out = tmp_path / "out"
    assert main(["particles", "--config", cli_config, "--out", str(out)]) == 2
    err = capsys.readouterr().err
    assert "Traceback" not in err
    assert len(err.strip().splitlines()) == 1
    assert err.startswith("error: out of memory")
    assert not os.path.exists(out / "particles.csv")


def _readme_csvs():
    """Subcommand -> the CSVs of its row in the README's CLI table, in
    the order the table lists them."""
    with open(os.path.join(ROOT, "README.md"), encoding="utf-8") as fh:
        cli = fh.read().split("\n## CLI\n")[1].split("\n## ")[0]
    return {m[1]: re.findall(r"`(\w+\.csv)`", m[2])
            for m in re.finditer(r"^\| `([a-z-]+)` +\|([^|]*)\|", cli,
                                 flags=re.M)}


README_CSVS = _readme_csvs()


@pytest.mark.parametrize("command", list(cli._CONFIG_COMMANDS))
def test_cli_writes_the_readme_csvs(command, tmp_path, capsys):
    # exactly the files of the README's CLI table, each announced by one
    # "wrote" line in the order written, with its count of data rows
    names = README_CSVS[command]
    path = tmp_path / "small.ini"
    path.write_text(SMALL_EXAMPLE)
    out = str(tmp_path / "out")
    assert main([command, "--config", str(path), "--out", out]) == 0
    assert sorted(os.listdir(out)) == sorted(names)
    wrote = [line for line in capsys.readouterr().out.splitlines()
             if line.startswith("wrote ")]
    assert wrote == [f"wrote {os.path.join(out, name)} "
                     f"({len(_lines(os.path.join(out, name))) - 1} rows)"
                     for name in names]


@pytest.mark.parametrize("fault", ["directory", "write_csv"])
@pytest.mark.parametrize("command", ["run-limit", "composite", "decompose"])
def test_cli_failed_write_leaves_no_csv(command, fault, tmp_path, monkeypatch,
                                        capsys):
    # the subcommand's last CSV cannot be written, because a directory
    # holds its name or because writing it fails: exit 2 with one error
    # line naming the subcommand and the CSV, no "wrote" line, and neither
    # the CSVs before it nor any staged file left behind
    names = README_CSVS[command]
    path = tmp_path / "small.ini"
    path.write_text(SMALL_EXAMPLE)
    out = tmp_path / "out"
    out.mkdir()
    if fault == "directory":
        (out / names[-1]).mkdir()
    else:
        write_csv = cli.write_csv

        def no_space(csv_path, header, rows):
            if names[-1] in os.path.basename(csv_path):
                with open(csv_path, "w") as fh:
                    fh.write("partial")
                raise OSError(28, "No space left on device", csv_path)
            return write_csv(csv_path, header, rows)

        monkeypatch.setattr(cli, "write_csv", no_space)
    assert main([command, "--config", str(path), "--out", str(out)]) == 2
    captured = capsys.readouterr()
    assert "wrote" not in captured.out
    assert len(captured.err.splitlines()) == 1
    assert captured.err.startswith(
        f"error: {command}: cannot write {names[-1]}: ")
    assert os.listdir(out) == ([names[-1]] if fault == "directory" else [])
