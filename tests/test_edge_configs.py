"""Edge configs through the CLI, as a table of (config edits, subcommand,
exit code, what the output says).

Each case is the example config, shrunk to a few cheap steps, with one key
at an extreme. It runs cli.main in process with warnings as errors. A
success prints nothing on stderr and writes its CSVs; a failure exits with
its documented code, prints exactly one line, "error: ...", on stderr and
leaves no file in --out.
"""

import os
import warnings

import pytest

from activerods import cli

from conftest import ROOT, with_key

# the README's exit classes
EXIT_CLASS = {0: "success", 2: "configuration problem",
              3: "violated model assumption", 4: "numerical failure"}

# the example, a few steps on a 24 x 8 grid and a thousand particles
SMALL = [("model", "T", "0.02"), ("grid", "n_y", "24"),
         ("grid", "n_phi", "8"), ("grid", "layer_cells", "8"),
         ("experiment", "snapshot_times", "0.0 0.02"),
         ("experiment", "n_particles", "1000")]

CASES = [
    # epsilon ladders
    (("experiment", "epsilon_list", "0.04 0.08"), "sweep", 2,
     "epsilon_list must be strictly decreasing"),
    (("experiment", "epsilon_list", "0.04 0.04"), "sweep", 2,
     "epsilon_list must be strictly decreasing"),
    (("experiment", "epsilon_list", "0.08 -0.04"), "sweep", 2,
     "must be a list of numbers > 0"),
    (("experiment", "epsilon_list", "1e-300"), "sweep", 4,
     "sweep produced non-finite values"),
    # snapshot times and step counts
    (("experiment", "snapshot_times", "-0.1 0.02"), "run-full", 2,
     "snapshot times must lie in [0, T=0.02]"),
    (("experiment", "snapshot_times", "-0.1 0.02"), "run-limit", 2,
     "snapshot times must lie in [0, T=0.02]"),
    (("time", "dt", "1e-12"), "run-full", 2, "more than 1000000"),
    (("model", "D", "1e300"), "run-full", 2,
     "angular sub-cycling at the CFL bound"),
    # grids
    (("grid", "n_phi", "3"), "run-full", 2, "at least 4 angular nodes"),
    (("grid", "n_phi", "3"), "particles", 2, "at least 4 angular nodes"),
    (("grid", "layer_width", "1e-300"), "run-limit", 2,
     "stretched region cannot reach y_max"),
    # seeds, read exactly however large, each naming its own stream, so
    # only those in [0, 2^64) run; and the particles' starting law
    (("experiment", "seeds", "-5"), "particles", 2,
     "seed must be an integer in [0, 2^64), got -5"),
    (("experiment", "seeds", str(2 ** 80)), "particles", 2,
     f"seed must be an integer in [0, 2^64), got {2 ** 80}"),
    (("experiment", "seeds", "0"), "particles", 0, "seed 0,"),
    (("experiment", "seeds", f"{2 ** 53 + 1} 11"), "particles", 0,
     f"seed {2 ** 53 + 1},"),
    (("experiment", "seeds", str(2 ** 64 - 1)), "particles", 0,
     f"seed {2 ** 64 - 1},"),
    (("experiment", "seeds", "11.0"), "particles", 2, "not an integer"),
    (("experiment", "initial", "steady_layer"), "particles", 2,
     "cannot run [experiment] initial = steady_layer"),
    # a speed that reaches zero
    (("model", "V.params.a", "-0.6"), "run-limit", 3,
     "speed field must be strictly positive"),
]


def _case_id(case):
    (section, key, value), command, code, _ = case
    return f"{key}={value}-{command}-{EXIT_CLASS[code]}"


@pytest.mark.parametrize("case", CASES, ids=[_case_id(c) for c in CASES])
def test_edge_config(case, tmp_path, capsys):
    (section, key, value), command, code, says = case
    with open(os.path.join(ROOT, "configs", "example.cfg"),
              encoding="utf-8") as fh:
        text = fh.read()
    for edit in SMALL + [(section, key, value)]:
        text = with_key(text, *edit)
    path, out = tmp_path / "edge.cfg", tmp_path / "out"
    path.write_text(text, encoding="utf-8")
    out.mkdir()
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        got = cli.main([command, "--config", str(path), "--out", str(out)])
    captured = capsys.readouterr()
    assert got == code, captured.err
    if code == 0:
        assert captured.err == ""
        assert says in captured.out
        assert os.listdir(out)
    else:
        assert captured.err.startswith("error: ")
        assert captured.err.count("\n") == 1 and captured.err.endswith("\n")
        assert says in captured.err
        assert os.listdir(out) == []
