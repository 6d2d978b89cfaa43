"""The CLI's exit contract: edge configs through cli.main, as a table of
(config edits, subcommand, exit code, what the output says), and a
fuzzer over the same runner.

Each case is the shrunk example (conftest.SMALL_EXAMPLE) with one or a
few keys at an extreme. It runs cli.main in process with warnings as
errors and must finish within 10 s. An error exit (2, 3 or 4) prints
exactly one line, "error: ...", on stderr, no PASS/FAIL verdict, and
leaves no file in --out. Any other exit prints nothing on stderr, and a
failed check (1) prints a FAIL line. On success each CSV has the data
rows its "wrote" line names and no numeric cell that is not finite,
except sweep.csv's order_vs_prev on its first row, NaN by design.

A new refusal is one more row of CASES.
"""

import csv
import io
import math
import os
import re
import tempfile
import time
import warnings
from contextlib import redirect_stderr, redirect_stdout

import pytest
from hypothesis import example, given, settings, strategies as st

from activerods import cli

from conftest import CONFIG_KEYS, FUZZ_VALUES, SMALL_EXAMPLE, with_key

# the README's exit classes
EXIT_CLASS = {0: "success", 2: "configuration problem",
              3: "violated model assumption", 4: "numerical failure"}

M, G, TM, X = "model", "grid", "time", "experiment"

# (edit or list of edits, subcommand, exit code, a part of the one
# error line, or of stdout on success)
CASES = [
    # epsilon and its ladders
    ((M, "epsilon", "0"), "run-full", 2, "[model] epsilon = '0': must be > 0"),
    ((M, "epsilon", "-0.1"), "run-full", 2,
     "[model] epsilon = '-0.1': must be > 0"),
    ((X, "epsilon_list", "0.04 0.08"), "sweep", 2,
     "epsilon_list must be strictly decreasing"),
    ((X, "epsilon_list", "0.04 0.04"), "sweep", 2,
     "epsilon_list must be strictly decreasing"),
    ((X, "epsilon_list", "0.08 -0.04"), "sweep", 2,
     "must be a list of numbers > 0"),
    ((X, "epsilon_list", "1e-300"), "sweep", 4,
     "sweep produced non-finite values"),
    # the layer width eps underflows the wall-mode and layer quadratures
    ((M, "epsilon", "1e-300"), "composite", 4,
     "composite produced non-finite values"),
    ((M, "epsilon", "1e-300"), "decompose", 4,
     "decompose produced non-finite values"),
    # numbers that are not finite
    ((M, "D", "nan"), "run-full", 2, "[model] D = 'nan': not finite"),
    ((M, "D", "inf"), "run-limit", 2, "[model] D = 'inf': not finite"),
    ((M, "Phi.params.gamma", "nan"), "composite", 2,
     "[model] Phi.params.gamma = 'nan': not finite"),
    ((M, "T", "inf"), "particles", 2, "[model] T = 'inf': not finite"),
    ((M, "D", "0.1"), "decompose", 2, "decompose requires D = 0"),
    # snapshot times, step counts and the angular work per segment;
    # dt = 1e-320 makes span / dt overflow to inf
    ((X, "snapshot_times", "-0.1 0.02"), "run-full", 2,
     "snapshot times must lie in [0, T=0.02]"),
    ((X, "snapshot_times", "-0.1 0.02"), "run-limit", 2,
     "snapshot times must lie in [0, T=0.02]"),
    ((TM, "dt", "1e-12"), "run-full", 2, "more than 1000000"),
    ((TM, "dt", "1e-300"), "run-full", 2, "needs 2e+298 steps, more than"),
    ((TM, "dt", "1e-320"), "run-full", 2, "needs inf steps, more than"),
    ((TM, "dt", "1e-300"), "run-limit", 2, "needs 2e+298 steps, more than"),
    ((TM, "dt", "1e-320"), "run-limit", 2, "needs inf steps, more than"),
    ((X, "particle_dt", "1e-300"), "particles", 2,
     "needs 2e+298 steps, more than"),
    ((X, "particle_dt", "1e-320"), "particles", 2,
     "needs inf steps, more than"),
    ((M, "D", "1e300"), "run-full", 2,
     "angular sub-cycling at the CFL bound"),
    ((M, "Phi.params.gamma", "1e8"), "run-full", 2,
     "needs 4 steps of 603766 angular sub-cycles each"),
    ((M, "Phi.params.gamma", "1e8"), "sweep", 2,
     "needs 4 steps of 603766 angular sub-cycles each"),
    # grids
    ((G, "n_phi", "3"), "run-full", 2, "at least 4 angular nodes"),
    ((G, "n_phi", "3"), "particles", 2, "at least 4 angular nodes"),
    ((G, "layer_width", "1e-300"), "run-limit", 2,
     "stretched region cannot reach y_max"),
    # seeds, read exactly however large, each naming its own stream, so
    # only those in [0, 2^64) run; and the particles' starting law
    ((X, "seeds", ""), "particles", 2,
     "[experiment] seeds = '': must be a list of at least one seed"),
    ((X, "seeds", "-5"), "particles", 2,
     "seed must be an integer in [0, 2^64), got -5"),
    ((X, "seeds", str(2 ** 80)), "particles", 2,
     f"seed must be an integer in [0, 2^64), got {2 ** 80}"),
    ((X, "seeds", "0"), "particles", 0, "seed 0,"),
    ((X, "seeds", f"{2 ** 53 + 1} 11"), "particles", 0,
     f"seed {2 ** 53 + 1},"),
    ((X, "seeds", str(2 ** 64 - 1)), "particles", 0,
     f"seed {2 ** 64 - 1},"),
    ((X, "seeds", "11.0"), "particles", 2, "not an integer"),
    ((X, "initial", "steady_layer"), "particles", 2,
     "cannot run [experiment] initial = steady_layer"),
    # a speed that reaches zero, is zero or is negative
    ((M, "V.params.a", "-0.6"), "run-limit", 3,
     "speed field must be strictly positive"),
    ([(M, "V.params.g0", "0.0"), (M, "V.params.a", "0.0")], "particles", 3,
     "speed field must be strictly positive; min 0"),
    ((M, "V.params.g0", "-1.0"), "particles", 3,
     "speed field must be strictly positive; min -1"),
    # a finite speed so large that the layer quantities overflow while
    # both solvers finish; V d / eps overflows to inf, and the kinetic
    # march's fitted flux takes its upwind limit
    ((M, "V.params.g0", "1e308"), "composite", 4,
     "composite produced non-finite values"),
    ((M, "V.params.g0", "1e308"), "sweep", 4,
     "sweep produced non-finite values"),
    ((M, "V.params.g0", "1e308"), "run-full", 0, "final mass"),
    # the probes: D = 1e300 drives every resolvent ratio to zero and
    # V.params.a = 1e300 overflows its block elimination; at 1e300 the
    # gap's round-off swamps its tolerance (in exact arithmetic it is
    # positive), at 1e308 the gap overflows, and at 1e10 it is sound
    ((M, "D", "1e300"), "check-resolvent", 4,
     "resolvent ratios [0.0, 0.0, 0.0] are zero or non-finite"),
    ((M, "V.params.a", "1e300"), "check-resolvent", 4,
     "resolvent solve returned non-finite values"),
    ((M, "D", "1e300"), "check-coercivity", 4,
     "is within its round-off floor"),
    ((M, "V.params.a", "1e300"), "check-coercivity", 4,
     "is within its round-off floor"),
    ((M, "D", "1e308"), "check-coercivity", 4,
     "coercivity gaps are non-finite"),
    ((M, "D", "0.0"), "check-coercivity", 0,
     "PASS coercivity: min gap 5.044e+01"),
    ((M, "D", "1e10"), "check-coercivity", 0,
     "PASS coercivity: min gap 5.044e+01"),
]


def _edits(edit):
    return [edit] if isinstance(edit[0], str) else edit


def _case_id(case):
    edit, command, code, _ = case
    edits = ",".join(f"{key}={value}" for _, key, value in _edits(edit))
    return f"{edits}-{command}-{EXIT_CLASS[code]}"


def run_edited(edits, command):
    """Run command in process on SMALL_EXAMPLE with the (section, key,
    value) edits, warnings as errors, and check the contract every exit
    keeps (the module docstring). Returns (code, stdout, stderr, {CSV
    name: its text})."""
    text = SMALL_EXAMPLE
    for edit in edits:
        text = with_key(text, *edit)
    stdout, stderr = io.StringIO(), io.StringIO()
    with tempfile.TemporaryDirectory() as tmp:
        path, out = os.path.join(tmp, "edge.cfg"), os.path.join(tmp, "out")
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(text)
        os.mkdir(out)
        start = time.perf_counter()
        with warnings.catch_warnings(), redirect_stdout(stdout), \
                redirect_stderr(stderr):
            warnings.simplefilter("error")
            code = cli.main([command, "--config", path, "--out", out])
        seconds = time.perf_counter() - start
        written = {}
        for name in os.listdir(out):
            with open(os.path.join(out, name), encoding="utf-8") as fh:
                written[name] = fh.read()
    stdout, stderr = stdout.getvalue(), stderr.getvalue()
    assert seconds < 10.0
    verdicts = re.findall(r"^(PASS|FAIL) ", stdout, flags=re.M)
    if code in (2, 3, 4):
        assert stderr.startswith("error: "), stderr
        assert stderr.count("\n") == 1 and stderr.endswith("\n"), stderr
        assert verdicts == [] and written == {}, (stdout, written)
    else:
        assert code == 0 or (code == 1 and command.startswith("check-")), \
            (code, stderr)
        assert stderr == ""
        assert code == 0 or "FAIL" in verdicts
    return code, stdout, stderr, written


def _check_csvs(stdout, written):
    """Each CSV has the data rows its "wrote" line names and no numeric
    cell that is not finite, but for sweep.csv's first order_vs_prev."""
    rows_named = {os.path.basename(m[1]): int(m[2]) for m in re.finditer(
        r"^wrote (.+) \((\d+) rows\)$", stdout, flags=re.M)}
    assert sorted(rows_named) == sorted(written)
    for name, text in written.items():
        header, *rows = csv.reader(io.StringIO(text))
        assert len(rows) == rows_named[name], name
        for i, row in enumerate(rows):
            for column, cell in zip(header, row):
                try:
                    value = float(cell)
                except ValueError:
                    continue
                assert math.isfinite(value) or (name, column, i) == (
                    "sweep.csv", "order_vs_prev", 0), (name, column, i)


@pytest.mark.parametrize("case", CASES, ids=[_case_id(c) for c in CASES])
def test_edge_config(case):
    edit, command, code, says = case
    got, stdout, stderr, written = run_edited(_edits(edit), command)
    assert got == code, stderr
    assert says in (stdout if code == 0 else stderr)
    if code == 0:
        _check_csvs(stdout, written)


# Per key, edge values beyond the parse fuzz's list: the smallest angular
# grids (odd sizes included), the smallest layer blocks, an epsilon ladder
# at the edge of double precision, snapshot times past T, and a speed that
# touches or nearly touches zero.
CLI_EDGE_VALUES = {"n_phi": ["4", "5", "7"], "layer_cells": ["7", "8"],
                   "epsilon_list": ["1e-9 1e-10 1e-11"],
                   "snapshot_times": ["0.1 0.05"],
                   "V.params.a": ["-0.5", "-0.4999"]}


def _floats(lo, hi):
    return st.floats(lo, hi).map(repr)


def _integers(lo, hi):
    return st.integers(lo, hi).map(str)


# Per key, values from its valid range, capped so that a run stays short.
VALID_VALUES = {
    "epsilon": _floats(1e-3, 1.0), "D": _floats(0.0, 1.0),
    "T": _floats(0.0, 0.1), "n_phi": _integers(4, 32),
    "n_y": _integers(8, 64), "y_max": _floats(0.5, 8.0),
    "layer_width": _floats(0.05, 1.0), "layer_cells": _integers(1, 32),
    "dt": _floats(1e-3, 0.1), "splitting": st.sampled_from(["lie", "strang"]),
    "epsilon_list": st.lists(st.floats(1e-3, 0.5), min_size=1, max_size=3,
                             unique=True).map(
        lambda v: " ".join(map(repr, sorted(v, reverse=True)))),
    "seeds": _integers(0, 2 ** 64 - 1), "n_particles": _integers(1, 2000),
    "particle_dt": _floats(1e-3, 0.1),
    "initial": st.sampled_from(["bulk_exp", "steady_layer"]),
    "V.params.a": _floats(-0.4, 2.0)}


@st.composite
def fuzzed_edits(draw):
    """One to three distinct keys, each set to a parse-fuzz value, an edge
    value of its own or a value of its capped valid range."""
    keys = draw(st.lists(st.sampled_from(CONFIG_KEYS), min_size=1,
                         max_size=3, unique=True))
    return [(section, key, draw(st.one_of(
        st.sampled_from(FUZZ_VALUES + CLI_EDGE_VALUES.get(key, [])),
        VALID_VALUES.get(key, st.nothing())))) for section, key in keys]


@settings(max_examples=30, deadline=None)
@given(st.sampled_from(list(cli._CONFIG_COMMANDS)), fuzzed_edits())
@example("run-full", [(G, "n_phi", "4")])
@example("composite", [(G, "n_phi", "5")])
@example("particles", [(G, "n_phi", "7")])
@example("run-limit", [(G, "layer_cells", "7")])
@example("sweep", [(G, "layer_cells", "8")])
@example("sweep", [(X, "epsilon_list", "1e-9 1e-10 1e-11")])
@example("run-full", [(X, "snapshot_times", "0.1 0.05")])
@example("particles", [(M, "V.params.a", "-0.5")])
@example("check-resolvent", [(M, "V.params.a", "-0.4999")])
def test_cli_fuzz_exits_with_documented_code(command, edits):
    run_edited(edits, command)
