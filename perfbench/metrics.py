"""Names, units and directions of every metric the benchmark reports.

BENCHMARK.json at the repository root lists the same metrics; the
self-test checks that the two agree.
"""

from __future__ import annotations

# Gated end-to-end metrics: the last output line carries these (tracing off).
END_TO_END = (
    ("wall_s", "s", "lower"),
    ("setup_s", "s", "lower"),
    ("peak_rss_mib", "MiB", "lower"),
)

# Printed with the end-to-end table but not gated: each throughput is a
# fixed work count over wall_s (so it moves exactly with wall_s) and is
# defined on some workloads only; failed_ratio is 0 on a correct program
# and reaches the result line as "failed" / "attempted".
REPORTED = (
    ("cell_updates_per_s", "1/s", "higher"),
    ("particle_steps_per_s", "1/s", "higher"),
    ("failed_ratio", "ratio", "lower"),
)

CRITERIA = tuple(c for c in range(1, 15) if c != 13)
SUBCOMMANDS = ("run-full", "run-limit", "composite", "sweep", "decompose",
               "particles", "check-coercivity", "check-resolvent")

_STAT_UNITS = {"s": "s", "self_s": "s", "bytes": "B"}


def _layers():
    names = [
        "full_solver.run_full.self_s", "full_solver.run_full.cell_updates",
        "full_solver.phi_substep.s", "full_solver.phi_substep.calls",
        "full_solver.phi_substep.subcycles",
        "limit_solver.run_limit.self_s", "limit_solver.run_limit.cell_updates",
        "limit_solver.resolvent_solve.s",
        "limit_solver.resolvent_solve.unknowns",
        "limit_solver.coercivity_gap.s", "limit_solver.coercivity_gap.calls",
        "asymptotics.build_inner.s", "asymptotics.composite_simple.s",
        "asymptotics.composite_refined.s", "asymptotics.residual_report.s",
        "grids.exp_cell_averages.s", "grids.poly_exp_cell_averages.s",
        "grids.overlap_average_y.s",
        "decomposition.decompose.s", "decomposition.energy_step.s",
        "decomposition.weak_pairings.s",
        "sweep.sweep_epsilon.self_s", "sweep.weak_pairing_sweep.self_s",
        "sweep.reference_limit_state.s",
        "particles.em_step.self_s", "particles.em_step.calls",
        "particles.sample_initial.s", "particles.histogram.s",
        "particles.tv_distance.s", "particles.particle_steps",
        "coefficients.eval_coeff.s", "coefficients.eval_coeff.calls",
        "coefficients.sup_abs.s", "coefficients.sup_abs.calls",
        "coefficients.sup_abs.calls_per_em_step",
        "reports.write_csv.s", "reports.write_csv.bytes",
        "reports.field_rows.s", "reports.field_rows.rows",
        "config.load_config.s",
    ]
    names += [f"acceptance.run_criterion.c{c:02d}.s" for c in CRITERIA]
    names += [f"cli.{sub}.s" for sub in SUBCOMMANDS]
    names += ["process.cpu_s", "trace.overhead_s"]
    out = []
    for name in names:
        stat = name.rsplit(".", 1)[-1]
        if name == "coefficients.sup_abs.calls_per_em_step":
            unit = "ratio"
        elif name in ("process.cpu_s", "trace.overhead_s"):
            unit = "s"
        else:
            unit = _STAT_UNITS.get(stat, "count")
        out.append((name, unit, "lower"))
    return tuple(out)


PER_LAYER = _layers()


def layer_values(stats: dict, spans_inside) -> dict:
    """Per-layer values of one traced pass from its per-span-name stats
    (see spans.aggregate).  ``spans_inside(name, ancestor)`` counts the
    ``name`` spans nested under an ``ancestor`` span.  process.cpu_s and
    trace.overhead_s need untraced passes and are filled in by the
    caller."""
    def stat(span, key):
        return stats.get(span, {}).get(key, 0)

    em_calls = stat("particles.em_step", "calls")
    special = {
        "particles.particle_steps":
            stat("particles.em_step", "particle_steps"),
        "coefficients.sup_abs.calls_per_em_step":
            spans_inside("coefficients.sup_abs", "particles.em_step")
            / em_calls if em_calls else 0.0,
    }
    out = {}
    for name, _, _ in PER_LAYER:
        if name in special:
            out[name] = special[name]
        elif name not in ("process.cpu_s", "trace.overhead_s"):
            span, key = name.rsplit(".", 1)
            out[name] = stat(span, key)
    return out
