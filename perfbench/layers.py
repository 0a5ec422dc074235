"""Which scottlab functions are traced, and how spans become per-layer metrics.

install() patches the package's public functions from outside (the package
itself is not changed); restore() on the tracer undoes it.  metrics() turns
the spans and counters of the traced passes into the per-layer metrics of
BENCHMARK.json, each divided by the number of traced passes.
"""

from __future__ import annotations

import sys
from collections import Counter

import numpy as np

import tracer as tracing

PACKAGE = "scottlab"

# (metric, unit, better) in the order BENCHMARK.json lists them
METRICS = [
    ("tf.solve_calls", "count", "lower"),
    ("tf.solve_s", "s", "lower"),
    ("tf.shoot_s", "s", "lower"),
    ("tf.residual_s", "s", "lower"),
    ("tf.energy_report_s", "s", "lower"),
    ("tf.rebuild_calls", "count", "lower"),
    ("tf.rebuild_s", "s", "lower"),
    ("tf.phi_calls", "count", "lower"),
    ("tf.phi_points", "count", "lower"),
    ("weyl.integral_calls", "count", "lower"),
    ("weyl.integral_s", "s", "lower"),
    ("radial_eig.trace_calls", "count", "lower"),
    ("radial_eig.trace_s", "s", "lower"),
    ("radial_eig.grid_nodes", "count", "lower"),
    ("radial_eig.grid_s", "s", "lower"),
    ("radial_eig.channel_solves", "count", "lower"),
    ("radial_eig.channel_s", "s", "lower"),
    ("radial_eig.build_s", "s", "lower"),
    ("radial_eig.states", "count", "higher"),
    ("radial_eig.nonempty_channel_ratio", "ratio", "higher"),
    ("pauli.trace_calls", "count", "lower"),
    ("pauli.trace_s", "s", "lower"),
    ("pauli.blocks", "count", "lower"),
    ("pauli.assembly_s", "s", "lower"),
    ("pauli.nonempty_block_ratio", "ratio", "higher"),
    ("pauli.inertia_lu", "count", "lower"),
    ("pauli.inertia_s", "s", "lower"),
    ("pauli.eigs_calls", "count", "lower"),
    ("pauli.eigs_self_s", "s", "lower"),
    ("pauli.lu_factorizations", "count", "lower"),
    ("pauli.lu_s", "s", "lower"),
    ("pauli.arpack_solves", "count", "lower"),
    ("pauli.fallback_lu", "count", "lower"),
    ("pauli.functional_evals", "count", "lower"),
    ("pauli.functional_s", "s", "lower"),
    ("pauli.field_energy_s", "s", "lower"),
    ("pauli.minimize_evals", "count", "lower"),
    ("pauli.minimize_s", "s", "lower"),
    ("cli.invocations", "count", "lower"),
    ("cli.process_s", "s", "lower"),
    ("cli.import_s", "s", "lower"),
    ("cli.write_s", "s", "lower"),
    ("multiscale.partition_checks", "count", "lower"),
    ("multiscale.partition_s", "s", "lower"),
    ("expansion.sweep_s", "s", "lower"),
    ("trace.overhead_pct", "%", "lower"),
]


class _CountingLU:
    """SuperLU factor whose solve() calls (ARPACK's shift-invert steps) are counted."""

    def __init__(self, lu, tr):
        self._lu = lu
        self._tr = tr

    def solve(self, rhs, trans="N"):
        self._tr.count("pauli.arpack_solves")
        return self._lu.solve(rhs, trans)

    def __getattr__(self, name):
        return getattr(self._lu, name)


def _phi_points(tr, args, kwargs):
    tr.count("tf.phi_calls")
    tr.count("tf.phi_points", np.size(args[1] if len(args) > 1 else kwargs["t"]))


def _grid_nodes(tr, grid):
    tr.count("radial_eig.grid_nodes", grid.n)
    return grid


def _channel(tr, vals):
    tr.count("radial_eig.states", vals.size)
    tr.count("radial_eig.nonempty_channels", vals.size > 0)
    return vals


def _eigs(tr, vals):
    tr.count("pauli.nonempty_blocks", vals.size > 0)
    return vals


def _splu(tr, lu):
    return _CountingLU(lu, tr)


def _minimize(tr, res):
    tr.count("pauli.minimize_evals", res.estimate.meta["evaluations"])
    return res


def _targets():
    """(module, attribute, span name, on_call, on_result) for every traced function."""
    from scottlab import cli, expansion, multiscale, pauli, radial_eig, tf, weyl

    return [
        (tf, "solve_tf_atom", "tf.solve_tf_atom", None, None),
        (tf, "shoot_slope", "tf.shoot_slope", None, None),
        (tf, "equation_residual", "tf.equation_residual", None, None),
        (tf, "tf_energy_consistency", "tf.tf_energy_consistency", None, None),
        (tf, "rebuild_solution", "tf.rebuild_solution", None, None),
        (tf.TFSolution, "phi", None, _phi_points, None),
        (weyl, "weyl_integral", "weyl.weyl_integral", None, None),
        (radial_eig, "trace_neg", "radial_eig.trace_neg", None, None),
        (radial_eig, "localized_trace_neg", "radial_eig.localized_trace_neg", None, None),
        (radial_eig, "auto_grid", "radial_eig.auto_grid", None, None),
        (radial_eig, "make_grid", "radial_eig.make_grid", None, _grid_nodes),
        (radial_eig, "build_channel", "radial_eig.build_channel", None, None),
        (radial_eig, "negative_eigenvalues", "radial_eig.negative_eigenvalues", None, _channel),
        (pauli, "pauli_trace_neg", "pauli.pauli_trace_neg", None, None),
        (pauli, "block_matrix", "pauli.block_matrix", None, None),
        (pauli, "inertia_below", "pauli.inertia_below", None, None),
        (pauli, "eigs_below", "pauli.eigs_below", None, _eigs),
        (pauli, "splu", "pauli.splu", None, _splu),
        (pauli, "scott_functional_parts", "pauli.scott_functional_parts", None, None),
        (pauli, "field_energy", "pauli.field_energy", None, None),
        (pauli, "minimize_scott", "pauli.minimize_scott", None, _minimize),
        (multiscale, "partition_check", "multiscale.partition_check", None, None),
        (expansion, "expansion_sweep", "expansion.expansion_sweep", None, None),
        (cli, "write_csv", "cli.write_csv", None, None),
        (cli, "write_sidecar", "cli.write_sidecar", None, None),
    ]


def install(tr: tracing.Tracer) -> None:
    """Patch every traced function; one that no longer exists is reported and skipped."""
    for owner, attr, span, on_call, on_result in _targets():
        if not hasattr(owner, attr):
            print(f"perfbench: {owner.__name__}.{attr} not found, not traced",
                  file=sys.stderr)
            continue
        tr.patch(owner, attr, span, on_result=on_result, on_call=on_call,
                 aliases_in=PACKAGE)


def metrics(spans, counters, passes: int, overhead_pct: float) -> dict:
    """Per-layer metrics per traced pass, keyed as in METRICS."""
    calls = Counter(s.name for s in spans)
    selfs = tracing.self_times(spans)
    by_id = {s.id: s for s in spans}

    def n(*names):
        return sum(calls[x] for x in names)

    def t(*names):
        return tracing.outermost_total(spans, names)

    def ratio(num, den):
        return num / den if den else 0.0

    eigs = n("pauli.eigs_below")
    inertia_in_eigs = sum(1 for s in spans if s.name == "pauli.inertia_below"
                          and s.parent in by_id
                          and by_id[s.parent].name == "pauli.eigs_below")
    channel_solves = n("radial_eig.negative_eigenvalues")
    raw = {
        "tf.solve_calls": n("tf.solve_tf_atom"),
        "tf.solve_s": t("tf.solve_tf_atom"),
        "tf.shoot_s": t("tf.shoot_slope"),
        "tf.residual_s": t("tf.equation_residual"),
        "tf.energy_report_s": t("tf.tf_energy_consistency"),
        "tf.rebuild_calls": n("tf.rebuild_solution"),
        "tf.rebuild_s": t("tf.rebuild_solution"),
        "tf.phi_calls": counters.get("tf.phi_calls", 0),
        "tf.phi_points": counters.get("tf.phi_points", 0),
        "weyl.integral_calls": n("weyl.weyl_integral"),
        "weyl.integral_s": t("weyl.weyl_integral"),
        "radial_eig.trace_calls": n("radial_eig.trace_neg", "radial_eig.localized_trace_neg"),
        "radial_eig.trace_s": t("radial_eig.trace_neg", "radial_eig.localized_trace_neg"),
        "radial_eig.grid_nodes": counters.get("radial_eig.grid_nodes", 0),
        "radial_eig.grid_s": t("radial_eig.auto_grid", "radial_eig.make_grid"),
        "radial_eig.channel_solves": channel_solves,
        "radial_eig.channel_s": t("radial_eig.negative_eigenvalues"),
        "radial_eig.build_s": t("radial_eig.build_channel"),
        "radial_eig.states": counters.get("radial_eig.states", 0),
        "pauli.trace_calls": n("pauli.pauli_trace_neg"),
        "pauli.trace_s": t("pauli.pauli_trace_neg"),
        "pauli.blocks": n("pauli.block_matrix"),
        "pauli.assembly_s": t("pauli.block_matrix"),
        "pauli.inertia_lu": n("pauli.inertia_below"),
        "pauli.inertia_s": t("pauli.inertia_below"),
        "pauli.eigs_calls": eigs,
        "pauli.eigs_self_s": sum(selfs[s.id] for s in spans if s.name == "pauli.eigs_below"),
        "pauli.lu_factorizations": n("pauli.splu"),
        "pauli.lu_s": t("pauli.splu"),
        "pauli.arpack_solves": counters.get("pauli.arpack_solves", 0),
        # eigs_below makes one inertia count itself; the rest are bisection
        "pauli.fallback_lu": inertia_in_eigs - eigs,
        "pauli.functional_evals": n("pauli.scott_functional_parts"),
        "pauli.functional_s": t("pauli.scott_functional_parts"),
        "pauli.field_energy_s": t("pauli.field_energy"),
        "pauli.minimize_evals": counters.get("pauli.minimize_evals", 0),
        "pauli.minimize_s": t("pauli.minimize_scott"),
        "cli.invocations": n("cli.process"),
        "cli.process_s": t("cli.process"),
        "cli.import_s": t("cli.import"),
        "cli.write_s": t("cli.write_csv", "cli.write_sidecar"),
        "multiscale.partition_checks": n("multiscale.partition_check"),
        "multiscale.partition_s": t("multiscale.partition_check"),
        "expansion.sweep_s": t("expansion.expansion_sweep"),
    }
    out = {k: v / passes for k, v in raw.items()}
    # ratios are not per pass
    out["radial_eig.nonempty_channel_ratio"] = ratio(
        counters.get("radial_eig.nonempty_channels", 0), channel_solves)
    out["pauli.nonempty_block_ratio"] = ratio(counters.get("pauli.nonempty_blocks", 0), eigs)
    out["trace.overhead_pct"] = overhead_pct
    return {name: {"value": float(out[name]), "unit": unit} for name, unit, _ in METRICS}
