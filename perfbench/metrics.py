"""The metrics the benchmark reports; BENCHMARK.json lists the same names.

End-to-end metrics come from untraced passes.  Per-layer metrics come from
one traced pass and are read off the tracer by suffix: ``calls``,
``busy_s`` and ``self_s`` are span statistics, ``*_per_s`` is the matching
work counter divided by busy time, and every other name is a counter or a
maximum recorded by the wrappers.
"""

END_TO_END = [
    ("wall_s", "s", "lower"),
    ("setup_s", "s", "lower"),
    ("peak_rss_mb", "MB", "lower"),
]

EXPERIMENT_KINDS = ["discrepancy_decay", "covering", "brs_remainder",
                    "lyapunov_scan", "dt_integral", "transport_beta",
                    "transport_xi"]

_DISCREPANCY_METHODS = ["exact1d", "exact2d", "grid", "grid_anchored"]


def _span(name, *fields):
    units = {"calls": "count", "busy_s": "s", "self_s": "s"}
    better = {"busy_s": "lower", "self_s": "lower"}
    return [(f"{name}.{f}", units.get(f, "count"), better.get(f, "lower"))
            for f in fields]


PER_LAYER = (
    # torus
    _span("torus.step_array", "calls", "rows", "busy_s")
    + _span("cocycle.potential", "calls", "rows", "busy_s")
    + [("cocycle.potential.rows_per_call", "rows/call", "higher")]
    + _span("torus.inverse_step_array", "calls", "rows", "busy_s")
    + _span("covering.covering_time", "calls", "self_s")
    + _span("torus.step", "calls", "busy_s")
    + _span("torus.inverse_step", "calls", "busy_s")
    + _span("transport.build_hamiltonian", "calls", "sites", "busy_s")
    # arithmetic
    + _span("arithmetic.parse_frequency", "calls", "busy_s")
    # equidistribution
    + [m for method in _DISCREPANCY_METHODS for m in _span(
        f"equidistribution.discrepancy_box.{method}", "calls", "self_s")]
    + _span("equidistribution.orbit_grid_counts", "busy_s")
    + _span("equidistribution.orbit_point_set", "points", "busy_s")
    + _span("kernels.grid_discrepancy_2d", "calls", "band_cells", "busy_s")
    + [("kernels.grid_discrepancy_2d.band_cells_per_s", "1/s", "higher")]
    + _span("kernels.exact_discrepancy_1d", "points", "busy_s")
    + _span("kernels.shift_chunk", "rows", "busy_s")
    + _span("kernels.skew_chunk", "rows", "busy_s")
    # remainder sets
    + _span("remainder_sets.remainder_sup", "calls", "points", "busy_s")
    # cocycle
    + _span("kernels.cocycle_batch", "calls", "steps", "busy_s")
    + [("kernels.cocycle_batch.steps_per_s", "1/s", "higher")]
    + _span("kernels.cocycle_lognorms_all", "calls", "steps", "busy_s")
    + [("kernels.cocycle_lognorms_all.steps_per_s", "1/s", "higher")]
    + _span("cocycle.potential_sequence", "calls", "samples", "busy_s")
    + _span("cocycle.lyapunov_estimate", "self_s")
    + _span("cocycle.dt_integral", "self_s")
    # transport
    + _span("kernels.cheb_apply", "calls", "term_sites", "busy_s")
    + [("kernels.cheb_apply.term_sites_per_s", "1/s", "higher")]
    + _span("transport.evolve", "calls", "states", "self_s")
    + _span("transport.evolve_times", "calls", "states", "self_s")
    + _span("transport.averaged_profile", "calls", "states", "self_s",
            "nodes")
    + _span("transport.auto_box", "calls", "probes")
    + [("transport.auto_box.useful_ratio", "ratio", "higher"),
       ("transport.norm_defect.max", "1", "lower"),
       ("transport.boundary_mass.max", "1", "lower")]
    # experiments and the process
    + [m for kind in EXPERIMENT_KINDS
       for m in _span(f"experiments.{kind}", "busy_s")]
    + _span("experiments.write_csv", "bytes", "busy_s")
    + [("process.cpu_s", "s", "lower"),
       ("trace.overhead_s", "s", "lower"),
       ("trace.layer_share", "ratio", "higher")]
)

# Work counters that must repeat exactly between two traced runs at one
# seed; later changes may cite them.
WORK_COUNTERS = ("rows", "steps", "band_cells", "term_sites", "probes",
                 "nodes")

# Counters each workload is meant to exercise: a zero here means a wrapper
# is bound to a name the callers no longer look up.
EXERCISED = {
    "orbit_statistics": [
        "torus.inverse_step_array.rows",
        "equidistribution.discrepancy_box.exact1d.calls",
        "equidistribution.discrepancy_box.exact2d.calls",
        "equidistribution.discrepancy_box.grid.calls",
        "equidistribution.discrepancy_box.grid_anchored.calls",
        "equidistribution.orbit_point_set.points",
        "equidistribution.orbit_grid_counts.busy_s",
        "kernels.grid_discrepancy_2d.band_cells",
        "kernels.exact_discrepancy_1d.points",
        "kernels.shift_chunk.rows",
        "kernels.skew_chunk.rows",
        "remainder_sets.remainder_sup.points",
        "covering.covering_time.calls",
        "arithmetic.parse_frequency.calls",
        "experiments.write_csv.bytes",
    ],
    "cocycle_scan": [
        "torus.step_array.rows",
        "torus.inverse_step_array.rows",
        "cocycle.potential.rows",
        "kernels.cocycle_batch.steps",
        "kernels.cocycle_lognorms_all.steps",
        "cocycle.potential_sequence.samples",
        "arithmetic.parse_frequency.calls",
        "experiments.write_csv.bytes",
    ],
    "transport_exponents": [
        "torus.step.calls",
        "torus.inverse_step.calls",
        "cocycle.potential.rows",
        "transport.build_hamiltonian.sites",
        "kernels.cheb_apply.term_sites",
        "transport.evolve.states",
        "transport.evolve_times.states",
        "transport.averaged_profile.nodes",
        "transport.auto_box.probes",
        "arithmetic.parse_frequency.calls",
        "experiments.write_csv.bytes",
    ],
}

_WORK_FOR_RATE = {
    "kernels.grid_discrepancy_2d": "band_cells",
    "kernels.cocycle_batch": "steps",
    "kernels.cocycle_lognorms_all": "steps",
    "kernels.cheb_apply": "term_sites",
}


def layer_value(tracer, name):
    """The per-layer metric `name`, read from a traced pass."""
    base, _, field = name.rpartition(".")
    if field in ("calls", "busy_s", "self_s"):
        calls, busy, self_time = tracer.stats.get(base, (0, 0.0, 0.0))
        return {"calls": calls, "busy_s": busy, "self_s": self_time}[field]
    if name.endswith("_per_s"):
        busy = tracer.stats.get(base, (0, 0.0, 0.0))[1]
        work = tracer.counts.get(f"{base}.{_WORK_FOR_RATE[base]}", 0)
        return work / busy if busy > 0 else 0.0
    if name == "cocycle.potential.rows_per_call":
        calls = tracer.stats.get("cocycle.potential", (0,))[0]
        return tracer.counts.get("cocycle.potential.rows", 0) / calls \
            if calls else 0.0
    if name == "transport.auto_box.useful_ratio":
        probes = tracer.counts.get("transport.auto_box.probes", 0)
        calls = tracer.stats.get("transport.auto_box", (0,))[0]
        return calls / probes if probes else 0.0
    if name in tracer.maxima:
        return tracer.maxima[name]
    return tracer.counts.get(name, 0)
