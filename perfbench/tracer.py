"""Per-layer tracing from outside the package.

Wrappers are installed at the names the callers look up (a module-level
``from x import f`` binds its own name, so ``qdlab.cocycle.step_array`` is
wrapped rather than ``qdlab.torus.step_array``).  Each wrapped call is a
span; spans are aggregated in memory by (parent, name) and written out only
when the run ends, so a traced pass does no I/O of its own.  A span's self
time is its duration minus the time covered by its child spans.

``orbit_chunks`` is a generator, so it is timed through its callers
(``orbit_point_set`` and ``orbit_grid_counts``) and the chunk kernels.
"""

import functools
import os
import time
from collections import defaultdict

import numpy as np


def _rows(pts):
    shape = np.shape(pts)
    return shape[0] if len(shape) == 2 else 1


def _discrepancy_name(args, result):
    method = result.method
    if method == "exact":
        return f"equidistribution.discrepancy_box.exact{args[0].d}d"
    if method.startswith("grid-anchored"):
        return "equidistribution.discrepancy_box.grid_anchored"
    return "equidistribution.discrepancy_box.grid"


class Tracer:
    """Span and counter store for one traced pass."""

    def __init__(self):
        self.stats = defaultdict(lambda: [0, 0.0, 0.0])   # calls, busy, self
        self.edges = defaultdict(lambda: [0, 0.0])        # calls, busy
        self.counts = defaultdict(int)
        self.maxima = defaultdict(float)
        self._stack = []
        self._restore = []

    # -- spans ----------------------------------------------------------

    def span(self, name, fn, count=None, relabel=None, work=None):
        """Wraps fn in a span named name, or relabel(args, result).

        work maps counter names to functions of the call's arguments whose
        values are added to '<name>.<counter>'; count(tracer, label,
        parent, args, result) records anything else.
        """
        stack = self._stack
        clock = time.perf_counter
        stats, edges, counts = self.stats, self.edges, self.counts
        work = [(f"{name}.{key}", fn_) for key, fn_ in (work or {}).items()]

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            frame = [0.0, name]
            parent = stack[-1][1] if stack else None
            stack.append(frame)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                dur = clock() - start
                stack.pop()
                if stack:
                    stack[-1][0] += dur
            label = name if relabel is None else relabel(args, result)
            st = stats[label]
            st[0] += 1
            st[1] += dur
            st[2] += dur - frame[0]
            edge = edges[(parent, label)]
            edge[0] += 1
            edge[1] += dur
            for key, fn_ in work:
                counts[key] += fn_(args)
            if count is not None:
                count(self, label, parent, args, result)
            return result

        return wrapper

    def call(self, name, fn, *args):
        """Runs fn(*args) as one span (used for the experiment roots)."""
        return self.span(name, fn)(*args)

    # -- installation -----------------------------------------------------

    def patch(self, owner, attr, name, count=None, relabel=None, **work):
        original = getattr(owner, attr)
        self._restore.append((owner, attr, original))
        setattr(owner, attr, self.span(name, original, count, relabel, work))

    def uninstall(self):
        while self._restore:
            owner, attr, original = self._restore.pop()
            setattr(owner, attr, original)

    def install(self):
        """Wraps every layer boundary the per-layer metrics read."""
        import qdlab.arithmetic as ar
        import qdlab.backend as backend
        import qdlab.cocycle as cc
        import qdlab.covering as cov
        import qdlab.equidistribution as eq
        import qdlab.experiments as ex
        import qdlab.remainder_sets as brs
        import qdlab.transport as tp

        k = backend.kernels
        self.patch(cc, "step_array", "torus.step_array",
                   rows=lambda a: _rows(a[1]))
        for mod in (cov, cc):
            self.patch(mod, "inverse_step_array", "torus.inverse_step_array",
                       rows=lambda a: _rows(a[1]))
        self.patch(tp, "step", "torus.step")
        self.patch(tp, "inverse_step", "torus.inverse_step")
        for cls in (cc.CosinePotential, cc.ZeroPotential,
                    cc.TabulatedPotential, cc.PiecewiseHolderPotential):
            self.patch(cls, "__call__", "cocycle.potential",
                       rows=lambda a: _rows(a[1]))
        for mod in (ex, ar):
            self.patch(mod, "parse_frequency", "arithmetic.parse_frequency")

        self.patch(k, "shift_chunk", "kernels.shift_chunk",
                   rows=lambda a: int(a[2]))
        self.patch(k, "skew_chunk", "kernels.skew_chunk",
                   rows=lambda a: int(a[2]))
        self.patch(k, "exact_discrepancy_1d", "kernels.exact_discrepancy_1d",
                   points=lambda a: len(a[0]))
        self.patch(k, "grid_discrepancy_2d", "kernels.grid_discrepancy_2d",
                   band_cells=lambda a: _band_cells(a[0]))
        self.patch(k, "cocycle_batch", "kernels.cocycle_batch",
                   steps=lambda a: int(np.size(a[0])))
        self.patch(k, "cocycle_lognorms_all", "kernels.cocycle_lognorms_all",
                   steps=lambda a: len(a[0]))
        self.patch(k, "cheb_apply", "kernels.cheb_apply",
                   term_sites=lambda a: len(a[2]) * len(a[3]))

        self.patch(eq, "discrepancy_box", "equidistribution.discrepancy_box",
                   relabel=_discrepancy_name)
        self.patch(eq, "discrepancy_from_grid_counts",
                   "equidistribution.discrepancy_box.grid")
        self.patch(eq, "orbit_point_set", "equidistribution.orbit_point_set",
                   points=lambda a: int(a[3]))
        self.patch(eq, "orbit_grid_counts",
                   "equidistribution.orbit_grid_counts")
        self.patch(brs, "remainder_sup", "remainder_sets.remainder_sup",
                   points=lambda a: int(a[4]))
        self.patch(cov, "covering_time", "covering.covering_time")

        self.patch(cc, "potential_sequence", "cocycle.potential_sequence",
                   samples=lambda a: int(a[2]))
        self.patch(cc, "lyapunov_estimate", "cocycle.lyapunov_estimate")
        self.patch(cc, "dt_integral", "cocycle.dt_integral")

        self.patch(tp, "build_hamiltonian", "transport.build_hamiltonian",
                   sites=lambda a: 2 * int(a[3]) + 1)
        self.patch(tp, "evolve", "transport.evolve", _count_evolve)
        self.patch(tp, "evolve_times", "transport.evolve_times",
                   _count_evolve_times)
        self.patch(tp, "averaged_profile", "transport.averaged_profile")
        self.patch(tp, "auto_box", "transport.auto_box")

        self.patch(ex, "write_csv", "experiments.write_csv", _count_csv)


def _band_cells(counts):
    g = np.shape(counts)[0]
    return g * g * (g + 1) // 2


def _count_evolve(tracer, label, parent, args, result):
    tracer.counts["transport.evolve.states"] += 1
    if parent == "transport.auto_box":
        tracer.counts["transport.auto_box.probes"] += 1


def _count_evolve_times(tracer, label, parent, args, result):
    states = len(result)
    tracer.counts["transport.evolve_times.states"] += states
    if parent == "transport.averaged_profile":
        tracer.counts["transport.averaged_profile.states"] += states
        tracer.counts["transport.averaged_profile.nodes"] += states
    for st in result:
        tracer.maxima["transport.norm_defect.max"] = max(
            tracer.maxima["transport.norm_defect.max"], st.norm_defect)
        tracer.maxima["transport.boundary_mass.max"] = max(
            tracer.maxima["transport.boundary_mass.max"], st.boundary_mass)
        if not st.valid:
            tracer.counts["transport.invalid_states"] += 1


def _count_csv(tracer, label, parent, args, result):
    tracer.counts["experiments.write_csv.bytes"] += os.path.getsize(args[0])
