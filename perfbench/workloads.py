"""The benchmark's workloads: fixed lists of experiment configs.

Every random input (orbit start points, phases, covering centres, brs
``x0`` and the Lyapunov seeds) is drawn here from the workload seed with
numpy's PCG64, so one seed always gives the same configs and qdlab itself
only ever sees the generated configs.  ``small=True`` gives the reduced
sizes the count tests use; the benchmark always runs the full sizes.

Why each workload exists, and which layer metrics it should move, is in
``NOTES.md`` beside this file.
"""

import math

import numpy as np

DEFAULT_SEED = 0
GOLDEN = "golden"
PAIR = ["sqrt2m1", "sqrt3m1"]
HERMAN_FLOOR = math.log(3.0) - 0.05


def _geo(lo, hi, count):
    return [float(t) for t in np.geomspace(lo, hi, count)]


def _point(rng, d):
    return [float(x) for x in rng.random(d)]


def _decay(map_, n_grid, y0, max_slope=None):
    params = {"n_grid": n_grid, "y0": y0}
    if max_slope is not None:
        params["max_slope"] = max_slope
    return {"experiment": "discrepancy_decay", "map": map_, "params": params}


def orbit_statistics(rng, small=False):
    """Discrepancy scans on every method, covering, bounded remainders."""
    shift1 = {"kind": "shift", "alpha": GOLDEN}
    pair = {"kind": "shift", "alpha": PAIR}
    skew2 = {"kind": "skew", "alpha": GOLDEN, "d": 2}
    skew3 = {"kind": "skew", "alpha": GOLDEN, "d": 3}
    exact_2d = [2, 4, 8, 16, 32, 64, 128, 200] if small else \
        [2, 4, 8, 16, 32, 64, 128, 256]
    # the last pair scale is above the exact-scan limit, so it is counted
    # on the 1024-cell grid with a certified error bound
    pair_grid = [] if small else [8192]
    return [
        _decay(shift1, [1000, 3162, 10000, 31623, 100000] if small else
               [10000, 31623, 100000, 316228, 1000000, 4000000],
               _point(rng, 1), -0.85),
        _decay(pair, exact_2d + pair_grid, _point(rng, 2), -0.6),
        _decay(skew2, exact_2d, _point(rng, 2), -0.25),
        _decay(skew3, [2000 if small else 20000], _point(rng, 3)),
        {"experiment": "covering", "map": pair,
         "params": {"radii": [0.1, 0.06] if small else [0.05, 0.03],
                    "center": _point(rng, 2), "mmax": 200000}},
        {"experiment": "covering", "map": skew2,
         "params": {"radii": [0.1, 0.06] if small else [0.05, 0.03],
                    "center": _point(rng, 2), "mmax": 200000}},
        {"experiment": "brs_remainder",
         "params": {"variant": "interval", "alpha": GOLDEN, "q": 1, "p": 0,
                    "nmax": 200000 if small else 30000000,
                    "x0": _point(rng, 1)}},
        {"experiment": "brs_remainder",
         "params": {"variant": "parallelogram", "alpha1": PAIR[0],
                    "alpha2": PAIR[1], "m": 1, "l1": 0, "l2": 0, "q": 1,
                    "p": 0, "nmax": 100000 if small else 10000000,
                    "x0": _point(rng, 2)}},
    ]


def cocycle_scan(rng, small=False):
    """Lyapunov exponents over an energy grid and a long DT integral."""
    shift1 = {"kind": "shift", "alpha": GOLDEN}
    cosine = {"kind": "cosine", "coupling": 3.0}
    return [
        {"experiment": "lyapunov_scan", "map": shift1, "potential": cosine,
         "params": {"energies": [-8.0, 8.0, 3 if small else 9],
                    "n": 1000 if small else 10000, "phases": 64,
                    "min_l": HERMAN_FLOOR},
         "seed": int(rng.integers(1 << 31))},
        {"experiment": "dt_integral", "map": shift1, "potential": cosine,
         "params": {"t_list": [100.0, 1e4] if small else [100.0, 1e4, 1e6],
                    "rho": 0.5, "k_bound": 9.0, "e_count": 201,
                    "theta": _point(rng, 1), "max_ratio": 0.1}},
    ]


def transport_exponents(rng, small=False):
    """Moment and front exponents, free and localized."""
    shift1 = {"kind": "shift", "alpha": GOLDEN}
    zero = {"kind": "zero"}
    cosine = {"kind": "cosine", "coupling": 3.0}
    theta = _point(rng, 1)

    def xi(phi, t_grid, phase, taus, **require):
        return {"experiment": "transport_xi", "map": shift1, "potential": phi,
                "params": {"tau_levels": taus, "t_grid": t_grid,
                           "theta": phase, **require}}

    # the localized front costs 3-4 s at most phases but up to twice that
    # at some: two short scans at two phases keep the pass time steady
    localized = [xi(cosine, _geo(30.0, 50.0 if small else 80.0, 9),
                    _point(rng, 1), [0.25, 0.5], require_high=0.1)
                 for _ in range(2)]
    return [
        {"experiment": "transport_beta", "map": shift1, "potential": zero,
         "params": {"p": 2.0, "t_grid": _geo(5.0, 200.0 if small else 2000.0,
                                             12),
                    "theta": theta, "require_low": 0.95,
                    "require_high": 1.05}},
        # at the phase 0 of the acceptance suite: at other phases the
        # running-slope upper end exceeds 0.1 (0.15 at phase 0.647 for T up
        # to 1e4 and 3e4), see NOTES.md
        {"experiment": "transport_beta", "map": shift1, "potential": cosine,
         "params": {"p": 2.0, "t_grid": _geo(5.0, 1000.0 if small else 1e4,
                                             12),
                    "theta": [0.0], "require_high": 0.1}},
        *localized,
        xi(zero, _geo(20.0, 80.0 if small else 160.0, 8), theta, [0.4, 0.6],
           require_low=0.9, require_high=1.1),
    ]


WORKLOADS = {
    "orbit_statistics": orbit_statistics,
    "cocycle_scan": cocycle_scan,
    "transport_exponents": transport_exponents,
}


def make_configs(workload, seed, small=False):
    """The workload's config list for one seed."""
    return WORKLOADS[workload](np.random.default_rng(seed), small)


def frequency_tags(config):
    """Every frequency tag a config names, for validation at set-up."""
    tags = []
    alpha = config.get("map", {}).get("alpha")
    if alpha is not None:
        tags.extend(alpha if isinstance(alpha, list) else [alpha])
    params = config.get("params", {})
    tags.extend(params[k] for k in ("alpha", "alpha1", "alpha2")
                if k in params)
    return tags
