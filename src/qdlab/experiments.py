"""Experiment configs, dispatch, and artifact output.

Configs are JSON documents; frequencies are strings (decimal or the
symbolic tags understood by parse_frequency) so precision survives the
round trip.  Identical config and seed give byte-identical CSV output: all
randomness flows through a seeded generator and floats are printed with 17
significant digits.
"""

import hashlib
import itertools
import json
import math
import os
import time
from dataclasses import dataclass

import numpy as np

from . import cocycle as cc
from . import covering as cov
from . import equidistribution as eq
from . import remainder_sets as brs
from . import transport as tp
from .arithmetic import parse_frequency
from .torus import Shift, SkewShift, TorusPoint


class ConfigError(ValueError):
    """Invalid configuration, carrying the offending field path."""

    def __init__(self, path, message):
        super().__init__(f"{path}: {message}")
        self.path = path


@dataclass
class ResultRecord:
    digest: str
    header: list
    rows: list
    summary: dict
    passed: bool
    wall_time: float
    output: str = None


def config_digest(config):
    """sha256 of the canonical (sorted-key) JSON; reorder-invariant."""
    canon = json.dumps(config, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(canon.encode()).hexdigest()


def _fmt(value):
    if isinstance(value, float):
        return format(value, ".17g")
    return str(value)


def write_csv(path, header, rows):
    with open(path, "w", newline="\n") as fh:
        fh.write(",".join(header) + "\n")
        for row in rows:
            fh.write(",".join(_fmt(v) for v in row) + "\n")


def _get(config, path, default=KeyError, kind=None):
    cur = config
    for part in path.split("."):
        if not isinstance(cur, dict) or part not in cur:
            if default is KeyError:
                raise ConfigError(path, "missing required field")
            return default
        cur = cur[part]
    if kind is not None and (not isinstance(cur, kind)
                             or kind is int and isinstance(cur, bool)):
        raise ConfigError(path, f"expected {kind.__name__}")
    return cur


def _parse_map(config):
    kind = _get(config, "map.kind", kind=str)
    if kind == "shift":
        alpha = _get(config, "map.alpha")
        tags = alpha if isinstance(alpha, list) else [alpha]
        if not tags:
            raise ConfigError("map.alpha", "need at least one frequency")
        freqs = [_frequency("map.alpha", t) for t in tags]
        spec = Shift(TorusPoint(tuple(float(f) for f in freqs)))
        return {"kind": "shift", "freqs": freqs, "spec": spec, "d": len(freqs)}
    if kind == "skew":
        alpha = _get(config, "map.alpha")
        if isinstance(alpha, list):
            raise ConfigError("map.alpha", "skew map takes a scalar frequency")
        d = _positive_int(config, "map.d", 2)
        freq = _frequency("map.alpha", alpha)
        return {"kind": "skew", "freqs": freq,
                "spec": SkewShift(float(freq), d), "d": d}
    raise ConfigError("map.kind", f"unknown map kind {kind!r}")


def _frequency(path, value):
    """parse_frequency(value), a ConfigError naming path when it fails."""
    if not isinstance(value, (str, int, float)):
        raise ConfigError(path, f"expected a frequency, got {value!r}")
    try:
        return parse_frequency(value)
    except ValueError as exc:
        raise ConfigError(path, str(exc)) from exc


def _parse_potential(config):
    if config.get("potential") is None:
        return cc.ZeroPotential()
    kind = _get(config, "potential.kind", kind=str)
    if kind == "zero":
        return cc.ZeroPotential()
    if kind == "cosine":
        return cc.CosinePotential(_number(config, "potential.coupling"))
    if kind == "tabulated":
        values = _get(config, "potential.values", kind=list)
        if not values or not all(_is_number(v) for v in values):
            raise ConfigError("potential.values",
                              f"expected finite numbers, got {values!r}")
        return cc.TabulatedPotential(values)
    raise ConfigError("potential.kind", f"unknown potential kind {kind!r}")


def _positive_int(config, path, default=KeyError):
    value = _get(config, path, default, kind=int)
    if value < 1:
        raise ConfigError(path, f"expected a positive integer, got {value!r}")
    return value


def _number(config, path, default=KeyError):
    """A finite number (bools excluded) as a float; None when absent and
    the default is None."""
    value = _get(config, path, default)
    if value is None and default is None:
        return None
    if not _is_number(value):
        raise ConfigError(path, f"expected a finite number, got {value!r}")
    return float(value)


def _times(config, path, minimum):
    """At least `minimum` positive finite times as floats."""
    values = _get(config, path, kind=list)
    if not all(_is_number(v) and v > 0 for v in values):
        raise ConfigError(path, f"times must be positive finite numbers, "
                                f"got {values!r}")
    if len(values) < minimum:
        raise ConfigError(path, f"need at least {minimum} times, "
                                f"got {len(values)}")
    if len(set(values)) != len(values):
        raise ConfigError(path, f"times must be distinct, got {values!r}")
    return [float(v) for v in values]


def _point(config, path, d):
    """A point of T^d as d finite coordinates; the origin when absent."""
    coords = _get(config, path, [0.0] * d, kind=list)
    if len(coords) != d:
        raise ConfigError(path, f"expected {d} coordinates, got {coords!r}")
    if not all(_is_number(c) for c in coords):
        raise ConfigError(path, f"coordinates must be finite numbers, "
                                f"got {coords!r}")
    return tuple(float(c) for c in coords)


def _bracket(config):
    """The test of a bracket [low, high] against params.require_low and
    require_high, read before the run so bad thresholds fail first."""
    lo = _number(config, "params.require_low", None)
    hi = _number(config, "params.require_high", None)
    return lambda low, high: ((lo is None or low >= lo)
                              and (hi is None or high <= hi))


def _require_seed(config):
    seed = config.get("seed")
    if isinstance(seed, bool) or not isinstance(seed, int):
        raise ConfigError("seed", "a seed is mandatory for randomized runs")
    return seed


# ---------------------------------------------------------------------------
# runners (one per experiment kind)
# ---------------------------------------------------------------------------

def _run_identities(config):
    s_max = _positive_int(config, "params.s_max", 4)
    r_max = _positive_int(config, "params.r_max", 5)
    header = ["s", "r", "order_s_minus_1", "order_s", "product", "ok"]
    rows = []
    passed = True
    for s in range(1, s_max + 1):
        for r in itertools.product(range(1, r_max + 1), repeat=s):
            v1, v2 = eq.comb_identity(s, r)
            prod = math.prod(r)
            ok = (v1 == 0) and (v2 == prod)
            passed &= ok
            rows.append((s, ";".join(map(str, r)), v1, v2, prod, int(ok)))
    return header, rows, {"cases": len(rows)}, passed


def _is_number(v):
    """A finite int or float (bools excluded)."""
    return (not isinstance(v, bool) and isinstance(v, (int, float))
            and math.isfinite(v))


def _is_count(v):
    """A positive integer; integral floats such as JSON's 1e4 count too."""
    return (not isinstance(v, bool) and isinstance(v, (int, float))
            and (isinstance(v, int) or v.is_integer()) and v >= 1)


def _sample_sizes(values):
    """params.n_grid as distinct positive ints; integral floats (1e4) pass."""
    if not values:
        raise ConfigError("params.n_grid", "grid must be nonempty")
    sizes = []
    for v in values:
        if not _is_count(v):
            raise ConfigError("params.n_grid",
                              f"sample sizes must be positive integers, "
                              f"got {v!r}")
        sizes.append(int(v))
    if len(set(sizes)) != len(sizes):
        raise ConfigError("params.n_grid", "sample sizes must be distinct")
    return sizes


def _run_discrepancy_decay(config):
    mp = _parse_map(config)
    n_grid = sorted(_sample_sizes(_get(config, "params.n_grid", kind=list)))
    y0 = _point(config, "params.y0", mp["d"])
    max_slope = _number(config, "params.max_slope", None)
    problem = eq.rate_fit_problem(n_grid)
    if problem is not None and max_slope is not None:
        raise ConfigError("params.n_grid",
                          f"a slope threshold needs a rate fit: {problem}")
    header = ["n", "d_n", "method", "error_bound"]
    rows = []
    samples = []
    for n in n_grid:
        rep = eq.orbit_discrepancy(mp["kind"], mp["freqs"], y0, n)
        rows.append((n, rep.d_n, rep.method, rep.error_bound))
        samples.append((n, rep.d_n))
    summary = {}
    passed = True
    if problem is None:
        fit = eq.decay_rate_fit(samples)
        summary = {"slope": fit.slope, "stderr": fit.stderr,
                   "delta_hat": fit.delta_hat}
        if max_slope is not None:
            passed = fit.slope <= max_slope
            summary["max_slope"] = max_slope
    return header, rows, summary, passed


def _run_covering(config):
    mp = _parse_map(config)
    radii = _get(config, "params.radii", kind=list)
    if not radii or not all(_is_number(r) and r > 0 for r in radii):
        raise ConfigError("params.radii",
                          f"radii must be positive numbers, got {radii!r}")
    radii = [float(r) for r in radii]
    center = _point(config, "params.center", mp["d"])
    mmax = _positive_int(config, "params.mmax", 100000)
    header = ["r", "m_cover", "grid", "certified"]
    rows = []
    passed = True
    results = []
    for r in radii:
        res = cov.covering_time(mp["spec"], r, center, mmax)
        rows.append((r, res.m_cover if res.covered else -1, res.grid,
                     "yes" if res.certified else "no"))
        passed &= res.covered
        results.append(res)
    summary = {}
    if passed and cov.fit_problem(radii) is None:
        summary["slope"] = cov.covering_slope(results)
    return header, rows, summary, passed


def _run_brs_remainder(config):
    variant = _get(config, "params.variant", kind=str)
    nmax = _positive_int(config, "params.nmax")
    if variant == "interval":
        paths, shape = ("params.alpha",), ()
        transfer = brs.interval_transfer
    elif variant == "parallelogram":
        paths = ("params.alpha1", "params.alpha2")
        shape = (_positive_int(config, "params.m"),
                 _get(config, "params.l1", kind=int),
                 _get(config, "params.l2", kind=int))
        transfer = brs.parallelogram_transfer
    else:
        raise ConfigError("params.variant", f"unknown variant {variant!r}")
    alpha_vec = [float(_frequency(path, _get(config, path))) for path in paths]
    q = _get(config, "params.q", kind=int)
    p = _get(config, "params.p", kind=int)
    try:
        tf = transfer(*alpha_vec, *shape, q, p)
    except ValueError as exc:
        # a degenerate set: |q alpha - p|, or the parallelogram's base
        # length |q v1/v2 - p|, outside (0, 1), or a spanning v2 = 0
        raise ConfigError("params.q", str(exc)) from exc
    if _get(config, "params.x0", None) is None:
        rng = np.random.default_rng(_require_seed(config))
        x0 = rng.random(len(alpha_vec)).tolist()
    else:
        x0 = _point(config, "params.x0", len(alpha_vec))
    sup = brs.remainder_sup(tf.membership, tf.volume, alpha_vec,
                            np.asarray(x0, dtype=np.float64), nmax)
    bound = 2.0 * tf.bound
    passed = sup <= bound
    header = ["nmax", "remainder_sup", "bound", "ok"]
    rows = [(nmax, sup, bound, int(passed))]
    return header, rows, {"sup": sup, "bound": bound}, passed


def _energy_grid(values):
    """params.energies as (lo, hi, count): finite lo <= hi, count >= 1."""
    if len(values) != 3:
        raise ConfigError("params.energies",
                          f"expected [lo, hi, count], got {values!r}")
    lo, hi, count = values
    for v in (lo, hi):
        if not _is_number(v):
            raise ConfigError("params.energies",
                              f"energy bounds must be finite numbers, "
                              f"got {v!r}")
    if lo > hi:
        raise ConfigError("params.energies",
                          f"lower bound {lo!r} exceeds upper bound {hi!r}")
    if not _is_count(count):
        raise ConfigError("params.energies",
                          f"count must be a positive integer, got {count!r}")
    return float(lo), float(hi), int(count)


def _run_lyapunov_scan(config):
    mp = _parse_map(config)
    phi = _parse_potential(config)
    seed = _require_seed(config)
    lo, hi, count = _energy_grid(_get(config, "params.energies", kind=list))
    n = _positive_int(config, "params.n")
    phases = _positive_int(config, "params.phases")
    min_l = _number(config, "params.min_l", None)
    header = ["E", "lhat", "stderr", "lhat_grid", "n", "phases"]
    energies = [float(e) for e in np.linspace(lo, hi, count)]
    scan = cc.lyapunov_scan(mp["spec"], energies, n, phases,
                            [seed + i for i in range(count)], phi)
    rows = [(e, est.lhat, est.stderr, est.lhat_grid, n, phases)
            for e, est in zip(energies, scan)]
    worst = min(est.lhat for est in scan)
    passed = min_l is None or worst >= min_l
    return header, rows, {"min_lhat": worst}, passed


def _run_dt_integral(config):
    mp = _parse_map(config)
    phi = _parse_potential(config)
    t_list = _times(config, "params.t_list", 1)
    rho = _number(config, "params.rho")
    if not 0.0 < rho <= 1.0:
        raise ConfigError("params.rho",
                          f"product exponent must be in (0, 1], got {rho!r}")
    k_bound = _number(config, "params.k_bound")
    if k_bound < 4.0:
        raise ConfigError("params.k_bound",
                          f"energy bound must be >= 4, got {k_bound!r}")
    e_count = _get(config, "params.e_count", 201, kind=int)
    if e_count < 2:
        raise ConfigError("params.e_count",
                          f"need at least 2 energies, got {e_count!r}")
    theta = _point(config, "params.theta", mp["d"])
    max_ratio = _number(config, "params.max_ratio", None)
    header = ["T", "integral", "rho", "k_bound"]
    rows = []
    values = []
    for t in t_list:
        val, _ = cc.dt_integral(mp["spec"], TorusPoint(theta), t, rho,
                                e_count, k_bound, phi)
        rows.append((t, val, rho, k_bound))
        values.append(val)
    summary = {}
    passed = True
    if len(values) >= 2:
        # an integral that underflowed to 0 cannot show decay against it
        ratio = values[-1] / values[0] if values[0] > 0.0 else None
        summary["ratio"] = ratio
        if max_ratio is not None:
            passed = ratio is not None and ratio <= max_ratio
    return header, rows, summary, passed


def _run_transport_beta(config):
    mp = _parse_map(config)
    phi = _parse_potential(config)
    p = _number(config, "params.p", 2.0)
    if p <= 0.0:
        raise ConfigError("params.p", f"moment order must be positive, "
                                      f"got {p!r}")
    # running slopes over the last half of at least 8 times
    t_grid = _times(config, "params.t_grid", 8)
    theta = _point(config, "params.theta", mp["d"])
    within = _bracket(config)
    est = tp.beta_estimate(mp["spec"], TorusPoint(theta), phi, p, t_grid)
    header = ["beta_low", "beta_high", "p", "t_max"]
    rows = [(est.low, est.high, p, max(t_grid))]
    summary = {"beta_low": est.low, "beta_high": est.high}
    return header, rows, summary, within(est.low, est.high)


def _run_transport_xi(config):
    mp = _parse_map(config)
    phi = _parse_potential(config)
    taus = _get(config, "params.tau_levels", kind=list)
    if not taus or not all(_is_number(t) and 0.0 < t < 1.0 for t in taus):
        raise ConfigError("params.tau_levels",
                          f"levels must be numbers in (0, 1), got {taus!r}")
    taus = [float(t) for t in taus]
    if len(set(taus)) != len(taus):
        raise ConfigError("params.tau_levels",
                          f"levels must be distinct, got {taus!r}")
    theta = _point(config, "params.theta", mp["d"])
    # one running slope needs at least 3 times
    t_grid = _times(config, "params.t_grid", 3)
    within = _bracket(config)
    est = tp.xi_estimate(mp["spec"], TorusPoint(theta), phi, taus, t_grid)
    header = ["T", "front_l", "tau"]
    lead = sorted(taus)[0]
    rows = [(t, front, lead)
            for t, front in zip(sorted(t_grid), est.fronts[lead])]
    summary = {"xi_low": est.low, "xi_high": est.high}
    return header, rows, summary, within(est.low, est.high)


RUNNERS = {
    "identities": _run_identities,
    "discrepancy_decay": _run_discrepancy_decay,
    "covering": _run_covering,
    "brs_remainder": _run_brs_remainder,
    "lyapunov_scan": _run_lyapunov_scan,
    "dt_integral": _run_dt_integral,
    "transport_beta": _run_transport_beta,
    "transport_xi": _run_transport_xi,
}

EXPERIMENT_KINDS = {
    "identities": "exhaustive combinatorial identity checks",
    "discrepancy_decay": "orbit discrepancy versus N with a rate fit",
    "covering": "covering times over a radius list",
    "brs_remainder": "bounded remainder sup along a rotation orbit",
    "lyapunov_scan": "Lyapunov estimates over an energy grid",
    "dt_integral": "damped transfer-product integral versus T",
    "transport_beta": "moment growth exponent bracket",
    "transport_xi": "spreading front exponent bracket",
}


def _output(config):
    """The CSV path, checked before the run; None when the config has none."""
    path = config.get("output")
    if path is None:
        return None
    if not isinstance(path, str) or not path:
        raise ConfigError("output", f"expected a file path, got {path!r}")
    if os.path.isdir(path):
        raise ConfigError("output", f"{path!r} is a directory")
    parent = os.path.dirname(path) or "."
    if not os.path.isdir(parent):
        raise ConfigError("output", f"no directory {parent!r}")
    return path


def run_experiment(config):
    """Validates and executes a config; returns a ResultRecord."""
    if not isinstance(config, dict):
        raise ConfigError("", "config must be a JSON object")
    kind = _get(config, "experiment", kind=str)
    if kind not in RUNNERS:
        raise ConfigError("experiment", f"unknown experiment {kind!r}")
    output = _output(config)
    start = time.perf_counter()
    header, rows, summary, passed = RUNNERS[kind](config)
    wall = time.perf_counter() - start
    record = ResultRecord(config_digest(config), header, rows, summary,
                          passed, wall, output)
    if output is not None:
        write_csv(output, header, rows)
    return record


def load_config(path):
    try:
        with open(path) as fh:
            return json.load(fh)
    except (json.JSONDecodeError, UnicodeDecodeError) as exc:
        raise ConfigError("", f"invalid JSON: {exc}") from exc
