"""Acceptance suite: the quantitative gates the package must pass.

Each criterion is a standalone function returning (passed, detail); the
suite prints one line per criterion with its wall time and fails on any
red.  Heavier fits (discrepancy decay rates) are cached and shared between
criteria that consume the same dynamics.
"""

import functools
import math
import os
import tempfile
import time

import numpy as np

from . import cocycle as cc
from . import covering as cov
from . import equidistribution as eq
from . import remainder_sets as brs
from . import transport as tp
from .arithmetic import liouville_construct, parse_frequency
from .experiments import run_experiment
from .torus import PointSet, Shift, SkewShift, TorusPoint

GOLDEN = "golden"
PAIR = ("sqrt2m1", "sqrt3m1")
N_GRID_LONG = (1000, 3162, 10000, 31623, 100000, 316228, 1000000)
N_GRID_SHORT = (1000, 3162, 10000, 31623, 100000)


def _freqs(tags):
    return [parse_frequency(t) for t in tags]


def _shift_spec(tags):
    fr = _freqs(tags)
    return Shift(TorusPoint(tuple(float(f) for f in fr))), fr


# ---------------------------------------------------------------------------
# shared discrepancy fits
# ---------------------------------------------------------------------------

@functools.lru_cache(maxsize=None)
def _decay_fit(kind, tags, n_grid):
    """Decay-rate fit of D_N over n_grid along the orbit of the origin.

    Shift orbits live on T^len(tags); the skew orbits here are on T^2 and
    take the one frequency tags[0].
    """
    freqs = _freqs(tags)
    if kind == "skew":
        freqs, y0 = freqs[0], (0.0, 0.0)
    else:
        y0 = (0.0,) * len(tags)
    return eq.decay_rate_fit(
        [(n, eq.orbit_discrepancy(kind, freqs, y0, n).d_n) for n in n_grid])


# ---------------------------------------------------------------------------
# criteria
# ---------------------------------------------------------------------------

def criterion_1():
    """Exhaustive combinatorial identities, s <= 4, parts <= 5."""
    rec = run_experiment({"experiment": "identities",
                          "params": {"s_max": 4, "r_max": 5}})
    return rec.passed, f"{rec.summary['cases']} cases, all exact"


def criterion_2():
    """Van der Corput and ETK inequality oracles."""
    rng = np.random.default_rng(20260823)
    worst_gap = math.inf
    for _ in range(1000):
        n = int(rng.integers(32, 257))
        u = np.exp(2j * math.pi * rng.random(n))
        h = int(rng.integers(1, n + 1))
        lhs, rhs = eq.vdc_inequality(u, h)
        worst_gap = min(worst_gap, rhs - lhs)
        if lhs > rhs + 1e-9:
            return False, f"van der Corput violated: {lhs} > {rhs}"

    golden = _freqs([GOLDEN])
    pair = _freqs(PAIR)
    combos = []
    for n in (100, 500, 2000, 10000):
        ps = eq.orbit_point_set("shift", golden, (0.0,), n)
        for h0 in (4, 16):
            combos.append((ps, h0))
    for n in (128, 256, 400):
        ps = eq.orbit_point_set("shift", pair, (0.0, 0.0), n)
        for h0 in (4, 16):
            combos.append((ps, h0))
    for n in (200, 500):
        ps = eq.orbit_point_set("skew", parse_frequency(GOLDEN),
                                (0.0, 0.0), n)
        for h0 in (8, 32):
            combos.append((ps, h0))
    for n in (100, 300):
        pts = rng.random((n, 1))
        combos.append((PointSet(pts), 16))
        pts2 = rng.random((n, 2))
        combos.append((PointSet(pts2), 8))
    etk_margin = math.inf
    d_ns = {}     # D_N does not depend on h0: one scan per point set
    for ps, h0 in combos:
        if id(ps) not in d_ns:
            d_ns[id(ps)] = eq.discrepancy_box(ps).d_n
        d_n = d_ns[id(ps)]
        bound = eq.etk_bound(ps, h0)
        etk_margin = min(etk_margin, bound - d_n)
        if d_n > bound + 1e-9:
            return False, f"ETK violated: D={d_n} > bound={bound}"
    return True, (f"vdc min slack {worst_gap:.3g} on 1000 draws; "
                  f"ETK min slack {etk_margin:.3g} on {len(combos)} combos")


def criterion_3():
    """Shift discrepancy decay: golden d=1 and the quadratic pair d=2."""
    fit1 = _decay_fit("shift", (GOLDEN,), N_GRID_LONG)
    fit2 = _decay_fit("shift", PAIR, N_GRID_LONG)
    ok = fit1.slope <= -0.85 and fit2.slope <= -0.6
    return ok, (f"d1 slope {fit1.slope:.3f} (need <= -0.85, "
                f"stderr {fit1.stderr:.3f}); d2 slope {fit2.slope:.3f} "
                f"(need <= -0.6, stderr {fit2.stderr:.3f})")


def criterion_4():
    """Skew-shift decay at golden alpha and at planted Liouville scales."""
    fit = _decay_fit("skew", (GOLDEN,), N_GRID_SHORT)
    ok = fit.slope <= -0.25
    detail = f"skew d2 golden slope {fit.slope:.3f} (need <= -0.25)"
    freq, cf = liouville_construct(3.0, 4, initial_quotient=4)
    scales = sorted({q for q, _ in cf.planted} | {cf.planted[-1][0]})
    scales = [q for q in scales if 2 <= q <= 4_000_000]
    checks = []
    for q in scales:
        rep = eq.orbit_discrepancy("skew", freq, (0.0, 0.0), q)
        thr = q ** -0.05
        checks.append((q, rep.d_n, thr))
        ok &= rep.d_n <= thr
    detail += "; liouville " + ", ".join(
        f"D_{q}={d:.3g}<={t:.3g}" for q, d, t in checks)
    return ok, detail


def criterion_5():
    """Bounded remainder sets: sup bounds and Fourier identities."""
    rng = np.random.default_rng(7)
    alpha = float(parse_frequency(GOLDEN))
    tf = brs.interval_transfer(alpha, 1, 0)
    sup_i = brs.remainder_sup(tf.membership, tf.volume, [alpha],
                              rng.random(1), 1000000)
    ok = sup_i <= 2.0 * tf.bound

    a1, a2 = (float(f) for f in _freqs(PAIR))
    tfp = brs.parallelogram_transfer(a1, a2, 1, 0, 0, 1, 0)
    sup_p = brs.remainder_sup(tfp.membership, tfp.volume, [a1, a2],
                              rng.random(2), 100000)
    ok &= sup_p <= 2.0 * tfp.bound

    worst = 0.0
    for m in range(1, 17):
        lhs = tf.fourier(m) * (1.0 - np.exp(-2j * math.pi * m * alpha))
        rhs = brs.interval_indicator_fourier(tf.volume, m)
        worst = max(worst, abs(lhs - rhs))
    modes = [(m1, m2) for m1 in range(0, 3) for m2 in range(-3, 4)
             if (m1, m2) > (0, 0)][:16]
    for m1, m2 in modes:
        phase = m1 * a1 + m2 * a2
        lhs = tfp.fourier((m1, m2)) * (1.0 - np.exp(-2j * math.pi * phase))
        rhs = brs.parallelogram_indicator_fourier(tfp, (m1, m2))
        worst = max(worst, abs(lhs - rhs))
    ok &= worst <= 1e-6
    return bool(ok), (f"interval sup {sup_i:.3f} <= {2.0 * tf.bound}; "
                f"parallelogram sup {sup_p:.3f} <= {2.0 * tfp.bound}; "
                f"fourier max err {worst:.2e}")


def criterion_6():
    """Covering times: finiteness, discrepancy chain, d=1 golden slope."""
    shift1, _ = _shift_spec([GOLDEN])
    radii = [0.1, 0.06, 0.04, 0.025, 0.015, 0.009]
    slope, results = cov.covering_exponent_fit(shift1, (0.0,), radii, 200000)
    ok = abs(slope - 1.0) <= 0.2
    detail = f"d1 golden slope {slope:.3f} (need 1.0 +- 0.2)"

    delta1 = _decay_fit("shift", (GOLDEN,), N_GRID_LONG).delta_hat
    chain1 = all(res.m_cover <= res.radius ** (-2.0 / delta1)
                 for res in results)
    ok &= chain1
    detail += f"; d1 chain with delta {delta1:.3f}: {'ok' if chain1 else 'FAIL'}"

    shift2, _ = _shift_spec(PAIR)
    res2 = cov.covering_time(shift2, 0.05, (0.0, 0.0), 200000)
    delta2 = _decay_fit("shift", PAIR, N_GRID_LONG).delta_hat
    ok &= res2.covered and res2.m_cover <= 0.05 ** (-4.0 / delta2)
    detail += f"; d2 pair M={res2.m_cover}"

    skew = SkewShift(float(parse_frequency(GOLDEN)), 2)
    res3 = cov.covering_time(skew, 0.05, (0.0, 0.0), 200000)
    delta3 = _decay_fit("skew", (GOLDEN,), N_GRID_SHORT).delta_hat
    ok &= res3.covered and res3.m_cover <= 0.05 ** (-4.0 / delta3)
    detail += f"; skew d2 M={res3.m_cover}"
    return ok, detail


def criterion_7():
    """Cocycles: unimodularity, constant-potential exponent, Herman bound."""
    from .backend import kernels
    zero = cc.ZeroPotential()
    shift1, _ = _shift_spec([GOLDEN])

    _, detlog = kernels.cocycle_batch(np.zeros((3, 1000000)),
                                      np.array([0.0, 0.5, 1.0]))
    worst_det = float(np.max(np.abs(detlog)))
    ok = worst_det <= 1e-8

    est = cc.lyapunov_estimate(shift1, 3.0, 10000, 8, 11, zero)
    target = math.log((3.0 + math.sqrt(5.0)) / 2.0)
    ok &= abs(est.lhat - target) <= 1e-3

    phi = cc.CosinePotential(3.0)
    herman_floor = math.log(3.0) - 0.05
    energies = [float(e) for e in np.linspace(-8.0, 8.0, 101)]
    scan = cc.lyapunov_scan(shift1, energies, 10000, 64,
                            [1000 + i for i in range(len(energies))], phi)
    min_l = min(lest.lhat for lest in scan)
    ok &= min_l >= herman_floor
    return ok, (f"max |log det| {worst_det:.2e}; constant-potential "
                f"|L-target| {abs(est.lhat - target):.2e}; Herman min L "
                f"{min_l:.4f} >= {herman_floor:.4f}: "
                f"{'ok' if min_l >= herman_floor else 'FAIL'}")


def _geometric(lo, hi, count):
    return list(np.geomspace(lo, hi, count))


def criterion_8():
    """Transport: free ballistic checks, localized bounds, DT decay."""
    from scipy.special import jv
    shift1, _ = _shift_spec([GOLDEN])
    zero = cc.ZeroPotential()
    theta = TorusPoint((0.0,))
    details = []
    ok = True

    # free evolution against the Bessel closed form, and the dense oracle,
    # on boxes over DENSE_SITES, so that both check the Chebyshev sweep
    ham = tp.build_hamiltonian(shift1, theta, zero, 300)
    st, = tp.evolve([ham], [10.0], budget=1.0)
    sites = ham.sites()
    exact = (-1j) ** np.abs(sites) * jv(np.abs(sites), 20.0)
    err_free = float(np.max(np.abs(np.abs(st.psi) ** 2 - np.abs(exact) ** 2)))
    ok &= err_free <= 1e-8
    details.append(f"free amp err {err_free:.2e}")

    rng = np.random.default_rng(5)
    err_dense = 0.0
    for _ in range(10):
        lam = float(rng.uniform(0.0, 3.0))
        t = float(rng.uniform(0.0, 20.0))
        hamd = tp.build_hamiltonian(shift1, theta, cc.CosinePotential(lam), 300)
        st1, = tp.evolve([hamd], [t], budget=1.0)
        psi2, = tp.dense_evolve(hamd, [t])
        err_dense = max(err_dense, float(np.max(np.abs(st1.psi - psi2))))
    ok &= err_dense <= 1e-9
    details.append(f"dense err {err_dense:.2e}")

    # free transport exponents
    beta_free = tp.beta_estimate(shift1, theta, zero, 2.0,
                                 _geometric(5.0, 300.0, 12))
    ok &= 0.95 <= beta_free.low and beta_free.high <= 1.05
    details.append(f"free beta [{beta_free.low:.3f},{beta_free.high:.3f}]")
    xi_free = tp.xi_estimate(shift1, theta, zero, [0.4, 0.6],
                             _geometric(40.0, 640.0, 9))
    ok &= 0.9 <= xi_free.low and xi_free.high <= 1.1
    details.append(f"free xi [{xi_free.low:.3f},{xi_free.high:.3f}]")

    # localized regime
    phi = cc.CosinePotential(3.0)
    beta_loc = tp.beta_estimate(shift1, theta, phi, 2.0,
                                _geometric(5.0, 1000.0, 12))
    ok &= beta_loc.high <= 0.1
    details.append(f"localized beta+ {beta_loc.high:.3f}")
    xi_loc = tp.xi_estimate(shift1, theta, phi, [0.25, 0.5],
                            _geometric(30.0, 1000.0, 9))
    ok &= xi_loc.high <= 0.1
    details.append(f"localized xi+ {xi_loc.high:.3f}")

    # DT integral decay
    i100, _ = cc.dt_integral(shift1, theta, 100.0, 0.3, 181, 9.0, phi)
    i1000, _ = cc.dt_integral(shift1, theta, 1000.0, 0.3, 181, 9.0, phi)
    ratio = i1000 / i100
    ok &= ratio <= 0.1
    details.append(f"DT ratio {ratio:.3g}")
    return ok, "; ".join(details)


def _determinism_configs(outdir, tag):
    return [
        {"experiment": "discrepancy_decay",
         "map": {"kind": "shift", "alpha": "golden"},
         "params": {"n_grid": [100, 400, 1600]},
         "output": os.path.join(outdir, f"disc_{tag}.csv")},
        {"experiment": "lyapunov_scan",
         "map": {"kind": "shift", "alpha": "golden"},
         "potential": {"kind": "cosine", "coupling": 3.0},
         "params": {"energies": [-2.0, 2.0, 5], "n": 500, "phases": 8},
         "seed": 42,
         "output": os.path.join(outdir, f"lyap_{tag}.csv")},
        {"experiment": "brs_remainder",
         "params": {"variant": "interval", "alpha": "golden",
                    "q": 1, "p": 0, "nmax": 20000},
         "seed": 9,
         "output": os.path.join(outdir, f"brs_{tag}.csv")},
    ]


def criterion_9():
    """Byte-identical CSV output for identical config and seed."""
    with tempfile.TemporaryDirectory() as outdir:
        first = _determinism_configs(outdir, "a")
        second = _determinism_configs(outdir, "b")
        for cfg_a, cfg_b in zip(first, second):
            run_experiment(cfg_a)
            run_experiment(cfg_b)
            with open(cfg_a["output"], "rb") as fa, \
                    open(cfg_b["output"], "rb") as fb:
                if fa.read() != fb.read():
                    return False, f"outputs differ for {cfg_a['experiment']}"
    return True, "3 experiment kinds byte-identical across repeated runs"


CRITERIA = [
    (1, "combinatorial identities", criterion_1),
    (2, "inequality oracles (van der Corput, ETK)", criterion_2),
    (3, "shift discrepancy decay", criterion_3),
    (4, "skew-shift discrepancy decay", criterion_4),
    (5, "bounded remainder sets", criterion_5),
    (6, "covering times", criterion_6),
    (7, "cocycle products and Lyapunov estimates", criterion_7),
    (8, "transport exponents and DT decay", criterion_8),
    (9, "deterministic outputs", criterion_9),
]


def acceptance_suite():
    """Runs all criteria; returns 0 when everything passes, 1 otherwise."""
    failures = 0
    for num, name, func in CRITERIA:
        start = time.perf_counter()
        try:
            passed, detail = func()
        except Exception as exc:       # a crash is a failure, not an abort
            passed, detail = False, f"error: {exc!r}"
        wall = time.perf_counter() - start
        status = "PASS" if passed else "FAIL"
        print(f"{status} criterion {num} ({name}) [{wall:.1f}s]: {detail}")
        failures += 0 if passed else 1
    print(f"{len(CRITERIA) - failures}/{len(CRITERIA)} criteria passed")
    return 0 if failures == 0 else 1
