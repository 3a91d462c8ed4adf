"""Cocycle products: cocycle law, unimodularity, Lyapunov estimators."""

import math

import numpy as np
import pytest

import qdlab.cocycle as cc
from qdlab.arithmetic import parse_frequency
from qdlab.torus import Shift, SkewShift, TorusPoint, step

GOLDEN = float(parse_frequency("golden"))
SHIFT1 = Shift(TorusPoint((GOLDEN,)))


def full_matrix(prod):
    return prod.matrix * math.exp(prod.logscale)


def test_cocycle_law():
    # A_{n+m}(theta) = A_n(f^m theta) A_m(theta)
    phi = cc.CosinePotential(1.0)
    theta = TorusPoint((0.1,))
    z = 0.7
    n, m = 6, 9
    whole = full_matrix(cc.cocycle_product(SHIFT1, theta, z, n + m, phi))
    tail_phase = theta
    for _ in range(m):
        tail_phase = step(SHIFT1, tail_phase)
    head = full_matrix(cc.cocycle_product(SHIFT1, theta, z, m, phi))
    tail = full_matrix(cc.cocycle_product(SHIFT1, tail_phase, z, n, phi))
    assert np.allclose(whole, tail @ head, rtol=1e-10)


def test_zero_steps_give_identity():
    phi = cc.ZeroPotential()
    prod = cc.cocycle_product(SHIFT1, TorusPoint((0.0,)), 1.0, 0, phi)
    assert np.array_equal(prod.matrix, np.eye(2))
    assert prod.log_norm() == pytest.approx(0.0)
    assert prod.det_log() == pytest.approx(0.0)


def test_determinant_drift_stays_tiny_in_elliptic_regime():
    phi = cc.ZeroPotential()
    prod = cc.cocycle_product(SHIFT1, TorusPoint((0.0,)), 0.5, 50000, phi)
    assert abs(prod.det_log()) < 1e-9
    assert prod.log_norm() < 2.0     # bounded, no growth at |E| < 2


def test_constant_potential_growth_rate():
    # zero potential at E = 3: the product is a constant hyperbolic matrix
    # power, Lyapunov exponent log((3 + sqrt 5)/2)
    phi = cc.ZeroPotential()
    n = 4000
    prod = cc.cocycle_product(SHIFT1, TorusPoint((0.0,)), 3.0, n, phi)
    target = math.log((3.0 + math.sqrt(5.0)) / 2.0)
    assert prod.log_norm() / n == pytest.approx(target, abs=1e-3)


def test_python_product_matches_kernel_batch():
    phi = cc.CosinePotential(2.0)
    theta = TorusPoint((0.123,))
    for z in (0.4, complex(0.4, 0.01)):
        prod = cc.cocycle_product(SHIFT1, theta, z, 300, phi)
        lognorm, _ = cc._batch_lognorms(SHIFT1, [theta.coords], z, 300, phi)
        assert prod.log_norm() == pytest.approx(float(lognorm[0]), abs=1e-9)


@pytest.mark.parametrize("spec, phi", [
    (SHIFT1, cc.CosinePotential(3.0)),
    (SkewShift(GOLDEN, 2), cc.TabulatedPotential([-3.0, 1.5, 0.5, 2.5, -1.0])),
], ids=["shift-cosine", "skew2-tabulated"])
def test_lyapunov_scan_equals_per_energy_estimates(monkeypatch, spec, phi):
    # small blocks: the 3-energy scan walks 37 columns per block, each
    # one-energy estimate 111, and n = 300 is a multiple of neither, nor of
    # the renormalisation period 16, so block boundaries fall inside
    # renormalisation intervals and the last block is partial
    energies, phases, n = [-4.0, 0.3, 5.5], 4, 300
    monkeypatch.setattr(cc, "_BLOCK_CELLS", 2 * len(energies) * phases * 37)
    assert n % 16 and n % 37 and n % 111 and 37 % 16
    seeds = [11, 12, 13]
    scan = cc.lyapunov_scan(spec, energies, n, phases, seeds, phi)
    for e, seed, est in zip(energies, seeds, scan):
        one = cc.lyapunov_estimate(spec, e, n, phases, seed, phi)
        assert (est.lhat, est.stderr, est.lhat_grid) == \
            (one.lhat, one.stderr, one.lhat_grid)
    # the growing products were renormalised along the way
    assert max(est.lhat for est in scan) * n > 2 * math.log(cc.RENORM_NORM)


def test_batched_rows_match_the_per_step_product(monkeypatch):
    # 4 blocks of 40 columns; the hyperbolic rows (|E| = 5, 6 > 2 + 2 lam)
    # pass the renormalisation threshold several times
    monkeypatch.setattr(cc, "_BLOCK_CELLS", 5 * 40)
    phi = cc.CosinePotential(1.0)
    n = 150
    thetas = np.array([[0.123], [0.5], [0.871]])
    orbit = np.array([0, 1, 2, 0, 2])
    z = np.array([0.4, 5.0, 5.0, -6.0, complex(0.4, 0.01)])
    lognorm, _ = cc._batch_lognorms(SHIFT1, thetas, z, n, phi, orbit)
    assert lognorm.max() > 2 * math.log(cc.RENORM_NORM)
    for row, (p, zr) in enumerate(zip(orbit, z)):
        prod = cc.cocycle_product(SHIFT1, thetas[p], complex(zr), n, phi)
        assert float(lognorm[row]) == pytest.approx(prod.log_norm(),
                                                    abs=1e-9)


@pytest.mark.parametrize("e, eta", [
    (np.array([0.3, 5.0, -2.0]), 0.0),
    (0.3, 0.01),
], ids=["real", "complex"])
def test_carried_state_over_split_columns_is_bitwise(e, eta):
    from qdlab.backend import kernels
    rng = np.random.default_rng(4)
    v = 6.0 * rng.random((3, 300)) - 3.0
    whole = kernels.cocycle_batch(v, e, eta)
    state = kernels.CocycleState()
    cuts = [0, 7, 40, 41, 173, 300]
    for lo, hi in zip(cuts[:-1], cuts[1:]):
        split = kernels.cocycle_batch(v[:, lo:hi], e, eta, state=state)
    assert state.steps == 300
    for got, want in zip(split, whole):
        assert got.tobytes() == want.tobytes()
    # renormalisation did rescale the products
    assert np.any(state.logs > 0.0)


def test_potential_sequence_directions():
    phi = cc.CosinePotential(1.0)
    theta = TorusPoint((0.25,))
    fwd = cc.potential_sequence(SHIFT1, theta, 3, phi, forward=True)
    assert fwd[0] == pytest.approx(2.0 * math.cos(2 * math.pi * 0.25))
    back = cc.potential_sequence(SHIFT1, theta, 3, phi, forward=False)
    from qdlab.torus import inverse_step
    prev = inverse_step(SHIFT1, theta)
    assert back[0] == pytest.approx(
        2.0 * math.cos(2 * math.pi * prev.coords[0]), abs=1e-12)


def test_lyapunov_estimate_deterministic_and_above_herman():
    phi = cc.CosinePotential(3.0)
    a = cc.lyapunov_estimate(SHIFT1, 0.0, 2000, 16, seed=7, phi=phi)
    b = cc.lyapunov_estimate(SHIFT1, 0.0, 2000, 16, seed=7, phi=phi)
    assert a.lhat == b.lhat
    assert a.lhat >= math.log(3.0) - 0.05
    assert a.lhat_grid >= math.log(3.0) - 0.05
    c = cc.lyapunov_estimate(SHIFT1, 0.0, 2000, 16, seed=8, phi=phi)
    assert c.lhat != a.lhat


def test_finite_n_estimates_decrease_toward_the_limit():
    # (1/n) E log ||A_n|| is subadditive in n, so the estimate at a longer
    # window cannot sit above the shorter one by more than sampling noise
    phi = cc.CosinePotential(3.0)
    short = cc.lyapunov_estimate(SHIFT1, 0.5, 500, 32, seed=3, phi=phi)
    long = cc.lyapunov_estimate(SHIFT1, 0.5, 8000, 32, seed=3, phi=phi)
    assert long.lhat <= short.lhat + 3.0 * short.stderr + 1e-6


def test_dt_integrand_bounded_by_one():
    phi = cc.CosinePotential(3.0)
    val, integrand = cc.dt_integral(SHIFT1, TorusPoint((0.0,)), 100.0, 0.3,
                                    41, 9.0, phi)
    assert np.all(integrand <= 1.0 + 1e-12)
    assert 0.0 < val <= 18.0 + 1e-9
    with pytest.raises(ValueError):
        cc.dt_integral(SHIFT1, TorusPoint((0.0,)), 100.0, 0.3, 41, 2.0, phi)


def test_dt_integral_decays_for_localized_potential():
    phi = cc.CosinePotential(3.0)
    i1, _ = cc.dt_integral(SHIFT1, TorusPoint((0.0,)), 100.0, 0.3, 41, 9.0,
                           phi)
    i2, _ = cc.dt_integral(SHIFT1, TorusPoint((0.0,)), 1000.0, 0.3, 41, 9.0,
                           phi)
    assert i2 < i1


def test_piecewise_and_tabulated_potentials():
    pieces = [(((0.0,), (0.5,)), lambda p: np.full(p.shape[0], 1.0),
               1.0, 0.0),
              (((0.5,), (1.0,)), lambda p: np.full(p.shape[0], -1.0),
               1.0, 0.0)]
    phi = cc.PiecewiseHolderPotential(pieces)
    vals = phi(np.array([[0.1], [0.7]]))
    assert list(vals) == [1.0, -1.0]

    tab = cc.TabulatedPotential([3.0, -2.0])
    assert tab.sup_bound == 3.0
    vals = tab(np.array([[0.1], [0.9]]))
    assert list(vals) == [3.0, -2.0]


def test_skew_shift_cocycle_runs():
    phi = cc.CosinePotential(3.0)
    skew = SkewShift(GOLDEN, 2)
    est = cc.lyapunov_estimate(skew, 0.0, 1000, 8, seed=2, phi=phi)
    assert est.lhat >= math.log(3.0) - 0.05
