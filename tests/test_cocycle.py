"""Cocycle products: cocycle law, unimodularity, Lyapunov estimators."""

import math
from dataclasses import dataclass

import numpy as np
import pytest

import qdlab.cocycle as cc
from qdlab.arithmetic import parse_frequency
from qdlab.backend import kernels
from qdlab.torus import (Shift, SkewShift, TorusPoint, inverse_step_array,
                         orbit, step, step_array)

GOLDEN = float(parse_frequency("golden"))
SHIFT1 = Shift(TorusPoint((GOLDEN,)))

# the kernel rescales a product once its squared Frobenius norm passes
# this threshold
RENORM_LOG = math.log(kernels._RENORM_THRESHOLD)


@dataclass
class TransferProduct:
    matrix: np.ndarray
    logscale: float

    def log_norm(self):
        """log of the spectral norm of the full product."""
        return _spectral_log(self.matrix) + self.logscale

    def det_log(self):
        """log |det| of the full product (0 means unimodular)."""
        det = self.matrix[0, 0] * self.matrix[1, 1] \
            - self.matrix[0, 1] * self.matrix[1, 0]
        return math.log(abs(det)) + 2.0 * self.logscale


def _spectral_log(m):
    q = float(np.sum(np.abs(m) ** 2))
    det = m[0, 0] * m[1, 1] - m[0, 1] * m[1, 0]
    disc = max(q * q - 4.0 * abs(det) ** 2, 0.0)
    return 0.5 * math.log(0.5 * (q + math.sqrt(disc)))


def cocycle_product(map_spec, theta, z, n, phi):
    """A_n(theta, z) as a scaled TransferProduct, one explicit 2x2 product
    a step: the oracle of the kernel.  n = 0 gives the identity."""
    dtype = np.complex128 if isinstance(z, complex) else np.float64
    m = np.eye(2, dtype=dtype)
    logscale = 0.0
    if n:
        v = cc.potential_sequence(map_spec, theta, n, phi)
        for k in range(n):
            t = z - v[k]
            m = np.array([[t * m[0, 0] - m[1, 0], t * m[0, 1] - m[1, 1]],
                          [m[0, 0], m[0, 1]]], dtype=dtype)
            norm = math.sqrt(float(np.sum(np.abs(m) ** 2)))
            if norm > 1e25:
                m /= norm
                logscale += math.log(norm)
    return TransferProduct(m, logscale)


def full_matrix(prod):
    return prod.matrix * math.exp(prod.logscale)


def test_cocycle_law():
    # A_{n+m}(theta) = A_n(f^m theta) A_m(theta)
    phi = cc.CosinePotential(1.0)
    theta = TorusPoint((0.1,))
    z = 0.7
    n, m = 6, 9
    whole = full_matrix(cocycle_product(SHIFT1, theta, z, n + m, phi))
    tail_phase = theta
    for _ in range(m):
        tail_phase = step(SHIFT1, tail_phase)
    head = full_matrix(cocycle_product(SHIFT1, theta, z, m, phi))
    tail = full_matrix(cocycle_product(SHIFT1, tail_phase, z, n, phi))
    assert np.allclose(whole, tail @ head, rtol=1e-10)


def test_zero_steps_give_identity():
    phi = cc.ZeroPotential()
    prod = cocycle_product(SHIFT1, TorusPoint((0.0,)), 1.0, 0, phi)
    assert np.array_equal(prod.matrix, np.eye(2))
    assert prod.log_norm() == pytest.approx(0.0)
    assert prod.det_log() == pytest.approx(0.0)


def test_determinant_drift_stays_tiny_in_elliptic_regime():
    phi = cc.ZeroPotential()
    prod = cocycle_product(SHIFT1, TorusPoint((0.0,)), 0.5, 50000, phi)
    assert abs(prod.det_log()) < 1e-9
    assert prod.log_norm() < 2.0     # bounded, no growth at |E| < 2


def test_constant_potential_growth_rate():
    # zero potential at E = 3: the product is a constant hyperbolic matrix
    # power, Lyapunov exponent log((3 + sqrt 5)/2)
    phi = cc.ZeroPotential()
    n = 4000
    prod = cocycle_product(SHIFT1, TorusPoint((0.0,)), 3.0, n, phi)
    target = math.log((3.0 + math.sqrt(5.0)) / 2.0)
    assert prod.log_norm() / n == pytest.approx(target, abs=1e-3)


def test_python_product_matches_kernel_batch():
    phi = cc.CosinePotential(2.0)
    theta = TorusPoint((0.123,))
    for z in (0.4, complex(0.4, 0.01)):
        prod = cocycle_product(SHIFT1, theta, z, 300, phi)
        lognorm, _ = cc._batch_lognorms(SHIFT1, [theta.coords], z, 300, phi,
                                        np.array([0]))
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
    assert max(est.lhat for est in scan) * n > RENORM_LOG


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
    assert lognorm.max() > RENORM_LOG
    for row, (p, zr) in enumerate(zip(orbit, z)):
        prod = cocycle_product(SHIFT1, thetas[p], complex(zr), n, phi)
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


def _potential_sequence_reference(map_spec, theta, n, phi, forward):
    """The per-step walk potential_sequence replaced: one phi call a step."""
    cur = np.asarray(theta.coords, dtype=np.float64).reshape(1, -1)
    out = np.empty(n, dtype=np.float64)
    for k in range(n):
        if not forward:
            cur = inverse_step_array(map_spec, cur)
        out[k] = phi(cur)[0]
        if forward:
            cur = step_array(map_spec, cur)
    return out


@pytest.mark.parametrize("spec, phi", [
    (SHIFT1, cc.CosinePotential(1.5)),
    (Shift(TorusPoint((GOLDEN, float(parse_frequency("sqrt2m1"))))),
     cc.CosinePotential(0.7)),
    (SkewShift(GOLDEN, 2), cc.TabulatedPotential([-3.0, 1.5, 0.5, 2.5, -1.0])),
], ids=["shift-d1", "shift-d2", "skew-tabulated"])
@pytest.mark.parametrize("forward", [True, False], ids=["forward", "backward"])
def test_potential_sequence_blocks_equal_the_per_step_walk(monkeypatch, spec,
                                                            phi, forward):
    # 7-step blocks: n = 100 spans 15 blocks, the last one partial
    monkeypatch.setattr(cc, "_BLOCK_CELLS", 7)
    calls = []
    original = type(phi).__call__

    def counted(self, pts):
        calls.append(len(pts))
        return original(self, pts)

    theta = TorusPoint(tuple(0.1 + 0.3 * k for k in range(spec.d)))
    want = _potential_sequence_reference(spec, theta, 100, phi, forward)
    monkeypatch.setattr(type(phi), "__call__", counted)
    got = cc.potential_sequence(spec, theta, 100, phi, forward=forward)
    assert got.tobytes() == want.tobytes()
    assert calls == [7] * 14 + [2]


def _last_coordinate(pts):
    return np.atleast_2d(pts)[:, -1].copy()


@pytest.mark.parametrize("spec, phi", [
    (SHIFT1, cc.CosinePotential(1.5)),
    (Shift(TorusPoint((GOLDEN, float(parse_frequency("sqrt2m1"))))),
     _last_coordinate),
    (SkewShift(GOLDEN, 2), _last_coordinate),
    (SkewShift(GOLDEN, 3), _last_coordinate),
], ids=["shift-d1", "shift-d2", "skew-d2", "skew-d3"])
def test_forward_potential_sequence_samples_the_orbit(spec, phi):
    # the forward walk takes exact lattice steps, so every sample is phi at
    # the orbit point of step, bit for bit
    theta = TorusPoint(tuple(0.1 + 0.3 * k for k in range(spec.d)))
    n = 3000
    want = np.asarray(phi(orbit(spec, theta, n).points), dtype=np.float64)
    got = cc.potential_sequence(spec, theta, n, phi)
    assert got.tobytes() == want.tobytes()


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
    for rho in (0.0, -1.0, 1.5):
        with pytest.raises(ValueError):
            cc.dt_integral(SHIFT1, TorusPoint((0.0,)), 100.0, rho, 41, 9.0,
                           phi)


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


def scalar_lognorms_all(v, e, eta, inverse=False):
    """log ||A_1 ... A_k|| for k = 1..n at one energy, in Python complex
    arithmetic: the per-energy loop that the batched kernel replaced."""
    out = np.empty(len(v))
    z = complex(e, eta)
    a, b, c, d = complex(1), complex(0), complex(0), complex(1)
    logs = 0.0
    for k in range(len(v)):
        t = z - v[k]
        if inverse:
            a, b, c, d = c, d, -a + t * c, -b + t * d
        else:
            a, b, c, d = t * a - c, t * b - d, a, b
        q = abs(a) ** 2 + abs(b) ** 2 + abs(c) ** 2 + abs(d) ** 2
        det2 = abs(a * d - b * c) ** 2
        disc = math.sqrt(max(q * q - 4.0 * det2, 0.0))
        out[k] = 0.5 * math.log(0.5 * (q + disc)) + logs
        if q > kernels._RENORM_THRESHOLD:
            s = math.sqrt(q)
            a /= s
            b /= s
            c /= s
            d /= s
            logs += math.log(s)
    return out


# lambda = 3 puts the spectrum inside [-8, 8]; +-8.5 and +-11 lie outside
ORACLE_ENERGIES = np.array([-11.0, -8.5, -5.3, -2.0, -0.4, 0.0, 0.7, 2.9,
                            6.1, 8.5, 11.0])
DIRECTIONS = pytest.mark.parametrize("inverse", [False, True],
                                     ids=["forward", "inverse"])


# the kernel against the scalar loop, whose rounding it does not copy: the
# largest relative differences measured in the two tests below are 2.3e-16
# on the running maxima and 5.7e-14 on the integrand, whose exp(-2 L) turns
# an absolute error of L into a relative one 2 L times larger
SCALAR_RTOL = 1e-11


@DIRECTIONS
def test_lognorms_all_match_the_scalar_loop(inverse):
    big_t, n = 1e6, 1000
    eta = 1.0 / big_t
    v = cc.potential_sequence(SHIFT1, TorusPoint((0.1234,)), n,
                              cc.CosinePotential(3.0), forward=not inverse)
    best = kernels.cocycle_lognorms_all(v, ORACLE_ENERGIES, eta, inverse)
    for j, e in enumerate(ORACLE_ENERGIES):
        want = scalar_lognorms_all(v, float(e), eta, inverse)
        assert best[j] == pytest.approx(np.max(want), rel=SCALAR_RTOL)
        # every product passed the rescaling threshold many times
        assert want[-1] > 2 * RENORM_LOG


@pytest.mark.parametrize("big_t, rho", [(1e3, 0.3), (1e4, 0.5)])
def test_dt_integrand_matches_the_scalar_oracle(big_t, rho):
    phi = cc.CosinePotential(3.0)
    theta = TorusPoint((0.0,))
    val, integrand = cc.dt_integral(SHIFT1, theta, big_t, rho, 41, 9.0, phi)
    n = int(math.floor(big_t ** rho))
    v_fwd = cc.potential_sequence(SHIFT1, theta, n, phi, forward=True)
    v_bwd = cc.potential_sequence(SHIFT1, theta, n, phi, forward=False)
    es = np.linspace(-9.0, 9.0, 41)
    want = np.empty(len(es))
    for i, e in enumerate(es):
        fwd = scalar_lognorms_all(v_fwd, float(e), 1.0 / big_t)
        bwd = scalar_lognorms_all(v_bwd, float(e), 1.0 / big_t, inverse=True)
        want[i] = math.exp(-2.0 * max(min(float(np.max(fwd)),
                                          float(np.max(bwd))), 0.0))
    assert np.all(want > 0.0)
    np.testing.assert_allclose(integrand, want, rtol=SCALAR_RTOL, atol=0.0)
    assert val == pytest.approx(float(np.trapezoid(want, es)),
                                rel=SCALAR_RTOL)


@DIRECTIONS
def test_prefix_lognorms_match_explicit_matrix_products(inverse):
    # independent oracle: complex 2x2 products and their spectral norms;
    # inverse steps are M_k = A(v_k)^-1 M_{k-1}, A^-1 = [[0, 1], [-1, z-v]].
    # The running maximum over k <= n is checked at every n: inside the
    # spectrum the norms rise and fall, so it is not the last prefix
    n, eta = 40, 1e-3
    v = cc.potential_sequence(SHIFT1, TorusPoint((0.377,)), n,
                              cc.CosinePotential(3.0), forward=not inverse)
    got = np.array([kernels.cocycle_lognorms_all(v[:k], ORACLE_ENERGIES, eta,
                                                 inverse)
                    for k in range(1, n + 1)])
    want = np.empty_like(got)
    for j, e in enumerate(ORACLE_ENERGIES):
        m = np.eye(2, dtype=np.complex128)
        for k in range(n):
            t = complex(e, eta) - v[k]
            step = [[0.0, 1.0], [-1.0, t]] if inverse else [[t, -1.0],
                                                           [1.0, 0.0]]
            m = np.array(step, dtype=np.complex128) @ m
            want[k, j] = math.log(np.linalg.norm(m, 2))
    want = np.maximum.accumulate(want, axis=0)
    assert np.any(want[-1] > want[-2])
    assert np.any(want[1:] == want[:-1])
    np.testing.assert_allclose(got, want, rtol=1e-10)


@pytest.mark.parametrize("e", [-1e6, 1e6, kernels.REACH - 1.0])
def test_lyapunov_scan_stays_finite_at_large_energy(e):
    # n = 1007 ends 15 steps after a norm check, where the squared norm
    # reaches about 1e230 at |E| = 1e6 (finite, though its square is not),
    # and 1e256 at the edge of the kernel's reach
    est = cc.lyapunov_scan(SHIFT1, [e], 1007, 2, [1], cc.ZeroPotential())[0]
    target = math.log((abs(e) + math.sqrt(e * e - 4.0)) / 2.0)
    assert est.lhat == pytest.approx(target, rel=1e-12)
    assert est.lhat_grid == pytest.approx(target, rel=1e-12)


def test_dt_integrand_stays_finite_at_large_energy_bound():
    _, integrand = cc.dt_integral(SHIFT1, TorusPoint((0.0,)), 1e4, 0.5, 41,
                                  1e6, cc.CosinePotential(3.0))
    assert np.all(np.isfinite(integrand))

