"""Quantum evolution: unitarity, closed-form oracles, exponent estimators."""

import math

import numpy as np
import pytest
from scipy.special import jv

import qdlab.cocycle as cc
import qdlab.transport as tp
from qdlab.arithmetic import parse_frequency
from qdlab.torus import Shift, TorusPoint

GOLDEN = float(parse_frequency("golden"))
SHIFT1 = Shift(TorusPoint((GOLDEN,)))
ZERO = cc.ZeroPotential()
THETA = TorusPoint((0.0,))


def test_hamiltonian_sampling_matches_potential_formula():
    phi = cc.CosinePotential(1.5)
    ham = tp.build_hamiltonian(SHIFT1, THETA, phi, 32)
    for n in (-32, -5, 0, 7, 32):
        x = (n * GOLDEN) % 1.0
        assert ham.v[32 + n] == pytest.approx(
            3.0 * math.cos(2 * math.pi * x), abs=1e-9)
    assert ham.enclosure == pytest.approx(2.0 + float(np.max(np.abs(ham.v))))


def test_free_evolution_bessel_closed_form():
    ham = tp.build_hamiltonian(SHIFT1, THETA, ZERO, 96)
    st = tp.evolve(ham, 7.0, budget=1.0)
    sites = ham.sites()
    exact = (-1j) ** np.abs(sites) * jv(np.abs(sites), 14.0)
    assert np.max(np.abs(st.psi - exact)) < 1e-10
    assert st.norm_defect < 1e-12


def test_chebyshev_matches_dense_oracle():
    phi = cc.CosinePotential(2.0)
    ham = tp.build_hamiltonian(SHIFT1, THETA, phi, 64)
    st = tp.evolve(ham, 9.0, budget=1.0)
    dense = tp.dense_evolve(ham, 9.0)
    assert np.max(np.abs(st.psi - dense)) < 1e-10


def test_node_to_node_equals_single_shot():
    phi = cc.CosinePotential(1.0)
    ham = tp.build_hamiltonian(SHIFT1, THETA, phi, 64)
    states = tp.evolve_times(ham, [2.0, 5.0, 9.0], budget=1.0)
    direct = tp.evolve(ham, 9.0, budget=1.0)
    assert np.max(np.abs(states[-1].psi - direct.psi)) < 1e-10


def test_certification_flags_small_box():
    # a box much smaller than the light cone must be flagged
    ham = tp.build_hamiltonian(SHIFT1, THETA, ZERO, 24)
    st = tp.evolve(ham, 40.0)
    assert not st.valid
    with pytest.raises(ValueError):
        tp.moment(st, 2.0)


def test_moment_of_initial_state():
    ham = tp.build_hamiltonian(SHIFT1, THETA, ZERO, 16)
    st = tp.evolve(ham, 0.0)
    assert tp.moment(st, 2.0) == pytest.approx(1.0)


def test_dense_oracle_rejects_large_boxes():
    ham = tp.build_hamiltonian(SHIFT1, THETA, ZERO, 3000)
    with pytest.raises(ValueError):
        tp.dense_evolve(ham, 1.0)


def test_abel_nodes_exponential_closed_form():
    # the rule averaged_profile uses: 20 panels of 12 Gauss-Legendre nodes
    big_t = 5.0
    nodes, weights = tp.abel_nodes(big_t)
    assert nodes.shape == weights.shape == (20 * 12,)
    for a in (0.0, 0.3, 2.0):
        got = float(np.dot(weights, np.exp(-a * nodes)))
        rate = 2.0 / big_t + a
        expect = (2.0 / big_t) / rate * (1.0 - math.exp(-rate * 10.0 * big_t))
        assert got == pytest.approx(expect, abs=1e-10)


def test_symmetric_cumsum_totals():
    prof = np.array([0.1, 0.2, 0.4, 0.2, 0.1])
    cum = tp._symmetric_cumsum(prof, 2)
    assert cum[0] == pytest.approx(0.4)
    assert cum[-1] == pytest.approx(prof.sum())
    assert np.all(np.diff(cum) >= 0)


def test_running_slopes_exact_on_power_laws():
    xs = np.log(np.geomspace(5.0, 500.0, 12))
    ys = 1.7 + 0.62 * xs
    slopes = tp.running_slopes(xs, ys)
    assert np.allclose(slopes, 0.62, atol=1e-12)


def test_xi_front_thresholding():
    cum = np.array([0.1, 0.3, 0.55, 0.8, 1.0])
    assert tp.xi_front(cum, 0.5) == 2
    assert tp.xi_front(cum, 0.05) == 0
    assert tp.xi_front(cum, 0.99) == 4


def test_worst_case_box_scales_with_time():
    assert tp.worst_case_box(0.0, 10.0) >= 2 * 10
    assert tp.worst_case_box(6.0, 100.0) >= 8 * 100
    assert tp.worst_case_box(0.0, 200.0) > tp.worst_case_box(0.0, 100.0)


def test_auto_box_state_passes_certification():
    ham = tp.auto_box(SHIFT1, THETA, ZERO, 30.0)
    st = tp.evolve(ham, 30.0)
    assert st.valid
    assert ham.l_box <= tp.worst_case_box(0.0, 30.0)


def test_free_moment_growth_is_ballistic():
    est = tp.beta_estimate(SHIFT1, THETA, ZERO, 2.0,
                           list(np.geomspace(4.0, 60.0, 9)))
    assert 0.9 <= est.low <= est.high <= 1.1


def test_localized_moments_stay_flat():
    phi = cc.CosinePotential(3.0)
    est = tp.beta_estimate(SHIFT1, THETA, phi, 2.0,
                           list(np.geomspace(5.0, 200.0, 9)), l_box=256)
    assert est.high <= 0.15


def test_p_theta_t_profiles_are_monotone_probabilities():
    phi = cc.CosinePotential(3.0)
    p0, p1 = tp.p_theta_t(SHIFT1, THETA, phi, 20.0, [2, 5, 10, 20], 64)
    for p in (p0, p1):
        assert np.all(np.diff(p) >= -1e-12)
        assert np.all((p >= 0.0) & (p <= 1.0 + 1e-9))
    with pytest.raises(ValueError):
        tp.p_theta_t(SHIFT1, THETA, phi, 20.0, [60], 64)


def test_kkl_check_returns_probability_like_values():
    phi = cc.CosinePotential(3.0)
    lhs, rhs = tp.kkl_check(SHIFT1, THETA, phi, 15.0, 8, 8, 21, l_box=96,
                            max_window=256)
    assert 0.0 <= lhs <= 1.0 + 1e-9
    assert 0.0 <= rhs <= 1.0 + 1e-9
    # deep in the localized regime most of the mass sits in a short window
    assert lhs > 0.5


def test_kkl_check_auto_box_is_the_explicit_box():
    phi = cc.CosinePotential(3.0)
    box = tp.auto_box(SHIFT1, THETA, phi, 10.0 * 3.0).l_box
    auto = tp.kkl_check(SHIFT1, THETA, phi, 3.0, 8, 8, 21, max_window=256)
    explicit = tp.kkl_check(SHIFT1, THETA, phi, 3.0, 8, 8, 21, l_box=box,
                            max_window=256)
    assert auto == explicit


def test_estimator_input_validation():
    with pytest.raises(ValueError):
        tp.beta_estimate(SHIFT1, THETA, ZERO, 2.0, [1.0, 2.0, 3.0])
    with pytest.raises(ValueError):
        tp.xi_estimate(SHIFT1, THETA, ZERO, [0.0, 0.5],
                       list(np.geomspace(5.0, 50.0, 8)))
    with pytest.raises(ValueError):
        tp.evolve(tp.build_hamiltonian(SHIFT1, THETA, ZERO, 8), -1.0)
