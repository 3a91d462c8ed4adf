"""Quantum evolution: unitarity, closed-form oracles, exponent estimators."""

import math

import numpy as np
import pytest
from scipy.linalg import eigh_tridiagonal
from scipy.special import jv

import qdlab.cocycle as cc
import qdlab.transport as tp
from qdlab.arithmetic import parse_frequency
from qdlab.backend import kernels
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


def _chebyshev_sites(monkeypatch):
    """The site count of every kernels.cheb_apply call from now on."""
    sites, apply = [], kernels.cheb_apply

    def counted(diag, off, coeffs, psi):
        sites.append(diag.shape[-1])
        return apply(diag, off, coeffs, psi)

    monkeypatch.setattr(kernels, "cheb_apply", counted)
    return sites


def _eigendecompositions(monkeypatch):
    """The box of every _eigenbasis call from now on."""
    boxes, basis = [], tp._eigenbasis

    def counted(ham):
        boxes.append(ham)
        return basis(ham)

    monkeypatch.setattr(tp, "_eigenbasis", counted)
    return boxes


def test_free_evolution_bessel_closed_form(monkeypatch):
    # on the eigendecomposition, then with the box forced onto Chebyshev
    ham = tp.build_hamiltonian(SHIFT1, THETA, ZERO, 96)
    sites = ham.sites()
    exact = (-1j) ** np.abs(sites) * jv(np.abs(sites), 14.0)
    chebyshev = _chebyshev_sites(monkeypatch)
    for dense_sites, applied in ((tp.DENSE_SITES, []), (0, [ham.size])):
        monkeypatch.setattr(tp, "DENSE_SITES", dense_sites)
        st = tp.evolve(ham, 7.0, budget=1.0)
        assert chebyshev == applied
        assert np.max(np.abs(st.psi - exact)) < 1e-10
        assert st.norm_defect < 1e-12


def test_chebyshev_matches_dense_oracle(monkeypatch):
    phi = cc.CosinePotential(2.0)
    ham = tp.build_hamiltonian(SHIFT1, THETA, phi, 64)
    monkeypatch.setattr(tp, "DENSE_SITES", 0)
    chebyshev = _chebyshev_sites(monkeypatch)
    st = tp.evolve(ham, 9.0, budget=1.0)
    dense, = tp.dense_evolve(ham, [9.0])
    assert chebyshev == [ham.size]
    assert np.max(np.abs(st.psi - dense)) < 1e-10
    assert tp.dense_evolve(ham, []).shape == (0, ham.size)


def test_node_to_node_equals_single_shot(monkeypatch):
    phi = cc.CosinePotential(1.0)
    ham = tp.build_hamiltonian(SHIFT1, THETA, phi, 64)
    monkeypatch.setattr(tp, "DENSE_SITES", 0)
    chebyshev = _chebyshev_sites(monkeypatch)
    states = tp.evolve_times([ham], [[2.0, 5.0, 9.0]])
    assert chebyshev == [ham.size] * 3
    direct = tp.evolve(ham, 9.0, budget=1.0)
    assert states[-1].psi.shape == (1, ham.size)
    assert np.max(np.abs(states[-1].psi[0] - direct.psi)) < 1e-10


def test_certification_flags_small_box():
    # a box much smaller than the light cone must be flagged
    ham = tp.build_hamiltonian(SHIFT1, THETA, ZERO, 24)
    st = tp.evolve(ham, 40.0)
    assert not st.valid
    with pytest.raises(ValueError):
        tp.moment(st, 2.0)


def test_moment_of_initial_state(monkeypatch):
    ham = tp.build_hamiltonian(SHIFT1, THETA, ZERO, 16)
    st = tp.evolve(ham, 0.0)
    assert tp.moment(st, 2.0) == pytest.approx(1.0)
    # a block of one row has the moment of its row
    block, = tp.evolve_times([ham], [[0.0]])
    assert tp.moment(block, 2.0) == tp.moment(st, 2.0)
    # on Chebyshev, a t = 0 evolution is the delta, with no kernel call
    monkeypatch.setattr(tp, "DENSE_SITES", 0)
    chebyshev = _chebyshev_sites(monkeypatch)
    st = tp.evolve(ham, 0.0)
    assert chebyshev == []
    assert st.psi.tobytes() == tp.initial_state(ham).tobytes()


def test_dense_oracle_rejects_large_boxes():
    ham = tp.build_hamiltonian(SHIFT1, THETA, ZERO, 3000)
    with pytest.raises(ValueError):
        tp.dense_evolve(ham, [1.0])


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


def _spectral_profile(ham, big_t):
    """The exact Abel average on the box, from its eigendecomposition.

    (2/T) int_0^inf e^{-2t/T} |psi(n, t)|^2 dt is the sum over eigenpairs
    j, k of u_j(0) u_k(0) u_j(n) u_k(n) / (1 + (T (E_j - E_k) / 2)^2).
    """
    assert ham.size <= 4097
    w, u = eigh_tridiagonal(ham.v, np.ones(ham.size - 1))
    b = u * u[ham.l_box]
    kernel = 1.0 / (1.0 + (0.5 * big_t * (w[:, None] - w[None, :])) ** 2)
    return np.sum((b @ kernel) * b, axis=1)


@pytest.mark.parametrize("phi, l_box, big_t, gl_error", [
    # the Gauss-Legendre error of the 20 x 12 rule, measured: 2.69e-4
    # and 4.29e-4, both at the origin
    (cc.CosinePotential(3.0), 128, 300.0, 3e-4),
    (ZERO, 512, 20.0, 5e-4)],
    ids=["localized", "free"])
def test_averaged_profile_against_the_spectral_sum(phi, l_box, big_t,
                                                   gl_error):
    ham = tp.build_hamiltonian(SHIFT1, THETA, phi, l_box)
    profile, = tp.averaged_profile([ham], [big_t])
    exact = _spectral_profile(ham, big_t)
    assert np.max(np.abs(profile - exact)) <= gl_error
    # the cut at 10 T drops e^{-20} of the mass, which the rule keeps
    assert profile.sum() == pytest.approx(1.0 - math.exp(-20.0), abs=1e-12)
    assert exact.sum() == pytest.approx(1.0, abs=1e-12)


def test_symmetric_cumsum_totals():
    prof = np.array([0.1, 0.2, 0.4, 0.2, 0.1])
    cum = tp._symmetric_cumsum(prof, 2)
    assert cum[0] == pytest.approx(0.4)
    assert cum[-1] == pytest.approx(prof.sum())
    assert np.all(np.diff(cum) >= 0)


def test_symmetric_cumsum_equals_the_site_loop():
    rng = np.random.default_rng(11)
    for l_box in (1, 2, 37, 300):
        prof = rng.random(2 * l_box + 1) ** 3
        want = np.empty(l_box + 1)
        want[0] = prof[l_box]
        for l in range(1, l_box + 1):
            want[l] = want[l - 1] + prof[l_box - l] + prof[l_box + l]
        assert tp._symmetric_cumsum(prof, l_box).tobytes() == want.tobytes()


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
    ham, = tp.auto_box(SHIFT1, THETA, ZERO, [30.0])
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
                           list(np.geomspace(5.0, 200.0, 9)))
    assert est.high <= 0.15


def test_localized_beta_takes_no_chebyshev_term(monkeypatch):
    # criterion 8's localized moments, on a 257-site box: from one
    # eigendecomposition, and equal to the Chebyshev sweep's
    phi = cc.CosinePotential(3.0)
    t_grid = list(np.geomspace(5.0, 1000.0, 12))
    moments, moment = [], tp.moment

    def recorded(state, p):
        assert state.psi.shape[-1] == 257
        moments[-1].append(moment(state, p))
        return moments[-1][-1]

    monkeypatch.setattr(tp, "moment", recorded)
    chebyshev = _chebyshev_sites(monkeypatch)
    estimates = []
    for dense_sites in (tp.DENSE_SITES, 0):
        monkeypatch.setattr(tp, "DENSE_SITES", dense_sites)
        moments.append([])
        estimates.append(tp.beta_estimate(SHIFT1, THETA, phi, 2.0, t_grid))
        if dense_sites:
            assert chebyshev == []
    assert chebyshev
    dense, swept = (np.array(m) for m in moments)
    assert len(dense) == len(t_grid)
    assert np.max(np.abs(dense / swept - 1.0)) <= 1e-12
    assert estimates[0].high <= 0.1


def test_localized_sweeps_reuse_the_probe_eigendecomposition(monkeypatch):
    # the box an auto_box probe decides is the box the estimator sweeps,
    # and it keeps its eigendecomposition: beta takes one, and xi one more
    # for the box at f(theta)
    phi = cc.CosinePotential(3.0)
    eigen = _eigendecompositions(monkeypatch)
    tp.beta_estimate(SHIFT1, THETA, phi, 2.0,
                     list(np.geomspace(5.0, 1e4, 12)))
    assert len(eigen) == 1
    eigen.clear()
    tp.xi_estimate(SHIFT1, TorusPoint((0.41,)), phi, [0.25, 0.5],
                   list(np.geomspace(30.0, 80.0, 9)))
    assert [ham.size for ham in eigen] == [257, 257]


def test_estimator_input_validation(monkeypatch):
    with pytest.raises(ValueError):
        tp.beta_estimate(SHIFT1, THETA, ZERO, 2.0, [1.0, 2.0, 3.0])

    def no_box(*args, **kwargs):
        raise AssertionError("auto_box ran before the time grid was checked")

    # time grids are checked before any box is probed or evolved
    monkeypatch.setattr(tp, "auto_box", no_box)
    # two times leave running_slopes no window: numpy's zero-size minimum
    with pytest.raises(ValueError, match="at least 3 grid times"):
        tp.xi_estimate(SHIFT1, THETA, ZERO, [0.4, 0.6], [10.0, 20.0])
    # a time 0 has no logarithm: a RuntimeWarning and still an estimate
    with pytest.raises(ValueError, match="positive"):
        tp.beta_estimate(SHIFT1, THETA, ZERO, 2.0,
                         [0.0, *np.geomspace(4.0, 60.0, 8)])
    for bad, match in (([-5.0, 10.0, 20.0], "positive"),
                       ([10.0, math.inf, 20.0], "finite"),
                       ([10.0, 10.0, 20.0], "distinct")):
        with pytest.raises(ValueError, match=match):
            tp.xi_estimate(SHIFT1, THETA, ZERO, [0.4, 0.6], bad)
    with pytest.raises(ValueError):
        tp.xi_estimate(SHIFT1, THETA, ZERO, [0.0, 0.5],
                       list(np.geomspace(5.0, 50.0, 8)))
    with pytest.raises(ValueError):
        tp.evolve(tp.build_hamiltonian(SHIFT1, THETA, ZERO, 8), -1.0)
    # a repeated level would append twice per T to one front list
    with pytest.raises(ValueError, match="distinct"):
        tp.xi_estimate(SHIFT1, THETA, ZERO, [0.6, 0.6], [10.0, 20.0, 40.0])


# ---------------------------------------------------------------------------
# row blocks against the one-row recurrence they replace
# ---------------------------------------------------------------------------

def _cheb_apply_reference(diag_scaled, off_scaled, coeffs, psi):
    """The one-row Chebyshev recurrence, allocating every term."""
    diag = np.asarray(diag_scaled, dtype=np.float64)
    coeffs = np.asarray(coeffs, dtype=np.complex128)
    t0 = np.asarray(psi, dtype=np.complex128).copy()

    def matvec(x):
        y = diag * x
        y[:-1] += off_scaled * x[1:]
        y[1:] += off_scaled * x[:-1]
        return y

    acc = coeffs[0] * t0
    if coeffs.shape[0] == 1:
        return acc
    t1 = matvec(t0)
    acc += coeffs[1] * t1
    for k in range(2, coeffs.shape[0]):
        t2 = 2.0 * matvec(t1) - t0
        acc += coeffs[k] * t2
        t0, t1 = t1, t2
    return acc


def _profile_reference(ham, big_t):
    """averaged_profile of one Hamiltonian, node by node, one row."""
    nodes, weights = tp.abel_nodes(big_t)
    scale = ham.enclosure
    psi = tp.initial_state(ham)
    acc = np.zeros(ham.size)
    prev = 0.0
    for t, w in zip(nodes, weights):
        coeffs = tp._chebyshev_coefficients((t - prev) * scale)
        psi = _cheb_apply_reference(ham.v / scale, 1.0 / scale, coeffs, psi)
        prev = t
        acc += w * np.abs(psi) ** 2
    return acc


def _hamiltonians(count, l_box=40):
    phi = cc.CosinePotential(1.5)
    return [tp.build_hamiltonian(SHIFT1, TorusPoint((0.17 * i,)), phi, l_box)
            for i in range(count)]


@pytest.mark.parametrize("length", [1, 2, 40, 60],
                         ids=["one-term", "two-terms", "forty-terms",
                              "sixty-terms"])
def test_cheb_apply_rows_equal_the_one_row_recurrence(length):
    ham, = _hamiltonians(1)
    scale = ham.enclosure
    diag = ham.v / scale
    # generic complex coefficients, both parts nonzero, so that a fused and
    # an unfused complex product would round apart; Bessel ones are purely
    # real or purely imaginary
    rng = np.random.default_rng(length)
    coeffs = rng.normal(size=length) + 1j * rng.normal(size=length)
    psi = rng.normal(size=diag.shape) + 1j * rng.normal(size=diag.shape)
    got = kernels.cheb_apply(diag, 1.0 / scale, coeffs, psi)
    want = _cheb_apply_reference(diag, 1.0 / scale, coeffs, psi)
    assert got.shape == diag.shape
    assert got.tobytes() == want.tobytes()


def test_repeated_times_keep_their_state(monkeypatch):
    # row 0 stays at t = 5 for one node while row 1 moves on: its third
    # state is its second, and its other nodes are those of the sweep
    # without the repeat
    monkeypatch.setattr(tp, "DENSE_SITES", 0)
    calls, apply = [], kernels.cheb_apply

    def counted(diag, off, coeffs, psi):
        calls.append((np.ndim(coeffs), np.ndim(psi)))
        return apply(diag, off, coeffs, psi)

    monkeypatch.setattr(kernels, "cheb_apply", counted)
    ham, other = _hamiltonians(2)
    states = tp.evolve_times([ham, other], [[2.0, 5.0, 5.0, 9.0],
                                            [1.0, 3.0, 4.0, 6.0]])
    assert len(calls) == 7
    # one row per call: the tracer counts term_sites as len(coeffs) *
    # len(psi), terms x sites
    assert set(calls) == {(1, 1)}
    assert states[2].psi[0].tobytes() == states[1].psi[0].tobytes()
    plain = tp.evolve_times([ham], [[2.0, 5.0, 9.0]])
    for st, want in zip([states[0], states[1], states[3]], plain):
        assert st.psi[0].tobytes() == want.psi[0].tobytes()
    alone = tp.evolve_times([other], [[1.0, 3.0, 4.0, 6.0]])
    for st, want in zip(states, alone):
        assert st.psi[1].tobytes() == want.psi[0].tobytes()


@pytest.mark.parametrize("dense_sites", [tp.DENSE_SITES, 0],
                         ids=["eigendecomposition", "chebyshev"])
@pytest.mark.parametrize("bad", [math.nan, math.inf])
def test_non_finite_times_are_rejected(monkeypatch, dense_sites, bad):
    # unchecked, a nan time gives the delta (Chebyshev) or a flagged state
    # (dense), and inf an OverflowError or a RuntimeWarning
    monkeypatch.setattr(tp, "DENSE_SITES", dense_sites)
    chebyshev = _chebyshev_sites(monkeypatch)
    eigen = _eigendecompositions(monkeypatch)
    ham = tp.build_hamiltonian(SHIFT1, THETA, ZERO, 64)
    with pytest.raises(ValueError, match="finite"):
        tp.evolve(ham, bad)
    with pytest.raises(ValueError, match="finite"):
        tp.evolve_times([ham], [[1.0, bad, 2.0]])
    # rejected before any propagation
    assert chebyshev == eigen == []


# Chebyshev sweeps run on boxes over DENSE_SITES = 513 sites, so the
# row-block tests below take half-widths of at least 257
@pytest.mark.parametrize("phi, phase, l_box", [
    # at 0.335 the shifted box gains its largest |v| at its new edge site
    (cc.CosinePotential(3.0), 0.335, 257), (ZERO, 0.3, 300)],
    ids=["scales-differ", "free"])
def test_phase_pair_profile_equals_two_one_row_profiles(phi, phase, l_box):
    th = TorusPoint((phase,))
    ham = tp.build_hamiltonian(SHIFT1, th, phi, l_box)
    shifted = tp.build_hamiltonian(SHIFT1, tp.step(SHIFT1, th), phi, l_box)
    if phi is ZERO:
        assert np.array_equal(ham.v, shifted.v)
    else:
        assert ham.enclosure != shifted.enclosure
    big_t = 3.0
    [(cum0, cum1)] = tp._phase_pair_cumsums(SHIFT1, th, phi, ham, [big_t])
    for cum, h in ((cum0, ham), (cum1, shifted)):
        want = tp._symmetric_cumsum(_profile_reference(h, big_t), l_box)
        assert cum.tobytes() == want.tobytes()
    if phi is not ZERO:
        pair = tp.averaged_profile([ham, shifted], [big_t] * 2)
        assert pair[1].tobytes() == _profile_reference(shifted,
                                                       big_t).tobytes()


def test_bessel_coefficients_once_per_distinct_step(monkeypatch):
    calls = []
    original = tp._chebyshev_coefficients

    def counted(tau):
        calls.append(tau)
        return original(tau)

    monkeypatch.setattr(tp, "_chebyshev_coefficients", counted)
    hams = _hamiltonians(2, l_box=257)
    assert hams[0].enclosure != hams[1].enclosure
    big_t = 3.0
    nodes, _ = tp.abel_nodes(big_t)
    steps = np.diff(np.concatenate(([0.0], nodes)))
    distinct = {float(dt * h.enclosure) for dt in steps for h in hams}
    assert len(distinct) < 2 * len(nodes)
    tp.averaged_profile(hams, [big_t] * 2)
    assert sorted(calls) == sorted(distinct)
    # no cache outlives the call: a second profile evaluates them again
    tp.averaged_profile(hams, [big_t] * 2)
    assert len(calls) == 2 * len(distinct)


def test_abel_rows_at_several_t_equal_one_row_profiles():
    # three T on one box, both phases of the pair: six rows at two scales
    phi = cc.CosinePotential(3.0)
    th = TorusPoint((0.335,))
    l_box = 257
    ham = tp.build_hamiltonian(SHIFT1, th, phi, l_box)
    shifted = tp.build_hamiltonian(SHIFT1, tp.step(SHIFT1, th), phi, l_box)
    assert ham.enclosure != shifted.enclosure
    big_ts = [5.0, 2.0, 3.0]
    pairs = tp._phase_pair_cumsums(SHIFT1, th, phi, ham, big_ts)
    assert len(pairs) == len(big_ts)
    for big_t, (cum0, cum1) in zip(big_ts, pairs):
        for cum, h in ((cum0, ham), (cum1, shifted)):
            want = _profile_reference(h, big_t)
            assert cum.tobytes() == tp._symmetric_cumsum(want,
                                                         l_box).tobytes()
    rows = tp.averaged_profile([ham, shifted, ham], [3.0, 2.0, 5.0])
    for row, h, big_t in zip(rows, (ham, shifted, ham), (3.0, 2.0, 5.0)):
        assert row.tobytes() == _profile_reference(h, big_t).tobytes()


# ---------------------------------------------------------------------------
# Abel averages on small boxes, from eigendecompositions
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("phi, phase, l_box, big_ts", [
    (cc.CosinePotential(3.0), 0.41, 128, [50.0, 30.0]),
    (cc.CosinePotential(1.0), 0.3, 200, [8.0]),
    (ZERO, 0.0, 256, [10.0, 4.0])],
    ids=["localized", "critical", "free"])
def test_dense_profile_matches_the_chebyshev_sweep(monkeypatch, phi, phase,
                                                   l_box, big_ts):
    th = TorusPoint((phase,))
    ham = tp.build_hamiltonian(SHIFT1, th, phi, l_box)
    shifted = tp.build_hamiltonian(SHIFT1, tp.step(SHIFT1, th), phi, l_box)
    assert ham.size <= tp.DENSE_SITES
    eigen = _eigendecompositions(monkeypatch)
    chebyshev = _chebyshev_sites(monkeypatch)
    # both phases at every T, in mixed order: one eigendecomposition per
    # box object (two free boxes with equal potentials take one each), no
    # Chebyshev term, and every row on its own rule
    rows = [(h, t) for t in big_ts for h in (ham, shifted)][::-1]
    hams, row_ts = [h for h, _ in rows], [t for _, t in rows]
    got = tp.averaged_profile(hams, row_ts)
    assert got.shape == (len(rows), ham.size)
    assert sorted(map(id, eigen)) == sorted(map(id, (ham, shifted)))
    assert chebyshev == []
    monkeypatch.setattr(tp, "DENSE_SITES", 0)
    want = tp.averaged_profile(hams, row_ts)
    assert chebyshev
    assert np.max(np.abs(got - want)) <= 1e-12


def _flag_message(hams, big_ts):
    with pytest.raises(ValueError, match="evolution flagged at t=") as err:
        tp.averaged_profile(hams, big_ts)
    return str(err.value)


def test_dense_profile_flags_a_small_box(monkeypatch):
    # the free delta puts 1e-8 on the edge sites of a 49-site box near
    # t = 7: the first node to fail is named with the latest time of the
    # rows there, as the Chebyshev sweep names it
    ham = tp.build_hamiltonian(SHIFT1, THETA, ZERO, 24)
    shifted = tp.build_hamiltonian(SHIFT1, THETA, cc.CosinePotential(0.1), 24)
    hams, big_ts = [ham, shifted, ham], [4.0, 2.0, 10.0]
    dense = _flag_message(hams, big_ts)
    monkeypatch.setattr(tp, "DENSE_SITES", 0)
    chebyshev = _flag_message(hams, big_ts)
    assert dense.split(" (")[0] == chebyshev.split(" (")[0]
    # a box that holds every node raises nothing
    monkeypatch.undo()
    tp.averaged_profile([tp.build_hamiltonian(SHIFT1, THETA, ZERO, 128)],
                        [4.0])


@pytest.mark.parametrize("big_t", [0.0, -5.0, math.inf, math.nan])
def test_averaged_profile_rejects_a_bad_t(monkeypatch, big_t):
    # unchecked, T = 0 divides by zero in abel_nodes and the others reach
    # evolve_times as a bad time grid
    def no_sweep(*args):
        raise AssertionError("evolved before T was checked")

    monkeypatch.setattr(tp, "evolve_times", no_sweep)
    ham = tp.build_hamiltonian(SHIFT1, THETA, ZERO, 16)
    with pytest.raises(ValueError, match="T must be positive and finite"):
        tp.averaged_profile([ham, ham], [5.0, big_t])


def test_empty_row_lists_are_rejected():
    with pytest.raises(ValueError, match="at least one row"):
        tp.averaged_profile([], [])


@pytest.mark.parametrize("phase", np.random.default_rng(17).random(3).round(6),
                         ids=lambda p: f"{p:.6f}")
def test_xi_fronts_equal_the_chebyshev_fronts(monkeypatch, phase):
    # the transport workload's localized front, on eigendecompositions and
    # with every sweep and probe forced onto Chebyshev blocks
    phi = cc.CosinePotential(3.0)
    th = TorusPoint((float(phase),))
    t_grid = list(np.geomspace(30.0, 50.0, 9))
    dense = tp.xi_estimate(SHIFT1, th, phi, [0.25, 0.5], t_grid)
    monkeypatch.setattr(tp, "DENSE_SITES", 0)
    chebyshev = tp.xi_estimate(SHIFT1, th, phi, [0.25, 0.5], t_grid)
    assert dense.fronts == chebyshev.fronts
    assert (dense.low, dense.high) == (chebyshev.low, chebyshev.high)


def _hamiltonian_reference(map_spec, theta, phi, l_box):
    """build_hamiltonian as one fresh two-sided walk and one phi call."""
    pts = np.empty((2 * l_box + 1, map_spec.d))
    cur = theta
    for n in range(l_box + 1):
        pts[l_box + n] = cur.coords
        cur = tp.step(map_spec, cur)
    cur = theta
    for n in range(1, l_box + 1):
        cur = tp.inverse_step(map_spec, cur)
        pts[l_box - n] = cur.coords
    return np.asarray(phi(pts), dtype=np.float64)


def test_shared_orbit_samples_equal_fresh_walks():
    phi = cc.CosinePotential(1.5)
    th = TorusPoint((0.3,))
    orbit = tp.Orbit(SHIFT1, th, phi)
    for l_box, center in ((3, 0), (40, 1), (17, 0), (129, 1), (129, 0)):
        ham = tp.build_hamiltonian(SHIFT1, th, phi, l_box, orbit, center)
        at = th if center == 0 else tp.step(SHIFT1, th)
        want = _hamiltonian_reference(SHIFT1, at, phi, l_box)
        assert ham.l_box == l_box
        assert ham.v.tobytes() == want.tobytes()


def _auto_box_reference(map_spec, theta, phi, t_max):
    """auto_box for one t_max: one probe per box, one box at a time.

    Called with DENSE_SITES = 0, so that every probe is a Chebyshev one.
    """
    ceiling = tp.worst_case_box(phi.sup_bound or 0.0, t_max)
    l = min(tp.BOX_START, ceiling)
    while True:
        ham = tp.build_hamiltonian(map_spec, theta, phi, l)
        state = tp.evolve(ham, t_max,
                          budget=1e-4 * tp.DEFAULT_BOUNDARY_BUDGET)
        if state.valid or l >= ceiling:
            return ham
        l = min(2 * l, ceiling)
        if l > tp.BOX_CAP:
            raise ValueError("box size exceeds the hard cap")


# the transport_xi workload's localized probe: 10 T for 9 T in [30, 80]
XI_PROBE = [10.0 * t for t in np.geomspace(30.0, 80.0, 9)]
# and its free one: 10 T for 8 T in [20, 160]
FREE_XI = [10.0 * t for t in np.geomspace(20.0, 160.0, 8)]


@pytest.mark.parametrize("phi, phase, t_maxes, boxes", [
    # 200: the 512 box passes below its ceiling of 516
    (ZERO, 0.0, [200.0, 20.0, 60.0, 200.0], [512, 128, 222, 512]),
    (cc.CosinePotential(3.0), 0.41, [300.0, 5.0, 2000.0], None),
    # the boxes below are all decided by the eigendecomposition: the
    # transport_beta workload's localized probe,
    (cc.CosinePotential(3.0), 0.0, [1e4], [128]),
    # a 9-row localized xi probe
    (cc.CosinePotential(3.0), 0.41, XI_PROBE, [128] * 9),
    # and a free time that fails at 128 and passes at 256, below its
    # ceiling of 306;
    (ZERO, 0.0, [100.0], [256]),
    # the free probes that front-law skipping drops: the transport_beta
    # workload's free t_max, which fails every probe up to its ceiling,
    (ZERO, 0.0, [2000.0], [4296]),
    # and the transport_xi workload's free rows, of which only 200 passes
    # below its ceiling;
    (ZERO, 0.0, FREE_XI, [512, 662, 857, 1120, 1475, 1951, 2593, 3456]),
    # a near-critical front, whose exponent is below FRONT_EXPONENT
    (cc.CosinePotential(1.03), 0.1, [1000.0, 3000.0], [512, 512])],
    ids=["free", "localized", "localized-beta", "localized-xi", "free-256",
         "free-beta", "free-xi", "near-critical"])
def test_auto_box_rows_equal_the_one_time_loop(monkeypatch, phi, phase,
                                              t_maxes, boxes):
    th = TorusPoint((phase,))
    got = tp.auto_box(SHIFT1, th, phi, t_maxes)
    assert len(got) == len(t_maxes)
    if boxes is not None:
        assert [ham.l_box for ham in got] == boxes
    if len(t_maxes) > 1:
        one, = tp.auto_box(SHIFT1, th, phi, t_maxes[:1])
        assert one.v.tobytes() == got[0].v.tobytes()
    # the boxes decided above on at most DENSE_SITES sites are the ones
    # the Chebyshev probes decide
    monkeypatch.setattr(tp, "DENSE_SITES", 0)
    for t_max, ham in zip(t_maxes, got):
        want = _auto_box_reference(SHIFT1, th, phi, t_max)
        assert ham.l_box == want.l_box
        assert ham.v.tobytes() == want.v.tobytes()


def _probes(monkeypatch):
    """The (half-width, t_max, passed) of every auto_box probe from now on:
    evolve calls at PROBE_BUDGET."""
    probes = []
    evolve = tp.evolve

    def counted(ham, t, budget=tp.DEFAULT_BOUNDARY_BUDGET):
        assert budget == tp.PROBE_BUDGET
        state = evolve(ham, t, budget)
        probes.append((ham.l_box, t, state.valid))
        return state

    monkeypatch.setattr(tp, "evolve", counted)
    return probes


def test_auto_box_never_probes_a_ceiling_box(monkeypatch):
    probes = _probes(monkeypatch)
    chebyshev = _chebyshev_sites(monkeypatch)
    # free, one time at a time: 20 passes at 128, 60 fails at 128 and
    # takes its ceiling 222 unprobed, and 200 passes at 512
    t_maxes = [60.0, 20.0, 200.0]
    got = tp.auto_box(SHIFT1, THETA, ZERO, t_maxes)
    ceilings = [tp.worst_case_box(0.0, t) for t in t_maxes]
    assert got[0].l_box == ceilings[0]
    assert probes == [(128, 20.0, True), (128, 60.0, False),
                      (128, 200.0, False), (256, 200.0, False),
                      (512, 200.0, True)]
    for l_box, t, _ in probes:
        assert l_box < tp.worst_case_box(0.0, t)
    # the 257- and 513-site probes are eigendecompositions: the only
    # Chebyshev probe is the 1025-site one
    assert tp.DENSE_SITES == 513
    assert chebyshev == [1025]


@pytest.mark.parametrize("t_maxes, sites", [
    # the doubling search probes 1025 (all eight rows), 2049 (five) and
    # 4097 (two); the front law through the dense fronts (50.7 on 257
    # sites, 109.9 on 513) keeps 200, which passes at 512, and 487.6, for
    # which it estimates 976, while the free front needs about 1046 there
    (FREE_XI, [1025, 2049]),
    # the doubling search probes 1025, 2049, 4097 and 8193; the front law
    # estimates 3460, below 4096
    ([2000.0], [8193])],
    ids=["free-xi", "free-beta"])
def test_auto_box_skips_the_probes_the_front_law_fails(monkeypatch, t_maxes,
                                                       sites):
    probes = _probes(monkeypatch)
    chebyshev = _chebyshev_sites(monkeypatch)
    got = tp.auto_box(SHIFT1, THETA, ZERO, t_maxes)
    assert chebyshev == sites
    # every Chebyshev probe fails but 200's at 512, and no time walks down
    assert all(passed == (l_box == 512 and t == 200.0)
               for l_box, t, passed in probes if l_box > 256)
    assert [ham.l_box for ham in got] == [
        512 if t == 200.0 else tp.worst_case_box(0.0, t) for t in t_maxes]


@pytest.mark.parametrize("phi, l_box", [
    (ZERO, 128), (ZERO, 256), (cc.CosinePotential(1.0), 128)],
    ids=["free-128", "free-256", "critical-128"])
def test_front_time_is_the_first_crossing_of_the_probe_budget(phi, l_box):
    ham = tp.build_hamiltonian(SHIFT1, TorusPoint((0.1,)), phi, l_box)
    t = tp._front_time(ham, 1e4, tp.PROBE_BUDGET)
    assert tp._front_time(ham, 0.5 * t, tp.PROBE_BUDGET) is None

    def masses(ts):
        return [tp.evolve(ham, t).boundary_mass for t in ts]

    # the evolved states cross the budget within 1e-5 of t, and not on a
    # grid of 0.25-wide steps before it
    below, above = masses([t * (1.0 - 2e-5), t])
    assert below <= tp.PROBE_BUDGET < above
    assert max(masses(list(np.arange(0.0, 0.99 * t, 0.25)))) <= tp.PROBE_BUDGET


def test_auto_box_walks_down_over_skipped_half_widths(monkeypatch):
    # on boxes a quarter the size, with every front counted as near
    # ballistic, the slowing fronts of lambda 1.1 overshoot the front law:
    # both times skip 128 and pass at 256, then walk back down to 128, the
    # last half-width they skipped, where 400 passes and 500 fails
    th, phi = TorusPoint((0.1,)), cc.CosinePotential(1.1)
    t_maxes = [400.0, 500.0]
    monkeypatch.setattr(tp, "BOX_START", 32)
    monkeypatch.setattr(tp, "DENSE_SITES", 129)
    monkeypatch.setattr(tp, "FRONT_EXPONENT", 0.1)
    probes = _probes(monkeypatch)
    got = tp.auto_box(SHIFT1, th, phi, t_maxes)
    assert probes == [(32, 400.0, False), (64, 400.0, False),
                      (256, 400.0, True), (128, 400.0, True),
                      (32, 500.0, False), (64, 500.0, False),
                      (256, 500.0, True), (128, 500.0, False)]
    assert [ham.l_box for ham in got] == [128, 256]
    monkeypatch.setattr(tp, "DENSE_SITES", 0)
    for t_max, ham in zip(t_maxes, got):
        want = _auto_box_reference(SHIFT1, th, phi, t_max)
        assert ham.v.tobytes() == want.v.tobytes()


@pytest.mark.parametrize("phi, phase, l_box, t_maxes", [
    (ZERO, 0.0, 128, [20.0, 60.0, 200.0]),
    # 110: a boundary mass of 1.35e-12, next to PROBE_BUDGET
    (ZERO, 0.0, 256, [100.0, 110.0, 200.0]),
    (cc.CosinePotential(1.0), 0.3, 256, [50.0, 150.0, 400.0]),
    (cc.CosinePotential(3.0), 0.0, 128, [1e4]),
    (cc.CosinePotential(3.0), 0.41, 128, XI_PROBE)],
    ids=["free-128", "free-256", "critical-256", "localized-beta",
         "localized-xi"])
def test_dense_probe_margins_agree_with_chebyshev(monkeypatch, phi, phase,
                                                  l_box, t_maxes):
    ham = tp.build_hamiltonian(SHIFT1, TorusPoint((phase,)), phi, l_box)
    assert ham.size <= tp.DENSE_SITES
    dense = [tp.evolve(ham, t, tp.PROBE_BUDGET) for t in t_maxes]
    monkeypatch.setattr(tp, "DENSE_SITES", 0)
    chebyshev = [tp.evolve(ham, t, tp.PROBE_BUDGET) for t in t_maxes]
    for d, c in zip(dense, chebyshev):
        assert d.t == c.t and d.valid == c.valid
        assert d.norm_defect <= 1e-8 and c.norm_defect <= 1e-8
        # relative 1e-4, and absolute 1e-20 (eight decades below the
        # budget) under the dense rounding floor: the eigenvectors carry
        # an absolute error near 1e-16 per site, so the dense mass
        # bottoms out near 1e-29 on 513 sites where the Chebyshev one
        # reads 1e-45, and its relative error grows as 1 / sqrt(mass):
        # measured 4e-10 at 1.35e-12 and 2e-5 at 4e-24
        assert d.boundary_mass == pytest.approx(c.boundary_mass, rel=1e-4,
                                                abs=1e-20)


def test_auto_box_raises_past_the_hard_cap(monkeypatch):
    # free T=200 fails its probes at 128 and 256, below its ceiling 516;
    # T=60 takes its ceiling 222, within the cap
    monkeypatch.setattr(tp, "BOX_CAP", 256)
    assert tp.worst_case_box(0.0, 200.0) > 256 >= tp.worst_case_box(0.0, 60.0)
    with pytest.raises(ValueError, match="hard cap"):
        tp.auto_box(SHIFT1, THETA, ZERO, [60.0, 200.0])
    with pytest.raises(ValueError, match="hard cap"):
        _auto_box_reference(SHIFT1, THETA, ZERO, 200.0)
    ham, = tp.auto_box(SHIFT1, THETA, ZERO, [60.0])
    assert ham.l_box == tp.worst_case_box(0.0, 60.0)
    assert _auto_box_reference(SHIFT1, THETA, ZERO, 60.0).l_box == ham.l_box
