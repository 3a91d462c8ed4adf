"""Quantum evolution: unitarity, closed-form oracles, exponent estimators."""

import math
import warnings

import mpmath
import numpy as np
import pytest
from scipy.linalg import eigh_tridiagonal
from scipy.special import ellipk, jv

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


def _hop_sites(psi, tau):
    """The sites of the Chebyshev hop by the scaled step tau from psi: the
    amplitudes above TRIM, widened by the series length on each side and
    clipped to the box."""
    kept = np.flatnonzero(np.abs(psi) > tp.TRIM)
    reach = len(tp._chebyshev_coefficients(tau))
    return (min(kept[-1] + 1 + reach, psi.shape[-1])
            - max(kept[0] - reach, 0))


def _delta_sites(ham, t):
    """The sites of the one Chebyshev hop from the delta to t on ham."""
    return _hop_sites(tp.initial_state(ham), t * ham.enclosure)


def _eigendecompositions(monkeypatch):
    """The box of every _eigenbasis call from now on."""
    boxes, basis = [], tp._eigenbasis

    def counted(ham):
        boxes.append(ham)
        return basis(ham)

    monkeypatch.setattr(tp, "_eigenbasis", counted)
    return boxes


def _evolve_times_calls(monkeypatch):
    """The Hamiltonian of every evolve_times call from now on."""
    calls, sweep = [], tp.evolve_times

    def counted(ham, ts):
        calls.append(ham)
        return sweep(ham, ts)

    monkeypatch.setattr(tp, "evolve_times", counted)
    return calls


def test_free_evolution_bessel_closed_form(monkeypatch):
    # on the eigendecomposition, then with the box forced onto Chebyshev
    ham = tp.build_hamiltonian(SHIFT1, THETA, ZERO, 96)
    sites = ham.sites()
    exact = (-1j) ** np.abs(sites) * jv(np.abs(sites), 14.0)
    chebyshev = _chebyshev_sites(monkeypatch)
    # the hop from the delta reaches 41 sites on each side of 96
    window = _delta_sites(ham, 7.0)
    assert window == 83
    for dense_sites, applied in ((tp.DENSE_SITES, []), (0, [window])):
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
    ts = [2.0, 5.0, 9.0]
    states = tp.evolve_times(ham, ts)
    # each hop runs on the sites its state can reach, which by t = 9
    # cover the box
    scale = ham.enclosure
    starts = [tp.initial_state(ham)] + [st.psi for st in states[:-1]]
    steps = np.diff([0.0] + ts) * scale
    assert chebyshev == [_hop_sites(psi, tau)
                         for psi, tau in zip(starts, steps)]
    assert chebyshev[0] < chebyshev[-1] == ham.size
    direct = tp.evolve(ham, 9.0, budget=1.0)
    assert states[-1].psi.shape == (ham.size,)
    assert np.max(np.abs(states[-1].psi - direct.psi)) < 1e-10


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
    # a state of a time grid has the moment of the one-time state
    node, = tp.evolve_times(ham, [0.0])
    assert tp.moment(node, 2.0) == tp.moment(st, 2.0)
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
    # the Gauss-Legendre error of the 20 x 12 rule on a Chebyshev box,
    # measured: 4.29e-4 at the origin
    (ZERO, 512, 20.0, 5e-4)],
    ids=["free"])
def test_averaged_profile_against_the_spectral_sum(phi, l_box, big_t,
                                                   gl_error):
    ham = tp.build_hamiltonian(SHIFT1, THETA, phi, l_box)
    assert ham.size > tp.DENSE_SITES
    profile = tp.averaged_profile(ham, big_t)
    exact = _spectral_profile(ham, big_t)
    assert np.max(np.abs(profile - exact)) <= gl_error
    # the cut at 10 T drops e^{-20} of the mass, which the rule keeps
    assert profile.sum() == pytest.approx(1.0 - math.exp(-20.0), abs=1e-12)
    assert exact.sum() == pytest.approx(1.0, abs=1e-12)


def _time_integral(ham, big_t, step):
    """The Abel average by the trapezoid rule of the given step on
    [0, 20 T], whose cut drops e^{-40} of the weight, from dense_evolve
    in chunks of nodes; and the same rule at twice the step, from the
    even nodes."""
    count = int(round(20.0 * big_t / step)) + 1
    fine, coarse = np.zeros(ham.size), np.zeros(ham.size)
    for start in range(0, count, 2048):
        k = np.arange(start, min(start + 2048, count))
        weights = np.exp(-2.0 * k * step / big_t) * np.where(k == 0, 0.5, 1.0)
        prob = np.abs(tp.dense_evolve(ham, k * step)) ** 2
        fine += weights @ prob
        coarse += weights[k % 2 == 0] @ prob[k % 2 == 0]
    scale = 2.0 / big_t * step
    return scale * fine, 2.0 * scale * coarse


@pytest.mark.parametrize("phase", [0.0, 0.3, 0.636962],
                         ids=["0", "0.3", "seed0"])
def test_dense_profile_against_a_brute_force_time_integral(phase):
    # lambda = 3 on 257 sites at T = 30, where the 20 x 12 Gauss-Legendre
    # rule on the node states was off by 9.4e-4, 1.0e-2 and 1.3e-2 at a
    # site: |psi(n, t)|^2 oscillates at the frequencies E_j - E_k, up to
    # about 16, for all t.  The trapezoid rule of step 0.1 resolves them;
    # its step-halving gap, measured 1.12e-5 at the origin, is three times
    # its error there (3.71e-6), as the rule converges as step^2
    ham = tp.build_hamiltonian(SHIFT1, TorusPoint((phase,)),
                               cc.CosinePotential(3.0), 128)
    assert ham.size <= tp.DENSE_SITES
    profile = tp.averaged_profile(ham, 30.0)
    fine, coarse = _time_integral(ham, 30.0, 0.1)
    halving = np.max(np.abs(fine - coarse))
    assert halving <= 1.2e-5
    assert np.max(np.abs(profile - fine)) <= halving / 2.0
    assert profile.sum() == pytest.approx(1.0, abs=1e-12)


def test_dense_profile_at_a_huge_t_is_the_infinite_time_limit():
    # at T = 1e200 every off-diagonal term of the spectral sum vanishes,
    # with no overflow warning: a(n) = sum_j (u_j(n) u_j(0))^2
    ham = tp.build_hamiltonian(SHIFT1, TorusPoint((0.3,)),
                               cc.CosinePotential(3.0), 128)
    w, u = eigh_tridiagonal(ham.v, np.ones(ham.size - 1))
    limit = np.sum((u * u[ham.l_box]) ** 2, axis=1)
    with warnings.catch_warnings(), np.errstate(all="raise", under="ignore"):
        warnings.simplefilter("error")
        profile = tp.averaged_profile(ham, 1e200)
    assert np.max(np.abs(profile - limit)) <= 1e-14
    assert profile.sum() == pytest.approx(1.0, abs=1e-12)


def _free_abel_profile(l_box, big_t):
    """The exact Abel profile of the free delta on Z, at |n| <= l_box.

    a(n, T) = Q_{|n| - 1/2}(z) / (pi T) with z = 1 + 1/(2 T^2)
    (Gradshteyn-Ryzhik 6.612.3 for psi(n, t) = (-i)^n J_n(2t)), Q the
    Legendre function of the second kind.  q[m] = Q_{m - 1/2}(z) comes
    from Miller's backward recurrence, started 40 T + 50 orders past the
    box edge, and is normalized by Q_{-1/2}(z) = sqrt(2/(z+1)) K(2/(z+1)).
    """
    z = 1.0 + 0.5 / big_t ** 2
    top = l_box + int(40 * big_t + 50)
    q = np.zeros(top + 2)
    q[top] = 1.0
    for m in range(top, 0, -1):
        q[m - 1] = (2 * m * z * q[m] - (m + 0.5) * q[m + 1]) / (m - 0.5)
    k2 = 2.0 / (z + 1.0)
    q *= math.sqrt(k2) * ellipk(k2) / q[0]
    return q[np.abs(np.arange(-l_box, l_box + 1))] / (math.pi * big_t)


@pytest.mark.parametrize("big_t, sites, gl_error, cum_error", [
    # the Gauss-Legendre error of the 20 x 12 rule against the closed
    # form, measured: 4.28e-4 at T = 20; 7.11e-3, and 7.47e-3 on the
    # cumulative sums, at T = 40.  sites: the window of the last node
    (20.0, 1063, 4.3e-4, 4.3e-4), (40.0, 1925, 7.2e-3, 7.5e-3)],
    ids=["T20", "T40"])
def test_free_averaged_profile_against_the_closed_form(big_t, sites, gl_error,
                                                       cum_error):
    # the open chain auto_box gives xi_estimate at T, swept by Chebyshev
    # on windows that grow with the state
    ham, = tp.auto_box(SHIFT1, THETA, ZERO, [10.0 * big_t])
    assert isinstance(ham, tp.OpenChain)
    profile = tp.averaged_profile(ham, big_t)
    half = profile.size // 2
    assert profile.size == sites > tp.DENSE_SITES
    exact = _free_abel_profile(half, big_t)
    # the oracle against mpmath, measured within 5.2e-14 relative, and its
    # mass on the window, which misses a tail below 5.7e-12
    z = 1.0 + 0.5 / big_t ** 2
    for n in (0, 1, 7, 100, half):
        q = float(mpmath.re(mpmath.legenq(n - 0.5, 0, z, type=3)))
        assert exact[half + n] * math.pi * big_t == pytest.approx(q, rel=1e-13)
    assert exact.sum() == pytest.approx(1.0, abs=1e-10)
    assert np.max(np.abs(profile - exact)) <= gl_error
    cum, cum_exact = (tp._symmetric_cumsum(p, half) for p in (profile, exact))
    assert np.max(np.abs(cum - cum_exact)) <= cum_error
    # the cut at 10 T drops e^{-20} = 2.06e-9 of the mass; the second
    # moment sum n^2 a(n, T) = T^2, measured -4.6e-7 relative at both T
    assert abs(profile.sum() - 1.0) <= 2.1e-9
    moment = np.sum(np.arange(-half, half + 1) ** 2 * profile) / big_t ** 2
    assert abs(moment - 1.0) <= 4.6e-7


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


def test_auto_box_state_passes_certification():
    # free t = 30: the front 2t = 60 stays well inside the first probe box
    ham, = tp.auto_box(SHIFT1, THETA, ZERO, [30.0])
    st = tp.evolve(ham, 30.0)
    assert st.valid
    assert ham.l_box == tp.BOX_START


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
# the kernel and the sweep against the one-row recurrence
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


def _trimmed(psi):
    """psi with the tails beyond its outermost amplitudes above TRIM zeroed."""
    kept = np.flatnonzero(np.abs(psi) > tp.TRIM)
    out = np.zeros_like(psi)
    out[kept[0]:kept[-1] + 1] = psi[kept[0]:kept[-1] + 1]
    return out


def _states_reference(ham, ts, trim=True):
    """The delta evolved node by node on the whole box, one row, with the
    sweep's tail trim before each step if trim."""
    scale = ham.enclosure
    psi = tp.initial_state(ham)
    prev = 0.0
    for t in ts:
        if t > prev:
            coeffs = tp._chebyshev_coefficients((t - prev) * scale)
            psi = _cheb_apply_reference(ham.v / scale, 1.0 / scale, coeffs,
                                        _trimmed(psi) if trim else psi)
        prev = t
        yield psi


def _profile_reference(ham, big_t):
    """averaged_profile of one Hamiltonian, node by node, one row."""
    nodes, weights = tp.abel_nodes(big_t)
    acc = np.zeros(ham.size)
    for psi, w in zip(_states_reference(ham, nodes), weights):
        acc += w * np.abs(psi) ** 2
    return acc


def _hamiltonian(l_box=40):
    return tp.build_hamiltonian(SHIFT1, THETA, cc.CosinePotential(1.5), l_box)


@pytest.mark.parametrize("length", [1, 2, 40, 60],
                         ids=["one-term", "two-terms", "forty-terms",
                              "sixty-terms"])
def test_cheb_apply_rows_equal_the_one_row_recurrence(length):
    ham = _hamiltonian()
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


def _support(size, first, last):
    psi = np.zeros(size, dtype=np.complex128)
    rng = np.random.default_rng(size + first)
    psi[first:last + 1] = (rng.normal(size=last + 1 - first)
                           + 1j * rng.normal(size=last + 1 - first))
    return psi


# compact supports: the kernel grows its window from the sites of psi
@pytest.mark.parametrize("psi, length", [
    (tp.initial_state(tp.BoxHamiltonian(np.zeros(81), 40)), 60),
    (_support(81, 0, 2), 60),
    (_support(81, 78, 80), 60),
    (_support(81, 30, 31), 60),
    # 100 terms reach past both edges of 81 sites
    (_support(81, 40, 44), 100),
    (np.zeros(81, dtype=np.complex128), 60),
    # purely real and imaginary entries, signed zeros among them
    (np.array([0j] * 30 + [complex(-0.0, 1.0), complex(2.0, -0.0),
                           complex(-0.0, -0.0)] + [0j] * 48), 60)],
    ids=["centre-delta", "low-edge", "high-edge", "two-sites",
         "longer-than-box", "all-zero", "signed-zeros"])
@pytest.mark.parametrize("bessel", [False, True], ids=["generic", "bessel"])
def test_cheb_apply_windows_equal_the_whole_recurrence(psi, length, bessel):
    ham = _hamiltonian()
    scale = ham.enclosure
    # a potential of both signs: v * 0 is -0 where v < 0
    assert np.min(ham.v) < 0.0 < np.max(ham.v)
    diag = ham.v / scale
    rng = np.random.default_rng(length)
    if bessel:
        coeffs = tp._chebyshev_coefficients(length / 3.0)
    else:
        coeffs = rng.normal(size=length) + 1j * rng.normal(size=length)
    got = kernels.cheb_apply(diag, 1.0 / scale, coeffs, psi)
    want = _cheb_apply_reference(diag, 1.0 / scale, coeffs, psi)
    # bit for bit, signed zeros included
    assert got.tobytes() == want.tobytes()
    if not np.any(psi):
        assert not np.any(got)


def test_repeated_times_keep_their_state(monkeypatch):
    # the sweep stays at t = 5 for one node: its third state is its second,
    # a copy of its own, and its other nodes are those of the sweep without
    # the repeat
    monkeypatch.setattr(tp, "DENSE_SITES", 0)
    calls, apply = [], kernels.cheb_apply

    def counted(diag, off, coeffs, psi):
        calls.append((np.ndim(coeffs), np.ndim(psi)))
        return apply(diag, off, coeffs, psi)

    monkeypatch.setattr(kernels, "cheb_apply", counted)
    ham = _hamiltonian()
    states = tp.evolve_times(ham, [2.0, 5.0, 5.0, 9.0])
    assert len(calls) == 3
    # one row per call: the tracer counts term_sites as len(coeffs) *
    # len(psi), terms x sites
    assert set(calls) == {(1, 1)}
    assert states[2].psi.tobytes() == states[1].psi.tobytes()
    assert not np.shares_memory(states[2].psi, states[1].psi)
    plain = tp.evolve_times(ham, [2.0, 5.0, 9.0])
    for st, want in zip([states[0], states[1], states[3]], plain):
        assert st.psi.tobytes() == want.psi.tobytes()


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
        tp.evolve_times(ham, [1.0, bad, 2.0])
    # rejected before any propagation
    assert chebyshev == eigen == []


@pytest.mark.parametrize("phi, phase", [
    # at 0.274 the shifted box gains its largest |v| at its new edge site
    (cc.CosinePotential(3.0), 0.274), (ZERO, 0.3)],
    ids=["scales-differ", "free"])
def test_phase_pair_profile_equals_two_one_row_profiles(monkeypatch, phi,
                                                        phase):
    # xi_estimate's total at each T, on Chebyshev sweeps, is the sum of the
    # cumulative profiles at theta and at f(theta) on T's box, each equal
    # to its one-box reference bit for bit; equal potentials (free) take
    # one profile for both
    monkeypatch.setattr(tp, "DENSE_SITES", 0)
    th = TorusPoint((phase,))
    t_grid = [2.0, 3.0, 5.0]
    hams = tp.auto_box(SHIFT1, th, phi, [10.0 * t for t in t_grid])
    profiled, profile = [], tp.averaged_profile
    totals, front = [], tp.xi_front

    def recorded(ham, big_t):
        profiled.append((ham.v.tobytes(), big_t))
        return profile(ham, big_t)

    def front_of(total, tau):
        totals.append(total)
        return front(total, tau)

    monkeypatch.setattr(tp, "averaged_profile", recorded)
    monkeypatch.setattr(tp, "xi_front", front_of)
    tp.xi_estimate(SHIFT1, th, phi, [0.5], t_grid)
    assert len(totals) == len(t_grid)
    want = []
    for ham, big_t, total in zip(hams, t_grid, totals):
        shifted = tp.build_hamiltonian(SHIFT1, tp.step(SHIFT1, th), phi,
                                       ham.l_box)
        if phi is ZERO:
            assert np.array_equal(ham.v, shifted.v)
            want.append((ham.v.tobytes(), big_t))
        else:
            assert ham.enclosure != shifted.enclosure
            want += [(h.v.tobytes(), big_t) for h in (ham, shifted)]
        cum0, cum1 = (tp._symmetric_cumsum(_profile_reference(h, big_t),
                                           ham.l_box)
                      for h in (ham, shifted))
        assert total.tobytes() == (cum0 + cum1).tobytes()
    assert profiled == want


def test_bessel_coefficients_once_per_distinct_step(monkeypatch):
    calls = []
    original = tp._chebyshev_coefficients

    def counted(tau):
        calls.append(tau)
        return original(tau)

    monkeypatch.setattr(tp, "_chebyshev_coefficients", counted)
    ham = _hamiltonian(l_box=257)
    big_t = 3.0
    nodes, _ = tp.abel_nodes(big_t)
    steps = np.diff(np.concatenate(([0.0], nodes)))
    distinct = {float(dt * ham.enclosure) for dt in steps}
    assert len(distinct) < len(nodes)
    tp.averaged_profile(ham, big_t)
    assert sorted(calls) == sorted(distinct)
    # no cache outlives the call: a second profile evaluates them again
    tp.averaged_profile(ham, big_t)
    assert len(calls) == 2 * len(distinct)


# ---------------------------------------------------------------------------
# light-cone windows of the Chebyshev sweep
# ---------------------------------------------------------------------------

SWEEP_BOXES = pytest.mark.parametrize("phi, phase, l_box, big_t", [
    (ZERO, 0.0, 300, 12.0),
    (cc.CosinePotential(3.0), 0.335, 257, 30.0),
    (cc.CosinePotential(1.0), 0.1, 300, 20.0)],
    ids=["free", "localized", "critical"])


@SWEEP_BOXES
def test_untrimmed_windows_equal_the_whole_box_sweep(monkeypatch, phi, phase,
                                                     l_box, big_t):
    # with TRIM = 0 a hop drops nothing, and its window changes no bit
    monkeypatch.setattr(tp, "DENSE_SITES", 0)
    monkeypatch.setattr(tp, "TRIM", 0.0)
    chebyshev = _chebyshev_sites(monkeypatch)
    ham = tp.build_hamiltonian(SHIFT1, TorusPoint((phase,)), phi, l_box)
    nodes, weights = tp.abel_nodes(big_t)
    states = tp.evolve_times(ham, nodes)
    assert min(chebyshev) < ham.size
    want = list(_states_reference(ham, nodes, trim=False))
    for st, psi in zip(states, want):
        assert st.psi.tobytes() == psi.tobytes()
    profile = np.zeros(ham.size)
    for psi, w in zip(want, weights):
        profile += w * np.abs(psi) ** 2
    got = tp.averaged_profile(ham, big_t)
    assert got.tobytes() == profile.tobytes()


@SWEEP_BOXES
def test_trimmed_windows_agree_with_the_whole_box_sweep(monkeypatch, phi,
                                                        phase, l_box, big_t):
    # the default TRIM against the untrimmed whole-box sweep.  Measured on
    # these boxes: states within 4.5e-15, norm defects within 5.3e-15,
    # profiles within 1.2e-16, and within 1.6e-15 relative on entries above
    # 1e-12: the rounding of a sweep whose far tails differ, against a
    # truncation of up to COEFF_TOL per hop.  Boundary masses within
    # 4.4e-39, where the dropped tail can be all of an early node's edge
    # mass, 29 decades below the budget
    monkeypatch.setattr(tp, "DENSE_SITES", 0)
    ham = tp.build_hamiltonian(SHIFT1, TorusPoint((phase,)), phi, l_box)
    nodes, weights = tp.abel_nodes(big_t)
    states = tp.evolve_times(ham, nodes)
    want = list(_states_reference(ham, nodes, trim=False))
    profile = np.zeros(ham.size)
    for t, st, psi, w in zip(nodes, states, want, weights):
        assert np.max(np.abs(st.psi - psi)) <= 1e-14
        exact, = tp._certify([t], psi[None], tp.DEFAULT_BOUNDARY_BUDGET)
        assert st.norm_defect == pytest.approx(exact.norm_defect, abs=1e-14)
        assert st.boundary_mass == pytest.approx(exact.boundary_mass,
                                                 abs=1e-37)
        profile += w * np.abs(psi) ** 2
    got = tp.averaged_profile(ham, big_t)
    assert np.max(np.abs(got - profile)) <= 1e-15
    above = profile > 1e-12
    assert np.max(np.abs(got - profile)[above] / profile[above]) <= 1e-14


def test_free_sweep_runs_on_the_light_cone(monkeypatch):
    # 601 sites, whose edge the front 2t does not reach by t = 100
    ham = tp.build_hamiltonian(SHIFT1, THETA, ZERO, 300)
    assert ham.size > tp.DENSE_SITES
    chebyshev = _chebyshev_sites(monkeypatch)
    ts = [2.0, 10.0, 40.0, 100.0]
    states = tp.evolve_times(ham, ts)
    # the early hops run on the sites the state can reach
    assert chebyshev[0] < chebyshev[1] < chebyshev[2] < ham.size
    n = np.abs(ham.sites())
    for t, st in zip(ts, states):
        exact = (-1j) ** n * jv(n, 2.0 * t)
        assert np.max(np.abs(st.psi - exact)) < 1e-12


# ---------------------------------------------------------------------------
# Abel averages on small boxes, from eigendecompositions
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("phi, phase, l_box, big_ts, gl_error", [
    # the Gauss-Legendre error of the Chebyshev profiles at both phases,
    # measured: 2.69e-3, 1.75e-9 and 2.16e-10 at a site
    (cc.CosinePotential(3.0), 0.41, 128, [50.0, 30.0], 2.7e-3),
    (cc.CosinePotential(1.0), 0.3, 200, [8.0], 1.8e-9),
    (ZERO, 0.0, 256, [10.0, 4.0], 2.2e-10)],
    ids=["localized", "critical", "free"])
def test_dense_profile_matches_the_chebyshev_sweep(monkeypatch, phi, phase,
                                                   l_box, big_ts, gl_error):
    th = TorusPoint((phase,))
    ham = tp.build_hamiltonian(SHIFT1, th, phi, l_box)
    shifted = tp.build_hamiltonian(SHIFT1, tp.step(SHIFT1, th), phi, l_box)
    assert ham.size <= tp.DENSE_SITES
    eigen = _eigendecompositions(monkeypatch)
    chebyshev = _chebyshev_sites(monkeypatch)
    sweeps = _evolve_times_calls(monkeypatch)
    # both phases at every T: one eigendecomposition per box object (two
    # free boxes with equal potentials take one each), no time sweep and
    # no Chebyshev term
    pairs = [(h, t) for t in big_ts for h in (ham, shifted)]
    got = [tp.averaged_profile(h, t) for h, t in pairs]
    assert sorted(map(id, eigen)) == sorted(map(id, (ham, shifted)))
    assert chebyshev == sweeps == []
    # the exact profiles against the Gauss-Legendre rule on Chebyshev
    # sweeps of the same boxes
    monkeypatch.setattr(tp, "DENSE_SITES", 0)
    for profile, (h, t) in zip(got, pairs):
        assert profile.shape == (ham.size,)
        assert np.max(np.abs(profile - tp.averaged_profile(h, t))) <= gl_error
    assert chebyshev
    assert len(sweeps) == len(pairs)


def test_dense_profile_flags_a_small_box(monkeypatch):
    # the free delta puts 1e-8 on the edge sites of a 49-site box near
    # t = 7: the averages at T = 4, 2 and 10 put more than that on them,
    # and at T = 1 only the state at 10 T does (2.6e-11 against 1.2e-3).
    # Each is flagged with T and its values, and the Chebyshev sweep
    # flags each at a node
    ham = tp.build_hamiltonian(SHIFT1, THETA, ZERO, 24)
    shifted = tp.build_hamiltonian(SHIFT1, THETA, cc.CosinePotential(0.1), 24)
    cases = [(ham, 4.0), (shifted, 2.0), (ham, 10.0), (ham, 1.0)]
    number = r"-?\d\.\d\de[+-]\d+"
    for h, t in cases:
        with pytest.raises(ValueError, match=(
                rf"^Abel profile flagged at T={t:g} \(defect {number}, "
                rf"boundary {number}; state at t={10 * t:g}: defect "
                rf"{number}, boundary {number}\)$")) as err:
            tp.averaged_profile(h, t)
        boundary = float(str(err.value).split("boundary ")[1].split(";")[0])
        assert (boundary > tp.DEFAULT_BOUNDARY_BUDGET) == (t > 1.0)
    monkeypatch.setattr(tp, "DENSE_SITES", 0)
    for h, t in cases:
        with pytest.raises(ValueError, match="evolution flagged at t="):
            tp.averaged_profile(h, t)
    # a box that holds the average and the state at 10 T raises nothing
    monkeypatch.undo()
    tp.averaged_profile(tp.build_hamiltonian(SHIFT1, THETA, ZERO, 128), 4.0)
    tp.averaged_profile(ham, 0.5)


@pytest.mark.parametrize("big_t", [0.0, -5.0, math.inf, math.nan])
def test_averaged_profile_rejects_a_bad_t(monkeypatch, big_t):
    # unchecked, T = 0 divides by zero in abel_nodes and the others reach
    # evolve_times as a bad time grid; on a dense box the spectral sum
    # would give the delta at T = 0, the T = 5 profile at T = -5, and nan
    # at inf and nan
    def no_sweep(*args):
        raise AssertionError("evolved before T was checked")

    monkeypatch.setattr(tp, "evolve_times", no_sweep)
    eigen = _eigendecompositions(monkeypatch)
    for l_box in (16, 300):
        ham = tp.build_hamiltonian(SHIFT1, THETA, ZERO, l_box)
        with pytest.raises(ValueError, match="T must be positive and finite"):
            tp.averaged_profile(ham, big_t)
    assert eigen == []


@pytest.mark.parametrize("phase", np.random.default_rng(17).random(3).round(6),
                         ids=lambda p: f"{p:.6f}")
def test_xi_fronts_equal_the_chebyshev_fronts(monkeypatch, phase):
    # the transport workload's localized front, on eigendecompositions and
    # with every sweep and probe forced onto Chebyshev
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


def test_orbit_growth_in_chunks_equals_one_chunk(monkeypatch):
    phi = cc.CosinePotential(1.5)
    th = TorusPoint((0.3,))
    chunks = [tp.GROWTH_CHUNK, 7]
    monkeypatch.setattr(tp, "GROWTH_CHUNK", 1 << 20)
    whole = tp.Orbit(SHIFT1, th, phi).potential(-2500, 2500)
    for chunk in chunks:
        monkeypatch.setattr(tp, "GROWTH_CHUNK", chunk)
        orbit = tp.Orbit(SHIFT1, th, phi)
        # one growth in several chunks, and a second one on top of it
        part = orbit.potential(-300, 40)
        assert part.tobytes() == whole[2200:2541].tobytes()
        assert orbit.potential(-2500, 2500).tobytes() == whole.tobytes()


# the transport_xi workload's localized probe: 10 T for 9 T in [30, 80]
XI_PROBE = [10.0 * t for t in np.geomspace(30.0, 80.0, 9)]
# and its free one: 10 T for 8 T in [20, 160]
FREE_XI = [10.0 * t for t in np.geomspace(20.0, 160.0, 8)]


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


@pytest.mark.parametrize("phi, phase, t_maxes, boxes", [
    # free: 20 passes at 128, 60 at 256, and 200 fails both
    (ZERO, 0.0, [200.0, 20.0, 60.0, 200.0], [None, 128, 256, None]),
    (cc.CosinePotential(3.0), 0.41, [300.0, 5.0, 2000.0], [128, 128, 128]),
    # the transport_beta workload's localized probe,
    (cc.CosinePotential(3.0), 0.0, [1e4], [128]),
    # a 9-row localized xi probe,
    (cc.CosinePotential(3.0), 0.41, XI_PROBE, [128] * 9),
    # a free time that fails at 128 and passes at 256,
    (ZERO, 0.0, [100.0], [256]),
    # the transport_beta and transport_xi workloads' free rows,
    (ZERO, 0.0, [2000.0], [None]),
    (ZERO, 0.0, FREE_XI, [None] * 8),
    # and a near-critical front
    (cc.CosinePotential(1.03), 0.1, [1000.0, 3000.0], [None, None])],
    ids=["free", "localized", "localized-beta", "localized-xi", "free-256",
         "free-beta", "free-xi", "near-critical"])
def test_auto_box_rows_equal_the_one_time_loop(monkeypatch, phi, phase,
                                              t_maxes, boxes):
    # each distinct time, in ascending order, takes the first of the 257-
    # and 513-site boxes whose probe passes, or else the open chain (None)
    th = TorusPoint((phase,))
    probes = _probes(monkeypatch)
    chebyshev = _chebyshev_sites(monkeypatch)
    got = tp.auto_box(SHIFT1, th, phi, t_maxes)
    assert [getattr(ham, "l_box", None) for ham in got] == boxes
    want = []
    for t in sorted(set(t_maxes)):
        width = boxes[t_maxes.index(t)]
        want += [(l_box, t, l_box == width) for l_box in (128, 256)
                 if width is None or l_box <= width]
    assert probes == want
    # the probes are eigendecompositions, and the times share one chain
    assert chebyshev == []
    assert len({id(ham) for ham in got if isinstance(ham, tp.OpenChain)}) <= 1
    # the boxes decided above on at most DENSE_SITES sites are the ones
    # the Chebyshev probes decide, one time at a time
    monkeypatch.setattr(tp, "DENSE_SITES", 0)
    for t_max, ham in zip(t_maxes, got):
        one, = tp.auto_box(SHIFT1, th, phi, [t_max])
        assert type(one) is type(ham)
        if isinstance(ham, tp.BoxHamiltonian):
            assert one.l_box == ham.l_box
            assert one.v.tobytes() == ham.v.tobytes()
    assert chebyshev


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
    # the light cone (2 + sup|phi|) t_max of the largest time is checked
    # against BOX_CAP before any probe: 400 sites a side for free t = 200
    # and for lambda = 3 at t = 50, whose probe would pass at 128
    probes = _probes(monkeypatch)
    chebyshev = _chebyshev_sites(monkeypatch)
    monkeypatch.setattr(tp, "BOX_CAP", 399)
    for phi, t in ((ZERO, 200.0), (cc.CosinePotential(3.0), 50.0)):
        with pytest.raises(tp.LightConeError,
                           match=rf"t_max={t:g}, .* 400 sites .* cap of 399"):
            tp.auto_box(SHIFT1, THETA, phi, [20.0, t, 10.0])
    assert issubclass(tp.LightConeError, ValueError)
    assert probes == chebyshev == []
    # a light cone of exactly the cap is accepted
    monkeypatch.setattr(tp, "BOX_CAP", 400)
    ham, = tp.auto_box(SHIFT1, THETA, ZERO, [200.0])
    assert isinstance(ham, tp.OpenChain)
    assert [p[:2] for p in probes] == [(128, 200.0), (256, 200.0)]


def test_a_potential_without_sup_bound_is_refused_before_any_hop(
        monkeypatch):
    # an open sweep runs at the scale 2 + sup|phi|, and the light cone
    # check needs it too
    phi = cc.PiecewiseHolderPotential(
        [(((0.0,), (1.0,)), lambda p: np.cos(2.0 * math.pi * p[:, 0]), 1.0,
          1.0)])
    assert phi.sup_bound is None
    chebyshev = _chebyshev_sites(monkeypatch)
    eigen = _eigendecompositions(monkeypatch)
    with pytest.raises(ValueError, match="sup_bound"):
        tp.beta_estimate(SHIFT1, THETA, phi, 2.0,
                         list(np.geomspace(5.0, 500.0, 8)))
    with pytest.raises(ValueError, match="sup_bound"):
        tp.xi_estimate(SHIFT1, THETA, phi, [0.5], [10.0, 20.0, 40.0])
    assert chebyshev == eigen == []


# ---------------------------------------------------------------------------
# open chains: the window is the box
# ---------------------------------------------------------------------------

def test_free_open_sweep_against_the_bessel_closed_form(monkeypatch):
    # one kernel call per time that moves, as free hops never split
    chebyshev = _chebyshev_sites(monkeypatch)
    ts = [2.0, 40.0, 40.0, 300.0, 2000.0]
    states = tp.evolve_times(tp.OpenChain(tp.Orbit(SHIFT1, THETA, ZERO)), ts)
    assert len(chebyshev) == 4
    assert [st.psi.size for st in states] == [47, 285, 285, 1481, 8535]
    for st in states[3:]:
        half = st.psi.size // 2
        n = np.abs(np.arange(-half, half + 1))
        exact = (-1j) ** n * jv(n, 2.0 * st.t)
        # measured 1.16e-14 at t = 300 and 3.84e-14 at t = 2000, and
        # norm defects of 6.0e-14 and 4.4e-13
        assert np.max(np.abs(st.psi - exact)) <= 4e-14
        assert st.valid and st.norm_defect <= 5e-13
        # the hops dropped more mass than the closed form holds off the
        # window: 5.4e-58 against 4.5e-59 at t = 300, and 3.8e-57 against
        # 9.9e-61 at t = 2000
        beyond = np.arange(half + 1, half + 2000)
        assert 0.0 < 2.0 * np.sum(jv(beyond, 2.0 * st.t) ** 2) \
            <= st.boundary_mass <= 1e-50


def test_open_sweep_agrees_with_the_whole_box_sweep(monkeypatch):
    # lambda = 0.9 on the open chain, which splits its hops and runs at
    # 2 + sup|phi| = 3.8, against the trimmed whole-box sweep at the box's
    # own scale on a box wider than the last window.  Measured: states
    # within 1.43e-14 and norm defects within 1.04e-14, the rounding of
    # two sweeps at two scales, and a box mass off the window of at most
    # 8.6e-161, below the dropped mass of every state
    chebyshev = _chebyshev_sites(monkeypatch)
    phi, th = cc.CosinePotential(0.9), TorusPoint((0.3,))
    orbit = tp.Orbit(SHIFT1, th, phi)
    ts = list(np.geomspace(2.0, 300.0, 8))
    states = tp.evolve_times(tp.OpenChain(orbit), ts)
    assert len(chebyshev) > len(ts)
    box = tp.build_hamiltonian(SHIFT1, th, phi, 1200, orbit)
    assert states[-1].psi.size == 1417 < box.size
    for st, psi in zip(states, _states_reference(box, ts, trim=True)):
        half = st.psi.size // 2
        window = psi[box.l_box - half:box.l_box + half + 1]
        assert np.max(np.abs(st.psi - window)) <= 1.5e-14
        exact, = tp._certify([st.t], psi[None], tp.DEFAULT_BOUNDARY_BUDGET)
        assert st.norm_defect == pytest.approx(exact.norm_defect, abs=1.1e-14)
        assert np.sum(np.abs(psi[:box.l_box - half]) ** 2) \
            + np.sum(np.abs(psi[box.l_box + half + 1:]) ** 2) \
            <= st.boundary_mass


def test_free_xi_fronts_equal_the_box_sweep_fronts():
    # the transport_xi workload's free fronts, on the open chain and on
    # boxes about 2.1 (10 T) sites a side, which clip the windows of the
    # later nodes
    t_grid = list(np.geomspace(20.0, 160.0, 8))
    got = tp.xi_estimate(SHIFT1, THETA, ZERO, [0.4, 0.6], t_grid)
    totals = []
    for big_t, l_box in zip(t_grid, [512, 662, 857, 1120, 1475, 1951, 2593,
                                     3456]):
        box = tp.build_hamiltonian(SHIFT1, THETA, ZERO, l_box)
        cum = tp._symmetric_cumsum(tp.averaged_profile(box, big_t), l_box)
        totals.append(cum + cum)
    assert got.fronts == {tau: [max(tp.xi_front(total, tau), 1)
                                for total in totals] for tau in (0.4, 0.6)}


def test_slow_front_splits_its_hops(monkeypatch):
    # lambda = 0.9 at phase 0.3: a ballistic front that starts slowly, to
    # t = 1e4.  The hops split, and the last window is narrower than the
    # last hop alone widens an unsplit sweep's; the bracket is the probe
    # search's at the parent within 4.5e-14 and 1.1e-13 relative
    phi, th = cc.CosinePotential(0.9), TorusPoint((0.3,))
    t_grid = list(np.geomspace(5.0, 1e4, 12))
    sizes, moment = [], tp.moment

    def recorded(state, p):
        sizes.append(state.psi.size)
        return moment(state, p)

    monkeypatch.setattr(tp, "moment", recorded)
    chebyshev = _chebyshev_sites(monkeypatch)
    est = tp.beta_estimate(SHIFT1, th, phi, 2.0, t_grid)
    assert len(chebyshev) > len(t_grid)
    unsplit = len(tp._chebyshev_coefficients(
        (t_grid[-1] - t_grid[-2]) * (2.0 + phi.sup_bound)))
    assert sizes[-1] < 2 * unsplit + 1
    assert est.low == pytest.approx(0.9108070416767827, rel=1e-12)
    assert est.high == pytest.approx(0.9633756374322838, rel=1e-12)
