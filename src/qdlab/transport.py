"""Finite-box quantum evolution and wavepacket transport estimators.

The Hamiltonian is the discrete Schrodinger operator on sites |n| <= L_box
with unit hoppings and potential sampled along the two-sided orbit of the
phase.  Time evolution uses the Chebyshev expansion of e^{-itH} with Bessel
coefficients, truncated below 1e-14, with the norm defect and the mass on
the outer sites certified on every state.

Hamiltonians on one box can be propagated together as the rows of one
block (kernels.cheb_apply); the phase pair theta, f(theta) of the in-box
probabilities is swept that way, and every row equals its one-row
propagation bit for bit.  Within one sweep the Bessel coefficients of each
distinct step are evaluated once.
"""

import math
from dataclasses import dataclass

import numpy as np
from scipy.linalg import eigh_tridiagonal
from scipy.special import jv

from .backend import kernels
from .torus import step, inverse_step

NORM_DEFECT_TOL = 1e-8
DEFAULT_BOUNDARY_BUDGET = 1e-8
COEFF_TOL = 1e-14
BOX_START = 128
BOX_CAP = 1 << 17
ABEL_PANELS = 20
ABEL_ORDER = 12


@dataclass
class BoxHamiltonian:
    v: np.ndarray          # potential on sites -L_box .. L_box
    l_box: int

    @property
    def size(self):
        return 2 * self.l_box + 1

    @property
    def enclosure(self):
        return 2.0 + float(np.max(np.abs(self.v)))

    def sites(self):
        return np.arange(-self.l_box, self.l_box + 1)


@dataclass
class EvolutionState:
    t: float
    psi: np.ndarray
    norm_defect: float
    boundary_mass: float
    valid: bool


def build_hamiltonian(map_spec, theta, phi, l_box):
    """Potential sampled at f^n theta for |n| <= l_box, exact torus steps."""
    if l_box < 1:
        raise ValueError("box half-width must be >= 1")
    pts = np.empty((2 * l_box + 1, map_spec.d))
    cur = theta
    for n in range(l_box + 1):
        pts[l_box + n] = cur.coords
        if n < l_box:
            cur = step(map_spec, cur)
    cur = theta
    for n in range(1, l_box + 1):
        cur = inverse_step(map_spec, cur)
        pts[l_box - n] = cur.coords
    return BoxHamiltonian(np.asarray(phi(pts), dtype=np.float64), l_box)


def _chebyshev_coefficients(tau):
    """Coefficients of e^{-i tau x} on [-1, 1]: (2 - d_k0) (-i)^k J_k(tau)."""
    if tau == 0.0:
        return np.array([1.0 + 0.0j])
    kmax = int(tau + 12.0 * (tau ** (1.0 / 3.0) + 4.0))
    k = np.arange(kmax + 1)
    bess = jv(k, tau)
    keep = kmax
    while keep > 1 and abs(bess[keep]) < COEFF_TOL and abs(bess[keep - 1]) < COEFF_TOL:
        keep -= 1
    k = k[:keep + 1]
    coeffs = (2.0 - (k == 0)) * (-1j) ** k * bess[:keep + 1]
    return coeffs


def _margins(psi):
    """Norm defect and mass on the outer percent of sites of one row."""
    norm_defect = abs(float(np.vdot(psi, psi).real) - 1.0)
    m = psi.shape[0]
    edge = max(1, int(math.ceil(0.01 * m)))
    prob = np.abs(psi) ** 2
    return norm_defect, float(np.sum(prob[:edge]) + np.sum(prob[-edge:]))


def _certify(t, psi, budget):
    """A state certified by its worst row: valid only if every row is."""
    margins = [_margins(row) for row in np.atleast_2d(psi)]
    valid = all(d <= NORM_DEFECT_TOL and b <= budget for d, b in margins)
    norm_defect, boundary = np.max(margins, axis=0).tolist()
    return EvolutionState(t, psi, norm_defect, boundary, valid)


def initial_state(ham):
    psi = np.zeros(ham.size, dtype=np.complex128)
    psi[ham.l_box] = 1.0
    return psi


def _sweep(ham, ts, budget):
    """Certified states at the nondecreasing times ts, node to node.

    ham is one BoxHamiltonian, or a list of them on one box that advance
    together as the rows of one block; each row has its own scale and
    Chebyshev coefficients.  The coefficients of a step are evaluated once
    per distinct scaled step tau (keyed on the exact float) within the
    sweep; the Gauss-Legendre hops of an Abel rule repeat bit for bit from
    panel to panel.
    """
    single = isinstance(ham, BoxHamiltonian)
    hams = [ham] if single else list(ham)
    scales = [h.enclosure for h in hams]
    diag = np.array([h.v / s for h, s in zip(hams, scales)])
    off = np.array([[1.0 / s] for s in scales])
    psi = np.array([initial_state(h) for h in hams])
    coefficients = {}
    states = []
    prev = 0.0
    for t in ts:
        if t > prev:
            dt = t - prev
            rows = []
            for s in scales:
                tau = dt * s
                if tau not in coefficients:
                    coefficients[tau] = _chebyshev_coefficients(tau)
                rows.append(coefficients[tau])
            coeffs = np.zeros((len(rows), max(len(c) for c in rows)),
                              dtype=np.complex128)
            for row, c in zip(coeffs, rows):
                row[:len(c)] = c
            psi = kernels.cheb_apply(diag, off, coeffs, psi)
            prev = t
        states.append(_certify(t, psi[0] if single else psi, budget))
    return states


def evolve(ham, t, budget=DEFAULT_BOUNDARY_BUDGET):
    """e^{-i t H} applied to the delta at the origin."""
    if t < 0:
        raise ValueError("cannot evolve backward")
    return _sweep(ham, [t], budget)[0]


def evolve_times(ham, ts):
    """States at an increasing time grid, advancing node to node.

    ham may also be a list of BoxHamiltonians on one box: they are swept
    as one row block, each state's psi is then (rows, sites) and its norm
    defect and boundary mass are the worst row's.
    """
    ts = list(ts)
    if any(b < a for a, b in zip(ts, ts[1:])) or (ts and ts[0] < 0):
        raise ValueError("time grid must be nonnegative and nondecreasing")
    return _sweep(ham, ts, DEFAULT_BOUNDARY_BUDGET)


def dense_evolve(ham, t):
    """Eigendecomposition propagator from the delta, the small-box oracle."""
    if ham.size > 4097:
        raise ValueError("dense oracle restricted to small boxes")
    w, u = eigh_tridiagonal(ham.v, np.ones(ham.size - 1))
    amps = u.conj().T @ initial_state(ham)
    return u @ (np.exp(-1j * t * w) * amps)


def moment(state, p):
    """Position moment sum (1 + |n|)^p |psi(n)|^2 of a valid state."""
    if not state.valid:
        raise ValueError("state flagged invalid (norm defect or boundary mass)")
    m = state.psi.shape[0]
    sites = np.arange(m) - (m - 1) // 2
    return float(np.sum((1.0 + np.abs(sites)) ** p * np.abs(state.psi) ** 2))


# ---------------------------------------------------------------------------
# Abel averages
# ---------------------------------------------------------------------------

def abel_nodes(big_t):
    """Gauss-Legendre nodes/weights for (2/T) int_0^{10T} e^{-2t/T} . dt.

    The cut at 10T drops a tail of weight e^{-20}.
    """
    x, w = np.polynomial.legendre.leggauss(ABEL_ORDER)
    edges = np.linspace(0.0, 10.0 * big_t, ABEL_PANELS + 1)
    nodes, weights = [], []
    for a, b in zip(edges[:-1], edges[1:]):
        t = 0.5 * (b - a) * x + 0.5 * (a + b)
        nodes.append(t)
        weights.append(0.5 * (b - a) * w * (2.0 / big_t) * np.exp(-2.0 * t / big_t))
    return np.concatenate(nodes), np.concatenate(weights)


def averaged_profile(ham, big_t):
    """Abel-averaged site probabilities <a(n, t)>_T for the delta start.

    For a list of BoxHamiltonians on one box the rows are averaged in one
    sweep and the profile has one row per Hamiltonian.
    """
    nodes, weights = abel_nodes(big_t)
    states = evolve_times(ham, list(nodes))
    acc = np.zeros(states[0].psi.shape)
    for st, w in zip(states, weights):
        if not st.valid:
            raise ValueError(
                f"evolution flagged at t={st.t:.3g} "
                f"(defect {st.norm_defect:.2e}, boundary {st.boundary_mass:.2e})")
        acc += w * np.abs(st.psi) ** 2
    return acc


def _phase_pair_cumsums(map_spec, th, phi, ham, big_t):
    """Cumulative averaged profiles at th (Hamiltonian ham) and at f(th).

    Both phases are the rows of one sweep; equal potentials (a constant
    phi) are one row whose profile serves both.
    """
    shifted = build_hamiltonian(map_spec, step(map_spec, th), phi, ham.l_box)
    pair = [ham] if np.array_equal(ham.v, shifted.v) else [ham, shifted]
    profiles = averaged_profile(pair, big_t)
    return [_symmetric_cumsum(profiles[row], ham.l_box) for row in (0, -1)]


def _symmetric_cumsum(profile, l_box):
    """cum[L] = sum of profile over |n| <= L."""
    center = l_box
    cum = np.empty(l_box + 1)
    cum[0] = profile[center]
    for l in range(1, l_box + 1):
        cum[l] = cum[l - 1] + profile[center - l] + profile[center + l]
    return cum


# ---------------------------------------------------------------------------
# box sizing and exponent estimators
# ---------------------------------------------------------------------------

def worst_case_box(phi_sup, t_max):
    """Ballistic light-cone rule: (2 + sup|v|) t_max plus margin.

    The margin grows with t: the outer-percent certification window is
    proportional to the box, so a fixed margin would eventually overlap the
    wavefront's Airy transition region.
    """
    return int(math.ceil((2.0 + phi_sup) * t_max * 1.05)) + 96


def auto_box(map_spec, theta, phi, t_max):
    """Smallest power-of-2-scaled box keeping boundary mass within budget.

    Tries geometrically growing half-widths and checks the budget at t_max;
    falls back to the light-cone rule as the hard ceiling.
    """
    ceiling = worst_case_box(phi.sup_bound or 0.0, t_max)
    l = min(BOX_START, ceiling)
    while True:
        ham = build_hamiltonian(map_spec, theta, phi, l)
        # probe with a much smaller budget: near the ballistic edge the
        # boundary mass oscillates over a couple of orders of magnitude, so
        # a box that barely fits at t_max can overflow slightly earlier
        state = evolve(ham, t_max, budget=1e-4 * DEFAULT_BOUNDARY_BUDGET)
        if state.valid or l >= ceiling:
            return ham
        l = min(2 * l, ceiling)
        if l > BOX_CAP:
            raise ValueError("box size exceeds the hard cap")


@dataclass
class ExponentEstimate:
    low: float
    high: float
    fronts: dict = None    # xi_estimate: tau level -> fronts over t_grid


def running_slopes(xs, ys):
    """Regression slopes over the growing windows of the last grid half.

    Fluctuating observables (localized moments oscillate) make raw
    consecutive-point slopes noisy; regressing from the grid midpoint to
    each later point keeps the estimator exact on power laws while damping
    the jitter.
    """
    xs = np.asarray(xs, dtype=np.float64)
    ys = np.asarray(ys, dtype=np.float64)
    mid = len(xs) // 2
    slopes = []
    for k in range(mid + 1, len(xs)):
        x = xs[mid:k + 1]
        y = ys[mid:k + 1]
        xm = x - x.mean()
        slopes.append(float(np.dot(xm, y) / np.dot(xm, xm)))
    return np.asarray(slopes)


def beta_estimate(map_spec, theta, phi, p, t_grid):
    """Transport exponent bracket from running slopes of ln <|X|^p> vs p ln t.

    Uses the last half of the (geometric) time grid, so the early transient
    does not bias the lim inf / lim sup surrogates.
    """
    t_grid = sorted(float(t) for t in t_grid)
    if len(t_grid) < 8:
        raise ValueError("need at least 8 grid times")
    ham = auto_box(map_spec, theta, phi, t_grid[-1])
    states = evolve_times(ham, t_grid)
    moments = [moment(st, p) for st in states]
    slopes = running_slopes(p * np.log(t_grid), np.log(moments))
    return ExponentEstimate(float(np.min(slopes)), float(np.max(slopes)))


def xi_front(profile_sum, tau):
    """Minimal L with the summed in-box probability exceeding tau."""
    idx = np.searchsorted(profile_sum, tau, side="right")
    return int(min(idx, profile_sum.shape[0] - 1))


def xi_estimate(map_spec, theta, phi, tau_levels, t_grid):
    """Spreading-front exponent bracket from ln L(tau, T) vs ln T slopes.

    The estimate is reported at the smallest tau level; larger levels are
    returned as diagnostics.
    """
    tau_levels = sorted(float(t) for t in tau_levels)
    if not tau_levels or tau_levels[0] <= 0.0 or tau_levels[-1] >= 1.0:
        raise ValueError("tau levels must lie in (0, 1)")
    t_grid = sorted(float(t) for t in t_grid)
    fronts = {tau: [] for tau in tau_levels}
    for big_t in t_grid:
        ham = auto_box(map_spec, theta, phi, 10.0 * big_t)
        cum0, cum1 = _phase_pair_cumsums(map_spec, theta, phi, ham, big_t)
        total = cum0 + cum1
        for tau in tau_levels:
            fronts[tau].append(max(xi_front(total, tau), 1))
    lead = tau_levels[0]
    slopes = running_slopes(np.log(t_grid), np.log(fronts[lead]))
    return ExponentEstimate(float(np.min(slopes)), float(np.max(slopes)),
                            fronts)
