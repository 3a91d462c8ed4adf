"""Finite-box quantum evolution and wavepacket transport estimators.

The Hamiltonian is the discrete Schrodinger operator on sites |n| <= L_box
with unit hoppings and potential sampled along the two-sided orbit of the
phase.  Time evolution uses the Chebyshev expansion of e^{-itH} with Bessel
coefficients, truncated below 1e-14, or on a box of at most DENSE_SITES
sites one eigendecomposition of the box, with the norm defect and the mass
on the outer sites certified on every state.

Every Chebyshev propagation is a block of rows (kernels.cheb_apply):
evolve, evolve_times and averaged_profile take a list of BoxHamiltonians
on one box, one row each, with one time, time grid or T per row, and a
single state is a block of one row.  Each row runs on its own time grid
and scale and equals its one-row propagation bit for bit: a block costs
each row only its own series terms, and the per-term overhead is paid once
per block instead of once per row.  Three kinds of work share boxes:

- the auto_box probes of the t_max still open at one half-width;
- the Abel sweeps of xi_estimate: every T whose box agrees, times the
  phase pair theta, f(theta) (one row per T when the potentials agree);
- the boxes themselves, which all sample one two-sided Orbit of theta,
  grown as the box doubles and shifted by one site for f(theta).

A probe or an Abel average on at most DENSE_SITES sites takes every state
from one eigendecomposition of the box per distinct potential
(_dense_parts), and only larger boxes run Chebyshev blocks.  Within one
Chebyshev sweep the Bessel coefficients of each distinct step are
evaluated once.
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
DENSE_SITES = 513
PROBE_BUDGET = 1e-4 * DEFAULT_BOUNDARY_BUDGET
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
    t: float               # for a row block, the rows' times
    psi: np.ndarray
    norm_defect: float
    boundary_mass: float
    valid: bool


class Orbit:
    """The two-sided orbit f^n theta, |n| <= reach, and phi along it.

    Grown on demand by exact torus steps from its two ends; phi sees each
    new point once.  Boxes of growing size, and the boxes at theta and at
    f(theta), sample one orbit: on the k/2^53 lattice a step from f(theta)
    lands on the same point as two steps from theta, and phi is evaluated
    element by element, so every sample equals that of a fresh orbit.
    """

    def __init__(self, map_spec, theta, phi):
        self.map_spec = map_spec
        self.phi = phi
        self.ends = [theta, theta]      # f^-reach theta, f^reach theta
        self.reach = 0
        self.v = self._sample([theta])

    def _sample(self, points):
        pts = np.array([p.coords for p in points], dtype=np.float64)
        return np.asarray(self.phi(pts), dtype=np.float64)

    def potential(self, lo, hi):
        """phi(f^n theta) for lo <= n <= hi, growing the orbit as needed."""
        grow = max(-lo, hi) - self.reach
        if grow > 0:
            back, ahead = [], []
            low, high = self.ends
            for _ in range(grow):
                low = inverse_step(self.map_spec, low)
                high = step(self.map_spec, high)
                back.append(low)
                ahead.append(high)
            back.reverse()
            self.v = np.concatenate((self._sample(back), self.v,
                                     self._sample(ahead)))
            self.ends = [low, high]
            self.reach += grow
        return self.v[self.reach + lo:self.reach + hi + 1]


def build_hamiltonian(map_spec, theta, phi, l_box, orbit=None, center=0):
    """Potential sampled at f^(center + n) theta for |n| <= l_box.

    The samples come from orbit, an Orbit of theta under map_spec with
    potential phi, when one is given, and from a fresh one otherwise.
    """
    if l_box < 1:
        raise ValueError("box half-width must be >= 1")
    if orbit is None:
        orbit = Orbit(map_spec, theta, phi)
    return BoxHamiltonian(orbit.potential(center - l_box, center + l_box),
                          l_box)


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


def _margins(prob):
    """Norm defects and masses on the outer percent of sites, per row.

    prob: site probabilities |psi|^2, sites on the last axis.
    """
    edge = max(1, int(math.ceil(0.01 * prob.shape[-1])))
    return (np.abs(np.sum(prob, axis=-1) - 1.0),
            np.sum(prob[..., :edge], axis=-1) + np.sum(prob[..., -edge:],
                                                       axis=-1))


def _passes(norm_defect, boundary, budget):
    return (norm_defect <= NORM_DEFECT_TOL) & (boundary <= budget)


def _certify(t, psi, budget):
    """A state certified by its worst row: valid only if every row is."""
    norm_defect, boundary = _margins(np.abs(np.atleast_2d(psi)) ** 2)
    return EvolutionState(t, psi, float(np.max(norm_defect)),
                          float(np.max(boundary)),
                          bool(np.all(_passes(norm_defect, boundary, budget))))


def initial_state(ham):
    psi = np.zeros(ham.size, dtype=np.complex128)
    psi[ham.l_box] = 1.0
    return psi


def _sweep(hams, grids):
    """psi of every row at each node of its own time grid, node to node.

    hams: BoxHamiltonians on one box, one row each; grids: one
    nondecreasing time grid per row, all of one length.  The rows advance
    as one block (kernels.cheb_apply), each with its own scale and
    Chebyshev coefficients; a row whose time does not move sits out that
    step.  The coefficients of a step are evaluated once per distinct
    scaled step tau (keyed on the exact float) within the sweep: the
    Gauss-Legendre hops of an Abel rule repeat bit for bit from panel to
    panel, and rows at one scale and T share them.  Yields the rows'
    times and the (rows, sites) block at each node.
    """
    scales = [h.enclosure for h in hams]
    diag = np.array([h.v / s for h, s in zip(hams, scales)])
    off = np.array([[1.0 / s] for s in scales])
    psi = np.array([initial_state(h) for h in hams])
    coefficients = {}
    prev = [0.0] * len(hams)
    for ts in zip(*grids):
        moving = [p for p, (t, t0) in enumerate(zip(ts, prev)) if t > t0]
        if moving:
            rows = []
            for p in moving:
                tau = (ts[p] - prev[p]) * scales[p]
                if tau not in coefficients:
                    coefficients[tau] = _chebyshev_coefficients(tau)
                rows.append(coefficients[tau])
            coeffs = np.zeros((len(rows), max(len(c) for c in rows)),
                              dtype=np.complex128)
            for row, c in zip(coeffs, rows):
                row[:len(c)] = c
            if len(moving) == len(hams):
                psi = kernels.cheb_apply(diag, off, coeffs, psi)
            else:
                psi = psi.copy()
                psi[moving] = kernels.cheb_apply(diag[moving], off[moving],
                                                 coeffs, psi[moving])
            prev = ts
        yield ts, psi


def evolve(hams, ts, budget=DEFAULT_BOUNDARY_BUDGET):
    """e^{-i t H} applied to the delta at the origin, one time per row.

    hams: BoxHamiltonians on one box, advanced as one block.  Returns one
    state per row, each certified on its own row.
    """
    if not hams:
        raise ValueError("need at least one row")
    if len(ts) != len(hams):
        raise ValueError("need one time per row")
    if any(t < 0 for t in ts):
        raise ValueError("cannot evolve backward")
    (_, psi), = _sweep(hams, [[t] for t in ts])
    return [_certify(t, row, budget) for t, row in zip(ts, psi)]


def evolve_times(hams, grids):
    """States at increasing time grids, advancing node to node.

    hams: BoxHamiltonians on one box, swept as one row block; grids: one
    grid per row, all of one length.  Each state's psi is (rows, sites),
    its t the rows' times, and its norm defect and boundary mass the worst
    row's.
    """
    grids = [list(g) for g in grids]
    if len(grids) != len(hams) or len({len(g) for g in grids}) > 1:
        raise ValueError("need one time grid per row, all of one length")
    for g in grids:
        if any(b < a for a, b in zip(g, g[1:])) or (g and g[0] < 0):
            raise ValueError("time grid must be nonnegative and nondecreasing")
    return [_certify(t, psi, DEFAULT_BOUNDARY_BUDGET)
            for t, psi in _sweep(hams, grids)]


def _eigenbasis(ham):
    """Eigenvalues w and eigenvectors u (columns) of the box, and u[center]."""
    if ham.size > 4097:
        raise ValueError("dense evolution restricted to small boxes")
    w, u = eigh_tridiagonal(ham.v, np.ones(ham.size - 1))
    return w, u, u[ham.l_box]


def _dense_parts(basis, ts):
    """Real and imaginary parts of e^{-i t H} delta, one row per time of ts.

    Returns a (2, times, sites) block.  Row t is u @ (e^{-i t w} *
    u[center]), where u[center] are the delta's eigenbasis amplitudes (u
    is real), taken as two real matrix-vector products per time: u @ c
    would first cast u to a complex copy (4 MB at 513 sites) and run a
    slower loop, and one matrix product over all times would touch the
    BLAS's level-3 packing buffer, about 1 MB that stays resident.
    """
    w, u, amps = basis
    c = np.exp(-1j * np.multiply.outer(np.asarray(ts, dtype=np.float64), w))
    c *= amps
    parts = np.stack((c.real, c.imag))
    out = np.empty_like(parts)
    sites = w.shape[0]
    for x, y in zip(parts.reshape(-1, sites), out.reshape(-1, sites)):
        np.matmul(u, x, out=y)
    return out


def dense_evolve(ham, ts):
    """e^{-i t H} applied to the delta at the origin, one row per time.

    One eigendecomposition of the box serves every time.  Restricted to
    small boxes, where it is the oracle for evolve and decides auto_box
    probes; averaged_profile takes its node states the same way.
    """
    re, im = _dense_parts(_eigenbasis(ham), ts)
    out = np.empty(re.shape, dtype=np.complex128)
    out.real = re
    out.imag = im
    return out


def moment(state, p):
    """Position moment sum (1 + |n|)^p |psi(n)|^2 of a valid state.

    psi may be one row or a block of one row.
    """
    if not state.valid:
        raise ValueError("state flagged invalid (norm defect or boundary mass)")
    m = state.psi.shape[-1]
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


def averaged_profile(hams, big_ts):
    """Abel-averaged site probabilities <a(n, t)>_T for the delta start.

    hams: BoxHamiltonians on one box; big_ts: one T per row.  Each row is
    averaged on its own Abel rule, and the profile has one row per
    Hamiltonian.  Every node state is certified like an evolve_times state
    (norm defect and outer-percent mass at DEFAULT_BOUNDARY_BUDGET), and a
    node that fails raises a ValueError naming its time.

    On at most DENSE_SITES sites the node states come from one
    eigendecomposition per distinct potential (_dense_profile), which costs
    milliseconds against 240 Chebyshev steps per row; a larger box is one
    Chebyshev sweep of all rows (evolve_times).  On 257 sites the two agree
    to 4e-14 up to T = 80 and to 5e-13 at T = 1000, where most of the gap
    is the sweep's own rounding.
    """
    if not hams:
        raise ValueError("need at least one row")
    if len(big_ts) != len(hams):
        raise ValueError("need one T per row")
    rules = [abel_nodes(t) for t in big_ts]
    if hams[0].size <= DENSE_SITES:
        return _dense_profile(hams, rules)
    states = evolve_times(hams, [nodes for nodes, _ in rules])
    # one row per node: the rows' weights at that node
    weights = np.array([w for _, w in rules]).T
    acc = np.zeros(states[0].psi.shape)
    for st, w in zip(states, weights):
        if not st.valid:
            raise _flagged(st.t, st.norm_defect, st.boundary_mass)
        acc += w[:, None] * np.abs(st.psi) ** 2
    return acc


def _flagged(ts, norm_defect, boundary):
    """The error of a node state that fails its certificate at times ts."""
    return ValueError(
        f"evolution flagged at t={np.max(ts):.3g} "
        f"(defect {norm_defect:.2e}, boundary {boundary:.2e})")


def _dense_profile(hams, rules):
    """averaged_profile from eigendecompositions: weights @ |psi|^2 per row.

    Rows with equal potentials share one eigendecomposition.  Each row's
    node states are certified in one pass; a failure is reported as the
    Chebyshev sweep reports it, at the first node where any row fails,
    with the rows' latest time there and their worst margins.
    """
    bases = {}
    acc = np.empty((len(hams), hams[0].size))
    defects = np.empty((len(hams), len(rules[0][0])))
    masses = np.empty_like(defects)
    for p, (ham, (nodes, weights)) in enumerate(zip(hams, rules)):
        key = ham.v.tobytes()
        if key not in bases:
            bases[key] = _eigenbasis(ham)
        re, im = _dense_parts(bases[key], nodes)
        prob = np.square(re, out=re)
        prob += np.square(im, out=im)
        defects[p], masses[p] = _margins(prob)
        acc[p] = weights @ prob
    failed = ~_passes(defects, masses, DEFAULT_BOUNDARY_BUDGET)
    if failed.any():
        k = int(np.argmax(failed.any(axis=0)))
        raise _flagged([nodes[k] for nodes, _ in rules],
                       np.max(defects[:, k]), np.max(masses[:, k]))
    return acc


def _phase_pair_cumsums(map_spec, th, phi, ham, big_ts, orbit=None):
    """Cumulative averaged profiles at th (Hamiltonian ham) and at f(th).

    One (cum at th, cum at f(th)) pair per T of big_ts.  Both phases at
    every T are the rows of one sweep; equal potentials (a constant phi)
    are one row per T whose profile serves both phases.  orbit: the Orbit
    of th that ham samples, if any, to sample f(th)'s box from.
    """
    shifted = build_hamiltonian(map_spec, th, phi, ham.l_box, orbit, center=1)
    pair = [ham] if np.array_equal(ham.v, shifted.v) else [ham, shifted]
    count = len(big_ts)
    profiles = averaged_profile([h for h in pair for _ in big_ts],
                                list(big_ts) * len(pair))
    cums = [_symmetric_cumsum(row, ham.l_box) for row in profiles]
    return list(zip(cums[:count], cums[-count:]))


def _symmetric_cumsum(profile, l_box):
    """cum[L] = sum of profile over |n| <= L.

    One running sum over p[c], p[c-1], p[c+1], p[c-2], p[c+2], ... taken at
    every second term: np.cumsum adds in sequence, so cum[L] is
    (cum[L-1] + p[c-L]) + p[c+L] with the rounding of the loop it replaces.
    """
    center = l_box
    seq = np.empty(2 * l_box + 1)
    seq[0] = profile[center]
    seq[1::2] = profile[:center][::-1]
    seq[2::2] = profile[center + 1:2 * l_box + 1]
    return np.cumsum(seq)[::2]


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


def _probe(ham, t_maxes):
    """The delta evolved to each t_max on ham's box, certified per row.

    The budget is much smaller than a sweep's: near the ballistic edge the
    boundary mass oscillates over a couple of orders of magnitude, so a box
    that barely fits at t_max can overflow slightly earlier.  A box of at
    most DENSE_SITES sites is evolved by one eigendecomposition
    (dense_evolve), a larger one by one Chebyshev block (evolve).
    """
    if ham.size <= DENSE_SITES:
        return [_certify(t, row, PROBE_BUDGET)
                for t, row in zip(t_maxes, dense_evolve(ham, t_maxes))]
    return evolve([ham] * len(t_maxes), t_maxes, budget=PROBE_BUDGET)


def auto_box(map_spec, theta, phi, t_maxes, orbit=None):
    """Smallest power-of-2-scaled box keeping boundary mass within budget.

    One box per time of t_maxes.  The half-width l doubles from BOX_START.
    At each l, an open time whose light-cone ceiling (worst_case_box) is
    at most l takes its ceiling box without a probe; the other open times
    are the rows of one probe on the l box (_probe), which evolves the
    delta to each t_max and keeps the box of every row within
    PROBE_BUDGET.  Every box samples one orbit of theta, grown as the box
    doubles: orbit if given, which must be an Orbit of theta under
    map_spec and phi.

    A probe on at most DENSE_SITES = 513 sites is one
    eigendecomposition, which there costs milliseconds against up to a
    second of Chebyshev terms at t_max = 1e4; its cubic cost overtakes
    the Chebyshev block above that.  A probe state only decides yes or no
    and is then dropped, and a box is the same orbit sample whichever
    propagator decided it, so boxes and sweeps keep their bits unless the
    two propagators decide a row apart.  They do not: their boundary
    masses agree to 4e-10 relative at the budget, while the eigen-decided
    rows of the transport workloads lie at least nine decades from
    PROBE_BUDGET.
    """
    if orbit is None:
        orbit = Orbit(map_spec, theta, phi)
    ceilings = [worst_case_box(phi.sup_bound or 0.0, t) for t in t_maxes]
    built = {}

    def box(width):
        if width not in built:
            built[width] = build_hamiltonian(map_spec, theta, phi, width,
                                             orbit)
        return built[width]

    boxes = [None] * len(t_maxes)
    l = BOX_START
    while True:
        open_ = [i for i, ham in enumerate(boxes) if ham is None]
        if not open_:
            return boxes
        if any(min(l, ceilings[i]) > BOX_CAP for i in open_):
            raise ValueError("box size exceeds the hard cap")
        # ascending, so the orbit grows box by box
        for i in sorted(open_, key=ceilings.__getitem__):
            if ceilings[i] <= l:
                boxes[i] = box(ceilings[i])
        probed = [i for i in open_ if ceilings[i] > l]
        if probed:
            states = _probe(box(l), [t_maxes[i] for i in probed])
            for i, st in zip(probed, states):
                if st.valid:
                    boxes[i] = box(l)
        l *= 2


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


def _time_grid(t_grid, minimum):
    """t_grid sorted, checked before any evolution.

    It needs at least minimum distinct positive finite times: a time 0
    has no logarithm, and running_slopes needs three.
    """
    t_grid = sorted(float(t) for t in t_grid)
    if len(t_grid) < minimum:
        raise ValueError(f"need at least {minimum} grid times, "
                         f"got {len(t_grid)}")
    if not all(0.0 < t < math.inf for t in t_grid):
        raise ValueError(f"grid times must be positive and finite, "
                         f"got {t_grid}")
    if len(set(t_grid)) != len(t_grid):
        raise ValueError(f"grid times must be distinct, got {t_grid}")
    return t_grid


def beta_estimate(map_spec, theta, phi, p, t_grid):
    """Transport exponent bracket from running slopes of ln <|X|^p> vs p ln t.

    Uses the last half of the (geometric) time grid, so the early transient
    does not bias the lim inf / lim sup surrogates.
    """
    t_grid = _time_grid(t_grid, 8)
    ham, = auto_box(map_spec, theta, phi, [t_grid[-1]])
    states = evolve_times([ham], [t_grid])
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
    returned as diagnostics.  The T whose boxes agree are swept as one
    block with both phases of the pair.
    """
    tau_levels = sorted(float(t) for t in tau_levels)
    if not tau_levels or tau_levels[0] <= 0.0 or tau_levels[-1] >= 1.0:
        raise ValueError("tau levels must lie in (0, 1)")
    if len(set(tau_levels)) != len(tau_levels):
        raise ValueError("tau levels must be distinct")
    t_grid = _time_grid(t_grid, 3)
    orbit = Orbit(map_spec, theta, phi)
    hams = auto_box(map_spec, theta, phi, [10.0 * t for t in t_grid], orbit)
    totals = [None] * len(t_grid)
    for l_box in sorted({ham.l_box for ham in hams}):
        rows = [i for i, ham in enumerate(hams) if ham.l_box == l_box]
        pairs = _phase_pair_cumsums(map_spec, theta, phi, hams[rows[0]],
                                    [t_grid[i] for i in rows], orbit)
        for i, (cum0, cum1) in zip(rows, pairs):
            totals[i] = cum0 + cum1
    fronts = {tau: [max(xi_front(total, tau), 1) for total in totals]
              for tau in tau_levels}
    lead = tau_levels[0]
    slopes = running_slopes(np.log(t_grid), np.log(fronts[lead]))
    return ExponentEstimate(float(np.min(slopes)), float(np.max(slopes)),
                            fronts)
