"""Finite-box quantum evolution and wavepacket transport estimators.

The Hamiltonian is the discrete Schrodinger operator on sites |n| <= L_box
with unit hoppings and potential sampled along the two-sided orbit of the
phase.  Every state is e^{-itH} applied to the delta at the origin, with
the norm defect and the mass on the outer sites certified.  One rule picks
the propagator (_sweep): a box of at most DENSE_SITES sites takes every
state from its eigendecomposition, and a larger box runs the Chebyshev
expansion of e^{-itH} with Bessel coefficients, truncated below 1e-14.

Every call takes one BoxHamiltonian: evolve one time, evolve_times a
nondecreasing time grid, averaged_profile one T.  Times must be
nonnegative and finite.  A Chebyshev sweep advances the state by one
kernels.cheb_apply call per step.  Each step runs only on the sites the
state can reach (_hop): a degree-(K - 1) step moves amplitude at most
K - 1 sites, so the call covers the amplitudes above TRIM widened by K
sites, and the kernel grows its own window term by term inside that.
TRIM = COEFF_TOL^2 is derived, not a knob: the series truncation moves
amplitudes by up to COEFF_TOL per step, and the dropped tails, at most
M TRIM^2 of mass per step on M sites, show in the norm defect of the
state that follows.  With TRIM = 0 the windows change no bit.

A box takes its eigendecomposition on first use and keeps it
(BoxHamiltonian.eigenbasis), so the calls that share a box object share
it: a localized estimator's sweep reuses the one its auto_box probe
took.  Three kinds of work share boxes:

- the auto_box search, one distinct t_max at a time, whose times share
  their boxes and the front times of the eigendecomposition boxes, from
  which it skips the probes that will fail;
- the Abel averages of xi_estimate: every T whose box agrees, at theta
  and at f(theta) (one average per T when the potentials agree);
- the boxes themselves, which all sample one two-sided Orbit of theta,
  grown as larger boxes need it and shifted by one site for f(theta).

Within one Chebyshev sweep the Bessel coefficients of each distinct step
are evaluated once.
"""

import math
from dataclasses import dataclass
from functools import cached_property

import numpy as np
from scipy.linalg import eigh_tridiagonal
from scipy.special import jv

from .backend import kernels
from .torus import step, inverse_step

NORM_DEFECT_TOL = 1e-8
DEFAULT_BOUNDARY_BUDGET = 1e-8
COEFF_TOL = 1e-14
# the tail a Chebyshev hop drops: amplitudes far below the COEFF_TOL
# truncation error of every hop
TRIM = COEFF_TOL ** 2
BOX_START = 128
BOX_CAP = 1 << 17
DENSE_SITES = 513
PROBE_BUDGET = 1e-4 * DEFAULT_BOUNDARY_BUDGET
FRONT_EXPONENT = 0.75
GROWTH_CHUNK = 1024
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

    @cached_property
    def eigenbasis(self):
        """The box's eigendecomposition (_eigenbasis), taken on first use."""
        return _eigenbasis(self)


@dataclass
class EvolutionState:
    t: float
    psi: np.ndarray        # (sites,)
    norm_defect: float
    boundary_mass: float
    valid: bool


class Orbit:
    """The two-sided orbit f^n theta, |n| <= reach, and phi along it.

    Grown on demand by exact torus steps from its two ends, in chunks of
    GROWTH_CHUNK steps whose new points phi samples as each chunk is made,
    so a long growth holds at most one chunk of points; phi sees each new
    point once.  Boxes of growing size, and the boxes at theta and at
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
            back, ahead = [], []        # sampled chunks, outwards
            low, high = self.ends
            for start in range(0, grow, GROWTH_CHUNK):
                lows, highs = [], []
                for _ in range(min(GROWTH_CHUNK, grow - start)):
                    low = inverse_step(self.map_spec, low)
                    high = step(self.map_spec, high)
                    lows.append(low)
                    highs.append(high)
                back.append(self._sample(lows[::-1]))
                ahead.append(self._sample(highs))
            self.v = np.concatenate(back[::-1] + [self.v] + ahead)
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
    # (-i)^k from a table: (-1j) ** k is inexact from k = 100 on
    unit = np.array([1.0, -1j, -1.0, 1j])[k % 4]
    coeffs = (2.0 - (k == 0)) * unit * bess[:keep + 1]
    return coeffs


def _edge_sites(size):
    """Sites on each side of a box that make up its outer percent."""
    return max(1, int(math.ceil(0.01 * size)))


def _certify(ts, block, budget):
    """One EvolutionState per node of a (nodes, sites) block at times ts.

    Each node has a norm defect and a mass on the outer percent of sites,
    taken for the whole block in one pass.
    """
    prob = np.abs(block) ** 2
    edge = _edge_sites(block.shape[-1])
    norm_defect = np.abs(np.sum(prob, axis=-1) - 1.0)
    boundary = (np.sum(prob[:, :edge], axis=-1)
                + np.sum(prob[:, -edge:], axis=-1))
    valid = (norm_defect <= NORM_DEFECT_TOL) & (boundary <= budget)
    return [EvolutionState(t, psi, float(d), float(b), bool(ok))
            for t, psi, d, b, ok in zip(ts, block, norm_defect, boundary,
                                        valid)]


def initial_state(ham):
    psi = np.zeros(ham.size, dtype=np.complex128)
    psi[ham.l_box] = 1.0
    return psi


def _sweep(ham, ts):
    """psi at each time of the nondecreasing grid ts, in node blocks.

    A box of at most DENSE_SITES sites is propagated by its
    eigendecomposition (dense_evolve), which there costs milliseconds
    against up to a second of Chebyshev terms at t = 1e4, in one block of
    all its nodes; a larger box by the Chebyshev expansion (_chebyshev_sweep),
    where the cubic cost of an eigendecomposition overtakes it, one node
    at a time.  Yields each block's times and its (nodes, sites) array.
    """
    if ham.size <= DENSE_SITES:
        yield ts, dense_evolve(ham, ts)
    else:
        yield from _chebyshev_sweep(ham, ts)


def _chebyshev_sweep(ham, ts):
    """_sweep by the Chebyshev expansion, node to node.

    A time that moves advances the state by one _hop, and a time that does
    not keeps it; each node's block is a fresh copy of the state.  The
    coefficients of a step are evaluated once per distinct scaled step tau
    (keyed on the exact float) within the sweep: the Gauss-Legendre hops
    of an Abel rule repeat bit for bit from panel to panel.
    """
    scale = ham.enclosure
    diag = ham.v / scale
    psi = initial_state(ham)
    coefficients = {}
    prev = 0.0
    for t in ts:
        if t > prev:
            tau = (t - prev) * scale
            if tau not in coefficients:
                coefficients[tau] = _chebyshev_coefficients(tau)
            psi = _hop(diag, 1.0 / scale, coefficients[tau], psi)
        prev = t
        yield [t], np.array([psi])


def _hop(diag, off, coeffs, psi):
    """One Chebyshev step of psi, on the sites it can reach.

    The amplitudes from the first to the last with |psi_n| > TRIM are
    copied into a zero state, and one kernels.cheb_apply call runs on them
    widened by len(coeffs) sites on each side and clipped to the box: a
    degree-(K - 1) step moves amplitude at most K - 1 sites, and the one
    site more holds +0 throughout, so that the outermost reachable site
    sums the neighbours it has on the whole box.  The result overwrites
    that window.  With TRIM = 0 this is the whole-box step bit for bit; a
    NaN state, with nothing above TRIM, steps on the whole box.
    """
    size = psi.shape[0]
    kept = np.flatnonzero(np.abs(psi) > TRIM)
    first, last = (kept[0], kept[-1] + 1) if kept.size else (0, size)
    lo, hi = max(first - len(coeffs), 0), min(last + len(coeffs), size)
    out = np.zeros_like(psi)
    out[first:last] = psi[first:last]
    out[lo:hi] = kernels.cheb_apply(diag[lo:hi], off, coeffs, out[lo:hi])
    return out


def evolve(ham, t, budget=DEFAULT_BOUNDARY_BUDGET):
    """e^{-i t H} applied to the delta at the origin on the box ham.

    One time (_sweep), certified against budget.
    """
    if not 0.0 <= t < math.inf:
        raise ValueError(f"time must be nonnegative and finite, got t={t}")
    (ts, block), = _sweep(ham, [t])
    state, = _certify(ts, block, budget)
    return state


def evolve_times(ham, ts):
    """States at the nondecreasing time grid ts, one per node (_sweep).

    Each state is certified at DEFAULT_BOUNDARY_BUDGET.
    """
    ts = list(ts)
    if (not all(0.0 <= t < math.inf for t in ts)
            or any(b < a for a, b in zip(ts, ts[1:]))):
        raise ValueError("time grid must be nonnegative, finite and "
                         "nondecreasing")
    return [state for times, block in _sweep(ham, ts)
            for state in _certify(times, block, DEFAULT_BOUNDARY_BUDGET)]


def _eigenbasis(ham):
    """Eigenvalues w and eigenvectors u (columns) of the box, and u[center]."""
    if ham.size > 4097:
        raise ValueError("dense evolution restricted to small boxes")
    w, u = eigh_tridiagonal(ham.v, np.ones(ham.size - 1))
    return w, u, u[ham.l_box]


def dense_evolve(ham, ts):
    """e^{-i t H} applied to the delta at the origin, one row per time.

    Read from the box's eigendecomposition (BoxHamiltonian.eigenbasis), so
    calls on one box object share it.  psi at time t is u @ c with
    c = e^{-i t w} * u[center], where u[center] are the delta's eigenbasis
    amplitudes (u is real).  One exponential call fills the rows with c
    at every time, and each row is then overwritten by two real
    matrix-vector products from a real copy of its c, written straight
    into the real and imaginary parts of the row: u @ c would first cast u
    to a complex copy (4 MB at 513 sites) and run a slower loop, and one
    matrix product over all times would touch the BLAS's level-3 packing
    buffer, about 1 MB that stays resident.  Allowed up to 4097 sites, so
    that on boxes over DENSE_SITES it is an oracle for the Chebyshev sweep.
    """
    w, u, amps = ham.eigenbasis
    psi = np.exp(-1j * np.multiply.outer(np.asarray(ts, dtype=np.float64),
                                         w))
    psi *= amps
    parts = np.stack((psi.real, psi.imag))
    for row, x, y in zip(psi, parts[0], parts[1]):
        np.matmul(u, x, out=row.real)
        np.matmul(u, y, out=row.imag)
    return psi


def moment(state, p):
    """Position moment sum (1 + |n|)^p |psi(n)|^2 of a valid state."""
    if not state.valid:
        raise ValueError("state flagged invalid (norm defect or boundary mass)")
    m = len(state.psi)
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

    T must be positive and finite, checked before any evolution.  The node
    states are one evolve_times sweep of the box, from its
    eigendecomposition on at most DENSE_SITES sites: on 257 sites that
    agrees with the Chebyshev sweep to 4e-14 up to T = 80 and to 5e-13 at
    T = 1000, where most of the gap is the sweep's own rounding.  Every
    node state is certified (norm defect and outer-percent mass at
    DEFAULT_BOUNDARY_BUDGET), and the first node that fails raises a
    ValueError naming its time.
    """
    if not 0.0 < big_t < math.inf:
        raise ValueError(f"T must be positive and finite, got T={big_t}")
    nodes, weights = abel_nodes(big_t)
    acc = np.zeros(ham.size)
    for st, w in zip(evolve_times(ham, nodes), weights):
        if not st.valid:
            raise ValueError(
                f"evolution flagged at t={st.t:.3g} (defect "
                f"{st.norm_defect:.2e}, boundary {st.boundary_mass:.2e})")
        acc += w * np.abs(st.psi) ** 2
    return acc


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


def _front_time(ham, t_end, budget):
    """First time up to t_end at which the delta's outer-percent mass on
    the box exceeds budget, or None if it does not by then.

    Read from the box's eigendecomposition (BoxHamiltonian.eigenbasis), of
    which only the edge rows are used: the edge amplitudes at a block of
    times are two real matrix products over the cosines and sines of the
    phases.  The scan starts at l_box / 16, where a Lieb-Robinson bound
    keeps the edge mass far below the budget, and runs one octave of time
    per block in 16 geometric steps (66 kB of phases on 513 sites) up to
    the first block that exceeds the budget; bisection then narrows the
    crossing to 1e-5 of its time.
    """
    w, u, amps = ham.eigenbasis
    edge = _edge_sites(ham.size)
    rows = np.concatenate((u[:edge], u[-edge:])).T * amps[:, None]

    def mass(ts):
        phase = np.multiply.outer(ts, w)
        re = np.cos(phase) @ rows
        im = np.sin(phase, out=phase) @ rows
        return np.sum(re * re + im * im, axis=-1)

    lo = 0.0
    octave = ham.l_box / 16.0 * 2.0 ** (np.arange(1, 17) / 16.0)
    while lo < t_end:
        ts = np.minimum(octave, t_end)
        over = np.flatnonzero(mass(ts) > budget)
        if over.size:
            k = over[0]
            lo, hi = (ts[k - 1] if k else lo), ts[k]
            while hi - lo > 1e-5 * hi:
                mid = 0.5 * (lo + hi)
                if mass(np.array([mid]))[0] > budget:
                    hi = mid
                else:
                    lo = mid
            return float(hi)
        lo = ts[-1]
        octave = 2.0 * octave
    return None


def auto_box(map_spec, theta, phi, t_maxes, orbit=None):
    """The doubling search's box for each time of t_maxes, from fewer probes.

    The doubling search, for one t_max: the half-width l doubles from
    BOX_START.  Once the time's light-cone ceiling (worst_case_box) is at
    most l, it takes its ceiling box without a probe; below that, a probe
    on the l box evolves the delta to t_max and passes if the box keeps it
    within PROBE_BUDGET.  That budget is much smaller than a sweep's: near
    the ballistic edge the boundary mass oscillates over a couple of orders
    of magnitude, so a box that barely fits at t_max can overflow slightly
    earlier.  Each distinct t_max is searched once, in ascending order, and
    the times share their boxes and the front times below, keyed on
    half-width.  Every box samples one orbit of theta: orbit if given,
    which must be an Orbit of theta under map_spec and phi.  The ceiling
    grows with t_max, so the orbit grows box by box.

    Front-law skipping: a wavefront moves at a finite speed, so the probes
    decided by eigendecomposition (boxes of at most DENSE_SITES sites)
    show which larger probes cannot pass.  When a time fails two successive
    ones, the times at which the delta's outer-percent mass first exceeds
    PROBE_BUDGET on the two boxes (_front_time, one scan per box up to the
    largest t_max) give a power law through the two fronts.  When its
    exponent is at least FRONT_EXPONENT the front is near ballistic: its
    log-log slope still rises towards 1, the law, with its exponent capped
    at 1, falls short of the half-width needed at t_max, and the time's
    probes below that estimate are skipped.  The search still passes every
    half-width, with its hard-cap check and ceiling box: a time that
    skipped the half-widths below its ceiling takes it, as the doubling
    search does once those probes fail.  Slower fronts can slow down
    further, so that the law would overshoot them, and their times are
    probed at every half-width.  A time that passes a probe right above
    skipped half-widths walks back down over them, probing each, until one
    fails.  So every box is the doubling search's as long as a probe that
    fails implies that the probes on smaller boxes fail too, and a front
    that reads near ballistic on the dense boxes does not slow down before
    its time's ceiling.

    A probe state only decides yes or no and is then dropped, so a box is
    the same orbit sample whichever propagator decided it.  On at most
    DENSE_SITES sites the two propagators' boundary masses agree to 4e-10
    relative at the budget, and the rows of the transport workloads there
    lie at least nine decades from PROBE_BUDGET.
    """
    if orbit is None:
        orbit = Orbit(map_spec, theta, phi)
    t_end = max(t_maxes)
    boxes = {}                      # half-width -> box
    fronts = {}                     # half-width -> front time, dense boxes

    def box(width):
        if width not in boxes:
            boxes[width] = build_hamiltonian(map_spec, theta, phi, width,
                                             orbit)
        return boxes[width]

    def passes(width, t_max):
        return evolve(box(width), t_max, PROBE_BUDGET).valid

    found = {}
    for t_max in sorted(set(t_maxes)):
        ceiling = worst_case_box(phi.sup_bound or 0.0, t_max)
        reach = 0.0                 # skip the probes below this half-width
        skipped = 0                 # half-widths skipped right below l
        l = BOX_START
        while t_max not in found:
            if min(l, ceiling) > BOX_CAP:
                raise ValueError("box size exceeds the hard cap")
            if ceiling <= l:
                found[t_max] = box(ceiling)
            elif l < reach:
                skipped += 1
            elif passes(l, t_max):
                width = l
                while skipped and passes(width // 2, t_max):
                    width //= 2
                    skipped -= 1
                found[t_max] = box(width)
            else:
                skipped = 0
                if box(l).size <= DENSE_SITES:
                    if l not in fronts:
                        fronts[l] = _front_time(box(l), t_end, PROBE_BUDGET)
                    t1, t2 = fronts.get(l // 2), fronts[l]
                    if t1 is not None and t2 is not None and t2 > t1:
                        exponent = math.log(2.0) / math.log(t2 / t1)
                        if exponent >= FRONT_EXPONENT:
                            reach = l * (t_max / t2) ** min(1.0, exponent)
            l *= 2
    return [found[t_max] for t_max in t_maxes]


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
    returned as diagnostics.  The front at T reads the sum of the Abel
    profiles at theta and at f(theta) on T's box; when the two potentials
    are equal (a constant phi) one profile serves both.
    """
    tau_levels = sorted(float(t) for t in tau_levels)
    if not tau_levels or tau_levels[0] <= 0.0 or tau_levels[-1] >= 1.0:
        raise ValueError("tau levels must lie in (0, 1)")
    if len(set(tau_levels)) != len(tau_levels):
        raise ValueError("tau levels must be distinct")
    t_grid = _time_grid(t_grid, 3)
    orbit = Orbit(map_spec, theta, phi)
    hams = auto_box(map_spec, theta, phi, [10.0 * t for t in t_grid], orbit)
    shifted = {}                    # half-width -> box at f(theta)
    totals = []
    for ham, big_t in zip(hams, t_grid):
        if ham.l_box not in shifted:
            shifted[ham.l_box] = build_hamiltonian(
                map_spec, theta, phi, ham.l_box, orbit, center=1)
        pair = shifted[ham.l_box]
        at_theta = averaged_profile(ham, big_t)
        at_pair = (at_theta if np.array_equal(ham.v, pair.v)
                   else averaged_profile(pair, big_t))
        totals.append(_symmetric_cumsum(at_theta, ham.l_box)
                      + _symmetric_cumsum(at_pair, ham.l_box))
    fronts = {tau: [max(xi_front(total, tau), 1) for total in totals]
              for tau in tau_levels}
    lead = tau_levels[0]
    slopes = running_slopes(np.log(t_grid), np.log(fronts[lead]))
    return ExponentEstimate(float(np.min(slopes)), float(np.max(slopes)),
                            fronts)
