"""Quantum evolution of the delta and wavepacket transport estimators.

The Hamiltonian is the discrete Schrodinger operator with unit hoppings
and potential sampled along the two-sided orbit of the phase, on a box of
sites |n| <= L_box (BoxHamiltonian) or on all of Z (OpenChain).  Every
state is e^{-itH} applied to the delta at the origin, with its norm defect
and a boundary mass certified: on a box the mass on its outer percent of
sites, on an open chain the tail mass its hops dropped.  One rule picks
the propagator (_sweep): a box of at most DENSE_SITES sites takes every
state from its eigendecomposition, and anything else runs the Chebyshev
expansion of e^{-itH} with Bessel coefficients, truncated below 1e-14.
The Abel averages a(n, T) = (2/T) int_0^inf e^{-2t/T} |psi(n, t)|^2 dt
(averaged_profile) follow the same rule: on such a box they are the exact
spectral sum over its eigenpairs, with no time step, and elsewhere a
Gauss-Legendre rule over the states of one sweep on [0, 10 T].

Every call takes one Hamiltonian: evolve one time, evolve_times a
nondecreasing time grid, averaged_profile one T.  Times must be
nonnegative and finite.  A Chebyshev sweep advances the state by one
kernels.cheb_apply call per hop.  Each hop runs only on the sites the
state can reach: a degree-(K - 1) step moves amplitude at most K - 1
sites, so the call covers the amplitudes above TRIM widened by K sites,
and the kernel grows its own window term by term inside that.  On a box
the window is clipped to the box; an open chain keeps its state on a
centred array that grows to hold the window, and samples its potential
there, so the window is its box.  TRIM = COEFF_TOL^2 is derived, not a
knob: the series truncation moves amplitudes by up to COEFF_TOL per hop,
and the dropped tails, at most M TRIM^2 of mass per hop on M sites, show
in the norm defect of the state that follows.  With TRIM = 0 the windows
change no bit on a box.

A box takes its eigendecomposition on first use and keeps it
(BoxHamiltonian.eigenbasis), so the calls that share a box object share
it: a localized estimator's sweep reuses the one its auto_box probe
took.  The boxes and the open chains of one phase all sample one
two-sided Orbit of theta, grown as they need it and shifted by one site
for f(theta).  An estimator's times share their boxes and chain, and the
Abel averages of xi_estimate read one profile for theta and f(theta)
when the potentials agree on its sites.  Within one Chebyshev sweep the
Bessel coefficients of each distinct step are evaluated once.
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
# the widest light cone, in sites a side, that auto_box accepts
BOX_CAP = 1 << 17
DENSE_SITES = 513
PROBE_BUDGET = 1e-4 * DEFAULT_BOUNDARY_BUDGET
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
    psi: np.ndarray        # (sites,): the box, or a chain's centred window
    norm_defect: float
    boundary_mass: float
    valid: bool


class Orbit:
    """The two-sided orbit f^n theta, |n| <= reach, and phi along it.

    Grown on demand by exact torus steps from its two ends, in chunks of
    GROWTH_CHUNK steps whose new points phi samples as each chunk is made,
    so a long growth holds at most one chunk of points; phi sees each new
    point once.  Boxes of growing size and open chains, at theta and at
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


@dataclass
class OpenChain:
    """The operator on all of Z, sampled from orbit as a sweep reaches it.

    Site n carries phi(f^(center + n) theta).  Its Chebyshev sweep runs at
    the scale enclosure = 2 + sup|phi|, which bounds the spectrum wherever
    the state goes, on a window that grows with the sites the state
    reaches (_chebyshev_sweep).
    """
    orbit: Orbit
    center: int = 0

    @property
    def enclosure(self):
        return 2.0 + self.orbit.phi.sup_bound

    def potential(self, half):
        """The potential on the sites |n| <= half."""
        return self.orbit.potential(self.center - half, self.center + half)


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


def _certify(ts, block, budget, dropped=None):
    """One EvolutionState per node of a (nodes, sites) block at times ts.

    Each node has a norm defect and a boundary mass, taken for the whole
    block in one pass: the tail mass that its hops dropped (dropped, one
    per node, on an open chain), or else the mass on the outer percent of
    the box's sites.
    """
    prob = np.abs(block) ** 2
    norm_defect = np.abs(np.sum(prob, axis=-1) - 1.0)
    if dropped is None:
        edge = _edge_sites(block.shape[-1])
        boundary = (np.sum(prob[:, :edge], axis=-1)
                    + np.sum(prob[:, -edge:], axis=-1))
    else:
        boundary = np.asarray(dropped)
    valid = (norm_defect <= NORM_DEFECT_TOL) & (boundary <= budget)
    return [EvolutionState(t, psi, float(d), float(b), bool(ok))
            for t, psi, d, b, ok in zip(ts, block, norm_defect, boundary,
                                        valid)]


def initial_state(ham):
    """The delta at the origin, on the whole box or on an open chain's
    one-site window."""
    half = ham.l_box if isinstance(ham, BoxHamiltonian) else 0
    psi = np.zeros(2 * half + 1, dtype=np.complex128)
    psi[half] = 1.0
    return psi


def _dense(ham):
    """Whether ham is a box small enough for its eigendecomposition."""
    return isinstance(ham, BoxHamiltonian) and ham.size <= DENSE_SITES


def _sweep(ham, ts):
    """psi at each time of the nondecreasing grid ts, in node blocks.

    A box of at most DENSE_SITES sites is propagated by its
    eigendecomposition (dense_evolve), which there costs milliseconds
    against up to a second of Chebyshev terms at t = 1e4, in one block of
    all its nodes; a larger box, where the cubic cost of an
    eigendecomposition overtakes the Chebyshev expansion, and an open
    chain by the expansion (_chebyshev_sweep), one node at a time.  Yields
    each block's times, its (nodes, sites) array and its nodes' dropped
    tail masses, None on a box.
    """
    if _dense(ham):
        yield ts, dense_evolve(ham, ts), None
    else:
        yield from _chebyshev_sweep(ham, ts)


def _chebyshev_sweep(ham, ts):
    """_sweep by the Chebyshev expansion, node to node.

    A time that moves advances the state by hops, and a time that does not
    keeps it; each node's block is a fresh copy of the state.  A hop copies
    the amplitudes from the first to the last with |psi_n| > TRIM into a
    zero state, and one kernels.cheb_apply call runs on them widened by
    K = len(coeffs) sites on each side: a degree-(K - 1) step moves
    amplitude at most K - 1 sites, and the one site more holds +0
    throughout, so that the outermost reachable site sums the neighbours it
    has.  The result overwrites that window.  On a box the window is
    clipped to the box: with TRIM = 0 this is the whole-box step bit for
    bit, and a NaN state, with nothing above TRIM, steps on the whole box.
    On an open chain the state's centred array grows to hold the window,
    whose potential is sampled as it grows, and the hops' dropped tails
    are summed for the certificate.

    An open hop splits by a rule that follows from the scale s and the
    kept width w = last - first.  A hop of K = s dt terms costs about
    K (w + K) site-terms, as the kernel's window grows by a site a side
    per term, while amplitude moves at most 2 dt a side (the light cone of
    unit hoppings): about K (s - 2) dt = s (s - 2) dt^2 of that lies
    beyond the light cone.  Splitting the hop cuts this part, but each
    piece runs its own series tail, at least 48 terms past its tau
    (12 * 4 in _chebyshev_coefficients), over the kept width.  So a hop
    ends where the two balance, s (s - 2) dt^2 = 48 w.  A free chain
    (s = 2) never splits, and on a box the clip bounds the waste.

    The coefficients of a step are evaluated once per distinct scaled step
    tau (keyed on the exact float) within the sweep: the Gauss-Legendre
    hops of an Abel rule repeat bit for bit from panel to panel.
    """
    scale = ham.enclosure
    chain = isinstance(ham, OpenChain)
    psi = initial_state(ham)
    diag = (ham.potential(0) if chain else ham.v) / scale
    coefficients = {}
    dropped = 0.0
    prev = 0.0
    for t in ts:
        while prev < t:
            kept = np.flatnonzero(np.abs(psi) > TRIM)
            first, last = ((kept[0], kept[-1] + 1) if kept.size
                           else (0, psi.size))
            end = t
            if chain and scale > 2.0:
                end = min(t, prev + math.sqrt(
                    48.0 * (last - first) / (scale * (scale - 2.0))))
            tau = (end - prev) * scale
            if tau not in coefficients:
                coefficients[tau] = _chebyshev_coefficients(tau)
            coeffs = coefficients[tau]
            lo, hi = first - len(coeffs), last + len(coeffs)
            grow = max(-lo, hi - psi.size, 0) if chain else 0
            out = np.zeros(psi.size + 2 * grow, dtype=np.complex128)
            out[first + grow:last + grow] = psi[first:last]
            if chain:
                dropped += (np.vdot(psi[:first], psi[:first]).real
                            + np.vdot(psi[last:], psi[last:]).real)
            if grow:
                diag = ham.potential(out.size // 2) / scale
            lo, hi = max(lo + grow, 0), min(hi + grow, out.size)
            out[lo:hi] = kernels.cheb_apply(diag[lo:hi], 1.0 / scale, coeffs,
                                            out[lo:hi])
            psi, prev = out, end
        yield [t], np.array([psi]), [dropped] if chain else None


def evolve(ham, t, budget=DEFAULT_BOUNDARY_BUDGET):
    """e^{-i t H} applied to the delta at the origin, on a box or a chain.

    One time (_sweep), certified against budget.
    """
    if not 0.0 <= t < math.inf:
        raise ValueError(f"time must be nonnegative and finite, got t={t}")
    (ts, block, dropped), = _sweep(ham, [t])
    state, = _certify(ts, block, budget, dropped)
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
    return [state for times, block, dropped in _sweep(ham, ts)
            for state in _certify(times, block, DEFAULT_BOUNDARY_BUDGET,
                                  dropped)]


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


def _spectral_sum(ham, big_t):
    """averaged_profile on a box, exact, from its eigendecomposition.

    With b = u * u[center] (BoxHamiltonian.eigenbasis), psi(n, t) is
    sum_j b_nj e^{-i t E_j}, and its Abel average over all t >= 0 is
    sum_jk b_nj K_jk b_nk with K_jk = 1 / (1 + (T (E_j - E_k) / 2)^2): one
    (M, M) kernel and one matrix product.  At a large T the scaled gaps
    overflow to inf, and K_jk is 0, its limit: at T = 1e200 a is the
    infinite-time limit sum_j b_nj^2, with no warning.

    The profile is certified as a state is, by |sum a - 1| against
    NORM_DEFECT_TOL and its outer-percent mass against
    DEFAULT_BOUNDARY_BUDGET, and so is the state at 10 T (one dense_evolve
    row), where the Gauss-Legendre rule stops and xi_estimate's auto_box
    probe sits: an average can be held by a box that the state leaves
    later (the free delta on 49 sites at T = 1 puts 2.6e-11 of its average
    and 1.2e-3 of its 10 T state on the edge sites).  A failure raises a
    ValueError naming T and the four values.
    """
    w, u, amps = ham.eigenbasis
    b = u * amps
    with np.errstate(over="ignore"):
        kernel = np.square(0.5 * big_t * np.subtract.outer(w, w))
    kernel += 1.0
    np.reciprocal(kernel, out=kernel)
    profile = np.sum((b @ kernel) * b, axis=1)
    defect = abs(float(np.sum(profile)) - 1.0)
    edge = _edge_sites(profile.size)
    boundary = float(np.sum(profile[:edge]) + np.sum(profile[-edge:]))
    cut, = _certify([10.0 * big_t], dense_evolve(ham, [10.0 * big_t]),
                    DEFAULT_BOUNDARY_BUDGET)
    if not (defect <= NORM_DEFECT_TOL and boundary <= DEFAULT_BOUNDARY_BUDGET
            and cut.valid):
        raise ValueError(
            f"Abel profile flagged at T={big_t:.3g} (defect {defect:.2e}, "
            f"boundary {boundary:.2e}; state at t={cut.t:.3g}: defect "
            f"{cut.norm_defect:.2e}, boundary {cut.boundary_mass:.2e})")
    return profile


def averaged_profile(ham, big_t):
    """Abel-averaged site probabilities for the delta start:
    a(n, T) = (2/T) int_0^inf e^{-2t/T} |psi(n, t)|^2 dt.

    T must be positive and finite, checked before any evolution.  A box of
    at most DENSE_SITES sites returns its exact spectral sum
    (_spectral_sum), with no time step.  On an open chain or a larger box
    the average is the 20 x 12 Gauss-Legendre rule of abel_nodes over one
    evolve_times sweep of ham, which the tests measure against the free
    closed form; an open chain's profile is centred on the last node's
    window, the widest, as the windows only grow.  Every node state is
    certified at DEFAULT_BOUNDARY_BUDGET, and the first node that fails
    raises a ValueError naming its time.
    """
    if not 0.0 < big_t < math.inf:
        raise ValueError(f"T must be positive and finite, got T={big_t}")
    if _dense(ham):
        return _spectral_sum(ham, big_t)
    nodes, weights = abel_nodes(big_t)
    states = evolve_times(ham, nodes)
    acc = np.zeros(states[-1].psi.size)
    for st, w in zip(states, weights):
        if not st.valid:
            raise ValueError(
                f"evolution flagged at t={st.t:.3g} (defect "
                f"{st.norm_defect:.2e}, boundary {st.boundary_mass:.2e})")
        pad = (acc.size - st.psi.size) // 2
        acc[pad:acc.size - pad] += w * np.abs(st.psi) ** 2
    return acc


def _centred(values, size):
    """values, a centred array, padded with zeros to size sites."""
    if values.size >= size:
        return values
    return np.pad(values, (size - values.size) // 2)


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

class LightConeError(ValueError):
    """A time whose light cone is wider than BOX_CAP sites a side."""


def auto_box(map_spec, theta, phi, t_maxes, orbit=None):
    """The Hamiltonian each time of t_maxes is swept on: a box or the chain.

    Checked first, before any probe: phi must carry a sup_bound, which
    scales the open sweep, and the light cone of the largest time, (2 +
    sup|phi|) t_max sites a side, must lie within BOX_CAP, or a
    LightConeError names the two.  Each distinct t_max, in ascending
    order, then probes the boxes of half-widths BOX_START and 2 BOX_START
    (257 and 513 sites, which their eigendecompositions decide in
    milliseconds): a probe evolves the delta to t_max and passes if the box
    keeps it within PROBE_BUDGET.  That budget is much smaller than a
    sweep's: near the ballistic edge the boundary mass oscillates over a
    couple of orders of magnitude, so a box that barely fits at t_max can
    overflow slightly earlier.  A time takes the first box that passes,
    and a time that fails both the open chain (OpenChain), whose sweep
    grows its window with the state.  The times share the boxes and the
    chain, which all sample one orbit of theta: orbit if given, which must
    be an Orbit of theta under map_spec and phi.

    A probe state only decides yes or no and is then dropped, so a box is
    the same orbit sample whichever propagator decided it.  On at most
    DENSE_SITES sites the two propagators' boundary masses agree to 4e-10
    relative at the budget, and the rows of the transport workloads there
    lie at least nine decades from PROBE_BUDGET.
    """
    if phi.sup_bound is None:
        raise ValueError("the potential has no sup_bound, which scales the "
                         "Chebyshev sweep and bounds the light cone")
    t_end = max(t_maxes)
    reach = (2.0 + phi.sup_bound) * t_end
    if reach > BOX_CAP:
        raise LightConeError(
            f"the light cone to t_max={t_end:g}, (2 + sup|phi|) t_max = "
            f"{reach:.6g} sites a side, exceeds the hard cap of {BOX_CAP}")
    if orbit is None:
        orbit = Orbit(map_spec, theta, phi)
    boxes = {}                      # half-width -> box
    chain = OpenChain(orbit)
    found = {}
    for t_max in sorted(set(t_maxes)):
        found[t_max] = chain
        for width in (BOX_START, 2 * BOX_START):
            if width not in boxes:
                boxes[width] = build_hamiltonian(map_spec, theta, phi, width,
                                                 orbit)
            if evolve(boxes[width], t_max, PROBE_BUDGET).valid:
                found[t_max] = boxes[width]
                break
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
    profiles at theta and at f(theta) on T's Hamiltonian (auto_box at the
    Abel cut 10 T), over the union of their sites; when the two potentials
    agree on the sites of theta's profile (a constant phi) one profile
    serves both.
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
        at_theta = averaged_profile(ham, big_t)
        half = at_theta.size // 2
        v = orbit.potential(-half, half + 1)
        if np.array_equal(v[:-1], v[1:]):
            at_pair = at_theta
        elif isinstance(ham, OpenChain):
            at_pair = averaged_profile(OpenChain(orbit, center=1), big_t)
        else:
            if ham.l_box not in shifted:
                shifted[ham.l_box] = build_hamiltonian(
                    map_spec, theta, phi, ham.l_box, orbit, center=1)
            at_pair = averaged_profile(shifted[ham.l_box], big_t)
        size = max(at_theta.size, at_pair.size)
        cum_theta, cum_pair = (_symmetric_cumsum(_centred(p, size), size // 2)
                               for p in (at_theta, at_pair))
        totals.append(cum_theta + cum_pair)
    fronts = {tau: [max(xi_front(total, tau), 1) for total in totals]
              for tau in tau_levels}
    lead = tau_levels[0]
    slopes = running_slopes(np.log(t_grid), np.log(fronts[lead]))
    return ExponentEstimate(float(np.min(slopes)), float(np.max(slopes)),
                            fronts)
