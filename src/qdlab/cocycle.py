"""Schrodinger cocycles over torus dynamics and Lyapunov-type estimators.

The one-step transfer matrix at phase theta and energy z is
[[z - phi(theta), -1], [1, 0]]; n-step products are carried as a unit-scale
2x2 matrix plus an accumulated log-scale, and their spectral norms come from
the closed-form singular values.  Bulk products (phase batches, per-step
norm traces) are delegated to the numpy kernels in qdlab._fallback.
"""

import math
from dataclasses import dataclass

import numpy as np

from .backend import kernels
from .torus import TorusPoint, step_array, inverse_step_array

# rescale once the Frobenius norm passes the square root of the kernels'
# squared-norm threshold: the closed-form spectral norm squares the squared
# Frobenius norm, so a later threshold would overflow the discriminant
# q^2 - 4 det^2
RENORM_NORM = math.sqrt(kernels._RENORM_THRESHOLD)
HOLDER_SCALE = 1e-3        # per-coordinate offset of holder_certificate pairs


# ---------------------------------------------------------------------------
# sampling functions (potentials)
# ---------------------------------------------------------------------------

class CosinePotential:
    """phi(theta) = 2 lam cos(2 pi theta_1)."""

    def __init__(self, lam):
        self.lam = float(lam)
        self.sup_bound = 2.0 * abs(self.lam)
        self.holder = (1.0, 4.0 * math.pi * abs(self.lam))

    def __call__(self, pts):
        pts = np.atleast_2d(np.asarray(pts, dtype=np.float64))
        return 2.0 * self.lam * np.cos(2.0 * math.pi * pts[:, 0])


class PiecewiseHolderPotential:
    """Finite list of (box, callable) pieces partitioning the torus.

    Each piece is ((lo tuple, hi tuple), phi_j, gamma, holder constant); a
    point within 1e-12 of several boxes takes the first matching piece.
    """

    def __init__(self, pieces):
        if not pieces:
            raise ValueError("need at least one piece")
        self.pieces = list(pieces)
        self.holder = (min(p[2] for p in pieces),
                       sum(p[3] for p in pieces))
        self.sup_bound = None   # unknown until sampled

    def __call__(self, pts):
        pts = np.atleast_2d(np.asarray(pts, dtype=np.float64))
        out = np.zeros(pts.shape[0])
        assigned = np.zeros(pts.shape[0], dtype=bool)
        for (lo, hi), func, _, _ in self.pieces:
            lo = np.asarray(lo)
            hi = np.asarray(hi)
            inside = np.all((pts >= lo - 1e-12) & (pts < hi + 1e-12), axis=1)
            take = inside & ~assigned
            if np.any(take):
                out[take] = func(pts[take])
                assigned |= take
        if not np.all(assigned):
            raise ValueError("pieces do not cover all evaluated points")
        return out


class TabulatedPotential:
    """Lookup table over the first coordinate, piecewise constant."""

    def __init__(self, table):
        self.table = np.asarray(table, dtype=np.float64)
        if self.table.ndim != 1 or self.table.size == 0:
            raise ValueError("table must be a nonempty 1-d array")
        self.sup_bound = float(np.max(np.abs(self.table)))
        self.holder = None

    def __call__(self, pts):
        pts = np.atleast_2d(np.asarray(pts, dtype=np.float64))
        idx = np.minimum((pts[:, 0] * self.table.size).astype(np.int64),
                         self.table.size - 1)
        return self.table[idx]


class ZeroPotential:
    sup_bound = 0.0
    holder = (1.0, 0.0)

    def __call__(self, pts):
        pts = np.atleast_2d(np.asarray(pts, dtype=np.float64))
        return np.zeros(pts.shape[0])


def holder_certificate(phi, d, pairs, seed):
    """Max observed |phi(a)-phi(b)| / dist(a,b)^gamma over nearby pairs."""
    gamma, const = phi.holder
    rng = np.random.default_rng(seed)
    a = rng.random((pairs, d))
    b = a + rng.uniform(-HOLDER_SCALE, HOLDER_SCALE, size=(pairs, d))
    b -= np.floor(b)
    delta = np.abs(a - b)
    delta = np.minimum(delta, 1.0 - delta)
    dist = np.sqrt(np.einsum("ij,ij->i", delta, delta))
    good = dist > 0
    ratio = np.abs(phi(a[good]) - phi(b[good])) / dist[good] ** gamma
    return float(np.max(ratio)), const


# ---------------------------------------------------------------------------
# transfer matrices and products
# ---------------------------------------------------------------------------

def transfer_matrix(theta, z, phi):
    """One-step matrix [[z - phi(theta), -1], [1, 0]], determinant 1."""
    coords = np.atleast_2d(np.asarray(
        theta.coords if isinstance(theta, TorusPoint) else theta,
        dtype=np.float64))
    v = float(phi(coords)[0])
    dtype = np.complex128 if isinstance(z, complex) else np.float64
    return np.array([[z - v, -1.0], [1.0, 0.0]], dtype=dtype)


@dataclass
class TransferProduct:
    matrix: np.ndarray
    logscale: float
    n: int
    z: complex

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


def potential_sequence(map_spec, theta, n, phi, forward=True):
    """(phi(theta), phi(f theta), ...) resp. (phi(f^-1 theta), ...)."""
    coords = np.asarray(
        theta.coords if isinstance(theta, TorusPoint) else theta,
        dtype=np.float64).reshape(1, -1)
    out = np.empty(n, dtype=np.float64)
    cur = coords
    for k in range(n):
        if not forward:
            cur = inverse_step_array(map_spec, cur)
        out[k] = phi(cur)[0]
        if forward:
            cur = step_array(map_spec, cur)
    return out


def cocycle_product(map_spec, theta, z, n, phi):
    """A_n(theta, z) as a scaled TransferProduct; n = 0 gives the identity."""
    if n < 0:
        raise ValueError("n must be >= 0")
    dtype = np.complex128 if isinstance(z, complex) else np.float64
    m = np.eye(2, dtype=dtype)
    logscale = 0.0
    if n:
        v = potential_sequence(map_spec, theta, n, phi)
        for k in range(n):
            t = z - v[k]
            m = np.array([[t * m[0, 0] - m[1, 0], t * m[0, 1] - m[1, 1]],
                          [m[0, 0], m[0, 1]]], dtype=dtype)
            norm = math.sqrt(float(np.sum(np.abs(m) ** 2)))
            if norm > RENORM_NORM:
                m /= norm
                logscale += math.log(norm)
    return TransferProduct(m, logscale, n, z)


# column block of the batched orbit walk: at most this many potential
# samples per block of product rows, so no (rows x n) array is ever held
_BLOCK_CELLS = 1 << 17


def _batch_lognorms(map_spec, thetas, z, n, phi, orbit=None):
    """log ||A_n|| of a batch of product rows, via the kernel product.

    thetas: (R, d) start phases.  Their orbits are walked once with
    step_array in column blocks, and phi samples each block in one call.
    orbit: (M,) index of the phase orbit each product row follows (default:
    one row per phase); z: the energy, a scalar or one per row.  The kernel
    carries every row's product from block to block.  Returns (lognorm,
    detlog) of shape (M,).
    """
    if n < 1:
        raise ValueError("need n >= 1")
    thetas = np.atleast_2d(np.asarray(thetas, dtype=np.float64))
    count, d = thetas.shape
    if orbit is None:
        orbit = np.arange(count)
    z = np.asarray(z)
    e, eta = (z.real, z.imag) if np.iscomplexobj(z) else (z, 0.0)
    state = kernels.CocycleState()
    width = max(1, _BLOCK_CELLS // orbit.shape[0])
    cur = thetas
    for start in range(0, n, width):
        cols = min(width, n - start)
        pts = np.empty((cols, count, d), dtype=np.float64)
        for j in range(cols):
            pts[j] = cur
            cur = step_array(map_spec, cur)
        v = phi(pts.reshape(cols * count, d)).reshape(cols, count)
        lognorm, detlog = kernels.cocycle_batch(v.T[orbit], e, eta,
                                                state=state)
    return lognorm, detlog


@dataclass
class LyapunovEstimate:
    lhat: float
    stderr: float
    lhat_grid: float
    n: int
    phases: int


def lyapunov_scan(map_spec, energies, n, phases, seeds, phi):
    """lyapunov_estimate at every energy, from one batched orbit walk.

    Energy i averages over the uniform phase sample seeded by seeds[i];
    all energies share one deterministic phase grid.  Every phase orbit is
    walked once and feeds the products of all energies that use it, so the
    estimates are bit for bit those of one lyapunov_estimate per energy.
    """
    if n < 1 or phases < 1:
        raise ValueError("need n >= 1 and phases >= 1")
    if len(energies) == 0 or len(seeds) != len(energies):
        raise ValueError("need at least one energy and one seed per energy")
    d = map_spec.d
    count = len(energies)
    grid_thetas = np.zeros((phases, d))
    grid_thetas[:, 0] = (np.arange(phases) + 0.5) / phases
    thetas = np.concatenate(
        [np.random.default_rng(s).random((phases, d)) for s in seeds]
        + [grid_thetas])
    # product rows: each energy on its own random phases, then each energy
    # on the shared grid, whose orbits are the last `phases` of thetas
    own = count * phases
    orbit = np.concatenate([np.arange(own),
                            own + np.tile(np.arange(phases), count)])
    z = np.repeat(np.asarray(energies), phases)
    lognorm, _ = _batch_lognorms(map_spec, thetas, np.concatenate([z, z]),
                                 n, phi, orbit)
    random_rows = lognorm[:own].reshape(count, phases)
    grid_rows = lognorm[own:].reshape(count, phases)
    out = []
    for i in range(count):
        vals = random_rows[i] / n
        stderr = float(np.std(vals, ddof=1) / math.sqrt(phases)) \
            if phases > 1 else 0.0
        out.append(LyapunovEstimate(float(np.mean(vals)), stderr,
                                    float(np.mean(grid_rows[i]) / n), n,
                                    phases))
    return out


def lyapunov_estimate(map_spec, z, n, phases, seed, phi):
    """Finite-n Lyapunov estimate (1/n) E_theta log ||A_n||.

    Averages over a seeded uniform phase sample; a deterministic phase grid
    of the same size is reported alongside as a bias guard.
    """
    return lyapunov_scan(map_spec, [z], n, phases, [seed], phi)[0]


def uniform_upper_scan(map_spec, z, n, phase_grid, phi):
    """max over a deterministic phase grid of (1/n) log ||A_n(theta, z)||."""
    d = map_spec.d
    thetas = np.zeros((phase_grid, d))
    thetas[:, 0] = (np.arange(phase_grid) + 0.5) / phase_grid
    vals, _ = _batch_lognorms(map_spec, thetas, z, n, phi)
    return float(np.max(vals) / n)


def window_lower_bound(map_spec, theta, z, n, w, phi):
    """min over direction of max over |j| <= w of log ||A_n(f^j theta, z)||.

    The window slides the starting phase; the two directional maxima are
    computed from one two-sided potential sequence.
    """
    if w < 0 or n < 1:
        raise ValueError("need w >= 0 and n >= 1")
    back = potential_sequence(map_spec, theta, w, phi, forward=False)[::-1]
    fwd = potential_sequence(map_spec, theta, w + n, phi, forward=True)
    v = np.concatenate([back, fwd])        # indices -w .. w+n-1
    windows = np.lib.stride_tricks.sliding_window_view(v, n)
    e = z.real if isinstance(z, complex) else float(z)
    eta = z.imag if isinstance(z, complex) else 0.0
    lognorms, _ = kernels.cocycle_batch(np.ascontiguousarray(windows), e, eta)
    fwd_max = float(np.max(lognorms[w:]))      # j = 0 .. w
    bwd_max = float(np.max(lognorms[:w + 1]))  # j = -w .. 0
    return min(fwd_max, bwd_max)


def dt_integral(map_spec, theta, big_t, rho, e_count, k_bound, phi):
    """Trapezoid integral over [-K, K] of the damped-product criterion.

    Integrand at E: 1 / (min over direction of max over 1 <= n <= T^rho of
    ||A_n(theta, E + i/T)||^2); always <= 1 since the products are
    unimodular.
    """
    if k_bound < 4:
        raise ValueError("energy bound must be >= 4")
    nmax = max(1, int(math.floor(big_t ** rho)))
    eta = 1.0 / big_t
    v_fwd = potential_sequence(map_spec, theta, nmax, phi, forward=True)
    v_bwd = potential_sequence(map_spec, theta, nmax, phi, forward=False)
    es = np.linspace(-k_bound, k_bound, e_count)
    integrand = np.empty(e_count)
    for i, e in enumerate(es):
        fwd = kernels.cocycle_lognorms_all(v_fwd, float(e), eta)
        bwd = kernels.cocycle_lognorms_all(v_bwd, float(e), eta, inverse=True)
        best = min(float(np.max(fwd)), float(np.max(bwd)))
        integrand[i] = math.exp(-2.0 * max(best, 0.0))
    return float(np.trapezoid(integrand, es)), integrand


@dataclass
class TruncationLength:
    length: float
    achieved_norm: float
    satisfied: bool


def _truncated_norm_sq(cum, tail, length):
    """Fractionally interpolated truncated norm squared at a real length."""
    lo = int(math.floor(length))
    lo = min(lo, cum.shape[0])
    base = cum[lo - 1] if lo >= 1 else 0.0
    frac = length - math.floor(length)
    if frac > 0.0 and lo < cum.shape[0]:
        base += frac * tail[lo]
    return base


def kkl_truncation(map_spec, theta, z, eps, phi, max_window=4096):
    """Window lengths where the truncated norm of n -> A_n reaches 2||A||/eps.

    Solves the monotone equation in each direction by bisection on the
    fractionally interpolated truncated norm; an unsatisfiable direction is
    reported with the achieved norm and satisfied=False.
    """
    if eps <= 0:
        raise ValueError("eps must be positive")
    return _kkl_lengths(_kkl_sequences(map_spec, theta, phi, max_window),
                        z, eps)


def _kkl_sequences(map_spec, theta, phi, max_window):
    """The backward and forward potential sequences kkl_truncation reads."""
    return tuple(potential_sequence(map_spec, theta, max_window, phi,
                                    forward=forward)
                 for forward in (False, True))


def _kkl_lengths(sequences, z, eps):
    """kkl_truncation at energy z from its two sampled sequences.

    The one-step matrix at theta is rebuilt from the first forward sample,
    which is phi(theta) as transfer_matrix samples it.
    """
    v_bwd, v_fwd = sequences
    max_window = v_fwd.shape[0]
    dtype = np.complex128 if isinstance(z, complex) else np.float64
    a1 = np.array([[z - v_fwd[0], -1.0], [1.0, 0.0]], dtype=dtype)
    target = (2.0 * math.exp(_spectral_log(a1)) / eps) ** 2
    e = z.real if isinstance(z, complex) else float(z)
    eta = z.imag if isinstance(z, complex) else 0.0
    out = []
    for v, forward in ((v_bwd, False), (v_fwd, True)):
        lognorms = kernels.cocycle_lognorms_all(v, e, eta,
                                                inverse=not forward)
        sq = np.exp(np.minimum(2.0 * lognorms, 700.0))
        cum = np.cumsum(sq)
        if cum[-1] < target:
            out.append(TruncationLength(float(max_window),
                                        math.sqrt(cum[-1]), False))
            continue
        lo, hi = 0.0, float(max_window)
        for _ in range(80):
            mid = 0.5 * (lo + hi)
            if _truncated_norm_sq(cum, sq, mid) < target:
                lo = mid
            else:
                hi = mid
        out.append(TruncationLength(hi, math.sqrt(
            _truncated_norm_sq(cum, sq, hi)), True))
    return out[0], out[1]
