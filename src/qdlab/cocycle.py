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


# ---------------------------------------------------------------------------
# sampling functions (potentials)
# ---------------------------------------------------------------------------

class CosinePotential:
    """phi(theta) = 2 lam cos(2 pi theta_1)."""

    def __init__(self, lam):
        self.lam = float(lam)
        self.sup_bound = 2.0 * abs(self.lam)

    def __call__(self, pts):
        pts = np.atleast_2d(np.asarray(pts, dtype=np.float64))
        return 2.0 * self.lam * np.cos(2.0 * math.pi * pts[:, 0])


class PiecewiseHolderPotential:
    """Finite list of (box, callable) pieces partitioning the torus.

    Each piece is ((lo tuple, hi tuple), phi_j, gamma, holder constant), of
    which only the box and phi_j are read; a point within 1e-12 of several
    boxes takes the first matching piece.
    """

    def __init__(self, pieces):
        if not pieces:
            raise ValueError("need at least one piece")
        self.pieces = list(pieces)
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

    def __call__(self, pts):
        pts = np.atleast_2d(np.asarray(pts, dtype=np.float64))
        idx = np.minimum((pts[:, 0] * self.table.size).astype(np.int64),
                         self.table.size - 1)
        return self.table[idx]


class ZeroPotential:
    sup_bound = 0.0

    def __call__(self, pts):
        pts = np.atleast_2d(np.asarray(pts, dtype=np.float64))
        return np.zeros(pts.shape[0])


# ---------------------------------------------------------------------------
# transfer matrices and products
# ---------------------------------------------------------------------------

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


# column block of the orbit walk: at most this many potential samples per
# block, so no (rows x n) array is ever held
_BLOCK_CELLS = 1 << 17


def _orbit_blocks(map_spec, thetas, n, width, forward):
    """The orbits of the (rows, d) phases thetas, width steps per block.

    Yields (cols, rows, d) blocks of f^k theta for 0 <= k < n, or of
    f^-k theta for 1 <= k <= n when not forward, taking one step_array
    (inverse_step_array) call per step.
    """
    cur = thetas
    for start in range(0, n, width):
        pts = np.empty((min(width, n - start),) + thetas.shape)
        for j in range(pts.shape[0]):
            if forward:
                pts[j] = cur
                cur = step_array(map_spec, cur)
            else:
                cur = inverse_step_array(map_spec, cur)
                pts[j] = cur
        yield pts


def potential_sequence(map_spec, theta, n, phi, forward=True):
    """(phi(theta), phi(f theta), ...) resp. (phi(f^-1 theta), ...)."""
    coords = np.asarray(
        theta.coords if isinstance(theta, TorusPoint) else theta,
        dtype=np.float64).reshape(1, -1)
    blocks = _orbit_blocks(map_spec, coords, n, _BLOCK_CELLS, forward)
    return np.concatenate([np.empty(0)] + [phi(pts[:, 0]) for pts in blocks])


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
    return TransferProduct(m, logscale)


def _batch_lognorms(map_spec, thetas, z, n, phi, orbit):
    """log ||A_n|| of a batch of product rows, via the kernel product.

    thetas: (R, d) start phases.  Their orbits are walked once in column
    blocks (_orbit_blocks), and phi samples each block in one call.
    orbit: (M,) index of the phase orbit each product row follows; z: the
    energy, a scalar or one per row.  The kernel carries every row's
    product from block to block.  Returns (lognorm, detlog) of shape (M,).
    """
    if n < 1:
        raise ValueError("need n >= 1")
    thetas = np.atleast_2d(np.asarray(thetas, dtype=np.float64))
    z = np.asarray(z)
    e, eta = (z.real, z.imag) if np.iscomplexobj(z) else (z, 0.0)
    state = kernels.CocycleState()
    width = max(1, _BLOCK_CELLS // orbit.shape[0])
    for pts in _orbit_blocks(map_spec, thetas, n, width, True):
        v = phi(pts.reshape(-1, pts.shape[2])).reshape(pts.shape[:2])
        lognorm, detlog = kernels.cocycle_batch(v.T[orbit], e, eta,
                                                state=state)
    return lognorm, detlog


@dataclass
class LyapunovEstimate:
    lhat: float
    stderr: float
    lhat_grid: float


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
                                    float(np.mean(grid_rows[i]) / n)))
    return out


def lyapunov_estimate(map_spec, z, n, phases, seed, phi):
    """Finite-n Lyapunov estimate (1/n) E_theta log ||A_n||.

    Averages over a seeded uniform phase sample; a deterministic phase grid
    of the same size is reported alongside as a bias guard.
    """
    return lyapunov_scan(map_spec, [z], n, phases, [seed], phi)[0]


def dt_integral(map_spec, theta, big_t, rho, e_count, k_bound, phi):
    """Trapezoid integral over [-K, K] of the damped-product criterion.

    Integrand at E: 1 / (min over direction of max over 1 <= n <= T^rho of
    ||A_n(theta, E + i/T)||^2); always <= 1 since the products are
    unimodular.  Each direction takes every energy in one kernel call.
    """
    if k_bound < 4:
        raise ValueError("energy bound must be >= 4")
    if not 0.0 < rho <= 1.0:
        raise ValueError("rho must be in (0, 1]")
    nmax = max(1, int(math.floor(big_t ** rho)))
    eta = 1.0 / big_t
    v_fwd = potential_sequence(map_spec, theta, nmax, phi, forward=True)
    v_bwd = potential_sequence(map_spec, theta, nmax, phi, forward=False)
    es = np.linspace(-k_bound, k_bound, e_count)
    fwd = kernels.cocycle_lognorms_all(v_fwd, es, eta)
    bwd = kernels.cocycle_lognorms_all(v_bwd, es, eta, inverse=True)
    integrand = np.array([math.exp(-2.0 * max(min(f, b), 0.0))
                          for f, b in zip(fwd.tolist(), bwd.tolist())])
    return float(np.trapezoid(integrand, es)), integrand
