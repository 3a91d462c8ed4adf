"""Box discrepancy, ETK / Van der Corput oracles, rate fits.

Point sets are ordered sequences on [0,1)^d.  Box discrepancy is exact in
d=1 (prefix-max scan over critical endpoints), exact in d=2 for N <= 512
(critical-box band scan), and otherwise grid-restricted with a certified
additive error 2d/G.
"""

import math
from dataclasses import dataclass

import numpy as np

from qdlab.backend import kernels
from qdlab.torus import PointSet, skew_iterate_ints

GRID_RESOLUTION = 1024
EXACT_2D_LIMIT = 512
ORBIT_CHUNK = 16384
ANCHOR_BITS = 128


# ---------------------------------------------------------------------------
# high-accuracy orbit generation (exact 128-bit anchors + kernel chunk fill)
# ---------------------------------------------------------------------------

def orbit_chunks(kind, freqs, y0, n):
    """Yields (start_index, (m, d) float64 array) chunks of the orbit.

    kind: 'shift' (freqs = one Frequency per coordinate) or 'skew'
    (freqs = one Frequency, y0 gives the dimension).  Chunk
    anchors are computed in exact fixed-point integers, so error never
    accumulates beyond a single chunk (~1e-8 worst case for d=2).
    """
    bits = ANCHOR_BITS
    modulus = 1 << bits
    y_ints = [int(round(float(c) * modulus)) % modulus for c in y0]
    if kind == "shift":
        a_ints = [f.fixed_int(bits) for f in freqs]
        alpha = np.array([a / modulus for a in a_ints], dtype=np.float64)
        for start in range(0, n, ORBIT_CHUNK):
            m = min(ORBIT_CHUNK, n - start)
            anchor = np.array(
                [((y + start * a) % modulus) / modulus
                 for y, a in zip(y_ints, a_ints)], dtype=np.float64)
            yield start, kernels.shift_chunk(anchor, alpha, m)
    elif kind == "skew":
        a_int = freqs.fixed_int(bits)
        alpha = a_int / modulus
        for start in range(0, n, ORBIT_CHUNK):
            m = min(ORBIT_CHUNK, n - start)
            anchor = np.array(
                [v / modulus
                 for v in skew_iterate_ints(a_int, y_ints, start, bits)],
                dtype=np.float64)
            yield start, kernels.skew_chunk(anchor, alpha, m)
    else:
        raise ValueError(f"unknown orbit kind {kind!r}")


def orbit_point_set(kind, freqs, y0, n):
    d = len(tuple(y0))
    pts = np.empty((n, d), dtype=np.float64)
    for start, block in orbit_chunks(kind, freqs, y0, n):
        pts[start:start + block.shape[0]] = block
    return PointSet(pts)


def orbit_grid_counts(kind, freqs, y0, n, g):
    """(g, g) int64 cell counts of a d=2 orbit, without materializing it."""
    counts = np.zeros((g, g), dtype=np.int64)
    for _, block in orbit_chunks(kind, freqs, y0, n):
        counts += _cell_counts(block, g)
    return counts


def orbit_discrepancy(kind, freqs, y0, n):
    """Box discrepancy of the first n orbit points, exact where affordable.

    A d=2 orbit too long for the exact scan is binned chunk by chunk on the
    GRID_RESOLUTION grid and never materialized.  A d=1 orbit is sorted in
    place, so its scan makes no sorted copy.
    """
    if len(y0) == 2 and n > EXACT_2D_LIMIT:
        counts = orbit_grid_counts(kind, freqs, y0, n, GRID_RESOLUTION)
        return discrepancy_from_grid_counts(counts, n)
    point_set = orbit_point_set(kind, freqs, y0, n)
    if point_set.d == 1:
        point_set.points.sort(axis=0)
    return discrepancy_box(point_set)


def _cell_counts(points, g):
    """(g,)*d int64 counts of (N, d) points in the cells of side 1/g."""
    n, d = points.shape
    idx = np.minimum((points * g).astype(np.int64), g - 1)
    lin = np.zeros(n, dtype=np.int64)
    for i in range(d):
        lin = lin * g + idx[:, i]
    return np.bincount(lin, minlength=g ** d).reshape((g,) * d)


# ---------------------------------------------------------------------------
# box discrepancy
# ---------------------------------------------------------------------------

@dataclass
class DiscrepancyReport:
    n: int
    d_n: float
    method: str
    error_bound: float = 0.0


def discrepancy_box(point_set):
    """Sup over half-open axis boxes of |count/N - volume|.

    The point set is never changed: a d=1 column that is not sorted is
    sorted into a copy.
    """
    grid = GRID_RESOLUTION
    pts = point_set.points
    n, d = pts.shape
    if n < 1:
        raise ValueError("empty point set")
    if d == 1:
        xs = pts[:, 0]
        if not np.all(xs[:-1] <= xs[1:]):
            xs = np.sort(xs)
        val = kernels.exact_discrepancy_1d(xs)
        return DiscrepancyReport(n, float(val), "exact")
    if d == 2 and n <= EXACT_2D_LIMIT:
        return DiscrepancyReport(n, _exact_discrepancy_2d(pts), "exact")
    if d == 2:
        return discrepancy_from_grid_counts(_cell_counts(pts, grid), n)
    # generic grid method for d >= 3
    g = max(4, int(round(grid ** (2.0 / d))))
    return _grid_discrepancy_nd(pts, g)


def discrepancy_from_grid_counts(counts, n):
    g = counts.shape[0]
    val = kernels.grid_discrepancy_2d(counts, n)
    return DiscrepancyReport(n, float(val), f"grid({g})", 4.0 / g)


def _exact_discrepancy_2d(pts):
    """Exact d=2 box discrepancy over critical boxes.

    For every pair of y-cuts drawn from the sample (plus sentinels), the x
    problem collapses to the 1d prefix-max scan; overfilled boxes use
    inclusive cuts at data values, underfilled ones exclusive cuts.  Each
    lower cut scans all its upper cuts at once: one row per upper cut, one
    column per point in x order, with the points outside the band masked
    out of the in-band index (a cumsum) and the prefix max (as -inf).

    The lower cuts run on one thread.  Split over two threads like the grid
    scan's, they gave a benchmark pass nothing (its 16 scans are at
    N <= 256) and ran 60 % slower while another process loaded the host:
    the arrays are small, and the threads mostly wait for the GIL.
    """
    n = pts.shape[0]
    fn = float(n)
    order = np.argsort(pts[:, 0], kind="stable")
    x = pts[order, 0]
    y = pts[order, 1]
    yvals = np.unique(y)
    best = 0.0
    # overfilled: y-band [yl, yh] inclusive, minimal width/height
    for li, yl in enumerate(yvals):
        above = y >= yl
        yh = yvals[li:, None]
        inside = y[above] <= yh
        idx = np.cumsum(inside, axis=1) - 1.0
        hx = (yh - yl) * x[above]
        prem = np.where(inside, hx - idx / fn, -np.inf)
        np.maximum.accumulate(prem, axis=1, out=prem)
        cand = (idx + 1.0) / fn - hx + prem
        best = np.max(cand, where=inside, initial=best)
    # underfilled: y-band (yl, yh) exclusive with sentinels 0, 1; the cuts
    # are distinct, so every band has height h > 0
    ycuts = np.unique(np.concatenate(([0.0], yvals, [1.0])))
    for li, yl in enumerate(ycuts[:-1]):
        yh = ycuts[li + 1:, None]
        above = y > yl
        xs = np.concatenate(([0.0], x[above], [1.0]))
        inside = np.ones((yh.shape[0], xs.shape[0]), dtype=bool)
        inside[:, 1:-1] = y[above] < yh
        ids = np.cumsum(inside, axis=1) - 1.0
        hx = (yh - yl) * xs
        b = np.where(inside, ids / fn - hx, -np.inf)
        premb = np.empty_like(b)
        premb[:, 0] = 0.0
        np.maximum.accumulate(b[:, :-1], axis=1, out=premb[:, 1:])
        cand = hx - (ids - 1.0) / fn + premb
        best = np.max(cand, where=inside, initial=best)
    return float(best)


def _grid_discrepancy_nd(pts, g):
    n, d = pts.shape
    # anchored prefix sums, then scan all grid boxes (d <= 3 in practice)
    pref = _cell_counts(pts, g).astype(np.float64)
    for ax in range(d):
        pref = np.cumsum(pref, axis=ax)
    pref = np.pad(pref, [(1, 0)] * d)
    # general-box scans are too costly for d >= 3: report the anchored-box
    # sup (a lower bound; the general value is at most 2^d times larger).
    # vol[c] = (c_0/g) * (c_1/g) * ..., multiplied left to right
    side = np.arange(g + 1, dtype=np.float64) * (1.0 / g)
    vol = np.ones(())
    for _ in range(d):
        vol = np.multiply.outer(vol, side)
    best = np.max(np.abs(pref / n - vol), initial=0.0)
    return DiscrepancyReport(n, float(best), f"grid-anchored({g})", 2.0 * d / g)


# ---------------------------------------------------------------------------
# ETK and Van der Corput inequalities
# ---------------------------------------------------------------------------

def exponential_sums(point_set, h0):
    """(1/N) sum_n e^{2 pi i <h, x_n>} for all 0 < |h|_sup <= h0.

    Returns (hs, sums): integer vectors (one per row, up to overall sign)
    and the complex averaged sums.
    """
    pts = point_set.points
    n, d = pts.shape
    z = np.exp(2j * math.pi * pts)
    if d == 1:
        hs = np.arange(1, h0 + 1)[:, None]
        sums = np.empty(h0, dtype=np.complex128)
        w = np.ones(n, dtype=np.complex128)
        for k in range(h0):
            w = w * z[:, 0]
            sums[k] = w.sum() / n
        return hs, sums
    if d == 2:
        hs_list, sums_list = [], []
        # rows h1 = 0..h0; for h1 = 0 only h2 > 0 (conjugate symmetry)
        pow2 = {}
        w2 = np.ones(n, dtype=np.complex128)
        pow2[0] = w2.copy()
        for k in range(1, h0 + 1):
            w2 = w2 * z[:, 1]
            pow2[k] = w2.copy()
        w1 = np.ones(n, dtype=np.complex128)
        for h1 in range(0, h0 + 1):
            lo = 1 if h1 == 0 else -h0
            for h2 in range(lo, h0 + 1):
                p2 = pow2[abs(h2)]
                term = p2 if h2 >= 0 else np.conj(p2)
                hs_list.append((h1, h2))
                sums_list.append((w1 * term).sum() / n)
            w1 = w1 * z[:, 0]
        return np.array(hs_list), np.array(sums_list)
    raise ValueError("exponential sums implemented for d <= 2")


def etk_bound(point_set, h0):
    """Right-hand side of the ETK discrepancy inequality, with the
    constant 2 (3/2)^d."""
    if h0 < 1:
        raise ValueError("h0 must be >= 1")
    hs, sums = exponential_sums(point_set, h0)
    r = np.prod(np.maximum(np.abs(hs), 1), axis=1).astype(np.float64)
    # vectors are enumerated up to sign; |S(-h)| = |S(h)| doubles each term
    total = 2.0 * np.sum(np.abs(sums) / r)
    return float(2.0 * 1.5 ** point_set.d * (1.0 / h0 + total))


def vdc_inequality(u, h):
    """Both sides of the Van der Corput inequality for |u_n| = 1."""
    u = np.asarray(u, dtype=np.complex128)
    n = u.shape[0]
    if not 1 <= h <= n:
        raise ValueError("window must satisfy 1 <= H <= N")
    lhs = abs(u.sum() / n) ** 2
    rhs = (n + h - 1) / (n * n * h) * np.sum(np.abs(u) ** 2)
    for k in range(1, h):
        corr = np.sum(u[:n - k] * np.conj(u[k:]))
        rhs += (2.0 * (n + h - 1)) / (n * n * h * h) * (h - k) * corr.real
    return float(lhs), float(rhs)


# ---------------------------------------------------------------------------
# combinatorial identities
# ---------------------------------------------------------------------------

def comb_identity(s, r):
    """Alternating binomial sums over the cube {0,1}^s.

    Returns (value at order s-1, value at order s); exact integers.  The
    first must vanish and the second equals the product of the r_t.
    """
    r = list(r)
    if s < 1 or len(r) != s or any(rt < 1 for rt in r):
        raise ValueError("need s >= 1 positive integers")
    v1 = 0
    v2 = 0
    for mask in range(1 << s):
        tot = 0
        bits = 0
        for t in range(s):
            if mask >> t & 1:
                tot += r[t]
                bits += 1
        sign = -1 if (s - bits) % 2 else 1
        v1 += sign * math.comb(tot, s - 1)
        v2 += sign * math.comb(tot, s)
    return v1, v2


# ---------------------------------------------------------------------------
# decay-rate fits
# ---------------------------------------------------------------------------

@dataclass
class RateFit:
    slope: float
    stderr: float

    @property
    def delta_hat(self):
        return -self.slope


def rate_fit_problem(sizes):
    """Why sorted sample sizes cannot carry a decay-rate fit, or None if
    they can: a fit needs at least 5 distinct sizes over two decades."""
    if len(sizes) < 5:
        return "need at least 5 scales"
    if any(b <= a for a, b in zip(sizes, sizes[1:])):
        return "sample sizes must be strictly increasing"
    if sizes[-1] / sizes[0] < 100.0:
        return "scales must span at least two decades"
    return None


def decay_rate_fit(samples):
    """Least-squares slope of log D against log N with its standard error."""
    samples = sorted(samples)
    problem = rate_fit_problem([n for n, _ in samples])
    if problem is not None:
        raise ValueError(problem)
    ns = np.array([float(n) for n, _ in samples])
    ds = np.array([float(v) for _, v in samples])
    x = np.log(ns)
    yv = np.log(ds)
    xm = x - x.mean()
    slope = float(np.dot(xm, yv) / np.dot(xm, xm))
    intercept = float(yv.mean() - slope * x.mean())
    res = yv - (slope * x + intercept)
    dof = max(len(x) - 2, 1)
    stderr = float(math.sqrt(np.dot(res, res) / dof / np.dot(xm, xm)))
    return RateFit(slope, stderr)
