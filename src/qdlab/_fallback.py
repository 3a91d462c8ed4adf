"""Numpy implementations of the hot kernels, the only ones qdlab has.

Callers reach them through qdlab.backend.kernels.  Vectorization is
over whatever axis is wide (cocycle rows, grid rows, chunk indices);
sequential recurrences that cannot be vectorized fall back to plain Python
loops.  A cocycle row is one product: one phase orbit at one energy, so a
Lyapunov scan puts every energy x phase pair in one batch, and a
CocycleState carries the products across column blocks of the orbits.
"""

import math

import numpy as np


# ---------------------------------------------------------------------------
# orbit chunk generation
# ---------------------------------------------------------------------------

def shift_chunk(y0, alpha, n):
    """Rows k=0..n-1 of the orbit of the translation by alpha, starting at y0.

    y0, alpha: 1d arrays of equal length d.  Returns (n, d) float64.
    Within-chunk error is O(n * eps), so callers re-anchor periodically.
    """
    y0 = np.asarray(y0, dtype=np.float64)
    alpha = np.asarray(alpha, dtype=np.float64)
    k = np.arange(n, dtype=np.float64)[:, None]
    out = y0[None, :] + k * alpha[None, :]
    out -= np.floor(out)
    return out


def skew_chunk(y0, alpha, n):
    """Rows k=0..n-1 of the skew-shift orbit starting at y0.

    Step: (y1,...,yd) -> (y1+alpha, y2+y1, ..., yd+y_{d-1}).  Uses running
    sums of the already-reduced lower coordinate, which is exact mod 1 up to
    float rounding; callers keep chunks short and re-anchor exactly.
    """
    y0 = np.asarray(y0, dtype=np.float64)
    d = y0.shape[0]
    out = np.empty((n, d), dtype=np.float64)
    k = np.arange(n, dtype=np.float64)
    col = y0[0] + k * alpha
    col -= np.floor(col)
    out[:, 0] = col
    for i in range(1, d):
        sums = np.empty(n, dtype=np.float64)
        sums[0] = 0.0
        np.cumsum(out[:-1, i - 1], out=sums[1:])
        col = y0[i] + sums
        col -= np.floor(col)
        out[:, i] = col
    return out


# ---------------------------------------------------------------------------
# discrepancy scans
# ---------------------------------------------------------------------------

def exact_discrepancy_1d(xs_sorted):
    """Exact sup over half-open intervals of |count/N - length|.

    xs_sorted: sorted 1d float64 array in [0,1).  The supremum over all
    intervals is attained in the limit at critical endpoints given by the
    sample coordinates, which reduces to two prefix-max scans.
    """
    x = np.asarray(xs_sorted, dtype=np.float64)
    n = x.shape[0]
    fn = float(n)
    idx = np.arange(n, dtype=np.float64)
    # overfilled intervals: count (j - i + 1), length x_j - x_i, i <= j
    a = x - idx / fn                       # x_i - i/N
    prem = np.maximum.accumulate(a)
    dplus = np.max((idx + 1.0) / fn - x + prem)
    # underfilled intervals: open (x_i, x_j), sentinels at 0 and 1
    xs = np.concatenate(([0.0], x, [1.0]))
    ids = np.arange(n + 2, dtype=np.float64)
    b = ids / fn - xs                      # i/N - x_i
    premb = np.empty(n + 2, dtype=np.float64)
    premb[0] = -np.inf
    np.maximum.accumulate(b[:-1], out=premb[1:])
    dminus = np.max(xs - (ids - 1.0) / fn + premb)
    return float(max(dplus, dminus, 0.0))


def grid_discrepancy_2d(counts, n_points):
    """Sup over grid-aligned half-open boxes of |count/N - area|.

    counts: (G, G) array of per-cell point counts (axis 0 = x, axis 1 = y).
    Exact for the grid-restricted box family; the caller reports the 2d/G
    additive error of restricting to the grid.

    For the x-band [i1, i2), let P be the exact integer 2d prefix sum and
    h[j] = fl(fl((P[i2, j] - P[i1, j]) / N) - ((i2 - i1)/G) * (j/G)).  The
    box [i1, i2) x [j1, j2) deviates by h[j2] - h[j1], so the band's sup
    is max(h) - min(h).  Each h is the count over N, rounded, minus the
    area, rounded; as rounding is monotone, fl(max(h) - min(h)) is the
    largest fl(h[j2] - h[j1]) over all pairs, so the result is bit for bit
    that of a scan over every grid box with these h.
    """
    counts = np.asarray(counts, dtype=np.float64)
    g = counts.shape[0]
    fn = float(n_points)
    # p[i, j] = sum of counts[:i, :j]; integers, exact in float64
    p = np.zeros((g + 1, g + 1), dtype=np.float64)
    np.cumsum(counts, axis=0, out=p[1:, 1:])
    np.cumsum(p[1:, 1:], axis=1, out=p[1:, 1:])
    # area[w - 1, j] = (w/G) * (j/G), the area of [0, w/G) x [0, j/G)
    jgrid = np.arange(g + 1, dtype=np.float64) / g
    area = (np.arange(1, g + 1, dtype=np.float64) / g)[:, None] * jgrid
    h = np.empty((g, g + 1), dtype=np.float64)
    best = 0.0
    for i1 in range(g):
        rows = g - i1
        hb = h[:rows]                             # bands [i1, i1 + w)
        np.subtract(p[i1 + 1:], p[i1], out=hb)
        np.divide(hb, fn, out=hb)
        np.subtract(hb, area[:rows], out=hb)
        best = max(best, np.max(hb.max(axis=1) - hb.min(axis=1)))
    return float(best)


# ---------------------------------------------------------------------------
# SL(2) cocycle products
# ---------------------------------------------------------------------------

# Check the carried Frobenius norm every few steps and rescale only when it
# exceeds the threshold.  Bounded (elliptic) products then never rescale, so
# their carried determinant stays well conditioned; growing products rescale
# long before double overflow (worst-case inter-check growth keeps the
# squared norm far below 1e308).
_RENORM_EVERY = 16
_RENORM_THRESHOLD = 1e50


def _spectral_lognorm(a, b, c, d, logs):
    q = (np.abs(a) ** 2 + np.abs(b) ** 2 + np.abs(c) ** 2 + np.abs(d) ** 2)
    det2 = np.abs(a * d - b * c) ** 2
    disc = np.sqrt(np.maximum(q * q - 4.0 * det2, 0.0))
    smax2 = 0.5 * (q + disc)
    return 0.5 * np.log(smax2) + logs


class CocycleState:
    """A product that cocycle_batch carries across split columns.

    Holds the unit-scale entries (a, b, c, d) and the log-scale of every
    row after `steps` columns.  A fresh state is the identity; the first
    cocycle_batch call that receives it sets it up.
    """

    def __init__(self):
        self.entries = None
        self.logs = None
        self.steps = 0


def cocycle_batch(v, e, eta=0.0, state=None):
    """Final log spectral norm and determinant drift of transfer products.

    v: (P, n) potential samples, one row per product (a phase orbit at
    one energy).  e, eta: the energy z = e + i eta, a scalar or one per row.
    The product is A_n = A(theta_{n-1}) ... A(theta_0) with
    A = [[z-v, -1],[1, 0]].
    state: a CocycleState to continue; the n columns of v then extend the
    product it carries, it is advanced in place, and the renormalisation
    checks fall on the global steps 16, 32, ... of the whole product, so
    splitting the columns over several calls gives the same bits as one.
    Returns (lognorm, detlog_err) of shape (P,) for the product so far:
    detlog_err is log|det| + 2*logscale, zero for an exact unimodular
    product.
    """
    v = np.atleast_2d(np.asarray(v, dtype=np.float64))
    pcount, n = v.shape
    if state is None:
        if pcount == 1 and n > 4096:
            ln, dl = _cocycle_scalar(v[0], e, eta)
            return np.array([ln]), np.array([dl])
        state = CocycleState()
    if np.any(eta != 0.0):
        dtype = np.complex128
        z = e + 1j * eta
    else:
        dtype = np.float64
        z = e
    if state.entries is None:
        state.entries = (np.ones(pcount, dtype=dtype),
                         np.zeros(pcount, dtype=dtype),
                         np.zeros(pcount, dtype=dtype),
                         np.ones(pcount, dtype=dtype))
        state.logs = np.zeros(pcount, dtype=np.float64)
    a, b, c, d = state.entries
    logs = state.logs
    for k in range(n):
        t = z - v[:, k]
        a, b, c, d = t * a - c, t * b - d, a, b
        if (state.steps + k + 1) % _RENORM_EVERY == 0:
            q = (np.abs(a) ** 2 + np.abs(b) ** 2
                 + np.abs(c) ** 2 + np.abs(d) ** 2)
            s = np.where(q > _RENORM_THRESHOLD, np.sqrt(q), 1.0)
            a = a / s
            b = b / s
            c = c / s
            d = d / s
            logs += np.log(s)
    state.entries = (a, b, c, d)
    state.steps += n
    lognorm = _spectral_lognorm(a, b, c, d, logs)
    det = np.abs(a * d - b * c)
    with np.errstate(divide="ignore"):
        detlog = np.where(det > 0.0, np.log(det), -np.inf) + 2.0 * logs
    return np.asarray(lognorm, dtype=np.float64), detlog


def _cocycle_scalar(v, e, eta):
    # plain Python floats beat numpy scalar overhead for a single long orbit
    if eta != 0.0:
        z = complex(e, eta)
        a, b, c, d = complex(1), complex(0), complex(0), complex(1)
    else:
        z = e
        a, b, c, d = 1.0, 0.0, 0.0, 1.0
    logs = 0.0
    vl = v.tolist()
    k = 0
    for vk in vl:
        t = z - vk
        a, b, c, d = t * a - c, t * b - d, a, b
        k += 1
        if k % _RENORM_EVERY == 0:
            q = (abs(a) ** 2 + abs(b) ** 2 + abs(c) ** 2 + abs(d) ** 2)
            if q > _RENORM_THRESHOLD:
                s = math.sqrt(q)
                a /= s
                b /= s
                c /= s
                d /= s
                logs += math.log(s)
    q = abs(a) ** 2 + abs(b) ** 2 + abs(c) ** 2 + abs(d) ** 2
    det2 = abs(a * d - b * c) ** 2
    disc = math.sqrt(max(q * q - 4.0 * det2, 0.0))
    lognorm = 0.5 * math.log(0.5 * (q + disc)) + logs
    detlog = (0.5 * math.log(det2) if det2 > 0.0 else -math.inf) + 2.0 * logs
    return lognorm, detlog


def cocycle_lognorms_all(v, e, eta=0.0, inverse=False):
    """log spectral norm of every prefix product A_1 ... A_n.

    v: (n,) potential samples.  inverse: products of
    A^{-1} = [[0, 1],[-1, z-v]] in the given order.  Returns float64 (n,).
    """
    v = np.asarray(v, dtype=np.float64)
    n = v.shape[0]
    out = np.empty(n, dtype=np.float64)
    if eta != 0.0:
        z = complex(e, eta)
        a, b, c, d = complex(1), complex(0), complex(0), complex(1)
    else:
        z = float(e)
        a, b, c, d = 1.0, 0.0, 0.0, 1.0
    logs = 0.0
    for k in range(n):
        t = z - v[k]
        if inverse:
            a, b, c, d = c, d, -a + t * c, -b + t * d
        else:
            a, b, c, d = t * a - c, t * b - d, a, b
        q = abs(a) ** 2 + abs(b) ** 2 + abs(c) ** 2 + abs(d) ** 2
        det2 = abs(a * d - b * c) ** 2
        disc = math.sqrt(max(q * q - 4.0 * det2, 0.0))
        out[k] = 0.5 * math.log(0.5 * (q + disc)) + logs
        if q > _RENORM_THRESHOLD:
            s = math.sqrt(q)
            a /= s
            b /= s
            c /= s
            d /= s
            logs += math.log(s)
    return out


# ---------------------------------------------------------------------------
# Chebyshev propagation
# ---------------------------------------------------------------------------

def cheb_apply(diag_scaled, off_scaled, coeffs, psi0):
    """Sum_k coeffs[p, k] * T_k(Hs_p) psi0[p] for each row p of a block.

    Hs_p is the scaled tridiagonal operator of row p.  diag_scaled: (P, M)
    float64 diagonals; off_scaled: (P, 1) float64 off-diagonal couplings;
    coeffs: (P, K) complex128, each row zero-padded past its own length;
    psi0: (P, M) complex128.  Returns (P, M).  A single operator is the
    P = 1 case and may drop the row axis ((M,), scalar, (K,), (M,)); the
    result then has shape (M,).

    Every element sees the operations of the one-row recurrence in the same
    order, so each row equals its own one-row call bit for bit (a
    zero-padded term can only flip the sign of an exact zero).  Products
    by the real diagonal, coupling and factor 2 run over the whole block;
    a complex coefficient multiplies one contiguous row at a time as a
    scalar times a vector, as the one-row call does: a site-major (M, P)
    block times a (P,) column takes another SIMD loop, which does not
    round like it.  The recurrence runs in buffers allocated once per call.
    """
    psi0 = np.asarray(psi0, dtype=np.complex128)
    t0 = np.array(np.atleast_2d(psi0))
    rows, m = t0.shape
    diag = np.asarray(diag_scaled, dtype=np.float64).reshape(rows, m)
    coeffs = np.asarray(coeffs, dtype=np.complex128).reshape(rows, -1)
    acc = coeffs[:, :1] * t0
    if coeffs.shape[1] == 1:
        return acc.reshape(psi0.shape)
    diag = diag.astype(np.complex128)
    off = np.empty_like(t0)
    off[:] = np.asarray(off_scaled, dtype=np.float64).reshape(rows, 1)
    t1, y, nb, term = (np.empty_like(t0) for _ in range(4))
    bands = [(y_row[:-1], nb_row[1:], y_row[1:], nb_row[:-1])
             for y_row, nb_row in zip(y, nb)]
    term_rows = list(term)

    def matvec(x):
        np.multiply(diag, x, out=y)
        np.multiply(off, x, out=nb)
        for y_lo, nb_hi, y_hi, nb_lo in bands:
            y_lo += nb_hi
            y_hi += nb_lo

    def add_term(column, t_rows):
        for c, t_row, term_row in zip(column, t_rows, term_rows):
            np.multiply(c, t_row, out=term_row)
        np.add(acc, term, out=acc)

    matvec(t0)
    np.copyto(t1, y)
    # t0 is overwritten by T_k while t1 holds T_{k-1}; then they swap
    t0_rows, t1_rows = list(t0), list(t1)
    add_term(coeffs[:, 1], t1_rows)
    for column in coeffs.T[2:]:
        matvec(t1)
        np.multiply(2.0, y, out=y)
        np.subtract(y, t0, out=t0)
        add_term(column, t0_rows)
        t0, t1, t0_rows, t1_rows = t1, t0, t1_rows, t0_rows
    return acc.reshape(psi0.shape)
