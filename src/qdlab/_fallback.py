"""Numpy implementations of the hot kernels, the only ones qdlab has.

Callers reach them through qdlab.backend.kernels.  Vectorization is
over whatever axis is wide (cocycle rows, grid rows, chunk indices);
sequential recurrences that cannot be vectorized fall back to plain Python
loops.  The SL(2) cocycle has one recurrence, _cocycle, over rows (a phase
orbit at one energy, or one energy of the DT integral) x steps.  Its two
entry points, cocycle_batch for Lyapunov batches and cocycle_lognorms_all
for DT prefix maxima, call it directly, so the benchmark's tracer, which
wraps both names, counts each stage's steps under its own name.
The discrepancy scans stream through blocks that fit in L2 cache (sorted
points in d=1, band rows in d=2), carrying their running maxima from
block to block; max is exact, so the blocks change no bits.

The d=2 grid scan is a branch and bound over the x-bands [i1, i2).  The
deviation e[i, j] = P[i, j] G^2 - i j N of the count prefix P is an exact
int64, and a band's value at column j is (e[i2, j] - e[i1, j]) / (N G^2)
up to a few roundings.  The row extrema of e over column blocks bound
every band's sup - inf from above; a band whose bound, plus a margin far
above that rounding, is at most the best band value formed so far is
never formed.  The bands that are formed are formed as an exhaustive scan
forms them, so the result is the max over the same floats, bit for bit.

Two scans reduce independent work with max or another order-free rule,
the d=2 grid scan here and remainder_sets.remainder_sup, and they split
that work into _WORKERS parts through _in_parts: one thread per part,
part 0 on the calling thread.  Each part runs the serial code on its own
share and buffers, and the parts' results are combined by the same exact
rule, so the split moves no bits.  numpy releases the GIL inside its
loops, so the parts run side by side.  Work made of many small arrays is
not split, as its threads mostly wait for the GIL: the Chebyshev
recurrence, which steps one state per call (a 2-way split of row blocks,
when it stepped those, took a transport pass from about 7 s to 11 s), and
the exact d=2 scan.
"""

import math
import os
import threading

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view


# ---------------------------------------------------------------------------
# work split over the process's CPUs
# ---------------------------------------------------------------------------

def _cpu_count():
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:                 # no affinity API on this OS
        return os.cpu_count() or 1


# the CPUs this process may run on, read once at import
_WORKERS = _cpu_count()


def _in_parts(task, n):
    """[task(range(k, n, W)) for k < W], W = min(_WORKERS, n) parts.

    Part k takes the items k, k + W, k + 2W, ... of range(n), so the parts
    even out when the cost of an item falls along the range.  Part 0 runs
    on the calling thread and the others on one thread each, under the
    caller's numpy error state (np.errstate is per thread).  Returns the
    results in part order once every part has ended; an exception of a
    part (part 0's, else the first worker's) is re-raised in the caller,
    and so is a warning that the filters turn into one.  With one part no
    thread is started.  A task may call only numpy and private helpers,
    and must not call _in_parts itself.
    """
    parts = max(1, min(_WORKERS, n))
    if parts == 1:
        return [task(range(n))]
    err = np.geterr()
    results = [None] * parts
    errors = [None] * parts

    def run(k):
        try:
            with np.errstate(**err):
                results[k] = task(range(k, n, parts))
        except BaseException as exc:       # handed to the caller below
            errors[k] = exc

    threads = [threading.Thread(target=run, args=(k,))
               for k in range(1, parts)]
    for t in threads:
        t.start()
    try:
        results[0] = task(range(0, n, parts))
    finally:
        for t in threads:
            t.join()
    for exc in errors:
        if exc is not None:
            raise exc
    return results


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

# Both scans stream their work through blocks that stay in L2 cache:
# points of the sorted sample, and band rows of the grid.  Timed on a
# 2-core Xeon with 2 MiB of L2 per core: 2^15 was the fastest of 2^12 ..
# 2^18 points at N = 4e6, 64 of 16 .. 256 rows at G = 1024 when the grid
# scan formed every band.
_SCAN_POINTS = 1 << 15
_BAND_ROWS = 64
# The d=2 grid scan bounds every band on column blocks of _COARSE_COLS
# columns and the bands left over on blocks of _FINE_COLS.  Timed at
# G = 1024 on the pair orbit (N = 8192 .. 1e6) on the same host: 16 and 4
# beat 32/4, 32/8, 16/8 and 8/4.  _BOUND_MARGIN absorbs the rounding of
# the float band values, which stays below 2e-15 (see grid_discrepancy_2d).
_COARSE_COLS = 16
_FINE_COLS = 4
_BOUND_MARGIN = 1e-13


def exact_discrepancy_1d(xs_sorted):
    """Exact sup over half-open intervals of |count/N - length|.

    xs_sorted: sorted 1d float64 array in [0,1).  The supremum over all
    intervals is attained in the limit at critical endpoints given by the
    sample coordinates, which reduces to two prefix-max scans over
    a_i = x_i - i/N and b_i = (i+1)/N - x_i.  Overfilled [x_i, x_j]
    deviate by b_j + max_{i<=j} a_i; underfilled (x_i, x_j) by
    a_j + max_{i<j} b_i, where the sentinel x = 0 puts b = 0 in every
    prefix and the sentinel x = 1 closes (x_i, 1) with 1 - N/N + max b.

    The points run in blocks of _SCAN_POINTS, so the work buffers hold a
    few blocks whatever N is.  Slot 0 of each running-max buffer carries
    the maximum over the blocks before.  max is exact, so every a_i, b_i,
    prefix maximum and deviation has the bits of one scan over the whole
    array, and so has the result.
    """
    x = np.asarray(xs_sorted, dtype=np.float64)
    n = x.shape[0]
    fn = float(n)
    size = min(n, _SCAN_POINTS)
    run_a = np.empty(size + 1)
    run_b = np.empty(size + 1)
    run_a[0] = -np.inf
    run_b[0] = 0.0                         # the sentinel 0: 0/N - 0
    best = 0.0
    for lo in range(0, n, _SCAN_POINTS):
        xb = x[lo:lo + _SCAN_POINTS]
        m = xb.shape[0]
        ra, rb = run_a[:m + 1], run_b[:m + 1]
        i = np.arange(lo, lo + m, dtype=np.float64)
        a = xb - i / fn                    # x_i - i/N
        b = (i + 1.0) / fn - xb            # (i+1)/N - x_i
        ra[1:] = a
        rb[1:] = b
        np.maximum.accumulate(ra, out=ra)
        np.maximum.accumulate(rb, out=rb)
        best = max(best, np.max(b + ra[1:]), np.max(a + rb[:m]))
        run_a[0] = ra[m]
        run_b[0] = rb[m]
    # the sentinel 1: 1 - N/N + max b is max b exactly
    return float(max(best, run_b[0]))


def _column_extrema(e, width):
    """Row maxima and minima of e over the column blocks [kB, (k+1)B].

    B = width.  Neighbouring blocks share their edge column, and the last
    block ends at the last column.  Returns two (rows, blocks) arrays.
    """
    g = e.shape[1] - 1
    blocks = -(-g // width)
    cols = np.minimum(np.arange(blocks * width + 1), g)
    win = sliding_window_view(e[:, cols], width + 1, axis=1)[:, ::width]
    return win.max(axis=2), win.min(axis=2)


def _deviation_extrema(p, n_points, width):
    """Block extrema of the deviation e[i, j] = P[i, j] G^2 - i j N.

    p: the (G + 1, G + 1) prefix table, whose integers are exact in
    float64; e is exact in int64 and is formed _BAND_ROWS rows at a time,
    so no third table is held.  Returns (top, low) = _column_extrema of e.
    """
    g = p.shape[0] - 1
    j = np.arange(g + 1, dtype=np.int64)
    blocks = -(-g // width)
    top = np.empty((g + 1, blocks), dtype=np.int64)
    low = np.empty((g + 1, blocks), dtype=np.int64)
    for r0 in range(0, g + 1, _BAND_ROWS):
        r1 = min(r0 + _BAND_ROWS, g + 1)
        e = p[r0:r1].astype(np.int64)
        e *= g * g
        e -= np.multiply.outer(np.arange(r0, r1, dtype=np.int64) * n_points, j)
        top[r0:r1], low[r0:r1] = _column_extrema(e, width)
    return top, low


def _cut_bounds(top, low, i1, work, up, lo):
    """Bounds of the bands [i1, i2), i2 = i1 + 1 .. G, in units of 1/(N G^2).

    top, low: block extrema of e; work: an int64 work buffer of at least
    2 (G - i1) blocks; up, lo: int64, G - i1 long or more.  The row of i1
    is copied into the work buffer, so no ufunc broadcasts it.  Returns a
    view of up.
    """
    rows, blocks = top.shape[0] - 1 - i1, top.shape[1]
    rep = work[:rows * blocks].reshape(rows, blocks)
    diff = work[rows * blocks:2 * rows * blocks].reshape(rows, blocks)
    up, lo = up[:rows], lo[:rows]
    np.copyto(rep, low[i1])
    np.subtract(top[i1 + 1:], rep, out=diff)
    np.max(diff, axis=1, out=up)
    np.copyto(rep, top[i1])
    np.subtract(low[i1 + 1:], rep, out=diff)
    np.min(diff, axis=1, out=lo)
    return np.subtract(up, lo, out=up)


def _pair_bounds(top, low, lower, upper, work, up, lo):
    """_cut_bounds of the bands [lower[r], upper[r]), rows gathered.

    _cut_bounds reads a cut's rows as slices instead: on the pass over
    every band, the scan's largest step, gathers took 40 % longer.
    """
    rows, blocks = lower.shape[0], top.shape[1]
    rep = work[:rows * blocks].reshape(rows, blocks)
    diff = work[rows * blocks:2 * rows * blocks].reshape(rows, blocks)
    up, lo = up[:rows], lo[:rows]
    # mode="clip": with out= and the default mode, take writes a copy first
    np.take(top, upper, axis=0, out=diff, mode="clip")
    np.take(low, lower, axis=0, out=rep, mode="clip")
    np.subtract(diff, rep, out=diff)
    np.max(diff, axis=1, out=up)
    np.take(low, upper, axis=0, out=diff, mode="clip")
    np.take(top, lower, axis=0, out=rep, mode="clip")
    np.subtract(diff, rep, out=diff)
    np.min(diff, axis=1, out=lo)
    return np.subtract(up, lo, out=up)


def _band_sups(p, lower, upper, fn, jrep, h, rest):
    """max over r of max(h[r]) - min(h[r]) for the bands [lower[r], upper[r]).

    h[r, j] = fl(fl((P[upper, j] - P[lower, j]) / N) - area), with the area
    (w/G) * (j/G), w = upper - lower, a product of the same two floats as
    in a table of areas.  h and rest are (len(lower), G + 1) buffers, and
    jrep holds j/G in each of at least as many rows: every operand has the
    shape of h, so no ufunc takes an iterator buffer.
    """
    g = p.shape[0] - 1
    np.take(p, upper, axis=0, out=h, mode="clip")
    np.take(p, lower, axis=0, out=rest, mode="clip")
    np.subtract(h, rest, out=h)
    np.divide(h, fn, out=h)
    np.copyto(rest, ((upper - lower) / g)[:, None])
    np.multiply(rest, jrep[:h.shape[0]], out=rest)
    np.subtract(h, rest, out=h)
    return float(np.max(h.max(axis=1) - h.min(axis=1)))


def grid_discrepancy_2d(counts, n_points):
    """Sup over grid-aligned half-open boxes of |count/N - area|.

    counts: (G, G) array of per-cell point counts (axis 0 = x, axis 1 = y),
    n_points: the integer N.  Exact for the grid-restricted box family;
    the caller reports the 2d/G additive error of restricting to the grid.

    For the x-band [i1, i2), let P be the exact integer 2d prefix sum and
    h[j] = fl(fl((P[i2, j] - P[i1, j]) / N) - ((i2 - i1)/G) * (j/G)).  The
    box [i1, i2) x [j1, j2) deviates by h[j2] - h[j1], so the band's sup
    is max(h) - min(h).  Each h is the count over N, rounded, minus the
    area, rounded; as rounding is monotone, fl(max(h) - min(h)) is the
    largest fl(h[j2] - h[j1]) over all pairs, so the result is bit for bit
    that of a scan over every grid box with these h.

    Most bands cannot hold the sup, and a bound rules them out unformed.
    The exact deviation e[i, j] = P[i, j] G^2 - i j N is an integer, held
    in int64 (|e| < 2^61 is checked), and h[j] is (e[i2, j] - e[i1, j]) /
    (N G^2) up to rounding.  With M and m the row max and min of e over the
    column blocks [kB, (k+1)B] (edges included), every j lies in a block,
    so the band's exact sup(h) - inf(h) is at most
        (max_k (M[i2, k] - m[i1, k]) - min_k (m[i2, k] - M[i1, k])) / (N G^2).
    The float h differs from the exact one by at most five roundings of
    numbers below max(1, C/N), C the total count: 5 * 2^-53 * max(1, C/N)
    < 6e-16 * max(1, C/N).  So the float range exceeds the exact bound by
    less than 2e-15 * max(1, C/N), comparison rounding included, and a
    band whose bound plus _BOUND_MARGIN * max(1, C/N) is at most the best
    float range found so far cannot beat it and is skipped.

    Each part runs its lower cuts in turn.  It bounds every band of a cut
    on _COARSE_COLS blocks and keeps those whose bound may beat its best,
    from a few cuts at a time, bounds them again on _FINE_COLS blocks, and
    forms the survivors, largest bound first, in blocks of up to half of
    _BAND_ROWS rows beside their lower rows (_band_sups): the three ufunc
    steps of one pass over all bands, on the same operands.  Its best is
    the max of those exact band values, starting from 0; max is exact, so
    the result is the max over the same floats as an exhaustive scan, and
    every bit holds.  The block extrema are formed in row blocks (no third
    (G + 1)^2 table) and the bounds per cut; no area table is held.

    The lower cuts are split over _in_parts: part k scans i1 = k, k + W,
    ... with buffers of its own, and the result is the max of the parts'
    maxima, which is exact too.
    """
    counts = np.asarray(counts)
    g = counts.shape[0]
    fn = float(n_points)
    # p[i, j] = sum of counts[:i, :j]; integers, exact in float64
    p = np.zeros((g + 1, g + 1), dtype=np.float64)
    np.cumsum(counts, axis=0, dtype=np.float64, out=p[1:, 1:])
    np.cumsum(p[1:, 1:], axis=1, out=p[1:, 1:])
    mass = max(1.0, p[g, g] / fn)
    if mass * fn * g * g >= 2.0 ** 61:
        raise ValueError("too many points for the int64 deviation")
    coarse = _deviation_extrema(p, int(n_points), _COARSE_COLS)
    fine = _deviation_extrema(p, int(n_points), _FINE_COLS)
    scale = fn * g * g
    margin = _BOUND_MARGIN * mass
    # a band block and its lower rows share one _BAND_ROWS buffer, which
    # first holds the int64 work of a cut's coarse bounds, and of the
    # fine bounds of `chunk` bands at a time
    rows = max(1, min(g, _BAND_ROWS) // 2)
    size = max(2 * rows * (g + 1), 2 * g * coarse[0].shape[1])
    chunk = max(1, size // (2 * fine[0].shape[1]))
    jrep = np.empty((rows, g + 1))
    np.copyto(jrep, np.arange(g + 1, dtype=np.float64) / g)

    def scan(cuts):
        flat = np.empty(size)
        work = flat.view(np.int64)
        h = flat[:rows * (g + 1)].reshape(rows, g + 1)
        rest = flat[rows * (g + 1):2 * rows * (g + 1)].reshape(rows, g + 1)
        up = np.empty(max(g, chunk), dtype=np.int64)
        lo = np.empty(max(g, chunk), dtype=np.int64)
        best = 0.0
        limit = -1                          # bound, in units of e, to beat

        def settle(lower, upper):
            nonlocal best, limit
            lower = np.concatenate(lower)
            upper = np.concatenate(upper)
            kept = []
            for s in range(0, lower.shape[0], chunk):
                a, b = lower[s:s + chunk], upper[s:s + chunk]
                bound = _pair_bounds(*fine, a, b, work, up, lo)
                keep = bound > limit
                kept.append((bound[keep], a[keep], b[keep]))
            bound, lower, upper = (np.concatenate(x) for x in zip(*kept))
            order = np.argsort(bound)[::-1]
            bound, lower, upper = bound[order], lower[order], upper[order]
            for s in range(0, bound.shape[0], rows):
                k = int(np.count_nonzero(bound[s:s + rows] > limit))
                if k == 0:                  # the bounds fall from here on
                    break
                top = _band_sups(p, lower[s:s + k], upper[s:s + k], fn,
                                 jrep, h[:k], rest[:k])
                if top > best:
                    best = top
                    limit = math.floor((best - margin) * scale)

        lower, upper, pending = [], [], 0
        for i1 in cuts:
            keep = np.flatnonzero(_cut_bounds(*coarse, i1, work, up, lo)
                                  > limit)
            if keep.shape[0]:
                keep += i1 + 1
                lower.append(np.full(keep.shape[0], i1))
                upper.append(keep)
                pending += keep.shape[0]
            if pending >= g:
                settle(lower, upper)
                lower, upper, pending = [], [], 0
        if pending:
            settle(lower, upper)
        return best

    return float(max(_in_parts(scan, g)))


# ---------------------------------------------------------------------------
# SL(2) cocycle products
# ---------------------------------------------------------------------------

# The Frobenius norm is checked every _RENORM_EVERY steps, and a product is
# rescaled only when its square exceeds _RENORM_THRESHOLD, so bounded
# (elliptic) products never rescale and their determinant stays well
# conditioned.  A step multiplies the norm by at most |z - v| + 1, so
# between two checks the squared norm stays below 1e50 (|z - v| + 1)^32,
# which is finite while |z - v| + 1 <= REACH.
_RENORM_EVERY = 16
_RENORM_THRESHOLD = 1e50
REACH = 1e8


class CocycleState:
    """Transfer products that the cocycle kernel carries across calls.

    Each row's unit-scale entries (a, b, c, d) and log-scale logs, the
    steps taken, and best, the running maximum of log ||A_k|| when kept.
    A fresh state is the identity until a cocycle_batch call sets it up.
    """

    def __init__(self):
        self.entries = self.logs = self.best = None
        self.steps = 0

    def start(self, rows, dtype, swap=False):
        """Set up the identity, or the swap matrix [[0, 1], [1, 0]]."""
        m = np.zeros((4, rows), dtype=dtype)
        m[[1, 2] if swap else [0, 3]] = 1.0
        self.entries = tuple(m)
        self.logs = np.zeros(rows)


def _frobenius2(a, b, c, d):
    return np.abs(a) ** 2 + np.abs(b) ** 2 + np.abs(c) ** 2 + np.abs(d) ** 2


def _log_sigma(q, logs):
    """log sigma_max of the full products, from the squared Frobenius norms
    q of the carried ones.  Every step has determinant 1, so 2 |det| is
    dd = 2 exp(-2 logs), and sigma_max = (sqrt(q + dd) + sqrt(q - dd)) / 2:
    nothing is squared, so it is finite wherever q is, and it grows with q.
    """
    dd = 2.0 * np.exp(-2.0 * logs)
    sigma = 0.5 * (np.sqrt(q + dd) + np.sqrt(np.maximum(q - dd, 0.0)))
    return np.log(sigma) + logs


def _cocycle(v, z, state, keep_max=False):
    """The one transfer recurrence: advance state by the columns of v.

    v: (rows, n) float64 potential samples, or (1, n) shared by every row;
    z: the energy, a scalar or one per row, real or complex, with
    |z - v| + 1 <= REACH.  Row r's product M becomes A_n ... A_1 M,
    A_k = [[z - v[r, k], -1], [1, 0]].  The steps run in groups that end on
    the norm checks at the global steps 16, 32, ..., so splitting the
    columns over several calls gives the same bits as one.  keep_max: keep
    in state.best the running maximum over k of log ||A_k ... A_1 M|| too.
    logs is fixed within a group, so a step keeps only the peak q, and a
    group takes one log.
    """
    n = v.shape[1]
    a, b, c, d = state.entries
    logs = state.logs
    if keep_max and state.best is None:
        state.best = np.full(logs.shape, -np.inf)
    k = 0
    while k < n:
        m = min(n - k, _RENORM_EVERY - state.steps % _RENORM_EVERY)
        if keep_max:                        # r is below the first q
            peak = r = np.abs(a) ** 2 + np.abs(b) ** 2
        # the steps' t = z - v, one contiguous row per step
        for t in np.subtract(z, v[:, k:k + m].T, order="C"):
            a, b, c, d = t * a - c, t * b - d, a, b
            if keep_max:
                # q = |a|^2 + |b|^2 + |c|^2 + |d|^2, and (c, d) was (a, b)
                r, prev = np.abs(a) ** 2 + np.abs(b) ** 2, r
                peak = np.maximum(peak, r + prev)
        if keep_max:
            np.maximum(state.best, _log_sigma(peak, logs), out=state.best)
        k += m
        state.steps += m
        if state.steps % _RENORM_EVERY == 0:
            q = _frobenius2(a, b, c, d)
            s = np.where(q > _RENORM_THRESHOLD, np.sqrt(q), 1.0)
            a, b, c, d = a / s, b / s, c / s, d / s
            logs += np.log(s)
    state.entries = (a, b, c, d)


def cocycle_batch(v, e, eta=0.0, state=None):
    """Final log spectral norm and determinant drift of transfer products.

    v: (P, n) potential samples, one row per product (a phase orbit at
    one energy).  e, eta: the energy z = e + i eta, a scalar or one per row.
    The product is A_n = A(theta_{n-1}) ... A(theta_0) with
    A = [[z-v, -1],[1, 0]].
    state: a CocycleState to continue; the n columns of v then extend the
    product it carries, and it is advanced in place (see _cocycle).
    Returns (lognorm, detlog_err) of shape (P,) for the product so far:
    detlog_err is log|det| + 2*logscale, zero for an exact unimodular
    product.
    """
    v = np.atleast_2d(np.asarray(v, dtype=np.float64))
    z = e + 1j * eta if np.any(eta != 0.0) else e
    if state is None:
        state = CocycleState()
    if state.entries is None:
        state.start(v.shape[0], np.result_type(z, v))
    _cocycle(v, z, state)
    a, b, c, d = state.entries
    q = _frobenius2(a, b, c, d)
    det = np.abs(a * d - b * c)
    with np.errstate(divide="ignore"):
        detlog = np.where(det > 0.0, np.log(det), -np.inf) + 2.0 * state.logs
    return _log_sigma(q, state.logs), detlog


def cocycle_lognorms_all(v, e, eta, inverse=False):
    """max over 1 <= k <= n of log ||A_1 ... A_k|| at every energy.

    v: (n,) potential samples, n >= 1; e: (E,) energies at z = e + i eta.
    inverse: products of A^{-1} = [[0, 1],[-1, z-v]] in the given order.
    As S A^{-1} S = A for S = [[0, 1], [1, 0]], the inverse product is
    S (A_k ... A_1) S, which the forward recurrence from S carries with its
    rows swapped: the same norm.  Returns the (E,) running maxima.
    """
    e = np.asarray(e, dtype=np.float64)
    z = e + 1j * eta if eta != 0.0 else e
    state = CocycleState()
    state.start(e.shape[0], z.dtype, swap=inverse)
    _cocycle(np.asarray(v, dtype=np.float64)[None, :], z, state,
             keep_max=True)
    return state.best


# ---------------------------------------------------------------------------
# Chebyshev propagation
# ---------------------------------------------------------------------------

_WINDOW_TERMS = 32


def cheb_apply(diag_scaled, off_scaled, coeffs, psi):
    """Sum_k coeffs[k] * T_k(Hs) psi for the scaled tridiagonal operator Hs.

    diag_scaled: (M,) float64 diagonal of Hs; off_scaled: its off-diagonal
    coupling, a float; coeffs: (K,) complex128; psi: (M,) complex128.
    Returns (M,).  The three-term recurrence T_k = 2 Hs T_{k-1} - T_{k-2}
    runs in buffers allocated once per call, on a window that grows with
    the terms: Hs couples neighbours only, so T_k psi is exactly +0 more
    than k sites outside the sites of psi with a nonzero bit.  Each chunk
    of _WINDOW_TERMS terms runs on those sites widened by the chunk's last
    k, clipped to the array, so a window edge inside the array is a site
    whose neighbours all hold +0 there, and once the window covers the
    array the recurrence is the plain one.  A site outside the window
    would only add c_k * 0 to its sum, a signed zero: a site that enters
    the window, and at the end every site that never did, adds the running
    sum of those zeros instead.  So the result equals the whole-array
    recurrence bit for bit, signed zeros included, for every input.
    """
    coeffs = np.asarray(coeffs, dtype=np.complex128)
    t0 = np.array(psi, dtype=np.complex128)
    acc = coeffs[0] * t0
    count = coeffs.shape[0]
    if count == 1:
        return acc
    size = t0.shape[0]
    diag = np.asarray(diag_scaled, dtype=np.complex128)
    # t0 holds psi and t1 zeros off each window; y, nb and term are
    # written before they are read
    t1 = np.zeros_like(t0)
    y, nb, term = (np.empty_like(t0) for _ in range(3))
    bits = np.flatnonzero(t0.view(np.uint64)) // 2
    lo, hi = (bits[0], bits[-1] + 1) if bits.size else (0, 0)
    # skipped[k - 1]: the sum of c_1 * 0, ..., c_k * 0
    skipped = np.add.accumulate(coeffs[1:] * np.zeros(1, np.complex128))
    done_lo = done_hi = lo          # the window so far
    k = 1
    while k < count:
        stop = min(k + _WINDOW_TERMS, count)
        a, b = max(lo - stop, 0), min(hi + stop, size)
        if a == 0 and b == size:
            stop = count
        if k > 1:
            acc[a:done_lo] += skipped[k - 2]
            acc[done_hi:b] += skipped[k - 2]
        done_lo, done_hi = a, b
        dv, x0, x1, yv, nbv, tv, av = (
            arr[a:b] for arr in (diag, t0, t1, y, nb, term, acc))
        y_lo, y_hi, nb_lo, nb_hi = yv[:-1], yv[1:], nbv[:-1], nbv[1:]

        def hs(x):
            # yv = Hs x on the window
            np.multiply(dv, x, out=yv)
            np.multiply(off_scaled, x, out=nbv)
            np.add(y_lo, nb_hi, out=y_lo)
            np.add(y_hi, nb_lo, out=y_hi)

        if k == 1:
            hs(x0)
            np.copyto(x1, yv)
            np.multiply(coeffs[1], x1, out=tv)
            av += tv
            k = 2
        # x0 is overwritten by T_k while x1 holds T_{k-1}; then they swap
        for c in coeffs[k:stop]:
            hs(x1)
            yv *= 2.0
            np.subtract(yv, x0, out=x0)
            np.multiply(c, x0, out=tv)
            av += tv
            x0, x1 = x1, x0
            t0, t1 = t1, t0
        k = stop
    acc[:done_lo] += skipped[-1]
    acc[done_hi:] += skipped[-1]
    return acc
