"""Discrepancy scans against brute-force oracles, ETK / VdC, rate fits."""

import functools
import math
import sys
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import qdlab.equidistribution as eq
from qdlab import _fallback as fb
from qdlab.arithmetic import parse_frequency
from qdlab.torus import PointSet, SkewShift, TorusPoint, orbit, \
    skew_closed_form

GOLDEN = parse_frequency("golden")
PAIR = [parse_frequency("sqrt2m1"), parse_frequency("sqrt3m1")]


# ---------------------------------------------------------------------------
# brute-force discrepancy oracles
# ---------------------------------------------------------------------------

def brute_discrepancy_1d(xs):
    """Sup over intervals [a,b) from critical endpoints, O(n^2)."""
    n = xs.shape[0]
    cuts = np.concatenate(([0.0], np.sort(xs), [1.0]))
    best = 0.0
    for i, a in enumerate(cuts):
        for b in cuts[i:]:
            length = b - a
            # overfilled: include both endpoints; underfilled: exclude both
            over = np.count_nonzero((xs >= a) & (xs <= b)) / n - length
            under = length - np.count_nonzero((xs > a) & (xs < b)) / n
            best = max(best, over, under)
    return best


def brute_discrepancy_2d(pts):
    """Critical-box scan with inclusive/exclusive corners, O(n^4 n log n)."""
    n = pts.shape[0]
    xcuts = np.concatenate(([0.0], np.unique(pts[:, 0]), [1.0]))
    ycuts = np.concatenate(([0.0], np.unique(pts[:, 1]), [1.0]))
    best = 0.0
    for i, x0 in enumerate(xcuts):
        for x1 in xcuts[i:]:
            for j, y0 in enumerate(ycuts):
                for y1 in ycuts[j:]:
                    area = (x1 - x0) * (y1 - y0)
                    over = np.count_nonzero(
                        (pts[:, 0] >= x0) & (pts[:, 0] <= x1)
                        & (pts[:, 1] >= y0) & (pts[:, 1] <= y1)) / n - area
                    under = area - np.count_nonzero(
                        (pts[:, 0] > x0) & (pts[:, 0] < x1)
                        & (pts[:, 1] > y0) & (pts[:, 1] < y1)) / n
                    best = max(best, over, under)
    return best


def test_exact_1d_matches_brute_force():
    rng = np.random.default_rng(17)
    for n in (1, 2, 7, 40, 120):
        xs = rng.random(n)
        rep = eq.discrepancy_box(PointSet(xs[:, None]))
        assert rep.method == "exact"
        assert rep.d_n == pytest.approx(brute_discrepancy_1d(xs), abs=1e-12)


def test_exact_2d_matches_brute_force():
    rng = np.random.default_rng(23)
    sets = [rng.random((n, 2)) for n in (2, 5, 12, 25)]
    # tied x and tied y: dyadic-lattice points, repeated points, and
    # points at 0, whose y-cut coincides with the sentinel cut at 0
    rng = np.random.default_rng(37)
    for n in (1, 3, 17, 40):
        sets.append(rng.integers(0, 8, size=(n, 2)) / 8.0)
        sets.append(rng.random((5, 2))[rng.integers(0, 5, size=n)])
        at_zero = rng.integers(0, 4, size=(n, 2)) / 4.0
        at_zero[::3, 0] = 0.0
        at_zero[::2, 1] = 0.0
        sets.append(at_zero)
    sets.append(np.zeros((6, 2)))
    for pts in sets:
        rep = eq.discrepancy_box(PointSet(pts))
        assert rep.method == "exact"
        assert rep.d_n == pytest.approx(brute_discrepancy_2d(pts), abs=1e-12)


def test_grid_2d_brackets_the_exact_value():
    rng = np.random.default_rng(29)
    pts = rng.random((300, 2))
    exact = eq.discrepancy_box(PointSet(pts)).d_n
    g = 64
    counts = np.zeros((g, g), dtype=np.int64)
    ix = np.minimum((pts[:, 0] * g).astype(np.int64), g - 1)
    iy = np.minimum((pts[:, 1] * g).astype(np.int64), g - 1)
    np.add.at(counts, (ix, iy), 1)
    rep = eq.discrepancy_from_grid_counts(counts, 300)
    assert rep.d_n <= exact + 1e-12
    assert exact <= rep.d_n + 4.0 / g + 1e-12


def brute_grid_discrepancy_2d(counts, n):
    """max |count/N - area| over every grid box [i1,i2) x [j1,j2)."""
    g = counts.shape[0]
    best = 0.0
    for i1 in range(g):
        for i2 in range(i1 + 1, g + 1):
            for j1 in range(g):
                for j2 in range(j1 + 1, g + 1):
                    area = (i2 - i1) * (j2 - j1) / (g * g)
                    count = counts[i1:i2, j1:j2].sum()
                    best = max(best, abs(count / n - area))
    return best


@pytest.mark.parametrize("g", [1, 2, 8, 16])
def test_grid_2d_matches_brute_force(g):
    rng = np.random.default_rng(41 + g)
    cases = [rng.multinomial(n, np.full(g * g, 1.0 / (g * g))).reshape(g, g)
             for n in (3, 50, 997)]
    one_cell = np.zeros((g, g), dtype=np.int64)
    one_cell[rng.integers(g), rng.integers(g)] = 200
    cases.append(one_cell)
    holes = rng.multinomial(400, np.full(g * g, 1.0 / (g * g))).reshape(g, g)
    holes[rng.integers(g)] = 0
    holes[:, rng.integers(g)] = 0
    cases.append(holes)
    single = np.zeros((g, g), dtype=np.int64)
    single[g - 1, 0] = 1
    cases.append(single)
    for counts in cases:
        n = max(int(counts.sum()), 1)
        rep = eq.discrepancy_from_grid_counts(counts, n)
        assert rep.method == f"grid({g})"
        assert rep.d_n == pytest.approx(brute_grid_discrepancy_2d(counts, n),
                                        abs=1e-12)


# ---------------------------------------------------------------------------
# blocked scans against one pass over the whole input
# ---------------------------------------------------------------------------

def unblocked_exact_discrepancy_1d(xs_sorted):
    """The 1-d scan as one pass over full-length arrays."""
    x = np.asarray(xs_sorted, dtype=np.float64)
    n = x.shape[0]
    fn = float(n)
    idx = np.arange(n, dtype=np.float64)
    a = x - idx / fn
    prem = np.maximum.accumulate(a)
    dplus = np.max((idx + 1.0) / fn - x + prem)
    xs = np.concatenate(([0.0], x, [1.0]))
    ids = np.arange(n + 2, dtype=np.float64)
    b = ids / fn - xs
    premb = np.empty(n + 2, dtype=np.float64)
    premb[0] = -np.inf
    np.maximum.accumulate(b[:-1], out=premb[1:])
    dminus = np.max(xs - (ids - 1.0) / fn + premb)
    return float(max(dplus, dminus, 0.0))


def unblocked_grid_discrepancy_2d(counts, n_points):
    """The grid scan with every band width of a lower cut in one buffer."""
    counts = np.asarray(counts, dtype=np.float64)
    g = counts.shape[0]
    fn = float(n_points)
    p = np.zeros((g + 1, g + 1), dtype=np.float64)
    np.cumsum(counts, axis=0, out=p[1:, 1:])
    np.cumsum(p[1:, 1:], axis=1, out=p[1:, 1:])
    jgrid = np.arange(g + 1, dtype=np.float64) / g
    area = (np.arange(1, g + 1, dtype=np.float64) / g)[:, None] * jgrid
    h = np.empty((g, g + 1), dtype=np.float64)
    best = 0.0
    for i1 in range(g):
        rows = g - i1
        hb = h[:rows]
        np.subtract(p[i1 + 1:], p[i1], out=hb)
        np.divide(hb, fn, out=hb)
        np.subtract(hb, area[:rows], out=hb)
        best = max(best, np.max(hb.max(axis=1) - hb.min(axis=1)))
    return float(best)


def _samples_1d(n, rng):
    """Sorted samples of size n: random, with duplicates, with a point at
    0.0, and equispaced."""
    dup = rng.random(max(1, n // 3))[rng.integers(0, max(1, n // 3), n)]
    at_zero = rng.random(n)
    at_zero[0] = 0.0
    return [np.sort(rng.random(n)), np.sort(dup), np.sort(at_zero),
            (np.arange(n) + 0.5) / n]


@pytest.mark.parametrize("block", [7, fb._SCAN_POINTS])
def test_exact_1d_blocks_split_exactly(monkeypatch, block):
    rng = np.random.default_rng(43 + block)
    monkeypatch.setattr(fb, "_SCAN_POINTS", block)
    for n in (1, 2, block - 1, block, block + 1, 2 * block + 1):
        for xs in _samples_1d(n, rng):
            got = fb.exact_discrepancy_1d(xs)
            assert got == unblocked_exact_discrepancy_1d(xs)
            if n < 100:
                assert got == pytest.approx(brute_discrepancy_1d(xs),
                                            abs=1e-12)


@pytest.mark.parametrize("block", [5, fb._BAND_ROWS])
def test_grid_2d_blocks_split_exactly(monkeypatch, block):
    rng = np.random.default_rng(47 + block)
    monkeypatch.setattr(fb, "_BAND_ROWS", block)
    for g in (1, block - 1, block, block + 1, 2 * block + 3):
        cells = g * g
        cases = [rng.multinomial(n, np.full(cells, 1.0 / cells))
                 .reshape(g, g) for n in (3, 997)]
        skewed = np.zeros((g, g), dtype=np.int64)
        skewed[: (g + 1) // 2, :] = rng.integers(0, 4, ((g + 1) // 2, g))
        cases.append(skewed)
        for counts in cases:
            n = max(int(counts.sum()), 1)
            got = fb.grid_discrepancy_2d(counts, n)
            assert got == unblocked_grid_discrepancy_2d(counts, n)
            if g <= 13:
                assert got == pytest.approx(
                    brute_grid_discrepancy_2d(counts, n), abs=1e-12)


# ---------------------------------------------------------------------------
# scans split over worker threads against one serial loop
# ---------------------------------------------------------------------------

@functools.lru_cache(maxsize=None)
def _split_cases(g):
    """Count arrays on a G-grid, with the unblocked scan's float.hex."""
    rng = np.random.default_rng(61 + g)
    cells = g * g
    cases = [rng.multinomial(n, np.full(cells, 1.0 / cells)).reshape(g, g)
             for n in (3, 1001)]
    # all mass in the last row of cuts: the sup sits in one part only
    last = np.zeros((g, g), dtype=np.int64)
    last[-1, :] = rng.integers(0, 5, g)
    last[-1, 0] += 1
    cases.append(last)
    for n in (1000, 8192, 100000):
        cases.append(eq.orbit_grid_counts("shift", PAIR, (0.0, 0.0), n, g))
        cases.append(eq.orbit_grid_counts("skew", GOLDEN, (0.0, 0.0), n, g))
    return [(counts, int(counts.sum()),
             unblocked_grid_discrepancy_2d(counts, int(counts.sum())).hex())
            for counts in cases]


@pytest.mark.parametrize("workers", [1, 2, 3, 5])
def test_grid_2d_split_matches_serial_scan(monkeypatch, workers):
    monkeypatch.setattr(fb, "_WORKERS", workers)
    # G below the part count and the column blocks, G not a multiple of
    # them, and G past one block of rows; pair and skew orbits of
    # N = 1e3, 8192 and 1e5
    for g in (1, 2, 3, 4, 7, 31, 64, 100, 129, 256):
        for counts, n, want in _split_cases(g):
            assert fb.grid_discrepancy_2d(counts, n).hex() == want


def test_grid_2d_parts_share_no_buffer(monkeypatch):
    # more parts than cores, switching threads every microsecond: a block
    # buffer shared between parts would mix their bands
    monkeypatch.setattr(fb, "_WORKERS", 5)
    rng = np.random.default_rng(79)
    g = 97
    counts = rng.multinomial(4000, np.full(g * g, 1.0 / (g * g)))
    counts = counts.reshape(g, g)
    want = unblocked_grid_discrepancy_2d(counts, 4000)
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        for _ in range(3):
            assert fb.grid_discrepancy_2d(counts, 4000) == want
    finally:
        sys.setswitchinterval(interval)


# ---------------------------------------------------------------------------
# band bounds of the grid scan
# ---------------------------------------------------------------------------

def _band_bound_cases(g, rng):
    """Counts that stress the band bounds on a G-grid: random, orbit,
    uniform (D tiny, ties everywhere), one cell, holes, all mass in the
    last row."""
    cells = g * g
    cases = [rng.multinomial(n, np.full(cells, 1.0 / cells)).reshape(g, g)
             for n in (5, 997)]
    cases.append(eq.orbit_grid_counts("shift", PAIR, (0.0, 0.0), 8192, g))
    cases.append(eq.orbit_grid_counts("skew", GOLDEN, (0.3, 0.6), 8192, g))
    cases.append(np.full((g, g), 3, dtype=np.int64))
    one = np.zeros((g, g), dtype=np.int64)
    one[rng.integers(g), rng.integers(g)] = 50
    cases.append(one)
    holes = rng.multinomial(400, np.full(cells, 1.0 / cells)).reshape(g, g)
    holes[rng.integers(g)] = 0
    holes[:, rng.integers(g)] = 0
    cases.append(holes)
    last = np.zeros((g, g), dtype=np.int64)
    last[-1] = rng.integers(0, 4, g)
    last[-1, -1] += 1
    cases.append(last)
    # at G = 1 the holes leave no point: N = 1 then, as elsewhere
    return [(c, max(int(c.sum()), 1)) for c in cases]


def _deviation_bounds(e, width, i1):
    """The bound of every band [i1, i2) from the block extrema of e, formed
    column block by column block."""
    g = e.shape[1] - 1
    edges = list(range(0, g, width)) + [g]
    top = np.stack([e[:, a:b + 1].max(axis=1)
                    for a, b in zip(edges, edges[1:])], axis=1)
    low = np.stack([e[:, a:b + 1].min(axis=1)
                    for a, b in zip(edges, edges[1:])], axis=1)
    return ((top[i1 + 1:] - low[i1]).max(axis=1)
            - (low[i1 + 1:] - top[i1]).min(axis=1))


@pytest.mark.parametrize("g", [1, 3, 4, 16, 37, 64])
def test_band_bounds_hold_every_float_range(g):
    # G = 1 and G below a block, G a multiple of both widths, and G not
    # a multiple of either.  The rounding stays 50 times below the margin
    # the scan adds
    assert 2e-15 * 50 <= fb._BOUND_MARGIN
    rng = np.random.default_rng(83 + g)
    for counts, n in _band_bound_cases(g, rng):
        fn = float(n)
        p = np.zeros((g + 1, g + 1))
        np.cumsum(counts, axis=0, out=p[1:, 1:])
        np.cumsum(p[1:, 1:], axis=1, out=p[1:, 1:])
        e = (p.astype(np.int64) * g * g
             - np.multiply.outer(np.arange(g + 1) * n, np.arange(g + 1)))
        scale = fn * g * g
        mass = max(1.0, p[g, g] / fn)
        area = (np.arange(1, g + 1) / g)[:, None] * (np.arange(g + 1) / g)
        for width in (fb._COARSE_COLS, fb._FINE_COLS, 1, 2, 5):
            tables = fb._deviation_extrema(p, n, width)
            work = np.empty(2 * g * tables[0].shape[1], dtype=np.int64)
            up, lo = np.empty(g, dtype=np.int64), np.empty(g, dtype=np.int64)
            for i1 in range(g):
                h = (p[i1 + 1:] - p[i1]) / fn - area[:g - i1]
                spread = h.max(axis=1) - h.min(axis=1)
                bound = _deviation_bounds(e, width, i1)
                assert np.all(spread <= bound / scale + 2e-15 * mass)
                cut = fb._cut_bounds(*tables, i1, work, up, lo)
                assert np.array_equal(cut, bound)
                lower = np.full(g - i1, i1)
                upper = np.arange(i1 + 1, g + 1)
                assert np.array_equal(
                    fb._pair_bounds(*tables, lower, upper, work, up, lo),
                    bound)


def test_grid_2d_rejects_counts_past_int64():
    # e = P G^2 - i j N and the bounds must stay inside int64
    counts = np.array([[1 << 59, 0], [0, 0]], dtype=np.int64)
    with pytest.raises(ValueError, match="int64"):
        fb.grid_discrepancy_2d(counts, 1 << 59)
    counts[0, 0] = 1 << 57
    assert fb.grid_discrepancy_2d(counts, 1 << 57) == \
        unblocked_grid_discrepancy_2d(counts, 1 << 57)


@pytest.mark.parametrize("workers", [1, 2])
def test_grid_2d_scans_few_bands(monkeypatch, workers):
    # the pair orbit at the benchmark's grid-scale N: the bounds rule out
    # more than 80 % of the bands before any is formed
    monkeypatch.setattr(fb, "_WORKERS", workers)
    g, n = 256, 8192
    counts = eq.orbit_grid_counts("shift", PAIR, (0.0, 0.0), n, g)
    formed = []
    band_sups = fb._band_sups

    def counted(p, lower, upper, *args):
        formed.append(lower.shape[0])
        return band_sups(p, lower, upper, *args)

    monkeypatch.setattr(fb, "_band_sups", counted)
    got = fb.grid_discrepancy_2d(counts, n)
    assert got == unblocked_grid_discrepancy_2d(counts, n)
    assert 0 < sum(formed) < 0.2 * g * (g + 1) // 2
    assert max(formed) <= fb._BAND_ROWS


def test_one_cpu_starts_no_thread(monkeypatch):
    def no_thread(*args, **kwargs):
        raise AssertionError("a thread was started")

    monkeypatch.setattr(fb, "_WORKERS", 1)
    monkeypatch.setattr(fb.threading, "Thread", no_thread)
    pts = np.random.default_rng(71).random((40, 2))
    counts = eq._cell_counts(pts, 16)
    assert fb.grid_discrepancy_2d(counts, 40) == \
        unblocked_grid_discrepancy_2d(counts, 40)


def test_parts_interleave_and_keep_their_order(monkeypatch):
    monkeypatch.setattr(fb, "_WORKERS", 3)
    assert fb._in_parts(list, 8) == [[0, 3, 6], [1, 4, 7], [2, 5]]
    assert fb._in_parts(list, 2) == [[0], [1]]
    assert fb._in_parts(list, 0) == [[]]


def test_worker_exceptions_and_warnings_reach_the_caller(monkeypatch):
    monkeypatch.setattr(fb, "_WORKERS", 3)

    def fails_in_part_one(items):
        if 1 in items:
            raise ValueError("part one")
        return len(items)

    with pytest.raises(ValueError, match="part one"):
        fb._in_parts(fails_in_part_one, 6)

    def divides_in_part_two(items):
        if 2 in items:
            np.divide(np.ones(3), np.zeros(3))
        return len(items)

    # pytest turns a RuntimeWarning into an error, and so does the worker
    with pytest.raises(RuntimeWarning, match="divide by zero"):
        fb._in_parts(divides_in_part_two, 6)
    with pytest.warns(RuntimeWarning, match="divide by zero"):
        assert fb._in_parts(divides_in_part_two, 6) == [2, 2, 2]
    # the workers run under the caller's numpy error state
    with np.errstate(divide="ignore"):
        assert fb._in_parts(divides_in_part_two, 6) == [2, 2, 2]
    with np.errstate(divide="raise"), pytest.raises(FloatingPointError):
        fb._in_parts(divides_in_part_two, 6)


def test_discrepancy_box_leaves_the_point_set_as_it_is():
    xs = np.random.default_rng(73).random(501)
    ps = PointSet(xs[:, None].copy())
    want = fb.exact_discrepancy_1d(np.sort(xs))
    assert eq.discrepancy_box(ps).d_n == want
    assert np.array_equal(ps.points[:, 0], xs)
    # a sorted column is scanned as it is
    ps = PointSet(np.sort(xs)[:, None])
    assert eq.discrepancy_box(ps).d_n == want


def _traced_peak(fn, *args):
    tracemalloc.start()
    try:
        fn(*args)
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def test_scan_work_buffers_stay_within_blocks(monkeypatch):
    # numpy reports its data buffers to tracemalloc, from every thread
    xs = np.sort(np.random.default_rng(53).random(1 << 20))
    peak = _traced_peak(fb.exact_discrepancy_1d, xs)
    assert peak < 12 * fb._SCAN_POINTS * 8 < xs.nbytes // 2
    # the grid scan holds the prefix table, the block extrema of the
    # deviation and one row block of j/G, and each of its W parts one
    # block of h and its lower rows; no third table
    workers = 2
    monkeypatch.setattr(fb, "_WORKERS", workers)
    g = 256
    counts = np.random.default_rng(59).multinomial(
        10 ** 5, np.full(g * g, 1.0 / (g * g))).reshape(g, g) * 1.0
    table = (g + 1) * (g + 1) * 8
    block = min(g, fb._BAND_ROWS) * (g + 1) * 8
    peak = _traced_peak(fb.grid_discrepancy_2d, counts, 10 ** 5)
    assert peak < 2 * table + workers * block + table // 4 < 3 * table


def test_band_blocks_take_no_iterator_buffer():
    # a ufunc that broadcasts a row takes a bufsize buffer (64 KiB) on each
    # call; the band blocks are formed from operands of one shape only
    g, rows = 256, 32
    counts = np.random.default_rng(67).multinomial(
        10 ** 4, np.full(g * g, 1.0 / (g * g))).reshape(g, g)
    p = np.zeros((g + 1, g + 1))
    np.cumsum(counts, axis=0, out=p[1:, 1:])
    np.cumsum(p[1:, 1:], axis=1, out=p[1:, 1:])
    jrep = np.empty((rows, g + 1))
    np.copyto(jrep, np.arange(g + 1) / g)
    h, rest = np.empty((rows, g + 1)), np.empty((rows, g + 1))
    lower = np.repeat([3, 40], rows // 2)
    upper = np.concatenate((np.arange(10, 26), np.arange(100, 116)))
    got = fb._band_sups(p, lower, upper, 1e4, jrep, h, rest)
    j = np.arange(g + 1) / g
    want = max(np.ptp((p[b] - p[a]) / 1e4 - ((b - a) / g) * j)
               for a, b in zip(lower, upper))
    assert got == want
    peak = _traced_peak(fb._band_sups, p, lower, upper, 1e4, jrep, h, rest)
    assert peak < 4096 < 8 * np.getbufsize()
    work = np.empty(2 * g * 16, dtype=np.int64)
    up, lo = np.empty(g, dtype=np.int64), np.empty(g, dtype=np.int64)
    top, low = fb._deviation_extrema(p, 10 ** 4, 16)
    assert _traced_peak(fb._cut_bounds, top, low, 5, work, up, lo) < 4096
    assert _traced_peak(fb._pair_bounds, top, low, lower, upper, work, up,
                        lo) < 4096


def test_d1_orbit_scan_makes_no_sorted_copy():
    # the orbit is sorted where it was generated: one (N, 1) array, not two
    n = 1 << 20
    peak = _traced_peak(eq.orbit_discrepancy, "shift", [GOLDEN], (0.3,), n)
    assert peak < 1.5 * n * 8


def brute_anchored_sup(pts, lattice):
    """max |#{p < c}/N - vol[0, c)| over corners c in lattice^d."""
    n, d = pts.shape
    corners = np.stack(np.meshgrid(*([lattice] * d), indexing="ij"),
                       axis=-1).reshape(-1, d)
    best = 0.0
    for block in np.array_split(corners, max(1, corners.shape[0] // 4096)):
        below = np.all(pts[None, :, :] < block[:, None, :], axis=2)
        dev = np.abs(below.sum(axis=1) / n - np.prod(block, axis=1))
        best = max(best, float(dev.max()))
    return best


def test_grid_anchored_3d_matches_brute_force(monkeypatch):
    # points on the dyadic lattice (k + 0.5)/32 bin exactly into g = 16 cells
    rng = np.random.default_rng(31)
    m, d, n = 32, 3, 200
    pts = (rng.integers(0, m, size=(n, d)) + 0.5) / m
    g = 16
    expected = brute_anchored_sup(pts, np.arange(g + 1) / g)
    direct = eq._grid_discrepancy_nd(pts, g)
    monkeypatch.setattr(eq, "GRID_RESOLUTION", 64)
    routed = eq.discrepancy_box(PointSet(pts))
    for rep in (direct, routed):
        assert rep.method == f"grid-anchored({g})"
        assert rep.error_bound == pytest.approx(2.0 * d / g)
        assert rep.d_n == pytest.approx(expected, abs=1e-12)
    # the finer lattice's corners include the grid's and stay within the bound
    fine = brute_anchored_sup(pts, np.arange(2 * m + 1) / (2 * m))
    assert direct.d_n <= fine + 1e-12
    assert fine <= direct.d_n + direct.error_bound


def test_degenerate_point_sets():
    # a single point at the origin: D_N = 1 (the point is in every box
    # touching 0, and boxes of volume -> 1 avoid it)
    rep = eq.discrepancy_box(PointSet(np.array([[0.0]])))
    assert rep.d_n == pytest.approx(1.0)
    # equispaced points have discrepancy exactly 1/n
    n = 64
    xs = (np.arange(n) + 0.5) / n
    rep = eq.discrepancy_box(PointSet(xs[:, None]))
    assert rep.d_n == pytest.approx(1.0 / n, abs=1e-12)


# ---------------------------------------------------------------------------
# orbit generation
# ---------------------------------------------------------------------------

def test_shift_orbit_matches_reference_iteration():
    fr = [GOLDEN]
    ps = eq.orbit_point_set("shift", fr, (0.0,), 2000)
    from qdlab.torus import Shift
    ref = orbit(Shift(TorusPoint((float(GOLDEN),))), TorusPoint((0.0,)), 2000)
    assert np.max(np.abs(ps.points - ref.points)) < 1e-9


def test_skew_orbit_anchoring_across_chunks():
    # force several chunks and compare against the exact closed form
    n = 3 * eq.ORBIT_CHUNK + 500
    pts = np.empty((n, 2))
    for start, block in eq.orbit_chunks("skew", GOLDEN, (0.0, 0.0), n):
        pts[start:start + block.shape[0]] = block
    y0 = TorusPoint((0.0, 0.0))
    for k in (0, eq.ORBIT_CHUNK - 1, eq.ORBIT_CHUNK, 2 * eq.ORBIT_CHUNK + 7,
              n - 1):
        exact = skew_closed_form(
            "0.618033988749894848204586834365638117720309", y0, k)
        delta = np.abs(pts[k] - np.array(exact.coords))
        delta = np.minimum(delta, 1.0 - delta)
        assert np.max(delta) < 1e-8


def test_orbit_grid_counts_consistent_with_points():
    n, g = 5000, 32
    counts = eq.orbit_grid_counts("shift", PAIR, (0.0, 0.0), n, g)
    assert counts.sum() == n
    pts = eq.orbit_point_set("shift", PAIR, (0.0, 0.0), n).points
    ix = np.minimum((pts[:, 0] * g).astype(np.int64), g - 1)
    iy = np.minimum((pts[:, 1] * g).astype(np.int64), g - 1)
    direct = np.zeros((g, g), dtype=np.int64)
    np.add.at(direct, (ix, iy), 1)
    assert np.array_equal(counts, direct)


@pytest.mark.parametrize("kind, freqs, y0, n, method", [
    ("shift", [GOLDEN], (0.3,), 1000, "exact"),
    ("shift", PAIR, (0.1, 0.7), 512, "exact"),
    ("skew", GOLDEN, (0.1, 0.7), 513, "grid(1024)"),
    ("skew", GOLDEN, (0.1, 0.2, 0.3), 700, "grid-anchored(102)"),
], ids=["d1", "d2-exact-limit", "d2-grid", "d3"])
def test_orbit_discrepancy_matches_explicit_pipeline(kind, freqs, y0, n,
                                                     method):
    got = eq.orbit_discrepancy(kind, freqs, y0, n)
    if method.startswith("grid("):
        counts = eq.orbit_grid_counts(kind, freqs, y0, n, eq.GRID_RESOLUTION)
        want = eq.discrepancy_from_grid_counts(counts, n)
    else:
        want = eq.discrepancy_box(eq.orbit_point_set(kind, freqs, y0, n))
    assert got.method == want.method == method
    assert (got.n, got.d_n, got.error_bound) == \
        (want.n, want.d_n, want.error_bound)


# ---------------------------------------------------------------------------
# inequalities
# ---------------------------------------------------------------------------

def test_etk_bound_dominates_exact_discrepancy():
    ps = eq.orbit_point_set("shift", [GOLDEN], (0.0,), 400)
    d_n = eq.discrepancy_box(ps).d_n
    for h0 in (2, 8, 32):
        assert eq.etk_bound(ps, h0) >= d_n
    skew = orbit(SkewShift(float(GOLDEN), 2), TorusPoint((0.0, 0.0)), 300)
    d2 = eq.discrepancy_box(skew).d_n
    assert eq.etk_bound(skew, 8) >= d2


def test_etk_constant_in_one_dimension():
    # c_1 = 2 * 3/2 = 3: the bound is 3 (1/h0 + 2 sum_h |S_h| / |h|)
    h0 = 4
    ps = eq.orbit_point_set("shift", [GOLDEN], (0.0,), 100)
    x = ps.points[:, 0]
    total = sum(abs(np.exp(2j * math.pi * h * x).mean()) / h
                for h in range(1, h0 + 1))
    assert eq.etk_bound(ps, h0) == pytest.approx(
        3.0 * (1.0 / h0 + 2.0 * total), rel=1e-12)


@given(st.integers(2, 60), st.integers(1, 60), st.integers(0, 2 ** 32 - 1))
@settings(max_examples=100, deadline=None)
def test_vdc_inequality_random_sequences(n, h, seed):
    h = min(h, n)
    rng = np.random.default_rng(seed)
    u = np.exp(2j * math.pi * rng.random(n))
    lhs, rhs = eq.vdc_inequality(u, h)
    assert lhs <= rhs + 1e-9


def test_vdc_constant_sequence_is_tight_at_h_one():
    u = np.ones(50, dtype=np.complex128)
    lhs, rhs = eq.vdc_inequality(u, 1)
    assert lhs == pytest.approx(1.0)
    assert rhs == pytest.approx(1.0)


def test_exponential_sums_closed_form_check():
    # for the golden rotation started at 0, S_N(h) is a geometric sum
    n = 257
    ps = eq.orbit_point_set("shift", [GOLDEN], (0.0,), n)
    hs, sums = eq.exponential_sums(ps, 5)
    alpha = float(GOLDEN)
    for (h,), s in zip(hs, sums):
        z = np.exp(2j * math.pi * h * alpha)
        expect = (z ** n - 1.0) / (z - 1.0) / n
        assert abs(s - expect) < 1e-9


@given(st.lists(st.integers(1, 5), min_size=1, max_size=4))
@settings(max_examples=60, deadline=None)
def test_comb_identity_property(r):
    v1, v2 = eq.comb_identity(len(r), r)
    assert v1 == 0
    assert v2 == math.prod(r)


def test_comb_identity_validation():
    with pytest.raises(ValueError):
        eq.comb_identity(2, [1])
    with pytest.raises(ValueError):
        eq.comb_identity(1, [0])


# ---------------------------------------------------------------------------
# rate fits
# ---------------------------------------------------------------------------

def test_decay_rate_fit_recovers_power_law():
    samples = [(n, 3.0 * n ** -0.75) for n in (100, 400, 1600, 6400, 25600)]
    fit = eq.decay_rate_fit(samples)
    assert fit.slope == pytest.approx(-0.75, abs=1e-12)
    assert fit.delta_hat == pytest.approx(0.75, abs=1e-12)
    assert fit.stderr == pytest.approx(0.0, abs=1e-10)


def test_decay_rate_fit_validation():
    with pytest.raises(ValueError):
        eq.decay_rate_fit([(100, 0.1), (200, 0.05), (400, 0.02),
                           (800, 0.01)])
    with pytest.raises(ValueError):
        eq.decay_rate_fit([(100, 0.1), (110, 0.09), (120, 0.08),
                           (130, 0.07), (140, 0.06)])
