"""Discrepancy scans against brute-force oracles, ETK / VdC, rate fits."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import qdlab.equidistribution as eq
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


def test_etk_constant_override():
    ps = eq.orbit_point_set("shift", [GOLDEN], (0.0,), 100)
    assert eq.etk_bound(ps, 4, c_d=6.0) == pytest.approx(
        2.0 * eq.etk_bound(ps, 4, c_d=3.0))
    assert eq.default_etk_constant(1) == 3.0
    assert eq.default_etk_constant(2) == 4.5


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
