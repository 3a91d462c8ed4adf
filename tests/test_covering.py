"""Covering times: short circuits, monotonicity, exponent fits, and the
window method against plain backward iteration of every grid point."""

import math

import numpy as np
import pytest

import qdlab.covering as cov
from qdlab.arithmetic import continued_fraction, parse_frequency
from qdlab.torus import (Shift, SkewShift, TorusPoint, inverse_step_array,
                         orbit, skew_closed_form)

GOLDEN = float(parse_frequency("golden"))
SHIFT1 = Shift(TorusPoint((GOLDEN,)))
SHIFT2 = Shift(TorusPoint((float(parse_frequency("sqrt2m1")),
                           float(parse_frequency("sqrt3m1")))))
SHIFT3 = Shift(TorusPoint((GOLDEN, float(parse_frequency("sqrt2m1")),
                           float(parse_frequency("sqrt3m1")))))
SKEW2 = SkewShift(GOLDEN, 2)
SKEW3 = SkewShift(GOLDEN, 3)
BELOW_ONE = float(np.nextafter(1.0, 0.0))


def _reference_covering(map_spec, r, c, mmax):
    """Every live grid point pushed back one step at a time (the method the
    window search replaced); returns (m_cover, grid, certified, uncovered)
    and the live count after each step."""
    d = map_spec.d
    center = np.asarray(c, dtype=np.float64)
    grid = 1
    while 1.0 / grid > r / 4.0 and grid < cov.GRID_CAP:
        grid *= 2
    certified = 1.0 / grid <= r / 4.0
    axes = [np.arange(grid) / grid] * d
    mesh = np.meshgrid(*axes, indexing="ij")
    active = np.stack([m.ravel() for m in mesh], axis=1)
    test_r2 = (0.75 * r) ** 2
    m_cover = 1
    live = []
    for n in range(mmax):
        if n:
            active = inverse_step_array(map_spec, active)
        inside = cov._torus_dist2(active, center) <= test_r2
        if np.any(inside):
            active = active[~inside]
            m_cover = n + 1
        live.append(active.shape[0])
        if not live[-1]:
            break
    if live[-1]:
        return (None, grid, certified, live[-1]), live
    return (m_cover, grid, certified, 0), live


def _oracle_cases():
    rng = np.random.default_rng(20261018)

    def point(d):
        return tuple(float(x) for x in rng.random(d))

    cases = []
    # d = 1: grids 16 up to the cap (r = 0.0005 is capped, uncertified)
    for r in (0.45, 0.2, 0.1, 0.05, 0.03, 0.015, 0.007, 0.003, 0.0015,
              0.0005):
        cases.append((SHIFT1, r, point(1), 100000))
    cases += [(SHIFT1, 0.05, (0.0,), 100000),
              (SHIFT1, 0.02, (BELOW_ONE,), 100000),
              (Shift(TorusPoint((float(parse_frequency("sqrt2m1")),))),
               0.01, point(1), 100000)]
    # d = 2 and 3, from grid 8 down
    for map_spec, radii in ((SHIFT2, (0.6, 0.3, 0.15, 0.1)),
                            (SKEW2, (0.6, 0.3, 0.15, 0.1)),
                            (SHIFT3, (0.8, 0.5, 0.3)),
                            (SKEW3, (0.8, 0.5, 0.3))):
        for r in radii:
            cases.append((map_spec, r, point(map_spec.d), 100000))
    for map_spec in (SHIFT2, SKEW2, SKEW3):
        cases += [(map_spec, 0.2, (0.0,) * map_spec.d, 100000),
                  (map_spec, 0.2, (BELOW_ONE,) * map_spec.d, 100000)]
    # step budgets that run out, in the window phase and in the tail
    cases += [(SHIFT1, 0.01, point(1), 1), (SHIFT1, 0.01, point(1), 3),
              (SHIFT1, 0.01, point(1), 40), (SHIFT2, 0.1, point(2), 5),
              (SHIFT2, 0.1, point(2), 300), (SKEW2, 0.1, point(2), 50),
              (SKEW2, 0.15, point(2), 100), (SKEW3, 0.3, point(3), 7)]
    return cases


ORACLE_CASES = _oracle_cases()


@pytest.mark.parametrize(
    "case", ORACLE_CASES,
    ids=[f"{type(m).__name__}{m.d}-r{r}-mmax{mmax}-{i}"
         for i, (m, r, _, mmax) in enumerate(ORACLE_CASES)])
def test_window_search_matches_backward_iteration(case):
    res = cov.covering_time(*case)
    got = (res.m_cover, res.grid, res.certified, res.uncovered)
    assert got == _reference_covering(*case)[0]


@pytest.mark.parametrize("map_spec, r, c, step", [
    (SHIFT1, 0.05, (0.0,), 13),
    (SKEW2, 0.15, (0.3, 0.6), 64),
])
def test_switch_to_survivors_at_exactly_one_window(monkeypatch, map_spec, r,
                                                   c, step):
    # with one step per block every step ends a block; after `step` the
    # survivors number exactly one window, so the tail takes over there
    want, live = _reference_covering(map_spec, r, c, 100000)
    grid = want[1]
    width = min(2 * math.ceil(0.75 * r * grid) + 3, grid)
    assert live[step] == width ** map_spec.d
    monkeypatch.setattr(cov, "_BLOCK_ROWS", 1)
    res = cov.covering_time(map_spec, r, c, 100000)
    assert (res.m_cover, res.grid, res.certified, res.uncovered) == want


@pytest.mark.parametrize("map_spec", [SHIFT1, SHIFT3, SKEW2, SKEW3])
def test_inverse_steps_are_exact_on_the_lattice(map_spec):
    # the window search relies on inverse_step_array reproducing the exact
    # closed-form backward images: n inverse steps followed by n forward
    # steps of the exact map return every lattice start point bit for bit
    rng = np.random.default_rng(7)
    d = map_spec.d
    start = np.vstack([np.zeros(d), np.full(d, BELOW_ONE),
                       rng.integers(0, 64, (4, d)) / 64,
                       rng.integers(0, 1 << 53, (4, d)) / float(1 << 53)])
    checks = {1, 2, 37, 1000, 10000}
    pts = start
    for n in range(1, max(checks) + 1):
        pts = inverse_step_array(map_spec, pts)
        if n not in checks:
            continue
        for back, want in zip(pts, start):
            p = TorusPoint(tuple(back))
            assert p.coords == tuple(back)
            if isinstance(map_spec, Shift):
                fwd = orbit(map_spec, p, n + 1).points[-1]
            else:
                fwd = skew_closed_form(map_spec.alpha, p, n).coords
            assert tuple(fwd) == tuple(want)


@pytest.mark.parametrize("map_spec, r, c", [
    (SHIFT1, 0.05, (0.3,)),
    (SHIFT2, 0.1, (0.3, 0.8)),
    (SKEW2, 0.15, (0.6, 0.05)),
])
def test_center_is_taken_mod_one(map_spec, r, c):
    want = cov.covering_time(map_spec, r, c, 100000)
    assert want.covered
    for k in (-3, 2, 5):
        res = cov.covering_time(map_spec, r, tuple(x + k for x in c), 100000)
        assert res == want


def test_large_radius_short_circuit():
    for map_spec, r in ((SHIFT1, 0.5), (SHIFT1, 0.9),
                        (SHIFT2, np.sqrt(2) / 2), (SkewShift(GOLDEN, 2), 0.8)):
        res = cov.covering_time(map_spec, r, (0.0,) * map_spec.d, 10)
        assert res.m_cover == 1
        assert res.certified


def test_covering_time_monotone_in_radius():
    prev = 0
    for r in (0.2, 0.1, 0.05, 0.02):
        res = cov.covering_time(SHIFT1, r, (0.0,), 10000)
        assert res.covered and res.certified
        assert res.m_cover >= prev
        prev = res.m_cover


def test_rotation_covering_tracks_denominators():
    # three-distance: M_cover(r) for the golden rotation is within a small
    # factor of the first denominator q with ||q alpha|| < r
    qs = continued_fraction("golden", 20).denominators
    for r in (0.1, 0.04, 0.01):
        res = cov.covering_time(SHIFT1, r, (0.3,), 100000)
        q_star = next(q for q, err in
                      [(m, abs(m * GOLDEN - round(m * GOLDEN))) for m in qs]
                      if err < r)
        assert res.m_cover <= 4 * q_star + 4
        assert res.m_cover >= q_star / 4


def test_skew_covering_is_finite_and_certified():
    res = cov.covering_time(SkewShift(GOLDEN, 2), 0.15, (0.0, 0.0), 100000)
    assert res.covered
    assert res.certified
    assert res.m_cover >= 2


def test_uncovered_budget_reported():
    res = cov.covering_time(SHIFT1, 0.01, (0.0,), 3)
    assert not res.covered
    assert res.uncovered > 0
    with pytest.raises(cov.NotCoveredError):
        cov.covering_exponent_fit(SHIFT1, (0.0,), [0.1, 0.05, 0.02, 0.009], 3)


def test_exponent_fit_validation():
    with pytest.raises(ValueError):
        cov.covering_exponent_fit(SHIFT1, (0.0,), [0.1, 0.05, 0.02], 100)
    with pytest.raises(ValueError):
        cov.covering_exponent_fit(SHIFT1, (0.0,), [0.1, 0.2, 0.05, 0.01], 100)
    with pytest.raises(ValueError):
        cov.covering_exponent_fit(SHIFT1, (0.0,), [0.1, 0.08, 0.06, 0.04],
                                  100)


def test_exponent_fit_golden_rotation_near_one():
    slope, results = cov.covering_exponent_fit(
        SHIFT1, (0.0,), [0.1, 0.05, 0.025, 0.01], 100000)
    assert 0.7 <= slope <= 1.3
    assert all(res.certified for res in results)


def test_input_validation():
    with pytest.raises(ValueError):
        cov.covering_time(SHIFT1, -0.1, (0.0,), 10)
    with pytest.raises(ValueError):
        cov.covering_time(SHIFT1, 0.1, (0.0, 0.0), 10)
    for r in (0.0, float("nan")):
        with pytest.raises(ValueError, match="r > 0"):
            cov.covering_time(SHIFT1, r, (0.0,), 10)
    for mmax in (0, 2.5, 3.0, True):
        with pytest.raises(ValueError, match="mmax"):
            cov.covering_time(SHIFT1, 0.1, (0.0,), mmax)
    for c in ((float("nan"),), (float("inf"),)):
        with pytest.raises(ValueError, match="finite"):
            cov.covering_time(SHIFT1, 0.1, c, 10)

