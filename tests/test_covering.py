"""Covering times: short circuits, monotonicity, exponent fits."""

import numpy as np
import pytest

import qdlab.covering as cov
from qdlab.arithmetic import continued_fraction, parse_frequency
from qdlab.torus import Shift, SkewShift, TorusPoint

GOLDEN = float(parse_frequency("golden"))
SHIFT1 = Shift(TorusPoint((GOLDEN,)))
SHIFT2 = Shift(TorusPoint((float(parse_frequency("sqrt2m1")),
                           float(parse_frequency("sqrt3m1")))))


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

