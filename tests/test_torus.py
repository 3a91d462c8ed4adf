"""Torus arithmetic: lattice exactness, map inverses, closed forms."""

import math
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qdlab.torus import (Shift, SkewShift, TorusPoint, inverse_step,
                         inverse_step_array, orbit, skew_closed_form, step,
                         step_array)

SCALE = 1 << 53


def lattice_point(rng, d):
    ints = rng.integers(0, SCALE, size=d)
    return TorusPoint(tuple(int(k) / SCALE for k in ints))


def test_quantization_is_close_and_idempotent():
    p = TorusPoint((0.1, 0.7, 0.999999))
    for raw, snapped in zip((0.1, 0.7, 0.999999), p.coords):
        assert abs(raw - snapped) < 6e-17
    again = TorusPoint(p.coords)
    assert again.coords == p.coords


def test_lattice_ints_round_trip():
    rng = np.random.default_rng(3)
    p = lattice_point(rng, 3)
    ints = p.lattice_ints()
    assert all(0 <= k < SCALE for k in ints)
    assert TorusPoint(tuple(k / SCALE for k in ints)).coords == p.coords


@given(st.integers(0, SCALE - 1), st.integers(0, SCALE - 1))
@settings(max_examples=200, deadline=None)
def test_add_mod1_exact_on_lattice(a, b):
    # shift by a one-coordinate frequency and compare against integer
    # arithmetic: the branch-based mod-1 add must be exact on the lattice
    p = TorusPoint((a / SCALE,))
    m = Shift(TorusPoint((b / SCALE,)))
    q = step(m, p)
    assert q.lattice_ints()[0] == (a + b) % SCALE


def test_step_inverse_step_round_trip():
    rng = np.random.default_rng(11)
    for m in (Shift(TorusPoint((0.61803398874989481,))),
              SkewShift(0.61803398874989481, 3)):
        p = lattice_point(rng, m.d)
        assert inverse_step(m, step(m, p)).coords == p.coords
        assert step(m, inverse_step(m, p)).coords == p.coords


def test_shift_orbit_matches_integer_arithmetic():
    alpha = TorusPoint((0.41421356237309503, 0.73205080756887729))
    m = Shift(alpha)
    p = TorusPoint((0.125, 0.375))
    pts = orbit(m, p, 500).points
    a_ints = alpha.lattice_ints()
    p_ints = p.lattice_ints()
    for n in (0, 1, 17, 499):
        expect = [(pi + n * ai) % SCALE for pi, ai in zip(p_ints, a_ints)]
        got = [round(c * SCALE) for c in pts[n]]
        assert got == expect


@pytest.mark.parametrize("d", [1, 2, 4])
def test_skew_iteration_matches_closed_form_exactly(d):
    alpha = 0.61803398874989481
    m = SkewShift(alpha, d)
    y = TorusPoint(tuple((k + 1) / 16.0 for k in range(d)))
    cur = y
    for n in range(1, 3001):
        cur = step(m, cur)
        if n in (1, 2, 100, 1024, 3000):
            closed = skew_closed_form(m.alpha, y, n)
            assert cur.coords == closed.coords


def test_skew_closed_form_binomial_oracle():
    # independent rational-arithmetic oracle at small n
    alpha = 0.3125          # exactly on the lattice
    y = TorusPoint((0.25, 0.5, 0.75))
    n = 13
    got = skew_closed_form(alpha, y, n)
    ya = [Fraction(1, 4), Fraction(1, 2), Fraction(3, 4)]
    af = Fraction(5, 16)
    for i in range(1, 4):
        acc = ya[i - 1]
        for j in range(1, i):
            acc += math.comb(n, j) * ya[i - 1 - j]
        acc += math.comb(n, i) * af
        acc -= math.floor(acc)
        assert got.coords[i - 1] == float(acc)


def test_skew_closed_form_high_precision_string():
    y = TorusPoint((0.0, 0.0))
    a_float = float((math.sqrt(5) - 1) / 2)
    lo = skew_closed_form(a_float, y, 1000)
    hi = skew_closed_form("0.61803398874989484820458683436563811772", y, 1000)
    delta = np.abs(np.subtract(lo.coords, hi.coords))
    delta = np.minimum(delta, 1.0 - delta)
    assert math.hypot(*delta) < 1e-9


def test_step_array_agrees_with_step():
    rng = np.random.default_rng(5)
    for m in (Shift(TorusPoint((0.3, 0.7))), SkewShift(0.3, 2)):
        pts = rng.random((50, 2))
        fwd = step_array(m, pts)
        for k in range(50):
            exact = step(m, TorusPoint(tuple(pts[k])))
            assert np.allclose(fwd[k], exact.coords, atol=1e-12)
        back = inverse_step_array(m, fwd)
        assert np.allclose(back, pts, atol=1e-12)


def test_dimension_mismatch_rejected():
    with pytest.raises(ValueError):
        step(Shift(TorusPoint((0.3,))), TorusPoint((0.1, 0.2)))
    with pytest.raises(ValueError):
        orbit(SkewShift(0.3, 2), TorusPoint((0.1,)), 10)
