"""Bounded remainder sets: cohomological identities, bounds, Fourier."""

import math
import tracemalloc

import numpy as np
import pytest

import qdlab.remainder_sets as brs
from qdlab import _fallback as fb
from qdlab.arithmetic import parse_frequency

GOLDEN = float(parse_frequency("golden"))
A1 = float(parse_frequency("sqrt2m1"))
A2 = float(parse_frequency("sqrt3m1"))


def frac(x):
    return x - np.floor(x)


# ---------------------------------------------------------------------------
# interval construction
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("q,p", [(1, 0), (2, 1), (3, 1), (-1, -1), (-3, -2),
                                 (5, 3)])
def test_interval_cohomological_identity(q, p):
    tf = brs.interval_transfer(GOLDEN, q, p)
    rng = np.random.default_rng(41)
    x = rng.random(2000)
    lhs = tf(x) - tf(x - GOLDEN)
    rhs = tf.membership(x).astype(float) - tf.volume
    assert np.max(np.abs(lhs - rhs)) < 1e-9


def test_interval_transfer_respects_bound_and_volume():
    for q, p in ((2, 1), (-3, -2)):
        tf = brs.interval_transfer(GOLDEN, q, p)
        rng = np.random.default_rng(43)
        x = rng.random(5000)
        assert np.max(np.abs(tf(x))) <= tf.bound + 1e-12
        assert tf.volume == pytest.approx(abs(q * GOLDEN - p))
        # the volume matches the empirical measure of the membership set
        assert np.mean(tf.membership(x)) == pytest.approx(tf.volume, abs=0.02)


def test_interval_transfer_rejects_degenerate_lengths():
    with pytest.raises(ValueError):
        brs.interval_transfer(0.5, 2, 1)     # length exactly 0
    with pytest.raises(ValueError):
        brs.interval_transfer(0.7, 3, 1)     # length 1.1 outside (0,1)


def test_interval_fourier_against_quadrature():
    # midpoint rule on the sawtooth sum: an independent, lower-accuracy oracle
    tf = brs.interval_transfer(GOLDEN, 2, 1)
    k = 1 << 16
    x = (np.arange(k) + 0.5) / k
    g = tf(x)
    for m in (1, 2, 5, -3):
        quad = np.mean(g * np.exp(-2j * math.pi * m * x))
        assert abs(tf.fourier(m) - quad) < 1e-5


def test_interval_fourier_identity_is_machine_exact():
    for q, p in ((1, 0), (3, 1), (-2, -1)):
        tf = brs.interval_transfer(GOLDEN, q, p)
        for m in range(1, 12):
            lhs = tf.fourier(m) * (1.0 - np.exp(-2j * math.pi * m * GOLDEN))
            rhs = brs.interval_indicator_fourier(tf.volume, m)
            assert abs(lhs - rhs) < 1e-14


def test_indicator_fourier_mode_zero_and_symmetry():
    assert brs.interval_indicator_fourier(0.3, 0) == 0.3
    c = brs.interval_indicator_fourier(0.3, 4)
    assert brs.interval_indicator_fourier(0.3, -4) == pytest.approx(
        np.conj(c))


def test_fourier_mode_zero_rejected_for_transfer():
    tf = brs.interval_transfer(GOLDEN, 1, 0)
    with pytest.raises(ValueError):
        tf.fourier(0)


# ---------------------------------------------------------------------------
# parallelogram construction
# ---------------------------------------------------------------------------

def test_parallelogram_cohomological_identity():
    tf = brs.parallelogram_transfer(A1, A2, 1, 0, 0, 1, 0)
    rng = np.random.default_rng(47)
    pts = rng.random((3000, 2))
    shifted = frac(pts - np.array([A1, A2]))
    lhs = tf(pts) - tf(shifted)
    rhs = tf.membership(pts).astype(float) - tf.volume
    assert np.max(np.abs(lhs - rhs)) < 1e-9


def test_parallelogram_volume_and_bound():
    tf = brs.parallelogram_transfer(A1, A2, 2, 1, 1, 1, 0)
    rng = np.random.default_rng(53)
    pts = rng.random((200000, 2))
    emp = np.mean(tf.membership(pts))
    assert emp == pytest.approx(tf.volume, abs=0.01)
    sample = rng.random((5000, 2))
    assert np.max(np.abs(tf(sample))) <= tf.bound + 1e-12


def test_parallelogram_fourier_identity():
    tf = brs.parallelogram_transfer(A1, A2, 1, 0, 0, 1, 0)
    for m1 in range(0, 3):
        for m2 in range(-3, 4):
            if (m1, m2) <= (0, 0):
                continue
            phase = m1 * A1 + m2 * A2
            lhs = tf.fourier((m1, m2)) * (
                1.0 - np.exp(-2j * math.pi * phase))
            rhs = brs.parallelogram_indicator_fourier(tf, (m1, m2))
            assert abs(lhs - rhs) < 1e-13


def test_parallelogram_indicator_fourier_against_quadrature():
    tf = brs.parallelogram_transfer(A1, A2, 1, 0, 0, 1, 0)
    g = 512
    ax = (np.arange(g) + 0.5) / g
    xx, yy = np.meshgrid(ax, ax, indexing="ij")
    pts = np.stack([xx.ravel(), yy.ravel()], axis=1)
    ind = tf.membership(pts).astype(float)
    for mode in ((1, 0), (0, 1), (1, -1), (2, 1)):
        quad = np.mean(ind * np.exp(-2j * math.pi * (pts @ np.array(mode))))
        assert abs(brs.parallelogram_indicator_fourier(tf, mode) - quad) < 5e-3


def test_parallelogram_rejects_bad_parameters():
    with pytest.raises(ValueError):
        brs.parallelogram_transfer(A1, A2, 0, 0, 0, 1, 0)
    with pytest.raises(ValueError):
        # l chosen so the spanning vector has zero second component
        brs.parallelogram_transfer(A1, 0.5, 2, 0, 1, 1, 0)


# ---------------------------------------------------------------------------
# remainder scans
# ---------------------------------------------------------------------------

def test_interval_remainder_stays_bounded():
    tf = brs.interval_transfer(GOLDEN, 1, 0)
    sup = brs.remainder_sup(tf.membership, tf.volume, [GOLDEN],
                            np.array([0.3]), 300000)
    assert sup <= 2.0 * tf.bound


def test_parallelogram_remainder_stays_bounded():
    tf = brs.parallelogram_transfer(A1, A2, 1, 0, 0, 1, 0)
    sup = brs.remainder_sup(tf.membership, tf.volume, [A1, A2],
                            np.array([0.2, 0.7]), 50000)
    assert sup <= 2.0 * tf.bound


def test_generic_interval_is_not_bounded_remainder():
    # [0, 1/2) is not a bounded remainder set for the golden rotation: the
    # remainder must exceed any fixed bound along the orbit
    def member(x, out):
        np.copyto(out, frac(x) < 0.5)

    # logarithmic growth: the sup keeps climbing with the orbit length
    sup_small = brs.remainder_sup(member, 0.5, [GOLDEN], np.array([0.0]),
                                  10000)
    sup_large = brs.remainder_sup(member, 0.5, [GOLDEN], np.array([0.0]),
                                  2000000)
    assert sup_large >= 3.0
    assert sup_large > sup_small


def test_remainder_sup_chunking_is_transparent(monkeypatch):
    tf = brs.interval_transfer(GOLDEN, 1, 0)
    calls = []

    def member(x, out):
        calls.append(len(x))
        tf.membership(x, out)

    a = brs.remainder_sup(member, tf.volume, [GOLDEN], np.array([0.1]), 30000)
    monkeypatch.setattr(brs, "REMAINDER_CHUNK", 777)
    b = brs.remainder_sup(member, tf.volume, [GOLDEN], np.array([0.1]), 30000)
    # one block at the default chunk, then ceil(30000 / 777) = 39 blocks
    assert calls[0] == 30000 and len(calls) == 1 + 39
    assert a == pytest.approx(b, abs=1e-9)


def serial_remainder_sup(membership, volume, alpha, x0, nmax, chunk):
    """The remainder scan as one loop over the chunks, on one thread."""
    alpha = np.atleast_1d(np.asarray(alpha, dtype=np.float64))
    x0 = np.atleast_1d(np.asarray(x0, dtype=np.float64))
    d = alpha.shape[0]
    sup = 0.0
    running = 0.0
    for start in range(0, nmax, chunk):
        count = min(chunk, nmax - start)
        ns = np.arange(start, start + count, dtype=np.float64)
        pts = frac(x0[None, :] + ns[:, None] * alpha[None, :])
        ind = np.empty(count)
        membership(pts if d > 1 else pts[:, 0], ind)
        partial = running + np.cumsum(ind - volume)
        sup = max(sup, float(np.max(np.abs(partial))))
        running = partial[-1]
    return sup


@pytest.mark.parametrize("workers", [1, 2, 3, 5])
def test_remainder_sup_split_matches_serial_scan(monkeypatch, workers):
    monkeypatch.setattr(fb, "_WORKERS", workers)
    chunk = brs.REMAINDER_CHUNK
    interval = brs.interval_transfer(GOLDEN, 1, 0)
    para = brs.parallelogram_transfer(A1, A2, 1, 0, 0, 1, 0)
    cases = [(interval, [GOLDEN], np.array([0.3])),
             (para, [A1, A2], np.array([0.2, 0.7]))]
    for tf, alpha, x0 in cases:
        for nmax in (1, chunk - 1, chunk, chunk + 1, 3 * chunk + 5):
            got = brs.remainder_sup(tf.membership, tf.volume, alpha, x0,
                                    nmax)
            want = serial_remainder_sup(tf.membership, tf.volume, alpha, x0,
                                        nmax, chunk)
            assert got.hex() == want.hex()
    # many short chunks, not a multiple of any part count
    monkeypatch.setattr(brs, "REMAINDER_CHUNK", 97)
    for tf, alpha, x0 in cases:
        got = brs.remainder_sup(tf.membership, tf.volume, alpha, x0, 20011)
        want = serial_remainder_sup(tf.membership, tf.volume, alpha, x0,
                                    20011, 97)
        assert got.hex() == want.hex()


@pytest.mark.parametrize("workers", [1, 2, 3])
def test_remainder_sup_at_a_chunk_end(monkeypatch, workers):
    # x_n = n / (2 chunk) is exact, inside [0, 1/2) for n < chunk and
    # outside up to n = 2 chunk: the remainder climbs by 1/2 a step through
    # chunk 0 and falls from there, so the sup is at that chunk's end
    monkeypatch.setattr(fb, "_WORKERS", workers)
    chunk = brs.REMAINDER_CHUNK
    alpha = [1.0 / (2 * chunk)]

    def member(x, out):
        np.less(x, 0.5, out=out)

    for nmax in (chunk, chunk + 1, 3 * chunk + 5):
        got = brs.remainder_sup(member, 0.5, alpha, np.array([0.0]), nmax)
        assert got == chunk / 2
        assert got.hex() == serial_remainder_sup(
            member, 0.5, alpha, np.array([0.0]), nmax, chunk).hex()


def test_remainder_sup_reduces_the_start_exactly():
    tf = brs.interval_transfer(GOLDEN, 1, 0)
    sups = [brs.remainder_sup(tf.membership, tf.volume, [GOLDEN],
                              np.array([x0]), 300000)
            for x0 in (0.25, 1.25, 2.0 ** 40 + 0.25, -0.75)]
    # unreduced, a start of 2^40 + 0.25 rounds every x0 + n alpha to 2^-12
    assert len({s.hex() for s in sups}) == 1
    assert sups[0] <= tf.bound
    # a start in [0, 1) keeps its bits, so the sup is the serial scan's
    assert sups[0].hex() == serial_remainder_sup(
        tf.membership, tf.volume, [GOLDEN], np.array([0.25]), 300000,
        brs.REMAINDER_CHUNK).hex()
    tf2 = brs.parallelogram_transfer(A1, A2, 1, 0, 0, 1, 0)
    sups = [brs.remainder_sup(tf2.membership, tf2.volume, [A1, A2],
                              np.array(x0), 50000)
            for x0 in ([0.25, 0.75], [3.25, -0.25], [2.0 ** 40 + 0.25, 0.75])]
    assert len({s.hex() for s in sups}) == 1


def _interval_reference(kappa, x):
    return frac(x) < kappa


def _parallelogram_reference(tf, pts):
    """The parallelogram's indicator as one expression per step."""
    v1, v2 = tf.parallelogram.v
    sigma = abs(tf.parallelogram.sigma_len)
    x, y = pts[:, 0], pts[:, 1]
    t = frac(y) / v2 if v2 > 0 else (frac(y) - 1.0) / v2
    return (t < 1.0) & (frac(x - t * v1) < sigma)


def _orbit_and_edges(rng, n):
    """Random points, points near integers on both sides, and signed zeros."""
    near = np.round(rng.uniform(-4.0, 4.0, n)) + rng.choice(
        [-1.0, 1.0], n) * rng.choice([0.0, 1e-17, 1e-16, 2.0 ** -53, 1e-9], n)
    return np.concatenate([rng.uniform(-3.0, 3.0, n), near,
                           np.array([0.0, -0.0, 1.0, -1.0, 1e17, -1e17])])


def test_membership_writes_into_the_buffer():
    rng = np.random.default_rng(59)
    chunk = brs.REMAINDER_CHUNK
    interval = brs.interval_transfer(GOLDEN, 1, 0)
    x = _orbit_and_edges(rng, chunk)
    out = np.full(x.shape, np.nan)
    assert interval.membership(x, out) is out
    assert np.array_equal(out, _interval_reference(interval.volume, x))
    assert np.array_equal(interval.membership(x), out)
    paras = [brs.parallelogram_transfer(A1, A2, 1, 0, 0, 1, 0),
             brs.parallelogram_transfer(A1, A2, 2, 1, 1, 1, 0),
             brs.parallelogram_transfer(A1, A2, 1, 0, 1, 1, -1)]
    # both signs of v2 take their own branch
    assert [np.sign(p.parallelogram.v[1]) for p in paras] == [1, 1, -1]
    for para in paras:
        pts = np.stack([rng.permutation(x), x], axis=1)
        want = _parallelogram_reference(para, pts)
        assert 0 < want.sum() < len(want)
        out = np.full(len(pts), np.nan)
        assert para.membership(pts, out) is out
        assert np.array_equal(out, want)
        assert np.array_equal(para.membership(pts), out)


def test_membership_allocates_no_chunk_buffer():
    # one chunk's float temporary is 8 * chunk bytes; the interval takes
    # none and the parallelogram two boolean masks of chunk bytes
    chunk = brs.REMAINDER_CHUNK
    rng = np.random.default_rng(61)
    x = rng.random((chunk, 2))
    cases = [(brs.interval_transfer(GOLDEN, 1, 0), x[:, 0].copy()),
             (brs.parallelogram_transfer(A1, A2, 1, 0, 0, 1, 0), x),
             (brs.parallelogram_transfer(A1, A2, 1, 0, 1, 1, -1), x)]
    for tf, pts in cases:
        out = np.empty(chunk)
        tracemalloc.start()
        try:
            tf.membership(pts, out)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 4 * chunk
