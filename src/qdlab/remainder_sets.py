"""Bounded remainder sets on T^1 and T^2 with explicit transfer functions.

A set U is a bounded remainder set for the rotation by alpha when the
Birkhoff remainder A_N(U,x) - N|U| stays uniformly bounded; equivalently
chi_U(x) - |U| = g(x) - g(x - alpha) a.e. for a bounded transfer function g.
Two explicit constructions are implemented: an interval of length
|q alpha - p| and a parallelogram spanned by m(alpha1,alpha2) - (l1,l2) and
(q v1/v2 - p, 0).  Fourier coefficients of the constructed g come from exact
piecewise integration of the sawtooth building blocks, not from a sampled
grid (the integrands are discontinuous, a grid rule cannot certify 1e-6).
"""

import math
from dataclasses import dataclass, field

import numpy as np

from qdlab.backend import kernels


def _frac(x, out=None):
    """x - floor(x), written into out when one is given (out is not x)."""
    floor = np.floor(x, out=out)
    return np.subtract(x, floor, out=floor)


TWO_PI_I = 2j * math.pi
REMAINDER_CHUNK = 1 << 16      # orbit points per remainder_sup block


def _phase_sum(js, phase):
    """sum over the integers js of e^{-2 pi i j phase}."""
    return np.sum(np.exp(-TWO_PI_I * js * phase))


@dataclass
class TransferFunction:
    evaluator: callable          # vectorized x (N,) or (N,2) -> g values
    bound: float                 # certified sup-norm bound
    fourier: callable = None     # integer mode vector -> complex coefficient
    volume: float = None
    membership: callable = None  # indicator of the set: (points, out=None)

    def __call__(self, x):
        return self.evaluator(np.asarray(x, dtype=np.float64))


# ---------------------------------------------------------------------------
# interval construction
# ---------------------------------------------------------------------------

def interval_transfer(alpha, q, p):
    """Transfer function of I = [0, q*alpha - p) with sup bound |q|.

    g(x) = -sign(q) sum_j {x - j alpha}, over j = 0 .. q - 1 for q > 0 and
    over j = -1 .. q for q < 0 (the mirrored telescoping).
    """
    alpha = float(alpha)
    kappa = q * alpha - p
    if not 0.0 < abs(kappa) < 1.0:
        raise ValueError("interval length |q alpha - p| must lie in (0,1)")
    if kappa < 0.0:
        q, p, kappa = -q, -p, -kappa
    sign = 1 if q > 0 else -1
    js = np.arange(q) if q > 0 else np.arange(-1, q - 1, -1)

    def evaluator(x):
        x = np.asarray(x, dtype=np.float64)
        acc = np.zeros_like(x)
        for j in js.tolist():
            acc -= _frac(x - j * alpha)
        return sign * acc

    def fourier(mode):
        m = int(mode)
        if m == 0:
            raise ValueError("mode 0 is not determined by the identity")
        return sign * _phase_sum(js, m * alpha) / (TWO_PI_I * m)

    def membership(x, out=None):
        """chi_I at x, 1.0 or 0.0, written into the float buffer out."""
        f = _frac(np.asarray(x, dtype=np.float64), out)
        return np.less(f, kappa, out=f)

    return TransferFunction(evaluator, abs(q), fourier, kappa, membership)


def interval_indicator_fourier(kappa, mode):
    """Fourier coefficient of chi_[0,kappa) on the circle."""
    m = int(mode)
    if m == 0:
        return complex(kappa)
    return (1.0 - np.exp(-TWO_PI_I * m * kappa)) / (TWO_PI_I * m)


# ---------------------------------------------------------------------------
# parallelogram construction on T^2
# ---------------------------------------------------------------------------

@dataclass
class ParallelogramSet:
    alpha: tuple
    m: int
    l: tuple
    q: int
    p: int
    v: tuple = field(init=False)
    sigma_len: float = field(init=False)
    volume: float = field(init=False)

    def __post_init__(self):
        a1, a2 = self.alpha
        v = (self.m * a1 - self.l[0], self.m * a2 - self.l[1])
        if v[1] == 0.0:
            raise ValueError("degenerate spanning vector: v2 = 0")
        c = v[0] / v[1]
        sigma = self.q * c - self.p
        if not 0.0 < abs(sigma) < 1.0:
            raise ValueError("base interval q v1/v2 - p must have length in (0,1)")
        self.v = v
        self.sigma_len = sigma
        self.volume = abs(v[1]) * abs(sigma)


def parallelogram_transfer(alpha1, alpha2, m, l1, l2, q, p):
    """Transfer function of the sheared parallelogram on T^2.

    Builds g(x,y) = sum_{j<m} gt(x - j a1, y - j a2) with
    gt(x,y) = h(x - (v1/v2){y}) - |Sigma| {y}, h the interval transfer of
    Sigma = [0, q v1/v2 - p) with respect to the slope v1/v2.  Certified
    bound |m| (|q| + 1).
    """
    if m < 1:
        raise ValueError("m must be >= 1 (flip the signs of (m, l) instead)")
    para = ParallelogramSet((float(alpha1), float(alpha2)), m, (l1, l2), q, p)
    v1, v2 = para.v
    c = v1 / v2
    h = interval_transfer(c, q, p)
    sigma = h.volume          # normalized positive length of Sigma
    alpha = np.array([alpha1, alpha2], dtype=np.float64)

    def gt(x, y):
        fy = _frac(y)
        return h.evaluator(x - c * fy) - sigma * fy

    def evaluator(pts):
        pts = np.atleast_2d(np.asarray(pts, dtype=np.float64))
        acc = np.zeros(pts.shape[0])
        for j in range(m):
            acc += gt(pts[:, 0] - j * alpha[0], pts[:, 1] - j * alpha[1])
        return acc

    def membership(pts, out=None):
        """chi_U at pts, 1.0 or 0.0, written into the float buffer out.

        out holds t = ({y} - [v2 < 0]) / v2 and then s = {x - t v1}; the
        only temporaries are two boolean masks.
        """
        pts = np.atleast_2d(np.asarray(pts, dtype=np.float64))
        x, y = pts[:, 0], pts[:, 1]
        t = _frac(y, out)
        if v2 < 0:
            np.subtract(t, 1.0, out=t)
        np.divide(t, v2, out=t)
        inside = t < 1.0
        s = np.subtract(x, np.multiply(t, v1, out=t), out=t)
        # s - floor(s) in place, bit for bit: fmod(s, 1) is exact, and a
        # negative one plus 1 rounds the same real number once
        np.remainder(s, 1.0, out=s)
        inside &= s < sigma
        np.copyto(s, inside)
        return s

    def fourier(mode):
        m1, m2 = (int(mode[0]), int(mode[1]))
        if m1 == 0 and m2 == 0:
            raise ValueError("mode 0 is not determined by the identity")
        denom = TWO_PI_I * (m1 * c + m2)
        if abs(denom) < 1e-15:
            raise ValueError("resonant mode for the base slope")
        chi_sigma = interval_indicator_fourier(sigma, m1)
        gt_hat = chi_sigma / denom
        phase = m1 * alpha[0] + m2 * alpha[1]
        return gt_hat * _phase_sum(np.arange(m), phase)

    tf = TransferFunction(evaluator, abs(m) * (abs(q) + 1.0), fourier,
                          para.volume, membership)
    tf.parallelogram = para
    return tf


def parallelogram_indicator_fourier(tf, mode):
    """chi_U Fourier coefficient from the spanning-vector closed form."""
    para = tf.parallelogram
    v1, v2 = para.v
    sigma = tf.volume / abs(v2)
    m1, m2 = int(mode[0]), int(mode[1])

    def edge(nu):
        if abs(nu) < 1e-15:
            return 1.0 + 0.0j
        return (1.0 - np.exp(-TWO_PI_I * nu)) / (TWO_PI_I * nu)

    w2x = math.copysign(sigma, para.sigma_len)
    return (abs(v2) * sigma
            * edge(m1 * v1 + m2 * v2) * edge(m1 * w2x))


# ---------------------------------------------------------------------------
# remainder scan
# ---------------------------------------------------------------------------

def remainder_sup(membership, volume, alpha, x0, nmax):
    """sup over N <= nmax of |A_N - N vol| along the rotation orbit of x0.

    membership(points, out): writes the indicator of the set at the
    points, 1.0 or 0.0, into the float buffer out, one entry per point.  It
    is called from worker threads, so it must depend on its points only,
    and each part passes a buffer of its own.  alpha and x0 are
    scalars (d=1) or length-2 sequences (d=2).  x0 is first reduced to
    x0 - floor(x0), which is exact for x0 >= 0 and keeps a start in [0, 1)
    bit for bit: a large start would round every orbit point x0 + n alpha.

    The orbit runs in chunks of REMAINDER_CHUNK points, and their
    boundaries set the rounding of the running sum: each chunk's partial
    sums c = cumsum(ind - vol) start again from 0.  The chunks are split
    over kernels._in_parts, and each is reduced on its own to (max c,
    min c, c[-1]).  The fold then walks the chunks in order with the
    running remainder r: sup = max(sup, |r + max c|, |r + min c|) and r =
    r + c[-1].  Rounding is monotone, so max_i fl(r + c_i) is fl(r + max
    c), and the sup has the bits of the sup over every fl(r + c_i).

    Each part forms its chunks' orbit points, one coordinate row at a
    time, their indicators and their partial sums in buffers of its own,
    reused through out= from chunk to chunk.
    """
    alpha = np.atleast_1d(np.asarray(alpha, dtype=np.float64))
    x0 = _frac(np.atleast_1d(np.asarray(x0, dtype=np.float64)))
    d = alpha.shape[0]
    chunks = -(-nmax // REMAINDER_CHUNK)
    steps = np.arange(min(nmax, REMAINDER_CHUNK), dtype=np.float64)

    def reduce(indices):
        # pts[k] holds coordinate k, so every ufunc runs on contiguous rows
        pts = np.empty((d, steps.shape[0]))
        c = np.empty(steps.shape[0])
        out = []
        for i in indices:
            start = i * REMAINDER_CHUNK
            count = min(REMAINDER_CHUNK, nmax - start)
            x, cs = pts[:, :count], c[:count]
            # the indices n sit in the last row until it takes its own
            # coordinate; cs holds floors until membership writes into it
            n = np.add(steps[:count], start, out=x[-1])
            for k in range(d):
                # _frac(x0 + n alpha), one rounding at a time
                np.multiply(n, alpha[k], out=x[k])
                np.add(x[k], x0[k], out=x[k])
                np.floor(x[k], out=cs)
                np.subtract(x[k], cs, out=x[k])
            membership(x.T if d > 1 else x[0], cs)
            np.subtract(cs, volume, out=cs)
            np.cumsum(cs, out=cs)
            out.append((cs.max(), cs.min(), cs[-1]))
        return out

    parts = kernels._in_parts(reduce, chunks)
    sup = 0.0
    running = 0.0
    for i in range(chunks):
        top, low, last = parts[i % len(parts)][i // len(parts)]
        sup = max(sup, abs(running + top), abs(running + low))
        running = running + last
    return float(sup)
