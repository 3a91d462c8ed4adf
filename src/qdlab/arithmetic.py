"""Frequencies, continued fractions and Liouville frequencies.

Frequencies are carried as exact fixed-point integers A/2^B with B >= 80
fractional bits (default 128), so continued fractions and orbit anchors
reduce to exact integer arithmetic on A and do not lose precision near good
rational approximations.
"""

import re
from dataclasses import dataclass, field

from mpmath import mp

DEFAULT_BITS = 128
LIOUVILLE_PRECISION_CAP = 4096


class Frequency:
    """A scalar frequency in (0,1) at a fixed binary precision."""

    def __init__(self, value, bits=DEFAULT_BITS, label=None):
        self.bits = int(bits)
        with mp.workprec(self.bits + 16):
            x = mp.frac(mp.mpf(value))
            self.num = int(mp.floor(x * (1 << self.bits) + mp.mpf("0.5")))
        self.num %= (1 << self.bits)
        self.label = label

    @property
    def modulus(self):
        return 1 << self.bits

    def fixed_int(self, bits):
        if bits <= self.bits:
            return self.num >> (self.bits - bits)
        return self.num << (bits - self.bits)

    def __float__(self):
        return self.num / self.modulus

    def __repr__(self):
        return f"Frequency({self.label or float(self)}, bits={self.bits})"


def _golden(bits):
    with mp.workprec(bits + 16):
        return Frequency((mp.sqrt(5) - 1) / 2, bits, "golden")


def _sqrt2m1(bits):
    with mp.workprec(bits + 16):
        return Frequency(mp.sqrt(2) - 1, bits, "sqrt2m1")


def _sqrt3m1(bits):
    with mp.workprec(bits + 16):
        return Frequency(mp.sqrt(3) - 1, bits, "sqrt3m1")


_LIOUVILLE_RE = re.compile(r"^liouville\(\s*([0-9.]+)\s*,\s*(\d+)\s*\)$")


def parse_frequency(text, bits=DEFAULT_BITS):
    """Accepts a number or decimal string in (0,1), or one of the symbolic
    tags {golden, sqrt2m1, sqrt3m1, liouville(gamma,K)}."""
    if isinstance(text, Frequency):
        return text
    if isinstance(text, (int, float)):
        val = text
    else:
        text = text.strip()
        if text == "golden":
            return _golden(bits)
        if text == "sqrt2m1":
            return _sqrt2m1(bits)
        if text == "sqrt3m1":
            return _sqrt3m1(bits)
        m = _LIOUVILLE_RE.match(text)
        if m:
            freq, _ = liouville_construct(float(m.group(1)), int(m.group(2)))
            return freq
        try:
            val = mp.mpf(text)
        except Exception as exc:
            raise ValueError(f"cannot parse frequency {text!r}") from exc
    if not 0 < val < 1:
        raise ValueError(f"frequency must lie in (0,1), got {text!r}")
    return Frequency(val, bits)


# ---------------------------------------------------------------------------
# continued fractions
# ---------------------------------------------------------------------------

@dataclass
class ContinuedFractionExpansion:
    partial_quotients: list
    convergents: list          # (p_k, q_k) pairs, one per partial quotient
    truncated: bool = False
    planted: list = field(default_factory=list)   # (q_n, q_{n+1}) growth pairs

    @property
    def denominators(self):
        return [q for _, q in self.convergents]


def continued_fraction(alpha, K):
    """First K partial quotients / convergents of alpha in (0,1).

    Runs Euclid on the exact fixed-point representation A/2^B and stops
    (flagging truncation) once the remaining precision cannot certify more
    quotients: convergents of the rational proxy agree with those of alpha
    while q_k * q_{k+1} stays well below 2^B.
    """
    if K < 1:
        raise ValueError("depth must be >= 1")
    freq = parse_frequency(alpha) if not isinstance(alpha, Frequency) else alpha
    a_num, modulus = freq.num, freq.modulus
    if a_num == 0:
        raise ValueError("frequency is zero to working precision")
    quotients = []
    convergents = []
    p_prev, q_prev = 1, 0
    p_cur, q_cur = 0, 1
    num, den = modulus, a_num      # expanding 1/alpha, so a_1 = floor(1/alpha)
    budget = modulus >> 4
    truncated = False
    while len(quotients) < K:
        if den == 0:
            truncated = True
            break
        a, rem = divmod(num, den)
        p_next = a * p_cur + p_prev
        q_next = a * q_cur + q_prev
        if q_next * q_cur >= budget:
            truncated = True
            break
        quotients.append(a)
        convergents.append((p_next, q_next))
        p_prev, q_prev, p_cur, q_cur = p_cur, q_cur, p_next, q_next
        num, den = den, rem
    return ContinuedFractionExpansion(quotients, convergents, truncated)


# ---------------------------------------------------------------------------
# Liouville-type frequencies
# ---------------------------------------------------------------------------

def liouville_construct(gamma, K, initial_quotient=None):
    """Builds alpha whose denominators satisfy q_{k+1} > q_k^gamma K times.

    a_1 = 1; each planted quotient is the smallest a with
    q_{k+1} = a q_k + q_{k-1} > q_k^gamma (initial_quotient can enlarge the
    first planted one to place the scales where orbits stay computable).
    Precision is capped at 4096 bits; if the cap would be exceeded the
    construction stops early and reports the achieved scales.
    """
    if gamma <= 1:
        raise ValueError("gamma must exceed 1")
    quotients = [1]
    p_prev, q_prev = 1, 0
    p_cur, q_cur = 0, 1
    # apply a_1 = 1
    p_cur, p_prev = 1 * p_cur + p_prev, p_cur
    q_cur, q_prev = 1 * q_cur + q_prev, q_cur
    planted = []
    for k in range(K):
        target = _pow_ceil(q_cur, gamma)
        a = (target - q_prev) // q_cur + 1
        if k == 0 and initial_quotient is not None:
            a = max(a, int(initial_quotient))
        q_next = a * q_cur + q_prev
        if q_next.bit_length() * 2 + 16 > LIOUVILLE_PRECISION_CAP:
            break
        quotients.append(a)
        p_next = a * p_cur + p_prev
        planted.append((q_cur, q_next))
        p_prev, q_prev, p_cur, q_cur = p_cur, q_cur, p_next, q_next
    bits = LIOUVILLE_PRECISION_CAP
    # pad with quotient 1 until the precision budget is exhausted, so the
    # expansion stays infinite to working precision
    while (q_cur * (q_cur + q_prev)).bit_length() < bits - 8:
        quotients.append(1)
        p_cur, p_prev = p_cur + p_prev, p_cur
        q_cur, q_prev = q_cur + q_prev, q_cur
    with mp.workprec(bits + 16):
        freq = Frequency(mp.mpf(p_cur) / q_cur, bits,
                         f"liouville({gamma},{K})")
    cf = continued_fraction(freq, len(quotients))
    cf.planted = planted
    return freq, cf


def _pow_ceil(q, gamma):
    """Smallest integer >= q^gamma, exact for integer gamma."""
    if float(gamma).is_integer():
        return q ** int(gamma)
    with mp.workprec(max(64, q.bit_length() * 4)):
        return int(mp.ceil(mp.power(q, gamma)))
