"""Points of the d-torus, the shift and skew-shift maps, orbits.

Coordinates are kept as fractional parts in [0,1).  On construction every
coordinate is snapped to the dyadic lattice k/2^53 (an adjustment below
6e-17, smaller than any tolerance used downstream).  On that lattice the
branch-based mod-1 addition below is exact, so long orbits have no drift at
all and the iterated map agrees with the binomial closed form exactly.

Bulk/high-precision orbit generation for measurement runs lives in the
discrepancy pipeline (128-bit fixed point with kernel chunk fill); this
module is the reference implementation.
"""

import math
from dataclasses import dataclass

import numpy as np

from .arithmetic import Frequency

_BITS = 53
_SCALE = 1 << _BITS


def _quantize(x):
    x = float(x)
    x -= math.floor(x)
    k = round(x * _SCALE)
    return (k % _SCALE) / _SCALE


def _add_mod1(x, y):
    # exact for operands on the k/2^53 lattice: the sum is on the lattice
    # and, after the conditional shift by 1, representable in a double
    s = x + y
    if s >= 1.0:
        return (x - 1.0) + y if x >= 0.5 else (y - 1.0) + x
    return s


def _sub_mod1(x, y):
    d = x - y
    return d if d >= 0.0 else d + 1.0


@dataclass(frozen=True)
class TorusPoint:
    coords: tuple

    def __post_init__(self):
        coords = tuple(_quantize(c) for c in self.coords)
        if not coords:
            raise ValueError("point needs at least one coordinate")
        object.__setattr__(self, "coords", coords)

    @property
    def d(self):
        return len(self.coords)

    def lattice_ints(self):
        return tuple(round(c * _SCALE) for c in self.coords)


@dataclass(frozen=True)
class Shift:
    """Translation by a frequency vector, one component per coordinate."""
    alpha: TorusPoint

    @property
    def d(self):
        return self.alpha.d


@dataclass(frozen=True)
class SkewShift:
    """(y1,...,yd) -> (y1+alpha, y2+y1, ..., yd+y_{d-1}), scalar alpha."""
    alpha: float
    d: int

    def __post_init__(self):
        object.__setattr__(self, "alpha", _quantize(self.alpha))
        if self.d < 1:
            raise ValueError("dimension must be >= 1")


def _check_dims(map_spec, p):
    if map_spec.d != p.d:
        raise ValueError(
            f"dimension mismatch: map acts on T^{map_spec.d}, point in T^{p.d}")


def step(map_spec, p):
    _check_dims(map_spec, p)
    c = p.coords
    if isinstance(map_spec, Shift):
        a = map_spec.alpha.coords
        return TorusPoint(tuple(_add_mod1(x, ai) for x, ai in zip(c, a)))
    new = [_add_mod1(c[0], map_spec.alpha)]
    for i in range(1, map_spec.d):
        new.append(_add_mod1(c[i], c[i - 1]))
    return TorusPoint(tuple(new))


def inverse_step(map_spec, p):
    _check_dims(map_spec, p)
    c = p.coords
    if isinstance(map_spec, Shift):
        a = map_spec.alpha.coords
        return TorusPoint(tuple(_sub_mod1(x, ai) for x, ai in zip(c, a)))
    new = [_sub_mod1(c[0], map_spec.alpha)]
    for i in range(1, map_spec.d):
        new.append(_sub_mod1(c[i], new[i - 1]))
    return TorusPoint(tuple(new))


@dataclass(frozen=True)
class PointSet:
    """Ordered finite sequence of torus points, as an (N, d) float array."""
    points: np.ndarray

    def __post_init__(self):
        pts = np.atleast_2d(np.asarray(self.points, dtype=np.float64))
        object.__setattr__(self, "points", pts)

    @property
    def d(self):
        return self.points.shape[1]


def orbit(map_spec, p, n):
    """(p, f p, ..., f^{n-1} p) as a PointSet."""
    if n < 1:
        raise ValueError("orbit length must be >= 1")
    _check_dims(map_spec, p)
    out = np.empty((n, map_spec.d), dtype=np.float64)
    cur = p
    for k in range(n):
        out[k] = cur.coords
        if k + 1 < n:
            cur = step(map_spec, cur)
    return PointSet(out)


def skew_iterate_ints(a_int, y_ints, n, bits):
    """Exact n-th skew-shift iterate on the lattice Z / 2^bits.

    a_int and y_ints are alpha and the start point as integers over
    2^bits; coordinate i (1-based) of the result is
      y_i + C(n,1) y_{i-1} + ... + C(n,i-1) y_1 + C(n,i) alpha  (mod 2^bits).
    """
    modulus = 1 << bits
    out = []
    for i in range(1, len(y_ints) + 1):
        acc = y_ints[i - 1]
        for j in range(1, i):
            acc += math.comb(n, j) * y_ints[i - 1 - j]
        acc += math.comb(n, i) * a_int
        out.append(acc % modulus)
    return out


def skew_closed_form(alpha, y, n):
    """n-th skew-shift iterate via exact integer binomials.

    alpha may be a float (used on its own dyadic lattice, matching
    step/orbit exactly) or a string / mpmath value, in which case it is
    carried at 128 fractional bits.
    """
    if n < 0:
        raise ValueError("n must be >= 0")
    if isinstance(alpha, float):
        bits = _BITS
        a_int = round(_quantize(alpha) * _SCALE)
    else:
        bits = 128
        a_int = Frequency(alpha, bits).num
    shift = bits - _BITS
    y_ints = [k << shift for k in y.lattice_ints()]
    modulus = 1 << bits
    return TorusPoint(tuple(v / modulus for v in
                            skew_iterate_ints(a_int, y_ints, n, bits)))


# ------------------------------------------------------------------
# vectorized map action on float arrays (used by covering and potential
# sampling), exact for inputs on the k/2^53 lattice, so n steps give the
# orbit of step (or the closed-form iterate f^{-n}) bit for bit.  Every
# difference is a lattice value in (-1,1), and adding 1 to a negative one
# is exact; step_array therefore forms x + y as x - (1 - y), where 1 - y is
# a lattice value too, instead of a sum in [1,2) that can lose its last
# bit.  Inputs off the lattice get plain double rounding at each step.
# ------------------------------------------------------------------

def step_array(map_spec, pts):
    pts = np.asarray(pts, dtype=np.float64)
    out = np.empty_like(pts)
    if isinstance(map_spec, Shift):
        out[:] = pts - (1.0 - np.asarray(map_spec.alpha.coords))
    else:
        out[:, 0] = pts[:, 0] - (1.0 - map_spec.alpha)
        if pts.shape[1] > 1:
            out[:, 1:] = pts[:, 1:] - (1.0 - pts[:, :-1])
    out -= np.floor(out)
    return out


def inverse_step_array(map_spec, pts):
    pts = np.asarray(pts, dtype=np.float64)
    out = np.empty_like(pts)
    if isinstance(map_spec, Shift):
        out[:] = pts - np.asarray(map_spec.alpha.coords)
        out -= np.floor(out)
        return out
    out[:, 0] = pts[:, 0] - map_spec.alpha
    out[:, 0] -= np.floor(out[:, 0])
    for i in range(1, pts.shape[1]):
        out[:, i] = pts[:, i] - out[:, i - 1]
        out[:, i] -= np.floor(out[:, i])
    return out
