"""Covering times of the torus by orbit images of a ball.

The covering time of B_r(c) is the smallest M such that the images
f^n(B_r(c)), n < M, cover T^d.  Instead of imaging the ball forward (skew
images shear into slabs) each point of a grid of spacing <= r/4 is followed
backward and tested for entry into the shrunken ball B_{3r/4}(c); this
certifies coverage by the full ball.  A radius at least the covering radius
of the torus (sqrt(d)/2 in the wraparound Euclidean metric) covers in one
step by itself and is short-circuited exactly.

Grid points i/g and the map's alpha lie on the k/2^53 lattice of
``qdlab.torus``, where f^{-n} has an exact integer closed form: x - n alpha
for the shift, and for the skew map coordinate j of f^{-n}(x) is
  x_j + C(-n,1) x_{j-1} + ... + C(-n,j-1) x_1 + C(-n,j) alpha,
with C(-n,m) = (-1)^m C(n+m-1,m).  It is evaluated in uint64, where
wraparound mod 2^64 is exact mod 2^53.  ``inverse_step_array`` is exact on
that lattice too (every difference is a lattice value in (-1,1), and adding
1 to a negative one is exact), so the closed form and step-by-step backward
iteration give the same doubles and the same hit decisions.

Rather than pushing every grid point through every step, step n only
looks at the window of grid points x whose image f^{-n}(x) can lie in the
ball: about 2*ceil(3rg/4)+3 cells per coordinate, found one coordinate at a
time because f^{-n} is triangular.  Steps run in blocks vectorized over n,
and each point's first entry is its earliest hit.  Once no more grid points
are left uncovered than one window holds, iterating those survivors costs
less than a window per step, so from there on their exact images are
stepped with ``inverse_step_array``.
"""

import math
import numbers
from dataclasses import dataclass

import numpy as np

from .torus import Shift, inverse_step_array

GRID_CAP = 4096

_BITS = 53                     # the lattice k/2^53 of qdlab.torus
_MASK = (1 << _BITS) - 1
_UNIT = 2.0 ** -_BITS
_BLOCK_ROWS = 1 << 16          # window candidates per block of steps


@dataclass
class CoveringResult:
    radius: float
    m_cover: int          # None when not covered within mmax
    grid: int
    certified: bool
    uncovered: int = 0

    @property
    def covered(self):
        return self.m_cover is not None


def _torus_dist2(pts, center):
    delta = np.abs(pts - center[None, :])
    delta = np.minimum(delta, 1.0 - delta)
    return np.einsum("ij,ij->i", delta, delta)


def _backward_table(map_spec, ns):
    """Per step n in ns, the lattice integers (mod 2^53) that give f^{-n}:
    -n alpha_j for each coordinate j of the shift, C(-n,m) for m = 1..d of
    the skew map."""
    if isinstance(map_spec, Shift):
        rows = [[-n * a & _MASK for a in map_spec.alpha.lattice_ints()]
                for n in map(int, ns)]
    else:
        rows = [[(-1) ** m * math.comb(n + m - 1, m) & _MASK
                 for m in range(1, map_spec.d + 1)] for n in map(int, ns)]
    return np.array(rows, dtype=np.uint64).reshape(len(ns), map_spec.d)


def _offset(map_spec, tab, j, xs):
    """f^{-n}(x)_j - x_j (mod 2^53) from the earlier coordinates xs of x;
    tab holds the _backward_table row of each x."""
    if isinstance(map_spec, Shift):
        return tab[:, j]
    s = tab[:, j] * np.uint64(round(map_spec.alpha * (1 << _BITS)))
    for i, x in enumerate(xs):
        s = s + tab[:, j - i - 1] * x
    return s & np.uint64(_MASK)


def _window_hits(map_spec, ns, grid, width, center, test_r2):
    """(n, flat grid index) of every grid point whose f^{-n} image enters
    the ball, n in ns, in increasing n."""
    tab = _backward_table(map_spec, ns)
    cell = np.uint64((1 << _BITS) // grid)
    row_step = np.arange(len(ns))
    flat = np.zeros(len(ns), dtype=np.int64)
    xs, ys = [], []
    for j in range(map_spec.d):
        # x_j's window is centred on the cell of c_j - s, where x_j + s is
        # the image coordinate; a cell of slack on each side covers rounding
        s = _offset(map_spec, tab[row_step], j, xs)
        mid = np.floor((center[j] - s * _UNIT) * grid).astype(np.int64)
        idx = ((mid[:, None] - width // 2 + np.arange(width)) % grid).ravel()
        row_step = np.repeat(row_step, width)
        flat = np.repeat(flat, width) * grid + idx
        xs = [np.repeat(x, width) for x in xs]
        ys = [np.repeat(y, width) for y in ys]
        x = idx.astype(np.uint64) * cell
        xs.append(x)
        ys.append((x + np.repeat(s, width)) & np.uint64(_MASK))
    inside = _torus_dist2(np.stack(ys, axis=1) * _UNIT, center) <= test_r2
    return ns[row_step[inside]], flat[inside]


def _images(map_spec, n, flat, grid):
    """Exact f^{-n} images of the grid points with flat indices flat."""
    tab = _backward_table(map_spec, [n])
    cell = np.uint64((1 << _BITS) // grid)
    xs, ys = [], []
    for j, idx in enumerate(np.unravel_index(flat, (grid,) * map_spec.d)):
        x = idx.astype(np.uint64) * cell
        ys.append((x + _offset(map_spec, tab, j, xs)) & np.uint64(_MASK))
        xs.append(x)
    return np.stack(ys, axis=1) * _UNIT


def covering_time(map_spec, r, c, mmax):
    """Minimal M with every grid point's backward orbit entering B_{3r/4}(c).

    Returns a CoveringResult; m_cover is None (with the count of uncovered
    grid points) when mmax steps do not suffice.
    """
    if not r > 0:
        raise ValueError(f"need r > 0, got {r!r}")
    if (isinstance(mmax, bool) or not isinstance(mmax, numbers.Integral)
            or mmax < 1):
        raise ValueError(f"need an integral mmax >= 1, got {mmax!r}")
    d = map_spec.d
    center = np.asarray(c, dtype=np.float64)
    if center.shape != (d,):
        raise ValueError("center dimension does not match the map")
    if not np.all(np.isfinite(center)):
        raise ValueError("center coordinates must be finite")
    center = center - np.floor(center)
    if r >= 0.5 * math.sqrt(d):
        # the ball alone reaches every point of the torus
        return CoveringResult(r, 1, 0, True)
    grid = 1
    while 1.0 / grid > r / 4.0 and grid < GRID_CAP:
        grid *= 2
    certified = 1.0 / grid <= r / 4.0

    test_r2 = (0.75 * r) ** 2
    width = min(2 * math.ceil(0.75 * r * grid) + 3, grid)
    window = width ** d
    covered = np.zeros(grid ** d, dtype=bool)
    live = covered.size
    m_cover = 1
    n = 0
    block = 1
    while live > window and n < mmax:
        # blocks double up to _BLOCK_ROWS candidates, so a short covering
        # time is not charged a full block of steps
        ns = np.arange(n, min(n + block, mmax))
        block = max(1, min(2 * block, _BLOCK_ROWS // window))
        steps, flat = _window_hits(map_spec, ns, grid, width, center, test_r2)
        flat, first = np.unique(flat, return_index=True)
        new = ~covered[flat]
        if np.any(new):
            covered[flat[new]] = True
            live -= int(np.count_nonzero(new))
            m_cover = int(steps[first[new]].max()) + 1
        n = int(ns[-1]) + 1
    if live and n < mmax:
        active = _images(map_spec, n, np.flatnonzero(~covered), grid)
        while True:
            inside = _torus_dist2(active, center) <= test_r2
            if np.any(inside):
                active = active[~inside]
                m_cover = n + 1
            n += 1
            if active.shape[0] == 0 or n == mmax:
                break
            active = inverse_step_array(map_spec, active)
        live = active.shape[0]
    if live:
        return CoveringResult(r, None, grid, certified, uncovered=live)
    return CoveringResult(r, m_cover, grid, certified)


class NotCoveredError(RuntimeError):
    def __init__(self, result):
        super().__init__(
            f"radius {result.radius} not covered within the step budget "
            f"({result.uncovered} grid points left)")
        self.result = result


def fit_problem(radii):
    """Why the radii cannot carry an exponent fit, or None if they can."""
    if len(radii) < 4:
        return "need at least 4 radii"
    if any(b >= a for a, b in zip(radii, radii[1:])):
        return "radii must be strictly decreasing"
    if radii[0] / radii[-1] < 10.0:
        return "radii must span at least one decade"
    return None


def covering_slope(results):
    """Least-squares slope of log M_cover against log(1/r)."""
    xs = np.log([1.0 / res.radius for res in results])
    ys = np.log([res.m_cover for res in results])
    return float(np.polyfit(xs, ys, 1)[0])


def covering_exponent_fit(map_spec, c, radii, mmax):
    """covering_slope over the radii, and the results; raises
    NotCoveredError if any radius exhausts the step budget."""
    radii = [float(r) for r in radii]
    problem = fit_problem(radii)
    if problem is not None:
        raise ValueError(problem)
    results = []
    for r in radii:
        res = covering_time(map_spec, r, c, mmax)
        if not res.covered:
            raise NotCoveredError(res)
        results.append(res)
    return covering_slope(results), results

