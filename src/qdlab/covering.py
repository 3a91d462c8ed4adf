"""Covering times of the torus by orbit images of a ball.

The covering time of B_r(c) is the smallest M such that the images
f^n(B_r(c)), n < M, cover T^d.  Instead of imaging the ball forward (skew
images shear into slabs) each grid point is iterated backward and tested for
entry into the shrunken ball B_{3r/4}(c); with grid spacing <= r/4 this
certifies coverage by the full ball.  A radius at least the covering radius
of the torus (sqrt(d)/2 in the wraparound Euclidean metric) covers in one
step by itself and is short-circuited exactly.
"""

import math
from dataclasses import dataclass

import numpy as np

from .torus import inverse_step_array

GRID_CAP = 4096


@dataclass
class CoveringResult:
    radius: float
    center: tuple
    map_name: str
    m_cover: int          # None when not covered within mmax
    grid: int
    spacing: float
    certified: bool
    uncovered: int = 0

    @property
    def covered(self):
        return self.m_cover is not None


def _grid_points(g, d):
    axes = [np.arange(g) / g] * d
    mesh = np.meshgrid(*axes, indexing="ij")
    return np.stack([m.ravel() for m in mesh], axis=1)


def _torus_dist2(pts, center):
    delta = np.abs(pts - center[None, :])
    delta = np.minimum(delta, 1.0 - delta)
    return np.einsum("ij,ij->i", delta, delta)


def covering_time(map_spec, r, c, mmax):
    """Minimal M with every grid point's backward orbit entering B_{3r/4}(c).

    Returns a CoveringResult; m_cover is None (with the count of uncovered
    grid points) when mmax steps do not suffice.
    """
    if r <= 0 or mmax < 1:
        raise ValueError("need r > 0 and mmax >= 1")
    d = map_spec.d
    center = np.asarray(c, dtype=np.float64)
    if center.shape != (d,):
        raise ValueError("center dimension does not match the map")
    if r >= 0.5 * math.sqrt(d):
        # the ball alone reaches every point of the torus
        return CoveringResult(r, tuple(center), type(map_spec).__name__,
                              1, 0, 0.0, True)
    grid = 1
    while 1.0 / grid > r / 4.0 and grid < GRID_CAP:
        grid *= 2
    spacing = 1.0 / grid
    certified = spacing <= r / 4.0

    pts = _grid_points(grid, d)
    test_r2 = (0.75 * r) ** 2
    alive = _torus_dist2(pts, center) > test_r2
    m_cover = 1
    active = pts[alive]
    n = 0
    while active.shape[0] > 0 and n < mmax - 1:
        active = inverse_step_array(map_spec, active)
        n += 1
        inside = _torus_dist2(active, center) <= test_r2
        if np.any(inside):
            active = active[~inside]
            m_cover = n + 1
    name = type(map_spec).__name__
    if active.shape[0] > 0:
        return CoveringResult(r, tuple(center), name, None, grid, spacing,
                              certified, uncovered=int(active.shape[0]))
    return CoveringResult(r, tuple(center), name, m_cover, grid, spacing,
                          certified)


class NotCoveredError(RuntimeError):
    def __init__(self, result):
        super().__init__(
            f"radius {result.radius} not covered within the step budget "
            f"({result.uncovered} grid points left)")
        self.result = result


def covering_exponent_fit(map_spec, c, radii, mmax):
    """Least-squares slope of log M_cover against log(1/r).

    Requires at least 4 decreasing radii spanning a decade; raises
    NotCoveredError if any radius exhausts the step budget.
    """
    radii = [float(r) for r in radii]
    if len(radii) < 4:
        raise ValueError("need at least 4 radii")
    if any(b >= a for a, b in zip(radii, radii[1:])):
        raise ValueError("radii must be strictly decreasing")
    if radii[0] / radii[-1] < 10.0:
        raise ValueError("radii must span at least one decade")
    results = []
    for r in radii:
        res = covering_time(map_spec, r, c, mmax)
        if not res.covered:
            raise NotCoveredError(res)
        results.append(res)
    xs = np.log([1.0 / r for r in radii])
    ys = np.log([res.m_cover for res in results])
    slope = np.polyfit(xs, ys, 1)[0]
    return float(slope), results

