"""Set families traced from geometric scenes, in exact rational arithmetic.

Disks over planar points and half-spaces over 3D points.  Membership tests
compare exact rationals, so traces are reproducible bit for bit; scenes where
a point lies exactly on a boundary are rejected instead of perturbed.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Optional, Sequence

from .errors import BudgetExceededError, GeneralPositionError, ParameterError
from .family import SetFamily
from .rng import seeded_rng

_GRID_DENOM = 2**16  # rational grid for sampled centers
_MAX_ATTEMPTS_PER_DISK = 1000  # centers sampled per disk before giving up


@dataclass(frozen=True)
class Point2:
    x: Fraction
    y: Fraction


@dataclass(frozen=True)
class Point3:
    x: Fraction
    y: Fraction
    z: Fraction


@dataclass(frozen=True)
class Disk:
    center: Point2
    radius_squared: Fraction

    def __post_init__(self):
        if self.radius_squared <= 0:
            raise ParameterError("disk radius_squared must be positive")


@dataclass(frozen=True)
class Halfspace3:
    """The closed side a*x + b*y + c*z <= w of a plane with nonzero normal."""

    a: Fraction
    b: Fraction
    c: Fraction
    w: Fraction

    def __post_init__(self):
        if self.a == 0 and self.b == 0 and self.c == 0:
            raise ParameterError("half-space normal must be nonzero")


def point2(x, y) -> Point2:
    return Point2(Fraction(x), Fraction(y))


def point3(x, y, z) -> Point3:
    return Point3(Fraction(x), Fraction(y), Fraction(z))


def squared_distance(p: Point2, q: Point2) -> Fraction:
    return (p.x - q.x) ** 2 + (p.y - q.y) ** 2


def trace_disks(points: Sequence[Point2], disks: Sequence[Disk]) -> SetFamily:
    """One member per disk: the indices of points strictly inside it.

    A point exactly on a disk boundary violates general position and raises
    :class:`GeneralPositionError` with the offending pair.
    """
    members = []
    for di, disk in enumerate(disks):
        inside = []
        for pi, p in enumerate(points):
            d2 = squared_distance(p, disk.center)
            if d2 == disk.radius_squared:
                raise GeneralPositionError(
                    f"point {pi} lies on the boundary of disk {di}", pi, di
                )
            if d2 < disk.radius_squared:
                inside.append(pi)
        members.append(tuple(inside))
    return SetFamily(len(points), tuple(members), multifamily=True)


def trace_halfspaces(
    points: Sequence[Point3], halfspaces: Sequence[Halfspace3]
) -> SetFamily:
    """One member per half-space: the indices of points strictly on its side."""
    members = []
    for hi, h in enumerate(halfspaces):
        inside = []
        for pi, p in enumerate(points):
            val = h.a * p.x + h.b * p.y + h.c * p.z
            if val == h.w:
                raise GeneralPositionError(
                    f"point {pi} lies on the plane of half-space {hi}", pi, hi
                )
            if val < h.w:
                inside.append(pi)
        members.append(tuple(inside))
    return SetFamily(len(points), tuple(members), multifamily=True)


def capture_disk(points: Sequence[Point2], center: Point2, k: int) -> Optional[Disk]:
    """The disk around ``center`` containing exactly the k nearest points,
    with radius_squared midway between the k-th and (k+1)-th squared
    distances; ``None`` if those distances tie (degenerate center)."""
    if not 1 <= k < len(points):
        raise ParameterError("capture_disk needs 1 <= k < number of points")
    dists = sorted(squared_distance(p, center) for p in points)
    if dists[k - 1] == dists[k]:
        return None
    return Disk(center, (dists[k - 1] + dists[k]) / 2)


def gen_k_capturing_disks(
    points: Sequence[Point2],
    k: int,
    count: int,
    seed: int = 0,
) -> tuple[tuple[Disk, ...], SetFamily]:
    """``count`` disks, each containing exactly ``k`` points, plus their trace.

    Centers are sampled on a rational grid (denominator 2^16) inside the
    bounding box of the points; centers whose k-th and (k+1)-th distances tie
    are resampled, so each radius lies strictly between them and the trace
    holds the k nearest points.  Deterministic given the seed.
    """
    if len(points) <= k:
        raise ParameterError("need more points than k")
    if count < 0:
        raise ParameterError("count must be >= 0")
    xs = [p.x for p in points]
    ys = [p.y for p in points]
    xmin, xmax = min(xs), max(xs)
    ymin, ymax = min(ys), max(ys)
    rng = seeded_rng("k-capturing", seed)
    disks: list[Disk] = []
    for _ in range(count):
        disk = None
        for _attempt in range(_MAX_ATTEMPTS_PER_DISK):
            gx = Fraction(rng.randrange(_GRID_DENOM + 1), _GRID_DENOM)
            gy = Fraction(rng.randrange(_GRID_DENOM + 1), _GRID_DENOM)
            center = Point2(xmin + (xmax - xmin) * gx, ymin + (ymax - ymin) * gy)
            disk = capture_disk(points, center, k)
            if disk is not None:
                break
        if disk is None:
            raise BudgetExceededError(
                f"resampling budget exhausted after {_MAX_ATTEMPTS_PER_DISK} attempts; "
                "the point set is too degenerate for k-capturing disks"
            )
        disks.append(disk)
    return tuple(disks), trace_disks(points, disks)
