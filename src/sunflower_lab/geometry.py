"""Set families traced from geometric scenes, in exact rational arithmetic.

Disks over planar points and half-spaces over 3D points.  Membership tests
compare exact rationals, so traces are reproducible bit for bit; scenes where
a point lies exactly on a boundary are rejected instead of perturbed.  The
comparisons run on integers: each point is written once as numerators over
its own least common denominator, and every comparison is cross-multiplied.
"""

from __future__ import annotations

from fractions import Fraction
from functools import cmp_to_key
from math import lcm
from typing import NamedTuple, Optional, Sequence

from .errors import BudgetExceededError, GeneralPositionError, ParameterError
from .family import SetFamily
from .rng import seeded_rng

_GRID_DENOM = 2**16  # rational grid for sampled centers
_MAX_ATTEMPTS_PER_DISK = 1000  # centers sampled per disk before giving up


class Point2(NamedTuple):
    x: Fraction
    y: Fraction


class Point3(NamedTuple):
    x: Fraction
    y: Fraction
    z: Fraction


def _checked_make(cls, iterable):
    """``_make`` for a checked record: namedtuple's own skips ``__new__``, and
    ``_replace`` goes through ``_make``."""
    return cls(*iterable)


class _DiskFields(NamedTuple):
    center: Point2
    radius_squared: Fraction


class Disk(_DiskFields):
    __slots__ = ()

    def __new__(cls, center: Point2, radius_squared: Fraction):
        if radius_squared <= 0:
            raise ParameterError("disk radius_squared must be positive")
        return tuple.__new__(cls, (center, radius_squared))

    _make = classmethod(_checked_make)


class _Halfspace3Fields(NamedTuple):
    a: Fraction
    b: Fraction
    c: Fraction
    w: Fraction


class Halfspace3(_Halfspace3Fields):
    """The closed side a*x + b*y + c*z <= w of a plane with nonzero normal."""

    __slots__ = ()

    def __new__(cls, a: Fraction, b: Fraction, c: Fraction, w: Fraction):
        if a == 0 and b == 0 and c == 0:
            raise ParameterError("half-space normal must be nonzero")
        return tuple.__new__(cls, (a, b, c, w))

    _make = classmethod(_checked_make)


def point2(x, y) -> Point2:
    return Point2(Fraction(x), Fraction(y))


def point3(x, y, z) -> Point3:
    return Point3(Fraction(x), Fraction(y), Fraction(z))


def _int_point(*coords: Fraction) -> tuple[int, ...]:
    """The numerators of ``coords`` over their least common denominator q,
    followed by q: each point keeps its own denominator, so a long one in
    one point never lengthens the arithmetic of the others."""
    q = lcm(*[v.denominator for v in coords])
    return (*[v.numerator * (q // v.denominator) for v in coords], q)


def _distance_numerators(coords, cx: int, cy: int, c: int) -> list[int]:
    """For each point (x, y, q), the numerator of its squared distance to the
    center (cx, cy) over c: (x*c - cx*q)^2 + (y*c - cy*q)^2, over (q*c)^2."""
    return [(x * c - cx * q) ** 2 + (y * c - cy * q) ** 2 for x, y, q in coords]


def trace_disks(points: Sequence[Point2], disks: Sequence[Disk]) -> SetFamily:
    """One member per disk: the indices of points strictly inside it.

    A point exactly on a disk boundary violates general position and raises
    :class:`GeneralPositionError` with the offending pair.
    """
    coords = [_int_point(p.x, p.y) for p in points]
    squares = [q * q for _, _, q in coords]
    members = []
    for di, disk in enumerate(disks):
        cx, cy, c = _int_point(disk.center.x, disk.center.y)
        rn, rd = disk.radius_squared.numerator, disk.radius_squared.denominator
        rc = rn * c * c
        inside = []
        # num / (q*c)^2 against rn / rd, cross-multiplied
        for pi, num in enumerate(_distance_numerators(coords, cx, cy, c)):
            lhs, rhs = num * rd, rc * squares[pi]
            if lhs == rhs:
                raise GeneralPositionError(
                    f"point {pi} lies on the boundary of disk {di}", pi, di
                )
            if lhs < rhs:
                inside.append(pi)
        members.append(tuple(inside))
    return SetFamily(len(points), tuple(members), multifamily=True)


def trace_halfspaces(
    points: Sequence[Point3], halfspaces: Sequence[Halfspace3]
) -> SetFamily:
    """One member per half-space: the indices of points strictly on its side."""
    coords = [_int_point(p.x, p.y, p.z) for p in points]
    members = []
    for hi, h in enumerate(halfspaces):
        # a*x + b*y + c*z against w, both over den * q, compared by numerators
        a, b, c, w, _ = _int_point(h.a, h.b, h.c, h.w)
        inside = []
        for pi, (x, y, z, q) in enumerate(coords):
            lhs, rhs = a * x + b * y + c * z, w * q
            if lhs == rhs:
                raise GeneralPositionError(
                    f"point {pi} lies on the plane of half-space {hi}", pi, hi
                )
            if lhs < rhs:
                inside.append(pi)
        members.append(tuple(inside))
    return SetFamily(len(points), tuple(members), multifamily=True)


def _compare_over_squares(u: tuple[int, ...], v: tuple[int, ...]) -> int:
    """The sign of u[0] / u[1]^2 - v[0] / v[1]^2."""
    lhs, rhs = u[0] * v[1] * v[1], v[0] * u[1] * u[1]
    return (lhs > rhs) - (lhs < rhs)


def _k_nearest(
    coords, cx: int, cy: int, c: int, k: int
) -> Optional[tuple[Fraction, tuple[int, ...]]]:
    """The squared radius midway between the k-th and (k+1)-th squared
    distances from the center (cx, cy) over c, and the indices of the k
    nearest points in ascending order; ``None`` if those distances tie."""
    # num / (q*c)^2 orders as num / q^2, compared cross-multiplied
    nums = _distance_numerators(coords, cx, cy, c)
    ordered = sorted(
        zip(nums, [q for _, _, q in coords], range(len(coords))),
        key=cmp_to_key(_compare_over_squares),
    )
    (n1, q1, _), (n2, q2, _) = ordered[k - 1:k + 1]
    lhs, rhs = n1 * q2 * q2, n2 * q1 * q1
    if lhs == rhs:
        return None
    nearest = tuple(sorted(i for _, _, i in ordered[:k]))
    return Fraction(lhs + rhs, 2 * (q1 * q2 * c) ** 2), nearest


def capture_disk(points: Sequence[Point2], center: Point2, k: int) -> Optional[Disk]:
    """The disk around ``center`` containing exactly the k nearest points,
    with radius_squared midway between the k-th and (k+1)-th squared
    distances; ``None`` if those distances tie (degenerate center)."""
    if not 1 <= k < len(points):
        raise ParameterError("capture_disk needs 1 <= k < number of points")
    coords = [_int_point(p.x, p.y) for p in points]
    found = _k_nearest(coords, *_int_point(center.x, center.y), k)
    return None if found is None else Disk(center, found[0])


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
    # the center xmin + (xmax - xmin) * gx / 2^16 is (x0 + dx * gx) / c, and
    # likewise in y
    x0, dx, y0, dy, c = _int_point(
        xmin,
        Fraction(xmax - xmin, _GRID_DENOM),
        ymin,
        Fraction(ymax - ymin, _GRID_DENOM),
    )
    coords = [_int_point(p.x, p.y) for p in points]
    if count and k < 1:  # what capture_disk raises on the first draw
        raise ParameterError("capture_disk needs 1 <= k < number of points")
    rng = seeded_rng("k-capturing", seed)
    disks: list[Disk] = []
    members: list[tuple[int, ...]] = []
    for _ in range(count):
        for _attempt in range(_MAX_ATTEMPTS_PER_DISK):
            cx = x0 + dx * rng.randrange(_GRID_DENOM + 1)
            cy = y0 + dy * rng.randrange(_GRID_DENOM + 1)
            found = _k_nearest(coords, cx, cy, c, k)
            if found is not None:
                break
        else:
            raise BudgetExceededError(
                f"resampling budget exhausted after {_MAX_ATTEMPTS_PER_DISK} attempts; "
                "the point set is too degenerate for k-capturing disks"
            )
        radius_squared, nearest = found
        disks.append(Disk(Point2(Fraction(cx, c), Fraction(cy, c)), radius_squared))
        # the radius lies strictly between the k-th and (k+1)-th distances,
        # so the disk's trace is the k nearest points
        members.append(nearest)
    return tuple(disks), SetFamily(len(points), tuple(members), multifamily=True)
