import pickle
import random
import time
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from oracles import (
    brute_capture_disk,
    brute_gen_k_capturing_disks,
    brute_trace_disks,
    brute_trace_halfspaces,
)
from sunflower_lab import (
    BudgetExceededError,
    Disk,
    GeneralPositionError,
    Halfspace3,
    ParameterError,
    Sunflower,
    capture_disk,
    find_sunflower,
    gen_k_capturing_disks,
    point2,
    point3,
    trace_disks,
    trace_halfspaces,
    vc_dimension,
)


def grid_points(rng, count, denom=100, span=2000):
    pts = []
    seen = set()
    while len(pts) < count:
        p = (Fraction(rng.randrange(span), denom), Fraction(rng.randrange(span), denom))
        if p not in seen:
            seen.add(p)
            pts.append(point2(*p))
    return pts


def random_disks(rng, pts, count):
    disks = []
    while len(disks) < count:
        c = point2(
            Fraction(rng.randrange(-200, 2200), 100),
            Fraction(rng.randrange(-200, 2200), 100),
        )
        r2 = Fraction(rng.randrange(1, 90000), 7)
        if all((p.x - c.x) ** 2 + (p.y - c.y) ** 2 != r2 for p in pts):
            disks.append(Disk(c, r2))
    return disks


class TestTraceDisks:
    def test_single_point_inside(self):
        pts = [point2(0, 0), point2(2, 0)]
        fam = trace_disks(pts, [Disk(point2(0, 0), Fraction(1))])
        assert fam.members == ((0,),)

    def test_all_points_inside(self):
        pts = [point2(0, 0), point2(1, 1), point2(-1, 0)]
        fam = trace_disks(pts, [Disk(point2(0, 0), Fraction(100))])
        assert fam.members == ((0, 1, 2),)

    def test_boundary_point_rejected(self):
        pts = [point2(1, 0)]
        with pytest.raises(GeneralPositionError) as exc:
            trace_disks(pts, [Disk(point2(0, 0), Fraction(1))])
        assert exc.value.point_index == 0 and exc.value.region_index == 0

    def test_tiny_disk_is_empty(self):
        pts = [point2(5, 5)]
        fam = trace_disks(pts, [Disk(point2(0, 0), Fraction(1, 1000))])
        assert fam.members == ((),)

    def test_vc_at_most_three(self):
        rng = random.Random(2024)
        for _ in range(25):
            pts = grid_points(rng, 10)
            disks = random_disks(rng, pts, 40)
            fam = trace_disks(pts, disks)
            assert vc_dimension(fam)[0] <= 3

    def test_lambda_of_disk_traces_measured(self):
        # measured and reported only; no theory-level assertion is made here
        from sunflower_lab import lambda_number

        rng = random.Random(3030)
        observed = []
        for _ in range(10):
            pts = grid_points(rng, 9)
            disks = random_disks(rng, pts, 25)
            fam = trace_disks(pts, disks)
            res = lambda_number(fam, cap=8)
            observed.append((res.value, res.cap_hit))
        assert all(v >= 1 for v, _ in observed)
        print(f"lambda over random disk traces (value, cap_hit): {observed}")


class TestTraceHalfspaces:
    def test_lower_point_only(self):
        pts = [point3(0, 0, -1), point3(0, 0, 1)]
        fam = trace_halfspaces(pts, [Halfspace3(Fraction(0), Fraction(0), Fraction(1), Fraction(0))])
        assert fam.members == ((0,),)

    def test_empty_member_allowed(self):
        pts = [point3(0, 0, 5)]
        fam = trace_halfspaces(pts, [Halfspace3(Fraction(0), Fraction(0), Fraction(1), Fraction(0))])
        assert fam.members == ((),)

    def test_plane_incidence_rejected(self):
        pts = [point3(0, 0, 0)]
        with pytest.raises(GeneralPositionError):
            trace_halfspaces(pts, [Halfspace3(Fraction(0), Fraction(0), Fraction(1), Fraction(0))])

    def test_complement_traces_complement(self):
        rng = random.Random(5)
        pts = [
            point3(Fraction(rng.randrange(100), 7), Fraction(rng.randrange(100), 7), Fraction(rng.randrange(100), 7))
            for _ in range(8)
        ]
        h = Halfspace3(Fraction(3), Fraction(-2), Fraction(1), Fraction(20))
        anti = Halfspace3(-h.a, -h.b, -h.c, -h.w)
        inside = set(trace_halfspaces(pts, [h]).members[0])
        outside = set(trace_halfspaces(pts, [anti]).members[0])
        assert inside | outside == set(range(8)) and not inside & outside

    def test_zero_normal_rejected(self):
        zero = Fraction(0)
        with pytest.raises(ParameterError):
            Halfspace3(zero, zero, zero, Fraction(1))
        # every way of building one checks the normal
        with pytest.raises(ParameterError):
            Halfspace3._make((zero, zero, zero, Fraction(1)))
        h = Halfspace3(Fraction(1), zero, zero, Fraction(1))
        with pytest.raises(ParameterError):
            h._replace(a=zero)
        assert h._replace(w=zero) == Halfspace3(Fraction(1), zero, zero, zero)
        assert pickle.loads(pickle.dumps(h)) == h


class TestDisk:
    @pytest.mark.parametrize("r2", (Fraction(0), Fraction(-1, 3)))
    def test_radius_must_be_positive(self, r2):
        p = point2(1, 2)
        with pytest.raises(ParameterError):
            Disk(p, r2)
        # every way of building one checks the radius
        with pytest.raises(ParameterError):
            Disk._make((p, r2))
        with pytest.raises(ParameterError):
            Disk(p, Fraction(1))._replace(radius_squared=r2)

    def test_valid_disk_round_trips(self):
        d = Disk(point2(1, 2), Fraction(5, 2))
        assert Disk._make(d) == d
        assert d._replace(center=point2(0, 0)) == Disk(point2(0, 0), Fraction(5, 2))
        assert pickle.loads(pickle.dumps(d)) == d
        assert repr(d) == (
            "Disk(center=Point2(x=Fraction(1, 1), y=Fraction(2, 1)), radius_squared=Fraction(5, 2))"
        )


class TestCaptureDisk:
    def test_collinear_example(self):
        pts = [point2(0, 0), point2(1, 0), point2(2, 0), point2(3, 0)]
        disk = capture_disk(pts, point2(0, 0), 2)
        assert disk.radius_squared == Fraction(5, 2)
        fam = trace_disks(pts, [disk])
        assert fam.members == ((0, 1),)

    def test_tie_returns_none(self):
        pts = [point2(-1, 0), point2(1, 0), point2(5, 5)]
        assert capture_disk(pts, point2(0, 0), 1) is None

    def test_k_range_validated(self):
        pts = [point2(0, 0), point2(1, 0)]
        with pytest.raises(ParameterError):
            capture_disk(pts, point2(0, 0), 2)


class TestGenKCapturingDisks:
    def test_every_member_has_size_k(self):
        rng = random.Random(8)
        pts = grid_points(rng, 12)
        for k in (1, 2, 4):
            _, fam = gen_k_capturing_disks(pts, k=k, count=30, seed=3)
            assert fam.is_uniform() == k
            assert fam.m == 30

    def test_deterministic(self):
        rng = random.Random(9)
        pts = grid_points(rng, 9)
        a = gen_k_capturing_disks(pts, k=2, count=20, seed=5)
        b = gen_k_capturing_disks(pts, k=2, count=20, seed=5)
        assert a == b

    def test_trace_matches_disks(self):
        rng = random.Random(10)
        pts = grid_points(rng, 11)
        disks, fam = gen_k_capturing_disks(pts, k=3, count=25, seed=1)
        assert trace_disks(pts, disks).members == fam.members

    def test_dense_scene_contains_sunflower(self):
        rng = random.Random(42)
        pts = grid_points(rng, 15)
        _, fam = gen_k_capturing_disks(pts, k=3, count=300, seed=11)
        distinct, kept = fam.distinct()
        flower = find_sunflower(distinct, 3)
        assert flower is not None
        indices = tuple(kept[i] for i in flower.member_indices)
        assert Sunflower(flower.core, indices).holds_in(fam)

    def test_needs_more_points_than_k(self):
        pts = [point2(0, 0), point2(1, 0)]
        with pytest.raises(ParameterError):
            gen_k_capturing_disks(pts, k=2, count=1, seed=0)


def outcome(fn, *args):
    """What a call returns, or its error as (type, message, indices): a
    family as its ground, members and kind, so two calls compare equal only
    if both give the same answer or fail the same way."""
    try:
        out = fn(*args)
    except GeneralPositionError as exc:
        return ("GeneralPositionError", str(exc), exc.point_index, exc.region_index)
    except (ParameterError, BudgetExceededError) as exc:
        return (type(exc).__name__, str(exc))
    if isinstance(out, Disk) or out is None:  # a Disk is a tuple too
        return out
    if isinstance(out, tuple):  # gen_k_capturing_disks: (disks, family)
        disks, fam = out
        return disks, (fam.ground_size, fam.members, fam.multifamily)
    return out.ground_size, out.members, out.multifamily


# integer-only and mixed-denominator coordinates, negative ones included
integer_coord = st.integers(-40, 40).map(Fraction)
rational_coord = st.builds(Fraction, st.integers(-2400, 2400), st.integers(1, 60))
coord = st.one_of(integer_coord, rational_coord)
positive = st.builds(Fraction, st.integers(1, 150000), st.integers(1, 50))


def scenes(coordinate, min_size=1):
    return st.lists(st.builds(point2, coordinate, coordinate), min_size=min_size, max_size=12)


def squared(p, q):
    return (p.x - q.x) ** 2 + (p.y - q.y) ** 2


class TestIntegerKernelMatchesFractions:
    """The integer kernel against the plain ``Fraction`` code in oracles."""

    @settings(max_examples=150, deadline=None)
    @given(data=st.data(), coordinate=st.sampled_from([coord, integer_coord, rational_coord]))
    def test_trace_disks(self, data, coordinate):
        pts = data.draw(scenes(coordinate))
        disks = []
        for _ in range(data.draw(st.integers(0, 5))):
            center = point2(data.draw(coordinate), data.draw(coordinate))
            if data.draw(st.integers(0, 3)) == 0:  # through one of the points
                r2 = squared(pts[data.draw(st.integers(0, len(pts) - 1))], center)
                r2 = r2 or data.draw(positive)
            else:
                r2 = data.draw(positive)
            disks.append(Disk(center, r2))
        assert outcome(trace_disks, pts, disks) == outcome(brute_trace_disks, pts, disks)

    @settings(max_examples=150, deadline=None)
    @given(data=st.data(), coordinate=st.sampled_from([coord, integer_coord, rational_coord]))
    def test_trace_halfspaces(self, data, coordinate):
        pts = data.draw(st.lists(st.builds(point3, coordinate, coordinate, coordinate), min_size=1, max_size=10))
        halfspaces = []
        for _ in range(data.draw(st.integers(0, 5))):
            a, b, c = (data.draw(coordinate) for _ in range(3))
            if a == b == c == 0:
                a = Fraction(1)
            if data.draw(st.integers(0, 3)) == 0:  # on the plane of one of the points
                p = pts[data.draw(st.integers(0, len(pts) - 1))]
                w = a * p.x + b * p.y + c * p.z
            else:
                w = data.draw(coordinate)
            halfspaces.append(Halfspace3(a, b, c, w))
        assert outcome(trace_halfspaces, pts, halfspaces) == outcome(
            brute_trace_halfspaces, pts, halfspaces
        )

    @settings(max_examples=150, deadline=None)
    @given(
        data=st.data(),
        # small integer grids tie the k-th and (k+1)-th distances often
        coordinate=st.sampled_from([coord, rational_coord, st.integers(-2, 2).map(Fraction)]),
    )
    def test_capture_disk(self, data, coordinate):
        pts = data.draw(scenes(coordinate))
        center = point2(data.draw(coordinate), data.draw(coordinate))
        k = data.draw(st.integers(-1, len(pts) + 1))  # out of range included
        assert outcome(capture_disk, pts, center, k) == outcome(brute_capture_disk, pts, center, k)

    @pytest.mark.parametrize(
        "pts, k, tied",
        [
            ([point2(-1, 0), point2(1, 0), point2(5, 5)], 1, True),
            # distance 1 over denominators 5 and 1: a tie only cross-multiplication sees
            ([point2(Fraction(3, 5), Fraction(4, 5)), point2(1, 0), point2(2, 2)], 1, True),
            ([point2(Fraction(3, 5), Fraction(4, 5)), point2(1, 0), point2(2, 2)], 2, False),
            ([point2(Fraction(3, 5), Fraction(4, 5)), point2(1, 0), point2(2, 2)], 3, None),
        ],
    )
    def test_capture_disk_ties(self, pts, k, tied):
        new = outcome(capture_disk, pts, point2(0, 0), k)
        assert new == outcome(brute_capture_disk, pts, point2(0, 0), k)
        if tied is None:
            assert new[0] == "ParameterError"
        else:
            assert (new is None) == tied

    @settings(max_examples=100, deadline=None)
    @given(
        pts=st.one_of(
            scenes(coord, min_size=2),
            scenes(integer_coord, min_size=2),
            scenes(rational_coord, min_size=2),
        ).filter(lambda pts: len(set(pts)) == len(pts)),
        k=st.integers(-1, 6),
        count=st.integers(-1, 6),
        seed=st.integers(0, 10**6),
    )
    def test_gen_k_capturing_disks(self, pts, k, count, seed):
        assert outcome(gen_k_capturing_disks, pts, k, count, seed) == outcome(
            brute_gen_k_capturing_disks, pts, k, count, seed
        )

    def test_gen_exhausted_resampling(self):
        # two equal points tie at every center
        pts = [point2(Fraction(1, 3), 2), point2(Fraction(1, 3), 2)]
        new = outcome(gen_k_capturing_disks, pts, 1, 1, 0)
        assert new[0] == "BudgetExceededError"
        assert new == outcome(brute_gen_k_capturing_disks, pts, 1, 1, 0)


class TestPerPointDenominators:
    def test_distinct_long_denominators_stay_fast(self):
        # every coordinate has its own 40-digit denominator, so a scene-wide
        # common denominator would run to tens of thousands of digits;
        # each point's own denominator keeps the work proportional to the input
        rng = random.Random(40)

        def coordinate():
            den = rng.randrange(10**39, 10**40)
            return Fraction(rng.randrange(1000 * den), den)

        pts = [point2(coordinate(), coordinate()) for _ in range(600)]
        started = time.perf_counter()
        disks, fam = gen_k_capturing_disks(pts, k=5, count=3, seed=1)
        traced = trace_disks(pts, disks)
        elapsed = time.perf_counter() - started
        assert elapsed < 5.0, f"600 points with 40-digit denominators took {elapsed:.2f} s"
        assert traced == fam and fam.is_uniform() == 5
        assert (disks, fam) == brute_gen_k_capturing_disks(pts, 5, 3, 1)
