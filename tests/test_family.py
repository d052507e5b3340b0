import inspect
import math
import pickle
import random
import sys
from fractions import Fraction
from functools import partial
from itertools import combinations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import sunflower_lab
from sunflower_lab import (
    AlphaEstimate,
    BoundValue,
    BudgetExceededError,
    CheckResult,
    Disk,
    EmptyFamilyError,
    EmptyMemberError,
    ExtremalResult,
    FrequencyProfile,
    Halfspace3,
    InequalityReport,
    InvalidFamilyError,
    LambdaResult,
    PackingResult,
    ParameterError,
    RandomFamilyReport,
    Scene2,
    Scene3,
    SetFamily,
    ShatterTree,
    Sunflower,
    SunflowerLabError,
    TransversalResult,
    canonicalize,
    count_sunflower_tuples,
    dual_family,
    element_frequencies,
    find_sunflower,
    is_sunflower,
    lambda_number,
    ls1_family,
    ls_dimension,
    packing_number,
    point2,
    point3,
    popular_element,
    product_family,
    random_lowerbound_family,
    transversal_number,
    tree_family,
    vc_dimension,
)
from sunflower_lab.family import _disjoint_subset, _pair_witness_step
from sunflower_lab.rng import Budget

from oracles import (
    brute_count_tuples,
    brute_first_lambda,
    brute_first_packing,
    brute_has_sunflower,
    brute_lambda,
    brute_least_sunflower,
    brute_least_transversal,
    brute_packing,
    brute_transversal,
    ls_dimension_tree,
    random_family,
)


@st.composite
def families(draw, max_m=7, max_n=7, multifamily=None):
    n = draw(st.integers(1, max_n))
    multi = draw(st.booleans()) if multifamily is None else multifamily
    members = draw(
        st.lists(
            st.sets(st.integers(0, n - 1)).map(lambda s: tuple(sorted(s))),
            max_size=max_m,
            unique=not multi,
        )
    )
    return SetFamily(n, tuple(members), multi)


def nested_families() -> list[SetFamily]:
    """Small tree, product and LS-1 families, whose members' shares of one
    another nest, so the star cover of the sunflower search and the chain
    cover of lambda_number both prune; and multifamilies that hold a core
    r times, each copy a star of its own."""
    fams = [
        tree_family(3, 3),
        tree_family(3, 4),
        tree_family(4, 3),
        ls1_family(3, 4),
        ls1_family(4, 3),
        product_family(tree_family(3, 2), tree_family(3, 3)),
        product_family(ls1_family(3, 2), ls1_family(3, 3)),
    ]
    for r in (3, 4):
        for base in (tree_family(3, 3), ls1_family(3, 3)):
            core = base.members[-1][:-1]
            fams.append(SetFamily(base.ground_size, base.members + (core,) * r, True))
    return fams


class TestSetFamily:
    def test_validation_rejects_out_of_range(self):
        with pytest.raises(InvalidFamilyError):
            SetFamily(2, ((0, 2),))

    def test_validation_rejects_unsorted(self):
        with pytest.raises(InvalidFamilyError):
            SetFamily(3, ((1, 0),))

    def test_validation_rejects_duplicates_without_flag(self):
        with pytest.raises(InvalidFamilyError):
            SetFamily(3, ((0,), (0,)))
        SetFamily(3, ((0,), (0,)), multifamily=True)

    def test_masks_and_columns(self):
        fam = SetFamily(3, ((0, 2), (1,)))
        assert fam.labels == (0, 1, 2)
        assert fam.masks == (0b101, 0b010)
        assert fam.columns == [0b01, 0b10, 0b01]
        # masks and columns are over the positions of the held labels
        gapped = SetFamily(9, ((2, 8), (5,)))
        assert gapped.labels == (2, 5, 8)
        assert gapped.masks == fam.masks
        assert gapped.columns == fam.columns
        assert gapped.labels_of(0b101) == (2, 8)
        assert gapped.labels_of(0) == ()

    def test_immutable(self):
        fam = SetFamily(3, ((0, 2), (1,)))
        assert fam.masks == (0b101, 0b010)  # a cached_property still fills in
        for name in ("ground_size", "members", "multifamily", "masks", "extra"):
            with pytest.raises(AttributeError):
                setattr(fam, name, 1)
            with pytest.raises(AttributeError):
                delattr(fam, name)
        assert (fam.ground_size, fam.members, fam.multifamily) == (3, ((0, 2), (1,)), False)
        assert fam.masks == (0b101, 0b010)

    def test_repr_eq_hash(self):
        fam = SetFamily(3, ((0, 2), (1,)))
        assert repr(fam) == "SetFamily(ground_size=3, members=((0, 2), (1,)), multifamily=False)"
        assert fam.columns  # cached values take no part in ==, hash or repr
        assert fam == SetFamily(3, ((0, 2), (1,)))
        assert fam != SetFamily(3, ((0, 2), (1,)), multifamily=True)
        assert fam != SetFamily(4, ((0, 2), (1,)))
        assert hash(fam) == hash(SetFamily(3, ((0, 2), (1,))))
        assert hash(fam) == hash((3, ((0, 2), (1,)), False))
        assert pickle.loads(pickle.dumps(fam)) == fam

    def test_not_a_tuple(self):
        fam = SetFamily(3, ((0, 2), (1,)))
        assert fam != (3, ((0, 2), (1,)), False)
        with pytest.raises(TypeError):
            len(fam)
        with pytest.raises(TypeError):
            iter(fam)


def _records() -> dict[str, tuple]:
    """One instance of each public result record, by name."""
    p = point2(0, 1)
    witness = SetFamily(2, ((0, 1),))
    return {
        "AlphaEstimate": AlphaEstimate(3, 2, 0.5, 10, 0),
        "BoundValue": BoundValue("ER", (("r", 3),), Fraction(1), "f"),
        "CheckResult": CheckResult("name", "pass", "detail"),
        "Disk": Disk(p, Fraction(1)),
        "ExtremalResult": ExtremalResult("family", 3, 2, None, 2, witness, True, 1, 1, None, 2),
        "FrequencyProfile": FrequencyProfile((Fraction(1, 2),), 2),
        "Halfspace3": Halfspace3(Fraction(1), Fraction(0), Fraction(0), Fraction(0)),
        "InequalityReport": InequalityReport(()),
        "LambdaResult": LambdaResult(1, (0,), 8, False),
        "PackingResult": PackingResult(1, (0,)),
        "Point2": p,
        "Point3": point3(0, 1, 2),
        "RandomFamilyReport": RandomFamilyReport(1, 3, 2, 0, 4, 1, 2, 2, True, ()),
        "Scene2": Scene2((p,), ()),
        "Scene3": Scene3((), ()),
        "ShatterTree": ShatterTree.leaf(0),
        "Sunflower": Sunflower((), (0, 1, 2)),
        "TransversalResult": TransversalResult(1, (0,)),
    }


class TestRecords:
    def test_every_public_record_listed(self):
        records = {
            name
            for name in sunflower_lab.__all__
            if isinstance(getattr(sunflower_lab, name), type)
            and issubclass(getattr(sunflower_lab, name), tuple)
        }
        assert records == set(_records())

    @pytest.mark.parametrize("name", sorted(_records()))
    def test_immutable_named_tuple(self, name):
        rec = _records()[name]
        assert type(rec) is getattr(sunflower_lab, name)
        field = rec._fields[0]
        with pytest.raises(AttributeError):
            setattr(rec, field, getattr(rec, field))
        with pytest.raises(AttributeError):
            rec.extra = 1
        assert rec._replace() == rec and tuple(rec) == tuple(getattr(rec, f) for f in rec._fields)
        assert pickle.loads(pickle.dumps(rec)) == rec


class TestCanonicalize:
    def test_relabels_by_first_appearance(self):
        fam = SetFamily.from_sets(5, [[3], [1]])
        out = canonicalize(fam)
        assert out.ground_size == 2
        assert out.members == ((0,), (1,))

    def test_empty_family(self):
        out = canonicalize(SetFamily(7, ()))
        assert out.ground_size == 0
        assert out.members == ()

    @settings(max_examples=150, deadline=None)
    @given(families())
    def test_idempotent(self, fam):
        once = canonicalize(fam)
        twice = canonicalize(once)
        assert once == twice

    @settings(max_examples=60, deadline=None)
    @given(families())
    def test_preserves_analysis(self, fam):
        out = canonicalize(fam)
        assert out.m == fam.m
        assert sorted(map(len, out.members)) == sorted(map(len, fam.members))
        assert packing_number(out).value == packing_number(fam).value
        assert vc_dimension(out)[0] == vc_dimension(fam)[0]
        if fam.m >= 3:
            assert (find_sunflower(out, 3) is None) == (find_sunflower(fam, 3) is None)


class TestIsSunflower:
    def test_common_core(self):
        assert is_sunflower([{1, 2}, {1, 3}, {1, 4}]) == (1,)

    def test_disjoint_sets_have_empty_core(self):
        assert is_sunflower([{1, 2}, {3, 4}, {5, 6}]) == ()

    def test_triangle_is_not(self):
        assert is_sunflower([{1, 2}, {2, 3}, {1, 3}]) is None

    def test_too_few(self):
        with pytest.raises(ParameterError):
            is_sunflower([{1}])


class TestFindSunflower:
    def test_rejects_r2(self):
        fam = SetFamily.from_sets(2, [[0], [1]])
        with pytest.raises(ParameterError):
            find_sunflower(fam, 2)

    def test_simple_core(self):
        fam = SetFamily.from_sets(5, [[1, 2], [1, 3], [1, 4]])
        s = find_sunflower(fam, 3)
        assert s == Sunflower(core=(1,), member_indices=(0, 1, 2))
        assert s.holds_in(fam)

    def test_repeated_members_in_multifamily(self):
        fam = SetFamily.from_sets(3, [[0, 1], [0, 1], [0, 1]], multifamily=True)
        s = find_sunflower(fam, 3)
        assert s is not None and s.core == (0, 1)
        distinct, _ = fam.distinct()
        assert find_sunflower(distinct, 3) is None

    def test_empty_members_can_be_petals(self):
        fam = SetFamily.from_sets(4, [[], [0, 1], [2, 3]])
        s = find_sunflower(fam, 3)
        assert s is not None and s.core == ()

    def test_witness_is_deterministic(self):
        rng = random.Random(7)
        for _ in range(30):
            fam = random_family(rng, max_m=8, max_n=6)
            a = find_sunflower(fam, 3)
            b = find_sunflower(fam, 3)
            assert a == b
            if a is not None:
                assert a.holds_in(fam)

    def test_matches_brute_force_on_corpus(self, small_corpus):
        for fam in small_corpus + nested_families():
            for r in (3, 4):
                got = find_sunflower(fam, r)
                want = brute_has_sunflower(fam, r)
                assert (got is not None) == want
                if got is not None:
                    assert got.holds_in(fam)
                    # the least core, then the first index tuple for it
                    assert (got.core, got.member_indices) == brute_least_sunflower(fam, r)

    def test_distinct_only_matches_brute_force(self):
        rng = random.Random(99)
        for _ in range(60):
            fam = random_family(rng, max_m=8, max_n=6, multifamily=True)
            distinct, kept = fam.distinct()
            got = find_sunflower(distinct, 3)
            assert (got is not None) == brute_has_sunflower(fam, 3, distinct_only=True)
            if got is not None:
                indices = tuple(kept[i] for i in got.member_indices)
                assert Sunflower(got.core, indices).holds_in(fam)

    def test_budget_aborts_pinned(self):
        # the unions of one edge from each of two disjoint 5-cycles have no
        # 3-sunflower, but their empty core survives the star cover: its
        # petal walk opens 31 nodes in a fixed order, so a smaller budget
        # aborts at its (budget + 1)-th node
        cycle = SetFamily.from_sets(5, [(i, (i + 1) % 5) for i in range(5)])
        fam = product_family(cycle, cycle)
        for budget in (1, 10, 30):
            with pytest.raises(BudgetExceededError, match=rf"\({budget + 1} > {budget} nodes\)"):
                find_sunflower(fam, 3, budget=budget)
        for budget in (31, 1000):
            assert find_sunflower(fam, 3, budget=budget) is None

    def test_star_cover_skips_every_tree_core(self):
        # a tree family's members holding a core fall into at most 2 stars,
        # one per child of the core's last vertex, so no petal walk opens
        for k in (5, 12):
            assert find_sunflower(tree_family(3, k), 3, budget=0) is None


class TestCountTuples:
    def test_three_disjoint_sets(self):
        fam = SetFamily.from_sets(6, [[0, 1], [2, 3], [4, 5]])
        assert count_sunflower_tuples(fam, 3) == 9

    def test_single_member(self):
        fam = SetFamily.from_sets(3, [[0, 1]])
        assert count_sunflower_tuples(fam, 3) == 1

    def test_empty_family_rejected(self):
        with pytest.raises(EmptyFamilyError):
            count_sunflower_tuples(SetFamily(1, ()), 3)

    def test_r2_is_m_squared(self, small_corpus):
        for fam in small_corpus:
            if fam.m:
                assert count_sunflower_tuples(fam, 2) == fam.m**2

    def test_matches_brute_force(self, small_corpus):
        for fam in small_corpus:
            if 0 < fam.m <= 6:
                for r in (2, 3, 4):
                    assert count_sunflower_tuples(fam, r) == brute_count_tuples(fam, r)

    def test_sunflower_free_uniform_family_counts_m(self):
        # distinct k-sets with no 3-sunflower: only the constant tuples remain
        rng = random.Random(5)
        found = 0
        while found < 20:
            fam = random_family(rng, max_m=6, max_n=7, multifamily=False)
            k = fam.is_uniform()
            if fam.m >= 2 and k and not brute_has_sunflower(fam, 3):
                assert count_sunflower_tuples(fam, 3) == fam.m
                found += 1

    @settings(max_examples=150, deadline=None)
    @given(families(max_m=9, max_n=7, multifamily=True))
    def test_matches_brute_force_on_multifamilies(self, fam):
        # repeated values weigh their petals and give a member core its copies
        if fam.m:
            for r in (2, 3, 4):
                assert count_sunflower_tuples(fam, r) == brute_count_tuples(fam, r)

    def test_star_cover_skips_every_tree_core(self):
        # a tree family is a sunflower-free uniform family: no core is a
        # value with a petal, and the star cover skips every other core, so
        # no petal walk opens and only the 2**(k-1) constant tuples count
        for k in (5, 12):
            assert count_sunflower_tuples(tree_family(3, k), 3, budget=0) == 2 ** (k - 1)

    def test_budget_aborts_pinned(self):
        # find_sunflower's two-5-cycle product family: the petal walks of the
        # cores that survive the star cover open 36 nodes in a fixed order,
        # so a smaller budget aborts at its (budget + 1)-th node
        cycle = SetFamily.from_sets(5, [(i, (i + 1) % 5) for i in range(5)])
        fam = product_family(cycle, cycle)
        for budget in (0, 1, 10, 35):
            with pytest.raises(BudgetExceededError, match=rf"\({budget + 1} > {budget} nodes\)"):
                count_sunflower_tuples(fam, 3, budget=budget)
        for budget in (36, 1000):
            assert count_sunflower_tuples(fam, 3, budget=budget) == fam.m

    def test_deep_tuples_need_no_deep_recursion(self):
        # 1,100 disjoint singletons: at r = 2000 they fall into 1,100 < r
        # stars, so the star cover skips the empty core and no walk opens; at
        # r = 1,100 its petal subsets nest 1,100 deep, and with the recursion
        # limit only 50 frames above the current depth, a walk that recursed
        # once per chosen petal would raise RecursionError.  The empty core is
        # no member, so only the one 1,100-petal path counts: a node whose
        # chosen and untried petals fall below r is left at once
        fam = SetFamily(1100, tuple((e,) for e in range(1100)))
        assert count_sunflower_tuples(fam, 2000, budget=0) == 1100
        depth = len(inspect.stack(0))
        limit = sys.getrecursionlimit()
        sys.setrecursionlimit(depth + 50)
        try:
            assert count_sunflower_tuples(fam, 1100, budget=1100) == math.factorial(1100) + 1100
            with pytest.raises(BudgetExceededError, match=r"\(1100 > 1099 nodes\)"):
                count_sunflower_tuples(fam, 1100, budget=1099)
        finally:
            sys.setrecursionlimit(limit)


class TestPacking:
    def test_disjoint_members(self):
        fam = SetFamily.from_sets(6, [[0, 1], [2, 3], [4, 5]])
        res = packing_number(fam)
        assert res.value == 3 and res.witness == (0, 1, 2)

    def test_triangle(self):
        fam = SetFamily.from_sets(3, [[0, 1], [1, 2], [0, 2]])
        assert packing_number(fam).value == 1

    def test_empty_family(self):
        assert packing_number(SetFamily(0, ())).value == 0

    def test_matches_brute_force(self, small_corpus):
        for fam in small_corpus:
            res = packing_number(fam)
            assert res.value == brute_packing(fam)
            masks = [fam.masks[i] for i in res.witness]
            assert all(a & b == 0 for i, a in enumerate(masks) for b in masks[i + 1:])
            if res.value:
                assert res.witness == brute_first_packing(fam, res.value)

    def test_deep_family_needs_no_deep_recursion(self):
        # 1024 pairwise intersecting members: the search must not recurse
        # once per member
        assert packing_number(tree_family(3, 11)) == PackingResult(1, (0,))

    def test_deep_packing_needs_no_deep_recursion(self):
        # 1,100 disjoint singletons are chosen one inside the other; with the
        # recursion limit only 50 frames above the current depth, a search
        # that recursed once per chosen member would raise RecursionError
        fam = SetFamily(1100, tuple((e,) for e in range(1100)))
        depth = len(inspect.stack(0))
        limit = sys.getrecursionlimit()
        sys.setrecursionlimit(depth + 50)
        try:
            res = packing_number(fam)
        finally:
            sys.setrecursionlimit(limit)
        assert res == PackingResult(1100, tuple(range(1100)))

    def test_budget_aborts_pinned(self):
        # the search on the edges of the 17-cycle opens 192 nodes in a fixed
        # order: a smaller budget aborts at its (budget + 1)-th node
        fam = SetFamily.from_sets(17, [(i, (i + 1) % 17) for i in range(17)])
        for budget in (1, 10, 191):
            with pytest.raises(BudgetExceededError, match=rf"\({budget + 1} > {budget} nodes\)"):
                packing_number(fam, budget=budget)
        for budget in (192, 1000):
            res = packing_number(fam, budget=budget)
            assert res == PackingResult(8, (0, 2, 4, 6, 8, 10, 12, 14))


class TestDisjointSubset:
    def test_matches_combinations_order(self):
        # the first pairwise disjoint positions in ``combinations`` order, on
        # lists with empty and repeated masks
        rng = random.Random(909)

        def first(masks, size):
            for pick in combinations(range(len(masks)), size):
                if all(masks[a] & masks[b] == 0 for a, b in combinations(pick, 2)):
                    return pick
            return None

        for _ in range(400):
            pool = [rng.getrandbits(5) for _ in range(rng.randint(1, 6))] + [0]
            masks = [rng.choice(pool) for _ in range(rng.randint(0, 10))]
            for size in (1, 2, 3, 4):
                assert _disjoint_subset(masks, Budget(None), size) == first(masks, size)
            hits = (first(masks, size) for size in range(len(masks), -1, -1))
            largest = next(hit for hit in hits if hit is not None)
            assert _disjoint_subset(masks, Budget(None)) == largest


class TestTransversal:
    def test_disjoint_members(self):
        fam = SetFamily.from_sets(6, [[0, 1], [2, 3], [4, 5]])
        assert transversal_number(fam).value == 3

    def test_common_element(self):
        fam = SetFamily.from_sets(4, [[0, 1], [0, 2], [0, 3]])
        res = transversal_number(fam)
        assert res.value == 1 and res.witness == (0,)

    def test_empty_member_rejected(self):
        with pytest.raises(EmptyMemberError):
            transversal_number(SetFamily.from_sets(2, [[0], []]))

    def test_empty_family_is_zero(self):
        assert transversal_number(SetFamily(0, ())).value == 0

    def test_matches_brute_force(self, small_corpus):
        rng = random.Random(47)
        seeded = [
            random_family(rng, max_m=12, max_n=9, multifamily=i % 3 == 0, allow_empty_members=False)
            for i in range(300)
        ]
        for fam in small_corpus + seeded:
            if all(fam.members):
                res = transversal_number(fam)
                assert res.value == brute_transversal(fam)
                assert res.witness == brute_least_transversal(fam)

    def test_witness_is_lexicographically_least(self):
        # two minimum covers exist; the smaller sorted tuple must win
        fam = SetFamily.from_sets(4, [[0, 3], [1, 3], [2, 3]])
        assert transversal_number(fam).witness == (3,)
        fam2 = SetFamily.from_sets(4, [[0, 1], [0, 2], [1, 2]])
        assert transversal_number(fam2).witness == (0, 1)

    def test_deep_transversal_needs_no_deep_recursion(self):
        # 120 disjoint singletons need 120 nested choices; with the recursion
        # limit only 50 frames above the current depth, a search that recursed
        # once per chosen element would raise RecursionError
        fam = SetFamily(120, tuple((e,) for e in range(120)))
        depth = len(inspect.stack(0))
        limit = sys.getrecursionlimit()
        sys.setrecursionlimit(depth + 50)
        try:
            res = transversal_number(fam)
        finally:
            sys.setrecursionlimit(limit)
        assert res == TransversalResult(120, tuple(range(120)))

    def test_budget_aborts_pinned(self):
        # the searches on the edges of the 17-cycle open 46 nodes in a fixed
        # order, 37 for the value and 9 for the witness: a smaller budget
        # aborts at its (budget + 1)-th node
        fam = SetFamily.from_sets(17, [(i, (i + 1) % 17) for i in range(17)])
        for budget in (1, 10, 36, 37, 45):
            with pytest.raises(BudgetExceededError, match=rf"\({budget + 1} > {budget} nodes\)"):
                transversal_number(fam, budget=budget)
        for budget in (46, 1000):
            res = transversal_number(fam, budget=budget)
            assert res == TransversalResult(9, (0, 1, 3, 5, 7, 9, 11, 13, 15))

    def test_work_pinned_on_random_family(self):
        # 40 random 5-subsets of [60] with tau = 10: the two searches open
        # 1,256 nodes, so the budget that finishes pins their work
        fam = random_lowerbound_family(3, 3, 5, n=60, m=40, seed=1)[0]
        with pytest.raises(BudgetExceededError, match=r"\(1256 > 1255 nodes\)"):
            transversal_number(fam, budget=1255)
        res = transversal_number(fam, budget=1256)
        assert res == TransversalResult(10, (0, 3, 4, 6, 10, 18, 39, 55, 57, 59))

    @settings(max_examples=200, deadline=None)
    @given(families(max_m=12, max_n=10, multifamily=True))
    def test_matches_brute_force_property(self, fam):
        fam = SetFamily(fam.ground_size, tuple(mem for mem in fam.members if mem), True)
        res = transversal_number(fam)
        assert res.value == brute_transversal(fam)
        assert res.witness == brute_least_transversal(fam)


class TestLambda:
    def test_triangle_is_three(self):
        fam = SetFamily.from_sets(3, [[0, 1], [1, 2], [0, 2]])
        res = lambda_number(fam)
        assert res.value == 3 and not res.cap_hit

    def test_disjoint_sets_give_one(self):
        fam = SetFamily.from_sets(4, [[0, 1], [2, 3]])
        assert lambda_number(fam).value == 1

    def test_empty_family(self):
        # the walk itself answers an empty family, whatever the declared ground
        for n in (0, 1, 3_000_000):
            assert lambda_number(SetFamily(n, ()), cap=4) == LambdaResult(0, (), 4, False)

    def test_cap_reporting(self):
        fam = SetFamily.from_sets(3, [[0, 1], [1, 2], [0, 2]])
        res = lambda_number(fam, cap=2)
        assert res.value == 2 and res.cap_hit and not res.exact

    def test_matches_brute_force(self, small_corpus):
        for fam in small_corpus + nested_families():
            res = lambda_number(fam, cap=10)
            if not res.cap_hit:
                assert res.value == brute_lambda(fam)
            assert res.witness == brute_first_lambda(fam, 10)

    def test_capped_witness_is_least(self):
        rng = random.Random(47)
        for it in range(150):
            fam = random_family(rng, max_m=9, max_n=6, multifamily=it % 2 == 0)
            for cap in (1, 2, 3):
                res = lambda_number(fam, cap=cap)
                assert res.witness == brute_first_lambda(fam, cap)
                assert res.value == len(res.witness)
        for fam in nested_families():
            for cap in (2, 3, 4):
                assert lambda_number(fam, cap=cap).witness == brute_first_lambda(fam, cap)

    @settings(max_examples=200, deadline=None)
    @given(families(max_m=9, max_n=6), st.data())
    def test_extension_bitset_is_the_pair_witness_check(self, fam, data):
        # grow a random set with the property, folding the step from the root
        # state along it, and compare its bitset with the definition, checked
        # member by member; asked for ``need`` more members, the step may
        # answer 0 only when no ``need`` of them can join together
        def has_property(idx):
            for a, b in combinations(idx, 2):
                others = 0
                for t in idx:
                    if t not in (a, b):
                        others |= fam.masks[t]
                if fam.masks[a] & fam.masks[b] & ~others == 0:
                    return False
            return True

        step = partial(_pair_witness_step, fam.masks, fam.columns)
        state, cand = ((), 0, 0, 0), (1 << fam.m) - 1
        chosen: list[int] = []
        while True:
            literal = [i for i in range(fam.m) if i not in chosen and has_property(chosen + [i])]
            assert cand == sum(1 << i for i in literal)
            if not literal:
                break
            t = data.draw(st.sampled_from(literal))
            chosen.append(t)
            parent, cand = state, cand & ~(1 << t)
            need = data.draw(st.integers(2, 4))
            _, bounded = step(parent, t, cand, need)
            state, cand = step(parent, t, cand, 1)
            assert state[0] == tuple(chosen)
            if bounded != cand:
                assert bounded == 0
                joiners = [i for i in range(fam.m) if cand >> i & 1]
                assert not any(has_property(chosen + list(c)) for c in combinations(joiners, need))

    def test_budget_aborts_pinned(self):
        # the search on tree_family(3, 6) opens 2 nodes in a fixed order, the
        # root and member 0: a smaller budget aborts at its (budget + 1)-th node
        fam = tree_family(3, 6)
        for budget in (0, 1):
            with pytest.raises(BudgetExceededError, match=rf"\({budget + 1} > {budget} nodes\)"):
                lambda_number(fam, budget=budget)
        for budget in (2, 1000):
            assert lambda_number(fam, budget=budget) == LambdaResult(2, (0, 1), 8, False)

    def test_chain_cover_prunes_tree_family(self):
        # on the 512 paths of tree_family(3, 10) a member's shares of the
        # others are prefixes of its path, one chain, so no member other than
        # 0 opens, and member 0 grows only to the pair (0, 1)
        res = lambda_number(tree_family(3, 10), cap=3, budget=2)
        assert res == LambdaResult(2, (0, 1), 3, False)

    def test_deep_lambda_needs_no_deep_recursion(self):
        # member i holds the pairs of [60] that contain i, so any two members
        # share exactly their own pair and all 60 are chosen one inside the
        # other; with the recursion limit only 50 frames above the current
        # depth, a search that recursed once per chosen member would raise
        # RecursionError
        pairs = list(combinations(range(60), 2))
        fam = SetFamily.from_sets(len(pairs), [
            [p for p, pair in enumerate(pairs) if i in pair] for i in range(60)
        ])
        depth = len(inspect.stack(0))
        limit = sys.getrecursionlimit()
        sys.setrecursionlimit(depth + 50)
        try:
            res = lambda_number(fam, cap=100)
        finally:
            sys.setrecursionlimit(limit)
        assert res.value == 60 and not res.cap_hit


class TestDual:
    def test_self_dual_singletons(self):
        fam = SetFamily.from_sets(2, [[0], [1]])
        assert dual_family(fam).members == ((0,), (1,))

    def test_deduplicates_traces(self):
        fam = SetFamily.from_sets(2, [[0, 1]])
        assert dual_family(fam).members == ((0,),)

    def test_rejects_multifamily(self):
        fam = SetFamily.from_sets(2, [[0], [1]], multifamily=True)
        with pytest.raises(InvalidFamilyError):
            dual_family(fam)

    def test_lambda_bounds_dual_vc(self):
        rng = random.Random(31)
        for _ in range(50):
            fam = random_family(rng, max_m=7, max_n=7)
            lam = lambda_number(fam, cap=9)
            if lam.cap_hit or fam.m == 0:
                continue
            vc_dual, _ = vc_dimension(dual_family(fam))
            assert lam.value >= vc_dual


class TestFrequencies:
    def test_simple_profile(self):
        fam = SetFamily.from_sets(2, [[0], [0], [1]], multifamily=True)
        prof = element_frequencies(fam)
        assert prof.fractions == (Fraction(2, 3), Fraction(1, 3))
        assert popular_element(fam) == (0, Fraction(2, 3))

    def test_disjoint_singletons(self):
        fam = SetFamily.from_sets(4, [[0], [1], [2], [3]])
        prof = element_frequencies(fam)
        assert set(prof.fractions) == {Fraction(1, 4)}

    def test_total_mass(self, small_corpus):
        for fam in small_corpus:
            if fam.m:
                prof = element_frequencies(fam)
                total = sum(prof.fractions) * fam.m
                assert total == sum(len(mem) for mem in fam.members)

    def test_popular_is_the_frequency_argmax(self, small_corpus):
        for fam in small_corpus:
            if fam.m and all(fam.members):
                fractions = element_frequencies(fam).fractions
                best = max(fractions)
                assert popular_element(fam) == (fractions.index(best), best)

    def test_unheld_elements_count_zero(self):
        prof = element_frequencies(SetFamily(4, ((0,), (0, 1))))
        assert prof.fractions == (1, Fraction(1, 2), 0, 0)

    def test_popular_ignores_ground_size(self):
        assert popular_element(SetFamily(3_000_000, ((0, 1), (1, 2)))) == (1, Fraction(1))

    def test_popular_rejects_empty_member(self):
        with pytest.raises(EmptyMemberError):
            popular_element(SetFamily.from_sets(2, [[0], []]))

    def test_popular_rejects_empty_family(self):
        with pytest.raises(EmptyFamilyError):
            popular_element(SetFamily(1, ()))


class TestCrossInvariants:
    def test_nu_le_tau(self, small_corpus):
        for fam in small_corpus:
            if fam.m and all(fam.members):
                assert packing_number(fam).value <= transversal_number(fam).value

    def test_packing_r_implies_empty_core_sunflower(self, small_corpus):
        for fam in small_corpus:
            if packing_number(fam).value >= 3:
                s = find_sunflower(fam, 3)
                assert s is not None and s.core == ()

    def test_vc_one_forces_lambda_at_most_three(self, small_corpus):
        for fam in small_corpus:
            if fam.m and vc_dimension(fam)[0] == 1:
                res = lambda_number(fam, cap=5)
                assert res.exact and res.value <= 3

    def test_canonicalize_preserves_tau_lambda_ls(self, small_corpus):
        from sunflower_lab import ls_dimension

        for fam in small_corpus[:40]:
            out = canonicalize(fam)
            assert ls_dimension(out)[0] == ls_dimension(fam)[0]
            assert lambda_number(out, cap=6).value == lambda_number(fam, cap=6).value
            if fam.m and all(fam.members):
                assert transversal_number(out).value == transversal_number(fam).value


def _outcome(fn, *args):
    try:
        return fn(*args)
    except SunflowerLabError as exc:
        return type(exc)


def _relabel_tree(tree, label):
    """``tree`` with each node's element e renamed ``label[e]``."""
    if tree is None or tree.is_leaf():
        return tree
    left, right = _relabel_tree(tree.left, label), _relabel_tree(tree.right, label)
    return ShatterTree.node(label[tree.element], left, right)


class TestDeclaredGround:
    def test_unheld_elements_change_nothing(self, small_corpus):
        # declaring 50 elements that no member holds changes no answer; only
        # the frequency profile grows, by 50 zeros.  Nor does renaming each
        # element e to label[e], increasing and up to the largest ground a
        # family may declare: every search opens the same nodes, so at a
        # fixed budget it aborts alike or gives the renamed answer
        rng = random.Random(40)
        top = 2**32 - 1
        aborted = 0
        for fam in small_corpus:
            wide = SetFamily(fam.ground_size + 50, fam.members, fam.multifamily)
            assert len(wide.columns) == len(fam.columns) <= fam.ground_size
            ls, _ = ls_dimension(fam)
            for fn, *args in (
                (lambda_number,),
                (vc_dimension,),
                (ls_dimension,),
                (ls_dimension_tree, ls),
                (ls_dimension_tree, ls + 1),
                (packing_number,),
                (transversal_number,),
                (find_sunflower, 3),
                (dual_family,),
                (popular_element,),
            ):
                assert _outcome(fn, wide, *args) == _outcome(fn, fam, *args)
            if fam.m:
                want = element_frequencies(fam).fractions + (0,) * 50
                assert element_frequencies(wide).fractions == want

            label = sorted(rng.sample(range(top), fam.ground_size))

            def relabel(elems):
                return tuple(label[e] for e in elems)

            def relabel_tree(out):
                return out[0], _relabel_tree(out[1], label)

            far = SetFamily(top, tuple(relabel(mem) for mem in fam.members), fam.multifamily)
            assert far.labels == relabel(fam.labels)
            assert far.masks == fam.masks and far.columns == fam.columns
            for fn, args, rename in (
                (lambda_number, (), None),
                (vc_dimension, (), lambda out: (out[0], relabel(out[1]))),
                (ls_dimension, (), relabel_tree),
                (ls_dimension_tree, (ls,), relabel_tree),
                (ls_dimension_tree, (ls + 1,), relabel_tree),
                (packing_number, (), None),
                (transversal_number, (), lambda out: out._replace(witness=relabel(out.witness))),
                (find_sunflower, (3,), lambda out: out._replace(core=relabel(out.core))),
                (count_sunflower_tuples, (3,), None),
            ):
                want = _outcome(partial(fn, budget=6), fam, *args)
                aborted += want is BudgetExceededError
                if rename is not None and want is not None and not isinstance(want, type):
                    want = rename(want)
                assert _outcome(partial(fn, budget=6), far, *args) == want
            assert _outcome(dual_family, far) == _outcome(dual_family, fam)
            popular = _outcome(popular_element, fam)
            if not isinstance(popular, type):
                popular = (label[popular[0]], popular[1])
            assert _outcome(popular_element, far) == popular
        assert aborted  # the budget is small enough to stop some searches

    def test_held_large_labels(self):
        # a member holding label 2,999,999: the column table has the held
        # elements only, and every answer is that of the family with the
        # label renamed 3, once the rename is undone
        big = 2_999_999
        label = {0: 0, 1: 1, 2: 2, 3: big}

        def relabel(elems):
            return tuple(label[e] for e in elems)

        for members in (((0, 3), (1, 2)), ((0, 3), (1, 3), (2, 3))):
            small = SetFamily(4, members)
            fam = SetFamily(big + 1, tuple(relabel(mem) for mem in members))
            assert fam.labels == (0, 1, 2, big)
            assert fam.masks == small.masks
            assert fam.columns == small.columns
            vc, shattered = vc_dimension(small)
            assert vc_dimension(fam) == (vc, relabel(shattered))
            ls, tree = ls_dimension(small)
            assert ls_dimension(fam) == (ls, _relabel_tree(tree, label))
            for d in (ls, ls + 1):
                ok, tree = ls_dimension_tree(small, d)
                assert ls_dimension_tree(fam, d) == (ok, _relabel_tree(tree, label))
            assert packing_number(fam) == packing_number(small)
            tau = transversal_number(small)
            assert transversal_number(fam) == TransversalResult(tau.value, relabel(tau.witness))
            assert lambda_number(fam) == lambda_number(small)
            flower = find_sunflower(small, 3)
            if flower is not None:
                flower = Sunflower(relabel(flower.core), flower.member_indices)
            assert find_sunflower(fam, 3) == flower
