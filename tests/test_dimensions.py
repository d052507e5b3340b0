import math
import random
from itertools import chain, combinations

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from sunflower_lab import (
    BudgetExceededError,
    ParameterError,
    SetFamily,
    ls_dimension,
    pad_to_uniform,
    random_lowerbound_family,
    sauer_shelah_capacity,
    tree_family,
    vc_dimension,
)
from sunflower_lab.dimensions import LittlestoneSolver
from sunflower_lab.family import member_of
from sunflower_lab.rng import Budget

from oracles import (
    brute_least_shattered,
    brute_vc,
    ls_dimension_tree,
    random_family,
    validate_shatter_tree,
)


def power_set_family(d):
    ground = range(d)
    subsets = chain.from_iterable(combinations(ground, s) for s in range(d + 1))
    return SetFamily(d, tuple(subsets))


class TestVcDimension:
    def test_full_cube(self):
        d, witness = vc_dimension(power_set_family(3))
        assert d == 3 and witness == (0, 1, 2)

    def test_tree_family_at_most_one(self):
        d, _ = vc_dimension(tree_family(3, 4))
        assert d <= 1

    def test_chain_without_empty_trace(self):
        fam = SetFamily.from_sets(2, [[0], [1], [0, 1]])
        d, _ = vc_dimension(fam)
        assert d == 1

    def test_empty_family_is_zero(self):
        assert vc_dimension(SetFamily(3, ())) == (0, ())

    def test_duplicates_do_not_matter(self):
        fam = SetFamily.from_sets(3, [[0], [1], [0, 1]])
        doubled = SetFamily(3, fam.members + fam.members, multifamily=True)
        assert vc_dimension(fam)[0] == vc_dimension(doubled)[0]

    def test_matches_brute_force(self, small_corpus):
        for fam in small_corpus:
            d, witness = vc_dimension(fam)
            assert d == brute_vc(fam)
            assert len(witness) == d
            assert witness == brute_least_shattered(fam)

    def test_multifamily_witness_is_least(self):
        rng = random.Random(53)
        for it in range(150):
            fam = random_family(rng, max_m=12, max_n=6, multifamily=it % 2 == 0)
            assert vc_dimension(fam)[1] == brute_least_shattered(fam)

    @pytest.mark.parametrize("name, least", [("power5", 5), ("R40", 39)])
    def test_budget_aborts_pinned(self, name, least):
        # the walk on the power set of [5] and on a 40-member random family
        # opens ``least`` nodes in a fixed order: a smaller budget aborts at
        # its (budget + 1)-th node
        if name == "power5":
            fam = power_set_family(5)
        else:
            fam = random_lowerbound_family(3, 3, 5, n=60, m=40, seed=1)[0]
        for budget in (0, 1, least - 1):
            with pytest.raises(BudgetExceededError, match=rf"\({budget + 1} > {budget} nodes\)"):
                vc_dimension(fam, budget)
        assert vc_dimension(fam, least) == vc_dimension(fam)


class TestLsDimension:
    def test_tiny_families_are_zero(self):
        assert ls_dimension(SetFamily(1, ()))[0] == 0
        assert ls_dimension(SetFamily.from_sets(2, [[0, 1]]))[0] == 0

    def test_full_cube_hits_log_bound(self):
        for d in (1, 2, 3, 4):
            fam = power_set_family(d)
            value, tree = ls_dimension(fam)
            assert value == d
            validate_shatter_tree(fam, tree, d)

    def test_witness_tree_is_valid(self, small_corpus):
        for fam in small_corpus:
            value, tree = ls_dimension(fam)
            if fam.m:
                validate_shatter_tree(fam, tree, value)

    def test_vc_le_ls_le_log2m(self, small_corpus):
        for fam in small_corpus:
            vc, _ = vc_dimension(fam)
            ls, _ = ls_dimension(fam)
            assert vc <= ls
            md = len(set(fam.members))
            if md:
                assert ls <= md.bit_length() - 1

    def test_duplicates_do_not_matter(self, small_corpus):
        for fam in small_corpus[:30]:
            doubled = SetFamily(
                fam.ground_size, fam.members + fam.members, multifamily=True
            )
            assert ls_dimension(doubled)[0] == ls_dimension(fam)[0]

    def test_shared_solver_memo_reuse(self):
        # a second search of the same members is answered from the memo
        solver = LittlestoneSolver(Budget(None), power_set_family(3))
        full = (1 << 8) - 1
        a = solver.value(full)
        assert any(solver._memo)
        b = solver.value(full)
        assert a == b == ls_dimension(power_set_family(3))[0] == 3

    def test_witness_is_the_tree_oracles(self, small_corpus):
        # the least splitting element at each node, the least member at each
        # leaf: the same tree the literal tree route builds
        rng = random.Random(71)
        multi = [random_family(rng, max_m=12, max_n=6, multifamily=True) for _ in range(150)]
        trees = [tree_family(3, k) for k in range(1, 9)]
        cubes = [power_set_family(2), power_set_family(3)]
        for fam in chain(small_corpus, multi, trees, cubes):
            value, tree = ls_dimension(fam)
            assert tree == ls_dimension_tree(fam, value)[1]

    def test_witness_on_a_wide_tree_family(self):
        # 2,048 members over 4,095 elements, most of which split no node's
        # members: the witness tries only the elements that split them
        fam = tree_family(3, 12)
        value, tree = ls_dimension(fam)
        assert value == 11
        validate_shatter_tree(fam, tree, 11)

    @pytest.mark.parametrize("k, least", [(5, 15), (6, 31)])
    def test_budget_aborts_pinned(self, k, least):
        # the solver on tree_family(3, k) opens ``least`` nodes in a fixed order:
        # a smaller budget aborts at its (budget + 1)-th node
        fam = tree_family(3, k)
        for budget in (0, 1, least - 1):
            with pytest.raises(BudgetExceededError, match=rf"\({budget + 1} > {budget} nodes\)"):
                ls_dimension(fam, budget)
        assert ls_dimension(fam, least) == ls_dimension(fam)


class TestReaches:
    @settings(max_examples=300, deadline=None)
    @given(
        st.lists(
            st.tuples(
                st.integers(0, 3),
                st.integers(0, 31),
                st.lists(st.integers(0, 63), max_size=4),
                st.integers(0, 4),
            ),
            max_size=30,
        )
    )
    # {0}, {2}, {3} and {1}: c alone on its side of element 1
    @example([(0, 1, [2], 2), (0, 4, [2], 2), (0, 8, [2], 2)])
    # the square on {0, 1} reaches 2; with {0, 1} replaced by {2} it does
    # not, which a memo entry left from the square would miss
    @example([(0, 0, [8], 2), (0, 1, [8], 2), (0, 2, [8], 2), (0, 3, [8], 2), (1, 4, [8], 2)])
    # depth 3, where the side with c must reach 2 with c, not only 1 alone
    @example([(0, m, [1], 3) for m in (3, 5, 10, 11, 12, 13, 15)])
    # seven members of dimension 2 and one depth-3 test for four candidates,
    # of which {3} and {0, 3} reach 3 while {} and {0} do not: no answer
    # for one candidate may carry over to the next
    @example([(0, m, [], 3) for m in (4, 11, 15, 17, 18, 19)] + [(0, 31, [8, 0, 9, 1], 3)])
    def test_matches_ls_of_family_plus_member(self, steps):
        # one solver through random steps, each popping up to ``pops``
        # members and pushing ``mask``, then asking whether the members and
        # each ``cmask`` reach ``depth``, by ``reaches`` and by one
        # ``reaches_test`` built for all of them: a ``cmask`` may hold
        # element 5, which no member holds, and an entry left by a popped
        # member would answer wrongly
        solver = LittlestoneSolver(Budget(None))
        masks: list[int] = []
        for pops, mask, cmasks, depth in steps:
            for _ in range(min(pops, len(masks))):
                solver.pop()
                masks.pop()
            if mask not in masks:
                solver.push(mask)
                masks.append(mask)
            full = (1 << len(masks)) - 1
            test = solver.reaches_test(full, depth)
            for cmask in cmasks:
                if cmask not in masks:
                    grown = SetFamily(6, tuple(member_of(mk) for mk in masks + [cmask]))
                    want = ls_dimension(grown)[0] >= depth
                    assert solver.reaches(full, cmask, depth) == want
                    assert test(cmask) == want


class TestLsDimensionTree:
    def test_depth_one_needs_a_split(self):
        fam = SetFamily.from_sets(3, [[0, 1], [0, 2]])
        ok, tree = ls_dimension_tree(fam, 1)
        assert ok
        validate_shatter_tree(fam, tree, 1)
        no_split = SetFamily.from_sets(2, [[0, 1]])
        assert ls_dimension_tree(no_split, 1)[0] is False

    def test_log_bound_on_power_set(self):
        assert ls_dimension_tree(power_set_family(3), 4)[0] is False
        assert ls_dimension_tree(power_set_family(3), 3)[0] is True

    def test_negative_depth_rejected(self):
        with pytest.raises(ParameterError):
            ls_dimension_tree(SetFamily(1, ()), -1)

    def test_agrees_with_recursive_route(self, small_corpus):
        for fam in small_corpus:
            value, _ = ls_dimension(fam)
            ok_at, tree = ls_dimension_tree(fam, value)
            beyond, _ = ls_dimension_tree(fam, value + 1)
            if fam.m:
                assert ok_at
                validate_shatter_tree(fam, tree, value)
            assert not beyond

    def test_shared_solver_agrees_with_tree_route(self, small_corpus):
        # one solver across the whole corpus, emptied by pop and refilled by
        # push for each family: no entry may answer for another family
        solver = LittlestoneSolver(Budget(None))
        size = 0
        for fam in small_corpus:
            for _ in range(size):
                solver.pop()
            distinct, _ = fam.distinct()
            for mk in distinct.masks:
                solver.push(mk)
            size = distinct.m
            value = solver.value((1 << size) - 1)
            assert ls_dimension_tree(fam, value)[0] == bool(fam.m)
            assert not ls_dimension_tree(fam, value + 1)[0]

    @pytest.mark.parametrize("k, least", [(5, 5), (6, 5)])
    def test_budget_aborts_pinned(self, k, least):
        # the depth-2 tree search on tree_family(3, k) opens ``least`` nodes in a fixed order:
        # a smaller budget aborts at its (budget + 1)-th node
        fam = tree_family(3, k)
        for budget in (0, 1, least - 1):
            with pytest.raises(BudgetExceededError, match=rf"\({budget + 1} > {budget} nodes\)"):
                ls_dimension_tree(fam, 2, budget)
        assert ls_dimension_tree(fam, 2, least) == ls_dimension_tree(fam, 2)


class TestSauerShelah:
    def test_small_values(self):
        assert sauer_shelah_capacity(5, 1) == 6
        assert sauer_shelah_capacity(10, 10) == 1024
        assert sauer_shelah_capacity(4, 100) == 16

    def test_rejects_negative(self):
        with pytest.raises(ParameterError):
            sauer_shelah_capacity(-1, 0)

    def test_matches_binomial_sums_and_max_bits_is_exact(self):
        for n in range(0, 30):
            for d in range(0, 32):
                want = sum(math.comb(n, i) for i in range(min(n, d) + 1))
                assert sauer_shelah_capacity(n, d) == want
                for max_bits in range(0, 32):
                    if want.bit_length() <= max_bits:
                        assert sauer_shelah_capacity(n, d, max_bits) == want
                    else:
                        with pytest.raises(ParameterError):
                            sauer_shelah_capacity(n, d, max_bits)

    def test_bounds_every_family(self, small_corpus):
        for fam in small_corpus:
            vc, _ = vc_dimension(fam)
            md = len(set(fam.members))
            n_active = len(fam.columns)
            assert md <= sauer_shelah_capacity(n_active, vc)


class TestPaddingInvariance:
    def test_padding_preserves_dimensions(self):
        rng = random.Random(17)
        for _ in range(100):
            fam = random_family(rng, max_m=6, max_n=6, multifamily=False)
            k = fam.max_member_size() + rng.randrange(0, 2)
            padded = pad_to_uniform(fam, k)
            assert vc_dimension(padded)[0] == vc_dimension(fam)[0]
            assert ls_dimension(padded)[0] == ls_dimension(fam)[0]

