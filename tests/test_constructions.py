import math
from itertools import combinations

import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from sunflower_lab import (
    ParameterError,
    SetFamily,
    extremal_search,
    find_sunflower,
    ls1_family,
    ls_dimension,
    multifamily_identity_report,
    pad_to_uniform,
    product_family,
    random_lowerbound_family,
    tree_family,
    vc_dimension,
)
from sunflower_lab.constructions import (
    _relabellings,
    _sunflower_test,
    _TraceTable,
)
from sunflower_lab.dimensions import LittlestoneSolver
from sunflower_lab.family import _disjoint_subset, mask_of, member_of
from sunflower_lab.rng import Budget

from oracles import brute_closing_traces, brute_extremal_multifamily


class TestTreeFamily:
    def test_small_shape(self):
        fam = tree_family(3, 3)
        assert fam.m == 4
        assert fam.is_uniform() == 3

    def test_single_member_for_k1(self):
        fam = tree_family(3, 1)
        assert fam.members == ((0,),)

    def test_properties_sweep(self):
        for r in (3, 4):
            for k in (2, 3, 4):
                fam = tree_family(r, k)
                assert fam.m == (r - 1) ** (k - 1)
                assert fam.is_uniform() == k
                assert vc_dimension(fam)[0] <= 1
                assert find_sunflower(fam, r) is None

    def test_size_overflow(self):
        with pytest.raises(ParameterError):
            tree_family(3, 40)

    def test_rejects_bad_params(self):
        with pytest.raises(ParameterError):
            tree_family(2, 3)
        with pytest.raises(ParameterError):
            tree_family(3, 0)


class TestProductFamily:
    def test_sizes_multiply(self):
        a = tree_family(3, 3)
        p = product_family(a, a)
        assert p.m == 16
        assert p.is_uniform() == 6

    def test_single_set_factor_pads(self):
        a = tree_family(3, 2)
        single = SetFamily.from_sets(2, [[0, 1]])
        p = product_family(a, single)
        assert p.m == a.m
        assert p.is_uniform() == 4
        assert find_sunflower(p, 3) is None

    def test_single_set_factor_preserves_sunflowers(self):
        stars = SetFamily.from_sets(4, [[0, 1], [0, 2], [0, 3]])
        single = SetFamily.from_sets(2, [[0, 1]])
        p = product_family(stars, single)
        s = find_sunflower(p, 3)
        assert s is not None and s.member_indices == (0, 1, 2)

    def test_sunflower_freeness_inherited(self):
        for r in (3, 4):
            a, b = tree_family(r, 2), tree_family(r, 3)
            p = product_family(a, b)
            assert p.m == a.m * b.m
            assert find_sunflower(p, r) is None

    def test_vc_does_not_grow_past_factor_cap(self):
        # both factors have vc <= 1; the product should too
        for r in (3, 4):
            p = product_family(tree_family(r, 2), tree_family(r, 2))
            assert vc_dimension(p)[0] <= 1

    def test_rejects_nonuniform(self):
        bad = SetFamily.from_sets(3, [[0], [1, 2]])
        with pytest.raises(ParameterError):
            product_family(bad, bad)


class TestLs1Family:
    def test_base_case_singletons(self):
        fam = ls1_family(3, 1)
        assert fam.members == ((0,), (1,))

    def test_small_size(self):
        assert ls1_family(3, 4).m == 5

    def test_properties_sweep(self):
        for r in (3, 4, 5):
            for k in range(1, 7):
                fam = ls1_family(r, k)
                assert fam.m == k + r - 2
                assert fam.is_uniform() == k
                if fam.m >= 2:
                    assert ls_dimension(fam)[0] == 1
                    assert find_sunflower(fam, r) is None


class TestPadToUniform:
    def test_example(self):
        fam = SetFamily.from_sets(2, [[0], [0, 1]])
        out = pad_to_uniform(fam, 2)
        assert out.members == ((0, 2), (0, 1))

    def test_uniform_input_unchanged(self):
        fam = SetFamily.from_sets(3, [[0, 1], [1, 2]])
        assert pad_to_uniform(fam, 2).members == fam.members

    def test_dummies_are_private(self):
        fam = SetFamily.from_sets(4, [[0], [1], [2, 3]])
        out = pad_to_uniform(fam, 3)
        assert out.is_uniform() == 3
        for e in range(fam.ground_size, out.ground_size):
            assert sum(1 for mem in out.members if e in mem) == 1

    def test_preserves_sunflower_existence(self):
        fam = SetFamily.from_sets(5, [[0], [0, 1], [0, 2], [3, 4]])
        for r in (3,):
            before = find_sunflower(fam, r) is not None
            after = find_sunflower(pad_to_uniform(fam, 3), r) is not None
            assert before == after

    def test_rejects_oversized_member(self):
        with pytest.raises(ParameterError):
            pad_to_uniform(SetFamily.from_sets(3, [[0, 1, 2]]), 2)


class TestRandomLowerboundFamily:
    def test_deterministic(self):
        a, _ = random_lowerbound_family(3, 3, 5, n=30, m=20, seed=9)
        b, _ = random_lowerbound_family(3, 3, 5, n=30, m=20, seed=9)
        c, _ = random_lowerbound_family(3, 3, 5, n=30, m=20, seed=10)
        assert a == b
        assert a != c

    def test_override_scale(self):
        fam, rep = random_lowerbound_family(3, 3, 5, n=30, m=20, seed=1)
        assert fam.ground_size == 30
        assert fam.is_uniform() == 5
        assert fam.m == rep.m_distinct <= 20
        assert not rep.used_recipe

    def test_t_is_exact_ceil_log2(self):
        # float log2 rounds 2^53 + 1 down to 2^53 and so reports one less
        for d, t in ((2**53 + 1, 54), (2**60 + 1, 61)):
            assert random_lowerbound_family(d, 3, 2, n=4, m=1)[1].t == t
        for d in range(1, 4097):
            assert random_lowerbound_family(d, 3, 2, n=4, m=1)[1].t == math.ceil(math.log2(d))

    def test_derived_parameters_reported_infeasible(self):
        # d=6, r=3, k=24 meets the recipe preconditions, but the derived n
        # collapses below k at this scale; the error must carry the numbers
        with pytest.raises(ParameterError) as exc:
            random_lowerbound_family(6, 3, 24)
        assert "n=0" in str(exc.value)
        assert "override" in str(exc.value)

    @pytest.mark.parametrize(
        "d, r, k, m, n, m_requested, notes",
        [
            (6, 3000, 24, None, 125, 1,
             ("n rounded down from 125.628 to 125",
              "m computed as floor(n^(d-t) / (k^(d-t) n)) = 1")),
            (6, 3000, 24, 2, 125, 2, ("n rounded down from 125.628 to 125",)),
        ],
    )
    def test_derived_parameters_pinned(self, d, r, k, m, n, m_requested, notes):
        _, rep = random_lowerbound_family(d, r, k, m=m)
        assert (rep.n, rep.m_requested, rep.notes) == (n, m_requested, notes)

    @pytest.mark.parametrize(
        "d, r, k, m, message",
        [
            (6, 3, 100000, None, "derived n=602059, m=0 infeasible"),
            (7, 400, 40, 2, "derived n=34, m=2 infeasible"),
            (6, 3, 10**20, None, "m=22654764572 exceeds the desk-scale limit 1000000"),
            # k^2 r is past the float range, and n and m are exact integers
            (6, 3, 10**200, None, "exceeds the desk-scale limit 1000000"),
            (1, 10**400, 5, 1, "exceeds the ground range 4294967295"),
            (0, 3, 5, 3, "deriving n needs d >= 1 and k >= 2"),
            (3, 3, 1, 3, "deriving n needs d >= 1 and k >= 2"),
        ],
        ids=["n-small", "n-below-k", "m-large", "k-huge", "r-huge", "d-zero", "k-one"],
    )
    def test_derived_parameters_refused(self, d, r, k, m, message):
        with pytest.raises(ParameterError, match=message):
            random_lowerbound_family(d, r, k, m=m)

    def test_precondition_enforced_without_overrides(self):
        with pytest.raises(ParameterError):
            random_lowerbound_family(3, 3, 5)


class TestExtremalSearch:
    def test_f3_1(self):
        res = extremal_search("family", 3, 1)
        assert res.exact_value == 3 and res.exact
        assert res.witness.m == 2
        assert find_sunflower(res.witness, 3) is None

    def test_h1_small(self):
        for r, k in ((3, 2), (4, 2)):
            res = extremal_search("ls_bounded", r, k, d=1)
            assert res.exact_value == k + r - 1, (r, k)
            assert res.witness.m == res.exact_value - 1
            assert ls_dimension(res.witness)[0] <= 1
            assert find_sunflower(res.witness, r) is None

    def test_h1_full_sweep_up_to_seven(self):
        for r in (3, 4, 5, 6):
            for k in range(1, 8 - r):
                res = extremal_search("ls_bounded", r, k, d=1)
                assert res.exact and res.exact_value == k + r - 1, (r, k)

    def test_f3_2_two_disjoint_triangles(self):
        # 3-sunflower-free 2-sets form graphs with max degree <= 2 (no 3-star)
        # and matching <= 2 (no 3 disjoint edges); the maximum is 6 edges
        res = extremal_search("family", 3, 2)
        assert res.exact and res.exact_value == 7
        assert res.witness.m == 6
        assert find_sunflower(res.witness, 3) is None

    def test_f4_1(self):
        res = extremal_search("family", 4, 1)
        assert res.exact and res.exact_value == 4

    def test_g3_1_and_identities(self):
        res = extremal_search("multifamily", 3, 1)
        assert res.exact_value == 5
        rep = multifamily_identity_report(res)
        assert rep["identities"]["(r-1)*(f-1)+1"] is True
        assert rep["identities"]["(r-1)*f+1"] is False
        assert rep["identities"]["(k-1)*f+1"] is False

    def test_g4_1_matches_same_identity(self):
        rep = multifamily_identity_report(extremal_search("multifamily", 4, 1))
        assert rep["f"] == 4 and rep["g"] == 10
        assert rep["identities"]["(r-1)*(f-1)+1"] is True

    def test_identity_report_needs_uncapped_multifamily(self):
        # f is read back from an uncapped multifamily g, so neither a family
        # result nor a capped one is taken
        for res in (
            extremal_search("family", 3, 2),
            extremal_search("multifamily", 3, 2, ground_cap=4),
        ):
            with pytest.raises(ParameterError):
                multifamily_identity_report(res)

    def test_vc_bounded_singletons(self):
        res = extremal_search("vc_bounded", 3, 1, d=1)
        assert res.exact_value == 3

    def test_budget_abort_is_flagged(self):
        res = extremal_search("family", 3, 2, node_budget=5)
        assert not res.exact
        assert "lower bound" in " ".join(res.notes)

    def test_rejects_bad_kind(self):
        with pytest.raises(ParameterError):
            extremal_search("nope", 3, 1)

    def test_requires_d_for_bounded_kinds(self):
        with pytest.raises(ParameterError):
            extremal_search("ls_bounded", 3, 1)

    @pytest.mark.parametrize("kind", ["family", "multifamily"])
    def test_rejects_d_for_unbounded_kinds(self, kind):
        with pytest.raises(ParameterError, match=rf"kind '{kind}' takes no d, got 5"):
            extremal_search(kind, 3, 2, d=5)

    @pytest.mark.parametrize(
        "r, k, cap",
        [(3, 1, None), (4, 1, None), (5, 1, None), (3, 2, None),
         (3, 2, 4), (3, 2, 5), (3, 3, 4), (3, 3, 5), (4, 2, 4)],
    )
    def test_multifamily_matches_brute_force(self, r, k, cap):
        # the reduction to the family search against a direct enumeration of
        # multifamilies, repeats allowed
        value, members, ground = brute_extremal_multifamily(r, k, cap)
        res = extremal_search("multifamily", r, k, ground_cap=cap)
        assert res.exact and res.witness.multifamily
        assert (res.exact_value, res.witness.members) == (value, members)
        assert res.witness.ground_size == ground

    @pytest.mark.parametrize("cap", [-5, 0, 1])
    def test_rejects_ground_cap_below_k(self, cap):
        with pytest.raises(ParameterError, match=rf"ground_cap >= k = 2, got {cap}"):
            extremal_search("family", 3, 2, ground_cap=cap)
        assert extremal_search("family", 3, 2, ground_cap=2).exact_value == 2

    def test_witness_invariants(self):
        res = extremal_search("ls_bounded", 3, 2, d=1)
        assert res.witness.m == res.exact_value - 1
        assert res.nodes > 0


# (kind, r, k, d) -> (exact_value, nodes, check_nodes, max_ground_used,
# witness members) for the eight cases of the extremal benchmark
EXTREMAL_SUITE = {
    ("family", 3, 2, None): (7, 30, 33, 6, ((0, 1), (0, 2), (1, 2), (3, 4), (3, 5), (4, 5))),
    ("family", 4, 2, None): (
        11,
        4178,
        7741,
        12,
        ((0, 1), (0, 2), (0, 3), (1, 2), (1, 3), (2, 4), (3, 4), (4, 5), (5, 6), (5, 7)),
    ),
    ("multifamily", 3, 2, None): (
        13,
        30,
        33,
        6,
        ((0, 1), (0, 1), (0, 2), (0, 2), (1, 2), (1, 2),
         (3, 4), (3, 4), (3, 5), (3, 5), (4, 5), (4, 5)),
    ),
    ("ls_bounded", 3, 3, 1): (5, 90, 302, 8, ((0, 1, 2), (0, 1, 3), (0, 2, 3), (1, 2, 3))),
    ("ls_bounded", 4, 2, 1): (5, 20, 40, 6, ((0, 1), (0, 2), (0, 3), (4, 5))),
    ("ls_bounded", 3, 4, 1): (
        6,
        636,
        2390,
        12,
        ((0, 1, 2, 3), (0, 1, 2, 4), (0, 1, 3, 4), (0, 2, 3, 4), (1, 2, 3, 4)),
    ),
    ("vc_bounded", 3, 3, 1): (
        9,
        1375,
        2349,
        14,
        ((0, 1, 2), (0, 1, 3), (0, 4, 5), (0, 4, 6),
         (7, 8, 9), (7, 8, 10), (7, 11, 12), (7, 11, 13)),
    ),
    ("vc_bounded", 4, 2, 1): (
        10,
        173,
        269,
        12,
        ((0, 1), (0, 2), (0, 3), (4, 5), (4, 6), (4, 7), (8, 9), (8, 10), (8, 11)),
    ),
}


# (kind, r, k, d, ground_cap) -> (exact_value, nodes, check_nodes,
# max_ground_used, witness members): the ground-cap path, the d = 0 caps and
# r = 5
EXTREMAL_CAPPED = {
    ("family", 3, 2, None, 4): (5, 10, 4, 4, ((0, 1), (0, 2), (1, 3), (2, 3))),
    ("family", 4, 2, None, 6): (
        10,
        424,
        148,
        6,
        ((0, 1), (0, 2), (0, 3), (1, 2), (1, 4), (2, 5), (3, 4), (3, 5), (4, 5)),
    ),
    # k = 3: one node's candidates mix low parts of several sizes
    ("family", 3, 3, None, 7): (
        13,
        39676,
        24696,
        7,
        ((0, 1, 2), (0, 1, 3), (0, 2, 3), (0, 4, 5), (0, 4, 6), (0, 5, 6),
         (1, 2, 4), (1, 3, 5), (1, 4, 5), (2, 3, 6), (2, 4, 6), (3, 5, 6)),
    ),
    ("vc_bounded", 3, 3, 1, 7): (5, 184, 128, 7, ((0, 1, 2), (0, 1, 3), (0, 2, 3), (1, 2, 3))),
    # d = 2: the closing sets are 3-sets, each with 8 traces
    ("vc_bounded", 3, 3, 2, 6): (
        11,
        2132,
        1129,
        6,
        ((0, 1, 2), (0, 1, 3), (0, 2, 4), (0, 3, 5), (0, 4, 5),
         (1, 2, 5), (1, 3, 4), (1, 4, 5), (2, 3, 4), (2, 3, 5)),
    ),
    # k = 4: members bring fresh elements up to a wider ground
    ("vc_bounded", 3, 4, 1, 9): (
        7,
        4503,
        3248,
        9,
        ((0, 1, 2, 3), (0, 1, 2, 4), (0, 1, 3, 4), (0, 2, 3, 5), (2, 3, 6, 7), (2, 3, 6, 8)),
    ),
    ("ls_bounded", 3, 4, 1, 8): (
        6,
        390,
        867,
        8,
        ((0, 1, 2, 3), (0, 1, 2, 4), (0, 1, 3, 4), (0, 2, 3, 4), (1, 2, 3, 4)),
    ),
    # r = 5: the sunflower test walks for three disjoint petals
    ("vc_bounded", 5, 2, 1, None): (
        17,
        2847,
        5838,
        20,
        ((0, 1), (0, 2), (0, 3), (0, 4), (5, 6), (5, 7), (5, 8), (5, 9),
         (10, 11), (10, 12), (10, 13), (10, 14), (15, 16), (15, 17), (15, 18), (15, 19)),
    ),
    ("vc_bounded", 3, 2, 0, None): (2, 2, 0, 2, ((0, 1),)),
    ("ls_bounded", 3, 3, 0, None): (2, 2, 0, 3, ((0, 1, 2),)),
    # d >= 2: the LS cap's test recurses past the first split
    ("ls_bounded", 3, 3, 2, 6): (
        8,
        2069,
        1745,
        6,
        ((0, 1, 2), (0, 1, 3), (0, 2, 3), (0, 4, 5), (1, 2, 4), (1, 3, 4), (2, 3, 4)),
    ),
    ("ls_bounded", 3, 3, 3, 6): (
        11,
        2211,
        1157,
        6,
        ((0, 1, 2), (0, 1, 3), (0, 2, 4), (0, 3, 5), (0, 4, 5),
         (1, 2, 5), (1, 3, 4), (1, 4, 5), (2, 3, 4), (2, 3, 5)),
    ),
    ("ls_bounded", 4, 2, 2, None): (
        11,
        4178,
        17702,
        12,
        ((0, 1), (0, 2), (0, 3), (1, 2), (1, 3), (2, 4), (3, 4), (4, 5), (5, 6), (5, 7)),
    ),
    # the d >= 2 case where building the cap's split table at every level,
    # not only at the top, costs more than it saves
    ("ls_bounded", 3, 3, 2, 7): (
        10,
        22297,
        59104,
        7,
        ((0, 1, 2), (0, 1, 3), (0, 2, 3), (1, 2, 4), (1, 3, 5),
         (1, 4, 5), (2, 3, 6), (2, 4, 6), (3, 5, 6)),
    ),
}


def _repeated(members, times):
    return tuple(mem for mem in members for _ in range(times))


# a multifamily runs the family search: the same nodes, and g = 3(f - 1) + 1
# at r = 4 with the family witness's members each repeated 3 times
EXTREMAL_CAPPED[("multifamily", 4, 2, None, None)] = (
    31, 4178, 7741, 12, _repeated(EXTREMAL_SUITE[("family", 4, 2, None)][-1], 3)
)
EXTREMAL_CAPPED[("multifamily", 4, 2, None, 6)] = (
    28, 424, 148, 6, _repeated(EXTREMAL_CAPPED[("family", 4, 2, None, 6)][-1], 3)
)


class TestExtremalPinned:
    """Value, node count and witness of each search stay fixed: a change to
    the per-node checks must keep every pruning decision."""

    @pytest.mark.parametrize(
        "case", list(EXTREMAL_SUITE), ids=lambda case: "-".join(map(str, case))
    )
    def test_suite_case(self, case):
        kind, r, k, d = case
        value, nodes, check_nodes, ground, witness = EXTREMAL_SUITE[case]
        res = extremal_search(kind, r, k, d=d)
        assert res.exact
        assert (res.exact_value, res.nodes, res.max_ground_used) == (value, nodes, ground)
        assert res.check_nodes == check_nodes
        assert res.witness.members == witness
        assert res.witness.ground_size == 1 + max(e for mem in witness for e in mem)

    @pytest.mark.parametrize(
        "case", list(EXTREMAL_CAPPED), ids=lambda case: "-".join(map(str, case))
    )
    def test_capped_and_d0_case(self, case):
        kind, r, k, d, cap = case
        value, nodes, check_nodes, ground, witness = EXTREMAL_CAPPED[case]
        res = extremal_search(kind, r, k, d=d, ground_cap=cap)
        assert res.exact
        assert (res.exact_value, res.nodes, res.max_ground_used) == (value, nodes, ground)
        assert res.check_nodes == check_nodes
        assert res.witness.members == witness

    @pytest.mark.parametrize("r, k, d", [(3, 2, 2), (3, 2, 3), (3, 3, 3)])
    def test_vc_cap_at_or_above_k_is_the_family_search(self, monkeypatch, r, k, d):
        # no k-set holds a (d+1)-set, so the VC search is the family search,
        # its nodes, check nodes and witness included, and lists no closing set
        def refused(*args):
            raise AssertionError("a VC search with d >= k built a closing list")

        monkeypatch.setattr(_TraceTable, "closing", refused)
        res = extremal_search("vc_bounded", r, k, d=d, ground_cap=7)
        family = extremal_search("family", r, k, ground_cap=7)
        assert res == family._replace(kind="vc_bounded", d=d)

    @pytest.mark.parametrize(
        "kind, r, k, budget, value, ground",
        [("vc_bounded", 3, 3, 300, 9, 14), ("ls_bounded", 3, 4, 100, 6, 11)],
    )
    def test_budget_abort_point(self, kind, r, k, budget, value, ground):
        res = extremal_search(kind, r, k, d=1, node_budget=budget)
        assert not res.exact
        assert (res.exact_value, res.nodes, res.max_ground_used) == (value, budget + 1, ground)
        assert res.witness.members == EXTREMAL_SUITE[(kind, r, k, 1)][-1]

    def test_multifamily_budget_abort_point(self):
        # the family search stops with 7 members, so f >= 8 and
        # g >= 3 * (8 - 1) + 1
        res = extremal_search("multifamily", 4, 2, node_budget=8)
        assert not res.exact
        assert "lower bound" in " ".join(res.notes)
        assert (res.exact_value, res.nodes, res.max_ground_used) == (22, 9, 6)
        family = ((0, 1), (0, 2), (0, 3), (1, 2), (1, 3), (2, 3), (4, 5))
        assert res.witness.members == _repeated(family, 3)
        assert res.witness.ground_size == 6


def _sunflower_through(masks, cand, r, budget):
    """Whether ``cand`` and ``r - 1`` of the sunflower-free ``masks`` form an
    r-sunflower: some group of equal ``mask & cand`` (the core) holds ``r - 1``
    members whose petals outside the core are pairwise disjoint: the
    whole-family reference for the search's pair test ``_sunflower_test``."""
    groups = {}
    for mk in masks:
        core = mk & cand
        groups.setdefault(core, []).append(mk & ~core)
    return any(
        len(petals) >= r - 1 and _disjoint_subset(petals, budget, r - 1) is not None
        for petals in groups.values()
    )


def _sunflower_walk(old, x, cand, r, budget):
    """The pair test as a walk: ``old`` grouped by its trace on ``x``, and
    the petals of the group of ``x & cand`` that miss ``cand`` searched for
    ``r - 2`` pairwise disjoint ones by ``_disjoint_subset``: the reference
    for the verdict of ``_sunflower_test`` and for the check nodes it spends."""
    groups = {}
    for mk in old:
        groups.setdefault(mk & x, []).append(mk & ~x)
    petals = [p for p in groups.get(x & cand, ()) if not p & cand]
    return len(petals) >= r - 2 and _disjoint_subset(petals, budget, r - 2) is not None


def _canon(mask, u):
    """``mask`` with its elements at or above ``u`` renamed ``u, u + 1, ...``
    in order: no member below ``u`` moves, so a family below ``u`` with
    ``mask`` added is isomorphic to that family with the result added."""
    high = mask >> u
    return (mask ^ (high << u)) | (((1 << high.bit_count()) - 1) << u)


def _normal_form(used, k, cap=None):
    """Every k-set in normal form at ground ``used``, under ``cap``, in
    lexicographic order."""
    out = []
    for cand in combinations(range(used + k), k):
        fresh = [e for e in cand if e >= used]
        if fresh == list(range(used, used + len(fresh))):
            if cap is None or used + len(fresh) <= cap:
                out.append(cand)
    return out


def _family(masks):
    """The multifamily whose members are ``masks``, in order."""
    ground = max(masks, default=0).bit_length()
    return SetFamily(ground, tuple(member_of(mk) for mk in masks), True)


def _has_sunflower(masks, r):
    return find_sunflower(_family(masks), r) is not None


def _vc(masks):
    return vc_dimension(_family(masks))[0]


@st.composite
def parents_and_member(draw):
    """A k-uniform parent that has no r-sunflower and VC dimension <= d, kept
    greedily from random k-sets, and one more k-set; ``multi`` allows
    repeated members."""
    n = draw(st.integers(2, 7))
    k = draw(st.integers(1, min(3, n)))
    r = draw(st.integers(3, 5))
    d = draw(st.integers(0, 2))
    multi = draw(st.booleans())
    ksets = st.sets(st.integers(0, n - 1), min_size=k, max_size=k).map(mask_of)
    parent: list[int] = []
    for mk in draw(st.lists(ksets, max_size=14)):
        trial = parent + [mk]
        if not multi and mk in parent:
            continue
        if _has_sunflower(trial, r):
            continue
        if _vc(trial) <= d:
            parent.append(mk)
    return n, r, d, parent, draw(ksets)


@st.composite
def family_below_and_member(draw):
    """A list of k-sets of ``range(u)`` and a k-set that may hold elements at
    or above ``u``."""
    u = draw(st.integers(1, 6))
    k = draw(st.integers(1, min(3, u)))
    below = st.sets(st.integers(0, u - 1), min_size=k, max_size=k).map(mask_of)
    family = draw(st.lists(below, max_size=10))
    cand = draw(st.sets(st.integers(0, u + 2 * k), min_size=k, max_size=k).map(mask_of))
    return u, family, cand


@st.composite
def passed_at_parent(draw):
    """Some members in normal form at ``above``, as masks in lexicographic
    order of their tuples, and a child ground ``used`` at most ``k`` above it
    with an optional cap.  Every list the search passes on is in that order,
    and ``_relabellings`` relies on it to leave its output unsorted."""
    above = draw(st.integers(0, 4))
    k = draw(st.integers(1, 3))
    used = draw(st.integers(above, above + k))
    cap = draw(st.none() | st.integers(used, used + k))
    passed = draw(st.lists(st.sampled_from(_normal_form(above, k)), unique=True))
    return [mask_of(mem) for mem in sorted(passed)], above, used, k, cap


class TestTraceTable:
    """The closing list each VC node builds from the trace table carried
    down its path equals the brute-force list of its (d+1)-subsets."""

    @pytest.mark.parametrize(
        "r, k, d, cap, budget",
        [
            (3, 2, 0, None, None),
            (4, 3, 0, None, None),
            (3, 3, 1, None, None),
            (3, 3, 1, 7, None),
            (4, 2, 1, None, None),
            (3, 4, 1, None, 1500),
            (3, 3, 2, 6, None),
            (3, 4, 2, 7, 1500),
        ],
    )
    def test_closing_at_every_node(self, monkeypatch, r, k, d, cap, budget):
        build = _TraceTable.closing
        seen_at = {"built": 0, "fresh": 0, "grown": 0}

        def checked(table, masks, used, seen):
            out = build(table, masks, used, seen)
            want = brute_closing_traces(masks[:-1], masks[-1], d, used)
            assert sorted(out[1]) == sorted(want)
            ground = max(map(int.bit_length, masks[:-1]), default=0)
            seen_at["built"] += 1
            seen_at["fresh"] += ground > 0 and masks[-1].bit_length() > ground
            seen_at["grown"] += ground > 0 and seen[0] < used
            return out

        monkeypatch.setattr(_TraceTable, "closing", checked)
        extremal_search("vc_bounded", r, k, d=d, ground_cap=cap, node_budget=budget)
        assert seen_at["built"] > 0
        if d > 0:
            # a child whose newest member adds fresh elements, and a path
            # whose table is remade on a ground past it
            assert seen_at["fresh"] > 0 and seen_at["grown"] > 0


class TestIncrementalChecks:
    @settings(max_examples=300, deadline=None)
    @given(parents_and_member())
    def test_sunflower_through_new_member(self, case):
        _, r, _, parent, cand = case
        whole = _has_sunflower(parent + [cand], r)
        assert _sunflower_through(parent, cand, r, Budget(None)) == whole

    @settings(max_examples=300, deadline=None)
    @given(parents_and_member())
    def test_new_shattered_set(self, case):
        # the parent is F + x; for a candidate c with F + c VC <= d, c
        # shatters a new set exactly when it shows a listed missing trace
        n, _, d, parent, cand = case
        assume(parent and _vc(parent[:-1] + [cand]) <= d)
        _, closing = _TraceTable(d).closing(parent, n, (0, None))
        shows = any(cand & s == trace for s, trace in closing)
        assert shows == (_vc(parent + [cand]) > d)

    @settings(max_examples=300, deadline=None)
    @given(parents_and_member())
    def test_closing_down_a_path(self, case):
        # the tables handed down a path, one member at a time, each node at
        # the least ground that holds its members, so the table grows; a
        # first path has already grown it one past the whole ground
        n, _, d, parent, _ = case
        table, seen = _TraceTable(d), (0, None)
        table.closing([(1 << n + 1) - 1], n + 1, seen)
        for i in range(1, len(parent) + 1):
            masks = parent[:i]
            used = max(map(int.bit_length, masks))
            seen, closing = table.closing(masks, used, seen)
            want = brute_closing_traces(masks[:-1], masks[-1], d, used)
            assert sorted(closing) == sorted(want)

    @settings(max_examples=300, deadline=None)
    @given(parents_and_member())
    def test_sunflower_with_pair(self, case):
        # the parent is F + x; one test built for the node answers every
        # k-set c as the walk does, spending the same check nodes, and for a
        # c with F + c sunflower-free as the whole-family check on F + x + c
        n, r, _, parent, cand = case
        assume(parent)
        old, x = parent[:-1], parent[-1]
        spent, walked = Budget(None), Budget(None)
        test = _sunflower_test(old, x, r, spent)
        for c in map(mask_of, combinations(range(n), cand.bit_count())):
            assert test(c) == _sunflower_walk(old, x, c, r, walked), c
            assert spent.used == walked.used, c
        if not _sunflower_through(old, cand, r, Budget(None)):
            assert test(cand) == _sunflower_through(parent, cand, r, Budget(None))

    @settings(max_examples=300, deadline=None)
    @given(passed_at_parent())
    def test_relabellings_are_the_candidates_that_pass_lookup(self, case):
        # a child's candidates are the normal-form k-sets whose relabelling
        # at the parent's ground passed there
        passed, above, used, k, cap = case
        lookup = set(passed)
        normal = map(mask_of, _normal_form(used, k, cap))
        want = [c for c in normal if _canon(c, above) in lookup]
        assert _relabellings(passed, above, used, k, cap, {})[0] == want

    @settings(max_examples=300, deadline=None)
    @given(passed_at_parent())
    def test_relabellings_suffix_per_child(self, case):
        # child i of a node takes the suffix of its siblings' list from
        # block i, which is the list made from ``passed[i:]`` alone
        passed, above, used, k, cap = case
        tables: dict = {}
        relabelled, starts = _relabellings(passed, above, used, k, cap, tables)
        assert len(starts) == len(passed)
        for i in range(len(passed)):
            alone, _ = _relabellings(passed[i:], above, used, k, cap, tables)
            assert relabelled[starts[i]:] == alone

    @settings(max_examples=300, deadline=None)
    @given(family_below_and_member())
    def test_relabelled_candidate_same_verdict(self, case):
        u, family, cand = case
        canon = _canon(cand, u)
        low = (1 << u) - 1
        assert canon & low == cand & low
        assert canon >> u == (1 << (cand >> u).bit_count()) - 1
        one, other = family + [cand], family + [canon]
        for r in (3, 4):
            assert _has_sunflower(one, r) == _has_sunflower(other, r)
        assert _vc(one) == _vc(other)
        n = max(one + other).bit_length()
        fams = [SetFamily(n, tuple(member_of(mk) for mk in f), True) for f in (one, other)]
        assert ls_dimension(fams[0])[0] == ls_dimension(fams[1])[0]

    @settings(max_examples=300, deadline=None)
    @given(st.lists(st.tuples(st.integers(0, 2), st.integers(0, 15)), max_size=24))
    @example([(0, 0), (0, 2), (0, 3), (0, 10), (1, 1)])  # member 3 replaced
    def test_solver_push_pop(self, steps):
        # one solver through random steps, each popping up to ``pops``
        # members and pushing ``mask``: after each push, its memo must answer
        # as a fresh family's search does
        solver = LittlestoneSolver(Budget(None))
        masks: list[int] = []
        for pops, mask in steps:
            for _ in range(min(pops, len(masks))):
                solver.pop()
                masks.pop()
            if mask not in masks:
                solver.push(mask)
                masks.append(mask)
                fresh = SetFamily(4, tuple(member_of(mk) for mk in masks))
                assert solver.value((1 << len(masks)) - 1) == ls_dimension(fresh)[0]
