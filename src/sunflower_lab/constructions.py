"""Generators for structured families and tiny-scale exhaustive extremal search.

The extremal search enumerates families in a normal form (members in
lexicographic order, ground elements introduced in first-appearance order),
which reaches every isomorphism class at least once: scanning any family's
members greedily by least relabeled tuple yields such a representation.  All
constraints used for pruning (sunflower-freeness, dimension caps) are
hereditary under taking subfamilies, so pruning never loses the optimum.

Each node tests its candidate members once and passes the list that passed
down to its children, which inherit those verdicts (forward checking).  A
node's family F holds no element at or above its ground ``used``, so renaming
a candidate's elements at or above ``used`` to ``used, used + 1, ...`` in
order is an isomorphism fixing F: F + c meets the constraints exactly when
F + c' does, c' the renamed c.  A child's candidate c sorts after F's last
member, and so does c', which is in normal form at ``used``: the node tested
it.  A child, which adds member x, therefore takes as candidates only the
normal-form sets whose renaming passed (a candidate that failed with F fails
with F + x, the constraints being hereditary), and re-tests each for what x
and it break together:

* a new r-sunflower holds both, so its core is x & c, and r - 2 more members
  meet both in that core with pairwise disjoint petals outside it: the node
  groups F's members by their trace on x once, and c reads only the group
  of x & c, its petals those that miss c.  At r = 3 c fails on the first
  such petal, at r = 4 on the first disjoint pair of them, and from r = 5
  on a walk finds r - 2 pairwise disjoint ones.  The check nodes spent are
  the walk's at every r: one for a petal at r = 3; at r = 4 one when two
  petals miss c and one more for a pair;
* a newly shattered (d+1)-set S gets from c the one trace that F + x lacks,
  and x's trace on S is new to F, since otherwise F + c shatters S; so the
  node lists once the sets on which x's trace is new and F + x shows every
  trace but one, and c fails when it shows a listed missing trace: per
  trace pattern, a bitset over the (d+1)-sets marks where F shows it, a
  child adds its new member's patterns to its parent's, and bitset logic
  gives the listed sets;
* F + c has Littlestone dimension d + 1 only if F has d and, at some
  element that splits F, the side without c reaches d and the side with c
  reaches d with c: the node builds one test for all its candidates, which
  at d = 1 is two ANDs with the elements whose sides reach 1, and only
  subfamilies of F are evaluated, on one solver whose memo serves every
  candidate, its members pushed on the way down, popped on backtrack.

Members and candidates are masks from the root down; tuples appear only in
the witness.  Candidates are listed least first, with no sort, as each
passed member's low part (its elements below the parent's ground) with each
tail from a table the search builds once per ground pair and tail size.
Child i's list comes from the members that passed from i on, so a node
builds one list for the children on each ground and hands each child its
suffix.  The root's one candidate, the first k elements, is not tested: a
family of one member meets every constraint.

Multifamilies reduce to families.  An r-sunflower holding two copies of a
k-set S has core S, so each of its other members contains S and, being a
k-set, equals S.  So a multifamily of k-sets is sunflower-free exactly when
its distinct members are and no set appears r times: g = (r - 1)(f - 1) + 1,
and the family witness with each member repeated r - 1 times is the least
multifamily witness (repeating adds no element and keeps the order).
"""

from __future__ import annotations

import math
from fractions import Fraction
from itertools import combinations
from typing import Callable, NamedTuple, Optional, Sequence

from .dimensions import LittlestoneSolver
from .errors import BudgetExceededError, InvalidFamilyError, ParameterError
from .family import _UINT32_MAX, Member, SetFamily, _disjoint_subset, mask_of, member_of
from .rng import Budget, seeded_rng

_DESK_MEMBER_LIMIT = 1_000_000


# ---------------------------------------------------------------------------
# explicit constructions


def tree_family(r: int, k: int) -> SetFamily:
    """Root-to-leaf path sets of the complete (r-1)-ary tree with k levels.

    The family is k-uniform with (r-1)^(k-1) members, has VC dimension at
    most 1 and contains no r-sunflower.
    """
    if r < 3:
        raise ParameterError("tree_family requires r >= 3")
    if k < 1:
        raise ParameterError("tree_family requires k >= 1")
    branch = r - 1
    size = branch ** (k - 1)
    if size > _DESK_MEMBER_LIMIT:
        raise ParameterError(f"tree_family would have {size} members (limit {_DESK_MEMBER_LIMIT})")
    # vertices numbered level by level
    offsets = [0]
    for level in range(1, k):
        offsets.append(offsets[-1] + branch ** (level - 1))
    ground = offsets[-1] + branch ** (k - 1)
    members = []
    for leaf in range(size):
        path = []
        for level in range(k):
            path.append(offsets[level] + leaf // branch ** (k - 1 - level))
        members.append(tuple(path))
    return SetFamily(ground, tuple(members), False)


def product_family(first: SetFamily, second: SetFamily) -> SetFamily:
    """Every member of ``first`` unioned with each member of a fresh copy of
    ``second`` (one disjoint copy per member of ``first``).

    Inputs must be uniform with distinct members; the result is
    (k1+k2)-uniform of size m1*m2 and inherits sunflower-freeness from the
    factors.
    """
    k1 = first.is_uniform()
    k2 = second.is_uniform()
    if k1 is None or k2 is None:
        raise ParameterError("product_family requires uniform factors")
    if first.m == 0 or second.m == 0:
        raise ParameterError("product_family requires nonempty factors")
    for fam, name in ((first, "first"), (second, "second")):
        if len(set(fam.members)) != fam.m:
            raise InvalidFamilyError(f"product_family: {name} factor has duplicate members")
    n1 = first.ground_size
    n2 = second.ground_size
    ground = n1 + first.m * n2
    members = []
    for i, base in enumerate(first.members):
        offset = n1 + i * n2
        for tail in second.members:
            members.append(base + tuple(offset + e for e in tail))
    return SetFamily(ground, tuple(members), False)


def ls1_family(r: int, k: int) -> SetFamily:
    """A k-uniform family of k+r-2 members with Littlestone dimension 1 and
    no r-sunflower.

    Chain elements c_1..c_{k-1} each lie in every member except one: member j
    misses c_j and carries two private elements, and the remaining r-1
    members hold the whole chain plus one private element.  Every element is
    in at most one or in exactly m-1 members, which characterizes Littlestone
    dimension <= 1; and any r members include one that misses a chain
    element, which breaks pairwise-equal intersections.  For k = 1 the family
    is r-1 singletons.
    """
    if r < 2:
        raise ParameterError("ls1_family requires r >= 2")
    if k < 1:
        raise ParameterError("ls1_family requires k >= 1")
    chain = tuple(range(k - 1))
    next_id = k - 1
    members = []
    for i in range(k - 1):
        mem = [c for c in chain if c != i] + [next_id, next_id + 1]
        next_id += 2
        members.append(tuple(sorted(mem)))
    for _ in range(r - 1):
        members.append(chain + (next_id,))
        next_id += 1
    return SetFamily(next_id, tuple(members), False)


def pad_to_uniform(family: SetFamily, k: int) -> SetFamily:
    """Pad every member up to size ``k`` with fresh elements, each used in
    exactly one member.  Members already of size ``k`` are unchanged."""
    if family.max_member_size() > k:
        raise ParameterError(f"a member exceeds target size {k}")
    next_id = family.ground_size
    members = []
    for mem in family.members:
        deficit = k - len(mem)
        members.append(mem + tuple(range(next_id, next_id + deficit)))
        next_id += deficit
    return SetFamily(next_id, tuple(members), family.multifamily)


# ---------------------------------------------------------------------------
# randomized lower-bound style generator


class RandomFamilyReport(NamedTuple):
    d: int
    r: int
    k: int
    seed: int
    n: int
    t: int
    m_requested: int
    m_distinct: int
    used_recipe: bool
    notes: tuple[str, ...]


def random_lowerbound_family(
    d: int,
    r: int,
    k: int,
    n: Optional[int] = None,
    m: Optional[int] = None,
    seed: int = 0,
) -> tuple[SetFamily, RandomFamilyReport]:
    """``m`` uniform random k-subsets of [n], duplicates collapsed.

    Without overrides, n and m follow the randomized lower-bound recipe
    n = k^2 r / (500 d log2 k), t = ceil(log2 d), m = n^(d-t-1) / k^(d-t),
    both rounded down (the rounding is reported).  The recipe needs d >= 6,
    r >= 3, k >= 4d and is rejected with guidance when it yields n < k or
    m < 1; overrides n and m are accepted at any desk scale.
    """
    notes: list[str] = []
    used_recipe = n is None and m is None
    if used_recipe:
        if d < 6 or r < 3 or k < 4 * d:
            raise ParameterError(
                "derived parameters need d >= 6, r >= 3, k >= 4d; pass n and m overrides"
            )
    t = (d - 1).bit_length() if d >= 1 else 0
    exact_n = None
    if n is None:
        if d < 1 or k < 2:
            raise ParameterError("deriving n needs d >= 1 and k >= 2; pass an n override")
        # log2(k) is taken as the exact value of its float, so k^2 r, which a
        # huge k takes past the float range, is never converted to a float
        exact_n = Fraction(k * k * r, 500 * d) / Fraction(math.log2(k))
        n = math.floor(exact_n)
    derived_m = m is None
    if derived_m:
        m = n ** (d - t) // (k ** (d - t) * n) if n >= 1 and d - t >= 0 else 0
    if n < k or m < 1:
        raise ParameterError(
            f"derived n={n}, m={m} infeasible (need n >= k and m >= 1); "
            "pass n and m overrides for desk scale"
        )
    if m > _DESK_MEMBER_LIMIT:
        raise ParameterError(f"m={m} exceeds the desk-scale limit {_DESK_MEMBER_LIMIT}")
    if n > _UINT32_MAX:
        raise ParameterError(f"n={n} exceeds the ground range {_UINT32_MAX}")
    if exact_n is not None:  # below the ground range, so a float holds it
        notes.append(f"n rounded down from {float(exact_n):.6g} to {n}")
    if derived_m:
        notes.append(f"m computed as floor(n^(d-t) / (k^(d-t) n)) = {m}")

    rng = seeded_rng("randomlb", seed)
    drawn: list[Member] = []
    for _ in range(m):
        # Floyd's sampling: k distinct elements of range(n)
        chosen: set[int] = set()
        for j in range(n - k, n):
            pick = rng.randrange(j + 1)
            chosen.add(j if pick in chosen else pick)
        drawn.append(tuple(sorted(chosen)))
    family, _ = SetFamily(n, tuple(drawn), True).distinct()
    if family.m < m:
        notes.append(f"{m - family.m} duplicate draws collapsed")
    report = RandomFamilyReport(
        d=d,
        r=r,
        k=k,
        seed=seed,
        n=n,
        t=t,
        m_requested=m,
        m_distinct=family.m,
        used_recipe=used_recipe,
        notes=tuple(notes),
    )
    return family, report


# ---------------------------------------------------------------------------
# exhaustive extremal search

EXTREMAL_KINDS = ("family", "multifamily", "ls_bounded", "vc_bounded")


class ExtremalResult(NamedTuple):
    """Outcome of an exhaustive search for the least size forcing an r-sunflower.

    ``exact_value`` is the least m such that every family of k-sets of size m
    under the kind's constraint contains an r-sunflower; ``witness`` is a
    largest sunflower-free family found (of size ``exact_value - 1`` when the
    search completed).  ``exact=False`` flags a budget abort, in which case
    ``exact_value`` is only a lower bound.  A ``multifamily`` result is
    derived from a ``family`` search, whose ``nodes`` and ``check_nodes`` it has.
    """

    kind: str
    r: int
    k: int
    d: Optional[int]
    exact_value: int
    witness: SetFamily
    exact: bool
    nodes: int
    check_nodes: int
    ground_cap: Optional[int]
    max_ground_used: int
    notes: tuple[str, ...] = ()


def extremal_search(
    kind: str,
    r: int,
    k: int,
    d: Optional[int] = None,
    ground_cap: Optional[int] = None,
    node_budget: Optional[int] = None,
) -> ExtremalResult:
    """Exact extremal value by normal-form backtracking, tiny scales only.

    Kinds: ``family`` (no constraint), ``multifamily`` (repeats allowed; the
    ``family`` search under the same cap and budget, derived as the module
    docstring shows), ``ls_bounded`` / ``vc_bounded`` (dimension at most
    ``d``, which no other kind takes; ``vc_bounded`` with ``d >= k`` is the
    ``family`` search, as no k-set holds a (d+1)-set).  The first-appearance
    normal form bounds the ground set by m*k; ``ground_cap`` may tighten it.
    On budget exhaustion the best bound found so far is returned flagged
    inexact.
    """
    if kind not in EXTREMAL_KINDS:
        raise ParameterError(f"unknown extremal kind {kind!r}")
    if r < 3:
        raise ParameterError("extremal_search requires r >= 3")
    if k < 1:
        raise ParameterError("extremal_search requires k >= 1")
    if ground_cap is not None and ground_cap < k:
        raise ParameterError(f"extremal_search requires ground_cap >= k = {k}, got {ground_cap}")
    if kind in ("ls_bounded", "vc_bounded"):
        if d is None or d < 0:
            raise ParameterError(f"kind {kind!r} requires d >= 0")
    elif d is not None:
        raise ParameterError(f"kind {kind!r} takes no d, got {d}")
    if kind == "multifamily":
        res = extremal_search("family", r, k, ground_cap=ground_cap, node_budget=node_budget)
        members = tuple(mem for mem in res.witness.members for _ in range(r - 1))
        witness = SetFamily(res.witness.ground_size, members, True)
        g = (r - 1) * (res.exact_value - 1) + 1
        return res._replace(kind=kind, exact_value=g, witness=witness)
    if kind == "vc_bounded" and d >= k:
        # no k-set holds a (d+1)-set, so no family of k-sets shatters one
        res = extremal_search("family", r, k, ground_cap=ground_cap, node_budget=node_budget)
        return res._replace(kind=kind, d=d)

    budget = Budget(node_budget)
    # the per-candidate checks count their own nodes, apart from ``nodes``
    checks = Budget(None)
    solver = LittlestoneSolver(checks)
    table = _TraceTable(d) if kind == "vc_bounded" else None
    tails: dict[tuple[int, int, int], list[int]] = {}  # see _relabellings
    aborted = False
    best: list[int] = []
    max_ground_used = 0

    def extend(masks: list[int], used: int, candidates: list[int], seen: tuple) -> None:
        # ``candidates``: the members in normal form at ground ``used`` whose
        # relabelling passed at the parent, in lexicographic order; ``seen``:
        # in a VC search, the trace table of ``masks[:-1]`` (see _TraceTable)
        nonlocal best, max_ground_used
        budget.spend()
        if len(masks) > len(best):
            best = masks
        max_ground_used = max(max_ground_used, used)
        kept = candidates
        shown = seen  # the trace table of ``masks`` once a VC node builds it
        if masks:  # a one-member family meets every constraint
            kept = []
            old, x = masks[:-1], masks[-1]
            # the sunflower test, the VC closing sets and the LS cap's test,
            # made once, when a candidate first needs them
            sunflower = closing = grows = None
            for cand in candidates:
                # a relabelled candidate sorts at or after ``x``, whose
                # relabelling is itself and which a family holds once
                if cand == x:
                    continue
                if sunflower is None:
                    sunflower = _sunflower_test(old, x, r, checks)
                if sunflower(cand):
                    continue
                if kind == "vc_bounded":
                    # a candidate c that shatters a new set shatters one
                    # below ``used``: with d >= 1 each of its elements lies
                    # in two members, and with d = 0 ``old`` is empty and c
                    # misses an element of x
                    if closing is None:
                        shown, closing = table.closing(masks, used, seen)
                    if any(cand & s == trace for s, trace in closing):
                        continue
                if kind == "ls_bounded":
                    if grows is None:
                        grows = solver.reaches_test((1 << len(masks)) - 1, d + 1)
                    if grows(cand):
                        continue
                kept.append(cand)
        # the children on one ground take suffixes of one list: child ground
        # -> (its first child, that list, where each member's block starts)
        lists: dict[int, tuple[int, list[int], list[int]]] = {}
        for i, cand in enumerate(kept):
            ground = max(used, cand.bit_length())
            if ground not in lists:
                lists[ground] = (i, *_relabellings(kept[i:], used, ground, k, ground_cap, tails))
            first, relabelled, starts = lists[ground]
            if kind == "ls_bounded":
                solver.push(cand)
            extend(masks + [cand], ground, relabelled[starts[i - first]:], shown)
            if kind == "ls_bounded":
                solver.pop()

    try:
        extend([], 0, [(1 << k) - 1], (0, None))
    except BudgetExceededError:
        aborted = True
    # ``extend`` reaches itself, and the solver's memo, through its closure:
    # dropping it breaks that cycle, so the memo is freed when the search
    # returns rather than at some later cyclic garbage collection
    del extend

    witness = SetFamily(max(best, default=0).bit_length(), tuple(map(member_of, best)))
    notes = ("node budget exhausted; exact_value is a lower bound",) if aborted else ()
    return ExtremalResult(
        kind=kind,
        r=r,
        k=k,
        d=d,
        exact_value=len(best) + 1,
        witness=witness,
        exact=not aborted,
        nodes=budget.used,
        check_nodes=checks.used,
        ground_cap=ground_cap,
        max_ground_used=max_ground_used,
        notes=notes,
    )


def _sunflower_test(
    old: Sequence[int], x: int, r: int, checks: Budget
) -> Callable[[int], bool]:
    """Whether ``x``, a candidate c and ``r - 2`` members of ``old`` form an
    r-sunflower, as a test of c.  Its core is ``x & c``, and the others are
    members with that trace on ``x`` whose petals, their parts outside
    ``x``, miss c and are pairwise disjoint: ``old`` is grouped by trace on
    ``x`` once, and c reads the group of ``x & c``.  The test spends
    ``checks`` as :func:`_disjoint_subset` on c's petals would: at r = 3 one
    node when a petal misses c; at r = 4 one when two do, and one more when
    two of those are disjoint; past that, it is that walk."""
    groups: dict[int, list[int]] = {}
    for mk in old:
        groups.setdefault(mk & x, []).append(mk & ~x)

    if r == 3:

        def test(cand: int) -> bool:
            for p in groups.get(x & cand, ()):
                if not p & cand:
                    checks.spend()
                    return True
            return False

    elif r == 4:

        def test(cand: int) -> bool:
            petals = [p for p in groups.get(x & cand, ()) if not p & cand]
            if len(petals) < 2:
                return False
            checks.spend()
            for i, p in enumerate(petals):
                for q in petals[i + 1:]:
                    if not p & q:
                        checks.spend()
                        return True
            return False

    else:
        need = r - 2

        def test(cand: int) -> bool:
            petals = [p for p in groups.get(x & cand, ()) if not p & cand]
            return len(petals) >= need and _disjoint_subset(petals, checks, need) is not None

    return test


class _TraceTable:
    """The traces of members on the (d+1)-subsets of the ground, as bitsets.

    The subsets are indexed in blocks by their largest element, so those of
    ``range(n)`` are the first C(n, d+1) at every n and the index grows with
    the ground the search reaches, renumbering nothing.  A member's pattern
    on a subset has bit j set when it holds the subset's j-th least element.
    A table of members is ``(n, shows)``: ``shows[p]`` marks the subsets of
    ``range(n)`` on which some member has pattern p."""

    __slots__ = ("size", "n", "traces", "holds")

    def __init__(self, d: int):
        self.size = d + 1
        self.n = 0
        self.traces: list[list[int]] = []  # per subset, its trace per pattern
        # holds[j][e]: the subsets whose j-th least element is e
        self.holds: list[list[int]] = [[] for _ in range(self.size)]

    def _grow(self, n: int) -> None:
        for top in range(self.n, n):
            for col in self.holds:
                col.append(0)
            for rest in combinations(range(top), self.size - 1):
                bit = 1 << len(self.traces)
                traces = [0]
                for j, e in enumerate(rest + (top,)):
                    self.holds[j][e] |= bit
                    traces += [t | 1 << e for t in traces]
                self.traces.append(traces)
        self.n = n

    def _patterns(self, mask: int, n: int) -> list[int]:
        """Per pattern, the subsets of ``range(n)`` on which ``mask`` (a
        member below ``n``) has it."""
        out = [(1 << math.comb(n, self.size)) - 1]
        elements = member_of(mask)
        for col in self.holds:
            hold = 0
            for e in elements:
                hold |= col[e]
            out = [b & ~hold for b in out] + [b & hold for b in out]
        return out

    def closing(self, masks: Sequence[int], used: int, seen: tuple) -> tuple[tuple, list]:
        """The table of ``masks`` (members below ``used``), from ``seen``,
        the table of all but the last, x; and ``(s, trace)`` for each
        (d+1)-subset of ``range(used)``, as a mask ``s``, on which x's trace
        is new and ``masks`` show every trace but one, the missing ``trace``:
        a member with that trace shatters ``s``."""
        n, shows = seen
        if n < used:  # a ground past the table: the path's traces anew
            self._grow(max(self.n, used))
            n, shows = self.n, [0] * (1 << self.size)
            for mk in masks[:-1]:
                shows = [a | b for a, b in zip(shows, self._patterns(mk, n))]
        ones = self._patterns(masks[-1], n)
        new = 0
        for a, b in zip(shows, ones):
            new |= b & ~a
        new &= (1 << math.comb(used, self.size)) - 1
        shows = [a | b for a, b in zip(shows, ones)]
        # the subsets showing every pattern before p, and every one after
        before = [new]
        for b in shows:
            before.append(before[-1] & b)
        after = -1
        out = []
        for p in range(len(shows) - 1, -1, -1):
            hits = before[p] & after & ~shows[p]
            after &= shows[p]
            while hits:
                low = hits & -hits
                hits ^= low
                traces = self.traces[low.bit_length() - 1]
                out.append((traces[-1], traces[p]))
        return (n, shows), out


def _relabellings(
    passed: Sequence[int],
    above: int,
    used: int,
    k: int,
    ground_cap: Optional[int],
    tables: dict[tuple[int, int, int], list[int]],
) -> tuple[list[int], list[int]]:
    """The masks of the members in normal form at ground ``used`` (some used
    elements, then a block of fresh ones from ``used``) that give a member
    of ``passed`` when their elements at or above ``above`` are renamed
    ``above, above + 1, ...`` in order, in lexicographic order of their
    tuples; and the index at which each member's block of them starts.

    ``passed`` must be in that order.  Its members, in normal form at
    ``above``, are each a low part below ``above`` and a block from it, so
    their low parts differ and one's block, its low part with each tail of
    ``tables[above, used, high]``, precedes the next one's: the list needs
    no sort, and the list for ``passed[i:]`` is its suffix from block i."""
    spare = k if ground_cap is None else ground_cap - used  # fresh elements allowed
    below = (1 << above) - 1
    out: list[int] = []
    starts: list[int] = []
    for member in passed:
        low = member & below
        high = k - low.bit_count()
        tails = tables.get((above, used, high))
        if tails is None:
            # the high-sets from ``above`` whose elements from ``used`` on are a block
            tails = tables[above, used, high] = []
            for tail in combinations(range(above, used + high), high):
                mk = mask_of(tail)
                fresh = mk >> used
                if not fresh & (fresh + 1) and fresh.bit_length() <= spare:
                    tails.append(mk)
        starts.append(len(out))
        out += [low | tail for tail in tails]
    return out, starts


def multifamily_identity_report(result: ExtremalResult) -> dict:
    """Evaluate which closed form ties the multifamily threshold to the plain one.

    ``result`` is an uncapped ``multifamily`` result: its g was derived from
    the f of a family search as g = (r - 1)(f - 1) + 1, the module docstring
    shows why, so f is read back from g and ``exact`` is that search's.
    """
    if result.kind != "multifamily" or result.ground_cap is not None:
        raise ParameterError("the identity report needs an uncapped multifamily result")
    r, k, g = result.r, result.k, result.exact_value
    f = (g - 1) // (r - 1) + 1
    candidates = {
        "(r-1)*f+1": (r - 1) * f + 1,
        "(k-1)*f+1": (k - 1) * f + 1,
        "(r-1)*(f-1)+1": (r - 1) * (f - 1) + 1,
    }
    return {
        "r": r,
        "k": k,
        "f": f,
        "g": g,
        "exact": result.exact,
        "identities": {name: value == g for name, value in candidates.items()},
        "candidate_values": candidates,
    }
