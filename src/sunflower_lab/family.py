"""Set families over integer ground sets, and the exact combinatorial primitives.

A family is an ordered (multi)collection of finite sets over ground elements
``0..n-1``.  Members are stored as strictly increasing tuples; every search
routine mirrors them as integer bitmasks over the positions of the held
elements in increasing order (never as wide as a label), which makes
intersection and disjointness tests single big-int operations.

All searches are exact and deterministic: witnesses are the lexicographically
least ones, candidate orders are fixed, and no randomness is involved.
"""

from __future__ import annotations

import math
from collections import Counter
from fractions import Fraction
from functools import cached_property, partial
from itertools import combinations
from typing import Callable, Container, Iterable, Iterator, NamedTuple, Optional, Sequence

from .errors import (
    EmptyFamilyError,
    EmptyMemberError,
    InvalidFamilyError,
    ParameterError,
)
from .rng import Budget

Member = tuple[int, ...]

_UINT32_MAX = 2**32 - 1


def mask_of(member: Iterable[int]) -> int:
    m = 0
    for e in member:
        m |= 1 << e
    return m


def member_of(mask: int) -> Member:
    out = []
    while mask:
        low = mask & -mask
        out.append(low.bit_length() - 1)
        mask ^= low
    return tuple(out)


def columns_of(masks: Sequence[int]) -> list[int]:
    """For each bit position up to the highest one some mask holds, the
    bitmask of the masks containing it (0 where none does)."""
    cols = [0] * max(map(int.bit_length, masks), default=0)
    for i, mask in enumerate(masks):
        for e in member_of(mask):
            cols[e] |= 1 << i
    return cols


class SetFamily:
    """An ordered multifamily of finite sets over ground elements ``0..ground_size-1``.

    ``multifamily=False`` additionally promises that members are pairwise
    distinct as sets.  Construction validates all invariants.  A family is
    immutable; it is not a tuple, so it has no length and does not iterate.
    """

    ground_size: int
    members: tuple[Member, ...]
    multifamily: bool

    def __init__(
        self, ground_size: int, members: tuple[Member, ...], multifamily: bool = False
    ):
        n = ground_size
        if not (0 <= n <= _UINT32_MAX):
            raise InvalidFamilyError(f"ground_size {n} out of range")
        if len(members) > _UINT32_MAX:
            raise InvalidFamilyError("too many members")
        for i, mem in enumerate(members):
            prev = -1
            for e in mem:
                if not isinstance(e, int) or isinstance(e, bool):
                    raise InvalidFamilyError(f"member {i}: element {e!r} is not an int")
                if e <= prev:
                    raise InvalidFamilyError(
                        f"member {i} is not strictly increasing at element {e}"
                    )
                if e >= n:
                    raise InvalidFamilyError(
                        f"member {i}: element {e} outside ground [0, {n})"
                    )
                prev = e
        if not multifamily and len(set(members)) != len(members):
            raise InvalidFamilyError("duplicate members in a non-multifamily")
        # written past __setattr__, as cached_property writes its values
        fields = self.__dict__
        fields["ground_size"] = ground_size
        fields["members"] = members
        fields["multifamily"] = multifamily

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete field {name!r}")

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return (self.ground_size, self.members, self.multifamily) == (
            other.ground_size,
            other.members,
            other.multifamily,
        )

    def __hash__(self):
        return hash((self.ground_size, self.members, self.multifamily))

    def __repr__(self):
        return (
            f"{self.__class__.__qualname__}(ground_size={self.ground_size!r}, "
            f"members={self.members!r}, multifamily={self.multifamily!r})"
        )

    @classmethod
    def from_sets(
        cls,
        ground_size: int,
        sets: Iterable[Iterable[int]],
        multifamily: bool = False,
    ) -> "SetFamily":
        """Build a family from arbitrary iterables, sorting each member."""
        members = []
        for s in sets:
            t = tuple(sorted(set(s)))
            members.append(t)
        return cls(ground_size, tuple(members), multifamily)

    @property
    def m(self) -> int:
        return len(self.members)

    @cached_property
    def labels(self) -> tuple[int, ...]:
        """The elements some member holds, in increasing order: position i
        of every mask and column stands for ``labels[i]``.  The numbering
        keeps every order the searches use, so only witnesses need
        :meth:`labels_of`."""
        return tuple(sorted({e for mem in self.members for e in mem}))

    @cached_property
    def masks(self) -> tuple[int, ...]:
        """Each member as a bitmask over the positions of ``labels``."""
        position = {e: i for i, e in enumerate(self.labels)}
        return tuple(mask_of(position[e] for e in mem) for mem in self.members)

    @cached_property
    def columns(self) -> list[int]:
        """The family's column table, :func:`columns_of` its masks, one
        column per position of ``labels``; every search reads it and none
        changes it."""
        return columns_of(self.masks)

    def labels_of(self, mask: int) -> Member:
        """The labels of the positions ``mask`` holds, in increasing order."""
        return tuple(self.labels[i] for i in member_of(mask))

    def max_member_size(self) -> int:
        return max((len(mem) for mem in self.members), default=0)

    def is_uniform(self) -> Optional[int]:
        """The common member size if the family is uniform, else ``None``."""
        sizes = {len(mem) for mem in self.members}
        if len(sizes) == 1:
            return sizes.pop()
        return None

    def distinct(self) -> tuple["SetFamily", tuple[int, ...]]:
        """Collapse duplicate members; returns the family and the kept indices."""
        if not self.multifamily:
            return self, tuple(range(self.m))  # members are distinct already
        return self._distinct

    @cached_property
    def _distinct(self) -> tuple["SetFamily", tuple[int, ...]]:
        seen: dict[Member, int] = {}
        kept = []
        for i, mem in enumerate(self.members):
            if mem not in seen:
                seen[mem] = i
                kept.append(i)
        members = tuple(self.members[i] for i in kept)
        return SetFamily(self.ground_size, members, False), tuple(kept)


class Sunflower(NamedTuple):
    """A witness: ``r`` member indices whose pairwise intersections equal ``core``."""

    core: Member
    member_indices: tuple[int, ...]

    @property
    def r(self) -> int:
        return len(self.member_indices)

    def holds_in(self, family: SetFamily) -> bool:
        """Exact re-check of the witness against ``family``."""
        idx = self.member_indices
        if len(idx) < 2 or len(set(idx)) != len(idx):
            return False
        core = _common_core([family.masks[i] for i in idx])
        return core is not None and family.labels_of(core) == self.core


class FrequencyProfile(NamedTuple):
    """Per-element membership fractions of a family with ``member_count`` members."""

    fractions: tuple[Fraction, ...]
    member_count: int


class PackingResult(NamedTuple):
    value: int
    witness: tuple[int, ...]


class TransversalResult(NamedTuple):
    value: int
    witness: tuple[int, ...]


class LambdaResult(NamedTuple):
    value: int
    witness: tuple[int, ...]
    cap: int
    cap_hit: bool

    @property
    def exact(self) -> bool:
        return not self.cap_hit


# ---------------------------------------------------------------------------
# normal form


def _canonical_pass(members: Sequence[Member]) -> list[Member]:
    ordered = sorted(members)
    relabel: dict[int, int] = {}
    for mem in ordered:
        for e in mem:
            if e not in relabel:
                relabel[e] = len(relabel)
    return sorted(tuple(sorted(relabel[e] for e in mem)) for mem in ordered)


def canonicalize(family: SetFamily) -> SetFamily:
    """Normal form: members sorted, elements relabeled by first appearance;
    not a canonical form, as isomorphic families can map to different ones.

    Sorting and relabeling feed each other, so the pass is iterated to a
    fixed point (random testing shows a handful of passes at most).  If the
    iteration ever cycled, the lexicographically least state of the cycle
    would be returned, keeping the map idempotent either way.
    """
    cur = list(family.members)
    seen: list[list[Member]] = []
    while True:
        nxt = _canonical_pass(cur)
        if nxt == cur:
            break
        if nxt in seen:
            cycle = seen[seen.index(nxt):] + [cur]
            nxt = min(cycle)
            break
        seen.append(cur)
        cur = nxt
    ground = 1 + max((e for mem in nxt for e in mem), default=-1)
    return SetFamily(ground, tuple(nxt), family.multifamily)


# ---------------------------------------------------------------------------
# sunflowers


def is_sunflower(sets: Sequence[Iterable[int]]) -> Optional[Member]:
    """The common pairwise intersection of ``sets`` if all pairs agree, else ``None``.

    Needs at least two sets; repeated sets are fine (a repeated set forces the
    core to equal that set).
    """
    masks = [mask_of(s) for s in sets]
    if len(masks) < 2:
        raise ParameterError(f"need at least 2 sets, got {len(masks)}")
    core = _common_core(masks)
    return None if core is None else member_of(core)


def _common_core(masks: Sequence[int]) -> Optional[int]:
    """The intersection every pair of ``masks`` (at least two) shares, or ``None``."""
    core = masks[0] & masks[1]
    for a, b in combinations(masks, 2):
        if a & b != core:
            return None
    return core


def _candidate_cores(values: Iterable[int], budget: Budget) -> list[int]:
    """``values`` and their pairwise intersections, distinct, in ``member_of`` order.
    Every sunflower's core is among them: it is the intersection of two of its
    members, which are two distinct values or two copies of one.  One node of
    ``budget`` is spent per distinct value, before its intersections with the
    later values are added."""
    distinct = list(set(values))
    cores = set(distinct)
    for i, a in enumerate(distinct):
        budget.spend()
        cores.update([a & b for b in distinct[i + 1:]])
    return sorted(cores, key=member_of)


def _least_largest(
    cand: int,
    step: Callable[[object, int, int, int], tuple[object, int]],
    root: object,
    budget: Budget,
    least: int = 1,
    most: int | None = None,
) -> tuple[int, ...]:
    """The lexicographically least largest set of the positions in the
    bitset ``cand`` with a hereditary property, between ``least`` and
    ``most`` positions; ``()`` if no set reaches ``least``.  Each position
    of ``cand`` must have the property on its own.

    Depth first on an explicit stack of nodes ``(chosen, state, cand)``,
    ``cand`` the bitset of the untried later positions allowed to join
    ``chosen``, lowest first, and ``state`` what the caller keeps about
    ``chosen`` (``root`` for ``()``).  Child ``chosen + (t,)`` gets
    ``step(state, t, cand, need)``: its state and the positions of ``cand``
    (less t) that may join it, or 0 when a bound proves fewer than ``need``
    can join together.  A node opens (one ``budget.spend()``) only while its
    candidates can reach the goal: ``least``, then one more than the best so
    far.  A set of ``most`` positions returns at once."""
    goal = least
    best: tuple[int, ...] = ()
    stack = [((), root, cand)]
    if cand.bit_count() >= goal:
        budget.spend()
    while stack:
        chosen, state, cand = stack[-1]
        if len(chosen) + cand.bit_count() < goal:
            stack.pop()
            continue
        t = (cand & -cand).bit_length() - 1
        cand ^= 1 << t
        stack[-1] = (chosen, state, cand)
        child = chosen + (t,)
        if len(child) == goal:
            if goal == most:
                return child
            best, goal = child, goal + 1
        need = goal - len(child)
        state, cand = step(state, t, cand, need)
        if cand.bit_count() >= need:
            budget.spend()
            stack.append((child, state, cand))
    return best


def _disjoint_step(masks: Sequence[int]) -> Callable[[object, int, int, int], tuple[None, int]]:
    """The :func:`_least_largest` step for pairwise disjoint ``masks``: child
    t keeps the candidates in ``apart[t]``, the later positions whose masks
    miss ``masks[t]``, a table filled on first use; no state, no bound."""
    total, apart = len(masks), {}

    def step(state: object, t: int, cand: int, need: int) -> tuple[None, int]:
        if t not in apart:
            mt, bits = masks[t], 0
            for j in range(t + 1, total):
                if not masks[j] & mt:
                    bits |= 1 << j
            apart[t] = bits
        return None, cand & apart[t]

    return step


def _disjoint_subset(
    masks: Sequence[int], budget: Budget, size: int | None = None
) -> Optional[tuple[int, ...]]:
    """Positions of pairwise disjoint ``masks``: the lexicographically first
    ``size`` of them (``None`` if there are none), or, without ``size``, the
    least largest such subset: :func:`_least_largest` with :func:`_disjoint_step`."""
    step, every = _disjoint_step(masks), (1 << len(masks)) - 1
    if size is None:
        return _least_largest(every, step, None, budget)
    return _least_largest(every, step, None, budget, size, size) or None


def _sunflower_cores(
    masks: Sequence[int], cols: Sequence[int], r: int, budget: Budget, spared: Container[int] = ()
) -> Iterator[tuple[int, int]]:
    """Each candidate core of ``masks``, least first, with ``held``, the
    masks holding it (an AND of its ``cols``); :func:`_candidate_cores`
    spends from ``budget`` before the first is yielded.  A core not in
    ``spared`` needs ``r`` disjoint petals (members minus core), so it is
    skipped when its members fall into fewer than ``r`` stars, no two of
    whose members can both join: the lowest member left and all holding its
    petal's lowest element (a member equal to the core is a star of its own)."""
    for core in _candidate_cores(masks, budget):
        held = (1 << len(masks)) - 1
        for e in member_of(core):
            held &= cols[e]
        if core not in spared:
            rest, stars = held, 0
            while rest and stars < r:
                low = rest & -rest
                petal = masks[low.bit_length() - 1] & ~core
                rest &= ~cols[(petal & -petal).bit_length() - 1] if petal else ~low
                stars += 1
            if stars < r:
                continue
        yield core, held


def find_sunflower(family: SetFamily, r: int, budget: int | None = None) -> Optional[Sunflower]:
    """Some ``r``-sunflower of ``family`` (distinct member indices), or ``None``.

    The search is exact and complete: the petals of each core that
    :func:`_sunflower_cores` keeps are walked, least core first, and the
    first with ``r`` pairwise disjoint ones gives the witness.  A budget
    counts the set-up of the cores, one node per distinct member, and then
    the nodes of the petal walks.  Repeated identical members (legal in a
    multifamily) are eligible, so ``r`` copies of one set form a sunflower
    whose core is the set itself; search ``family.distinct()[0]`` for
    petals from distinct sets.

    ``r=2`` is rejected: any two sets trivially form a 2-sunflower.
    """
    if r < 3:
        raise ParameterError("find_sunflower requires r >= 3 (r = 2 is always satisfiable)")
    masks, b = family.masks, Budget(budget)
    for core, held in _sunflower_cores(masks, family.columns, r, b):
        eligible = member_of(held)
        found = _disjoint_subset([masks[i] & ~core for i in eligible], b, r)
        if found is not None:
            return Sunflower(family.labels_of(core), tuple(eligible[t] for t in found))
    return None


def count_sunflower_tuples(family: SetFamily, r: int, budget: int | None = None) -> int:
    """Number of ordered r-tuples of member indices (repetition allowed) whose
    pairwise intersections are all equal.

    Counted exactly by grouping members into distinct values: a valid tuple is
    either constant, or consists of ``c >= 0`` copies of the common core (when
    the core itself is a member value) together with distinct values whose
    petals over the core are nonempty and pairwise disjoint.  The cores are
    :func:`find_sunflower`'s, :func:`_sunflower_cores` over the values, whose
    star cover skips a core only when it is no value (then only ``r``
    petals count, and the walk leaves a node whose chosen and untried petals
    number fewer than ``r``).  A core's disjoint petal subsets are walked
    with their weights on an explicit stack, a child's candidates given by
    :func:`_disjoint_step` as in packing, so ``r`` is not bounded by
    Python's recursion limit.  A budget counts the set-up of the cores, one
    node per distinct value, and then these walks' nodes.
    """
    if family.m == 0:
        raise EmptyFamilyError("count_sunflower_tuples needs a nonempty family")
    if r < 2:
        raise ParameterError("count_sunflower_tuples requires r >= 2")
    b = Budget(budget)
    counts = Counter(family.masks)
    values = list(counts)
    total = sum(c**r for c in counts.values())

    # a core's petals are distinct values, so no more of them join one tuple
    most = min(r, len(values))
    for core, held in _sunflower_cores(values, columns_of(values), r, b, counts):
        joining = [values[i] for i in member_of(held) if values[i] != core]
        if not joining:
            continue
        step = _disjoint_step([v & ~core for v in joining])
        n_core = counts[core]
        need = 0 if n_core else r  # no member core: only r petals count
        # weighted number of s-sets of pairwise disjoint petals, s = 1..most, depth
        # first; stack[d] = (untried petals, product of chosen weights) at depth d
        e = [0] * (most + 1)
        b.spend()
        stack = [((1 << len(joining)) - 1, 1)]
        while stack:
            cand, prod = stack[-1]
            if not cand or len(stack) - 1 + cand.bit_count() < need:
                stack.pop()
                continue
            t = (cand & -cand).bit_length() - 1
            stack[-1] = (cand ^ (1 << t), prod)
            prod *= counts[joining[t]]
            e[len(stack)] += prod
            cand = step(None, t, cand, 1)[1]
            if cand and len(stack) < r:
                b.spend()
                stack.append((cand, prod))
        # s petals (r!/c! orders), c = r - s core copies; no member core: only c = 0, 0**0 == 1
        for s in range(1 if n_core else r, most + 1):
            total += math.perm(r, s) * n_core ** (r - s) * e[s]
    return total


# ---------------------------------------------------------------------------
# packing, transversal, lambda


def packing_number(family: SetFamily, budget: int | None = None) -> PackingResult:
    """Exact maximum number of pairwise disjoint members, with the
    lexicographically least maximum witness (branch and bound)."""
    witness = _disjoint_subset(family.masks, Budget(budget))
    return PackingResult(len(witness), witness)


def transversal_number(family: SetFamily, budget: int | None = None) -> TransversalResult:
    """Exact minimum hitting set, with the lexicographically least minimum
    witness.

    Two depth-first searches on explicit stacks, so their depth is not bounded
    by Python's recursion limit, spend from one budget:

    1. the value (:func:`_transversal_value`): branch on the uncovered member
       with the fewest elements not yet banned, Knuth's minimum-remaining-values
       choice; child i takes its i-th element and bans the ones before it;
    2. the witness (:func:`_least_cover`): visit hitting sets in lexicographic
       order of their sorted tuples and return the first cover of that size.
       No smaller cover exists and every cover of that size is reachable, so
       the first one is the lexicographically least.

    A node of either search opens (one ``spend()``) only while its uncovered
    members may still be hit by few enough elements (:func:`_residual`); when
    they need every element left, its subtree uses only theirs.

    Raises :class:`EmptyMemberError` if some member is empty (no transversal
    exists).  The empty family has transversal number 0.
    """
    masks = family.masks
    if not masks:
        return TransversalResult(0, ())
    for i, mask in enumerate(masks):
        if not mask:
            raise EmptyMemberError(f"member {i} is empty; no transversal exists")
    b = Budget(budget)
    tau = _transversal_value(masks, b)
    return TransversalResult(tau, family.labels_of(_least_cover(masks, tau, b)))


def _residual(
    rests: Sequence[int], hit: int, keep: int, slack: int
) -> Optional[tuple[list[int], int]]:
    """The ``rests`` that miss the elements ``hit``, each cut to the elements
    ``keep``, fewest elements first (ties in their order), with the elements
    the next ones must come from; ``None`` if fewer than ``slack`` more
    elements cannot hit them all.

    Pairwise disjoint ones each need an element of their own, so a greedy
    disjoint set taken smallest first that reaches ``slack`` members (or an
    empty one, which nothing can hit) proves it.  One member short of
    ``slack``, that set needs every element left, so each lies in its union."""
    out = [rest & keep for rest in rests if not rest & hit]
    out.sort(key=int.bit_count)
    used = 0
    for rest in out:
        if not rest & used:
            slack -= 1
            if slack <= 0 or not rest:
                return None
            used |= rest
    return out, used if slack == 1 else -1


def _transversal_value(masks: Sequence[int], budget: Budget) -> int:
    """The minimum size of a hitting set of the nonempty ``masks``.

    A node is its parent's uncovered members, the element it takes, the
    elements it may still use and its depth; an opened node branches on its
    uncovered member with the fewest such elements."""
    best = len(masks) + 1  # above every minimum: an element per member hits them all
    stack = [(masks, 0, -1, 0)]
    while stack:
        rests, hit, keep, depth = stack.pop()
        found = _residual(rests, hit, keep, best - depth)
        if found is None:
            continue
        rests, within = found
        if not rests:
            best = min(best, depth)
            continue
        budget.spend()
        keep &= within
        children = []
        for e in member_of(rests[0]):
            children.append((rests, 1 << e, keep, depth + 1))
            keep &= ~(1 << e)
        stack.extend(reversed(children))  # ascending elements pop first
    return best


def _least_cover(masks: Sequence[int], size: int, budget: Budget) -> int:
    """The lexicographically least hitting set of ``size`` elements of the
    nonempty ``masks``, as a mask, where no smaller one exists.

    A node is its parent's uncovered members, the element it takes, the
    elements that may follow it and the mask of the chosen elements.  The next element
    must hit an uncovered member, since a minimum cover has no idle element,
    and must not pass the least top element of the uncovered members, which
    no later element could hit."""
    stack: list[tuple[Sequence[int], int, int, int]] = [(masks, 0, -1, 0)]
    while stack:
        rests, hit, keep, chosen = stack.pop()
        found = _residual(rests, hit, keep, size - chosen.bit_count() + 1)
        if found is None:
            continue
        rests, within = found
        if not rests:
            return chosen
        budget.spend()
        allowed = 0
        for rest in rests:
            allowed |= rest
        allowed &= within & ((1 << min(map(int.bit_length, rests))) - 1)
        # children in descending order, so ascending ones pop first
        while allowed:
            e = allowed.bit_length() - 1
            allowed ^= 1 << e
            stack.append((rests, 1 << e, (-2 << e) & within, chosen | 1 << e))
    raise AssertionError("no cover of the given size")  # unreachable: size is the minimum


def lambda_number(
    family: SetFamily, cap: int = 8, budget: int | None = None
) -> LambdaResult:
    """Largest l <= cap such that some l members have, for every pair among
    them, a witness element lying in exactly that pair (among the chosen l).

    The property is hereditary, so the search (:func:`_least_largest`)
    extends only satisfying sets.  A node's state is ``(chosen, once, twice,
    seen)``: the chosen members and the elements in exactly one, exactly
    two and any of them.  A child's step (:func:`_pair_witness_step`)
    applies to its parent's candidates only the constraints its newest
    member adds, and prunes it by a chain-cover bound.  ``cap_hit`` reports
    that the cap was reached while more members were available, in which
    case the value is a lower bound only.
    """
    if cap < 1:
        raise ParameterError("lambda cap must be >= 1")
    m = family.m
    step = partial(_pair_witness_step, family.masks, family.columns)
    best = _least_largest((1 << m) - 1, step, ((), 0, 0, 0), Budget(budget), most=min(cap, m))
    cap_hit = len(best) == cap and cap < m
    return LambdaResult(len(best), best, cap, cap_hit)


def _pair_witness_step(
    masks: Sequence[int],
    cols: Sequence[int],
    state: tuple[tuple[int, ...], int, int, int],
    t: int,
    cand: int,
    need: int,
) -> tuple[tuple[tuple[int, ...], int, int, int], int]:
    """The state of ``chosen + (t,)`` and the members l of ``cand`` (each
    keeping the property with ``chosen``) with which it still has, for every
    pair, a witness element lying in that pair only.

    l must meet each member x's own elements (in no other chosen member),
    and must not contain all the private elements of any pair (in its two
    members only): one OR, and one AND, of element columns each.  Only the
    constraints that t changes are applied: t's own elements, the pairs
    with t, and the own or private elements t took.

    Two members whose shares ``masks[l] & own`` of one x's own elements are
    nested cannot both join: the smaller leaves no witness for its pair
    with x.  So when a greedy chain cover of some x's shares has fewer than
    ``need`` chains, the candidates are 0."""
    chosen, once, twice, seen = state
    mt = masks[t]
    once2 = (once & ~mt) | (mt & ~seen)
    twice2 = (twice & ~mt) | (once & mt)
    child = chosen + (t,)
    for a, x in enumerate(child):
        mx = masks[x]
        if x == t or mx & mt & once:  # t's own elements, or those t took from x
            meets = 0
            for e in member_of(mx & once2):
                meets |= cols[e]
            cand &= meets
        for y in child[a + 1:]:
            my = masks[y]
            if y == t or mx & my & mt & twice:  # a pair with t, or one t took from
                covers = cand
                for e in member_of(mx & my & twice2):
                    covers &= cols[e]
                cand &= ~covers
    if need > 1 and cand.bit_count() >= need:
        joiners = member_of(cand)
        for x in child:
            own = masks[x] & once2
            if _chain_count({masks[l] & own for l in joiners}, need) < need:
                return (child, once2, twice2, seen | mt), 0
    return (child, once2, twice2, seen | mt), cand


def _chain_count(shares: set[int], most: int) -> int:
    """The chains, counted up to ``most``, of a greedy cover of ``shares``
    by chains under inclusion, smallest first; it bounds every antichain."""
    tops: list[int] = []
    for share in sorted(shares, key=int.bit_count):
        for i, top in enumerate(tops):
            if not top & ~share:
                tops[i] = share
                break
        else:
            tops.append(share)
            if len(tops) == most:
                break
    return len(tops)


# ---------------------------------------------------------------------------
# duality and frequencies


def dual_family(family: SetFamily) -> SetFamily:
    """The dual family: one member per ground element, tracing which members
    contain it; empty traces dropped, duplicates collapsed, in the normal
    form of :func:`canonicalize` (not a canonical form)."""
    if family.multifamily:
        raise InvalidFamilyError("dual_family requires a plain family (no multifamily)")
    traces = dict.fromkeys(member_of(col) for col in family.columns)
    dual = SetFamily(family.m, tuple(traces), False)
    return canonicalize(dual)


def element_frequencies(family: SetFamily) -> FrequencyProfile:
    """Exact per-element membership fractions, one per declared ground
    element: those no member holds count zero."""
    if family.m == 0:
        raise EmptyFamilyError("element_frequencies needs a nonempty family")
    m = family.m
    fractions = [Fraction(0)] * family.ground_size
    for e, col in zip(family.labels, family.columns):
        fractions[e] = Fraction(col.bit_count(), m)
    return FrequencyProfile(tuple(fractions), m)


def popular_element(family: SetFamily) -> tuple[int, Fraction]:
    """The most frequent ground element and its fraction (ties to the
    smallest element).  Requires a nonempty family with nonempty members."""
    if family.m == 0:
        raise EmptyFamilyError("popular_element needs a nonempty family")
    for i, mem in enumerate(family.members):
        if not mem:
            raise EmptyMemberError(f"member {i} is empty")
    counts = [col.bit_count() for col in family.columns]
    best = counts.index(max(counts))  # the first largest column, the least label
    return family.labels[best], Fraction(counts[best], family.m)
