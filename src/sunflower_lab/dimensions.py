"""Exact VC and Littlestone dimension.

``vc_dimension`` ascends through shattered-set sizes apriori-style, testing
candidates with per-element member bitmasks.  ``ls_dimension`` evaluates the
recursive split definition on member-selection bitsets with memoization.
"""

from __future__ import annotations

from typing import Callable, Iterable, NamedTuple, Optional, Sequence

from .errors import ParameterError
from .family import SetFamily, mask_of, member_of
from .rng import Budget


class ShatterTree(NamedTuple):
    """A labeled complete binary tree witnessing a Littlestone dimension.

    Internal nodes carry a ground element (``element``); leaves carry a member
    index (``member``).  Going to the left child means the element is present
    in the leaf's member.
    """

    element: Optional[int] = None
    member: Optional[int] = None
    left: Optional["ShatterTree"] = None
    right: Optional["ShatterTree"] = None

    @classmethod
    def leaf(cls, member: int) -> "ShatterTree":
        return cls(member=member)

    @classmethod
    def node(cls, element: int, left: "ShatterTree", right: "ShatterTree") -> "ShatterTree":
        return cls(element=element, left=left, right=right)

    def is_leaf(self) -> bool:
        return self.member is not None

    def to_dict(self) -> dict:
        if self.is_leaf():
            return {"member": self.member}
        return {
            "element": self.element,
            "left": self.left.to_dict(),
            "right": self.right.to_dict(),
        }


# ---------------------------------------------------------------------------
# VC dimension


def vc_dimension(family: SetFamily, budget: int | None = None) -> tuple[int, tuple[int, ...]]:
    """Exact VC dimension with the lexicographically least shattered witness.

    Duplicate members never change shattering and are collapsed first.  The
    empty family reports 0 by convention.
    """
    distinct, _ = family.distinct()
    masks, cols, b = distinct.masks, distinct.columns, Budget(budget)
    md = len(masks)
    full = (1 << md) - 1

    def shattered(elems: tuple[int, ...]) -> bool:
        b.spend()
        parts = [full]
        for e in elems:
            ce = cols[e]
            nxt = []
            for p in parts:
                a = p & ce
                c = p & ~ce
                if a == 0 or c == 0:
                    return False
                nxt.append(a)
                nxt.append(c)
            parts = nxt
        return True

    # level-by-level ascent: a set can be shattered only if all its subsets
    # are, and only by elements of the members containing it (its all-in trace)
    level: list[tuple[int, ...]] = [()]
    best: tuple[int, ...] = ()
    max_d = md.bit_length() - 1  # 2^d distinct traces need m >= 2^d
    while len(best) < max_d:
        prev = set(level)
        nxt: list[tuple[int, ...]] = []
        for t in level:
            lo = t[-1] + 1 if t else 0
            holders = full
            for e in t:
                holders &= cols[e]
            elems = 0
            for i in member_of(holders):
                elems |= masks[i]
            for v in member_of(elems >> lo):
                cand = t + (v + lo,)
                if all(cand[:i] + cand[i + 1:] in prev for i in range(len(cand) - 1)):
                    if shattered(cand):
                        nxt.append(cand)
        if not nxt:
            break
        level = nxt
        best = level[0]
    return len(best), distinct.labels_of(mask_of(best))


def sauer_shelah_capacity(n: int, d: int, max_bits: int | None = None) -> int:
    """Exact sum of binomials C(n, 0) + ... + C(n, d).

    Each term is made from the one before, C(n, i+1) = C(n, i) (n-i) / (i+1),
    and past n/2 the sum is 2^n less the mirrored terms C(n, n-i), so at
    most n/2 terms are made.  With ``max_bits``, a sum that needs more bits
    raises :class:`ParameterError`, and no term longer than ``max_bits`` plus
    the bit length of ``n`` is made first.
    """
    if n < 0 or d < 0:
        raise ParameterError("sauer_shelah_capacity needs n, d >= 0")
    past = f"exact value has more than {max_bits} bits"
    if 2 * d >= n:
        if max_bits is not None and n > max_bits:  # the sum is at least 2^(n-1)
            raise ParameterError(past)
        total = (1 << n) - (sauer_shelah_capacity(n, n - d - 1) if d < n else 0)
    else:
        total = term = 1
        for i in range(d):
            term = term * (n - i) // (i + 1)
            total += term
            if max_bits is not None and total.bit_length() > max_bits:
                break
    if max_bits is not None and total.bit_length() > max_bits:
        raise ParameterError(past)
    return total


# ---------------------------------------------------------------------------
# Littlestone dimension, recursive route


_MEMO_LIMIT = 200_000


def _by_count(n: int, t: int) -> Optional[bool]:
    """Whether ``n`` distinct members reach Littlestone dimension ``t``,
    when their count decides it: fewer than 2^t cannot, and two differ at
    some element, so they reach 1.  ``None`` when the count does not decide."""
    if n < 1 << t or t <= 1:
        return n >= 1 << t
    return None


class LittlestoneSolver:
    """Memoized evaluator of the recursive split definition on member bitsets.

    A subfamily is a bitset ``sel`` over the distinct members; its value is 0
    with at most one member, else 1 plus the best min over the two sides,
    ``sel & cols[e]`` and the rest, of a splitting element e: one that some
    selected member holds and another lacks.  The solver keeps its members'
    masks and its own column list, up to the highest element a member
    holds.  It starts from ``family``'s members, which must be distinct, as
    the positions of ``family.labels``, or from none.  ``push`` adds a
    member at the next index and ``pop`` removes the last, with the memo
    entries that select it: entries are grouped by their highest member.
    The memo holds at most ``_MEMO_LIMIT`` entries in all.
    Every node the solver opens, in any evaluation, is spent from ``budget``.
    """

    def __init__(self, budget: Budget, family: SetFamily | None = None):
        self._budget = budget
        self._masks: list[int] = []
        self._cols: list[int] = []
        self._memo: list[dict[int, int]] = []
        if family is not None:
            self._masks = list(family.masks)
            self._cols = list(family.columns)
            self._memo = [{} for _ in family.members]
        self._memo_size = 0

    def push(self, mask: int) -> None:
        """Add ``mask``, which no member equals, as the next member."""
        bit = 1 << len(self._masks)
        cols = self._cols
        cols.extend([0] * (mask.bit_length() - len(cols)))
        for e in member_of(mask):
            cols[e] |= bit
        self._masks.append(mask)
        self._memo.append({})

    def pop(self) -> None:
        """Remove the last member and every memo entry that selects it."""
        self._memo_size -= len(self._memo.pop())
        mask = self._masks.pop()
        keep = ~(1 << len(self._masks))
        cols = self._cols
        for e in member_of(mask):
            cols[e] &= keep
        while cols and not cols[-1]:
            cols.pop()

    def _splitting(self, sel: int) -> int:
        """The elements that split the members selected by ``sel``, as a
        mask: those in the union of their masks but not in the intersection."""
        masks = self._masks
        union, common = 0, -1
        for i in member_of(sel):
            union |= masks[i]
            common &= masks[i]
        return union & ~common

    def value(self, sel: int) -> int:
        """Littlestone dimension of the members selected by ``sel``."""
        return self._value(sel, range(len(self._cols)))

    def _value(self, sel: int, elems: Iterable[int]) -> int:
        # ``elems`` includes every element that splits ``sel``
        sz = sel.bit_count()
        if sz <= 1:
            return 0
        memo = self._memo[sel.bit_length() - 1]
        hit = memo.get(sel)
        if hit is not None:
            return hit
        self._budget.spend()

        cols = self._cols
        cands = []
        for e in elems:
            c = (sel & cols[e]).bit_count()
            if 0 < c < sz:
                cands.append((-min(c, sz - c), e))
        # splitting elements only: others contribute exactly 1, matched below;
        # a side can split only on what splits ``sel``
        cands.sort()
        split = [e for _, e in cands]
        ub = sz.bit_length() - 1  # floor(log2 sz): distinct traces bound
        best = 1  # two distinct members always split somewhere
        for neg_bal, e in cands:
            if (-neg_bal).bit_length() <= best:  # 1 + floor(log2 bal) caps e
                break
            inside = sel & cols[e]
            outside = sel ^ inside
            if 2 * inside.bit_count() > sz:
                inside, outside = outside, inside  # smaller side first
            a = self._value(inside, split)
            if 1 + a <= best:
                continue
            v = 1 + min(a, self._value(outside, split))
            if v > best:
                best = v
                if best == ub:
                    break
        if self._memo_size < _MEMO_LIMIT:
            memo[sel] = best
            self._memo_size += 1
        return best

    def _reaches(self, sel: int, t: int) -> bool:
        """Whether the members selected by ``sel`` reach dimension ``t``:
        :func:`_by_count`, else :meth:`value`."""
        known = _by_count(sel.bit_count(), t)
        return self.value(sel) >= t if known is None else known

    def _settled(self, sel: int, depth: int) -> Optional[bool]:
        """Whether the members selected by ``sel`` and one more member reach
        ``depth``, when :func:`_by_count` or ``value(sel)`` decides it: a
        member adds at most 1, so ``None`` stands for ``value(sel) == depth - 1``."""
        known = _by_count(sel.bit_count() + 1, depth)
        if known is None:
            v = self.value(sel)
            if v != depth - 1:
                known = v >= depth
        return known

    def reaches(self, sel: int, cmask: int, depth: int) -> bool:
        """Whether the members selected by ``sel`` and ``cmask``, which none
        of them equals, reach dimension ``depth``: :meth:`_settled`, else
        one node is spent and :meth:`_split_reaches` answers.  Nothing
        selecting ``cmask`` is memoized."""
        known = self._settled(sel, depth)
        if known is not None:
            return known
        self._budget.spend()
        return self._split_reaches(sel, cmask, depth)

    def _split_reaches(self, sel: int, cmask: int, depth: int) -> bool:
        # some element e that splits ``sel`` has its side without ``cmask``
        # reach ``depth - 1`` and its side with it reach ``depth - 1`` with
        # it; an element that does not split ``sel`` leaves ``cmask`` alone
        # on a side or with no side.  The first such e answers.
        for e, col in enumerate(self._cols):
            side = sel & col
            rest = sel ^ side
            if not side or not rest:
                continue
            if not cmask >> e & 1:
                side, rest = rest, side
            if self._reaches(rest, depth - 1) and self.reaches(side, cmask, depth - 1):
                return True
        return False

    def reaches_test(self, sel: int, depth: int) -> Callable[[int], bool]:
        """``reaches(sel, cmask, depth)`` as a test of ``cmask``, for members
        that stay fixed while it is used, with the work that does not depend
        on ``cmask`` done once: :meth:`_settled`, the node spent, and at
        depth 2 the elements that answer.  There a side with ``cmask`` and a
        member of ``sel`` reaches 1, so over the elements e that split
        ``sel``, with ``outside`` the e where ``sel`` minus column e reaches
        1 (the side without a ``cmask`` that holds e) and ``inside`` the e
        where ``sel`` and column e do, the test is ``cmask & outside`` or
        ``~cmask & inside``.  Deeper, each ``cmask`` runs the first-success
        scan of :meth:`reaches`, whose sides without ``cmask`` the memo
        keeps for the next."""
        known = self._settled(sel, depth)
        if known is not None:
            return lambda cmask: known
        self._budget.spend()
        if depth > 2:
            return lambda cmask: self._split_reaches(sel, cmask, depth)
        cols = self._cols
        outside = inside = 0
        for e in member_of(self._splitting(sel)):
            if self._reaches(sel & ~cols[e], 1):
                outside |= 1 << e
            if self._reaches(sel & cols[e], 1):
                inside |= 1 << e
        return lambda cmask: bool(cmask & outside or ~cmask & inside)

    def witness(
        self, sel: int, depth: int, kept: Sequence[int], labels: Sequence[int]
    ) -> ShatterTree:
        """A depth-``depth`` witness tree for the members selected by ``sel``:
        the least element e whose two sides both reach ``depth - 1`` at each
        node, labelled ``labels[e]``, and leaf ``kept[i]`` for the least
        member i selected.  Only the elements that split ``sel`` are tried."""
        if depth == 0:
            return ShatterTree.leaf(kept[(sel & -sel).bit_length() - 1])
        cols = self._cols
        for e in member_of(self._splitting(sel)):
            inside = sel & cols[e]
            outside = sel ^ inside
            if self.value(inside) >= depth - 1 and self.value(outside) >= depth - 1:
                return ShatterTree.node(
                    labels[e],
                    self.witness(inside, depth - 1, kept, labels),
                    self.witness(outside, depth - 1, kept, labels),
                )
        raise AssertionError("witness reconstruction failed")  # pragma: no cover


def ls_dimension(family: SetFamily, budget: int | None = None) -> tuple[int, Optional[ShatterTree]]:
    """Exact Littlestone dimension with a witness tree.

    Duplicates are collapsed first (they never change the dimension).  The
    tree takes the least splitting element at each node and the least
    member index at each leaf.
    """
    distinct, kept = family.distinct()
    if not distinct.m:
        return 0, None
    solver = LittlestoneSolver(Budget(budget), distinct)
    full = (1 << distinct.m) - 1
    d = solver.value(full)
    return d, solver.witness(full, d, kept, distinct.labels)
