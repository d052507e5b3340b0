"""Exact computations written apart from sunflower_lab, to check its answers.

Nothing here imports the package.  Families are lists of members, each a
tuple of ints; searches work on plain bitmasks.  The code favours being
obviously right over being fast; callers keep the sizes small or use the
values stored by ``make_reference.py``.
"""

from __future__ import annotations

import math
from fractions import Fraction
from itertools import combinations, product


def to_mask(member) -> int:
    out = 0
    for e in member:
        out |= 1 << e
    return out


def elements(mask: int) -> list[int]:
    return [e for e in range(mask.bit_length()) if mask >> e & 1]


def distinct_masks(members) -> list[int]:
    return list(dict.fromkeys(to_mask(mem) for mem in members))


# ---------------------------------------------------------------------------
# witness checks: each returns an error string, or None when the witness holds


def sunflower_error(members, core, indices, r: int):
    if len(indices) != r or len(set(indices)) != r:
        return f"sunflower witness {indices} is not {r} distinct indices"
    if any(not 0 <= i < len(members) for i in indices):
        return f"sunflower witness {indices} indexes outside the family"
    want = set(core)
    for a, b in combinations(indices, 2):
        if set(members[a]) & set(members[b]) != want:
            return f"members {a} and {b} do not meet in the core {core}"
    return None


def packing_error(members, value: int, witness):
    if len(witness) != value or len(set(witness)) != value:
        return f"packing witness {witness} does not have {value} distinct members"
    for a, b in combinations(witness, 2):
        if set(members[a]) & set(members[b]):
            return f"packing members {a} and {b} intersect"
    return None


def transversal_error(members, value: int, witness):
    if len(witness) != value or len(set(witness)) != value:
        return f"transversal witness {witness} does not have {value} distinct elements"
    hit = set(witness)
    for i, mem in enumerate(members):
        if not hit & set(mem):
            return f"transversal {witness} misses member {i}"
    return None


def lambda_error(members, value: int, witness):
    if len(witness) != value or len(set(witness)) != value:
        return f"lambda witness {witness} does not have {value} distinct members"
    chosen = [set(members[i]) for i in witness]
    for a, b in combinations(range(len(chosen)), 2):
        others = set().union(*(chosen[t] for t in range(len(chosen)) if t not in (a, b)))
        if not (chosen[a] & chosen[b]) - others:
            return f"lambda pair {witness[a]}, {witness[b]} has no private element"
    return None


def shattered(masks, elems) -> bool:
    sel = to_mask(elems)
    return len({mk & sel for mk in masks}) == 1 << len(elems)


def ls_tree_error(members, tree: dict, depth: int):
    """Walk a witness tree: complete to ``depth``, each leaf's member agrees
    with every element test on its path (left = element present)."""
    def walk(node, level, inside, outside):
        if "member" in node:
            if level != depth:
                return f"leaf at depth {level}, expected {depth}"
            i = node["member"]
            if not 0 <= i < len(members):
                return f"leaf member {i} outside the family"
            mem = set(members[i])
            if not inside <= mem or outside & mem:
                return f"leaf member {i} disagrees with its path"
            return None
        e = node["element"]
        return walk(node["left"], level + 1, inside | {e}, outside) or walk(
            node["right"], level + 1, inside, outside | {e}
        )

    if tree is None:
        return None if not members else "no witness tree"
    return walk(tree, 0, set(), set())


# ---------------------------------------------------------------------------
# exact values


def has_sunflower(members, r: int) -> bool:
    """Any r member indices with pairwise equal intersections (brute force)."""
    sets = [frozenset(mem) for mem in members]
    for combo in combinations(range(len(sets)), r):
        if len({sets[a] & sets[b] for a, b in combinations(combo, 2)}) == 1:
            return True
    return False


def packing(members) -> int:
    """Largest number of pairwise disjoint members.  Bounded by the members
    left and by the free elements over the smallest member size."""
    masks = sorted((to_mask(m) for m in members), key=lambda mk: bin(mk).count("1"))
    if any(mk == 0 for mk in masks):
        # empty members are disjoint from everything, including each other
        empties = sum(1 for mk in masks if mk == 0)
        return empties + packing([elements(mk) for mk in masks if mk])
    ground = 0
    for mk in masks:
        ground |= mk
    best = 0

    def go(pos, used, count):
        nonlocal best
        best = max(best, count)
        if pos == len(masks):
            return
        free = bin(ground & ~used).count("1")
        smallest = bin(masks[pos]).count("1")
        if count + min(len(masks) - pos, free // smallest) <= best:
            return
        if masks[pos] & used == 0:
            go(pos + 1, used | masks[pos], count + 1)
        go(pos + 1, used, count)

    go(0, 0, 0)
    return best


def transversal(members) -> int:
    """Smallest set of elements meeting every member (members nonempty)."""
    masks = [to_mask(m) for m in members]
    best = len({min(m) for m in members}) if members else 0

    def go(left, size):
        nonlocal best
        if not left:
            best = min(best, size)
            return
        # members pairwise disjoint among the unmet ones each need an element
        lower, used = 0, 0
        for mk in left:
            if mk & used == 0:
                lower += 1
                used |= mk
        if size + lower >= best:
            return
        branch = min(left, key=lambda mk: bin(mk).count("1"))
        for e in elements(branch):
            go([mk for mk in left if not mk >> e & 1], size + 1)

    go(masks, 0)
    return best


def lambda_value(members, cap: int) -> tuple[int, bool]:
    """Largest l <= cap with l members whose every pair owns a private
    element among them; also whether the cap stopped the search."""
    sets = [frozenset(m) for m in members]
    m = len(sets)
    if m == 0:
        return 0, False

    def ok(chosen):
        for a, b in combinations(chosen, 2):
            others = frozenset().union(*(sets[t] for t in chosen if t not in (a, b)))
            if not (sets[a] & sets[b]) - others:
                return False
        return True

    best = 1
    level = [(i,) for i in range(m)]
    while level and best < min(cap, m):
        nxt = [c + (j,) for c in level for j in range(c[-1] + 1, m) if ok(c + (j,))]
        if nxt:
            best = len(nxt[0])
        level = nxt
    return best, best == cap and cap < m


def vc(members) -> int:
    """Largest shattered set, grown only from shattered sets."""
    masks = distinct_masks(members)
    if len(masks) < 2:
        return 0
    active = elements(_union(masks))
    level = [()]
    size = 0
    while True:
        nxt = [
            t + (e,)
            for t in level
            for e in active
            if (not t or e > t[-1]) and shattered(masks, t + (e,))
        ]
        if not nxt:
            return size
        size += 1
        level = nxt


def _union(masks) -> int:
    out = 0
    for mk in masks:
        out |= mk
    return out


def ls(members) -> int:
    """Littlestone dimension from its recursive definition, memoized on the
    set of distinct member masks."""
    memo: dict[frozenset, int] = {}

    def value(fam: frozenset) -> int:
        if len(fam) <= 1:
            return 0
        if fam in memo:
            return memo[fam]
        top = len(fam).bit_length() - 1
        union, inter = 0, -1
        for mk in fam:
            union |= mk
            inter &= mk
        best = 0
        for e in elements(union & ~inter):
            with_e = frozenset(mk for mk in fam if mk >> e & 1)
            without = fam - with_e
            small, big = sorted((with_e, without), key=len)
            if 1 + (len(small).bit_length() - 1) <= best:
                continue
            a = value(small)
            if 1 + a > best:
                best = max(best, 1 + min(a, value(big)))
            if best == top:
                break
        memo[fam] = best
        return best

    return value(frozenset(distinct_masks(members)))


def sunflower_tuple_count(members, r: int) -> int:
    """Ordered r-tuples (repetition allowed) with pairwise equal
    intersections, by full m^r enumeration."""
    masks = [to_mask(m) for m in members]
    count = 0
    for combo in product(masks, repeat=r):
        core = combo[0] & combo[1]
        if all(combo[a] & combo[b] == core for a, b in combinations(range(r), 2)):
            count += 1
    return count


# ---------------------------------------------------------------------------
# closed forms, written from the formulas


def log_star(k: int) -> int:
    """Times log2 is applied to k before the value is at most 2 (small k only)."""
    i, x = 0, float(k)
    while x > 2:
        x = math.log2(x)
        i += 1
    return i


def inv_e_bounds() -> tuple[Fraction, Fraction]:
    """Rational enclosure of 1/e from the alternating series sum (-1)^n/n!."""
    terms = [Fraction((-1) ** n, math.factorial(n)) for n in range(30)]
    low, high = sum(terms[:-1]), sum(terms)
    return min(low, high), max(low, high)


def bound_value(bound_id: str, p: dict) -> Fraction:
    """Exact rational part of each catalogued bound (the part before any /e)."""
    r, k, d = p.get("r"), p.get("k"), p.get("d")
    if bound_id == "ER":
        return Fraction(math.factorial(k) * (r - 1) ** k)
    if bound_id == "T1":
        return Fraction(r ** (10 * k))
    if bound_id in ("T2", "T6"):
        power = 2 ** (10 * k * (d * r) ** (2 * log_star(k)))
        return Fraction(power) if bound_id == "T2" else Fraction(1, power)
    if bound_id == "T3U":
        return Fraction((r * k) ** d)
    if bound_id == "T3L":
        return Fraction(r * k, d) ** d
    if bound_id == "T7":
        lam = p["lam"]
        return Fraction((lam + r) ** (6 * lam * k))
    if bound_id == "DSW":
        lam, nu = p["lam"], p["nu"]
        return Fraction(11 * lam * lam * (lam + nu + 3) * math.comb(lam + nu, lam) ** 2)
    if bound_id == "SS":
        return Fraction(sum(math.comb(p["n"], i) for i in range(min(p["n"], d) + 1)))
    if bound_id == "L3":
        return Fraction(1, p["g"] ** (r - 1))
    if bound_id == "C1":
        return Fraction(1, (math.factorial(k) * (r - 1) ** (k + 1) + 1) ** (r - 1))
    if bound_id == "T4":
        return Fraction((500 + r) ** (900 * k))
    raise ValueError(f"no formula for bound {bound_id}")


OVER_E = ("L3", "C1")
