"""Brute-force reference implementations used as independent test oracles.

Everything here enumerates exhaustively with no pruning and no shared code
with the package's search routines; sizes are kept small by the callers.
"""

from __future__ import annotations

import random
from fractions import Fraction
from itertools import combinations, product
from typing import Optional

from sunflower_lab import (
    AlphaEstimate,
    BudgetExceededError,
    Disk,
    GeneralPositionError,
    ParameterError,
    Point2,
    SetFamily,
)
from sunflower_lab.dimensions import ShatterTree
from sunflower_lab.rng import Budget


def brute_has_sunflower(family: SetFamily, r: int, distinct_only: bool = False) -> bool:
    """Exhaustive check over all r-subsets of member indices."""
    members = [frozenset(mem) for mem in family.members]
    indices = range(len(members))
    if distinct_only:
        seen = {}
        for i, s in enumerate(members):
            seen.setdefault(s, i)
        indices = sorted(seen.values())
    for combo in combinations(indices, r):
        inters = {members[a] & members[b] for a, b in combinations(combo, 2)}
        if len(inters) == 1:
            return True
    return False


def brute_least_sunflower(family: SetFamily, r: int):
    """``(core, indices)`` of the r-sunflower with the least sorted core, and
    for that core the first index tuple in ``combinations`` order; or ``None``."""
    members = [frozenset(mem) for mem in family.members]
    found = []
    for combo in combinations(range(len(members)), r):
        inters = {members[a] & members[b] for a, b in combinations(combo, 2)}
        if len(inters) == 1:
            found.append((tuple(sorted(inters.pop())), combo))
    return min(found, default=None)


def brute_count_tuples(family: SetFamily, r: int) -> int:
    """Full m^r enumeration of ordered tuples with repetition."""
    members = [frozenset(mem) for mem in family.members]
    count = 0
    for combo in product(range(len(members)), repeat=r):
        inters = {
            members[combo[p]] & members[combo[q]]
            for p, q in combinations(range(r), 2)
        }
        if len(inters) == 1:
            count += 1
    return count


def brute_vc(family: SetFamily) -> int:
    """Largest shattered subset of the ground set, by full enumeration."""
    members = [frozenset(mem) for mem in family.members]
    if not members:
        return 0
    ground = range(family.ground_size)
    best = 0
    for size in range(family.ground_size + 1):
        found = False
        for cand in combinations(ground, size):
            cset = frozenset(cand)
            traces = {m & cset for m in members}
            if len(traces) == 2**size:
                found = True
                break
        if found:
            best = size
        else:
            break
    return best


def brute_packing(family: SetFamily) -> int:
    members = [frozenset(mem) for mem in family.members]
    best = 0
    for size in range(len(members), 0, -1):
        for combo in combinations(range(len(members)), size):
            if all(
                not (members[a] & members[b]) for a, b in combinations(combo, 2)
            ):
                return size
    return best


def brute_first_packing(family: SetFamily, size: int) -> tuple[int, ...]:
    """The first pairwise disjoint index tuple of ``size`` in ``combinations`` order."""
    members = [frozenset(mem) for mem in family.members]
    for combo in combinations(range(len(members)), size):
        if all(not (members[a] & members[b]) for a, b in combinations(combo, 2)):
            return combo
    raise AssertionError(f"no pairwise disjoint {size} members")


def brute_transversal(family: SetFamily) -> int:
    members = [frozenset(mem) for mem in family.members]
    if not members:
        return 0
    assert all(members), "undefined for empty members"
    ground = range(family.ground_size)
    for size in range(family.ground_size + 1):
        for combo in combinations(ground, size):
            cset = set(combo)
            if all(m & cset for m in members):
                return size
    raise AssertionError("some member has no elements")


def brute_least_transversal(family: SetFamily) -> tuple[int, ...]:
    """The first hitting element tuple in ``combinations`` order among the
    smallest ones: the lexicographically least minimum transversal."""
    members = [frozenset(mem) for mem in family.members]
    assert all(members), "undefined for empty members"
    for size in range(family.ground_size + 1):
        for combo in combinations(range(family.ground_size), size):
            if all(m.intersection(combo) for m in members):
                return combo
    raise AssertionError("some member has no elements")


def brute_lambda(family: SetFamily) -> int:
    members = [frozenset(mem) for mem in family.members]
    best = 0
    for size in range(1, len(members) + 1):
        for combo in combinations(range(len(members)), size):
            ok = True
            for a, b in combinations(combo, 2):
                others = frozenset().union(
                    *[members[t] for t in combo if t not in (a, b)]
                ) if size > 2 else frozenset()
                if not (members[a] & members[b]) - others:
                    ok = False
                    break
            if ok:
                best = size
                break
    return best


def brute_first_lambda(family: SetFamily, cap: int) -> tuple[int, ...]:
    """The first index tuple in ``combinations`` order among the largest ones,
    of at most ``cap`` members, that have for every pair a witness element
    lying in that pair only: the lexicographically least maximum set."""
    members = [frozenset(mem) for mem in family.members]
    for size in range(min(cap, len(members)), 0, -1):
        for combo in combinations(range(len(members)), size):
            if all(
                (members[a] & members[b])
                - frozenset().union(*[members[t] for t in combo if t not in (a, b)])
                for a, b in combinations(combo, 2)
            ):
                return combo
    return ()


def brute_least_shattered(family: SetFamily) -> tuple[int, ...]:
    """The first shattered element tuple in ``combinations`` order among the
    largest ones (the empty tuple for the empty family)."""
    members = [frozenset(mem) for mem in family.members]
    if not members:
        return ()
    ground = range(family.ground_size)
    for size in range(family.ground_size, -1, -1):
        for cand in combinations(ground, size):
            cset = frozenset(cand)
            if len({m & cset for m in members}) == 2**size:
                return cand
    raise AssertionError("the empty set is always shattered")


def brute_extremal_multifamily(r: int, k: int, ground_cap: int | None = None):
    """``(value, witness members, witness ground)`` of the largest multifamily
    of k-sets with no r-sunflower, by enumerating every non-decreasing
    sequence of k-sets in first-appearance normal form (elements below
    ``ground_cap``), repeats allowed, each tested whole with
    ``brute_has_sunflower``.  Sunflower-freeness is hereditary, so only
    sunflower-free sequences are extended; the witness is the
    lexicographically least longest sequence.  Nothing assumes how many
    copies of a set a sunflower-free multifamily can hold: r copies form a
    sunflower, which ends every sequence."""
    best: tuple = ()

    def grow(seq: tuple, used: int) -> None:
        nonlocal best
        if len(seq) > len(best) or (len(seq) == len(best) and seq < best):
            best = seq
        top = used + k if ground_cap is None else min(used + k, ground_cap)
        for cand in combinations(range(top), k):
            fresh = [e for e in cand if e >= used]
            if fresh != list(range(used, used + len(fresh))):
                continue
            if seq and cand < seq[-1]:
                continue
            ground = max(used, cand[-1] + 1)
            trial = seq + (cand,)
            if not brute_has_sunflower(SetFamily(ground, trial, True), r):
                grow(trial, ground)

    grow((), 0)
    ground = 1 + max((e for mem in best for e in mem), default=-1)
    return len(best) + 1, best, ground


def brute_closing_traces(masks: list[int], x: int, d: int, n: int) -> list[tuple[int, int]]:
    """``(s, trace)`` for each (d+1)-subset of ``range(n)``, as a mask ``s``,
    on which ``x``'s trace is new to ``masks`` and ``masks`` with ``x`` show
    every trace but one, the missing ``trace``: a member with that trace
    shatters ``s``.  Members are bitmasks; every subset of ``range(n)`` and
    every trace on it is enumerated."""
    out = []
    for s in combinations(range(n), d + 1):
        smask = sum(1 << e for e in s)
        traces = {mk & smask for mk in masks}
        if x & smask in traces:
            continue
        traces.add(x & smask)
        every = {sum(1 << e for e in sub) for size in range(d + 2) for sub in combinations(s, size)}
        missing = every - traces
        if len(missing) == 1:
            out.append((smask, missing.pop()))
    return out


def brute_alpha_monte_carlo(family: SetFamily, r: int, trials: int, seed: int = 0) -> AlphaEstimate:
    """The sampled pairwise-equal-intersection estimate drawn the plain way:
    per chunk of 4096 trials a ``random.Random`` seeded ``alpha-mc/seed/chunk``,
    per trial r ``randrange(m)`` draws, then every pairwise intersection
    compared with the first."""
    members = [frozenset(mem) for mem in family.members]
    m = len(members)
    successes = 0
    for chunk in range(-(-trials // 4096)):
        rng = random.Random(f"alpha-mc/{seed}/{chunk}")
        for _ in range(min(4096, trials - 4096 * chunk)):
            drawn = [members[rng.randrange(m)] for _ in range(r)]
            if len({a & b for a, b in combinations(drawn, 2)}) == 1:
                successes += 1
    return AlphaEstimate(r=r, m=m, estimate=successes / trials, trials=trials, seed=seed)


def _brute_squared_distance(p, q) -> Fraction:
    return (p.x - q.x) ** 2 + (p.y - q.y) ** 2


def brute_trace_disks(points, disks) -> SetFamily:
    """Disk traces with every distance a ``Fraction``: one member per disk,
    the indices of points strictly inside; a boundary point raises."""
    members = []
    for di, disk in enumerate(disks):
        inside = []
        for pi, p in enumerate(points):
            d2 = _brute_squared_distance(p, disk.center)
            if d2 == disk.radius_squared:
                raise GeneralPositionError(
                    f"point {pi} lies on the boundary of disk {di}", pi, di
                )
            if d2 < disk.radius_squared:
                inside.append(pi)
        members.append(tuple(inside))
    return SetFamily(len(points), tuple(members), multifamily=True)


def brute_trace_halfspaces(points, halfspaces) -> SetFamily:
    """Half-space traces with every value a ``Fraction``."""
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


def brute_capture_disk(points, center, k: int):
    """The k-capturing disk around ``center`` from a full ``Fraction`` sort
    of the distances; ``None`` on a tie between the k-th and (k+1)-th."""
    if not 1 <= k < len(points):
        raise ParameterError("capture_disk needs 1 <= k < number of points")
    dists = sorted(_brute_squared_distance(p, center) for p in points)
    if dists[k - 1] == dists[k]:
        return None
    return Disk(center, (dists[k - 1] + dists[k]) / 2)


def brute_gen_k_capturing_disks(points, k: int, count: int, seed: int = 0):
    """``gen_k_capturing_disks`` in ``Fraction`` arithmetic: centers drawn on
    the 2^16 grid of the bounding box by a ``random.Random`` seeded
    ``k-capturing/seed``, a tied center redrawn up to 1000 times."""
    if len(points) <= k:
        raise ParameterError("need more points than k")
    if count < 0:
        raise ParameterError("count must be >= 0")
    xmin, xmax = min(p.x for p in points), max(p.x for p in points)
    ymin, ymax = min(p.y for p in points), max(p.y for p in points)
    rng = random.Random(f"k-capturing/{seed}")
    grid = 2**16
    disks = []
    for _ in range(count):
        disk = None
        for _attempt in range(1000):
            gx = Fraction(rng.randrange(grid + 1), grid)
            gy = Fraction(rng.randrange(grid + 1), grid)
            center = Point2(xmin + (xmax - xmin) * gx, ymin + (ymax - ymin) * gy)
            disk = brute_capture_disk(points, center, k)
            if disk is not None:
                break
        if disk is None:
            raise BudgetExceededError(
                "resampling budget exhausted after 1000 attempts; "
                "the point set is too degenerate for k-capturing disks"
            )
        disks.append(disk)
    return tuple(disks), brute_trace_disks(points, disks)


def ls_dimension_tree(
    family: SetFamily, d: int, budget: int | None = None
) -> tuple[bool, Optional[ShatterTree]]:
    """Decide whether a complete binary tree of depth ``d`` admits a shattered
    labeling by ``family``; exhaustive over element labels with memoization.

    This follows the tree definition literally (no element removal, no
    balance pruning, every element a member holds is a candidate at every
    node; an element no member holds splits nothing), so it is an independent
    oracle for ``ls_dimension``, whose witness tree it returns.
    """
    if d < 0:
        raise ParameterError("tree depth must be >= 0")
    distinct, kept = family.distinct()
    cols: dict[int, int] = {}  # label: the distinct members holding it
    for i, mem in enumerate(distinct.members):
        for e in mem:
            cols[e] = cols.get(e, 0) | 1 << i
    cols = dict(sorted(cols.items()))  # the witness takes the least label
    full = (1 << distinct.m) - 1
    b = Budget(budget)
    memo: dict[tuple[int, int], bool] = {}

    def ok(sel: int, depth: int) -> bool:
        if depth == 0:
            return sel != 0
        key = (sel, depth)
        hit = memo.get(key)
        if hit is not None:
            return hit
        b.spend()
        res = any(ok(sel & col, depth - 1) and ok(sel & ~col, depth - 1) for col in cols.values())
        memo[key] = res
        return res

    if not ok(full, d):
        return False, None

    def build(sel: int, depth: int) -> ShatterTree:
        if depth == 0:
            low = (sel & -sel).bit_length() - 1
            return ShatterTree.leaf(kept[low])
        for e, col in cols.items():
            inside, outside = sel & col, sel & ~col
            if ok(inside, depth - 1) and ok(outside, depth - 1):
                return ShatterTree.node(e, build(inside, depth - 1), build(outside, depth - 1))
        raise AssertionError  # pragma: no cover

    return True, build(full, d)


def validate_shatter_tree(family: SetFamily, tree: ShatterTree, depth: int) -> None:
    """Walk a witness tree checking uniform depth and trace consistency."""

    def walk(node: ShatterTree, level: int, must_have: set[int], must_lack: set[int]):
        if node.is_leaf():
            assert level == depth, "leaf at wrong depth"
            member = set(family.members[node.member])
            assert must_have <= member, "missing promised element"
            assert not (must_lack & member), "contains excluded element"
            return
        assert node.element is not None and node.left and node.right
        walk(node.left, level + 1, must_have | {node.element}, must_lack)
        walk(node.right, level + 1, must_have, must_lack | {node.element})

    walk(tree, 0, set(), set())


def random_family(
    rng: random.Random,
    max_m: int = 10,
    max_n: int = 10,
    max_k: int | None = None,
    multifamily: bool = False,
    allow_empty_members: bool = True,
) -> SetFamily:
    """A small random family; deterministic given the Random instance."""
    n = rng.randrange(1, max_n + 1)
    m = rng.randrange(0, max_m + 1)
    members = []
    seen = set()
    attempts = 0
    while len(members) < m and attempts < 200:
        attempts += 1
        top = max_k if max_k is not None else n
        lo = 0 if allow_empty_members else 1
        size = rng.randrange(lo, min(top, n) + 1)
        mem = tuple(sorted(rng.sample(range(n), size)))
        if not multifamily and mem in seen:
            continue
        seen.add(mem)
        members.append(mem)
    return SetFamily(n, tuple(members), multifamily)


def random_uniform_family(
    rng: random.Random, m: int, n: int, k: int, multifamily: bool = False
) -> SetFamily:
    members = []
    seen = set()
    attempts = 0
    while len(members) < m and attempts < 500:
        attempts += 1
        mem = tuple(sorted(rng.sample(range(n), k)))
        if not multifamily and mem in seen:
            continue
        seen.add(mem)
        members.append(mem)
    return SetFamily(n, tuple(members), multifamily)
