"""Make bench/reference.json anew: the values analyze-hard and extremal-suite
must report, computed without the program.

    python3 bench/make_reference.py

The analyze-hard values come from the exact searches in ``oracle.py`` on
the un-relabeled inputs; relabeling is an isomorphism, so they hold for
every run seed.  Where a construction fixes a value (planted packing, tree
path families, disjoint members) that value is asserted as well.  The
extremal values come from the exhaustive search below, cross-checked
against the known closed forms where one exists.  Takes about 20 s.
"""

from __future__ import annotations

import json
import math
import sys
import time
from itertools import combinations
from pathlib import Path

import inputs
import oracle
from verify import expected_analysis

REFERENCE = Path(__file__).resolve().parent / "reference.json"


# ---------------------------------------------------------------------------
# extremal search


def largest_free_family(kind: str, r: int, k: int, d) -> int:
    """Size of the largest k-uniform family (multifamily for that kind) with
    no r-sunflower and, for kinds ls / vc, dimension at most d.

    Families are enumerated with members in increasing lexicographic order
    (non-decreasing for multifamilies) and ground elements labelled in order
    of first appearance.  Every family has such a form: repeatedly take the
    member whose labelled tuple is least, giving its new elements the next
    labels; relabelling can only raise the other members' tuples, so the
    sequence increases.  Both constraints hold for subfamilies, so a node
    that breaks one has no valid extension.
    """
    best = 0

    def free_with(members, new) -> bool:
        # the family without ``new`` has no sunflower, so any new one uses it
        sets = [frozenset(m) for m in members]
        new_set = frozenset(new)
        for others in combinations(sets, r - 1):
            group = others + (new_set,)
            if len({a & b for a, b in combinations(group, 2)}) == 1:
                return False
        return True

    def dimension_ok(members) -> bool:
        if kind == "ls":
            return oracle.ls(members) <= d
        if kind == "vc":
            return oracle.vc(members) <= d
        return True

    def extend(members, used):
        nonlocal best
        best = max(best, len(members))
        last = members[-1] if members else None
        for fresh in range(k + 1):
            block = tuple(range(used, used + fresh))
            for base in combinations(range(used), k - fresh):
                cand = base + block
                if last is not None and (cand < last or (cand == last and kind != "multifamily")):
                    continue
                if free_with(members, cand) and dimension_ok(members + [cand]):
                    extend(members + [cand], used + fresh)

    extend([], 0)
    return best


def require(ok: bool, what) -> None:
    if not ok:
        raise SystemExit(f"reference check failed: {what}")


def chvatal_hanson(nu: int, delta: int) -> int:
    """Most edges in a graph with matching number <= nu and maximum degree
    <= delta (Chvatal and Hanson, 1976)."""
    return nu * delta + (delta // 2) * (nu // -(-delta // 2))


def extremal_reference() -> dict:
    out = {}
    for kind, r, k, d, _extra in inputs.EXTREMAL_CASES:
        started = time.perf_counter()
        value = largest_free_family(kind, r, k, d) + 1
        if kind == "family" and k == 2:
            # a 2-uniform r-sunflower is an r-matching or an r-star
            require(value == chvatal_hanson(r - 1, r - 1) + 1, (kind, r, k, value))
        if kind == "multifamily":
            # in a uniform multifamily a sunflower with a repeated set is r
            # copies of it, so g = (r-1)(f-1) + 1
            f = largest_free_family("family", r, k, None) + 1
            require(value == (r - 1) * (f - 1) + 1, (kind, r, k, value))
            out[f"identity {r} {k}"] = {"f": f, "g": value}
        if kind == "ls" and d == 1:
            require(value == k + r - 1, (kind, r, k, value))
        erdos_rado = math.factorial(k) * (r - 1) ** k * (r - 1 if kind == "multifamily" else 1)
        require(value <= erdos_rado + 1, (kind, r, k, value))
        out[f"{kind} {r} {k} {d}"] = value
        print(f"extremal {kind} r={r} k={k} d={d}: {value} "
              f"({time.perf_counter() - started:.1f} s)", file=sys.stderr)
    return out


# ---------------------------------------------------------------------------
# analyze-hard


def hard_reference() -> dict:
    out = {}
    extra = dict(inputs.HARD_FILES)
    for name, family in inputs.hard_structures().items():
        started = time.perf_counter()
        members = list(family.members)
        cap = int(extra[name][1]) if extra[name] else 8
        out[name] = want = expected_analysis(members, 3, cap)
        print(f"{name}: {want} ({time.perf_counter() - started:.1f} s)", file=sys.stderr)
    # values fixed by construction
    require(out["packing.setfam"]["nu"] == 39 // 3, "planted packing")
    for name, k in (("lambda.setfam", 8), ("sunflower.setfam", 9)):
        tree = out[name]
        require((tree["nu"], tree["tau"], tree["vc"], tree["ls"]) == (1, 1, 1, k - 1), name)
        require(tree["lambda"] == 2 and not tree["sunflower"], name)
    disjoint = out["vc.setfam"]
    require((disjoint["nu"], disjoint["tau"], disjoint["vc"], disjoint["ls"]) == (30, 30, 1, 1)
            and disjoint["lambda"] == 1 and disjoint["sunflower"], "disjoint members")
    return out


def main() -> int:
    fresh = {"analyze-hard": hard_reference(), "extremal-suite": extremal_reference()}
    REFERENCE.write_text(json.dumps(fresh, indent=1, sort_keys=True) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
