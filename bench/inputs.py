"""Make a workload's input files from a seed.

    python3 bench/inputs.py --workload analyze-batch --seed 1 --out DIR

writes the inputs and a ``manifest.json`` describing them into DIR.  The
same workload and seed always give byte-identical files.  ``run.py`` times
this script in a fresh interpreter as the benchmark's set-up, so set-up
covers interpreter start, package import and input making.
"""

from __future__ import annotations

import argparse
import json
import random
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
sys.path.insert(0, str(ROOT / "src"))

from sunflower_lab import (  # noqa: E402
    SetFamily,
    gen_k_capturing_disks,
    ls1_family,
    pad_to_uniform,
    point2,
    product_family,
    random_lowerbound_family,
    trace_disks,
    tree_family,
    write_setfam,
)

WORKLOADS = ("analyze-batch", "analyze-hard", "extremal-suite")

# Structure of the analyze-hard families.  Drawn once from these fixed
# seeds, so the reference values in reference.json hold for every run seed;
# the run seed only relabels the ground set (see relabel).
HARD_STRUCTURE_SEED = 20261017

# analyze-hard: (file, argv extras).  Each file is built so one layer
# dominates its analysis.
HARD_FILES = (
    ("packing.setfam", []),
    ("transversal.setfam", []),
    ("lambda.setfam", []),
    ("sunflower.setfam", ["--lambda-cap", "2"]),
    ("vc.setfam", []),
    ("disks.setfam", []),
)

# extremal-suite: (kind, r, k, d, extra argv).
EXTREMAL_CASES = (
    ("family", 3, 2, None, []),
    ("family", 4, 2, None, []),
    ("multifamily", 3, 2, None, ["--identity-report"]),
    ("ls", 3, 3, 1, []),
    ("ls", 4, 2, 1, []),
    ("ls", 3, 4, 1, []),
    ("vc", 3, 3, 1, []),
    ("vc", 4, 2, 1, []),
)

BATCH_SIZE = 400
ALPHA_TRIALS = 20_000


def relabel(family: SetFamily, ground: int, rng: random.Random) -> SetFamily:
    """An isomorphic copy on ``ground`` elements: element i goes to the i-th
    smallest of a random set of labels.  Element order and member order are
    kept, so every search visits the same nodes as on the original."""
    labels = sorted(rng.sample(range(ground), family.ground_size))
    members = tuple(tuple(labels[e] for e in mem) for mem in family.members)
    return SetFamily(ground, members, family.multifamily)


def shuffled_copy(family: SetFamily, rng: random.Random) -> SetFamily:
    """An isomorphic copy under a random permutation of the ground set."""
    perm = list(range(family.ground_size))
    rng.shuffle(perm)
    return SetFamily.from_sets(
        family.ground_size, ([perm[e] for e in mem] for mem in family.members),
        family.multifamily,
    )


def random_points(rng: random.Random, count: int, side: int):
    coords = rng.sample([(x, y) for x in range(side) for y in range(side)], count)
    return [point2(x, y) for x, y in coords]


def disk_family(rng: random.Random, npoints: int, k: int, count: int) -> SetFamily:
    """Disks capturing k points each, traced back into a multifamily."""
    points = random_points(rng, npoints, 64)
    disks, family = gen_k_capturing_disks(points, k=k, count=count, seed=rng.randrange(10**9))
    traced = trace_disks(points, disks)
    if traced != family:
        raise RuntimeError("trace_disks disagrees with gen_k_capturing_disks")
    return traced


def random_family(rng: random.Random, n: int, m: int, sizes: tuple[int, int]) -> SetFamily:
    """m distinct random members of [n] with sizes in the given range."""
    seen: dict[tuple, None] = {}
    while len(seen) < m:
        seen[tuple(sorted(rng.sample(range(n), rng.randint(*sizes))))] = None
    return SetFamily(n, tuple(seen), False)


# ---------------------------------------------------------------------------
# analyze-batch


def batch_family(rng: random.Random, i: int) -> SetFamily:
    """One small family; the kinds rotate so every generator appears."""
    kind = i % 7
    if kind == 0:
        k = rng.randint(2, 4)
        fam, _ = random_lowerbound_family(
            d=3, r=3, k=k, n=rng.randint(k + 4, 14), m=rng.randint(4, 12),
            seed=rng.randrange(10**9),
        )
        return fam
    if kind == 1:
        return random_family(rng, rng.randint(6, 12), rng.randint(3, 12), (1, 5))
    if kind == 2:
        r, k = rng.choice([(3, 2), (3, 3), (3, 4), (3, 5), (4, 2), (4, 3), (5, 2)])
        return shuffled_copy(tree_family(r, k), rng)
    if kind == 3:
        return shuffled_copy(ls1_family(rng.randint(3, 6), rng.randint(1, 6)), rng)
    if kind == 4:
        first = shuffled_copy(tree_family(3, rng.randint(1, 3)), rng)
        return product_family(first, ls1_family(3, rng.randint(1, 3)))
    if kind == 5:
        base = random_family(rng, rng.randint(5, 9), rng.randint(3, 10), (1, 3))
        return pad_to_uniform(base, base.max_member_size() + rng.randint(0, 2))
    return disk_family(rng, rng.randint(10, 16), rng.randint(2, 4), rng.randint(4, 10))


def make_batch(rng: random.Random, out: Path) -> dict:
    corpus = out / "corpus"
    corpus.mkdir()
    files = []
    for i in range(BATCH_SIZE):
        name = f"f{i:03d}.setfam"
        write_setfam(batch_family(rng, i), corpus / name)
        files.append(name)
    # four kinds with m <= 12, since the check enumerates m^3 tuples
    alpha = [f"corpus/{files[i]}" for i in (1, 5, 7, 10)]
    bounds = [
        ("ER", {"r": rng.randint(3, 6), "k": rng.randint(1, 5)}),
        ("T1", {"r": rng.randint(3, 5), "k": rng.randint(1, 3)}),
        ("T2", {"r": 2, "k": rng.randint(2, 4), "d": 2}),
        ("T3U", {"r": rng.randint(3, 6), "k": rng.randint(2, 6), "d": rng.randint(1, 4)}),
        ("T3L", {"r": 3, "k": rng.randint(12, 20), "d": 3}),
        ("T7", {"r": 3, "k": rng.randint(1, 3), "lam": rng.randint(1, 3)}),
        ("DSW", {"lam": rng.randint(1, 5), "nu": rng.randint(0, 5)}),
        ("SS", {"n": rng.randint(5, 40), "d": rng.randint(0, 4)}),
        ("L3", {"r": 3, "g": rng.randint(2, 20)}),
        ("C1", {"r": 3, "k": rng.randint(2, 4)}),
        ("T4", {"r": 3, "k": 1}),
        ("T6", {"r": 2, "k": 2, "d": rng.randint(2, 3)}),
    ]
    # a fixed small directory with one malformed file: not seeded, so the
    # operation on it fails the same way in every run
    mixed = out / "mixed"
    mixed.mkdir()
    good = ["a_tree.setfam", "b_ls1.setfam", "c_pad.setfam"]
    write_setfam(tree_family(3, 3), mixed / good[0])
    write_setfam(ls1_family(3, 3), mixed / good[1])
    write_setfam(pad_to_uniform(tree_family(4, 2), 3), mixed / good[2])
    (mixed / "bad.setfam").write_text("setfam 1 4 2\n2: 0 1\n2: 3 9\n", encoding="ascii")
    return {
        "corpus": "corpus",
        "files": files,
        "alpha": alpha,
        "alpha_trials": ALPHA_TRIALS,
        "alpha_seed": rng.randrange(10**6),
        "bounds": bounds,
        "mixed": "mixed",
        "mixed_good": good,
        "mixed_bad": "bad.setfam",
    }


# ---------------------------------------------------------------------------
# analyze-hard


def planted_packing(rng: random.Random, n: int, k: int, extra: int) -> SetFamily:
    """n/k disjoint k-sets plus ``extra`` random k-sets, in random order, so
    the packing number is n/k by construction."""
    ground = list(range(n))
    rng.shuffle(ground)
    planted = [tuple(sorted(ground[i:i + k])) for i in range(0, n - n % k, k)]
    seen = dict.fromkeys(planted)
    while len(seen) < len(planted) + extra:
        seen[tuple(sorted(rng.sample(range(n), k)))] = None
    members = list(seen)
    rng.shuffle(members)
    return SetFamily(n, tuple(members), False)


def hard_structures() -> dict[str, SetFamily]:
    """The analyze-hard families before relabeling."""
    def rng(name):
        return random.Random(f"{HARD_STRUCTURE_SEED}/{name}")

    transversal, _ = random_lowerbound_family(d=3, r=3, k=5, n=60, m=40, seed=7)
    disjoint = SetFamily(120, tuple(tuple(range(4 * j, 4 * j + 4)) for j in range(30)))
    return {
        "packing.setfam": planted_packing(rng("packing"), 39, 3, 33),
        "transversal.setfam": transversal,
        "lambda.setfam": tree_family(3, 8),
        "sunflower.setfam": tree_family(3, 9),
        "vc.setfam": disjoint,
        "disks.setfam": disk_family(rng("disks"), 44, 5, 44),
    }


# ground size of each relabeled copy: a quarter more labels than elements,
# except the sparse VC input, whose cost grows with the ground size
HARD_GROUND = {"vc.setfam": 4000}


def make_hard(rng: random.Random, out: Path) -> dict:
    files = []
    for name, family in hard_structures().items():
        ground = HARD_GROUND.get(name, family.ground_size + family.ground_size // 4)
        write_setfam(relabel(family, ground, rng), out / name)
        files.append(name)
    return {"files": files, "extra": {name: extra for name, extra in HARD_FILES}}


# ---------------------------------------------------------------------------
# extremal-suite


def make_extremal(rng: random.Random, out: Path) -> dict:
    cases = [list(case) for case in EXTREMAL_CASES]
    rng.shuffle(cases)
    return {"cases": cases}


def make_inputs(workload: str, seed: int, out: Path) -> dict:
    """Write the workload's inputs into the empty directory ``out``."""
    rng = random.Random(f"{workload}/{seed}")
    maker = {
        "analyze-batch": make_batch,
        "analyze-hard": make_hard,
        "extremal-suite": make_extremal,
    }[workload]
    manifest = {"workload": workload, "seed": seed, **maker(rng, out)}
    (out / "manifest.json").write_text(json.dumps(manifest, indent=1), encoding="ascii")
    return manifest


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--out", type=Path, required=True)
    ns = parser.parse_args()
    ns.out.mkdir(parents=True, exist_ok=False)
    make_inputs(ns.workload, ns.seed, ns.out)
    return 0


if __name__ == "__main__":
    sys.exit(main())
