"""Acceptance suite: one test per criterion, each printing a PASS line.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the per-criterion
lines; any assertion failure marks the criterion FAILED.
"""

import json
import math
import random
import time
from fractions import Fraction


from sunflower_lab import (
    SetFamily,
    Sunflower,
    alpha_exact,
    alpha_monte_carlo,
    check_inequalities,
    count_sunflower_tuples,
    evaluate_bound,
    extremal_search,
    find_sunflower,
    gen_k_capturing_disks,
    lambda_number,
    log_star,
    ls1_family,
    ls_dimension,
    packing_number,
    point2,
    popular_element,
    product_family,
    random_lowerbound_family,
    sauer_shelah_capacity,
    transversal_number,
    tree_family,
    vc_dimension,
)
from sunflower_lab.cli import main as cli_main

from oracles import (
    brute_has_sunflower,
    brute_least_transversal,
    brute_vc,
    ls_dimension_tree,
    random_family,
)

_corpus_cache = []


def corpus():
    """500 deterministic random families with m <= 10, n <= 10, k <= 4.

    450 draw nonempty members only; 50 may contain empty members so the
    skip paths (undefined transversal, no popular element) stay exercised.
    """
    if not _corpus_cache:
        rng = random.Random(777_2024)
        _corpus_cache.extend(
            random_family(rng, max_m=10, max_n=10, max_k=4, allow_empty_members=False)
            for _ in range(450)
        )
        _corpus_cache.extend(
            random_family(rng, max_m=10, max_n=10, max_k=4) for _ in range(50)
        )
    return _corpus_cache


def report(criterion: int, name: str, started: float) -> None:
    print(f"ACCEPTANCE {criterion:2d} {name}: PASS ({time.time() - started:.1f}s)")


def test_criterion_01_exact_ls_extremal_values():
    started = time.time()
    for r, k in ((3, 2), (3, 3), (4, 2)):
        t0 = time.time()
        res = extremal_search("ls_bounded", r, k, d=1)
        elapsed = time.time() - t0
        assert res.exact, (r, k)
        assert res.exact_value == k + r - 1, (r, k, res.exact_value)
        assert res.witness.m == res.exact_value - 1
        assert ls_dimension(res.witness)[0] <= 1
        assert find_sunflower(res.witness, r) is None
        assert elapsed < 300, f"({r},{k}) took {elapsed:.1f}s"
    report(1, "ls-bounded extremal values k+r-1", started)


def test_criterion_02_f3_1_exhaustive():
    started = time.time()
    res = extremal_search("family", 3, 1)
    elapsed = time.time() - started
    assert res.exact and res.exact_value == 3
    assert res.witness.m == 2
    assert elapsed < 1.0, f"took {elapsed:.2f}s"
    report(2, "f_3(1) = 3 in under a second", started)


def test_criterion_03_construction_suite():
    started = time.time()
    for r in (3, 4):
        for k in range(1, 7):
            tree = tree_family(r, k)
            assert tree.m == (r - 1) ** (k - 1)
            assert tree.is_uniform() == k
            assert vc_dimension(tree)[0] <= 1
            if tree.m >= 2:
                assert find_sunflower(tree, r) is None
            ls1 = ls1_family(r, k)
            assert ls1.m == k + r - 2
            assert ls1.is_uniform() == k
            if ls1.m >= 2:
                assert ls_dimension(ls1)[0] == 1
                assert find_sunflower(ls1, r) is None
        a, b = tree_family(r, 2), tree_family(r, 3)
        prod = product_family(a, b)
        assert prod.m == a.m * b.m
        assert prod.is_uniform() == 5
        assert find_sunflower(prod, r) is None
    elapsed = time.time() - started
    assert elapsed < 120, f"construction suite took {elapsed:.1f}s"
    report(3, "construction suite (tree, ls1, product)", started)


def test_criterion_04_oracle_equivalence():
    started = time.time()
    assert len(corpus()) >= 500
    from oracles import brute_count_tuples

    for fam in corpus():
        got = find_sunflower(fam, 3) if fam.m >= 2 else None
        assert (got is not None) == brute_has_sunflower(fam, 3)
        if got is not None:
            assert got.holds_in(fam)
        if 0 < fam.m <= 6:
            assert count_sunflower_tuples(fam, 3) == brute_count_tuples(fam, 3)

        vc, witness = vc_dimension(fam)
        assert vc == brute_vc(fam)
        assert len(witness) == vc

        if all(fam.members):
            assert transversal_number(fam).witness == brute_least_transversal(fam)

        ls, tree = ls_dimension(fam)
        ok_at, _ = ls_dimension_tree(fam, ls)
        ok_beyond, _ = ls_dimension_tree(fam, ls + 1)
        if fam.m:
            assert ok_at
        assert not ok_beyond
    report(4, "oracle equivalence on 500 random families", started)


def test_criterion_05_inequality_battery():
    started = time.time()
    skipped = {"dsw": 0, "nu<=tau": 0, "popular_element": 0}
    for fam in corpus():
        if fam.m == 0:
            continue
        md = len(set(fam.members))
        vc, _ = vc_dimension(fam)
        ls, _ = ls_dimension(fam)
        assert vc <= ls
        assert ls <= md.bit_length() - 1
        n_active = len(fam.columns)
        assert md <= sauer_shelah_capacity(n_active, vc)

        if all(fam.members):
            nu = packing_number(fam).value
            tau = transversal_number(fam).value
            assert nu <= tau
            lam = lambda_number(fam, cap=8)
            if lam.exact:
                assert tau <= evaluate_bound("DSW", lam=lam.value, nu=nu).value
            else:
                skipped["dsw"] += 1
            if find_sunflower(fam, 4) is None:
                k = fam.max_member_size()
                _, frac = popular_element(fam)
                assert frac >= Fraction(1, 3 * k)
        else:
            skipped["nu<=tau"] += 1
            skipped["popular_element"] += 1

        rep = check_inequalities(fam, 3)
        assert rep.all_passed, rep.failed()
    print(f"  skipped (reported, not passed): {skipped}")
    report(5, "inequality battery, zero violations", started)


def test_criterion_06_alpha_consistency():
    started = time.time()
    for fam in corpus():
        if fam.m:
            assert alpha_exact(fam, 3) == Fraction(
                count_sunflower_tuples(fam, 3), fam.m**3
            )

    disjoint = SetFamily.from_sets(6, [[0, 1], [2, 3], [4, 5]])
    assert alpha_exact(disjoint, 3) == Fraction(1, 3)

    # uniform sunflower-free families sit exactly at m^(1-r)
    sunflower_free = [tree_family(3, k) for k in (2, 3, 4)]
    sunflower_free += [ls1_family(3, k) for k in (2, 3, 4)]
    rng = random.Random(4242)
    while len(sunflower_free) < 12:
        fam = random_family(rng, max_m=6, max_n=8, multifamily=False)
        if fam.m >= 2 and fam.is_uniform() and find_sunflower(fam, 3) is None:
            sunflower_free.append(fam)
    for fam in sunflower_free:
        assert alpha_exact(fam, 3) == Fraction(1, fam.m**2)

    checked = 0
    trials = 100_000
    for fam in corpus():
        if fam.m < 2 or checked >= 20:
            continue
        exact = alpha_exact(fam, 3)
        est = alpha_monte_carlo(fam, 3, trials=trials, seed=checked)
        est2 = alpha_monte_carlo(fam, 3, trials=trials, seed=checked)
        assert est == est2
        sigma = math.sqrt(float(exact) * (1 - float(exact)) / trials)
        assert abs(est.estimate - float(exact)) <= max(5 * sigma, 1e-12), (
            fam,
            est.estimate,
            float(exact),
        )
        checked += 1
    assert checked == 20
    report(6, "alpha exact and Monte-Carlo consistency", started)


def test_criterion_07_bound_evaluators():
    started = time.time()
    assert evaluate_bound("ER", r=3, k=2).value == 8
    t3u = evaluate_bound("T3U", r=3, k=2, d=1).value
    assert t3u == 6
    h = extremal_search("ls_bounded", 3, 2, d=1).exact_value
    assert h == 4 <= t3u
    assert evaluate_bound("DSW", lam=1, nu=1).value == 220
    assert [log_star(k) for k in (2, 4, 5, 16, 65536)] == [0, 1, 2, 2, 3]
    report(7, "bound evaluators exact values", started)


def _grid_points(rng, count):
    pts, seen = [], set()
    while len(pts) < count:
        p = (Fraction(rng.randrange(2000), 100), Fraction(rng.randrange(2000), 100))
        if p not in seen:
            seen.add(p)
            pts.append(point2(*p))
    return pts


def test_criterion_08_geometry():
    started = time.time()
    from sunflower_lab import Disk, trace_disks

    for seed in range(100):
        rng = random.Random(910_000 + seed)
        pts = _grid_points(rng, 10)
        disks = []
        while len(disks) < 40:
            c = point2(
                Fraction(rng.randrange(-200, 2200), 100),
                Fraction(rng.randrange(-200, 2200), 100),
            )
            r2 = Fraction(rng.randrange(1, 90000), 7)
            if all((p.x - c.x) ** 2 + (p.y - c.y) ** 2 != r2 for p in pts):
                disks.append(Disk(c, r2))
        fam = trace_disks(pts, disks)
        assert vc_dimension(fam)[0] <= 3, seed

    rng = random.Random(5150)
    pts = _grid_points(rng, 12)
    for k in (1, 2, 3):
        _, fam = gen_k_capturing_disks(pts, k=k, count=40, seed=k)
        assert fam.is_uniform() == k

    rng = random.Random(42)
    pts15 = _grid_points(rng, 15)
    _, dense = gen_k_capturing_disks(pts15, k=3, count=300, seed=11)
    assert dense.is_uniform() == 3
    distinct, kept = dense.distinct()
    flower = find_sunflower(distinct, 3)
    assert flower is not None
    indices = tuple(kept[i] for i in flower.member_indices)
    assert Sunflower(flower.core, indices).holds_in(dense)
    report(8, "geometry traces, vc <= 3, dense sunflower", started)


def test_criterion_09_random_lowerbound_override_scale():
    started = time.time()
    d = 3
    fam1, rep1 = random_lowerbound_family(d, 3, 5, n=30, m=20, seed=123)
    fam2, rep2 = random_lowerbound_family(d, 3, 5, n=30, m=20, seed=123)
    assert fam1 == fam2 and rep1 == rep2
    flower = find_sunflower(fam1, 3)
    ls, _ = ls_dimension(fam1)
    # measured and reported; the asymptotic regime is out of reach by design
    print(
        f"  randomlb(n=30, k=5, m=20, seed=123): m_distinct={rep1.m_distinct}, "
        f"sunflower_free={flower is None}, ls={ls} (ls<=d={ls <= d})"
    )
    report(9, "seeded random family, measured properties", started)


def test_criterion_10_reproducibility(tmp_path, capsys):
    started = time.time()

    def run(argv):
        code = cli_main(argv)
        out = capsys.readouterr().out
        return code, out

    outputs = []
    for run_id in (1, 2):
        workdir = tmp_path / f"r{run_id}"
        workdir.mkdir()
        for name, r, k in (("t1.setfam", 3, 3), ("t2.setfam", 4, 2)):
            code, _ = run(["gen", "tree", "--r", str(r), "--k", str(k), "--out", str(workdir / name)])
            assert code == 0
        code, _ = run(
            ["gen", "randomlb", "--d", "3", "--r", "3", "--k", "4", "--n", "12",
             "--m", "9", "--seed", "17", "--out", str(workdir / "rl.setfam")]
        )
        assert code == 0
        code, analyze_1w = run(["analyze", str(workdir), "--json", "--workers", "1"])
        assert code == 0
        code, analyze_4w = run(["analyze", str(workdir), "--json", "--workers", "4"])
        assert code == 0
        assert analyze_1w == analyze_4w
        json.loads(analyze_1w)  # well-formed
        code, alpha_out = run(
            ["alpha", str(workdir / "rl.setfam"), "--r", "3", "--trials", "50000",
             "--seed", "9", "--json"]
        )
        assert code == 0
        outputs.append(analyze_1w + alpha_out)
    assert outputs[0] == outputs[1]
    report(10, "byte-identical JSON across runs and worker counts", started)
