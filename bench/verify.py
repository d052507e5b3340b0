"""Checks of the program's JSON outputs against ``oracle`` and the references.

Each ``check_*`` function returns a list of error strings; empty means the
output is correct.  Files are read with the small parser below, not with
the program's own reader.
"""

from __future__ import annotations

import math
from fractions import Fraction
from pathlib import Path

import oracle


def read_family(path: Path) -> tuple[int, list[tuple[int, ...]], bool]:
    """(ground size, members, multi flag) of a .setfam file."""
    lines = [
        ln.strip() for ln in path.read_text(encoding="ascii").splitlines()
        if ln.strip() and not ln.strip().startswith("#")
    ]
    head = lines[0].split()
    members = [tuple(int(t) for t in ln.split(":", 1)[1].split()) for ln in lines[1:]]
    return int(head[2]), members, "multi" in head[4:]


def expected_analysis(members, r: int, lambda_cap: int) -> dict:
    """The values ``analyze`` must report, computed by the oracle."""
    lam, cap_hit = oracle.lambda_value(members, lambda_cap)
    nonempty = all(members)
    return {
        "vc": oracle.vc(members),
        "ls": oracle.ls(members),
        "nu": oracle.packing(members),
        "tau": oracle.transversal(members) if nonempty else None,
        "lambda": lam,
        "lambda_cap_hit": cap_hit,
        "sunflower": oracle.has_sunflower(members, r) if len(members) >= 2 else False,
    }


def check_analysis(res: dict, n: int, members, multi: bool, want: dict, r: int, cap: int):
    """Witnesses, invariants and values of one ``analyze`` result."""
    errs = []
    fam = res["family"]
    if (fam["m"], fam["n"], fam["multifamily"]) != (len(members), n, multi):
        errs.append(f"family header {fam} does not match the file")
    masks = oracle.distinct_masks(members)
    if len(res["vc_witness"]) != res["vc"] or not oracle.shattered(masks, res["vc_witness"]):
        errs.append(f"vc witness {res['vc_witness']} is not a shattered set of size {res['vc']}")
    errs.append(oracle.ls_tree_error(members, res["ls_witness"], res["ls"]))
    top = len(masks).bit_length() - 1 if masks else 0
    if not res["vc"] <= res["ls"] <= top:
        errs.append(f"vc={res['vc']} <= ls={res['ls']} <= floor(log2 {len(masks)}) fails")
    nu = res["nu"]
    errs.append(oracle.packing_error(members, nu["value"], nu["witness"]))
    tau = res["tau"]
    if "error" in tau:
        if want["tau"] is not None:
            errs.append(f"transversal refused: {tau['error']}")
    else:
        errs.append(oracle.transversal_error(members, tau["value"], tau["witness"]))
        if nu["value"] > tau["value"]:
            errs.append(f"nu={nu['value']} > tau={tau['value']}")
    lam = res["lambda"]
    errs.append(oracle.lambda_error(members, lam["value"], lam["witness"]))
    if lam["cap"] != cap:
        errs.append(f"lambda cap {lam['cap']} is not the requested {cap}")
    sun = res["sunflower"]
    if sun["found"]:
        errs.append(oracle.sunflower_error(members, sun["core"], sun["members"], r))
    for check in res["checks"]:
        if check["status"] == "fail":
            errs.append(f"check {check['name']} fails: {check['detail']}")
    got = {
        "vc": res["vc"],
        "ls": res["ls"],
        "nu": nu["value"],
        "tau": tau.get("value"),
        "lambda": lam["value"],
        "lambda_cap_hit": lam["cap_hit"],
        "sunflower": sun["found"],
    }
    for key, value in want.items():
        if got.get(key) != value:
            errs.append(f"{key}={got.get(key)}, expected {value}")
    return [f"{res['file']}: {e}" for e in errs if e]


def check_alpha_exact(res: dict, members, r: int):
    count = oracle.sunflower_tuple_count(members, r)
    got = Fraction(res["exact"]["num"], res["exact"]["den"])
    want = Fraction(count, len(members) ** r)
    return [] if got == want else [f"alpha exact {got}, enumeration gives {want}"]


def check_alpha_mc(res: dict, members, r: int, trials: int, seed: int):
    p = Fraction(oracle.sunflower_tuple_count(members, r), len(members) ** r)
    errs = []
    if (res["trials"], res["seed"]) != (trials, seed):
        errs.append(f"alpha trials/seed {res['trials']}/{res['seed']} not {trials}/{seed}")
    sigma = math.sqrt(p * (1 - p) / trials)
    if abs(res["estimate"] - float(p)) > 5 * sigma:
        errs.append(f"alpha estimate {res['estimate']} is over 5 sigma from {float(p)}")
    return errs


def check_bound(res: dict, bound_id: str, params: dict):
    want = oracle.bound_value(bound_id, params)
    got = Fraction(res["value"]["num"], res["value"]["den"])
    if got != want:
        return [f"bound {bound_id}{params} = {got}, formula gives {want}"]
    lo, hi = (Fraction(x["num"], x["den"]) for x in res["interval"])
    if bound_id in oracle.OVER_E:
        e_lo, e_hi = oracle.inv_e_bounds()
        if not (lo <= want * e_lo and want * e_hi <= hi and hi - lo <= want / 10**15):
            return [f"bound {bound_id}{params}: interval does not enclose value/e tightly"]
    elif (lo, hi) != (want, want):
        return [f"bound {bound_id}{params}: interval {lo}, {hi} is not the value"]
    return []


def check_extremal(res: dict, kind: str, r: int, k: int, d, want: int, identity=None):
    errs = []
    if not res["exact"]:
        errs.append("search was not exact")
    if res["exact_value"] != want:
        errs.append(f"value {res['exact_value']}, reference {want}")
    # Erdos-Rado: k!(r-1)^k + 1 members force an r-sunflower; a multifamily
    # holds each set at most r-1 times
    cap = math.factorial(k) * (r - 1) ** k + 1
    if kind == "multifamily":
        cap = (r - 1) * (cap - 1) + 1
    if res["exact_value"] > cap:
        errs.append(f"value {res['exact_value']} exceeds the bound {cap}")
    members = [tuple(mem) for mem in res["witness"]["members"]]
    if len(members) != res["exact_value"] - 1:
        errs.append(f"witness has {len(members)} members, not {res['exact_value'] - 1}")
    if any(len(mem) != k or len(set(mem)) != k for mem in members):
        errs.append("witness is not k-uniform")
    if kind != "multifamily" and len(set(members)) != len(members):
        errs.append("witness repeats a member")
    if oracle.has_sunflower(members, r):
        errs.append(f"witness contains an {r}-sunflower")
    if kind == "ls" and oracle.ls(members) > d:
        errs.append(f"witness has Littlestone dimension above {d}")
    if kind == "vc" and oracle.vc(members) > d:
        errs.append(f"witness has VC dimension above {d}")
    if identity is not None:
        rep = res.get("identity_report", {})
        f, g = identity
        candidates = {
            "(r-1)*f+1": (r - 1) * f + 1,
            "(k-1)*f+1": (k - 1) * f + 1,
            "(r-1)*(f-1)+1": (r - 1) * (f - 1) + 1,
        }
        if (rep.get("f"), rep.get("g"), rep.get("exact")) != (f, g, True):
            errs.append(f"identity report f, g = {rep.get('f')}, {rep.get('g')}; expected {f}, {g}")
        elif rep.get("identities") != {name: v == g for name, v in candidates.items()}:
            errs.append(f"identity report flags {rep.get('identities')} are wrong")
    return [f"extremal {kind} r={r} k={k} d={d}: {e}" for e in errs]
