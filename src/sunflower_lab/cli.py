"""Command-line front end: generate, analyze, estimate, evaluate, search.

Exit codes: 0 success, 2 unparseable input or bad parameters, 3 budget
exhausted, 4 a property check failed, 1 anything else.  ``analyze DIR`` gives
a failing file an entry with its error and exit code, goes on with the other
files and exits with the highest code of them all.  All seeded commands are
deterministic: identical command lines produce byte-identical output,
regardless of the worker count.
"""

from __future__ import annotations

import argparse
import functools
import io
import json
import os
import sys
from contextlib import contextmanager
from fractions import Fraction
from pathlib import Path
from typing import Optional

from .alpha import (
    BOUND_IDS,
    FamilyAnalysis,
    alpha_exact,
    alpha_monte_carlo,
    evaluate_bound,
)
from .constructions import (
    extremal_search,
    ls1_family,
    multifamily_identity_report,
    pad_to_uniform,
    product_family,
    random_lowerbound_family,
    tree_family,
)
from .errors import (
    BudgetExceededError,
    GeneralPositionError,
    InvalidFamilyError,
    ParameterError,
    ParseError,
    SunflowerLabError,
)
from .family import SetFamily
from .fileio import (
    SCENE2_MAGIC,
    SCENE3_MAGIC,
    Scene2,
    _content_lines,
    loads_scene,
    loads_setfam,
    read_scene,
    read_setfam,
    write_scene,
    write_setfam,
)
from .geometry import gen_k_capturing_disks, trace_disks, trace_halfspaces

SCHEMA_VERSION = 1

EXIT_OK = 0
EXIT_OTHER = 1
EXIT_PARSE = 2
EXIT_BUDGET = 3
EXIT_CHECK_FAILURE = 4

# the errors a command reports with a message and an exit code, not a traceback
_REPORTED_ERRORS = (SunflowerLabError, OSError, UnicodeDecodeError)


def _error_exit(exc: Exception) -> tuple[str, int]:
    """The message and exit code that report one of ``_REPORTED_ERRORS``."""
    if isinstance(exc, ParseError):
        return f"parse error: {exc}", EXIT_PARSE
    if isinstance(exc, (ParameterError, InvalidFamilyError, GeneralPositionError)):
        return f"invalid input: {exc}", EXIT_PARSE
    if isinstance(exc, BudgetExceededError):
        return f"budget exhausted: {exc}", EXIT_BUDGET
    if isinstance(exc, (OSError, UnicodeDecodeError)):
        return f"cannot read input: {exc}", EXIT_PARSE
    return f"error: {exc}", EXIT_OTHER


def _discard_stdout() -> None:
    """Point stdout at devnull, so that the flush at exit does not fail again."""
    try:
        fd = sys.stdout.fileno()
    except (AttributeError, OSError, ValueError):
        return  # no descriptor behind stdout, so nothing is flushed to one
    devnull = os.open(os.devnull, os.O_WRONLY)
    os.dup2(devnull, fd)
    os.close(devnull)


def _rat_json(value: Fraction) -> dict:
    return {"num": value.numerator, "den": value.denominator}


def _dump_json(obj: dict) -> str:
    return json.dumps(obj, sort_keys=True, indent=2) + "\n"


def _abbrev_int(value: int, limit: int = 60) -> str:
    s = str(value)
    if len(s) <= limit:
        return s
    return f"{s[0]}.{s[1:7]}e+{len(s) - 1} ({len(s)} digits)"


def _load_family(path: Path) -> SetFamily:
    """Read a .setfam file, or trace a scene file into a family."""
    text = path.read_text(encoding="ascii")
    # both formats skip blank and comment lines, so the first content line decides
    _, first = next(_content_lines(text), (0, ""))
    if first.startswith((SCENE2_MAGIC, SCENE3_MAGIC)):
        scene = loads_scene(text, str(path))
        if isinstance(scene, Scene2):
            return trace_disks(scene.points, scene.disks)
        return trace_halfspaces(scene.points, scene.halfspaces)
    return loads_setfam(text, str(path))


# ---------------------------------------------------------------------------
# analyze


def _analyze_file(path_str: str, r: int, lambda_cap: int, node_budget: Optional[int]) -> dict:
    path = Path(path_str)
    family = _load_family(path)
    result: dict = {
        "schema": SCHEMA_VERSION,
        "file": path.name,
        "r": r,
        "family": {
            "m": family.m,
            "n": family.ground_size,
            "multifamily": family.multifamily,
        },
    }
    analysis = FamilyAnalysis(family, lambda_cap, node_budget)
    vc, vc_w = analysis.vc
    ls, ls_w = analysis.ls
    result["vc"] = vc
    result["vc_witness"] = list(vc_w)
    result["ls"] = ls
    result["ls_witness"] = ls_w.to_dict() if ls_w is not None else None
    nu = analysis.nu
    result["nu"] = {"value": nu.value, "witness": list(nu.witness)}
    if any(not mem for mem in family.members):
        result["tau"] = {"error": "a member is empty; no transversal exists"}
    else:
        tau = analysis.tau
        result["tau"] = {"value": tau.value, "witness": list(tau.witness)}
    lam = analysis.lam
    result["lambda"] = {
        "value": lam.value,
        "witness": list(lam.witness),
        "cap": lam.cap,
        "cap_hit": lam.cap_hit,
    }
    flower = analysis.sunflower(r)
    if flower is None:
        result["sunflower"] = {"found": False}
    else:
        result["sunflower"] = {
            "found": True,
            "core": list(flower.core),
            "members": list(flower.member_indices),
        }
    report = analysis.checks(r)
    result["checks"] = [
        {"name": c.name, "status": c.status, "detail": c.detail} for c in report.checks
    ]
    return result


def _render_analysis_text(res: dict, out) -> None:
    print(f"file: {res['file']}", file=out)
    if "error" in res:
        print(res["error"], file=out)
        return
    fam = res["family"]
    print(
        f"family: m={fam['m']} n={fam['n']} multifamily="
        + ("yes" if fam["multifamily"] else "no"),
        file=out,
    )
    print(f"vc: {res['vc']} witness={res['vc_witness']}", file=out)
    print(f"ls: {res['ls']}", file=out)
    lam = res["lambda"]
    capnote = "cap hit, value is a lower bound" if lam["cap_hit"] else f"exact, cap {lam['cap']}"
    print(f"lambda: {lam['value']} ({capnote}) witness={lam['witness']}", file=out)
    print(f"nu: {res['nu']['value']} witness={res['nu']['witness']}", file=out)
    if "error" in res["tau"]:
        print(f"tau: undefined ({res['tau']['error']})", file=out)
    else:
        print(f"tau: {res['tau']['value']} witness={res['tau']['witness']}", file=out)
    sun = res["sunflower"]
    if sun["found"]:
        print(
            f"sunflower(r={res['r']}): core={sun['core']} members={sun['members']}",
            file=out,
        )
    else:
        print(f"sunflower(r={res['r']}): none", file=out)
    print("checks:", file=out)
    counts = {"pass": 0, "fail": 0, "skip": 0}
    for c in res["checks"]:
        counts[c["status"]] += 1
        print(f"  {c['status']:4s} {c['name']}: {c['detail']}", file=out)
    print(
        f"summary: {counts['pass']} pass, {counts['fail']} fail, {counts['skip']} skip",
        file=out,
    )


def _render_batch_item(res: dict, as_json: bool) -> str:
    """One file's piece of a directory batch: its text block, or its JSON
    indented to sit in the batch's ``results`` list.  JSON escapes every
    newline inside a string, so each raw newline is structural."""
    if as_json:
        return _dump_json(res)[:-1].replace("\n", "\n    ")
    out = io.StringIO()
    _render_analysis_text(res, out)
    return out.getvalue()


def _analyze_worker(args: tuple) -> tuple[int, str]:
    """One file of a directory batch, analysed and rendered where it runs:
    its exit code and its piece of the output.  Its error becomes its entry."""
    path, r, lambda_cap, node_budget, as_json = args
    try:
        res = _analyze_file(path, r, lambda_cap, node_budget)
    except _REPORTED_ERRORS as exc:
        message, code = _error_exit(exc)
        res = {"file": Path(path).name, "error": message, "exit": code}
    return _result_exit(res), _render_batch_item(res, as_json)


def _result_exit(res: dict) -> int:
    if "error" in res:
        return res["exit"]
    failed = any(c["status"] == "fail" for c in res["checks"])
    return EXIT_CHECK_FAILURE if failed else EXIT_OK


def _check_node_budget(ns: argparse.Namespace) -> None:
    if (ns.node_budget or 0) < 0:  # no budget means no limit
        raise ParameterError(f"--node-budget must be >= 0, got {ns.node_budget}")


def cmd_analyze(ns: argparse.Namespace) -> int:
    if ns.r < 3:
        raise ParameterError(f"--r must be >= 3 (r = 2 is always satisfiable), got {ns.r}")
    if ns.lambda_cap < 1:
        raise ParameterError(f"--lambda-cap must be >= 1, got {ns.lambda_cap}")
    _check_node_budget(ns)
    if ns.workers is not None and ns.workers < 1:
        raise ParameterError(f"--workers must be >= 1, got {ns.workers}")
    target = Path(ns.file)
    if not target.is_dir():
        # a single file's error ends the command, reported by main()
        res = _analyze_file(str(target), ns.r, ns.lambda_cap, ns.node_budget)
        if ns.json:
            sys.stdout.write(_dump_json(res))
        else:
            _render_analysis_text(res, sys.stdout)
        return _result_exit(res)
    # only a directory needs workers, so only it reads the environment; the
    # parser never does, since main reuses one parser per process
    workers = _default_workers() if ns.workers is None else ns.workers
    files = sorted(p for p in target.iterdir() if p.suffix == ".setfam")
    if not files:
        print(f"no .setfam files in {target}", file=sys.stderr)
        return EXIT_OTHER
    jobs = [(str(p), ns.r, ns.lambda_cap, ns.node_budget, ns.json) for p in files]
    # about four chunks per worker, as multiprocessing.Pool.map sends,
    # and no more workers than chunks
    chunksize = -(-len(jobs) // (4 * workers))
    workers = min(workers, -(-len(jobs) // chunksize))
    if workers > 1:
        # only a pooled batch pays for importing the pool
        from concurrent.futures import ProcessPoolExecutor

        pool = ProcessPoolExecutor(max_workers=workers)
        try:
            return _write_batch(pool.map(_analyze_worker, jobs, chunksize=chunksize), ns.json)
        finally:
            # a batch cut short (its reader gone: BrokenPipeError) starts no
            # chunk not yet begun; a finished one has none left to cancel
            pool.shutdown(cancel_futures=True)
    return _write_batch(map(_analyze_worker, jobs), ns.json)


def _write_batch(results, as_json: bool) -> int:
    """Write each file's piece, rendered by its worker, as soon as it is next
    in filename order, so the batch output is never joined into one string;
    the highest exit code of them all."""
    if as_json:
        # the batch document around a placeholder item, in _dump_json's layout
        head, _, tail = _dump_json({"schema": SCHEMA_VERSION, "results": [None]}).partition("null")
        sep = ",\n    "
    else:
        head, sep, tail = "", "\n", ""  # a blank line between text blocks
    out = sys.stdout
    out.write(head)
    code = EXIT_OK
    for i, (file_code, piece) in enumerate(results):
        if i:
            out.write(sep)
        out.write(piece)
        code = max(code, file_code)
    out.write(tail)
    return code


# ---------------------------------------------------------------------------
# gen


def cmd_gen(ns: argparse.Namespace) -> int:
    report: dict = {"schema": SCHEMA_VERSION, "kind": ns.kind}
    if ns.kind == "tree":
        family = tree_family(ns.r, ns.k)
        report.update(r=ns.r, k=ns.k, m=family.m, n=family.ground_size)
    elif ns.kind == "ls1":
        family = ls1_family(ns.r, ns.k)
        report.update(r=ns.r, k=ns.k, m=family.m, n=family.ground_size)
    elif ns.kind == "product":
        first = read_setfam(ns.in1)
        second = read_setfam(ns.in2)
        family = product_family(first, second)
        report.update(
            m1=first.m, m2=second.m, m=family.m, n=family.ground_size
        )
    elif ns.kind == "pad":
        family = pad_to_uniform(read_setfam(ns.in1), ns.k)
        report.update(k=ns.k, m=family.m, n=family.ground_size)
    elif ns.kind == "randomlb":
        family, rep = random_lowerbound_family(
            d=ns.d, r=ns.r, k=ns.k, n=ns.n, m=ns.m, seed=ns.seed
        )
        report.update(rep._asdict(), notes=list(rep.notes))
    elif ns.kind == "disks":
        scene = read_scene(ns.points)
        if not isinstance(scene, Scene2):
            raise ParameterError("gen disks needs a scene2 file of points")
        disks, family = gen_k_capturing_disks(
            scene.points, k=ns.k, count=ns.count, seed=ns.seed
        )
        report.update(
            k=ns.k, count=ns.count, seed=ns.seed, m=family.m, n=family.ground_size
        )
        if ns.scene_out:
            write_scene(Scene2(scene.points, disks), ns.scene_out)
            report["scene_out"] = str(ns.scene_out)
    else:  # pragma: no cover - argparse restricts choices
        raise ParameterError(f"unknown kind {ns.kind}")
    write_setfam(family, ns.out)
    report["out"] = str(ns.out)
    if ns.json:
        sys.stdout.write(_dump_json(report))
    else:
        pairs = " ".join(f"{k}={v}" for k, v in report.items() if k != "schema")
        print(f"gen {pairs}")
    return EXIT_OK


# ---------------------------------------------------------------------------
# alpha


def cmd_alpha(ns: argparse.Namespace) -> int:
    if ns.r < 2:
        raise ParameterError(f"--r must be >= 2, got {ns.r}")
    _check_node_budget(ns)
    family = _load_family(Path(ns.file))
    payload = {"schema": SCHEMA_VERSION, "file": Path(ns.file).name, "r": ns.r, "m": family.m}
    with _int_digits_unlimited():  # m^r may pass the default digit limit
        if ns.exact:
            value = alpha_exact(family, ns.r, budget=ns.node_budget)
            payload["exact"] = _rat_json(value)
            text = f"alpha exact = {value} (m={family.m}, r={ns.r})"
        else:
            est = alpha_monte_carlo(family, ns.r, trials=ns.trials, seed=ns.seed)
            payload.update(estimate=est.estimate, trials=est.trials, seed=est.seed)
            text = (
                f"alpha estimate = {est.estimate!r} "
                f"(m={family.m}, r={ns.r}, trials={est.trials}, seed={est.seed})"
            )
        sys.stdout.write(_dump_json(payload) if ns.json else text + "\n")
    return EXIT_OK


# ---------------------------------------------------------------------------
# bounds


@contextmanager
def _int_digits_unlimited():
    """Lift Python's limit on int-to-str digits for the block, where it has one.
    Bound values and alpha's m^r stay under ``BOUND_BIT_CAP`` bits, so they
    print fast."""
    get = getattr(sys, "get_int_max_str_digits", None)
    if get is None:
        yield
        return
    old = get()
    sys.set_int_max_str_digits(0)
    try:
        yield
    finally:
        sys.set_int_max_str_digits(old)


def cmd_bounds(ns: argparse.Namespace) -> int:
    params = {}
    for name in ("r", "k", "d", "lam", "nu", "n", "g"):
        value = getattr(ns, name)
        if value is not None:
            params[name] = value
    bound = evaluate_bound(ns.bound_id, **params)
    with _int_digits_unlimited():
        lo, hi = bound.interval
        payload = {
            "schema": SCHEMA_VERSION,
            "bound_id": bound.bound_id,
            "params": dict(bound.params),
            "formula": bound.formula,
            "value": _rat_json(bound.value),
            "over_e": bound.over_e,
            "asymptotic": bound.asymptotic,
            "interval": [_rat_json(lo), _rat_json(hi)],
        }
        if bound.note:
            payload["note"] = bound.note
        if ns.json:
            sys.stdout.write(_dump_json(payload))
        else:
            args = ", ".join(f"{k}={v}" for k, v in bound.params)
            if bound.value.denominator == 1 and not bound.over_e:
                shown = _abbrev_int(bound.value.numerator)
            elif bound.over_e:
                shown = f"({bound.value}) / e in [{float(lo):.6g}, {float(hi):.6g}]"
            else:
                shown = f"{_abbrev_int(bound.value.numerator)}/{_abbrev_int(bound.value.denominator)}"
            print(f"{bound.bound_id}({args}) = {shown}   formula: {bound.formula}")
            if bound.note:
                print(f"note: {bound.note}")
    return EXIT_OK


# ---------------------------------------------------------------------------
# extremal


_KIND_ALIASES = {
    "family": "family",
    "multifamily": "multifamily",
    "ls": "ls_bounded",
    "vc": "vc_bounded",
}


def cmd_extremal(ns: argparse.Namespace) -> int:
    _check_node_budget(ns)
    kind = _KIND_ALIASES[ns.kind]
    if ns.identity_report and kind != "multifamily":
        raise ParameterError(f"--identity-report applies only to multifamily, not {ns.kind}")
    result = extremal_search(
        kind, ns.r, ns.k, d=ns.d, ground_cap=ns.ground_cap, node_budget=ns.node_budget
    )
    payload = {
        "schema": SCHEMA_VERSION,
        "kind": result.kind,
        "r": result.r,
        "k": result.k,
        "d": result.d,
        "exact_value": result.exact_value,
        "exact": result.exact,
        "nodes": result.nodes,
        "check_nodes": result.check_nodes,
        "max_ground_used": result.max_ground_used,
        "witness": {
            "m": result.witness.m,
            "n": result.witness.ground_size,
            "members": [list(mem) for mem in result.witness.members],
        },
        "notes": list(result.notes),
    }
    if ns.identity_report:
        uncapped = result
        if ns.ground_cap is not None:  # the report reads an uncapped search
            uncapped = extremal_search(kind, ns.r, ns.k, node_budget=ns.node_budget)
        payload["identity_report"] = multifamily_identity_report(uncapped)
    if ns.json:
        sys.stdout.write(_dump_json(payload))
    else:
        tag = "" if result.exact else " (budget hit: lower bound only)"
        dpart = f", d={result.d}" if result.d is not None else ""
        print(
            f"extremal {ns.kind}(r={result.r}, k={result.k}{dpart}) = "
            f"{result.exact_value}{tag}"
        )
        print(
            f"witness: m={result.witness.m} n={result.witness.ground_size} "
            f"members={[list(mem) for mem in result.witness.members]}"
        )
        print(f"search: {result.nodes} nodes, max ground used {result.max_ground_used}")
        if "identity_report" in payload:
            rep = payload["identity_report"]
            print(
                f"identity report: f={rep['f']} g={rep['g']} supported="
                + ", ".join(k for k, v in rep["identities"].items() if v)
            )
    return EXIT_OK if result.exact else EXIT_BUDGET


# ---------------------------------------------------------------------------
# parser


def _default_workers() -> int:
    """The worker count ``SUNFLOWER_LAB_THREADS`` sets, 1 if it is unset or
    empty; anything but a positive integer is refused."""
    env = os.environ.get("SUNFLOWER_LAB_THREADS")
    if not env:
        return 1
    try:
        workers = int(env)
    except ValueError:
        workers = 0
    if workers < 1:
        raise ParameterError(f"SUNFLOWER_LAB_THREADS must be an integer >= 1, got {env!r}")
    return workers


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The command-line parser, built once per process and reused by every
    ``main`` call.  It must read no environment or other state, so that a
    reused parser parses as a fresh one would; ``SUNFLOWER_LAB_THREADS`` is
    read by ``cmd_analyze`` for that reason."""
    parser = argparse.ArgumentParser(
        prog="sunflower-lab",
        description=(
            "Exact combinatorics of finite set families: sunflower search, "
            "VC and Littlestone dimension, packing/transversal numbers, "
            "probability estimates, threshold bounds, and geometric traces."
        ),
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_gen = sub.add_parser("gen", help="generate a family or scene file")
    gen_sub = p_gen.add_subparsers(dest="kind", required=True)

    def add_common_gen(p):
        p.add_argument("--out", required=True, help="output .setfam path")
        p.add_argument("--json", action="store_true", help="emit the report as JSON")
        p.set_defaults(func=cmd_gen)

    p = gen_sub.add_parser("tree", help="path family of a complete (r-1)-ary tree")
    p.add_argument("--r", type=int, required=True)
    p.add_argument("--k", type=int, required=True)
    add_common_gen(p)

    p = gen_sub.add_parser("ls1", help="Littlestone-dimension-1 family of k+r-2 k-sets")
    p.add_argument("--r", type=int, required=True)
    p.add_argument("--k", type=int, required=True)
    add_common_gen(p)

    p = gen_sub.add_parser("product", help="disjoint-copy product of two uniform families")
    p.add_argument("--in1", required=True)
    p.add_argument("--in2", required=True)
    add_common_gen(p)

    p = gen_sub.add_parser("pad", help="pad members with fresh dummies up to size k")
    p.add_argument("--in1", required=True)
    p.add_argument("--k", type=int, required=True)
    add_common_gen(p)

    p = gen_sub.add_parser("randomlb", help="random k-subsets of [n], duplicates collapsed")
    p.add_argument("--d", type=int, required=True)
    p.add_argument("--r", type=int, required=True)
    p.add_argument("--k", type=int, required=True)
    p.add_argument("--n", type=int)
    p.add_argument("--m", type=int)
    p.add_argument("--seed", type=int, default=0)
    add_common_gen(p)

    p = gen_sub.add_parser("disks", help="disks capturing exactly k points each")
    p.add_argument("--points", required=True, help="scene2 file providing the points")
    p.add_argument("--k", type=int, required=True)
    p.add_argument("--count", type=int, required=True)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--scene-out", help="also write the points + disks scene")
    add_common_gen(p)

    p = sub.add_parser("analyze", help="dimensions, numbers, sunflower, checks")
    p.add_argument("file", help=".setfam or scene file, or a directory of .setfam files")
    p.add_argument("--r", type=int, default=3)
    p.add_argument("--lambda-cap", type=int, default=8)
    p.add_argument("--node-budget", type=int)
    p.add_argument("--workers", type=int)
    p.add_argument("--json", action="store_true")
    p.set_defaults(func=cmd_analyze)

    p = sub.add_parser("alpha", help="pairwise-equal-intersection probability")
    p.add_argument("file")
    p.add_argument("--r", type=int, default=3)
    group = p.add_mutually_exclusive_group(required=True)
    group.add_argument("--exact", action="store_true")
    group.add_argument("--trials", type=int)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--node-budget", type=int)
    p.add_argument("--json", action="store_true")
    p.set_defaults(func=cmd_alpha)

    p = sub.add_parser("bounds", help="evaluate a catalogued closed-form bound")
    p.add_argument("bound_id", choices=list(BOUND_IDS))
    p.add_argument("--r", type=int)
    p.add_argument("--k", type=int)
    p.add_argument("--d", type=int)
    p.add_argument("--lam", type=int)
    p.add_argument("--nu", type=int)
    p.add_argument("--n", type=int)
    p.add_argument("--g", type=int)
    p.add_argument("--json", action="store_true")
    p.set_defaults(func=cmd_bounds)

    p = sub.add_parser("extremal", help="exhaustive least-size-forcing-a-sunflower search")
    p.add_argument("kind", choices=sorted(_KIND_ALIASES))
    p.add_argument("--r", type=int, required=True)
    p.add_argument("--k", type=int, required=True)
    p.add_argument("--d", type=int)
    p.add_argument("--ground-cap", type=int)
    p.add_argument("--node-budget", type=int)
    p.add_argument("--identity-report", action="store_true")
    p.add_argument("--json", action="store_true")
    p.set_defaults(func=cmd_extremal)

    return parser


def main(argv: Optional[list[str]] = None) -> int:
    parser = build_parser()
    try:
        ns = parser.parse_args(argv)
    except SystemExit as exc:
        # argparse uses 2 for usage errors already; normalize other exits
        return int(exc.code) if exc.code is not None else EXIT_OTHER
    try:
        code = ns.func(ns)
        sys.stdout.flush()
        return code
    except BrokenPipeError:
        # the reader of stdout went away (``| head``): not an input error
        _discard_stdout()
        return EXIT_OTHER
    except _REPORTED_ERRORS as exc:
        message, code = _error_exit(exc)
        print(message, file=sys.stderr)
        return code


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
