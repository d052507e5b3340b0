"""Benchmark of the sunflower-lab command line, end to end and per layer.

    python3 bench/run.py --workload analyze-hard --seed 1 --seconds 30 --trace 0

Runs one workload's session of CLI commands through
``sunflower_lab.cli.main`` in whole rounds for about ``--seconds`` seconds,
checks every output against ``oracle.py`` and ``reference.json``, and
prints, as its last line, one JSON object with the keys ``correct``,
``attempted``, ``failed`` and ``metrics``.  With ``--trace 0`` the metrics
are the end-to-end ones; with ``--trace 1`` a separate traced run gives
the per-layer ones.  Lines before the last one give the deterministic
counts and the per-operation times.  See README.md.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import io
import json
import multiprocessing
import os
import resource
import shutil
import signal
import statistics
import subprocess
import sys
import time
import traceback
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable

import verify

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
WORK = BENCH / "work"

WORKLOADS = ("analyze-batch", "analyze-hard", "extremal-suite")
OP_LIMIT_S = 20  # an operation still running after this is stopped and counted failed
RUN_DEADLINE_S = 140  # no operation starts later than this into the run
SETUP_SAMPLES = 6  # set-ups timed per run, spread over its rounds
SETUP_LIMIT_S = 60
BATCH_WORKERS = 2
R = 3  # sunflower size for analyze and alpha (the CLI default)
LAMBDA_CAP = 8  # the CLI default


class OpTimeout(Exception):
    pass


def _on_alarm(signum, frame):
    # stop the process pool of a directory analysis along with the operation
    for child in multiprocessing.active_children():
        child.terminate()
    raise OpTimeout


@dataclass
class Op:
    """One CLI command of a round.  ``produced`` decides from the exit code
    and output whether the command gave its result (if not, it failed);
    ``check`` returns the errors in a produced result."""

    name: str
    argv: list[str]
    check: Callable[[dict], list[str]]
    # exit 4 means a property check failed: a result, which ``check`` rejects
    produced: Callable[[int, str], bool] = lambda code, out: code in (0, 4) and out.startswith("{")


@dataclass
class Result:
    op: Op
    wall: float | None  # None: not started
    failure: str = ""


@dataclass
class Round:
    wall: float
    results: list[Result]
    layers: dict = field(default_factory=dict)


class Outputs:
    """The first output each command produced, kept to be checked once.
    Every later output of the same command must repeat it byte for byte; it
    is compared and dropped, so the harness holds one output per command."""

    def __init__(self):
        self.first: dict[tuple, tuple[Op, str]] = {}
        self.differ: set[str] = set()

    def add(self, op: Op, out: str) -> None:
        key = tuple(op.argv)
        if key not in self.first:
            self.first[key] = (op, out)
        elif out != self.first[key][1]:
            self.differ.add(op.name)

    def result(self, op: Op) -> dict | None:
        entry = self.first.get(tuple(op.argv))
        return json.loads(entry[1]) if entry else None

    def errors(self) -> list[str]:
        errs = [f"{name}: output differs between rounds" for name in sorted(self.differ)]
        for op, out in self.first.values():
            errs += op.check(json.loads(out))
        return errs


def run_op(op: Op, cli_main, tracer=None) -> tuple[Result, str]:
    out, err = io.StringIO(), io.StringIO()
    started = time.perf_counter()
    signal.setitimer(signal.ITIMER_REAL, OP_LIMIT_S)
    try:
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            if tracer is None:
                code = cli_main(op.argv)
            else:
                code = tracer.span("cli.main", cli_main, op.argv)
    except OpTimeout:
        failure = f"stopped after {OP_LIMIT_S} s"
    except Exception as exc:  # a crash is one failed operation; the run goes on
        traceback.print_exc()
        failure = f"raised {exc!r}"
    else:
        failure = "" if op.produced(code, out.getvalue()) else (
            f"exit {code}: {err.getvalue().strip()[:200]}"
        )
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0)
    wall = time.perf_counter() - started
    for child in multiprocessing.active_children():
        child.join()
    return Result(op, wall, failure), out.getvalue()


class Session:
    """Runs rounds of operations; none starts after ``deadline``."""

    def __init__(self, cli_main, deadline: float):
        self.cli_main = cli_main
        self.deadline = deadline
        self.outputs = Outputs()

    def round(self, ops: list[Op], tracer=None) -> Round:
        t0 = time.perf_counter()
        results = []
        for i, op in enumerate(ops):
            if time.perf_counter() > self.deadline:
                results.append(Result(op, None, "not started: run deadline passed"))
                continue
            if tracer is not None:
                tracer.op = i
            res, out = run_op(op, self.cli_main, tracer)
            if not res.failure:
                self.outputs.add(op, out)
            results.append(res)
        return Round(time.perf_counter() - t0, results)


# ---------------------------------------------------------------------------
# operations of each workload


def check_directory(items: list[dict], directory: Path) -> list[str]:
    """Each file's analysis in a directory result against the oracle."""
    errs = []
    for item in items:
        n, members, multi = verify.read_family(directory / item["file"])
        want = verify.expected_analysis(members, R, LAMBDA_CAP)
        errs += verify.check_analysis(item, n, members, multi, want, R, LAMBDA_CAP)
    return errs


def batch_ops(man: dict, d: Path, workers: int) -> list[Op]:
    corpus = d / man["corpus"]

    def check_corpus(res):
        if [item.get("file") for item in res["results"]] != man["files"]:
            return ["batch results are not one per file, in file order"]
        return check_directory(res["results"], corpus)

    ops = [Op(
        f"analyze {man['corpus']}/ --workers {workers}",
        ["analyze", str(corpus), "--json", "--workers", str(workers)],
        check_corpus,
    )]
    for rel in man["alpha"]:
        members = lambda rel=rel: verify.read_family(d / rel)[1]  # noqa: E731
        ops.append(Op(
            f"alpha {rel} --exact",
            ["alpha", str(d / rel), "--r", str(R), "--exact", "--json"],
            lambda res, members=members: verify.check_alpha_exact(res, members(), R),
        ))
        trials, seed = man["alpha_trials"], man["alpha_seed"]
        ops.append(Op(
            f"alpha {rel} --trials {trials}",
            ["alpha", str(d / rel), "--r", str(R), "--trials", str(trials),
             "--seed", str(seed), "--json"],
            lambda res, members=members: verify.check_alpha_mc(res, members(), R, trials, seed),
        ))
    for bound_id, params in man["bounds"]:
        argv = ["bounds", bound_id, "--json"]
        for key, value in params.items():
            argv += [f"--{key}", str(value)]
        ops.append(Op(
            f"bounds {bound_id}", argv,
            lambda res, b=bound_id, p=params: verify.check_bound(res, b, p),
        ))
    ops.append(mixed_op(man, d))
    return ops


def mixed_op(man: dict, d: Path) -> Op:
    """``analyze DIR`` over good files and one malformed file.  It has its
    result when every good file's analysis and the bad file's error are
    reported."""
    mixed = d / man["mixed"]
    files = sorted(man["mixed_good"] + [man["mixed_bad"]])

    def produced(code, out):
        try:
            items = json.loads(out)["results"]
        except (ValueError, KeyError, TypeError):
            return False
        by_file = {item.get("file"): item for item in items}
        return sorted(by_file) == files and "error" in by_file[man["mixed_bad"]]

    def check(res):
        good = [item for item in res["results"] if item["file"] != man["mixed_bad"]]
        return check_directory(good, mixed)

    return Op(f"analyze {man['mixed']}/ (one malformed file)",
              ["analyze", str(mixed), "--json"], check, produced)


def hard_ops(man: dict, d: Path, reference: dict) -> list[Op]:
    ops = []
    for name in man["files"]:
        extra = man["extra"][name]
        cap = int(extra[1]) if extra else LAMBDA_CAP
        want = reference[name]

        def check(res, name=name, cap=cap, want=want):
            n, members, multi = verify.read_family(d / name)
            return verify.check_analysis(res, n, members, multi, want, R, cap)

        ops.append(Op(f"analyze {name}", ["analyze", str(d / name), "--json", *extra], check))
    return ops


def extremal_ops(man: dict, reference: dict) -> list[Op]:
    ops = []
    for kind, r, k, d, extra in man["cases"]:
        argv = ["extremal", kind, "--r", str(r), "--k", str(k), "--json", *extra]
        if d is not None:
            argv += ["--d", str(d)]
        want = reference[f"{kind} {r} {k} {d}"]
        ident = reference.get(f"identity {r} {k}") if extra else None
        identity = (ident["f"], ident["g"]) if ident else None
        ops.append(Op(
            f"extremal {kind} r={r} k={k}" + (f" d={d}" if d is not None else ""),
            argv,
            lambda res, a=(kind, r, k, d, want, identity): verify.check_extremal(res, *a),
        ))
    return ops


def build_ops(workload: str, man: dict, d: Path, workers: int) -> list[Op]:
    reference = json.loads((BENCH / "reference.json").read_text())
    if workload == "analyze-batch":
        return batch_ops(man, d, workers)
    if workload == "analyze-hard":
        return hard_ops(man, d, reference["analyze-hard"])
    return extremal_ops(man, reference["extremal-suite"])


# ---------------------------------------------------------------------------
# set-up


def setup_once(workload: str, seed: int, d: Path) -> float:
    """Make the inputs into ``d`` in a fresh interpreter; the time covers
    start-up, package import and input making.  The wait blocks, with an
    alarm as its limit: ``wait(timeout=...)`` polls, which rounds the time
    up to a 50 ms step."""
    shutil.rmtree(d, ignore_errors=True)
    started = time.perf_counter()
    proc = subprocess.Popen(
        [sys.executable, str(BENCH / "inputs.py"), "--workload", workload,
         "--seed", str(seed), "--out", str(d)],
    )
    signal.setitimer(signal.ITIMER_REAL, SETUP_LIMIT_S)
    try:
        code = proc.wait()
    except OpTimeout:
        proc.kill()
        proc.wait()
        raise RuntimeError(f"set-up still running after {SETUP_LIMIT_S} s") from None
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0)
    wall = time.perf_counter() - started
    if code:
        raise subprocess.CalledProcessError(code, proc.args)
    return wall


# ---------------------------------------------------------------------------
# checks and counts


def digest(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest()[:16]


def deterministic_counts(workload: str, man: dict, d: Path, ops: list[Op],
                         outputs: Outputs) -> list[str]:
    """Counts that must repeat exactly on any machine: m and n of the
    inputs and the extremal node counts."""
    lines = []
    if workload == "analyze-batch":
        sizes = [verify.read_family(d / "corpus" / f) for f in man["files"]]
        lines.append(
            f"inputs {len(sizes)} families, m total {sum(len(s[1]) for s in sizes)}, "
            f"n total {sum(s[0] for s in sizes)}, "
            f"sizes digest {digest(repr([(s[0], len(s[1])) for s in sizes]))}"
        )
    elif workload == "analyze-hard":
        for name in man["files"]:
            n, members, _ = verify.read_family(d / name)
            lines.append(f"input {name} m={len(members)} n={n}")
    else:
        for op in ops:
            res = outputs.result(op)
            if res is not None:
                lines.append(f"nodes {op.name}: {res['nodes']}")
    return lines


def best_wall(rounds: list[Round], index: int) -> float:
    """The fastest of an operation's timings over the rounds.  Its work is
    the same in every round, so the spread above the fastest is the shared
    machine's, not the program's."""
    walls = [rnd.results[index].wall for rnd in rounds]
    return min((w for w in walls if w is not None), default=0.0)


def headline_figures(workload: str, man: dict, ops: list[Op], wall: float,
                     rounds: list[Round]) -> list[str]:
    """The workload's own headline figures, printed next to the JSON."""
    if workload == "analyze-hard":
        return [f"hard_wall_s {wall:.4f} s"]
    if workload == "extremal-suite":
        return [f"extremal_wall_s {wall:.4f} s"]
    mc = [i for i, op in enumerate(ops) if "--trials" in op.argv]
    mc_time = sum(best_wall(rounds, i) for i in mc)
    return [
        f"batch_families_per_s {len(man['files']) / best_wall(rounds, 0):.2f} families/s",
        f"alpha_mc_trials_per_s {len(mc) * man['alpha_trials'] / mc_time:.0f} trials/s",
    ]


# ---------------------------------------------------------------------------
# the two kinds of run


def repeat(step, seconds: float, deadline: float) -> list:
    """Call ``step`` until one more call would overrun ``seconds``."""
    out: list = []
    started = time.perf_counter()
    while True:
        out.append(step())
        elapsed = time.perf_counter() - started
        if elapsed + elapsed / len(out) > seconds or time.perf_counter() > deadline:
            return out


def untraced_run(ns, session: Session, d: Path):
    setup = [setup_once(ns.workload, ns.seed, d)]
    man = json.loads((d / "manifest.json").read_text())
    ops = build_ops(ns.workload, man, d, BATCH_WORKERS)
    # Further set-ups are timed between rounds, evenly over the run, so that
    # setup_s spans the same minute of machine speed as the rounds.
    spare = d.with_name(d.name + "-setup")
    started = time.perf_counter()

    def step() -> Round:
        rnd = session.round(ops)
        due = len(setup) * ns.seconds / SETUP_SAMPLES
        if len(setup) < SETUP_SAMPLES and time.perf_counter() - started >= due:
            setup.append(setup_once(ns.workload, ns.seed, spare))
        return rnd

    try:
        rounds = repeat(step, ns.seconds, session.deadline)
    finally:
        shutil.rmtree(spare, ignore_errors=True)
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    kids = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    errs = session.outputs.errors()
    wall = sum(best_wall(rounds, i) for i in range(len(ops)))
    lines = deterministic_counts(ns.workload, man, d, ops, session.outputs)
    lines += headline_figures(ns.workload, man, ops, wall, rounds)
    lines.append(f"setup runs {' '.join(f'{t:.4f}' for t in setup)} s")
    lines.append(f"peak rss {own / 1024:.1f} MB this process, {kids / 1024:.1f} MB largest child")
    for i, op in enumerate(ops):
        lines.append(f"op {best_wall(rounds, i):9.4f} s  {op.name}")
    lines.append(f"rounds {len(rounds)}")
    metrics = {
        "setup_s": (min(setup), "s"),
        "wall_s": (wall, "s"),
        "peak_rss_mb": (max(own, kids) / 1024, "MB"),
    }
    return metrics, rounds, errs, lines


PER_LAYER_TIMES = (
    "fileio.read_setfam",
    "family.packing_number",
    "family.transversal_number",
    "family.lambda_number",
    "family.find_sunflower",
    "dimensions.ls_dimension",
    "dimensions.vc_dimension",
    "constructions.extremal_search",
    "alpha.alpha_monte_carlo",
    "alpha.alpha_exact",
    "family.count_sunflower_tuples",
)
PER_LAYER_CALLS = (
    "family.packing_number",
    "family.transversal_number",
    "family.lambda_number",
    "family.find_sunflower",
    "dimensions.vc_dimension",
    "dimensions.ls_dimension",
)
GENERATORS = (
    "tree_family",
    "ls1_family",
    "product_family",
    "pad_to_uniform",
    "random_lowerbound_family",
)
SETUP_LAYERS = (
    "geometry.gen_k_capturing_disks",
    "geometry.trace_disks",
    "fileio.write_setfam",
)


def layer_figures(summary: dict, nodes: int) -> dict:
    out = {"cli.self_s": summary.get("cli.main_self_s", 0.0)}
    out["alpha.check_inequalities_self_s"] = summary.get("alpha.check_inequalities_self_s", 0.0)
    for name in PER_LAYER_TIMES:
        out[f"{name}_s"] = summary.get(f"{name}_s", 0.0)
    for name in PER_LAYER_CALLS:
        out[f"{name}_calls"] = int(summary.get(f"{name}_calls", 0))
    out["constructions.extremal_nodes"] = nodes
    return out


def traced_run(ns, session: Session, d: Path):
    import inputs
    from tracing import Tracer

    tracer = Tracer()
    d.mkdir(parents=True)
    tracer.install(inputs)
    try:
        man = inputs.make_inputs(ns.workload, ns.seed, d)
    finally:
        tracer.uninstall()
    setup = tracer.summary()
    normal = build_ops(ns.workload, man, d, BATCH_WORKERS)
    single = build_ops(ns.workload, man, d, 1)
    rounds = [session.round(normal)]
    plain = []

    def pair() -> Round:
        plain.append(session.round(single))
        mark = len(tracer.spans)
        tracer.extremal_nodes = 0
        tracer.install()
        try:
            rnd = session.round(single, tracer)
        finally:
            tracer.uninstall()
        rnd.layers = layer_figures(tracer.summary(mark), tracer.extremal_nodes)
        return rnd

    traced = repeat(pair, ns.seconds, session.deadline)
    errs = session.outputs.errors()
    # worker-count contract: the pooled batch equals the single-process one,
    # which every traced round repeated byte for byte
    for a, b in zip(normal, single):
        pooled, alone = session.outputs.result(a), session.outputs.result(b)
        if a.argv != b.argv and pooled is not None and alone is not None and pooled != alone:
            errs.append(f"{a.name}: result differs from the single-process traced run")
    counts = {k: v for k, v in traced[0].layers.items() if not k.endswith("_s")}
    for rnd in traced[1:]:
        if {k: v for k, v in rnd.layers.items() if not k.endswith("_s")} != counts:
            errs.append("call or node counts differ between traced rounds")
    metrics = {}
    for key in traced[0].layers:
        unit = "s" if key.endswith("_s") else "count"
        metrics[key] = (statistics.median(rnd.layers[key] for rnd in traced), unit)
    generators = sum(setup.get(f"constructions.{g}_s", 0.0) for g in GENERATORS)
    metrics["constructions.generators_s"] = (generators, "s")
    for name in SETUP_LAYERS:
        metrics[f"{name}_s"] = (setup.get(f"{name}_s", 0.0), "s")
    overhead = statistics.median(r.wall for r in traced) - statistics.median(r.wall for r in plain)
    metrics["trace.overhead_s"] = (overhead, "s")
    lines = deterministic_counts(ns.workload, man, d, normal, session.outputs)
    lines += [f"count {k} {v}" for k, v in sorted(counts.items())]
    lines.append(f"traced rounds {len(traced)}, spans {len(tracer.spans)}")
    WORK.mkdir(exist_ok=True)
    (WORK / f"trace-{ns.workload}-seed{ns.seed}.json").write_text(json.dumps(tracer.dump()))
    return metrics, rounds + plain + traced, errs, lines


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ns = parser.parse_args()

    sys.path.insert(0, str(ROOT / "src"))
    try:
        from sunflower_lab.cli import main as cli_main
    except ImportError as exc:
        print(f"cannot import sunflower_lab from {ROOT / 'src'}: {exc}", file=sys.stderr)
        return 2
    if not (BENCH / "reference.json").is_file():
        print("bench/reference.json is missing; run bench/make_reference.py", file=sys.stderr)
        return 2

    started = time.perf_counter()
    signal.signal(signal.SIGALRM, _on_alarm)
    session = Session(cli_main, started + RUN_DEADLINE_S)
    d = WORK / f"{ns.workload}-seed{ns.seed}-{os.getpid()}"
    try:
        run = traced_run if ns.trace else untraced_run
        metrics, rounds, errs, lines = run(ns, session, d)
    finally:
        shutil.rmtree(d, ignore_errors=True)

    attempted = sum(len(rnd.results) for rnd in rounds)
    failed = [res for rnd in rounds for res in rnd.results if res.failure]
    for line in lines:
        print(line)
    for name, failure in dict((res.op.name, res.failure) for res in failed).items():
        print(f"failed: {name}: {failure}")
    for err in errs[:50]:
        print(f"incorrect: {err}")
    print(f"run took {time.perf_counter() - started:.1f} s")
    print(json.dumps({
        "correct": not errs,
        "attempted": attempted,
        "failed": len(failed),
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
