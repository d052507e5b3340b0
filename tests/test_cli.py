import concurrent.futures
import io
import json
import math
import os
import random
import subprocess
import sys
import time
import tracemalloc
from pathlib import Path

import pytest

import sunflower_lab
from sunflower_lab import (
    BudgetExceededError,
    ParameterError,
    ParseError,
    SetFamily,
    cli,
    read_setfam,
    tree_family,
    write_setfam,
)
from sunflower_lab.cli import (
    EXIT_BUDGET,
    EXIT_CHECK_FAILURE,
    EXIT_OK,
    EXIT_OTHER,
    EXIT_PARSE,
    _analyze_file,
    _dump_json,
    _int_digits_unlimited,
    _render_analysis_text,
    build_parser,
    main,
)


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


class TestGen:
    def test_gen_tree(self, capsys, tmp_path):
        out = tmp_path / "t.setfam"
        code, stdout, _ = run_cli(capsys, "gen", "tree", "--r", "3", "--k", "3", "--out", str(out))
        assert code == EXIT_OK
        fam = read_setfam(out)
        assert fam.m == 4 and fam.is_uniform() == 3
        assert "m=4" in stdout

    def test_gen_ls1(self, capsys, tmp_path):
        out = tmp_path / "l.setfam"
        code, stdout, _ = run_cli(capsys, "gen", "ls1", "--r", "3", "--k", "4", "--out", str(out))
        assert code == EXIT_OK
        assert read_setfam(out).m == 5

    def test_gen_product(self, capsys, tmp_path):
        a = tmp_path / "a.setfam"
        b = tmp_path / "b.setfam"
        out = tmp_path / "p.setfam"
        run_cli(capsys, "gen", "tree", "--r", "3", "--k", "2", "--out", str(a))
        run_cli(capsys, "gen", "tree", "--r", "3", "--k", "3", "--out", str(b))
        code, _, _ = run_cli(capsys, "gen", "product", "--in1", str(a), "--in2", str(b), "--out", str(out))
        assert code == EXIT_OK
        assert read_setfam(out).m == 8

    def test_gen_randomlb_deterministic(self, capsys, tmp_path):
        f1 = tmp_path / "r1.setfam"
        f2 = tmp_path / "r2.setfam"
        args = ["gen", "randomlb", "--d", "3", "--r", "3", "--k", "5", "--n", "30", "--m", "20", "--seed", "7"]
        assert run_cli(capsys, *args, "--out", str(f1))[0] == EXIT_OK
        assert run_cli(capsys, *args, "--out", str(f2))[0] == EXIT_OK
        assert f1.read_bytes() == f2.read_bytes()

    def test_gen_disks(self, capsys, tmp_path):
        scene = tmp_path / "pts.scene"
        lines = ["scene2 1 6"] + [f"p {x} {7 * x % 5}" for x in range(6)]
        scene.write_text("\n".join(lines) + "\n")
        out = tmp_path / "d.setfam"
        scene_out = tmp_path / "full.scene"
        code, _, _ = run_cli(
            capsys, "gen", "disks", "--points", str(scene), "--k", "2",
            "--count", "10", "--seed", "3", "--out", str(out),
            "--scene-out", str(scene_out),
        )
        assert code == EXIT_OK
        fam = read_setfam(out)
        assert fam.m == 10 and fam.is_uniform() == 2
        assert scene_out.exists()

    def test_gen_bad_params_exit_code(self, capsys, tmp_path):
        code, _, err = run_cli(capsys, "gen", "tree", "--r", "2", "--k", "3", "--out", str(tmp_path / "x"))
        assert code == EXIT_PARSE
        assert "r >= 3" in err


class TestAnalyze:
    @pytest.fixture()
    def tree_file(self, tmp_path, capsys):
        out = tmp_path / "tree34.setfam"
        run_cli(capsys, "gen", "tree", "--r", "3", "--k", "4", "--out", str(out))
        return out

    def test_analyze_text(self, capsys, tree_file):
        code, stdout, _ = run_cli(capsys, "analyze", str(tree_file), "--r", "3")
        assert code == EXIT_OK
        assert "vc: 1" in stdout
        assert "sunflower(r=3): none" in stdout
        assert "0 fail" in stdout

    def test_analyze_json_schema(self, capsys, tree_file):
        code, stdout, _ = run_cli(capsys, "analyze", str(tree_file), "--json")
        assert code == EXIT_OK
        doc = json.loads(stdout)
        assert doc["schema"] == 1
        assert doc["vc"] == 1
        assert doc["sunflower"] == {"found": False}
        assert all(c["status"] != "fail" for c in doc["checks"])

    def test_analyze_finds_disjoint_sunflower(self, capsys, tmp_path):
        f = tmp_path / "disj.setfam"
        write_setfam(SetFamily.from_sets(6, [[0, 1], [2, 3], [4, 5]]), f)
        code, stdout, _ = run_cli(capsys, "analyze", str(f), "--r", "3")
        assert code == EXIT_OK
        assert "core=[] members=[0, 1, 2]" in stdout

    def test_analyze_parse_error_exit(self, capsys, tmp_path):
        bad = tmp_path / "bad.setfam"
        bad.write_text("setfam 1 2 1\n9: 0\n")
        code, _, err = run_cli(capsys, "analyze", str(bad))
        assert code == EXIT_PARSE
        assert "parse error" in err

    def test_analyze_scene_led_by_a_comment(self, capsys, tmp_path):
        # blank and comment lines may precede the scene header, as in .setfam
        plain, commented = tmp_path / "plain", tmp_path / "commented"
        plain.mkdir()
        commented.mkdir()
        text = "scene2 1 1\np 0 0\nd 0 0 1\n"
        (plain / "one.scene").write_text(text)
        (commented / "one.scene").write_text("# comment\n\n" + text)
        code, want, _ = run_cli(capsys, "analyze", str(plain / "one.scene"), "--json")
        assert code == EXIT_OK
        code, got, err = run_cli(capsys, "analyze", str(commented / "one.scene"), "--json")
        assert (code, err) == (EXIT_OK, "")
        assert got == want
        assert json.loads(got)["family"] == {"m": 1, "n": 1, "multifamily": True}

    def test_analyze_directory_ordering_and_workers(self, capsys, tmp_path):
        for r, k, name in ((3, 2, "b.setfam"), (3, 3, "a.setfam"), (4, 2, "c.setfam")):
            run_cli(capsys, "gen", "tree", "--r", str(r), "--k", str(k), "--out", str(tmp_path / name))
        code1, out1, _ = run_cli(capsys, "analyze", str(tmp_path), "--json", "--workers", "1")
        code4, out4, _ = run_cli(capsys, "analyze", str(tmp_path), "--json", "--workers", "4")
        assert code1 == code4 == EXIT_OK
        assert out1 == out4
        doc = json.loads(out1)
        assert [r["file"] for r in doc["results"]] == ["a.setfam", "b.setfam", "c.setfam"]

    def test_analyze_directory_reports_bad_file_and_goes_on(self, capsys, tmp_path):
        for r, k, name in ((3, 2, "a.setfam"), (3, 3, "c.setfam")):
            run_cli(capsys, "gen", "tree", "--r", str(r), "--k", str(k), "--out", str(tmp_path / name))
        (tmp_path / "b.setfam").write_text("setfam 1 2 1\n9: 0\n")
        code1, out1, _ = run_cli(capsys, "analyze", str(tmp_path), "--json", "--workers", "1")
        code2, out2, _ = run_cli(capsys, "analyze", str(tmp_path), "--json", "--workers", "2")
        assert code1 == code2 == EXIT_PARSE
        assert out1 == out2
        results = json.loads(out1)["results"]
        assert [r["file"] for r in results] == ["a.setfam", "b.setfam", "c.setfam"]
        assert results[1]["exit"] == EXIT_PARSE
        assert results[1]["error"].startswith("parse error: ")
        for good in (results[0], results[2]):
            assert "error" not in good and good["vc"] == 1

    def test_analyze_directory_in_chunks(self, capsys, tmp_path):
        # 25 files, more than 4 x 4: chunks of 4 files at 2 workers and of 2
        # at 4, the malformed f09 inside one
        rng = random.Random(20)
        names = [f"f{i:02d}.setfam" for i in range(25)]
        for name in names:
            sets = {frozenset(rng.sample(range(6), rng.randint(1, 3))) for _ in range(6)}
            write_setfam(SetFamily.from_sets(6, sets), tmp_path / name)
        (tmp_path / names[9]).write_text("setfam 1 2 1\n9: 0\n")
        runs = [
            run_cli(capsys, "analyze", str(tmp_path), "--json", "--workers", workers)
            for workers in ("1", "2", "4")
        ]
        assert runs[0] == runs[1] == runs[2]
        code, out, _ = runs[0]
        assert code == EXIT_PARSE
        results = json.loads(out)["results"]
        assert [r["file"] for r in results] == names
        assert [i for i, r in enumerate(results) if "error" in r] == [9]
        assert results[9]["exit"] == EXIT_PARSE

    def test_analyze_directory_starts_no_idle_worker(self, capsys, tmp_path, monkeypatch):
        started = []

        class Pool(concurrent.futures.ProcessPoolExecutor):
            def __init__(self, max_workers):
                started.append(max_workers)
                super().__init__(max_workers)

        # cmd_analyze imports the pool only when it starts one
        monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", Pool)
        for name in ("a.setfam", "b.setfam", "c.setfam"):
            write_setfam(tree_family(3, 2), tmp_path / name)
        code, _, _ = run_cli(capsys, "analyze", str(tmp_path), "--json", "--workers", "8")
        assert code == EXIT_OK
        assert started == [3]

    @pytest.mark.parametrize("flags", ((), ("--json",)))
    def test_analyze_directory_cancels_chunks_when_the_reader_goes(
        self, capsys, tmp_path, monkeypatch, flags
    ):
        ran, shutdowns = [], []

        class ClosedPipe:
            def write(self, text):
                raise BrokenPipeError(32, "Broken pipe")

            def flush(self):
                pass

        class Pool:
            """Submits every chunk at ``map`` and runs one only when its result is read."""

            def __init__(self, max_workers):
                self.pending = []

            def map(self, fn, jobs, chunksize):
                self.pending = list(jobs)

                def results():
                    while self.pending:
                        job = self.pending.pop(0)
                        ran.append(job)
                        yield fn(job)

                return results()

            def shutdown(self, wait=True, cancel_futures=False):
                shutdowns.append((cancel_futures, len(self.pending)))
                if cancel_futures:
                    self.pending.clear()
                while self.pending:  # waiting runs every chunk left
                    ran.append(self.pending.pop(0))

        monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", Pool)
        for name in ("a.setfam", "b.setfam", "c.setfam"):
            write_setfam(tree_family(3, 2), tmp_path / name)
        with monkeypatch.context() as patch:
            patch.setattr(sys, "stdout", ClosedPipe())
            code = main(["analyze", str(tmp_path), "--workers", "2", *flags])
        assert code == EXIT_OTHER
        assert shutdowns[0] == (True, 3)  # the first write failed before any chunk ran
        assert ran == []
        assert capsys.readouterr().err == ""

    @pytest.mark.parametrize(
        "bad_param",
        (("--r", "2"), ("--lambda-cap", "0"), ("--node-budget", "-1"), ("--workers", "0")),
    )
    @pytest.mark.parametrize("workers", ("1", "2"))
    def test_analyze_directory_bad_parameter_reported_once(
        self, capsys, tmp_path, bad_param, workers
    ):
        for name in ("a.setfam", "b.setfam"):
            write_setfam(tree_family(3, 2), tmp_path / name)
        # a one-member family is refused too: no file skips the parameter check
        one = tmp_path / "one.setfam"
        write_setfam(SetFamily.from_sets(2, [[0]]), one)
        code, out, err = run_cli(
            capsys, "analyze", str(tmp_path), "--json", "--workers", workers, *bad_param
        )
        assert code == EXIT_PARSE
        assert out == ""
        assert err.count("invalid input: ") == 1
        code, out, err = run_cli(capsys, "analyze", str(one), *bad_param)
        assert code == EXIT_PARSE
        assert out == ""
        assert err.count("invalid input: ") == 1
        assert err.startswith(f"invalid input: {bad_param[0]} must be >= ")
        if bad_param[0] == "--r":
            assert err == "invalid input: --r must be >= 3 (r = 2 is always satisfiable), got 2\n"

    def test_analyze_one_file_directory_keeps_batch_shape(self, capsys, tmp_path):
        good, bad = tmp_path / "good", tmp_path / "bad"
        good.mkdir()
        bad.mkdir()
        write_setfam(tree_family(3, 2), good / "a.setfam")
        (bad / "b.setfam").write_text("setfam 1 2 1\n9: 0\n")
        code, out, _ = run_cli(capsys, "analyze", str(good), "--json")
        assert code == EXIT_OK
        doc = json.loads(out)
        assert doc["schema"] == 1 and [r["file"] for r in doc["results"]] == ["a.setfam"]
        code, out, _ = run_cli(capsys, "analyze", str(bad), "--json")
        assert code == EXIT_PARSE
        doc = json.loads(out)
        assert doc["schema"] == 1 and doc["results"][0]["exit"] == EXIT_PARSE

    @pytest.mark.parametrize("workers", ("1", "2"))
    def test_analyze_directory_renders_each_file_as_alone(self, capsys, tmp_path, workers):
        # a good file, one whose empty member gives the tau error entry and
        # a malformed one; the batch must print what the single-file results
        # and the error entry print on their own, joined
        write_setfam(tree_family(3, 3), tmp_path / "a.setfam")
        write_setfam(SetFamily.from_sets(4, [[0, 1], [], [2, 3], [1, 2]]), tmp_path / "b.setfam")
        (tmp_path / "c.setfam").write_text("setfam 1 2 1\n9: 0\n")
        results = []
        for name in ("a.setfam", "b.setfam", "c.setfam"):
            try:
                results.append(_analyze_file(str(tmp_path / name), 3, 8, None))
            except ParseError as exc:
                results.append({"file": name, "error": f"parse error: {exc}", "exit": EXIT_PARSE})
        assert "error" in results[1]["tau"] and results[2]["exit"] == EXIT_PARSE

        code, out, err = run_cli(capsys, "analyze", str(tmp_path), "--json", "--workers", workers)
        assert (code, err) == (EXIT_PARSE, "")
        want = json.dumps({"schema": 1, "results": results}, sort_keys=True, indent=2) + "\n"
        assert out == want

        blocks = []
        for res in results:
            block = io.StringIO()
            _render_analysis_text(res, block)
            blocks.append(block.getvalue())
        code, out, err = run_cli(capsys, "analyze", str(tmp_path), "--workers", workers)
        assert (code, err) == (EXIT_PARSE, "")
        assert out == "\n".join(blocks)

    def test_analyze_computes_each_quantity_once(self, tmp_path, monkeypatch):
        # patch every reference the package holds, so a second route to a
        # search is counted too
        calls = {}
        names = ("vc_dimension", "ls_dimension", "packing_number",
                 "transversal_number", "lambda_number", "find_sunflower")
        for name in names:
            original = getattr(sunflower_lab, name)

            def counted(*args, _name=name, _fn=original, **kwargs):
                calls[_name] += 1
                return _fn(*args, **kwargs)

            for mod_name, mod in list(sys.modules.items()):
                if mod_name.startswith("sunflower_lab") and getattr(mod, name, None) is original:
                    monkeypatch.setattr(mod, name, counted)
        f = tmp_path / "fam.setfam"
        for family, sunflower_calls in (
            # sunflower-free at r = 3, so r + 1 = 4 needs no search
            (tree_family(3, 4), 1),
            # a 3-sunflower, so the popular-element check searches r + 1 = 4
            (SetFamily.from_sets(6, [[0, 1], [2, 3], [4, 5]]), 2),
        ):
            calls.update(dict.fromkeys(names, 0))
            write_setfam(family, f)
            _analyze_file(str(f), 3, 8, None)
            assert calls == {**dict.fromkeys(names, 1), "find_sunflower": sunflower_calls}

    def test_declared_ground_costs_nothing(self, tmp_path):
        # members over [3] declared over a ground of 30,000,000: every answer
        # and the column table follow what the members hold
        results = []
        for n in (3, 30_000_000):
            f = tmp_path / f"g{n}.setfam"
            f.write_text(f"setfam 1 {n} 2\n2: 0 1\n2: 1 2\n", encoding="ascii")
            family = read_setfam(f)
            assert len(family.columns) == 3
            res = _analyze_file(str(f), 3, 8, None)
            assert (res.pop("file"), res["family"].pop("n")) == (f.name, n)
            results.append(res)
        assert results[0] == results[1]

    def test_wide_label_analyses_as_a_narrow_one(self, tmp_path):
        # 60 members {i, i + 60, label}: label 29,999,999 gives the analysis
        # of label 199 once the label and the ground are renamed back, within
        # the narrow file's least node budget and a small tracemalloc peak
        texts = []
        for label in (199, 29_999_999):
            f = tmp_path / str(label) / "f.setfam"
            f.parent.mkdir()
            rows = "".join(f"3: {i} {i + 60} {label}\n" for i in range(60))
            f.write_text(f"setfam 1 {label + 1} 60\n{rows}", encoding="ascii")
            with pytest.raises(BudgetExceededError):
                _analyze_file(str(f), 3, 8, 180)
            tracemalloc.start()
            try:
                res = _analyze_file(str(f), 3, 8, 181)
                peak = tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()
            assert peak < 5 * 2**20, peak
            texts.append(_dump_json(res))
        narrow, wide = texts
        assert '"n": 30000000' in wide and "29999999" in wide
        assert wide.replace("29999999", "199").replace("30000000", "200") == narrow


class TestAlphaCommand:
    def test_exact(self, capsys, tmp_path):
        f = tmp_path / "disj.setfam"
        write_setfam(SetFamily.from_sets(6, [[0, 1], [2, 3], [4, 5]]), f)
        code, stdout, _ = run_cli(capsys, "alpha", str(f), "--r", "3", "--exact", "--json")
        assert code == EXIT_OK
        doc = json.loads(stdout)
        assert doc["exact"] == {"num": 1, "den": 3}

    def test_single_set_family(self, capsys, tmp_path):
        f = tmp_path / "one.setfam"
        write_setfam(SetFamily.from_sets(2, [[0, 1]]), f)
        code, stdout, _ = run_cli(capsys, "alpha", str(f), "--r", "3", "--exact")
        assert code == EXIT_OK
        assert "alpha exact = 1" in stdout

    def test_exact_large_r_prints(self, capsys, tmp_path):
        f = tmp_path / "path.setfam"
        write_setfam(SetFamily.from_sets(4, [[0, 1], [1, 2], [2, 3]]), f)
        code, stdout, _ = run_cli(capsys, "alpha", str(f), "--r", "20000", "--exact")
        assert code == EXIT_OK
        with _int_digits_unlimited():
            assert stdout == f"alpha exact = 1/{3**19_999} (m=3, r=20000)\n"
        code, stdout, err = run_cli(capsys, "alpha", str(f), "--r", "70000", "--exact")
        assert code == EXIT_PARSE
        assert stdout == ""
        assert err.startswith("invalid input: exact value has more than 65536 bits")
        assert "alpha's denominator m^r" in err and "bound values" not in err

    @pytest.mark.parametrize("mode", (("--exact",), ("--trials", "10")))
    def test_bad_r_named_before_the_file_is_read(self, capsys, tmp_path, mode):
        missing = tmp_path / "missing.setfam"
        code, out, err = run_cli(capsys, "alpha", str(missing), "--r", "1", *mode)
        assert code == EXIT_PARSE
        assert out == ""
        assert err == "invalid input: --r must be >= 2, got 1\n"

    @pytest.mark.parametrize("mode", (("--exact",), ("--trials", "10")))
    def test_negative_node_budget_named_before_the_file_is_read(self, capsys, tmp_path, mode):
        missing = tmp_path / "missing.setfam"
        code, out, err = run_cli(
            capsys, "alpha", str(missing), "--node-budget", "-1", *mode
        )
        assert code == EXIT_PARSE
        assert out == ""
        assert err == "invalid input: --node-budget must be >= 0, got -1\n"

    def test_trials_deterministic(self, capsys, tmp_path):
        f = tmp_path / "disj.setfam"
        write_setfam(SetFamily.from_sets(6, [[0, 1], [2, 3], [4, 5]]), f)
        args = ("alpha", str(f), "--r", "3", "--trials", "10000", "--seed", "1", "--json")
        _, out1, _ = run_cli(capsys, *args)
        _, out2, _ = run_cli(capsys, *args)
        assert out1 == out2


class TestBoundsCommand:
    def test_t3u(self, capsys):
        code, stdout, _ = run_cli(capsys, "bounds", "T3U", "--r", "3", "--k", "2", "--d", "1")
        assert code == EXIT_OK
        assert "= 6" in stdout

    def test_json_rational(self, capsys):
        code, stdout, _ = run_cli(capsys, "bounds", "L3", "--r", "3", "--g", "5", "--json")
        assert code == EXIT_OK
        doc = json.loads(stdout)
        assert doc["value"] == {"num": 1, "den": 25}
        assert doc["over_e"] is True

    def test_out_of_range(self, capsys):
        code, _, err = run_cli(capsys, "bounds", "T1", "--r", "2", "--k", "1")
        assert code == EXIT_PARSE

    def test_value_past_bit_cap_is_a_parameter_error(self, capsys):
        # a 328,050-bit value: refused with exit 2, not a traceback
        code, stdout, err = run_cli(capsys, "bounds", "T2", "--r", "3", "--k", "5", "--d", "3")
        assert code == EXIT_PARSE
        assert stdout == ""
        assert "65536 bits" in err

    def test_ss_is_summed_by_the_running_ratio(self, capsys):
        # a 20,000-bit sum of 10,001 binomials, under the cap
        start = time.perf_counter()
        code, stdout, _ = run_cli(capsys, "bounds", "SS", "--n", "20000", "--d", "10000", "--json")
        assert time.perf_counter() - start < 0.5
        assert code == EXIT_OK
        # by symmetry, the binomials up to n/2 sum to 2^(n-1) + C(n, n/2)/2
        with _int_digits_unlimited():
            want = str(2**19999 + math.comb(20000, 10000) // 2)
        assert f'"num": {want}\n' in stdout

    def test_dsw_is_sized_before_its_binomial_is_built(self, capsys):
        # C(400000, 200000) alone has about 400,000 bits
        start = time.perf_counter()
        code, stdout, err = run_cli(capsys, "bounds", "DSW", "--lam", "200000", "--nu", "200000")
        assert time.perf_counter() - start < 0.05
        assert code == EXIT_PARSE
        assert stdout == ""
        assert "65536 bits" in err

    def test_values_past_int_str_limit_print(self, capsys):
        # 10^5000 has more digits than Python's default int-to-str limit
        code, stdout, _ = run_cli(capsys, "bounds", "T1", "--r", "10", "--k", "500")
        assert code == EXIT_OK
        assert "= 1.000000e+5000 (5001 digits)" in stdout
        code, stdout, _ = run_cli(capsys, "bounds", "T1", "--r", "10", "--k", "500", "--json")
        assert code == EXIT_OK
        assert f'"num": 1{"0" * 5000}\n' in stdout


class TestExtremalCommand:
    def test_ls_kind(self, capsys):
        code, stdout, _ = run_cli(capsys, "extremal", "ls", "--d", "1", "--r", "3", "--k", "2")
        assert code == EXIT_OK
        assert "= 4" in stdout

    def test_family_kind(self, capsys):
        code, stdout, _ = run_cli(capsys, "extremal", "family", "--r", "3", "--k", "1")
        assert code == EXIT_OK
        assert "= 3" in stdout

    def test_budget_exit(self, capsys):
        code, stdout, _ = run_cli(capsys, "extremal", "family", "--r", "3", "--k", "2", "--node-budget", "4")
        assert code == EXIT_BUDGET
        assert "lower bound" in stdout

    def test_negative_node_budget_refused(self, capsys):
        # refused before the search, which would otherwise report a lower bound
        code, out, err = run_cli(
            capsys, "extremal", "family", "--r", "3", "--k", "2", "--node-budget", "-1"
        )
        assert code == EXIT_PARSE
        assert out == ""
        assert err == "invalid input: --node-budget must be >= 0, got -1\n"

    def test_identity_report(self, capsys):
        code, stdout, _ = run_cli(
            capsys, "extremal", "multifamily", "--r", "3", "--k", "1", "--identity-report", "--json"
        )
        assert code == EXIT_OK
        doc = json.loads(stdout)
        assert doc["identity_report"]["identities"]["(r-1)*(f-1)+1"] is True

    def test_identity_report_ignores_ground_cap(self, capsys):
        # the report compares the uncapped f and g, whatever cap the
        # reported search ran under
        code, stdout, _ = run_cli(
            capsys, "extremal", "multifamily", "--r", "3", "--k", "2",
            "--ground-cap", "4", "--identity-report", "--json",
        )
        assert code == EXIT_OK
        doc = json.loads(stdout)
        assert (doc["exact_value"], doc["nodes"]) == (9, 10)
        rep = doc["identity_report"]
        assert (rep["f"], rep["g"], rep["exact"]) == (7, 13, True)
        assert rep["identities"] == {
            "(r-1)*f+1": False,
            "(k-1)*f+1": False,
            "(r-1)*(f-1)+1": True,
        }

    def test_identity_report_refused_for_other_kinds(self, capsys):
        code, out, err = run_cli(
            capsys, "extremal", "family", "--r", "3", "--k", "1", "--identity-report"
        )
        assert code == EXIT_PARSE
        assert out == ""
        assert err == "invalid input: --identity-report applies only to multifamily, not family\n"

    def test_d_refused_for_family(self, capsys):
        code, out, err = run_cli(capsys, "extremal", "family", "--r", "3", "--k", "2", "--d", "5")
        assert code == EXIT_PARSE
        assert out == ""
        assert err == "invalid input: kind 'family' takes no d, got 5\n"

    def test_multifamily_budget_exit(self, capsys):
        # the family search's lower bound 8 gives g >= 3 * (8 - 1) + 1
        code, stdout, _ = run_cli(
            capsys, "extremal", "multifamily", "--r", "4", "--k", "2", "--node-budget", "8", "--json"
        )
        assert code == EXIT_BUDGET
        doc = json.loads(stdout)
        assert (doc["exact"], doc["exact_value"], doc["witness"]["m"]) == (False, 22, 21)

    def test_ground_cap_below_k_refused(self, capsys):
        # no k-set fits under the cap: refused before any node is searched
        code, out, err = run_cli(
            capsys, "extremal", "family", "--r", "3", "--k", "2", "--ground-cap", "-5"
        )
        assert code == EXIT_PARSE
        assert out == ""
        assert err == "invalid input: extremal_search requires ground_cap >= k = 2, got -5\n"

    def test_json_reports_check_nodes(self, capsys):
        code, stdout, _ = run_cli(capsys, "extremal", "family", "--r", "3", "--k", "2", "--json")
        assert code == EXIT_OK
        doc = json.loads(stdout)
        assert (doc["nodes"], doc["check_nodes"]) == (30, 33)


class TestEntryPoint:
    def test_module_invocation(self, tmp_path):
        out = tmp_path / "t.setfam"
        proc = subprocess.run(
            [sys.executable, "-m", "sunflower_lab.cli", "gen", "tree", "--r", "3", "--k", "3", "--out", str(out)],
            capture_output=True,
            text=True,
        )
        assert proc.returncode == 0
        assert out.exists()

    def test_import_loads_no_dataclasses_or_pool(self):
        # every command pays the package's import; only a pooled batch
        # imports the process pool, and no module builds dataclasses
        src = Path(__file__).resolve().parent.parent / "src"
        code = (
            "import sys; before = set(sys.modules)\n"
            "import sunflower_lab, sunflower_lab.cli\n"
            "heavy = ('dataclasses', 'inspect', 'concurrent.futures', 'multiprocessing')\n"
            "print(sorted(m for m in heavy if m in sys.modules and m not in before))"
        )
        proc = subprocess.run(
            [sys.executable, "-c", code],
            env={**os.environ, "PYTHONPATH": str(src)},
            capture_output=True,
            text=True,
        )
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout == "[]\n"

    def test_usage_error_is_exit_2(self):
        proc = subprocess.run(
            [sys.executable, "-m", "sunflower_lab.cli", "nonsense"],
            capture_output=True,
            text=True,
        )
        assert proc.returncode == 2

    def test_reused_parser_parses_as_a_fresh_one(self, capsys, tmp_path, monkeypatch):
        # one process runs a usage error, then three commands; each must give
        # what a fresh interpreter gives for the same argv
        monkeypatch.setenv("COLUMNS", "80")  # usage lines wrap at this width
        monkeypatch.delenv("SUNFLOWER_LAB_THREADS", raising=False)
        for name, family in (("a.setfam", tree_family(3, 3)), ("b.setfam", tree_family(4, 2))):
            write_setfam(family, tmp_path / name)
        argvs = (
            ["analyze"],
            ["analyze", str(tmp_path / "a.setfam"), "--json"],
            ["bounds", "ER", "--r", "3", "--k", "4", "--json"],
            ["analyze", str(tmp_path)],
        )
        assert build_parser() is build_parser()
        codes = []
        for argv in argvs:
            got = run_cli(capsys, *argv)
            fresh = subprocess.run(
                [sys.executable, "-m", "sunflower_lab.cli", *argv], capture_output=True, text=True
            )
            assert got == (fresh.returncode, fresh.stdout, fresh.stderr)
            codes.append(got[0])
        assert codes == [EXIT_PARSE, EXIT_OK, EXIT_OK, EXIT_OK]


class TestExitCodes:
    def test_check_failure_exit_4(self, capsys, tmp_path, monkeypatch):
        # no real family can violate the battery, so force one failing check
        from sunflower_lab.alpha import CheckResult, FamilyAnalysis, InequalityReport

        def fake_checks(*args, **kwargs):
            return InequalityReport((CheckResult("forced", "fail", "synthetic"),))

        monkeypatch.setattr(FamilyAnalysis, "checks", fake_checks)
        f = tmp_path / "t.setfam"
        write_setfam(SetFamily.from_sets(3, [[0, 1], [1, 2]]), f)
        code, stdout, _ = run_cli(capsys, "analyze", str(f))
        assert code == EXIT_CHECK_FAILURE
        assert "1 fail" in stdout

    def test_budget_exit_3_on_analyze(self, capsys, tmp_path):
        f = tmp_path / "big.setfam"
        from sunflower_lab import tree_family

        write_setfam(tree_family(4, 5), f)
        code, _, err = run_cli(capsys, "analyze", str(f), "--node-budget", "5")
        assert code == EXIT_BUDGET
        assert "budget" in err

    def test_broken_pipe_is_not_an_input_error(self, capsys, tmp_path, monkeypatch):
        class ClosedPipe:
            def write(self, text):
                raise BrokenPipeError(32, "Broken pipe")

            def flush(self):
                pass

        for name in ("a.setfam", "b.setfam"):
            write_setfam(SetFamily.from_sets(3, [[0, 1], [1, 2]]), tmp_path / name)
        with monkeypatch.context() as patch:
            patch.setattr(sys, "stdout", ClosedPipe())
            codes = [
                main(["analyze", str(tmp_path)]),
                main(["analyze", str(tmp_path), "--json"]),
                main(["analyze", str(tmp_path / "a.setfam"), "--json"]),
            ]
        assert codes == [EXIT_OTHER] * 3
        assert capsys.readouterr().err == ""
        # a file that cannot be read is still an input error
        code, _, err = run_cli(capsys, "analyze", str(tmp_path / "missing.setfam"))
        assert code == EXIT_PARSE
        assert "cannot read input" in err

    def test_threads_env_sets_default_workers(self, monkeypatch):
        from sunflower_lab.cli import _default_workers

        monkeypatch.setenv("SUNFLOWER_LAB_THREADS", "4")
        assert _default_workers() == 4
        for bad in ("garbage", "0", "-3"):
            monkeypatch.setenv("SUNFLOWER_LAB_THREADS", bad)
            with pytest.raises(ParameterError, match="SUNFLOWER_LAB_THREADS"):
                _default_workers()
        monkeypatch.setenv("SUNFLOWER_LAB_THREADS", "")
        assert _default_workers() == 1
        monkeypatch.delenv("SUNFLOWER_LAB_THREADS")
        assert _default_workers() == 1

    @pytest.mark.parametrize("bad", ("abc", "0", "-3"))
    def test_bad_threads_env_refused_where_workers_are_needed(self, capsys, tmp_path, monkeypatch, bad):
        monkeypatch.setenv("SUNFLOWER_LAB_THREADS", bad)
        write_setfam(tree_family(3, 2), tmp_path / "a.setfam")
        code, out, err = run_cli(capsys, "analyze", str(tmp_path), "--json")
        assert (code, out) == (EXIT_PARSE, "")
        assert err == f"invalid input: SUNFLOWER_LAB_THREADS must be an integer >= 1, got {bad!r}\n"
        # --workers overrides the variable, and nothing else reads it
        assert run_cli(capsys, "analyze", str(tmp_path), "--json", "--workers", "1")[0] == EXIT_OK
        assert run_cli(capsys, "analyze", str(tmp_path / "a.setfam"), "--json")[0] == EXIT_OK
        assert run_cli(capsys, "bounds", "T3U", "--r", "3", "--k", "2", "--d", "1")[0] == EXIT_OK


class TestReproducibility:
    def test_seeded_pipeline_byte_identical(self, capsys, tmp_path):
        blobs = []
        for run in (1, 2):
            subdir = tmp_path / f"run{run}"
            subdir.mkdir()
            fam_path = subdir / "fam.setfam"
            run_cli(
                capsys, "gen", "randomlb", "--d", "3", "--r", "3", "--k", "4",
                "--n", "12", "--m", "10", "--seed", "5", "--out", str(fam_path), "--json",
            )
            _, out, _ = run_cli(capsys, "analyze", str(fam_path), "--json")
            blobs.append(out + fam_path.read_text())
        assert blobs[0] == blobs[1]
