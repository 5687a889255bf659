import argparse
import json
import os
import subprocess
import sys

import pytest

import semidlog
from semidlog import (
    DLOG_SOLVERS,
    banin_tsaban_cycle_length,
    brute_force_cycle,
    cycle_start_search,
    deterministic_cycle_length,
    find_cycle,
    make_context,
    monico_cycle_length,
    parse_element_spec,
)
from semidlog.cli import build_parser, main

ZMOD2 = '{"type":"zmod","modulus":100,"value":2}'
ZMOD68 = '{"type":"zmod","modulus":100,"value":68}'


def run_cli(args, capsys):
    code = main(args)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_cycle_text_output(capsys):
    code, out, _ = run_cli(["cycle", ZMOD2], capsys)
    assert code == 0
    assert "cycle_start=2 cycle_length=20 order=21" in out


def test_cycle_brute_monogenic(capsys):
    code, out, _ = run_cli(
        ["cycle", "--alg", "brute", '{"type":"monogenic","s":5,"L":12,"e":1}'],
        capsys)
    assert code == 0
    assert "cycle_start=5 cycle_length=12" in out


def test_cycle_monico_json_reproducible(capsys):
    args = ["cycle", "--alg", "monico", "--bound", "100", "--B", "100",
            "--seed", "1", "--json-output", ZMOD2]
    code, out1, _ = run_cli(args, capsys)
    assert code == 0
    doc = json.loads(out1)
    assert doc["cycle"] == {"cycle_start": 2, "cycle_length": 20, "order": 21}
    assert doc["verified"] is True
    code, out2, _ = run_cli(args, capsys)
    assert out1 == out2  # byte identical


def test_cycle_banin_reproducible(capsys):
    args = ["cycle", "--alg", "banin-tsaban", "--bound", "64", "--rounds",
            "3,2", "--seed", "4", "--json-output", ZMOD2]
    code, out1, _ = run_cli(args, capsys)
    assert code == 0
    code, out2, _ = run_cli(args, capsys)
    assert out1 == out2
    assert json.loads(out1)["cycle"]["cycle_length"] == 20


def test_cycle_deterministic_trace_in_json(capsys):
    code, out, _ = run_cli(["cycle", "--json-output", ZMOD2], capsys)
    doc = json.loads(out)
    assert doc["trace"]["rounds"][-1]["giant_hit"] == [3, 4]
    assert doc["multiplications"] > 0


def test_cycle_verification_failure_exit_3(capsys):
    # divisor bound 2 cannot strip the factor 3 from 165 = 3 * 55
    spec = '{"type":"monogenic","s":151,"L":55,"e":1}'
    code, out, err = run_cli(
        ["cycle", "--alg", "monico", "--bound", "206", "--B", "2", spec],
        capsys)
    assert code == 3
    assert "verification failed" in err
    code, out, _ = run_cli(
        ["cycle", "--alg", "monico", "--bound", "206", "--B", "2",
         "--no-verify", spec], capsys)
    assert code == 0
    assert "cycle_length=165" in out


# ------------------------------------------ dispatch matches the library

CYCLE_ALGS = ("deterministic", "monico", "banin-tsaban", "brute")
# (--bound, --B, --rounds) for the CLI; None leaves the flag unset
FLAG_SETS = {"unset": (None, None, None), "set": (64, 100, (3, 2))}


def _flags(bound, divisor_bound, rounds):
    out = []
    if bound is not None:
        out += ["--bound", str(bound)]
    if divisor_bound is not None:
        out += ["--B", str(divisor_bound)]
    if rounds is not None:
        out += ["--rounds", f"{rounds[0]},{rounds[1]}"]
    return out


def _library_cycle(ctx, x, alg, bound, divisor_bound, rounds, seed):
    """Each algorithm called directly with the CLI's documented defaults:
    --B 10^4, and for banin-tsaban a starting bound of 16 and rounds 4,3.
    Returns (start, length, trace or None)."""
    if alg == "brute":
        cyc = brute_force_cycle(ctx, x)
        return cyc.cycle_start, cyc.cycle_length, None
    if alg == "deterministic":
        length, trace = deterministic_cycle_length(ctx, x, bound)
    elif alg == "monico":
        length, trace = monico_cycle_length(ctx, x, bound,
                                            divisor_bound or 10 ** 4)
    else:
        inner, outer = rounds or (4, None)
        length, trace = banin_tsaban_cycle_length(
            ctx, x, bound or 16, inner_rounds=inner, outer_rounds=outer,
            seed=seed)
    return cycle_start_search(ctx, x, length), length, trace


@pytest.mark.parametrize("flags", sorted(FLAG_SETS))
@pytest.mark.parametrize("alg", CYCLE_ALGS)
def test_cycle_dispatch_matches_library_call(alg, flags, capsys):
    bound, divisor_bound, rounds = FLAG_SETS[flags]
    code, out, _ = run_cli(
        ["cycle", "--alg", alg, "--seed", "5", "--no-verify",
         "--json-output", *_flags(bound, divisor_bound, rounds), ZMOD2],
        capsys)
    assert code == 0
    doc = json.loads(out)

    ctx, x = parse_element_spec(ZMOD2)
    start, length, trace = _library_cycle(ctx, x, alg, bound, divisor_bound,
                                          rounds, 5)
    assert doc["cycle"] == {"cycle_start": start, "cycle_length": length,
                            "order": start + length - 1}
    assert doc["multiplications"] == ctx.mult_count
    expected_trace = json.loads(json.dumps(trace.to_json())) if trace else None
    assert doc["trace"] == expected_trace


@pytest.mark.parametrize("flags", sorted(FLAG_SETS))
@pytest.mark.parametrize("alg", CYCLE_ALGS)
def test_bench_dispatch_matches_library_call(alg, flags, capsys):
    bound, divisor_bound, rounds = FLAG_SETS[flags]
    code, out, _ = run_cli(
        ["bench", "--family", "monogenic", "--alg", alg, "--sizes", "40,90",
         "--trials", "2", "--seed", "3", "--format", "jsonl",
         *_flags(bound, divisor_bound, rounds)], capsys)
    assert code == 0
    rows = [json.loads(line) for line in out.splitlines()]
    assert len(rows) == 4
    for row in rows:
        row.pop("wall_time_s")
        params = json.loads(row["instance"])
        ctx = make_context("monogenic", params)
        size = params["s"] + params["L"] - 1
        # bench pins the bound of the randomized baselines to the
        # monogenic construction's order when --bound is unset
        run_bound = bound
        if bound is None and alg in ("monico", "banin-tsaban"):
            run_bound = size
        start, length, trace = _library_cycle(
            ctx, 1, alg, run_bound, divisor_bound, rounds, row["seed"])
        truth = brute_force_cycle(make_context("monogenic", params), 1)
        peak = {"deterministic": lambda: trace.table_peak,
                "monico": lambda: trace.table_peak,
                "banin-tsaban": lambda: trace.table_peak,
                "brute": lambda: truth.order}[alg]()
        assert row == {
            "algorithm": alg, "instance": row["instance"],
            "multiplications": ctx.mult_count, "order": truth.order,
            "seed": row["seed"], "table_peak": peak, "trial": row["trial"],
            "success": (start, length) == (truth.cycle_start,
                                           truth.cycle_length)}


def test_cycle_and_bench_share_the_algorithm_flags():
    subcommands = next(a for a in build_parser()._actions
                       if isinstance(a, argparse._SubParsersAction)).choices

    def flags(command):
        return {a.option_strings[0]: (a.dest, a.default, a.choices, a.help)
                for a in subcommands[command]._actions
                if a.option_strings[:1] in (["--alg"], ["--bound"], ["--B"],
                                            ["--rounds"])}

    assert len(flags("cycle")) == 4
    assert flags("bench") == flags("cycle")
    assert flags("cycle")["--B"] == (
        "divisor_bound", 10 ** 4, None, "divisor bound for monico stripping")


def test_cycle_unfactorable_length_exits_3(capsys, monkeypatch):
    # a length beyond factor_integer's 2^63 limit fails verification with
    # exit 3 and a message, never a traceback
    import semidlog.cli
    from semidlog import CycleStructure

    monkeypatch.setattr(semidlog.cli, "find_cycle",
                        lambda *args: (CycleStructure(1, 1 << 63), None))
    code, _, err = run_cli(
        ["cycle", '{"type":"monogenic","s":1,"L":1,"e":1}'], capsys)
    assert code == 3
    assert "cannot reduce" in err


def test_cycle_non_minimal_start_exits_3(capsys, monkeypatch):
    # 2 mod 100 has s = 2, L = 20: a reported start of 3 fails the
    # start-minimality check, since x^(2+20) = x^2
    import semidlog.cli
    from semidlog import CycleStructure

    monkeypatch.setattr(semidlog.cli, "find_cycle",
                        lambda *args: (CycleStructure(3, 20), None))
    code, out, err = run_cli(["cycle", ZMOD2], capsys)
    assert code == 3
    assert "VERIFICATION FAILED: cycle start 3 is not minimal" in out
    assert "cycle start 3 is not minimal" in err


def test_cycle_monico_huge_bound_stops_at_first_duplicate():
    # m = 10^10 giant steps at this bound, but x^m is the idempotent, so
    # the walk repeats at its first step; a subprocess with a timeout, so
    # a walk over the whole table fails instead of hanging
    package_root = os.path.dirname(
        os.path.dirname(os.path.abspath(semidlog.__file__)))
    out = subprocess.run(
        [sys.executable, "-m", "semidlog.cli", "cycle", "--alg", "monico",
         "--bound", str(10 ** 20), ZMOD2], capture_output=True, text=True,
        env={"PATH": "", "PYTHONPATH": package_root,
             "PYTHONDONTWRITEBYTECODE": "1"}, timeout=30)
    assert out.returncode == 0, out.stderr
    assert "cycle_start=2 cycle_length=20" in out.stdout


def test_cycle_brute_past_cap_exits_3():
    # order cap + 1 needs more than cap powers; a subprocess, so the
    # ~2^21-entry table is freed with it
    from semidlog.cycle import BRUTE_FORCE_CAP

    spec = json.dumps({"type": "monogenic", "s": BRUTE_FORCE_CAP,
                       "L": 2, "e": 1})
    package_root = os.path.dirname(
        os.path.dirname(os.path.abspath(semidlog.__file__)))
    out = subprocess.run(
        [sys.executable, "-m", "semidlog.cli", "cycle", "--alg", "brute",
         spec], capture_output=True, text=True,
        env={"PATH": "", "PYTHONPATH": package_root,
             "PYTHONDONTWRITEBYTECODE": "1"})
    assert out.returncode == 3, out.stderr
    assert out.stderr == (f"error: no repeated power within "
                          f"{BRUTE_FORCE_CAP} steps; element may not be "
                          "torsion\n")


def test_dlog_progression(capsys):
    code, out, _ = run_cli(["dlog", ZMOD2, ZMOD68], capsys)
    assert code == 0
    assert "progression m0=15 period=20" in out


def test_dlog_unique_json(capsys):
    code, out, _ = run_cli(
        ["dlog", "--json-output", '{"type":"monogenic","s":10,"L":15,"e":1}',
         '{"type":"monogenic","s":10,"L":15,"e":5}'], capsys)
    assert code == 0
    doc = json.loads(out)
    assert doc["solution"] == {"kind": "unique", "m": 5}


def test_dlog_unique_text(capsys):
    code, out, _ = run_cli(
        ["dlog", '{"type":"monogenic","s":10,"L":15,"e":1}',
         '{"type":"monogenic","s":10,"L":15,"e":5}'], capsys)
    assert code == 0
    assert "solution: unique m=5\n" in out


def test_dlog_pohlig_hellman_agrees(capsys):
    code, out_a, _ = run_cli(["dlog", "--json-output", ZMOD2, ZMOD68], capsys)
    code_b, out_b, _ = run_cli(
        ["dlog", "--alg", "pohlig-hellman", "--json-output", ZMOD2, ZMOD68],
        capsys)
    assert code == code_b == 0
    assert json.loads(out_a)["solution"] == json.loads(out_b)["solution"]


MONO1 = '{"type":"monogenic","s":10,"L":15,"e":1}'
MONO5 = '{"type":"monogenic","s":10,"L":15,"e":5}'


# the CLI reports the products of find_cycle and the solver, and makes
# none of its own: 2 -> 68 mod 100 answers from the group log, 1 -> 5 in
# the monogenic (10, 15) from the tail walk
@pytest.mark.parametrize("base, target", [(ZMOD2, ZMOD68), (MONO1, MONO5)],
                         ids=["group", "tail"])
@pytest.mark.parametrize("alg", sorted(DLOG_SOLVERS))
def test_dlog_dispatch_matches_library_call(alg, base, target, capsys):
    code, out, _ = run_cli(["dlog", "--alg", alg, "--json-output", base,
                            target], capsys)
    assert code == 0
    doc = json.loads(out)

    ctx, x = parse_element_spec(base)
    _, y = parse_element_spec(target)
    cyc, _ = find_cycle(ctx, x, "deterministic")
    sol, trace = DLOG_SOLVERS[alg](ctx, x, y, cyc)
    assert doc["solution"] == sol.to_json()
    assert doc["trace"] == json.loads(json.dumps(trace.to_json()))
    assert doc["multiplications"] == ctx.mult_count


def test_dlog_no_solution_exit_4(capsys):
    code, _, err = run_cli(
        ["dlog", ZMOD2, '{"type":"zmod","modulus":100,"value":3}'], capsys)
    assert code == 4
    assert "no solution" in err


def test_dlog_mismatched_instances_exit_2(capsys):
    code, _, err = run_cli(
        ["dlog", ZMOD2, '{"type":"zmod","modulus":101,"value":3}'], capsys)
    assert code == 2


def test_parse_error_exit_2(capsys):
    code, _, err = run_cli(["cycle", "not json"], capsys)
    assert code == 2
    code, _, err = run_cli(["cycle", '{"type":"widget"}'], capsys)
    assert code == 2


def test_spec_integer_past_digit_limit_exit_2(capsys):
    spec = '{"type":"zmod","modulus":' + "9" * 5000 + ',"value":1}'
    code, _, err = run_cli(["cycle", spec], capsys)
    assert code == 2
    assert err.startswith("error: malformed JSON: ")


@pytest.mark.parametrize("args", [
    ["cycle", "--bound", "0", ZMOD2],
    ["cycle", "--alg", "monico", "--B", "1", ZMOD2],
    ["cycle", "--alg", "banin-tsaban", "--bound", "1", ZMOD2],
    ["dlog", "--bound", "0", ZMOD2, ZMOD68],
    ["bench", "--family", "zmod", "--sizes", "100", "--bound", "0"],
    ["bench", "--family", "zmod", "--sizes", "100", "--alg", "monico",
     "--B", "1"],
    ["bench", "--family", "monogenic", "--sizes", "0"],
    ["bench", "--family", "monogenic", "--sizes", "64,-5"],
    ["bench", "--family", "zmod", "--sizes", "100", "--trials", "0"],
    ["bench", "--family", "zmod", "--sizes", "100", "--trials", "-1"],
    ["bench", "--family", "matmod", "--sizes", "1", "--modulus", "1"],
    ["bench", "--family", "matmod", "--sizes", "1", "--dim", "0"],
    ["bench", "--family", "boolmat", "--sizes", "1", "--dim", "0"],
    ["bench", "--family", "transformation", "--sizes", "300"],
    ["bench", "--family", "zmod", "--sizes", "12x"],
    ["cycle", "--alg", "banin-tsaban", "--rounds", "3", ZMOD2],
    ["cycle", "--alg", "banin-tsaban", "--rounds", "0,1", ZMOD2],
    ["cycle", '{"type":"monogenic","s":5,"L":12,"E":3}'],
], ids=lambda args: " ".join(a for a in args if not a.startswith("{")))
def test_out_of_range_arguments_exit_2(args, capsys):
    code, out, err = run_cli(args, capsys)
    assert code == 2
    assert out == ""
    assert err.startswith("error: ")


def test_spec_from_file(tmp_path, capsys):
    path = tmp_path / "elem.json"
    path.write_text(ZMOD2, encoding="utf-8")
    code, out, _ = run_cli(["cycle", f"@{path}"], capsys)
    assert code == 0
    assert "cycle_length=20" in out
    code, _, err = run_cli(["cycle", "@/nonexistent/file.json"], capsys)
    assert code == 2
    # not UTF-8: a read error, not a decode traceback
    path.write_bytes(b"\xff\xfe" + ZMOD2.encode("utf-16-le"))
    code, out, err = run_cli(["cycle", f"@{path}"], capsys)
    assert (code, out) == (2, "")
    assert err.startswith("error: cannot read spec file")


def test_out_file(tmp_path, capsys):
    target = tmp_path / "result.json"
    code, out, _ = run_cli(
        ["cycle", "--json-output", "--out", str(target), ZMOD2], capsys)
    assert code == 0
    assert out == ""
    assert json.loads(target.read_text())["cycle"]["cycle_length"] == 20


@pytest.mark.parametrize("command", [
    ["cycle", ZMOD2],
    ["dlog", ZMOD2, ZMOD68],
    ["bench", "--family", "zmod", "--sizes", "100"],
    ["selftest"],
], ids=lambda args: args[0])
@pytest.mark.parametrize("where", ["missing-dir", "is-a-dir"])
def test_out_file_that_cannot_be_written_exits_2(command, where, tmp_path,
                                                 capsys):
    path = tmp_path / "missing" / "x.json" if where == "missing-dir" \
        else tmp_path
    code, out, err = run_cli([*command, "--out", str(path)], capsys)
    assert (code, out) == (2, "")
    assert err.startswith("error: cannot write output file: ")
    assert err.endswith("(at --out)\n")


def test_selftest_passes(capsys):
    code, out, _ = run_cli(["selftest"], capsys)
    assert code == 0
    assert out.count("[PASS]") == 7
    assert "[PASS] product-reference" in out
    assert "[PASS] walk-reference" in out


def test_selftest_reports_a_raising_suite(capsys, monkeypatch):
    # a crash in one suite is that suite's failure (exit 1), not exit 4
    import semidlog.selftest

    def suite_raises(seed):
        raise semidlog.NoSolutionError("injected")

    monkeypatch.setattr(semidlog.selftest, "SUITES",
                        semidlog.selftest.SUITES + (suite_raises,))
    code, out, err = run_cli(["selftest"], capsys)
    assert code == 1
    assert out.count("[PASS]") == 7
    assert "[FAIL] suite_raises: raised NoSolutionError: injected" in out
    assert "suite_raises" in err


def test_selftest_json(capsys):
    code, out, _ = run_cli(["selftest", "--json-output", "--seed", "3"],
                           capsys)
    assert code == 0
    doc = json.loads(out)
    assert all(suite["passed"] for suite in doc["suites"])
    names = {suite["name"] for suite in doc["suites"]}
    assert names == {"product-reference", "walk-reference",
                     "oracle-equivalence", "collision-counterexamples",
                     "power-period", "inverse-formula", "solver-agreement"}


def test_bench_csv(capsys):
    code, out, _ = run_cli(
        ["bench", "--family", "monogenic", "--alg", "deterministic",
         "--sizes", "64,256", "--trials", "2", "--seed", "7"], capsys)
    assert code == 0
    lines = out.strip().splitlines()
    assert lines[0].startswith("instance,order,algorithm")
    assert len(lines) == 5  # header + 2 sizes * 2 trials
    assert all(",True" in line for line in lines[1:])


def test_bench_jsonl_reproducible_modulo_walltime(capsys):
    args = ["bench", "--family", "zmod", "--alg", "monico", "--sizes",
            "100", "--trials", "3", "--seed", "11", "--format", "jsonl"]
    code, out1, _ = run_cli(args, capsys)
    code2, out2, _ = run_cli(args, capsys)
    assert code == code2 == 0

    def strip_time(text):
        rows = [json.loads(line) for line in text.strip().splitlines()]
        for row in rows:
            row.pop("wall_time_s")
        return rows

    assert strip_time(out1) == strip_time(out2)
    assert all(row["success"] for row in strip_time(out1))


def test_bench_empty_sweep(capsys):
    code, out, _ = run_cli(
        ["bench", "--family", "zmod", "--alg", "brute", "--sizes", ""],
        capsys)
    assert code == 0
    assert out.strip().splitlines() == ["instance,order,algorithm,trial,seed,"
                                        "multiplications,table_peak,"
                                        "wall_time_s,success"]


def test_env_seed_override(tmp_path):
    # subprocess so the environment variable is honored end to end
    script = ("import semidlog.cli as c, sys; "
              "sys.exit(c.main(['cycle', '--json-output', "
              f"'{ZMOD2}'"
              "]))")
    # the child finds the same package this process imported; the rest of
    # the environment stays minimal so an outer SEMIDLOG_SEED cannot leak in
    package_dir = os.path.dirname(os.path.abspath(semidlog.__file__))
    package_root = os.path.dirname(package_dir)
    out1 = subprocess.run([sys.executable, "-c", script],
                          capture_output=True, text=True,
                          env={"SEMIDLOG_SEED": "99", "PATH": "",
                               "PYTHONPATH": package_root,
                               "PYTHONDONTWRITEBYTECODE": "1"})
    assert out1.returncode == 0, out1.stderr
    doc = json.loads(out1.stdout)
    assert doc["seed"] == 99


def test_bad_env_seed_is_parse_error(capsys, monkeypatch):
    monkeypatch.setenv("SEMIDLOG_SEED", "not-a-number")
    code, _, err = run_cli(["cycle", ZMOD2], capsys)
    assert code == 2
    assert "SEMIDLOG_SEED" in err


def test_selftest_names_injected_fault(capsys, monkeypatch):
    import semidlog.cli
    from semidlog.selftest import SuiteResult

    def broken(seed):
        return [SuiteResult("oracle-equivalence", True, "ok"),
                SuiteResult("inverse-formula", False, "injected fault")]

    monkeypatch.setattr(semidlog.cli, "run_selftests", broken)
    code, out, err = run_cli(["selftest"], capsys)
    assert code == 1
    assert "[FAIL] inverse-formula" in out
    assert "inverse-formula" in err
