import contextlib
import gc
import io
import json
import re
import sys
import time
from pathlib import Path

from hypothesis import given, settings
from hypothesis import strategies as st

from latinrect import cli
from latinrect.cli import build_parser, main
from latinrect.column_counts import config_count
from latinrect.oracle import profile_of

SRC = Path(__file__).resolve().parents[1] / "src" / "latinrect"
COUNT_KEYS = ["k", "n", "variant", "method", "value", "terms", "adds", "mults", "elapsed_ms"]


def run(capsys, argv):
    code = main(argv)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_main_builds_one_parser_per_process(capsys, monkeypatch):
    # a parser costs about a millisecond to build and leaves a tree of
    # reference cycles behind, so main builds it on its first call only
    built = []

    def counted():
        built.append(None)
        return build_parser()

    monkeypatch.setattr(cli, "build_parser", counted)
    cli._parser.cache_clear()
    try:
        codes = [run(capsys, argv)[0] for argv in (["count", "--k", "3", "--n", "3"],
                                                    ["frobnicate"],
                                                    ["table", "--k", "2", "--n", "4"])]
    finally:
        cli._parser.cache_clear()
    assert codes == [0, 1, 0] and len(built) == 1
    # build_parser itself still makes a fresh parser at every call
    assert build_parser() is not build_parser()


def test_count_json_schema_and_roundtrip(capsys):
    code, out, _ = run(capsys, ["count", "--k", "3", "--n", "3", "--format", "json"])
    assert code == 0
    line = out.strip()
    payload = json.loads(line)
    assert list(payload.keys()) == COUNT_KEYS
    assert payload["value"] == "2"
    assert isinstance(payload["value"], str)
    assert isinstance(payload["elapsed_ms"], float)
    # parsing and re-rendering reproduces the bytes
    assert json.dumps(payload, separators=(",", ":")) == line


def test_count_human_output(capsys):
    code, out, _ = run(capsys, ["count", "--k", "3", "--n", "3"])
    assert code == 0
    assert out.startswith("R_3(3) = 2\n")

    code, out, _ = run(capsys, ["count", "--k", "1", "--n", "6", "--total"])
    assert code == 0
    assert out.startswith("L_1(6) = 720\n")


def test_count_csv_output(capsys):
    code, out, _ = run(capsys, ["count", "--k", "2", "--n", "4", "--format", "csv"])
    assert code == 0
    header, row = out.strip().splitlines()
    assert header == ",".join(COUNT_KEYS)
    assert row.split(",")[:5] == ["2", "4", "reduced", "formula", "9"]


def test_count_oracle_method_echoed(capsys):
    code, out, _ = run(capsys, ["count", "--k", "2", "--n", "4", "--method", "oracle", "--format", "json"])
    assert code == 0
    payload = json.loads(out)
    assert payload["method"] == "oracle"
    assert payload["value"] == "9"


def test_count_direct_method(capsys):
    code, out, _ = run(
        capsys,
        ["count", "--k", "2", "--n", "4", "--total", "--method", "direct-L",
         "--bracket", "literal", "--format", "json"],
    )
    assert code == 0
    payload = json.loads(out)
    assert payload["method"] == "direct-L"
    assert payload["value"] == "216"


def test_total_only_methods_imply_total(capsys):
    code, out, _ = run(capsys, ["count", "--k", "2", "--n", "4", "--method", "direct-L", "--format", "json"])
    assert code == 0
    payload = json.loads(out)
    assert payload["variant"] == "total"
    assert payload["value"] == "216"
    code, out, _ = run(capsys, ["count", "--k", "2", "--n", "4", "--method", "factorial-bridge", "--format", "json"])
    assert code == 0
    assert json.loads(out)["value"] == "216"


def test_count_values_are_decimal_strings_beyond_word_size(capsys):
    code, out, _ = run(capsys, ["count", "--k", "2", "--n", "30", "--total", "--format", "json"])
    assert code == 0
    payload = json.loads(out)
    assert int(payload["value"]) > 2**64


def test_usage_errors_exit_one(capsys):
    assert run(capsys, ["count", "--k", "3"])[0] == 1  # missing --n
    assert run(capsys, ["count", "--k", "3", "--n", "2..4"])[0] == 1
    assert run(capsys, ["count", "--k", "3", "--n", "3", "--method", "direct-L", "--reduced"])[0] == 1
    code, out, err = run(capsys, ["frobnicate"])
    assert code == 1 and out == ""
    # no command parsed, so the message names the program alone
    assert err.startswith("latinrect: error: ") and err.count("\n") == 1
    code, _, err = run(capsys, ["expr", "--k", "1"])
    assert code == 1
    assert "constant 1" in err


def test_bad_n_is_reported_like_other_usage_errors(tmp_path, capsys):
    # every usage error, whether the parser or the command finds it, is
    # one stderr line naming the command
    missing = tmp_path / "missing" / "x"
    for argv, message in (
        (["count", "--k", "2", "--n", "3..a"], "argument --n: bad range '3..a'; expected a..b"),
        (["table", "--k", "2", "--n", "5..3"], "argument --n: empty range '5..3'"),
        (["oracle", "--k", "2", "--n", "2..3"],
         "argument --n: this command takes a single n, not a range ('2..3')"),
        (["bench", "--k", "2", "--n", "x"],
         "argument --n: bad value 'x'; expected an integer or a..b"),
        (["bench", "--k", "2", "--n", "3..4", "--csv", str(tmp_path / "x"), "--format", "json"],
         "--csv writes CSV; drop --format json or use --out"),
        (["count", "--k", "3", "--n", "3", "--method", "direct-L", "--reduced"],
         "--method direct-L computes totals; drop --reduced"),
        (["count", "--k", "2", "--n", "5", "--bracket", "literal"],
         "--bracket literal applies to --method direct-L only, not formula"),
        (["count", "--k", "3", "--n", "5", "--method", "oracle", "--bracket", "literal"],
         "--bracket literal applies to --method direct-L only, not oracle"),
        (["count", "--k", "2", "--n", "5", "--method", "factorial-bridge", "--bracket", "literal"],
         "--bracket literal applies to --method direct-L only, not factorial-bridge"),
        (["oracle", "--k", "3", "--n", "4", "--halls", "2x"],
         "argument --halls: bad hall '2x'; expected row:floor"),
        (["oracle", "--k", "3", "--n", "4", "--halls", "2:1", "--total"],
         "--halls counts reduced configurations; drop --total"),
        (["expr", "--k", "1"],
         "the reduced count for k = 1 is the constant 1; expressions start at k = 2"),
        (["count", "--k", "0", "--n", "3"], "need k >= 1"),
        (["count", "--k", "3", "--n", "3", "--max-terms", "0"],
         "argument --max-terms: expected a positive integer, got '0'"),
        (["oracle", "--k", "3", "--n", "4", "--max-k", "0"],
         "argument --max-k: expected a positive integer, got '0'"),
        (["count", "--k", "2", "--n", "3", "--out", str(missing)],
         f"cannot write {missing}: No such file or directory"),
    ):
        code, out, err = run(capsys, argv)
        assert code == 1, argv
        assert out == ""
        assert err == f"latinrect {argv[0]}: error: {message}\n"
    assert not (tmp_path / "x").exists()


def test_guard_exits_two(capsys):
    code, out, err = run(capsys, ["count", "--k", "6", "--n", "40", "--max-terms", "1000"])
    assert code == 2
    assert out == ""
    assert err.startswith("latinrect count: refused: ") and err.count("\n") == 1

    code, _, err = run(capsys, ["oracle", "--k", "5", "--n", "5"])
    assert code == 2


def test_environment_sets_no_limit(capsys, monkeypatch):
    # the ceiling is --max-terms or the default; no variable overrides it
    monkeypatch.setenv("LATINRECT_MAX_TERMS", "5")
    code, out, err = run(capsys, ["count", "--k", "3", "--n", "5"])
    assert code == 0 and err == ""
    assert out.startswith("R_3(5) = 552\n")


def test_no_module_reads_the_environment():
    for path in sorted(SRC.glob("*.py")):
        assert not re.search(r"\benviron\b|\bgetenv\b", path.read_text()), path.name


def _mask_elapsed(text):
    # elapsed_ms=1.2 in human output, "elapsed_ms":1.2 in JSON, the last CSV field
    text = re.sub(r'(elapsed_ms"?[=:])[-+.\deE]+', r"\1*", text)
    return re.sub(r",\d+\.\d+$", ",*", text, flags=re.M)


def test_out_file_equals_stdout(tmp_path, capsys):
    requests = (
        ["count", "--k", "3", "--n", "5"],
        ["count", "--k", "2", "--n", "4", "--total", "--format", "json"],
        ["count", "--k", "2", "--n", "4", "--method", "oracle", "--format", "csv"],
        ["expr", "--k", "3"],
        ["expr", "--k", "4", "--format", "latex"],
        ["table", "--k", "2", "--n", "1..6"],
        ["table", "--k", "3", "--n", "3..5", "--format", "json"],
        ["table", "--k", "3", "--n", "3..5", "--method", "oracle", "--format", "csv"],
        ["bench", "--k", "2", "--n", "3..6"],
        ["bench", "--k", "3", "--n", "4..6", "--format", "json"],
        ["oracle", "--k", "3", "--n", "4"],
        ["oracle", "--k", "3", "--n", "4", "--total", "--format", "json"],
        ["oracle", "--k", "3", "--n", "4", "--halls", "2:1,3:2"],
        ["oracle", "--k", "3", "--n", "4", "--halls", "2:1,3:2", "--format", "json"],
        ["selftest"],
        ["selftest", "--format", "json"],
    )
    for i, argv in enumerate(requests):
        code, out, err = run(capsys, argv)
        assert code == 0 and err == "" and out, argv
        targets = ["--out"] + (["--csv"] if argv[0] == "bench" and "json" not in argv else [])
        for flag in targets:
            target = tmp_path / f"{i}{flag}"
            code, file_out, err = run(capsys, argv + [flag, str(target)])
            assert (code, file_out, err) == (0, "", ""), argv + [flag]
            assert _mask_elapsed(target.read_text()) == _mask_elapsed(out), argv + [flag]


def test_range_refusals_are_immediate(capsys):
    # every row of these is under the ceiling, or the rows are too many to run
    for argv, terms in (
        (["table", "--k", "4", "--n", "0..40"], "377348994"),
        (["bench", "--k", "4", "--n", "1..40"], "377348993"),
        (["table", "--k", "3", "--n", "0..100000"], "more than 1000000000000000000"),
        (["table", "--k", "1", "--n", "0.." + "1" + "0" * 30], "more than 1000000000000000000"),
        (["bench", "--k", "1", "--n", "1.." + "1" + "0" * 30], "more than 1000000000000000000"),
    ):
        start = time.perf_counter()
        code, out, err = run(capsys, argv)
        assert time.perf_counter() - start < 1.0, argv
        assert code == 2 and out == "", argv
        assert err == (
            f"latinrect {argv[0]}: refused: reduced count for k={argv[2]}, n={argv[4]} "
            f"would evaluate {terms} terms, above the ceiling of 100000000; "
            "raise --max-terms to proceed\n"
        ), argv


def test_max_terms_bounds_the_whole_range(capsys):
    # rows n = 1..6 of k = 2 have n + 1 terms each, 27 together
    for command in ("table", "bench"):
        argv = [command, "--k", "2", "--n", "1..6", "--max-terms"]
        assert run(capsys, argv + ["27"])[0] == 0, command
        code, out, err = run(capsys, argv + ["26"])
        assert code == 2 and out == "", command
        assert "would evaluate 27 terms, above the ceiling of 26" in err, command
    # the oracle's own guard bounds an oracle table
    assert run(capsys, ["table", "--k", "2", "--n", "1..6", "--method", "oracle",
                        "--max-terms", "1"])[0] == 0


def test_table_golden_two_rows(capsys):
    code, out, _ = run(capsys, ["table", "--k", "2", "--n", "1..6", "--format", "csv"])
    assert code == 0
    lines = out.strip().splitlines()
    assert lines[0] == "k,n,reduced,total"
    reduced = [line.split(",")[2] for line in lines[1:]]
    assert reduced == ["0", "1", "2", "9", "44", "265"]


def test_table_three_rows_matches_oracle(capsys):
    code, out, _ = run(capsys, ["table", "--k", "3", "--n", "3..6", "--format", "json"])
    assert code == 0
    payload = json.loads(out)
    assert [r["reduced"] for r in payload["rows"]] == ["2", "24", "552", "21280"]
    code, out, _ = run(capsys, ["table", "--k", "3", "--n", "3..5", "--method", "oracle", "--format", "json"])
    assert code == 0
    assert [r["reduced"] for r in json.loads(out)["rows"]] == ["2", "24", "552"]


def test_expr_output_is_deterministic(capsys):
    first = run(capsys, ["expr", "--k", "3"])
    second = run(capsys, ["expr", "--k", "3"])
    assert first == second
    code, out, _ = run(capsys, ["expr", "--k", "4", "--format", "latex"])
    assert code == 0
    assert out.count("f_{1,2,3}") >= 1
    assert "2 f_{1,2,3}" in out  # five-term expansion ends in the doubled block


def test_bench_csv_file(tmp_path, capsys):
    target = tmp_path / "out.csv"
    code, out, _ = run(capsys, ["bench", "--k", "3", "--n", "8..12", "--csv", str(target)])
    assert code == 0
    assert out == ""
    content = target.read_text()
    lines = content.splitlines()
    assert lines[0].startswith("k,n,terms")
    assert any(line.startswith("# fitted_exponent_mults_paper_model=") for line in lines)


def test_bench_csv_and_out_are_exclusive(tmp_path, capsys):
    csv_path, out_path = tmp_path / "a.csv", tmp_path / "b.csv"
    code, out, err = run(
        capsys, ["bench", "--k", "2", "--n", "3..4", "--csv", str(csv_path), "--out", str(out_path)]
    )
    assert code == 1
    assert out == ""
    assert err.count("\n") == 1 and err.startswith("latinrect bench: error: ")
    assert not csv_path.exists() and not out_path.exists()


def test_bench_json_lines(capsys):
    code, out, _ = run(capsys, ["bench", "--k", "2", "--n", "4..6", "--format", "json"])
    assert code == 0
    lines = out.strip().splitlines()
    assert len(lines) == 4
    assert "fitted_exponents" in json.loads(lines[-1])


def test_oracle_command(capsys):
    code, out, _ = run(capsys, ["oracle", "--k", "3", "--n", "4", "--format", "json"])
    assert code == 0
    assert json.loads(out)["value"] == "24"

    code, out, _ = run(
        capsys, ["oracle", "--k", "3", "--n", "4", "--halls", "2:1,3:2", "--format", "json"]
    )
    assert code == 0
    payload = json.loads(out)
    assert payload["profile"] == [2, 1, 1, 0]
    assert payload["value"] == "144"

    code, _, _ = run(capsys, ["oracle", "--k", "2", "--n", "3", "--halls", "1:1"])
    assert code == 1


def test_count_out_file(tmp_path, capsys):
    target = tmp_path / "count.json"
    code, out, _ = run(
        capsys, ["count", "--k", "2", "--n", "4", "--format", "json", "--out", str(target)]
    )
    assert code == 0
    assert out == ""
    assert json.loads(target.read_text())["value"] == "9"


def test_unwritable_out_path_is_a_usage_error(tmp_path, capsys):
    for target in (tmp_path / "missing" / "x", tmp_path):
        for argv in (
            ["count", "--k", "2", "--n", "3", "--out", str(target)],
            ["bench", "--k", "2", "--n", "3..4", "--csv", str(target)],
        ):
            code, out, err = run(capsys, argv)
            assert code == 1, argv
            assert out == ""
            assert "Traceback" not in err
            assert err.count("\n") == 1 and str(target) in err


def test_expr_refuses_huge_k_at_once(capsys):
    # the refusal names Bell(k-1) only up to 10^18, so it never computes it
    start = time.perf_counter()
    code, out, err = run(capsys, ["expr", "--k", "100000"])
    assert time.perf_counter() - start < 1.0
    assert code == 2 and out == ""
    assert err.startswith("latinrect expr: refused: ") and err.count("\n") == 1
    assert "more than 1000000000000000000 terms" in err


def test_oracle_refuses_huge_relabeling_tables_at_once(capsys):
    # k=10^6 once overflowed building 2^k-entry tables; k=12 would build 11!
    for k in ("1000000", "12"):
        start = time.perf_counter()
        code, out, err = run(capsys, ["oracle", "--k", k, "--n", "4", "--max-k", k])
        assert time.perf_counter() - start < 1.0, k
        assert code == 2 and out == "", k
        assert err.startswith("latinrect oracle: refused: ") and err.count("\n") == 1, k


def test_oracle_refuses_hall_enumerations_past_the_pick_bound_at_once(capsys):
    # n (n-1) ... (n-k+2) picks, each once per 64-bit word of an n-bit mask:
    # 15,984,000 at k=3 n=1000 (16 words), 12! at k=12 n=12 and
    # 1.6e12 at k=2 n=10^7, where a pick alone is cheap but its mask is not
    for argv in (["oracle", "--k", "3", "--n", "1000", "--max-n", "1000", "--halls", "2:1"],
                 ["oracle", "--k", "12", "--n", "12", "--max-k", "12", "--max-n", "12",
                  "--halls", "2:1"],
                 ["oracle", "--k", "2", "--n", "10000000", "--max-n", "10000000",
                  "--halls", "2:1"]):
        start = time.perf_counter()
        code, out, err = run(capsys, argv)
        assert time.perf_counter() - start < 1.0, argv
        assert code == 2 and out == "", argv
        assert err.startswith("latinrect oracle: refused: ") and err.count("\n") == 1, argv
        assert "more than 10000000 picks" in err, argv


def test_oracle_counts_hall_enumerations_inside_the_pick_bound(capsys):
    # k=3 n=500 visits 500 * 499 picks of row 2; row 3's are counted
    code, out, err = run(capsys, ["oracle", "--k", "3", "--n", "500", "--max-n", "500",
                                  "--halls", "2:1", "--format", "json"])
    assert code == 0 and err == ""
    payload = json.loads(out)
    assert payload["profile"] == [499, 1, 0, 0]
    assert int(payload["value"]) == config_count(profile_of({(2, 1)}, 3, 500))


def test_oracle_refuses_hall_counts_too_long_to_print_at_once(capsys):
    # at most 1500 log10(1499) = 4763 and 3000 log10(2999) = 10431 digits,
    # past the interpreter's default limit of 4300
    limit = sys.get_int_max_str_digits()
    sys.set_int_max_str_digits(4300)
    try:
        for n in ("1500", "3000"):
            argv = ["oracle", "--k", "2", "--n", n, "--max-n", n, "--halls", "2:1"]
            start = time.perf_counter()
            code, out, err = run(capsys, argv)
            assert time.perf_counter() - start < 1.0, argv
            assert code == 2 and out == "", argv
            assert err == ("latinrect oracle: refused: configuration count refused at "
                           f"k=2, n={n}: it may pass 4300 decimal digits\n"), argv
    finally:
        sys.set_int_max_str_digits(limit)


def test_oracle_requests_leave_no_cyclic_garbage(capsys):
    # garbage cycles are freed only when the collector next runs, so they
    # would raise peak memory by whatever piles up in between
    requests = (["count", "--k", "4", "--n", "6", "--method", "oracle"],
                ["table", "--k", "4", "--n", "0..7", "--method", "oracle"],
                ["selftest"])
    for argv in requests:
        run(capsys, argv)  # warm-up: the parser and any lazy tables
        gc.collect()
        gc.disable()
        try:
            code = run(capsys, argv)[0]
            garbage = gc.collect()
        finally:
            gc.enable()
        assert code == 0, argv
        assert garbage == 0, argv


def test_hall_profile_is_sized_before_it_is_built(capsys):
    # 2^39 entries once ran out of memory; a k + 1 entry list once overflowed
    huge = "1" + "0" * 20
    for argv in (["oracle", "--k", "40", "--n", "1", "--max-k", "40", "--halls", "2:1"],
                 ["oracle", "--k", huge, "--n", "1", "--max-k", huge, "--halls", ""]):
        start = time.perf_counter()
        code, out, err = run(capsys, argv)
        assert time.perf_counter() - start < 1.0, argv
        assert code == 2 and out == "", argv
        assert err.startswith("latinrect oracle: refused: profile refused at k=") and err.count("\n") == 1
    code, out, _ = run(capsys, ["oracle", "--k", "12", "--n", "1", "--max-k", "12",
                                "--halls", "2:1", "--format", "json"])
    assert code == 0
    payload = json.loads(out)
    assert payload["value"] == "0"
    assert payload["profile"] == [0, 1] + [0] * 2046


def test_threads_flag_does_not_change_values(capsys):
    args = ["count", "--k", "3", "--n", "9", "--format", "json"]
    single = json.loads(run(capsys, args + ["--threads", "1"])[1])
    multi = json.loads(run(capsys, args + ["--threads", "4"])[1])
    for key in ("value", "terms", "adds", "mults"):
        assert single[key] == multi[key]


def test_guard_refuses_huge_k_at_once(capsys):
    # the term prediction loops min(n, 2^(k-1) - 1) times, not 2^69 times
    code, _, err = run(capsys, ["count", "--k", "70", "--n", "3"])
    assert code == 2
    assert "refused" in err
    code, _, _ = run(capsys, ["count", "--k", "70", "--n", "3", "--method", "direct-L"])
    assert code == 2


def test_guard_refuses_huge_predictions_at_once(capsys):
    # the guard stops at the first prefix of the term count past 10^18
    for size in (["--k", "8", "--n", "10000"], ["--k", "5", "--n", "1000000"]):
        start = time.perf_counter()
        code, _, err = run(capsys, ["count", *size])
        assert time.perf_counter() - start < 1.0, size
        assert code == 2, size
        assert "refused" in err and "more than 1000000000000000000 terms" in err


def test_one_row_counts_at_huge_n_finish_at_once(capsys):
    # the one profile (n,) has multinomial 1, which needs no factorial table
    for n in (10**6, 10**30):
        start = time.perf_counter()
        code, out, err = run(capsys, ["count", "--k", "1", "--n", str(n)])
        assert time.perf_counter() - start < 1.0, n
        assert (code, err) == (0, ""), n
        assert out.startswith(f"R_1({n}) = 1\n"), n
    # n! past sys.maxsize is refused in one line
    code, out, err = run(capsys, ["count", "--k", "1", "--n", str(10**30), "--total"])
    assert (code, out) == (2, "")
    assert err.startswith("latinrect count: refused: ") and err.count("\n") == 1
    assert "Traceback" not in err


def test_expansion_past_seven_rows_refuses_at_once(capsys):
    # g over 8 rows has Bell(8) = 4,140 terms, which fail to compile; a
    # wider profile once ran out of memory (k=30) or overflowed (k=70)
    for argv in (["count", "--k", "9", "--n", "1"],
                 ["count", "--method", "direct-L", "--k", "8", "--n", "1"],
                 ["count", "--method", "direct-L", "--k", "12", "--n", "0"],
                 ["count", "--k", "30", "--n", "0"],
                 ["count", "--k", "70", "--n", "0"],
                 ["count", "--k", str(10**30), "--n", "1"],
                 ["count", "--k", "14", "--n", "10000"],
                 ["count", "--k", "20", "--n", "1000000"],
                 ["table", "--k", "9", "--n", "0..1"],
                 ["bench", "--k", "9", "--n", "1"]):
        start = time.perf_counter()
        code, out, err = run(capsys, argv)
        assert time.perf_counter() - start < 1.0, argv
        assert code == 2 and out == "", argv
        assert err.startswith(f"latinrect {argv[0]}: refused: ") and err.count("\n") == 1, argv


def test_largest_expansions_still_count(capsys):
    code, out, _ = run(capsys, ["count", "--k", "8", "--n", "2", "--format", "json"])
    assert code == 0
    payload = json.loads(out)
    assert (payload["value"], payload["terms"]) == ("0", "8256")
    code, out, _ = run(capsys, ["count", "--method", "direct-L", "--k", "7", "--n", "1",
                                "--format", "json"])
    assert code == 0
    assert json.loads(out)["value"] == "0"


def test_threads_below_one_or_not_an_integer_exit_one(capsys):
    for command in ("count", "table"):
        for threads in ("0", "-3", "x"):
            argv = [command, "--k", "3", "--n", "4", "--threads", threads]
            code, out, err = run(capsys, argv)
            assert code == 1, argv
            assert out == "" and "threads" in err, argv


def test_threads_below_one_exit_one_for_every_method(capsys):
    # the oracle never starts the pool, yet rejects the same values
    for argv in (["count", "--k", "3", "--n", "4", "--method", "oracle", "--threads", "0"],
                 ["table", "--k", "3", "--n", "4", "--method", "oracle", "--threads", "-3"],
                 ["count", "--k", "2", "--n", "4", "--method", "direct-L", "--threads", "0"]):
        code, out, err = run(capsys, argv)
        assert code == 1, argv
        assert out == "" and "threads" in err, argv


def test_default_threads_do_not_start_the_pool(capsys, monkeypatch):
    def no_pool(*args, **kwargs):
        raise AssertionError("the default run started a thread pool")

    monkeypatch.setattr("concurrent.futures.ThreadPoolExecutor", no_pool)
    code, out, _ = run(capsys, ["count", "--k", "4", "--n", "6", "--format", "json"])
    assert code == 0
    assert json.loads(out)["value"] == "393120"


def test_direct_l_sums_on_one_thread_at_any_threads(capsys, monkeypatch):
    # each profile's weight comes from the one before, so direct-L never
    # starts the pool, and its output does not depend on --threads
    def no_pool(*args, **kwargs):
        raise AssertionError("a direct-L run started a thread pool")

    monkeypatch.setattr("concurrent.futures.ThreadPoolExecutor", no_pool)
    payloads = []
    for threads in ("1", "4"):
        argv = ["count", "--k", "3", "--n", "6", "--method", "direct-L",
                "--threads", threads, "--format", "json"]
        code, out, _ = run(capsys, argv)
        assert code == 0, threads
        payload = json.loads(out)
        del payload["elapsed_ms"]
        payloads.append(payload)
    assert payloads[0] == payloads[1]
    assert payloads[0]["value"] == "15321600"


def test_formula_table_sums_on_one_thread_at_any_threads(capsys, monkeypatch):
    # one walk serves every row of a formula table, so --threads starts no pool
    def no_pool(*args, **kwargs):
        raise AssertionError("a formula table started a thread pool")

    monkeypatch.setattr("concurrent.futures.ThreadPoolExecutor", no_pool)
    outputs = [run(capsys, ["table", "--k", "4", "--n", "3..8", "--threads", threads])
               for threads in ("1", "2")]
    assert outputs[0] == outputs[1]
    code, out, err = outputs[0]
    assert code == 0 and err == ""
    assert out.splitlines()[4].split()[:2] == ["6", "393120"]


# argument text that is mostly malformed: junk, ranges, signs, huge or
# negative integers; any that parses is still kept cheap by the caller
_ARG_TEXT = st.one_of(
    st.text(max_size=12),
    st.text(alphabet="0123456789.-:, x", max_size=12),
    st.integers(min_value=-10**30, max_value=10**30).map(str),
)


def _exit_code(argv):
    # an exception escaping main fails the test with its traceback
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
        return main(argv)


@settings(max_examples=150, deadline=None)
@given(_ARG_TEXT)
def test_fuzzed_n_exits_zero_one_or_two(text):
    # --max-terms keeps every n that parses to a few hundred terms at most
    for argv in (["count", "--k", "3", "--n", text, "--max-terms", "300"],
                 ["table", "--k", "2", "--n", text, "--max-terms", "300"]):
        assert _exit_code(argv) in (0, 1, 2), argv


@settings(max_examples=150, deadline=None)
@given(_ARG_TEXT)
def test_fuzzed_max_terms_exits_zero_one_or_two(text):
    for argv in (["count", "--k", "3", "--n", "4", "--max-terms", text],
                 ["count", "--k", "2", "--n", "5", "--method", "direct-L", "--max-terms", text]):
        assert _exit_code(argv) in (0, 1, 2), argv


@settings(max_examples=150, deadline=None)
@given(_ARG_TEXT)
def test_fuzzed_halls_exits_zero_one_or_two(text):
    argv = ["oracle", "--k", "3", "--n", "4", "--halls", text]
    assert _exit_code(argv) in (0, 1, 2), argv


@settings(max_examples=150, deadline=None)
@given(_ARG_TEXT)
def test_fuzzed_parse_time_checks_exit_zero_one_or_two(text):
    # a huge --k refuses at once; the oracle guards stay k=3 n=4 cheap
    for argv in (["expr", "--k", text],
                 ["oracle", "--k", "3", "--n", "4", "--max-k", text],
                 ["oracle", "--k", "3", "--n", "4", "--max-n", text]):
        assert _exit_code(argv) in (0, 1, 2), argv


@settings(max_examples=100, deadline=None)
@given(_ARG_TEXT)
def test_fuzzed_k_exits_zero_one_or_two(text):
    # no cap on k: the size rule and the term guard refuse what is too large
    argvs = [["count", "--k", text, "--n", n, "--method", method]
             for n in ("0", "1") for method in ("formula", "direct-L")]
    argvs += [["table", "--k", text, "--n", "0..1"], ["bench", "--k", text, "--n", "1"]]
    for argv in argvs:
        assert _exit_code(argv) in (0, 1, 2), argv


def _as_int(text):
    try:
        return int(text)
    except ValueError:
        return None


@settings(max_examples=100, deadline=None)
@given(st.one_of(
    # an accepted value may start a pool; keep it to a few threads
    st.text(max_size=12).filter(lambda text: (_as_int(text) or 0) <= 8),
    st.integers(min_value=-10**6, max_value=8).map(str),
))
def test_fuzzed_threads_exits_zero_or_one(text):
    # k <= 3 and n <= 4 keep every accepted request to one pool chunk
    argvs = [["count", "--k", "3", "--n", "4", "--method", method, "--threads", text]
             for method in ("formula", "oracle", "direct-L")]
    argvs += [["table", "--k", "3", "--n", "3..4", "--method", method, "--threads", text]
              for method in ("formula", "oracle")]
    threads = _as_int(text)
    for argv in argvs:
        code = _exit_code(argv)
        assert code in (0, 1), argv
        if threads is not None and threads < 1:
            assert code == 1, argv
