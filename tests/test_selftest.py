import json
import time

import pytest

import latinrect.column_counts as column_counts
from latinrect.cli import main
from latinrect.selftest import run_selftest


def test_default_selftest_passes():
    report = run_selftest()
    assert report.ok
    names = [s.name for s in report.suites]
    assert "derangement-identities" in names
    assert "formula-vs-oracle" in names
    assert "profile-count-vs-hall-oracle" in names
    assert "direct-total-brackets" in names
    assert "zero-for-k-above-n" in names
    assert all(s.checks > 0 for s in report.suites)
    assert report.first_counterexample() is None


def test_selftest_records_exponent_resolution():
    report = run_selftest()
    assert any("matches (n-2)^2*(n-3)^(n-2)" in note for note in report.notes)
    assert any("36" in note for note in report.notes)


def test_selftest_depth_validation():
    with pytest.raises(ValueError):
        run_selftest(max_k=1)


def corrupt_two_class_value(monkeypatch):
    # Nudging one two-class value is the smallest fault the two-row sum
    # cannot cancel away; it first shows at k=2, n=2 (n <= 1 still cancels).
    real = column_counts.choice_count

    def corrupted(counts):
        value = real(counts)
        return value + 1 if counts == (0, 2) else value

    monkeypatch.setattr(column_counts, "choice_count", corrupted)


def test_corrupted_choice_count_is_caught(monkeypatch):
    corrupt_two_class_value(monkeypatch)
    report = run_selftest()
    assert not report.ok
    first = report.first_counterexample()
    assert "k=2 n=2" in first


def test_cli_selftest_exit_codes(monkeypatch, capsys):
    assert main(["selftest"]) == 0
    capsys.readouterr()

    corrupt_two_class_value(monkeypatch)
    assert main(["selftest"]) == 3
    captured = capsys.readouterr()
    assert "counterexample" in captured.err
    assert "k=2 n=2" in captured.err


def test_failing_selftest_writes_its_report_to_out(monkeypatch, capsys, tmp_path):
    corrupt_two_class_value(monkeypatch)
    target = tmp_path / "report.txt"
    assert main(["selftest", "--out", str(target)]) == 3
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("counterexample: ") and captured.err.count("\n") == 1
    assert target.read_text().endswith("selftest: FAILED\n")
    # an unwritable target is one usage error, with no counterexample line
    assert main(["selftest", "--out", str(tmp_path)]) == 1
    captured = capsys.readouterr()
    assert captured.out == "" and captured.err.startswith("latinrect selftest: error: ")
    assert captured.err.count("\n") == 1


def test_selftest_json_reports_time_per_suite(capsys):
    assert main(["selftest", "--format", "json"]) == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["ok"]
    for suite in payload["suites"]:
        assert isinstance(suite["elapsed_ms"], float) and suite["elapsed_ms"] >= 0


def test_deep_selftest_finishes(capsys):
    # the hall oracle is linear in n; every suite clamps n, so n=100 is cheap
    start = time.perf_counter()
    assert main(["selftest", "--k", "3", "--n", "100"]) == 0
    assert time.perf_counter() - start < 3.0
    assert capsys.readouterr().out.endswith("selftest: OK\n")
