"""The names the benchmark in perfbench/ reaches inside latinrect.

`perfbench/run.py` and `perfbench/probe.py` call into the package by
name, so deleting or renaming one of those names would fail every
benchmark run while every other test still passed.
"""

import json
import subprocess
import sys
from pathlib import Path

import latinrect
import latinrect.cli

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"
SRC = PERFBENCH.parent / "src"


def test_benchmark_environment_and_setup_probe_run(monkeypatch):
    monkeypatch.syspath_prepend(str(PERFBENCH))
    import probe
    import run
    import workloads

    assert run.environment(latinrect)["cli_default_threads"] == 1
    for name in workloads.NAMES:
        tables = workloads.tables(workloads.all_requests(name))
        assert tables["factorial"] and tables["expansion"]
        probe.build(latinrect, tables)


def test_setup_probe_reports_ready_in_a_fresh_interpreter(monkeypatch):
    # spawned as `run.measure_setup` spawns it, so a broken cold start
    # fails here rather than in the benchmark run
    monkeypatch.syspath_prepend(str(PERFBENCH))
    import workloads

    for name in workloads.NAMES:
        tables = workloads.tables(workloads.all_requests(name))
        proc = subprocess.run(
            [sys.executable, "-I", str(PERFBENCH / "probe.py"), str(SRC), json.dumps(tables)],
            capture_output=True, text=True, timeout=60,
        )
        assert proc.returncode == 0, (name, proc.stderr)
        assert proc.stdout.splitlines(keepends=True)[:1] == ["ready\n"], (name, proc.stdout)


def test_default_selftest_report_passes_the_benchmark_check(monkeypatch, capsys):
    # the verify workload fullmatches each "suite NAME: N checks, M failures"
    # line; a drift in that format would silently drop verify's ok_share
    monkeypatch.syspath_prepend(str(PERFBENCH))
    import workloads

    assert latinrect.cli.main(["selftest"]) == 0
    assert workloads.check_selftest(capsys.readouterr().out) is None
