"""The names the benchmark in perfbench/ reaches inside latinrect.

`perfbench/run.py` and `perfbench/probe.py` call into the package by
name, so deleting or renaming one of those names would fail every
benchmark run while every other test still passed.
"""

from pathlib import Path

import latinrect
import latinrect.cli

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"


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


def test_default_selftest_report_passes_the_benchmark_check(monkeypatch, capsys):
    # the verify workload fullmatches each "suite NAME: N checks, M failures"
    # line; a drift in that format would silently drop verify's ok_share
    monkeypatch.syspath_prepend(str(PERFBENCH))
    import workloads

    assert latinrect.cli.main(["selftest"]) == 0
    assert workloads.check_selftest(capsys.readouterr().out) is None
