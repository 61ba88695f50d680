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
