"""Start-up cost: importing the CLI loads only what a default request runs.

Each `latinrect` call pays for its imports before any counting starts,
so the modules below are imported inside the code that needs them: the
thread pool's for threads > 1, `statistics` for `bench` fits, `random`
for selftest's sampled hall sets.  The in-process checks run each of
those paths once, so a lazy import that broke fails here.
"""

import json
import subprocess
import sys
from pathlib import Path

from latinrect.cli import main

SRC = Path(__file__).resolve().parents[1] / "src"
NOT_AT_START_UP = ("dataclasses", "inspect", "concurrent.futures", "statistics", "random", "typing")

_LIST_MODULES = "import sys; print('\\n'.join(sorted(sys.modules)))"


def _loaded_modules(code):
    # -I: no user site or environment, as the benchmark's probe runs
    proc = subprocess.run(
        [sys.executable, "-I", "-c", code + "\n" + _LIST_MODULES],
        capture_output=True, text=True, timeout=60, check=True,
    )
    return set(proc.stdout.split())


def test_cli_import_loads_no_unneeded_module():
    bare = _loaded_modules("")
    loaded = _loaded_modules(
        f"import sys; sys.path.insert(0, {str(SRC)!r}); import latinrect, latinrect.cli"
    )
    assert "latinrect.cli" in loaded
    unneeded = (loaded - bare) & set(NOT_AT_START_UP)
    assert not unneeded


def test_cli_import_builds_no_parser():
    # set-up ends at the import; main builds its parser at the first request
    code = (f"import sys; sys.path.insert(0, {str(SRC)!r}); import latinrect.cli as cli; "
            "print(cli._parser.cache_info().currsize)")
    proc = subprocess.run([sys.executable, "-I", "-c", code],
                          capture_output=True, text=True, timeout=60, check=True)
    assert proc.stdout == "0\n"


def _run(capsys, argv):
    code = main(argv)
    return code, capsys.readouterr().out


def test_pooled_count_still_matches_serial(capsys):
    outs = []
    for threads in ("1", "2"):
        code, out = _run(
            capsys, ["count", "--k", "3", "--n", "9", "--threads", threads, "--format", "json"]
        )
        assert code == 0
        payload = json.loads(out)
        del payload["elapsed_ms"]
        outs.append(payload)
    assert outs[0] == outs[1]


def test_bench_still_fits_exponents(capsys):
    code, out = _run(capsys, ["bench", "--k", "2", "--n", "1..6"])
    assert code == 0
    footer = [line for line in out.splitlines() if line.startswith("# fitted_exponent_")]
    assert len(footer) == 4
    assert not any(line.endswith("=absent") for line in footer)


def test_selftest_still_passes(capsys):
    code, out = _run(capsys, ["selftest"])
    assert code == 0
    assert out.endswith("selftest: OK\n")
