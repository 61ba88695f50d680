"""Cross-check the benchmark against the repository's recorded baseline.

Usage (from the repository root):

    python3 perfbench/baseline.py

1. Times `count --k 4 --n 10` through `cli.main`, single-thread and at
   the CLI default, as the median of REPEATS runs, next to the ROADMAP
   baseline (818 ms and 1,108 ms on its reference machine).
2. Checks that the op counts of that request, read from the tallies the
   CLI's own instrumented run creates, equal `bench.measure(4, 10)`.
Exits 1 if check 2 fails.  That `formulas.terms` equals the predicted
composition count on every formula request is checked by every traced
run of `run.py` (its `trace_checks.terms_off`).
"""

import contextlib
import io
import statistics
import time

import run
import tracing

ROADMAP_MS = {"1": 818.0, "default": 1108.0}
REPEATS = 5
ARGV = ["count", "--k", "4", "--n", "10", "--format", "json"]


def time_request(main, argv):
    samples = []
    for _ in range(REPEATS):
        with contextlib.redirect_stdout(io.StringIO()):
            start = time.perf_counter()
            code = main(argv)
            samples.append((time.perf_counter() - start) * 1000.0)
        if code != 0:
            raise RuntimeError(f"{' '.join(argv)} exited {code}")
    return statistics.median(samples)


def main():
    package = run.import_package()
    print("environment " + " ".join(f"{k}={v!r}" for k, v in run.environment(package).items()))

    for threads, flag in (("1", ["--threads", "1"]), ("default", [])):
        ms = time_request(package.cli.main, ARGV + flag)
        print(f"k=4 n=10 threads={threads}: {ms:.1f} ms "
              f"(ROADMAP {ROADMAP_MS[threads]:.0f} ms, ratio {ms / ROADMAP_MS[threads]:.2f})")

    tracer = tracing.Tracer()
    run.traced_pass(package, tracer, [ARGV])
    [tally] = tracer.tallies
    report = package.bench.measure(4, 10)
    got = (tally.adds, tally.mults_inner, tally.mults_assembly, tally.mults_assembly_naive)
    want = (report.adds, report.mults_inner, report.mults_actual, report.mults_paper_model)
    same = got == want
    print(f"k=4 n=10 op counts (adds, mults_inner, mults_assembly, naive): "
          f"CLI {got} bench.measure {want}: {'equal' if same else 'DIFFERENT'}")
    return 0 if same else 1


if __name__ == "__main__":
    raise SystemExit(main())
