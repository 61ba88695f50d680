"""latinrect benchmark: CLI requests in a closed loop, checked against golden values.

Usage (from the repository root):

    python3 perfbench/run.py --workload rows --seed 1 --seconds 30 --trace 0

One client drives `latinrect.cli.main(argv)` in this process, exactly as
the `latinrect` command would run it (default `--threads`, i.e. the CPU
count), sending each request only after the previous one returned.  A
pass is one run through the workload's requests (see `workloads.py`);
passes repeat until `--seconds` is spent.  Every printed value is
checked against `golden.json`.

--trace 0 reports the end-to-end metrics:
  wall_s          median wall time of one pass
  profiles_per_s  profiles the pass covers (see workloads.profiles_covered)
                  divided by wall_s
  ok_share        requests that exited 0 with the golden output, over
                  requests attempted (1 - the error share; never 0, so a
                  relative bound applies)
  setup_s         median, over fresh interpreters (two before every
                  pass), of spawn to ready: import plus the lazy tables
                  the pass uses
  peak_rss_mb     peak resident memory of this process, a fresh
                  interpreter that ran every pass
--trace 1 alternates untraced and traced passes and reports per-layer
counts and self times from the traced ones (see `tracing.py`), plus
trace_overhead, traced over untraced median pass time.

The last line of standard output is one JSON object with the keys
correct, attempted, failed and metrics.  A result file with the
environment, quartiles, sample counts and failures goes to
.perfbench/ in the current directory, and a traced run also writes its
last traced pass's spans there.
"""

import argparse
import contextlib
import io
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time

import probe
import tracing
import workloads

HERE = os.path.dirname(os.path.abspath(__file__))
SRC = os.path.join(os.path.dirname(HERE), "src")
PROBE = os.path.join(HERE, "probe.py")
OUT_DIR = ".perfbench"
PROBES_PER_PASS = 2
MIN_PASSES = 3
PROBE_TIMEOUT_S = 60

# per-layer metric name -> (span name, "calls" | "s")
SPAN_METRICS = {
    "profiles.compositions.s": ("profiles.compositions", "s"),
    "profiles.multinomial.calls": ("profiles.multinomial", "calls"),
    "profiles.multinomial.s": ("profiles.multinomial", "s"),
    "profiles.sign.calls": ("profiles.sign", "calls"),
    "profiles.sign.s": ("profiles.sign", "s"),
    "column_counts.config_count.calls": ("column_counts.config_count", "calls"),
    "column_counts.config_count.s": ("column_counts.config_count", "s"),
    "column_counts.choice_count.calls": ("column_counts.choice_count", "calls"),
    "column_counts.choice_count.s": ("column_counts.choice_count", "s"),
    "column_counts.shift_profile.calls": ("column_counts.shift_profile", "calls"),
    "column_counts.shift_profile.s": ("column_counts.shift_profile", "s"),
    "tallies.powered.calls": ("tallies.powered", "calls"),
    "tallies.powered.s": ("tallies.powered", "s"),
    "tallies.assembly_product.calls": ("tallies.assembly_product", "calls"),
    "tallies.assembly_product.s": ("tallies.assembly_product", "s"),
    "oracle.brute_force_count.calls": ("oracle.brute_force_count", "calls"),
    "oracle.brute_force_count.s": ("oracle.brute_force_count", "s"),
    "oracle.lonely_hall_count.calls": ("oracle.lonely_hall_count", "calls"),
    "oracle.lonely_hall_count.s": ("oracle.lonely_hall_count", "s"),
    "selftest.run_selftest.s": ("selftest.run_selftest", "s"),
    "cli.self_s": ("cli.main", "s"),
}
TALLY_FIELDS = ("adds", "mults_inner", "mults_assembly", "mults_assembly_naive")


def import_package():
    """latinrect from this checkout's src/, or exit 2 without a result."""
    sys.path.insert(0, SRC)
    try:
        import latinrect
        import latinrect.cli
    except ImportError as exc:
        sys.exit(f"perfbench: cannot import latinrect from {SRC}: {exc}")
    if not os.path.abspath(latinrect.__file__).startswith(SRC + os.sep):
        sys.exit(f"perfbench: latinrect imported from {latinrect.__file__}, not {SRC}")
    return latinrect


def cpu_model():
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def environment(package):
    return {
        "python": platform.python_version(),
        "implementation": platform.python_implementation(),
        "nproc": os.cpu_count(),
        "cpu_model": cpu_model(),
        "int_max_str_digits": sys.get_int_max_str_digits(),
        "cli_default_threads": package.cli._default_threads(),
    }


def quartiles(values):
    """(q1, median, q3); with one value all three are that value."""
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3


def measure_setup(tables, probes):
    """Spawn-to-ready seconds of `probes` fresh interpreters, one after another."""
    samples = []
    for _ in range(probes):
        start = time.perf_counter()
        proc = subprocess.Popen(
            [sys.executable, "-I", PROBE, SRC, json.dumps(tables)],
            stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True,
        )
        try:
            line = proc.stdout.readline()
            ready = time.perf_counter()
            _, err = proc.communicate(timeout=PROBE_TIMEOUT_S)
        finally:
            if proc.poll() is None:
                proc.kill()
                proc.wait()
        if proc.returncode != 0 or line != "ready\n":
            raise RuntimeError(f"set-up probe failed (exit {proc.returncode}): {err.strip()}")
        samples.append(ready - start)
    return samples


def run_pass(main, reqs):
    """Send every request in order; (pass seconds, per-request results)."""
    results = []
    pass_start = time.perf_counter()
    for argv in reqs:
        out, err = io.StringIO(), io.StringIO()
        try:
            with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                code = main(argv)
        except Exception as exc:  # a request that raises is a failed request
            code, err = None, io.StringIO(f"{type(exc).__name__}: {exc}")
        results.append((argv, code, out.getvalue(), err.getvalue()))
    return time.perf_counter() - pass_start, results


class Outcomes:
    """Attempted, failed and wrong requests over a run, with a few reasons."""

    def __init__(self, golden):
        self.golden = golden
        self.attempted = self.failed = self.wrong = 0
        self.reasons = {}

    def add(self, results):
        for argv, code, stdout, stderr in results:
            self.attempted += 1
            reason = workloads.check(argv, code, stdout, self.golden)
            if reason is None:
                continue
            self.failed += 1
            if code == 0:
                self.wrong += 1
            key = " ".join(argv)
            if key not in self.reasons:
                self.reasons[key] = f"{reason}: {stderr.strip()[:200]}" if stderr.strip() else reason


def end_to_end(package, reqs, args, outcomes, report):
    tables = workloads.tables(reqs)
    probe.build(package, tables)
    setup, walls = [], []
    start = time.perf_counter()
    # probes alternate with passes, so both sample the whole run, and
    # passes stop when the next would overrun --seconds
    while len(walls) < MIN_PASSES or time.perf_counter() - start + max(walls) <= args.seconds:
        setup += measure_setup(tables, PROBES_PER_PASS)
        wall, results = run_pass(package.cli.main, reqs)
        walls.append(wall)
        outcomes.add(results)
    wall = statistics.median(walls)
    covered = sum(workloads.profiles_covered(argv) for argv in reqs)
    report["samples"] = {"wall_s": walls, "setup_s": setup}
    return {
        "wall_s": (wall, "s"),
        "profiles_per_s": (covered / wall, "1/s"),
        "ok_share": ((outcomes.attempted - outcomes.failed) / outcomes.attempted, "share"),
        "setup_s": (statistics.median(setup), "s"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "MB"),
    }


def layer_counts(tracer, reqs):
    """Exact counts of one traced pass, and the requests whose term count is off."""
    summary = tracer.summary()
    items = tracer.items()
    counts = {name: calls for name, (calls, _) in summary.items()}
    counts["formulas.terms"] = sum(items.values())
    counts["tallies.powered.result_bits"] = tracer.powered_bits()
    for field in TALLY_FIELDS:
        counts[f"tallies.{field}"] = sum(getattr(t, field) for t in tracer.tallies)
    off = []
    for i, argv in enumerate(reqs):
        parsed = workloads.parse(argv)
        if parsed and parsed[3] != "oracle" and items[i] != workloads.profiles_covered(argv):
            off.append(f"{' '.join(argv)}: {items[i]} terms traced")
    return counts, off


def layer_times(tracer):
    summary = tracer.summary()
    times = {name: s for name, (_, s) in summary.items()}
    times["formulas"] = sum(summary[name][1] for name in tracing.FORMULA_SPANS)
    return times


def traced_pass(package, tracer, reqs):
    """One pass with every traced name rebound; the tracer then holds just this pass."""
    tracer.reset()
    main = tracer.wrap(tracing.REQUEST_SPAN, package.cli.main)

    def request(argv):
        tracer.request += 1
        return main(argv)

    tracer.install(package)
    try:
        return run_pass(request, reqs)
    finally:
        tracer.uninstall()


def per_layer(package, reqs, args, outcomes, report):
    probe.build(package, workloads.tables(reqs))
    tracer = tracing.Tracer()
    plain, traced, times, counts = [], [], [], []
    off_terms = []
    start = time.perf_counter()
    while not traced or time.perf_counter() - start + max(plain) + max(traced) <= args.seconds:
        wall, results = run_pass(package.cli.main, reqs)
        plain.append(wall)
        outcomes.add(results)
        wall, results = traced_pass(package, tracer, reqs)
        traced.append(wall)
        outcomes.add(results)
        times.append(layer_times(tracer))
        pass_counts, off = layer_counts(tracer, reqs)
        counts.append(pass_counts)
        off_terms += off
    os.makedirs(OUT_DIR, exist_ok=True)
    tracer.dump(os.path.join(OUT_DIR, f"{args.workload}.spans"))
    repeat = all(c == counts[0] for c in counts)
    report["trace_checks"] = {"counts_repeat": repeat, "terms_off": sorted(set(off_terms)),
                              "residual_ns_per_child": tracer.residual * 1e9}
    report["samples"] = {"plain_wall_s": plain, "traced_wall_s": traced}
    c = counts[0]
    metrics = {"formulas.terms": (c["formulas.terms"], "count")}
    metrics["formulas.self_s"] = (statistics.median(t["formulas"] for t in times), "s")
    for metric, (span, kind) in SPAN_METRICS.items():
        if kind == "calls":
            metrics[metric] = (c[span], "count")
        else:
            metrics[metric] = (statistics.median(t[span] for t in times), "s")
    terms = c["formulas.terms"]
    per_term = c["column_counts.choice_count"] / terms if terms else 0.0
    metrics["column_counts.choice_count.per_term"] = (per_term, "calls/term")
    metrics["tallies.powered.result_bits"] = (c["tallies.powered.result_bits"], "bit")
    for field in TALLY_FIELDS:
        metrics[f"tallies.{field}"] = (c[f"tallies.{field}"], "count")
    metrics["trace_overhead"] = (statistics.median(traced) / statistics.median(plain), "x")
    return metrics, repeat and not off_terms


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=workloads.NAMES)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    package = import_package()
    golden = workloads.load_golden()
    reqs = workloads.requests(args.workload, args.seed)
    env = environment(package)
    report = {"workload": args.workload, "seed": args.seed, "seconds": args.seconds,
              "trace": args.trace, "environment": env, "requests": reqs}
    outcomes = Outcomes(golden)
    if args.trace:
        metrics, trace_ok = per_layer(package, reqs, args, outcomes, report)
    else:
        metrics, trace_ok = end_to_end(package, reqs, args, outcomes, report), True
    correct = outcomes.wrong == 0 and trace_ok

    report.update(correct=correct, attempted=outcomes.attempted, failed=outcomes.failed,
                  failures=outcomes.reasons,
                  metrics={k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
                  quartiles={name: quartiles(v) for name, v in report["samples"].items()})
    os.makedirs(OUT_DIR, exist_ok=True)
    path = os.path.join(OUT_DIR, f"{args.workload}-seed{args.seed}-trace{args.trace}.json")
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(report, fh, indent=1)

    print("environment " + " ".join(f"{k}={v!r}" for k, v in env.items()))
    print(f"workload={args.workload} seed={args.seed} requests/pass={len(reqs)} "
          f"attempted={outcomes.attempted} failed={outcomes.failed} "
          f"errors={outcomes.failed / outcomes.attempted:.4f} share")
    for key, reason in outcomes.reasons.items():
        print(f"  failed: {key}: {reason}")
    if "trace_checks" in report:
        print(f"  trace checks: {report['trace_checks']}")
    for name, (q1, q2, q3) in report["quartiles"].items():
        print(f"  {name}: n={len(report['samples'][name])} q1={q1:.4f} median={q2:.4f} q3={q3:.4f}")
    for name, (value, unit) in metrics.items():
        print(f"{name} = {value} {unit}")
    print(f"result file: {path}")
    print(json.dumps({"correct": correct, "attempted": outcomes.attempted, "failed": outcomes.failed,
                      "metrics": report["metrics"]}))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
