import threading
import time

import latinrect
import pytest
import tracing
from latinrect import bench, guards


def test_covered_merges_overlaps_and_clips():
    assert tracing.covered([], 0.0, 10.0) == 0.0
    assert tracing.covered([(1.0, 4.0), (3.0, 6.0), (8.0, 9.0)], 0.0, 10.0) == 6.0
    assert tracing.covered([(2.0, 3.0), (1.0, 5.0)], 0.0, 10.0) == 4.0
    assert tracing.covered([(-1.0, 2.0), (9.0, 12.0)], 0.0, 10.0) == 3.0


def test_self_time_on_synthetic_tree_with_overlapping_children():
    # root [0, 10] has children on two threads: a [1, 4] (itself with a
    # child [2, 3]), b [3, 6] overlapping a, and c [8, 9]
    tracer = tracing.Tracer(residual=0.0)
    log_main = tracer._log()
    log_other = tracing._ThreadLog(thread=-1)
    tracer._logs.append(log_other)
    root = tracing._Frame(0, tracing.array("d"))
    a, b, c, a1 = (tracing._Frame(i) for i in (1, 2, 3, 4))

    def close(log, frame, name_id, parent, t0, t1):
        tracer._close(log, frame, name_id, parent, t0, t1)
        tracer._charge(parent, t0, t1)

    close(log_main, a1, 2, a, 2.0, 3.0)
    close(log_main, a, 1, root, 1.0, 4.0)
    close(log_other, b, 1, root, 3.0, 6.0)
    close(log_main, c, 1, root, 8.0, 9.0)
    close(log_main, root, 0, None, 0.0, 10.0)
    tracer.finish()
    self_by_sid = {}
    for log in tracer._logs:
        for sid, self_s in zip(log.cols["sid"], log.cols["self"]):
            self_by_sid[sid] = self_s
    assert self_by_sid == {0: 4.0, 1: 2.0, 2: 3.0, 3: 1.0, 4: 1.0}


def test_wrapper_bookkeeping_is_not_charged_to_the_parent():
    # a parent that calls a traced no-op keeps, per call, about what the
    # same call costs untraced, not the tracer's cost of recording it
    calls = 20000
    tracer = tracing.Tracer()
    child = tracer.wrap("profiles.sign", lambda: None)
    plain = lambda: None  # noqa: E731
    loop = lambda fn: [fn() for _ in range(calls)]  # noqa: E731
    parent = tracer.wrap("column_counts.config_count", loop)
    kept = cost = untraced = float("inf")
    for _ in range(5):
        tracer.reset()
        start = time.perf_counter()
        parent(child)
        cost = min(cost, time.perf_counter() - start)
        kept = min(kept, tracer.summary()["column_counts.config_count"][1])
        start = time.perf_counter()
        loop(plain)
        untraced = min(untraced, time.perf_counter() - start)
    assert tracer.summary()["profiles.sign"][0] == calls
    assert kept - untraced < 0.25 * (cost - untraced)


@pytest.mark.parametrize("threads", [1, 2])
def test_traced_count_catches_imported_names_and_parents_pool_spans(threads, tmp_path):
    tracer = tracing.Tracer()
    tracer.install(latinrect)
    try:
        tracer.request = 0
        result = latinrect.formulas.reduced_count(3, 6, threads=threads)
    finally:
        tracer.uninstall()
    assert latinrect.column_counts.powered is latinrect.tallies.powered
    summary = tracer.summary()
    terms = guards.composition_count(6, 4)
    assert tracer.items()[0] == terms == result.stats.terms
    assert summary["profiles.multinomial"][0] == terms
    assert summary["column_counts.config_count"][0] == terms
    assert summary["tallies.powered"][0] == summary["column_counts.choice_count"][0] > 0
    [tally] = tracer.tallies
    assert tally.adds == result.stats.adds
    assert tally.mults_inner + tally.mults_assembly == result.stats.mults

    path = tmp_path / "spans"
    tracer.dump(path)
    spans = tracing.load(path)
    assert len(spans) == sum(calls for calls, _ in summary.values())
    [formula] = [s for s in spans if s["name"] == "formulas.reduced_count"]
    by_sid = {s["sid"]: s for s in spans}
    for s in spans:
        if s["name"] in ("column_counts.config_count", "profiles.compositions"):
            assert s["parent"] == formula["sid"]
        if s["parent"] >= 0:
            parent = by_sid[s["parent"]]
            assert parent["start"] <= s["start"] <= s["end"] <= parent["end"]
    if threads > 1:
        assert len({s["thread"] for s in spans}) > 1


def test_counts_match_bench_measure():
    tracer = tracing.Tracer()
    tracer.install(latinrect)
    try:
        latinrect.formulas.reduced_count(4, 6, threads=2)
    finally:
        tracer.uninstall()
    [tally] = tracer.tallies
    report = bench.measure(4, 6)
    assert (tally.adds, tally.mults_inner, tally.mults_assembly, tally.mults_assembly_naive) == (
        report.adds, report.mults_inner, report.mults_actual, report.mults_paper_model)


def test_tallies_from_pool_threads_are_not_recorded_twice():
    tracer = tracing.Tracer()
    tracer.install(latinrect)
    try:
        latinrect.formulas.total_count_direct(3, 5, threads=2)
        worker = threading.Thread(target=latinrect.formulas.OpTally)
        worker.start()
        worker.join(timeout=10)
    finally:
        tracer.uninstall()
    assert not worker.is_alive()
    assert len(tracer.tallies) == 1
