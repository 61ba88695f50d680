import copy
import sys

import latinrect
import latinrect.cli
import pytest
import run
import workloads


@pytest.mark.parametrize("name", workloads.NAMES)
def test_same_seed_same_argv(name):
    assert workloads.requests(name, 7) == workloads.requests(name, 7)


def test_seed_changes_bigint_sizes_within_windows():
    passes = {tuple(map(tuple, workloads.requests("bigint", s))) for s in range(5)}
    assert len(passes) > 1
    allowed = {tuple(a) for a in workloads.all_requests("bigint")}
    for p in passes:
        assert set(p) <= allowed


def test_every_possible_request_has_a_golden_value():
    golden = workloads.load_golden()
    for name in workloads.NAMES:
        for argv in workloads.all_requests(name):
            if argv != workloads.SELFTEST:
                assert workloads.golden_key(argv) in golden


def test_selftest_passes_on_every_suite_ok_whatever_the_suites():
    ok = ("suite derangement-identities: 7 checks, 0 failures\n"
          "note: something\n"
          "selftest: OK\n")
    golden = workloads.load_golden()
    assert workloads.check(workloads.SELFTEST, 0, ok, golden) is None
    more = "suite orbit-vs-formula: 30 checks, 0 failures\n" + ok
    assert workloads.check(workloads.SELFTEST, 0, more, golden) is None
    failing = ok.replace("0 failures", "1 failures")
    assert workloads.check(workloads.SELFTEST, 0, failing, golden) is not None
    assert workloads.check(workloads.SELFTEST, 0, "selftest: OK\n", golden) is not None
    assert workloads.check(workloads.SELFTEST, 0, ok.replace("OK", "FAILED"), golden) is not None
    assert workloads.check(workloads.SELFTEST, 3, ok, golden) is not None


def test_bigint_keeps_half_of_each_pass_past_the_digit_limit():
    # R_2(n) has more than 4300 digits from n = 1558 on, L_2(n) from n = 859
    for seed in range(10):
        past = 0
        for argv in workloads.requests("bigint", seed):
            _, n, variant, _ = workloads.parse(argv)
            past += n >= (1558 if variant == "reduced" else 859)
        assert past == 4


def test_profiles_covered():
    assert workloads.profiles_covered(["count", "--k", "4", "--n", "10", "--format", "json"]) == 19448
    direct = ["count", "--k", "3", "--n", "10", "--method", "direct-L", "--format", "json"]
    assert workloads.profiles_covered(direct) == 19448
    assert workloads.profiles_covered(["selftest"]) == 0


def _oracle(k, n):
    return ["count", "--k", str(k), "--n", str(n), "--method", "oracle", "--format", "json"]


def test_corrupted_golden_value_counts_as_error():
    golden = copy.deepcopy(workloads.load_golden())
    reqs = [_oracle(3, 7), _oracle(4, 6)]
    _, results = run.run_pass(latinrect.cli.main, reqs)
    clean = run.Outcomes(golden)
    clean.add(results)
    assert (clean.attempted, clean.failed, clean.wrong) == (2, 0, 0)

    golden["R_3(7)"] = {"value": "1073761"}
    corrupted = run.Outcomes(golden)
    corrupted.add(results)
    assert (corrupted.attempted, corrupted.failed, corrupted.wrong) == (2, 1, 1)


def test_request_past_digit_limit_fails_without_raising_the_limit():
    limit = sys.get_int_max_str_digits()
    outcomes = run.Outcomes(workloads.load_golden())
    _, results = run.run_pass(latinrect.cli.main, [["count", "--k", "2", "--n", "1000", "--total", "--format", "json"]])
    outcomes.add(results)
    assert (outcomes.failed, outcomes.wrong) == (1, 0)
    assert "4300 digits" in next(iter(outcomes.reasons.values()))
    assert sys.get_int_max_str_digits() == limit
