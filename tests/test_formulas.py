import time
from math import comb, factorial
from types import SimpleNamespace

import pytest

import latinrect.formulas as formulas
import latinrect.guards as guards
from latinrect.formulas import (
    derangements_classical,
    derangements_ryser,
    reduced_count,
    total_count,
    total_count_direct,
)
from latinrect.guards import ResourceGuardError
from latinrect.oracle import brute_force_count
from latinrect.tallies import OpTally

# frozen oracle output (brute_force_count), asserted again below where cheap
DERANGEMENTS = [1, 0, 1, 2, 9, 44, 265, 1854, 14833, 133496, 1334961]
REDUCED_3 = {3: 2, 4: 24, 5: 552, 6: 21280, 7: 1073760}
REDUCED_4 = {4: 24, 5: 1344, 6: 393120}


def test_derangement_identities():
    for n in range(11):
        assert derangements_classical(n) == DERANGEMENTS[n]
        assert derangements_ryser(n) == DERANGEMENTS[n]
        assert reduced_count(2, n).value == DERANGEMENTS[n]


def test_reduced_matches_oracle_small_grid():
    for k in (1, 2, 3, 4):
        for n in range(6):
            assert reduced_count(k, n).value == brute_force_count(k, n), (k, n)


def test_three_row_fixture():
    for n, expected in REDUCED_3.items():
        assert reduced_count(3, n).value == expected
    assert brute_force_count(3, 6) == REDUCED_3[6]


def test_four_row_fixture():
    for n, expected in REDUCED_4.items():
        assert reduced_count(4, n).value == expected
    assert brute_force_count(4, 5) == REDUCED_4[5]


def test_one_row_is_constant_one():
    for n in range(8):
        assert reduced_count(1, n).value == 1
        assert total_count(1, n).value == factorial(n)


def test_empty_rectangle_convention():
    for k in range(1, 6):
        assert reduced_count(k, 0).value == 1
        assert total_count(k, 0).value == 1


def test_zero_rule_runs_the_full_sum():
    for k in range(2, 6):
        for n in range(1, k):
            result = reduced_count(k, n)
            assert result.value == 0
            assert result.stats.terms == comb(n + 2 ** (k - 1) - 1, 2 ** (k - 1) - 1)


def test_term_count_matches_prediction():
    for k in (1, 2, 3, 4):
        for n in (0, 1, 3, 6):
            q = 2 ** (k - 1)
            assert reduced_count(k, n).stats.terms == comb(n + q - 1, q - 1)


def test_total_count_examples():
    assert total_count(1, 4).value == 24
    assert total_count(2, 3).value == 12
    assert total_count(3, 3).value == 12
    assert total_count(2, 3).method == "factorial-bridge"


def test_total_direct_examples():
    assert total_count_direct(1, 3).value == 6
    assert total_count_direct(2, 2, "derived").value == 2
    assert total_count_direct(2, 2, "literal").value == 2
    assert total_count_direct(3, 3).value == 12


def test_total_direct_agrees_with_bridge():
    # the derivation in total_count_direct's docstring holds for every k
    for k, top in ((1, 6), (2, 6), (3, 6), (4, 6), (5, 4)):
        for n in range(top + 1):
            direct = total_count_direct(k, n)
            assert direct.value == factorial(n) * reduced_count(k, n).value, (k, n)


def test_bracket_variants_agree():
    for n in range(7):
        assert (
            total_count_direct(2, n, "literal").value
            == total_count_direct(2, n, "derived").value
        )


def test_literal_bracket_restricted_to_two_rows():
    with pytest.raises(ValueError):
        total_count_direct(3, 3, "literal")
    with pytest.raises(ValueError):
        total_count_direct(2, 3, "inverted")


def test_direct_beyond_printed_cases_is_flagged():
    # past the printed k<=3 cases direct-L is derived, not extrapolated:
    # it still equals n! times the reduced count
    result = total_count_direct(4, 4)
    assert result.value == factorial(4) * reduced_count(4, 4).value


def test_parallel_evaluation_is_deterministic():
    cases = (
        ("formula", 3, 12, "derived"),
        ("formula", 4, 8, "derived"),
        ("direct-L", 3, 8, "derived"),
        ("direct-L", 2, 20, "literal"),
    )
    for method, k, n, bracket in cases:
        runs = []
        for threads in (1, 2, 4):
            tally = OpTally()
            result = formulas._evaluate(method, k, n, bracket=bracket, threads=threads, tally=tally)
            stats = result.stats
            runs.append((result.value, stats.terms, stats.adds, stats.mults, tally))
        assert runs[1] == runs[0] and runs[2] == runs[0], (method, k, n, bracket)


@pytest.mark.parametrize(
    "k, n, bracket, adds, inner, assembly, naive",
    [
        (3, 10, "derived", 330_616, 291_720, 77_792, 175_032),
        (2, 9, "literal", 880, 1_320, 880, 1_760),
        (3, 0, "derived", 17, 15, 0, 0),
        (1, 7, "derived", 8, 24, 32, 48),
    ],
)
def test_direct_tallies(k, n, bracket, adds, inner, assembly, naive):
    # terms x the fixed per-term cost: g, the multinomial, the sum and g ** n
    tally = OpTally()
    formulas._evaluate("direct-L", k, n, bracket=bracket, tally=tally)
    assert tally == OpTally(adds, inner, assembly, naive)


class _RecordingExecutor:
    """Stands in for ThreadPoolExecutor: runs each chunk at submission, on
    the calling thread, and records how many chunks are held unmerged."""

    def __init__(self, max_workers):
        self.max_workers = max_workers
        self.submitted = 0
        self.held = 0
        self.peak_held = 0

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        return False

    def submit(self, fn, *args):
        self.submitted += 1
        self.held += 1
        self.peak_held = max(self.peak_held, self.held)
        value = fn(*args)

        def result():
            self.held -= 1
            return value

        return SimpleNamespace(result=result)


def test_pool_window_is_capped_whatever_the_thread_count(monkeypatch):
    pools = []

    def recording_pool(max_workers):
        pools.append(_RecordingExecutor(max_workers))
        return pools[-1]

    monkeypatch.setattr("concurrent.futures.ThreadPoolExecutor", recording_pool)
    pooled = reduced_count(3, 60, threads=1000)
    (pool,) = pools
    assert pool.submitted == 39  # C(63, 3) profiles in chunks of 1024
    assert pool.peak_held == formulas._WINDOW < pool.submitted
    assert pool.max_workers == formulas._WINDOW
    assert pool.held == 0
    monkeypatch.undo()
    serial = reduced_count(3, 60, threads=1)
    assert pooled.value == serial.value
    assert (pooled.stats.terms, pooled.stats.adds, pooled.stats.mults) == (
        serial.stats.terms,
        serial.stats.adds,
        serial.stats.mults,
    )


def test_resource_guard_reports_predicted_terms():
    with pytest.raises(ResourceGuardError) as err:
        reduced_count(4, 30, max_terms=1000)
    message = str(err.value)
    assert str(comb(37, 7)) in message
    assert "1000" in message


def test_guard_env_override(monkeypatch):
    monkeypatch.setenv(guards.MAX_TERMS_ENV, "10")
    with pytest.raises(ResourceGuardError):
        reduced_count(3, 5)
    monkeypatch.setenv(guards.MAX_TERMS_ENV, "banana")
    with pytest.raises(ValueError):
        reduced_count(3, 5)
    monkeypatch.delenv(guards.MAX_TERMS_ENV)
    assert reduced_count(3, 5).value == 552


def test_argument_validation():
    with pytest.raises(ValueError):
        reduced_count(0, 3)
    with pytest.raises(ValueError):
        reduced_count(2, -1)
    with pytest.raises(ValueError):
        derangements_ryser(-1)
    with pytest.raises(ValueError):
        reduced_count(2, 3, max_terms=0)


def derangements_by_recurrence(n):
    """D(n) = n D(n-1) + (-1)^n, sharing no code with the factorial table."""
    d = 1
    for i in range(1, n + 1):
        d = i * d + (-1 if i & 1 else 1)
    return d


def test_two_row_counts_at_thousand_digit_sizes():
    # the big-integer path: multinomials, powers and products of values
    # with thousands of digits, where every other test stays small
    start = time.perf_counter()
    assert reduced_count(2, 1200).value == derangements_by_recurrence(1200)
    assert total_count(2, 700).value == factorial(700) * derangements_by_recurrence(700)
    assert time.perf_counter() - start < 2.0
