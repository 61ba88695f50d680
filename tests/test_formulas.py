import time
import tracemalloc
from math import comb, expm1, factorial, log, log1p, perm
from types import SimpleNamespace

import pytest

import latinrect.column_counts as column_counts
import latinrect.formulas as formulas
import latinrect.profiles as profiles
from latinrect.formulas import (
    derangements_classical,
    derangements_ryser,
    reduced_count,
    reduced_counts,
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
    for n in (*range(7), 60):
        assert (
            total_count_direct(2, n, "literal").value
            == total_count_direct(2, n, "derived").value
        ), n


def rectangle_divisor(k, n):
    """n! (n-1)!/(n-k)!, which divides L_k(n) for n >= k.

    L_k(n) = n! R_k(n), and (n-1)!/(n-k)! divides R_k(n): a symbol
    relabeling that fixes 1, followed by the column permutation that
    restores row 1, maps the reduced rectangles with first column
    (1, x_2, ..., x_k) one-to-one onto those with any other first column
    of distinct entries starting with 1.
    """
    return factorial(n) * factorial(n - 1) // factorial(n - k)


@pytest.mark.parametrize("k, n", [(k, n) for k in (2, 3, 4) for n in range(k, 9)])
def test_direct_counts_have_the_rectangle_divisor(k, n):
    value = total_count_direct(k, n).value
    assert value > 0 and value % rectangle_divisor(k, n) == 0


def test_two_row_direct_count_is_n_factorial_derangements_at_n_100():
    # 176,851 profiles share far fewer brackets; the derangement sum
    # shares no code with the profile sum
    value = total_count_direct(2, 100).value
    assert value == factorial(100) * derangements_classical(100)
    assert value % rectangle_divisor(2, 100) == 0


def test_three_row_direct_count_matches_the_bridge_at_n_16():
    # 245,157 profiles over 8 classes against the reduced sum's 969
    value = total_count_direct(3, 16).value
    assert value == total_count(3, 16).value
    assert value % rectangle_divisor(3, 16) == 0


def test_four_row_count_matches_the_pinned_oracle_value_at_n_16():
    # R_4(16) as the brute-force oracle computed it in 11.3 s, past its
    # tier-1 reach; the reduced sum walks 245,157 profiles over 8 classes
    value = reduced_count(4, 16).value
    assert value == 17237448791456599571078045378751528960
    assert value % (rectangle_divisor(4, 16) // factorial(16)) == 0


def test_four_row_direct_count_matches_the_oracle_at_n_8():
    # R_4(8) as the row-symmetric oracle computes it (tests/test_oracle.py
    # pins it at the same size); direct-L walks 490,314 profiles over 16
    # classes, most of them by its differences along classes 1 and 2
    assert total_count_direct(4, 8).value == factorial(8) * 88_390_995_840


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
            result, tally = formulas._evaluate(method, k, n, bracket=bracket, threads=threads)
            stats = result.stats
            runs.append((result.value, stats.terms, stats.adds, stats.mults, tally))
        assert runs[1] == runs[0] and runs[2] == runs[0], (method, k, n, bracket)


@pytest.mark.parametrize(
    "k, n, bracket, adds, inner, assembly, naive",
    [
        (3, 10, "derived", 107_302, 61_255, 1_356, 175_032),
        (2, 9, "literal", 565, 509, 244, 1_760),
        (3, 0, "derived", 17, 7, 0, 0),
        (1, 7, "derived", 15, 22, 32, 48),
    ],
)
def test_direct_tallies(k, n, bracket, adds, inner, assembly, naive):
    # each term costs its branch and an add into its bracket's sum, each
    # of the T - 1 steps of the walk the weight's product and exact
    # quotient, and each distinct bracket value g ** n, a mult by its
    # summed weight and an add into the total.  At k=3 n=10, of T = 19,448
    # profiles T1 = 11,440 step along class 1 (1 add), T2 = 5,005 along
    # class 2 (2 adds), and 3,003 take the bracket in full (16 adds, 6
    # mults), 2,002 of them with c0 >= 1 also its differences (9 adds,
    # 2 mults).  With D = 339: adds = 16 x 3,003 + 9 x 2,002 + T1 + 2 T2
    # + T + D - 1, inner = 6 x 3,003 + 2 x 2,002 + 2 (T - 1) + D and
    # assembly = s(10) D = 4 x 339.  At k = 1 every profile takes its
    # bracket, c0, in full.
    _, tally = formulas._evaluate("direct-L", k, n, bracket=bracket)
    assert tally == OpTally(adds, inner, assembly, naive)


@pytest.mark.parametrize("threads", [1, 2])
def test_stats_are_the_returned_tally(threads):
    # each evaluation makes one tally and reads its statistics off it; the
    # bridge's multiplication by n! is the one op it adds to the formula's
    for k in range(1, 5):
        for n in range(6):
            runs = {}
            for method, bracket in (("formula", "derived"), ("factorial-bridge", "derived"),
                                    ("direct-L", "derived"), ("direct-L", "literal")):
                if bracket == "literal" and k != 2:
                    continue
                result, tally = formulas._evaluate(method, k, n, bracket=bracket, threads=threads)
                assert (result.stats.adds, result.stats.mults) == (tally.adds, tally.mults_total)
                runs[method] = tally
            formula = runs["formula"]
            assert runs["factorial-bridge"] == OpTally(
                formula.adds, formula.mults_inner + 1, formula.mults_assembly,
                formula.mults_assembly_naive,
            ), (k, n)


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


def test_argument_validation():
    with pytest.raises(ValueError):
        reduced_count(0, 3)
    with pytest.raises(ValueError):
        reduced_count(2, -1)
    with pytest.raises(ValueError):
        derangements_ryser(-1)
    with pytest.raises(ValueError):
        reduced_count(2, 3, max_terms=0)


def test_arguments_must_be_integers(monkeypatch):
    # a float n once walked forever (compositions) or failed deep inside
    # the sum (reduced_count); now each raises at the call
    with pytest.raises(TypeError):
        profiles.compositions(2.5, 1)
    with pytest.raises(TypeError):
        profiles.compositions(3, 1.0)

    def no_walk(*args):
        raise AssertionError("a walk started")

    monkeypatch.setattr(profiles, "compositions", no_walk)
    for call in (lambda: reduced_count(3, 2.5), lambda: reduced_count(3.0, 2),
                 lambda: total_count_direct(2, 2.5), lambda: reduced_counts(3, 2.5),
                 lambda: reduced_counts(3, 4, n_min=1.5)):
        with pytest.raises(TypeError):
            call()


@pytest.mark.parametrize("k, n_max", [(1, 5), (2, 30), (3, 12), (4, 8), (5, 5),
                                      (1, 0), (3, 0), (5, 0)])
def test_one_walk_gives_every_row_of_the_per_n_sums(k, n_max):
    want = [(r.value, r.stats.terms) for r in (reduced_count(k, n) for n in range(n_max + 1))]
    assert reduced_counts(k, n_max) == want
    # a later first row finishes only the rows asked for, from the same walk
    for n_min in {0, n_max // 2, n_max}:
        assert reduced_counts(k, n_max, n_min=n_min) == want[n_min:], n_min


def test_one_walk_refuses_before_it_compiles(monkeypatch):
    def no_compile(q):
        raise AssertionError("a walk was compiled")

    monkeypatch.setattr(column_counts, "range_sum", no_compile)
    with pytest.raises(ResourceGuardError, match=str(comb(37, 7))):
        reduced_counts(4, 30, max_terms=1000)
    with pytest.raises(ResourceGuardError, match="over 8 rows"):
        reduced_counts(9, 1)
    for k, n_max, n_min in ((0, 3, 0), (2, -1, 0), (2, 3, -1), (2, 3, 4)):
        with pytest.raises(ValueError):
            reduced_counts(k, n_max, n_min=n_min)


@pytest.mark.parametrize("k, n_max", [(2, 40), (3, 16), (4, 10), (5, 6)])
def test_one_walk_rows_have_the_rectangle_divisor(k, n_max):
    rows = reduced_counts(k, n_max)
    for n in range(k, n_max + 1):
        value = rows[n][0]
        assert value > 0 and value % (factorial(n - 1) // factorial(n - k)) == 0, n


def test_one_walk_matches_the_pinned_oracle_value_at_n_18():
    # R_4(18) as the brute-force oracle computed it in 27.1 s; one walk
    # over the 480,700 profiles of 18 gives it with every smaller row
    rows = reduced_counts(4, 18)
    assert rows[18] == (510616928146758630267870258448543665082859520, 480700)
    assert rows[16][0] == 17237448791456599571078045378751528960


def test_one_walk_matches_the_pinned_oracle_value_at_k_5_n_8():
    # R_5(8) as brute_force_count(5, 8, max_k=5, max_n=8) computed it; the
    # walk steps its weight along all 16 classes of the profiles of 8
    assert reduced_counts(5, 8)[8] == (22853592760320, comb(23, 15))


def test_one_walk_holds_one_power_per_key():
    # every row's powers held at once took 9.0 MiB at k = 2, N = 300, and
    # grow like N^3; one current power per key takes about 0.3 MiB
    reduced_counts(2, 1)  # compiled before tracing
    tracemalloc.start()
    try:
        reduced_counts(2, 300)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 2 * 2**20


def log_of(x):
    """The natural log of a positive integer of any size, from its top 64 bits."""
    shift = max(x.bit_length() - 64, 0)
    return log(x >> shift) + shift * log(2)


@pytest.mark.parametrize("k, n_max", [(2, 300), (3, 60), (4, 16)])
def test_one_walk_approaches_the_godsil_mckay_asymptotics(k, n_max):
    # Godsil and McKay (J. Combin. Theory Ser. B 48, 1990): L_k(n) ~ (n!)^k
    # (n(n-1)...(n-k+1)/n^k)^n (1 - k/n)^(-n/2) e^(-k/2), with L_k(n) = n! R_k(n);
    # the ratio tends to 1 like c_k / n from below (measured: n (ratio - 1)
    # rises -0.78 -> -0.50 at k = 2, -1.31 -> -0.79 at k = 3, -1.78 -> -1.31 at k = 4)
    rows = reduced_counts(k, n_max)
    scaled = []
    for n in range(2 * k, n_max + 1):
        log_l = log_of(factorial(n)) + log_of(rows[n][0])
        log_gm = (k * log_of(factorial(n)) + n * (log_of(perm(n, k)) - k * log(n))
                  - n / 2 * log1p(-k / n) - k / 2)
        scaled.append(n * expm1(log_l - log_gm))
    assert all(-2 < a < b < 0 for a, b in zip(scaled, scaled[1:])), (k, scaled)


def test_one_walk_keeps_the_forced_last_row():
    # R_(n-1)(n) = R_n(n): an (n-1)-by-n Latin rectangle has one completion
    for n in range(2, 6):
        assert reduced_counts(n - 1, n)[n][0] == reduced_counts(n, n)[n][0], n


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
