"""Cross-validation suites runnable from the command line.

Every suite pits a formula against an independent enumeration (or two
formulas against each other) at a configurable depth, iterating smallest
cases first so the counterexample reported on a mismatch is minimal.
"""

import time
from math import factorial

from . import column_counts, formulas, oracle
from .guards import composition_count

DEFAULT_MAX_K = 3
DEFAULT_MAX_N = 4
RANDOM_HALL_SAMPLES = 25
_SEED = 812851200


class SuiteResult:
    def __init__(self, name: str):
        self.name = name
        self.checks = 0
        self.failures = 0
        self.counterexample: str | None = None
        self.elapsed = 0.0  # seconds
        self.notes: list[str] = []  # findings worth reporting even when every check passes

    def record(self, ok: bool, detail: str) -> None:
        self.checks += 1
        if not ok:
            self.failures += 1
            if self.counterexample is None:
                self.counterexample = detail


class SelftestReport:
    def __init__(self, suites: tuple[SuiteResult, ...], notes: tuple[str, ...] = ()):
        self.suites = suites
        self.notes = notes

    @property
    def ok(self) -> bool:
        return all(s.failures == 0 for s in self.suites)

    def first_counterexample(self) -> str | None:
        for s in self.suites:
            if s.counterexample is not None:
                return f"{s.name}: {s.counterexample}"
        return None


def _suite_derangements(max_n: int) -> SuiteResult:
    suite = SuiteResult("derangement-identities")
    # the two-row oracle is cheap well past its generic guard
    for n in range(min(max_n, 12) + 1):
        classical = formulas.derangements_classical(n)
        ryser = formulas.derangements_ryser(n)
        counted = formulas.reduced_count(2, n).value
        brute = oracle.brute_force_count(2, n, max_n=max(n, oracle.BRUTE_FORCE_MAX_N))
        ok = classical == ryser == counted == brute
        suite.record(
            ok,
            f"k=2 n={n}: classical={classical} ryser={ryser} "
            f"formula={counted} oracle={brute}",
        )
    return suite


def _suite_formula_vs_oracle(max_k: int, max_n: int) -> SuiteResult:
    # clamped to the oracle's default feasibility guard
    suite = SuiteResult("formula-vs-oracle")
    top_n = min(max_n, oracle.BRUTE_FORCE_MAX_N)
    ks = range(1, min(max_k, oracle.BRUTE_FORCE_MAX_K) + 1)
    walks = {k: formulas.reduced_counts(k, top_n) for k in ks}
    for n in range(top_n + 1):
        for k in ks:
            got = formulas.reduced_count(k, n).value
            walked = walks[k][n][0]
            want = oracle.brute_force_count(k, n)
            suite.record(
                got == walked == want,
                f"k={k} n={n}: formula={got} one walk={walked} oracle={want}",
            )
    return suite


def _suite_config_vs_oracle(max_k: int, max_n: int) -> SuiteResult:
    """Exhaustive over all hall sets while that is feasible, sampled beyond.

    The oracle's cost per hall set grows linearly in n, but the number
    of hall sets is 2^((k-1)n), so exhausting them stops being a self
    test around n = 5 and larger n fall back to seeded random hall sets.
    """
    suite = SuiteResult("profile-count-vs-hall-oracle")
    max_k = min(max_k, oracle.LONELY_HALL_MAX_K)
    exhaustive_n = min(max_n, 4)
    for n in range(1, exhaustive_n + 1):
        for k in range(2, max_k + 1):
            for halls in oracle.hall_sets(k, n):
                got = column_counts.config_count(oracle.profile_of(halls, k, n))
                want = oracle.lonely_hall_count(k, n, halls)
                suite.record(
                    got == want,
                    f"k={k} n={n} halls={sorted(halls)}: profile formula={got} oracle={want}",
                )
    if max_k >= 3:
        import random  # only the sampled hall sets need it

        rng = random.Random(_SEED)
        top = min(max(max_n + 1, 5), oracle.LONELY_HALL_MAX_N)
        for n in range(exhaustive_n + 1, top + 1):
            universe = [(row, floor) for row in (2, 3) for floor in range(1, n + 1)]
            for _ in range(RANDOM_HALL_SAMPLES):
                halls = frozenset(h for h in universe if rng.random() < 0.5)
                got = column_counts.config_count(oracle.profile_of(halls, 3, n))
                want = oracle.lonely_hall_count(3, n, halls)
                suite.record(
                    got == want,
                    f"k=3 n={n} halls={sorted(halls)}: profile formula={got} oracle={want}",
                )
    return suite


def _suite_bracket_variants(max_n: int) -> SuiteResult:
    suite = SuiteResult("direct-total-brackets")
    for n in range(min(max_n, 10) + 1):
        derived = formulas.total_count_direct(2, n, "derived").value
        literal = formulas.total_count_direct(2, n, "literal").value
        bridged = factorial(n) * formulas.reduced_count(2, n).value
        suite.record(
            derived == literal == bridged,
            f"k=2 n={n}: derived={derived} literal={literal} n!*reduced={bridged}",
        )
        direct3 = formulas.total_count_direct(3, n).value
        bridged3 = factorial(n) * formulas.reduced_count(3, n).value
        suite.record(
            direct3 == bridged3, f"k=3 n={n}: direct={direct3} n!*reduced={bridged3}"
        )
    return suite


def _suite_zero_rule(max_k: int) -> SuiteResult:
    suite = SuiteResult("zero-for-k-above-n")
    # k = 7 already needs ~1.2e8 terms at n = 6; stay under the ceiling
    top = min(max(max_k, 5), 6)
    for k in range(2, top + 1):
        # one walk for every n < k; its terms are counted, not computed
        rows = formulas.reduced_counts(k, k - 1)
        for n in range(1, k):
            value, terms = rows[n]
            full = composition_count(n, 1 << (k - 1))
            suite.record(
                value == 0 and terms == full,
                f"k={k} n={n}: value={value} terms={terms}/{full}",
            )
    return suite


def _suite_closed_forms(max_n: int) -> SuiteResult:
    """Two-row sanity counts with known closed forms, plus the two-hall probe.

    The probe's verdict is one of the suite's notes.
    """
    suite = SuiteResult("two-row-closed-forms")
    top = min(max(max_n, 5), oracle.LONELY_HALL_MAX_N)
    for n in range(1, top + 1):
        empty = oracle.lonely_hall_count(2, n)
        suite.record(
            empty == (n - 1) ** n, f"k=2 n={n} no halls: oracle={empty} want {(n-1)**n}"
        )
        one = oracle.lonely_hall_count(2, n, {(2, 1)})
        suite.record(
            one == (n - 1) * (n - 2) ** (n - 1),
            f"k=2 n={n} one hall: oracle={one} want {(n-1)*(n-2)**(n-1)}",
        )
    # Exponent probe: at n = 4 the candidates (n-2)^2 (n-3)^(n-2) and
    # (n-2)^2 (n-3)^(n-3) coincide; n = 5 separates them.
    for n in (4, 5):
        got = oracle.lonely_hall_count(2, n, {(2, 1), (2, 2)})
        full_exp = (n - 2) ** 2 * (n - 3) ** (n - 2)
        short_exp = (n - 2) ** 2 * (n - 3) ** (n - 3)
        suite.record(
            got == full_exp,
            f"k=2 n={n} two halls: oracle={got} want {(full_exp)}",
        )
        if n == 5:
            if got == full_exp != short_exp:
                suite.notes.append(
                    f"two omitted halls at n=5: oracle count {got} matches "
                    f"(n-2)^2*(n-3)^(n-2); the (n-2)^2*(n-3)^(n-3) variant "
                    f"gives {short_exp} and is ruled out"
                )
            elif got == short_exp:
                suite.notes.append(
                    f"two omitted halls at n=5: oracle count {got} matches "
                    f"(n-2)^2*(n-3)^(n-3)"
                )
    return suite


def run_selftest(*, max_k: int = DEFAULT_MAX_K, max_n: int = DEFAULT_MAX_N) -> SelftestReport:
    """Run every suite at the given depth, timing each; smallest cases first."""
    if max_k < 2 or max_n < 1:
        raise ValueError("selftest depth needs max_k >= 2 and max_n >= 1")
    runs = (
        lambda: _suite_derangements(max(max_n, 6)),
        lambda: _suite_formula_vs_oracle(min(max_k + 1, 4), max_n),
        lambda: _suite_config_vs_oracle(min(max_k, 3), max_n),
        lambda: _suite_bracket_variants(max_n),
        lambda: _suite_zero_rule(max_k),
        lambda: _suite_closed_forms(max_n),
    )
    suites = []
    for run in runs:
        start = time.perf_counter()
        suite = run()
        suite.elapsed = time.perf_counter() - start
        suites.append(suite)
    return SelftestReport(suites=tuple(suites), notes=tuple(n for s in suites for n in s.notes))
