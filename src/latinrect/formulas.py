"""Counting formulas for k-by-n Latin rectangles.

Every formula method is one inclusion-exclusion sum over hall-omission
profiles of sign x multinomial x a product of column counts, accumulated
exactly over every composition of n with no shortcuts (no special case
for n < k: the sum itself vanishes there).  `reduced_count` takes
`column_counts.config_count` as the product over the 2^(k-1) classes of
rows 2..k, `total_count` multiplies the sum by n!, and
`total_count_direct` raises one bracket to the n-th power over the 2^k
classes of all k rows.  All arithmetic is exact integers end to end.

The direct-L sum is one call of a function compiled once per k
(`column_counts.direct_sum`): it walks the profiles of n itself, carries
the signed multinomial along that colex walk, steps the bracket by its
differences along classes 1 and 2 and adds up block sums and the
bracket in full only on the other profiles, and sums the weights per
bracket value, so that each distinct bracket is raised to the n-th
power once.

`reduced_counts` gives R_k(n) for a whole range of n from one walk over
the profiles of its largest n (`column_counts.range_sum`), since the
all-ones class, in no block sum, can hold the floors a smaller n leaves
out.  That walk carries the signed multinomial by the direct-L sum's
step and builds no factorial table; `column_counts._finish` then makes
the rows asked for, one power per key at a time.  `table`
and selftest's range suites use it; `count`, `bench` and
`reduced_count` stay one sum per n, and only they report op counts.
Every sum passes `guards.check_sum` before it builds anything.
Every entry point takes its k and n through `operator.index`, so a
float is a TypeError at the call.

Neither sum counts operations as it goes.  Each evaluation makes one
`OpTally`, to which `tallies.add_sum_ops` adds the sum's op counts once,
from its compiled kernel's cost per call, and the factorial bridge its
one multiplication by n!; the result's statistics are read off it.

The direct-L sum runs on one thread, whatever `threads` is, since each
profile's weight comes from the one before.  The reduced sum is serial
unless threads > 1; the pool then sums fixed-size chunks and combines
their values in stream order, and `add_sum_ops` gives the statistics,
so neither depends on the thread count.  The pool's module is imported
only then, so a serial run never loads it.
"""

import time
from collections import deque, namedtuple
from itertools import islice
from math import factorial
from operator import index

from . import column_counts, guards, profiles
from .tallies import OpTally, add_sum_ops, powered  # noqa: F401  perfbench traces formulas.powered

_CHUNK = 1024
_WINDOW = 8  # most chunks held in flight by the pool, whatever its thread count


EvalStats = namedtuple("EvalStats", "terms adds mults elapsed")
EvalStats.__doc__ = "Term count, real operation counts, and wall time of one evaluation."

# variant: "reduced" | "total"
# method: "formula" | "oracle" | "factorial-bridge" | "direct-L"
CountResult = namedtuple("CountResult", "k n variant method value stats")


def _reduced_sum(stream):
    """Exact sum of the reduced terms of `stream`'s profiles: (value, terms)."""
    total = terms = 0
    for terms, profile in enumerate(stream, 1):
        term = profiles.multinomial(profile) * column_counts.config_count(profile)
        total += term if profiles.sign(profile) > 0 else -term
    return total, terms


def _pooled_sum(stream, threads):
    """`_reduced_sum` mapped over _CHUNK-sized chunks of `stream` by a thread pool."""
    from concurrent.futures import ThreadPoolExecutor

    total = terms = 0
    window = deque()
    # threads beyond the window would have no chunk to sum
    with ThreadPoolExecutor(max_workers=min(threads, _WINDOW)) as pool:
        # chunks combine oldest-first, so the value never depends on the
        # thread count; the window bounds memory on long streams
        while (chunk := list(islice(stream, _CHUNK))) or window:
            if chunk:
                window.append(pool.submit(_reduced_sum, chunk))
            if not chunk or len(window) >= _WINDOW:
                sub, count = window.popleft().result()
                total += sub
                terms += count
    return total, terms


def _evaluate(
    method: str,
    k: int,
    n: int,
    *,
    bracket: str = "derived",
    threads: int = 1,
    max_terms: int | None = None,
) -> tuple[CountResult, OpTally]:
    """The one evaluator behind the formula, factorial-bridge and direct-L methods.

    Returns the result and the evaluation's own tally, whose counts are
    the result's `stats.adds` and `stats.mults`.
    """
    k, n = index(k), index(n)
    if k < 1:
        raise ValueError("need k >= 1")
    if n < 0:
        raise ValueError("need n >= 0")
    if threads < 1:
        raise ValueError(f"need threads >= 1, got {threads}")
    direct = method == "direct-L"
    if direct:
        m = k
        what = f"direct total count for k={k}, n={n}"
    else:
        m = k - 1
        what = f"reduced count for k={k}, n={n}"
    q = guards.check_sum(m, n, n, max_terms, what)
    # direct_sum raises ValueError for a bracket other than the two it knows
    if direct:
        kernel, cost = column_counts.direct_sum(q, bracket)
    else:
        kernel, *cost = column_counts._kernel(q)

    start = time.perf_counter()
    distinct = None
    if direct:
        value, terms, distinct = kernel(n)
    elif threads == 1:
        value, terms = _reduced_sum(profiles.compositions(n, m))
    else:
        value, terms = _pooled_sum(profiles.compositions(n, m), threads)
    elapsed = time.perf_counter() - start
    tally = OpTally()
    add_sum_ops(tally, n, q, cost, distinct)

    if method == "factorial-bridge":
        value *= factorial(n)
        tally.mults_inner += 1
    stats = EvalStats(terms, tally.adds, tally.mults_total, elapsed)
    variant = "reduced" if method == "formula" else "total"
    return CountResult(k, n, variant, method, value, stats), tally


def reduced_count(
    k: int,
    n: int,
    *,
    threads: int = 1,
    max_terms: int | None = None,
) -> CountResult:
    """Number of k-by-n Latin rectangles whose first row is 1..n in order.

    k = 1 gives 1 for every n (single empty-class profile), and the sum
    comes out 0 whenever 1 <= n < k because every term vanishes; both
    fall out of the formula rather than being special-cased.

    Why every term vanishes: G(s) counts the configurations in which
    each column j gives rows 2..k distinct floors, none of them j (the
    back row's floor there) and none a hall of the omitted set.  Let T
    be a nonempty set of rows 2..k, and S_T the sum over classes u ⊇ T
    of s_u: the floors closed to every row of T.  If S_T >= n - |T|,
    then G(s) = 0.  Either S_T = n, and every floor is closed to T; or
    some floor j lies outside those S_T floors, and in column j the rows
    of T may use at most n - S_T - 1 < |T| floors.  Either way, by
    Hall's theorem, some column (there is one, as n >= 1) has no picks.
    Take T = rows 2..k: S_T = s_{1..1} >= 0 >= n - (k - 1) when n < k.
    """
    return _evaluate("formula", k, n, threads=threads, max_terms=max_terms)[0]


def reduced_counts(
    k: int,
    n_max: int,
    *,
    n_min: int = 0,
    max_terms: int | None = None,
) -> list[tuple[int, int]]:
    """(R_k(n), terms) for every n in n_min..n_max, from one walk over the profiles of n_max.

    The values are `reduced_count`'s, and each row's terms is the
    number of profiles of n, C(n + 2^(k-1) - 1, 2^(k-1) - 1), as
    `reduced_count` reports it: the walk counts the profiles it visits
    whose classes other than v* hold at most n floors.  Its class v*,
    every tracked row's hall omitted, is in no block sum, so it takes
    the n_max - s floors a smaller n leaves out, and one walk serves
    every row (see `column_counts.range_sum`); `column_counts._finish`
    then makes the rows from n_min on.  The guard bounds the walk, the
    profiles of n_max.  No op counts are kept.
    """
    k, n_max, n_min = index(k), index(n_max), index(n_min)
    if k < 1:
        raise ValueError("need k >= 1")
    if not 0 <= n_min <= n_max:
        raise ValueError(f"need 0 <= n_min <= n_max, got {n_min}..{n_max}")
    what = f"reduced counts for k={k}, n={n_min}..{n_max}"
    q = guards.check_sum(k - 1, n_max, n_max, max_terms, what)
    acc, seen = column_counts.range_sum(q)(n_max)
    return column_counts._finish(acc, seen, k - 1, n_min)


def total_count(
    k: int,
    n: int,
    *,
    threads: int = 1,
    max_terms: int | None = None,
) -> CountResult:
    """n! times the reduced count: all k-by-n Latin rectangles.

    Its stats are the reduced count's plus the multiplication by n!,
    which is tallied as one inner multiplication.
    """
    return _evaluate("factorial-bridge", k, n, threads=threads, max_terms=max_terms)[0]


def total_count_direct(
    k: int,
    n: int,
    bracket: str = "derived",
    *,
    threads: int = 1,
    max_terms: int | None = None,
) -> CountResult:
    """All k-by-n Latin rectangles by include-exclude over every hall.

    The sum holds for every k; no step of its derivation uses the value
    of k.  Relax the rows: each cell holds a floor, distinct within its
    column.  A relaxed configuration is a Latin rectangle exactly when
    it leaves no (row, floor) hall of its k rows empty, since each row
    has n cells for n floors.  Inclusion-exclusion over the set H of
    halls forced empty gives L_k(n) = sum_H (-1)^|H| N(H).  Columns pick
    independently, so N(H) = G = g^n, where g counts the ways one
    column's k rows pick distinct floors outside H.  g depends only on
    H's profile c over the 2^k classes of all k rows, and is
    `column_counts.choice_count` at m = k.  Exactly multinomial(n; c)
    hall sets have profile c, and |H| = sum_v weight(v) c[v].  So
    L_k(n) = sum_c sign(c) multinomial(n; c) g(c)^n, which is this sum.

    When g vanishes: row r may pick the floors outside the classes that
    contain r.  Let T be a nonempty set of the k rows, and S_T the sum
    over classes u ⊇ T of c_u: the floors closed to every row of T, so
    the rows of T may pick among n - S_T floors.  By Hall's theorem the
    k rows have distinct picks exactly when n - S_T >= |T| for every T,
    so g(c) = 0 exactly when some T has S_T > n - |T|.  With T = all k
    rows, every term vanishes when 1 <= n < k.

    Each term is one per-column bracket to the n-th power times its
    signed multinomial; brackets may be negative along the way, which is
    fine for exact integers.  The sum is one call of
    `column_counts.direct_sum`, compiled once per k, which carries sign
    x multinomial along the walk, steps the bracket by its differences
    along classes 1 and 2, and collects like terms: the weights of
    the profiles that share a bracket value are summed, and each
    distinct value is raised to the n-th power once.  Its op counts are
    added once per sum.  It runs on one thread at any `threads`.
    `bracket` picks, for k = 2 only, between the partition-derived
    bracket (... - s00) and the literal variant (... - s11); the two
    sums agree everywhere they have been compared.
    """
    return _evaluate("direct-L", k, n, bracket=bracket, threads=threads, max_terms=max_terms)[0]


def derangements_classical(n: int) -> int:
    """Alternating factorial sum for fixed-point-free permutations, exactly."""
    if n < 0:
        raise ValueError("need n >= 0")
    fact = profiles.factorial_table(n)
    return sum((-1 if r & 1 else 1) * (fact[n] // fact[r]) for r in range(n + 1))


def derangements_ryser(n: int) -> int:
    """Ryser's derangement sum, with the 0^0 = 1 convention."""
    if n < 0:
        raise ValueError("need n >= 0")
    fact = profiles.factorial_table(n)
    total = 0
    for r in range(n + 1):
        binom = fact[n] // (fact[r] * fact[n - r])
        term = binom * (n - r) ** r * (n - r - 1) ** (n - r)
        total += -term if r & 1 else term
    return total
