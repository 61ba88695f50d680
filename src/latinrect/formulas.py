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
(`column_counts.direct_sum`): it carries the signed multinomial along
the colex walk and adds up block sums, bracket and power per profile.
Neither sum counts operations as it goes: `tallies.add_sum_ops` adds
each sum's op counts once, from its compiled kernel's cost per call.

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
    tally: OpTally,
) -> CountResult:
    """The one evaluator behind the formula, factorial-bridge and direct-L methods.

    The caller owns `tally`, to which the run's operation counts are added.
    """
    if k < 1:
        raise ValueError("need k >= 1")
    if n < 0:
        raise ValueError("need n >= 0")
    if threads < 1:
        raise ValueError(f"need threads >= 1, got {threads}")
    direct = method == "direct-L"
    if direct:
        if bracket not in ("derived", "literal"):
            raise ValueError(f"unknown bracket variant {bracket!r}")
        if bracket == "literal" and k != 2:
            raise ValueError("the literal bracket variant is defined for k = 2 only")
        m = k
        what = f"direct total count for k={k}, n={n}"
    else:
        m = k - 1
        what = f"reduced count for k={k}, n={n}"
    # the guards come first, so a refused run builds no 2^m and compiles no kernel
    guards.check_expansion(m, what)
    q = 1 << m
    guards.check_terms(n, n, q, max_terms, what)
    kernel, adds, mults = column_counts.direct_sum(q, bracket) if direct else column_counts._kernel(q)

    start = time.perf_counter()
    stream = profiles.compositions(n, m)
    if direct:
        value, terms = kernel(stream, n)
    elif threads == 1:
        value, terms = _reduced_sum(stream)
    else:
        value, terms = _pooled_sum(stream, threads)
    elapsed = time.perf_counter() - start
    add_sum_ops(tally, n, q, adds, mults, direct)

    bridged = method == "factorial-bridge"
    if bridged:
        value *= factorial(n)
    stats = EvalStats(terms, tally.adds, tally.mults_total + bridged, elapsed)
    variant = "reduced" if method == "formula" else "total"
    return CountResult(k, n, variant, method, value, stats)


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
    return _evaluate("formula", k, n, threads=threads, max_terms=max_terms, tally=OpTally())


def total_count(
    k: int,
    n: int,
    *,
    threads: int = 1,
    max_terms: int | None = None,
) -> CountResult:
    """n! times the reduced count: all k-by-n Latin rectangles."""
    return _evaluate(
        "factorial-bridge", k, n, threads=threads, max_terms=max_terms, tally=OpTally()
    )


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

    Each term raises one per-column bracket to the n-th power; brackets
    may be negative along the way, which is fine for exact integers.
    The sum is one call of `column_counts.direct_sum`, compiled once per
    k, which carries sign x multinomial along the walk, and its op
    counts are added once per sum.  It runs on one thread at any
    `threads`.
    `bracket` picks, for k = 2 only, between the partition-derived
    bracket (... - s00) and the literal variant (... - s11); the two
    sums agree everywhere they have been compared.
    """
    return _evaluate(
        "direct-L", k, n, bracket=bracket, threads=threads, max_terms=max_terms, tally=OpTally()
    )


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
