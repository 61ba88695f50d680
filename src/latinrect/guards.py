"""Resource ceilings shared by the evaluators.

Two sizes are checked before any work starts.  The column polynomial g
over m rows expands to Bell(m) terms, and the package builds that
expansion as code (the compiled g and direct-L kernels) and as the
printed formula.  `check_expansion` allows m <= 7 rows and nothing
more: CPython fails to compile Bell(8) = 4,140 terms, and the same rule
keeps the 2^m entries of a profile small.  That is m = k - 1 for the
reduced sum and the printed formula, and m = k for direct-L.

Term counts of the counting formulas grow like n^(2^(k-1) - 1), so every
evaluator predicts its term count up front and refuses with a clear
diagnostic when the prediction exceeds the ceiling: the caller's
`max_terms` (`--max-terms`), else DEFAULT_MAX_TERMS.  A range of n, as
`table` and `bench` run it, is bounded as a whole.  Every sum takes
both checks from `check_sum`, the expansion first.

Either size, when too large to matter, is cut short and reported as
"more than" a bound.
"""

from math import comb

DEFAULT_MAX_TERMS = 10**8
# larger term predictions are refused as "more than" a bound, not exactly
PRINTABLE_TERMS = 10**18
# rows of the largest column-polynomial expansion built; Bell(8) fails to compile
MAX_EXPANSION_ROWS = 7


class ResourceGuardError(RuntimeError):
    """Raised when a requested computation exceeds a configured ceiling."""


def composition_count(n: int, classes: int) -> int:
    """Number of ways to split n over `classes` ordered nonnegative parts."""
    if n < 0 or classes < 1:
        raise ValueError("need n >= 0 and classes >= 1")
    return comb(n + classes - 1, n)


def check_terms(lo: int, hi: int, classes: int, max_terms: int | None, what: str) -> None:
    """Refuse the sums over the compositions of n = lo..hi into `classes` parts past the ceiling.

    The sums count together; one sum is lo = hi.  Sum n has
    C(n + classes - 1, classes - 1) terms, most at n = hi.  The running
    prefixes C(hi + classes - 1, i) of that count increase with i, since
    i <= min(hi, classes - 1) never passes half the top.  So the first
    prefix past both the ceiling and PRINTABLE_TERMS refuses at once, as
    "more than" their maximum; a huge k or n costs a few steps, and the
    message stays short enough to print.  Past the walk the sums total
    C(hi + classes, classes) - C(lo - 1 + classes, classes), which is
    cheap: hi - lo + 1 when classes = 1, else hi < sum hi <= the bound.
    """
    if max_terms is not None and max_terms <= 0:
        raise ValueError("term ceiling must be positive")
    limit = DEFAULT_MAX_TERMS if max_terms is None else max_terms
    bound = max(limit, PRINTABLE_TERMS)
    top = hi + classes - 1
    c = 1
    for i in range(1, min(hi, classes - 1) + 1):
        c = c * (top - i + 1) // i
        if c > bound:
            break
    else:
        c = comb(top + 1, classes) - comb(lo + classes - 1, classes)
    if c > limit:
        predicted = f"more than {bound}" if c > bound else c
        raise ResourceGuardError(
            f"{what} would evaluate {predicted} terms, above the ceiling of {limit}; "
            "raise --max-terms to proceed"
        )


def check_sum(m: int, lo: int, hi: int, max_terms: int | None, what: str) -> int:
    """Refuse the sums over profiles of 2^m classes for n = lo..hi past either ceiling; return 2^m.

    The expansion is checked first, so a refused m never builds 2^m,
    and then the terms of the sums together (`check_terms`).
    """
    check_expansion(m, what)
    q = 1 << m
    check_terms(lo, hi, q, max_terms, what)
    return q


def check_expansion(m: int, what: str) -> None:
    """Refuse to build the column polynomial over more than MAX_EXPANSION_ROWS rows.

    The refusal names its Bell(m) terms.  Bell numbers increase, and
    B(25) is the first past PRINTABLE_TERMS, so a larger m is reported
    as "more than" that bound after a few steps.
    """
    if m <= MAX_EXPANSION_ROWS:
        return
    # only a refusal needs it, and guards stays a leaf the oracle may import
    from .partitions import bell_number

    for i in range(m + 1):
        size = bell_number(i)
        if size > PRINTABLE_TERMS:
            size = f"more than {PRINTABLE_TERMS}"
            break
    raise ResourceGuardError(
        f"{what} needs the column polynomial over {m} rows, which would have {size} "
        f"terms; at most {MAX_EXPANSION_ROWS} rows compile"
    )
