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
diagnostic when the prediction exceeds the configured ceiling.  The
ceiling can be overridden per call or through the LATINRECT_MAX_TERMS
environment variable.

Either size, when too large to matter, is cut short and reported as
"more than" a bound.
"""

import os
from math import comb

DEFAULT_MAX_TERMS = 10**8
MAX_TERMS_ENV = "LATINRECT_MAX_TERMS"
# larger term predictions are refused as "more than" a bound, not exactly
PRINTABLE_TERMS = 10**18
# rows of the largest column-polynomial expansion built; Bell(8) fails to compile
MAX_EXPANSION_ROWS = 7


class ResourceGuardError(RuntimeError):
    """Raised when a requested computation exceeds a configured ceiling."""


def max_terms_limit(override: int | None = None) -> int:
    """Resolve the term ceiling: explicit override, else environment, else default."""
    if override is not None:
        if override <= 0:
            raise ValueError("term ceiling must be positive")
        return override
    raw = os.environ.get(MAX_TERMS_ENV)
    if raw is not None:
        try:
            value = int(raw)
        except ValueError:
            raise ValueError(f"{MAX_TERMS_ENV} must be an integer, got {raw!r}") from None
        if value <= 0:
            raise ValueError(f"{MAX_TERMS_ENV} must be positive, got {value}")
        return value
    return DEFAULT_MAX_TERMS


def composition_count(n: int, classes: int) -> int:
    """Number of ways to split n over `classes` ordered nonnegative parts."""
    if n < 0 or classes < 1:
        raise ValueError("need n >= 0 and classes >= 1")
    return comb(n + classes - 1, n)


def check_terms(n: int, classes: int, max_terms: int | None, what: str) -> None:
    """Refuse a sum over the compositions of n into `classes` parts past the ceiling.

    The running prefixes C(n + classes - 1, i) of the count increase with
    i, since i <= min(n, classes - 1) never passes half the top.  So the
    first prefix past both the ceiling and PRINTABLE_TERMS refuses the
    sum at once, as "more than" their maximum; a huge k or n costs a few
    steps, and the message stays short enough to print.
    """
    limit = max_terms_limit(max_terms)
    bound = max(limit, PRINTABLE_TERMS)
    top = n + classes - 1
    c = 1
    for i in range(1, min(n, classes - 1) + 1):
        c = c * (top - i + 1) // i
        if c > bound:
            break
    if c > limit:
        predicted = f"more than {bound}" if c > bound else c
        raise ResourceGuardError(
            f"{what} would evaluate {predicted} terms, above the ceiling of {limit}; "
            f"raise --max-terms or {MAX_TERMS_ENV} to proceed"
        )


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
