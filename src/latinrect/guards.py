"""Resource ceilings shared by the evaluators.

Term counts of the counting formulas grow like n^(2^(k-1) - 1), so every
evaluator predicts its term count up front and refuses with a clear
diagnostic when the prediction exceeds the configured ceiling.  A
prediction too large to matter is cut short and reported as a bound.  The
ceiling can be overridden per call or through the LATINRECT_MAX_TERMS
environment variable.
"""

import os
from math import comb

DEFAULT_MAX_TERMS = 10**8
MAX_TERMS_ENV = "LATINRECT_MAX_TERMS"
# larger term predictions are refused as "more than" a bound, not exactly
PRINTABLE_TERMS = 10**18


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
