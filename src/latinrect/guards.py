"""Resource ceilings shared by the evaluators.

Term counts of the counting formulas grow like n^(2^(k-1) - 1), so every
evaluator predicts its term count up front and refuses with a clear
diagnostic when the prediction exceeds the configured ceiling.  The
ceiling can be overridden per call or through the LATINRECT_MAX_TERMS
environment variable.
"""

import os

DEFAULT_MAX_TERMS = 10**8
MAX_TERMS_ENV = "LATINRECT_MAX_TERMS"


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
    """Number of ways to split n over `classes` ordered nonnegative parts.

    Equals C(n + classes - 1, classes - 1) = C(n + classes - 1, n); the
    running product takes min(n, classes - 1) steps, so a guard on a
    huge class count (large k) answers at once.  It is exact because
    each prefix is itself a binomial coefficient.
    """
    if n < 0 or classes < 1:
        raise ValueError("need n >= 0 and classes >= 1")
    top = n + classes - 1
    c = 1
    for i in range(1, min(n, classes - 1) + 1):
        c = c * (top - i + 1) // i
    return c


def ensure_within(predicted: int, limit: int, what: str) -> None:
    if predicted > limit:
        raise ResourceGuardError(
            f"{what} would evaluate {predicted} terms, above the ceiling of {limit}; "
            f"raise --max-terms or {MAX_TERMS_ENV} to proceed"
        )
