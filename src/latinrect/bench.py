"""Empirical operation counts for the reduced-count formula.

`measure` evaluates one (k, n) and reports, from the tally the
evaluation returns:

* ``terms``             -- profiles summed over, exactly C(n+2^(k-1)-1, 2^(k-1)-1);
* ``adds``              -- every exact-integer addition the evaluation performs;
* ``mults_actual``      -- multiplications assembling each term's power
                           product, as performed (binary powering);
* ``mults_paper_model`` -- the same assembly costed naively, each power
                           g^s charged s - 1 multiplications, which makes
                           every term cost exactly n - 1 of them;
* ``mults_inner``       -- the per-term constant-cost multiplications
                           (choice-polynomial products, multinomial
                           quotients, coefficient scaling).

The two headline mult columns deliberately cover only the power-product
assembly: that is the term cost that grows with n, so its total is the
series whose log-log slope is the claimed exponent.  The inner
multiplications are constant per term once k is fixed; folding them into
the fitted series would depress the finite-range slope without changing
the asymptotics, so they are reported separately.  The same caveat
applies to ``adds``: per term they are constant only for fixed k.
Big-integer operations count 1 each regardless of operand size.

`sweep` runs a range of n single-threaded and fits ordinary least
squares to log(series total) against log(n) for each series;
`csv_text` and `json_lines_text` render a sweep as the text `bench`
prints.
"""

import json
import math
from collections import namedtuple

from . import formulas, guards

CSV_HEADER = "k,n,terms,adds,mults_actual,mults_paper_model,elapsed_ms"
FIT_SERIES = ("terms", "adds", "mults_actual", "mults_paper_model")


CostReport = namedtuple(
    "CostReport", "k n terms adds mults_actual mults_paper_model mults_inner elapsed"
)

# reports: one CostReport per n; exponents: per-series fitted exponent,
# None when a series has < 2 usable points
Sweep = namedtuple("Sweep", "reports exponents")


def measure(k: int, n: int, *, max_terms: int | None = None) -> CostReport:
    """Single-threaded evaluation of the reduced count, with its op breakdown."""
    result, tally = formulas._evaluate("formula", k, n, max_terms=max_terms)
    terms = result.stats.terms
    expected = guards.composition_count(n, 1 << (k - 1))
    if terms != expected:
        raise AssertionError(
            f"term count {terms} disagrees with prediction {expected} at k={k}, n={n}"
        )
    return CostReport(
        k=k,
        n=n,
        terms=terms,
        adds=tally.adds,
        mults_actual=tally.mults_assembly,
        mults_paper_model=tally.mults_assembly_naive,
        mults_inner=tally.mults_inner,
        elapsed=result.stats.elapsed,
    )


def fitted_exponents(reports) -> dict:
    """OLS slope of log(series) vs log(n), per series; None if degenerate."""
    import statistics  # only sweeps fit, so a plain count never loads it

    out = {}
    for name in FIT_SERIES:
        points = [(r.n, getattr(r, name)) for r in reports]
        points = [(n, v) for n, v in points if n > 0 and v > 0]
        if len({n for n, _ in points}) < 2:
            out[name] = None
            continue
        lx = [math.log(n) for n, _ in points]
        ly = [math.log(v) for _, v in points]
        out[name] = statistics.linear_regression(lx, ly).slope
    return out


def sweep(k: int, n_values, *, max_terms: int | None = None) -> Sweep:
    """One CostReport per n (single-threaded for stable tallies) plus fits."""
    reports = tuple(measure(k, n, max_terms=max_terms) for n in n_values)
    return Sweep(reports=reports, exponents=fitted_exponents(reports))


def csv_text(sw: Sweep) -> str:
    """CSV rows per the fixed header, fit results as '#' footer metadata."""
    lines = [CSV_HEADER]
    for r in sw.reports:
        lines.append(
            f"{r.k},{r.n},{r.terms},{r.adds},{r.mults_actual},"
            f"{r.mults_paper_model},{r.elapsed * 1000.0:.3f}"
        )
    for name in FIT_SERIES:
        value = sw.exponents.get(name)
        rendered = "absent" if value is None else f"{value:.4f}"
        lines.append(f"# fitted_exponent_{name}={rendered}")
    lines.append(
        "# note=mult columns cover power-product assembly only; "
        "constant-per-term inner multiplications are reported as mults_inner "
        "in JSON output"
    )
    return "\n".join(lines) + "\n"


def json_lines_text(sw: Sweep) -> str:
    """One JSON object per report, then a summary object with the fits."""
    records = [
        {
            "k": r.k,
            "n": r.n,
            "terms": str(r.terms),
            "adds": str(r.adds),
            "mults_actual": str(r.mults_actual),
            "mults_paper_model": str(r.mults_paper_model),
            "mults_inner": str(r.mults_inner),
            "elapsed_ms": r.elapsed * 1000.0,
        }
        for r in sw.reports
    ]
    exps = {
        name: (None if sw.exponents.get(name) is None else round(sw.exponents[name], 4))
        for name in FIT_SERIES
    }
    records.append({"fitted_exponents": exps})
    return "".join(json.dumps(rec, separators=(",", ":")) + "\n" for rec in records)
