"""Golden values for every request the workloads can make.

Each value comes from a method that shares no code with the profile
sum the CLI evaluates:

* the brute-force oracle for n <= 7,
* `derangements_classical` for k = 2, at the first n of each window,
  then the recurrence D(n) = n D(n-1) + (-1)^n along the window,
* `evaluate_expression` (the printed formula's own AST) for k >= 3,

with L = n! * R for total counts.  Decimal strings are made through
`decimal.Decimal`, which the interpreter's int-to-str digit limit does
not cover, so the limit is left as it is.  `selftest` has no entry: its
report is checked for passing suites (see `workloads.check_selftest`).

Usage:
    python3 perfbench/golden.py --write   # regenerate golden.json
    python3 perfbench/golden.py --check   # re-derive and compare
"""

import argparse
import decimal
import json
import os
import sys
from math import factorial

import workloads

HERE = os.path.dirname(os.path.abspath(__file__))
SRC = os.path.join(os.path.dirname(HERE), "src")


def decimal_string(value):
    return str(decimal.Decimal(value))


def derive(package, key_argv, derangements):
    """The golden entry of one request, by an independent method.

    `derangements` maps n to D(n) = R_2(n) for values already derived.
    """
    k, n, variant, _ = workloads.parse(key_argv)
    if n <= 7:
        reduced = package.oracle.brute_force_count(k, n, max_k=max(k, 4))
    elif k == 2:
        if n not in derangements:
            previous = derangements.get(n - 1)
            if previous is None:
                derangements[n] = package.formulas.derangements_classical(n)
            else:
                derangements[n] = n * previous + (-1) ** n
        reduced = derangements[n]
    else:
        expr = package.expressions.generate_expression(k)
        reduced = package.expressions.evaluate_expression(expr, n)
    value = reduced if variant == "reduced" else factorial(n) * reduced
    return workloads.encode_value(decimal_string(value))


def derive_all(package):
    out = {}
    derangements = {}
    for name in workloads.NAMES:
        for argv in workloads.all_requests(name):
            if argv == workloads.SELFTEST:
                continue
            key = workloads.golden_key(argv)
            if key not in out:
                out[key] = derive(package, argv, derangements)
    return dict(sorted(out.items()))


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    mode = parser.add_mutually_exclusive_group(required=True)
    mode.add_argument("--write", action="store_true")
    mode.add_argument("--check", action="store_true")
    args = parser.parse_args(argv)
    sys.path.insert(0, SRC)
    import latinrect

    derived = derive_all(latinrect)
    if args.write:
        with open(workloads.GOLDEN, "w", encoding="utf-8") as fh:
            json.dump(derived, fh, indent=1)
            fh.write("\n")
        print(f"wrote {len(derived)} golden values to {workloads.GOLDEN}")
        return 0
    pinned = workloads.load_golden()
    bad = sorted(k for k in derived.keys() | pinned.keys() if derived.get(k) != pinned.get(k))
    for key in bad:
        print(f"mismatch: {key}")
    print(f"{len(derived) - len(bad)}/{len(derived)} golden values agree")
    return 1 if bad else 0


if __name__ == "__main__":
    raise SystemExit(main())
