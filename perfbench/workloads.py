"""The benchmark's workloads: CLI requests made from a seed, and their checks.

Each workload is a list of argv lists for `latinrect.cli.main`.  The
seed shuffles the order and, for `bigint`, picks each n from a window
of `WINDOW` consecutive values; the sizes stay otherwise fixed, so one
pass costs about the same on every seed.

Why these workloads:

* `rows`    -- k = 4 and 5 at small n: most of the time goes to the
               per-column choice count g, called once per nonzero class
               per term.  A g memo, the orbit method or dropping the
               thread pool should show here.
* `bigint`  -- k = 2 at n in the thousands: values have thousands of
               digits, so the multinomial, the powering and the assembly
               product dominate while g stays trivial.  Each pass keeps
               half its requests past the interpreter's 4300-digit
               int-to-str limit; a CLI that cannot print such values
               exits 1 on them, and they count as failed.
* `direct`  -- direct-L at k = 3: one unshifted g per term over 8
               classes, never the same argument twice, so an
               optimisation that relies on reuse gains nothing here.
* `verify`  -- the default selftest plus brute-force counts: the only
               workload that runs the oracle and selftest layers.
"""

import hashlib
import json
import os
import random
import re
from math import comb

WINDOW = 16

# (k, n values, extra argv) per group of requests
_ROWS = [(4, n, []) for n in (8, 9, 10, 11)] + [(5, 5, [])]
_DIRECT = [(3, n, ["--method", "direct-L"]) for n in (10, 11, 12, 13, 14)]
_VERIFY = [(4, 6, ["--method", "oracle"]), (4, 7, ["--method", "oracle"]),
           (3, 7, ["--method", "oracle"])]
# bigint window starts: R_2(n) passes the 4300-digit limit below n = 1558,
# L_2(n) below n = 859
_BIGINT_REDUCED = (1000, 1400, 2000, 3000)
_BIGINT_TOTAL = (600, 800, 1000, 1500)

NAMES = ("rows", "bigint", "direct", "verify")
SELFTEST = ["selftest"]


def _count(k, n, extra):
    return ["count", "--k", str(k), "--n", str(n), *extra, "--format", "json"]


def _groups(workload):
    """One list of candidate argv lists per request of a pass."""
    if workload == "rows":
        return [[_count(k, n, extra)] for k, n, extra in _ROWS]
    if workload == "direct":
        return [[_count(k, n, extra)] for k, n, extra in _DIRECT]
    if workload == "verify":
        return [[_count(k, n, extra)] for k, n, extra in _VERIFY] + [[SELFTEST]]
    if workload == "bigint":
        return [[_count(2, n, extra) for n in range(lo, lo + WINDOW)]
                for starts, extra in ((_BIGINT_REDUCED, []), (_BIGINT_TOTAL, ["--total"]))
                for lo in starts]
    raise ValueError(f"unknown workload {workload!r}; choose from {', '.join(NAMES)}")


def requests(workload, seed):
    """The argv lists of one pass, in order; the same seed gives the same list."""
    rng = random.Random(f"{workload}:{seed}")
    reqs = [rng.choice(group) for group in _groups(workload)]
    rng.shuffle(reqs)
    return reqs


def all_requests(workload):
    """Every argv list some seed can put into a pass of the workload."""
    return [argv for group in _groups(workload) for argv in group]


def parse(argv):
    """(k, n, variant, method) of a count request; None for selftest."""
    if argv[0] != "count":
        return None
    opts = dict(zip(argv[1::2], argv[2::2]))
    method = opts.get("--method", "formula")
    if method == "direct-L" or "--total" in argv:
        variant = "total"
    else:
        variant = "reduced"
    if method == "formula" and variant == "total":
        method = "factorial-bridge"
    return int(opts["--k"]), int(opts["--n"]), variant, method


def profiles_covered(argv):
    """Profiles the paper's sum covers for this request's (k, n).

    C(n + 2^r - 1, 2^r - 1) with r = k for direct-L and r = k - 1
    otherwise; the oracle is credited with the size of the sum it
    replaces, selftest with nothing.  An evaluator that visits fewer
    terms is credited with the full count.
    """
    req = parse(argv)
    if req is None:
        return 0
    k, n, _, method = req
    q = 1 << (k if method == "direct-L" else k - 1)
    return comb(n + q - 1, q - 1)


def golden_key(argv):
    k, n, variant, _ = parse(argv)
    return f"{'R' if variant == 'reduced' else 'L'}_{k}({n})"


def digest(text):
    return hashlib.sha256(text.encode()).hexdigest()


def encode_value(decimal):
    """Golden entry for a decimal string: literal when short, digest when long."""
    if len(decimal) <= 60:
        return {"value": decimal}
    return {"sha256": digest(decimal), "digits": len(decimal)}


GOLDEN = os.path.join(os.path.dirname(os.path.abspath(__file__)), "golden.json")


def load_golden():
    with open(GOLDEN, encoding="utf-8") as fh:
        return json.load(fh)


_SUITE = re.compile(r"suite \S+: \d+ checks, (\d+) failures")


def check_selftest(stdout):
    """None if every suite of a selftest report passed, else the reason.

    The suites themselves are not pinned, so a selftest that gains or
    loses a suite still passes as long as each reports 0 failures.
    """
    lines = stdout.splitlines()
    suites = [_SUITE.fullmatch(line) for line in lines if line.startswith("suite ")]
    if not suites:
        return "selftest reports no suite"
    if not all(m and m.group(1) == "0" for m in suites):
        return "a selftest suite reports failures"
    if lines[-1] != "selftest: OK":
        return "selftest does not end with 'selftest: OK'"
    return None


def check(argv, code, stdout, golden):
    """None if the request succeeded with the golden output, else the reason."""
    if code != 0:
        return f"exit {code}"
    if argv == SELFTEST:
        return check_selftest(stdout)
    key = golden_key(argv)
    want = golden.get(key)
    if want is None:
        return f"no golden value for {key}"
    try:
        got = json.loads(stdout)
    except ValueError:
        return "output is not one JSON line"
    k, n, variant, method = parse(argv)
    if (got.get("k"), got.get("n"), got.get("variant"), got.get("method")) != (k, n, variant, method):
        return "output echoes the wrong request"
    if method != "oracle" and got.get("terms") != str(profiles_covered(argv)):
        return f"terms {got.get('terms')} != predicted {profiles_covered(argv)}"
    value = got.get("value", "")
    if encode_value(value) != want:
        return f"{key} differs from its golden value"
    return None


def tables(reqs):
    """The lazy tables the requests use: the set-up a user pays per CLI call.

    Returned as {"factorial": [n, ...], "expansion": [m, ...]} for
    `probe.build`.
    """
    fact, expansion = set(), set()
    for argv in reqs:
        req = parse(argv)
        if req is None:
            # the default selftest sums up to n = 12 and k = 5 (m = 4)
            fact.update(range(13))
            expansion.update(range(5))
            continue
        k, n, _, method = req
        if method == "oracle":
            continue
        fact.add(n)
        expansion.add(k if method == "direct-L" else k - 1)
    return {"factorial": sorted(fact), "expansion": sorted(expansion)}
