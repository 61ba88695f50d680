"""Command-line front end.

Commands: count, expr, table, bench, oracle, selftest.  Machine formats
serialize every count as a decimal string, since values overflow 64-bit
integers almost immediately.  Exit codes: 0 success, 1 usage error,
2 resource guard refusal, 3 self-test mismatch.
"""

import argparse
import io
import json
import sys
import time
from math import factorial

from . import bench, expressions, formulas, guards, oracle, selftest


class UsageError(ValueError):
    """A bad command line; `prog` names the parser that rejected it."""

    def __init__(self, prog: str, message: str):
        super().__init__(message)
        self.prog = prog


class _Parser(argparse.ArgumentParser):
    # argparse exits 2 on bad arguments; the contract reserves 2 for
    # resource guards, so hand usage problems to main, which exits 1
    def error(self, message):
        raise UsageError(self.prog, message)


# argparse type functions raise ArgumentTypeError, so the parser reports
# them as "<prog>: error: argument --n: ..." like every other usage error
def _parse_range(text: str) -> tuple[int, int]:
    if ".." in text:
        lo, _, hi = text.partition("..")
        try:
            a, b = int(lo), int(hi)
        except ValueError:
            raise argparse.ArgumentTypeError(f"bad range {text!r}; expected a..b") from None
        if a > b:
            raise argparse.ArgumentTypeError(f"empty range {text!r}")
        return a, b
    try:
        v = int(text)
    except ValueError:
        raise argparse.ArgumentTypeError(
            f"bad value {text!r}; expected an integer or a..b"
        ) from None
    return v, v


def _parse_single(text: str) -> int:
    lo, hi = _parse_range(text)
    if lo != hi:
        raise argparse.ArgumentTypeError(
            f"this command takes a single n, not a range ({text!r})"
        )
    return lo


def _parse_positive(text: str) -> int:
    # --threads, --max-terms, --max-k, --max-n: checked at parse time, so
    # every method rejects the same values
    try:
        value = int(text)
        if value >= 1:
            return value
    except ValueError:
        pass
    raise argparse.ArgumentTypeError(f"expected a positive integer, got {text!r}")


def _parse_halls(text: str) -> list[tuple[int, int]]:
    halls = []
    for piece in filter(None, map(str.strip, text.split(","))):
        row, _, floor = piece.partition(":")  # no ":" leaves floor empty
        try:
            halls.append((int(row), int(floor)))
        except ValueError:
            raise argparse.ArgumentTypeError(f"bad hall {piece!r}; expected row:floor") from None
    return halls


def _emit(text: str, out_path):
    if out_path:
        try:
            with open(out_path, "w", encoding="utf-8") as fh:
                fh.write(text)
        except OSError as exc:
            raise ValueError(f"cannot write {out_path}: {exc.strerror}") from None
    else:
        sys.stdout.write(text)


def _json_line(payload) -> str:
    return json.dumps(payload, separators=(",", ":")) + "\n"


def _count_payload(result: formulas.CountResult) -> dict:
    return {
        "k": result.k,
        "n": result.n,
        "variant": result.variant,
        "method": result.method,
        "value": str(result.value),
        "terms": str(result.stats.terms),
        "adds": str(result.stats.adds),
        "mults": str(result.stats.mults),
        "elapsed_ms": round(result.stats.elapsed * 1000.0, 3),
    }


def _render_count(result: formulas.CountResult, fmt: str) -> str:
    if fmt == "json":
        return _json_line(_count_payload(result))
    if fmt == "csv":
        p = _count_payload(result)
        return ",".join(p) + "\n" + ",".join(map(str, p.values())) + "\n"
    label = "R" if result.variant == "reduced" else "L"
    return (
        f"{label}_{result.k}({result.n}) = {result.value}\n"
        f"method={result.method} terms={result.stats.terms} adds={result.stats.adds} "
        f"mults={result.stats.mults} elapsed_ms={result.stats.elapsed * 1000.0:.3f}\n"
    )


def _default_threads() -> int:
    # the sum is CPU-bound pure Python, which the interpreter lock runs one
    # thread at a time, so a pool gains nothing and starts only on request
    return 1


def _check_range(args) -> None:
    # a formula table's or bench's rows against --max-terms as a whole;
    # one n, a bad k or n and a huge k are refused as the first row would be
    k, (lo, hi) = args.k, args.n
    if k >= 1 and 0 <= lo < hi:
        guards.check_expansion(k - 1, f"reduced count for k={k}, n={lo}")
        what = f"reduced count for k={k}, n={lo}..{hi}"
        guards.check_terms(lo, hi, 1 << (k - 1), args.max_terms, what)


def _cmd_count(args):
    method = args.method
    total_only = method in ("direct-L", "factorial-bridge")
    if args.reduced and total_only:
        raise ValueError(f"--method {method} computes totals; drop --reduced")
    if args.bracket == "literal" and method != "direct-L":
        raise ValueError(f"--bracket literal applies to --method direct-L only, not {method}")
    variant = "total" if (args.total or total_only) else "reduced"
    if method == "formula" and variant == "total":
        method = "factorial-bridge"
    if method == "formula":
        result = formulas.reduced_count(
            args.k, args.n, threads=args.threads, max_terms=args.max_terms
        )
    elif method == "factorial-bridge":
        result = formulas.total_count(
            args.k, args.n, threads=args.threads, max_terms=args.max_terms
        )
    elif method == "direct-L":
        result = formulas.total_count_direct(
            args.k, args.n, args.bracket, threads=args.threads, max_terms=args.max_terms
        )
    else:  # oracle
        start = time.perf_counter()
        value = oracle.brute_force_count(args.k, args.n, variant)
        elapsed = time.perf_counter() - start
        result = formulas.CountResult(
            args.k, args.n, variant, "oracle", value, formulas.EvalStats(0, 0, 0, elapsed)
        )
    return _render_count(result, args.format), None


def _cmd_expr(args):
    expr = expressions.generate_expression(args.k)
    return expressions.render(expr, args.format) + "\n", None


def _cmd_table(args):
    if args.method == "formula":
        _check_range(args)
    lo, hi = args.n
    rows = []
    for n in range(lo, hi + 1):
        if args.method == "oracle":
            reduced = oracle.brute_force_count(args.k, n)
        else:
            reduced = formulas.reduced_count(
                args.k, n, threads=args.threads, max_terms=args.max_terms
            ).value
        rows.append((n, reduced, factorial(n) * reduced))
    if args.format == "json":
        payload = {
            "k": args.k,
            "method": args.method,
            "rows": [
                {"n": n, "reduced": str(r), "total": str(t)} for n, r, t in rows
            ],
        }
        return _json_line(payload), None
    if args.format == "csv":
        lines = ["k,n,reduced,total"]
        lines += [f"{args.k},{n},{r},{t}" for n, r, t in rows]
    else:
        width_r = max(len(str(r)) for _, r, _ in rows)
        lines = [f"{'n':>4}  {'R_' + str(args.k) + '(n)':<{width_r + 2}}  L_{args.k}(n)"]
        lines += [f"{n:>4}  {r!s:<{width_r + 2}}  {t}" for n, r, t in rows]
    return "\n".join(lines) + "\n", None


def _cmd_bench(args):
    if args.csv and args.format == "json":
        raise ValueError("--csv writes CSV; drop --format json or use --out")
    _check_range(args)
    lo, hi = args.n
    sw = bench.sweep(args.k, range(lo, hi + 1), max_terms=args.max_terms)
    buf = io.StringIO()
    if args.format == "json":
        bench.write_json_lines(buf, sw)
    else:
        bench.write_csv(buf, sw)
    return buf.getvalue(), None


def _cmd_oracle(args):
    variant = "total" if args.total else "reduced"
    guard = {}
    if args.max_k is not None:
        guard["max_k"] = args.max_k
    if args.max_n is not None:
        guard["max_n"] = args.max_n
    if args.halls is not None:
        if args.total:
            raise ValueError("--halls counts reduced configurations; drop --total")
        halls = args.halls
        value = oracle.lonely_hall_count(args.k, args.n, halls, **guard)
        profile = oracle.profile_of(halls, args.k, args.n)
        if args.format == "json":
            payload = {
                "k": args.k,
                "n": args.n,
                "halls": sorted([list(h) for h in set(map(tuple, halls))]),
                "profile": list(profile),
                "value": str(value),
            }
            return _json_line(payload), None
        text = f"configurations omitting {sorted(set(halls))}: {value}\nprofile={profile}\n"
        return text, None
    value = oracle.brute_force_count(args.k, args.n, variant, **guard)
    if args.format == "json":
        payload = {
            "k": args.k,
            "n": args.n,
            "variant": variant,
            "method": "oracle",
            "value": str(value),
        }
        return _json_line(payload), None
    label = "R" if variant == "reduced" else "L"
    return f"{label}_{args.k}({args.n}) = {value}  (brute force)\n", None


def _cmd_selftest(args):
    report = selftest.run_selftest(max_k=args.k, max_n=args.n)
    if args.format == "json":
        payload = {
            "suites": [
                {
                    "name": s.name,
                    "checks": s.checks,
                    "failures": s.failures,
                    "counterexample": s.counterexample,
                    "elapsed_ms": round(s.elapsed * 1000.0, 3),
                }
                for s in report.suites
            ],
            "notes": list(report.notes),
            "ok": report.ok,
        }
        text = _json_line(payload)
    else:
        lines = []
        for s in report.suites:
            lines.append(f"suite {s.name}: {s.checks} checks, {s.failures} failures")
        for note in report.notes:
            lines.append(f"note: {note}")
        lines.append("selftest: OK" if report.ok else "selftest: FAILED")
        text = "\n".join(lines) + "\n"
    return text, None if report.ok else f"counterexample: {report.first_counterexample()}"


def build_parser() -> _Parser:
    parser = _Parser(prog="latinrect", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)

    def add_common(p, formats, default_fmt):
        p.add_argument("--format", choices=formats, default=default_fmt)
        p.add_argument("--out", metavar="PATH", default=None)

    p_count = sub.add_parser("count", help="count k-by-n Latin rectangles")
    p_count.add_argument("--k", type=int, required=True)
    p_count.add_argument("--n", type=_parse_single, required=True)
    group = p_count.add_mutually_exclusive_group()
    group.add_argument("--reduced", action="store_true", help="count reduced rectangles (default)")
    group.add_argument("--total", action="store_true")
    p_count.add_argument(
        "--method",
        choices=["formula", "oracle", "factorial-bridge", "direct-L"],
        default="formula",
    )
    p_count.add_argument("--bracket", choices=["derived", "literal"], default="derived")
    p_count.add_argument("--max-terms", type=_parse_positive, default=None)
    p_count.add_argument("--threads", type=_parse_positive, default=_default_threads())
    add_common(p_count, ["human", "json", "csv"], "human")
    p_count.set_defaults(fn=_cmd_count)

    p_expr = sub.add_parser("expr", help="print the symbolic formula for a given k")
    p_expr.add_argument("--k", type=int, required=True)
    p_expr.add_argument("--format", choices=["text", "latex"], default="text")
    p_expr.add_argument("--out", metavar="PATH", default=None)
    p_expr.set_defaults(fn=_cmd_expr)

    p_table = sub.add_parser("table", help="tabulate counts over a range of n")
    p_table.add_argument("--k", type=int, required=True)
    p_table.add_argument("--n", type=_parse_range, required=True, metavar="N|A..B")
    p_table.add_argument("--method", choices=["formula", "oracle"], default="formula")
    p_table.add_argument("--max-terms", type=_parse_positive, default=None)
    p_table.add_argument("--threads", type=_parse_positive, default=_default_threads())
    add_common(p_table, ["human", "json", "csv"], "human")
    p_table.set_defaults(fn=_cmd_table)

    p_bench = sub.add_parser("bench", help="operation-count sweep (single-threaded)")
    p_bench.add_argument("--k", type=int, required=True)
    p_bench.add_argument("--n", type=_parse_range, required=True, metavar="N|A..B")
    p_bench.add_argument("--max-terms", type=_parse_positive, default=None)
    p_bench.add_argument("--format", choices=["csv", "json"], default="csv")
    target = p_bench.add_mutually_exclusive_group()
    target.add_argument("--out", metavar="PATH", default=None)
    target.add_argument("--csv", metavar="PATH", default=None, help="write CSV to PATH")
    p_bench.set_defaults(fn=_cmd_bench)

    p_oracle = sub.add_parser("oracle", help="brute-force counts and hall-set probes")
    p_oracle.add_argument("--k", type=int, required=True)
    p_oracle.add_argument("--n", type=_parse_single, required=True)
    group = p_oracle.add_mutually_exclusive_group()
    group.add_argument("--reduced", action="store_true", help="count reduced rectangles (default)")
    group.add_argument("--total", action="store_true")
    p_oracle.add_argument(
        "--halls",
        type=_parse_halls,
        metavar="R:F,R:F,...",
        default=None,
        help="count configurations omitting these (row, floor) halls",
    )
    for flag in ("--max-k", "--max-n"):
        p_oracle.add_argument(
            flag, type=_parse_positive, default=None, help="raise the search guard"
        )
    add_common(p_oracle, ["human", "json"], "human")
    p_oracle.set_defaults(fn=_cmd_oracle)

    p_self = sub.add_parser("selftest", help="run the cross-validation suites")
    p_self.add_argument("--k", type=int, default=selftest.DEFAULT_MAX_K, help="depth cap on k")
    p_self.add_argument("--n", type=int, default=selftest.DEFAULT_MAX_N, help="depth cap on n")
    add_common(p_self, ["human", "json"], "human")
    p_self.set_defaults(fn=_cmd_selftest)

    return parser


def main(argv=None) -> int:
    """Run one command, write its text to stdout or --out; each failure is one stderr line."""
    parser = build_parser()
    prog = parser.prog
    try:
        args = parser.parse_args(argv)
        prog = f"{prog} {args.command}"
        text, mismatch = args.fn(args)
        _emit(text, args.out or getattr(args, "csv", None))  # bench's --csv is its --out
    except (guards.ResourceGuardError, OverflowError) as exc:  # e.g. n! past sys.maxsize
        print(f"{prog}: refused: {exc}", file=sys.stderr)
        return 2
    except ValueError as exc:  # a UsageError names the parser that raised it
        print(f"{getattr(exc, 'prog', prog)}: error: {exc}", file=sys.stderr)
        return 1
    if mismatch:
        print(mismatch, file=sys.stderr)
        return 3
    return 0


def main_entry() -> None:
    raise SystemExit(main())
