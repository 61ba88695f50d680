"""Symbolic form of the reduced-count formula for any k.

`generate_expression` builds an AST mirroring the evaluated sum: the
2^(k-1) summation indices, the sign exponent, the multinomial, one
factor per omission class with its shifted arguments, and the expansion
of the column-choice polynomial over set partitions with their signed
coefficients.  Rendering (text or LaTeX) and evaluation are separate
consumers of the same AST, and no algebraic simplification is applied:
every class, factor and block sum is spelled out, which keeps
`evaluate_expression` a direct transcription of the tree.
"""

from collections import namedtuple

from . import guards, partitions, profiles
from .tallies import powered

EXPRESSION_MAX_K = 8


GTerm = namedtuple("GTerm", "coefficient blocks")
GTerm.__doc__ = "One partition's contribution: coefficient times a product of block sums."

Factor = namedtuple("Factor", "cls deltas")
Factor.__doc__ = "The class-`cls` factor: choice polynomial at shifted arguments, power s_cls."

Expression = namedtuple("Expression", "k m class_labels sign_weights factors g_terms")


def _expansion_size(m: int):
    """Bell(m) for a refusal message, cut short like `guards.check_terms`.

    Bell numbers increase, and B(25) is the first past PRINTABLE_TERMS, so
    a larger m is reported as "more than" that bound after a few steps.
    """
    for i in range(m + 1):
        size = partitions.bell_number(i)
        if size > guards.PRINTABLE_TERMS:
            return f"more than {guards.PRINTABLE_TERMS}"
    return size


def generate_expression(k: int, *, max_k: int = EXPRESSION_MAX_K) -> Expression:
    """Build the symbolic reduced-count formula for the given k.

    k = 1 is refused: its count is the constant 1 and there is no sum to
    print.  Above `max_k` the expression is still finite but its
    partition expansion grows Bell-fast, so generation is guarded.
    """
    if k < 2:
        raise ValueError(
            "the reduced count for k = 1 is the constant 1; expressions start at k = 2"
        )
    if k > max_k:
        raise guards.ResourceGuardError(
            f"expression generation refused at k={k} (ceiling {max_k}): "
            f"the expansion would have {_expansion_size(k - 1)} terms"
        )
    m = k - 1
    q = 1 << m
    all_ones = q - 1
    labels = tuple(profiles.class_label(cls, m) for cls in range(q))
    weights = tuple(profiles.class_weight(cls) for cls in range(q))
    factors = []
    for cls in range(q):
        deltas = [0] * q
        if cls != all_ones:
            deltas[cls] = -1
            deltas[all_ones] = 1
        factors.append(Factor(cls=cls, deltas=tuple(deltas)))
    g_terms = tuple(
        GTerm(partitions.mobius_coefficient(p), p.blocks)
        for p in partitions.partitions_of(m)
    )
    return Expression(
        k=k,
        m=m,
        class_labels=labels,
        sign_weights=weights,
        factors=tuple(factors),
        g_terms=g_terms,
    )


def _sign_exponent(expr: Expression, fmt: str) -> str:
    parts = []
    for cls, w in enumerate(expr.sign_weights):
        if w == 0:
            continue
        if fmt == "text":
            name = f"s{expr.class_labels[cls]}"
            parts.append(name if w == 1 else f"{w}*{name}")
        else:
            name = f"s_{{{expr.class_labels[cls]}}}"
            parts.append(name if w == 1 else f"{w} {name}")
    return (" + " if fmt == "text" else "+").join(parts)


def _shifted_args(expr: Expression, factor: Factor, fmt: str) -> str:
    args = []
    for cls, label in enumerate(expr.class_labels):
        base = f"s{label}" if fmt == "text" else f"s_{{{label}}}"
        d = factor.deltas[cls]
        if d == 0:
            args.append(base)
        elif d > 0:
            args.append(f"{base}+{d}")
        else:
            args.append(f"{base}-{-d}")
    return ",".join(args) if fmt == "latex" else ", ".join(args)


def _block_name(block, fmt: str) -> str:
    inner = ",".join(str(e) for e in block)
    return f"f({inner})" if fmt == "text" else f"f_{{{inner}}}"


def _g_term_strings(expr: Expression, fmt: str) -> list[str]:
    mult = "*" if fmt == "text" else " "
    out = []
    for gt in expr.g_terms:
        prod = mult.join(_block_name(b, fmt) for b in gt.blocks)
        if not gt.blocks:
            prod = "1"
        c = gt.coefficient
        if c == 1:
            out.append(f"+ {prod}")
        elif c == -1:
            out.append(f"- {prod}")
        elif c > 0:
            out.append(f"+ {c}{mult}{prod}")
        else:
            out.append(f"- {-c}{mult}{prod}")
    return out


def _block_sum_string(expr: Expression, block, var: str, fmt: str) -> str:
    mask = 0
    for e in block:
        mask |= 1 << (e - 1)
    names = []
    for cls, label in enumerate(expr.class_labels):
        if cls & mask:
            continue
        names.append(f"{var}{label}" if fmt == "text" else f"{var}_{{{label}}}")
    return " + ".join(names) if fmt == "text" else "+".join(names)


def _all_blocks(m: int):
    """Every nonempty subset of {1..m}, by (size, elements)."""
    subsets = []
    for mask in range(1, 1 << m):
        block = tuple(e for e in range(1, m + 1) if mask >> (e - 1) & 1)
        subsets.append(block)
    subsets.sort(key=lambda b: (len(b), b))
    return subsets


def render(expr: Expression, fmt: str = "text") -> str:
    """Deterministic text or LaTeX for the expression; LaTeX needs no packages."""
    if fmt == "text":
        return _render_text(expr)
    if fmt == "latex":
        return _render_latex(expr)
    raise ValueError(f"unknown format {fmt!r}")


def _render_text(expr: Expression) -> str:
    labels = expr.class_labels
    indices = " + ".join(f"s{lab}" for lab in labels)
    lines = [f"R_{expr.k}(n) = sum over {indices} = n of"]
    lines.append(f"    (-1)^({_sign_exponent(expr, 'text')})")
    lines.append(f"    * multinomial(n; {', '.join('s' + lab for lab in labels)})")
    for factor in expr.factors:
        lines.append(
            f"    * g({_shifted_args(expr, factor, 'text')})^s{labels[factor.cls]}"
        )
    lines.append("where")
    g_args = ", ".join(f"t{lab}" for lab in labels)
    terms = _g_term_strings(expr, "text")
    first = terms[0][2:] if terms[0].startswith("+ ") else terms[0]
    body = " ".join([first] + terms[1:])
    lines.append(f"    g({g_args}) = {body}")
    for block in _all_blocks(expr.m):
        lines.append(
            f"    {_block_name(block, 'text')} = {_block_sum_string(expr, block, 't', 'text')}"
        )
    return "\n".join(lines)


def _render_latex(expr: Expression) -> str:
    labels = expr.class_labels
    indices = "+".join(f"s_{{{lab}}}" for lab in labels)
    lines = ["\\["]
    lines.append(f"R_{{{expr.k}}}(n) = \\sum_{{{indices}=n}}")
    lines.append(f"(-1)^{{{_sign_exponent(expr, 'latex')}}}")
    lines.append(f"{{n \\choose {','.join('s_{' + lab + '}' for lab in labels)}}}")
    for factor in expr.factors:
        lines.append(
            f"g({_shifted_args(expr, factor, 'latex')})^{{s_{{{labels[factor.cls]}}}}}"
        )
    lines.append("\\]")
    lines.append("\\[")
    g_args = ",".join(f"t_{{{lab}}}" for lab in labels)
    terms = _g_term_strings(expr, "latex")
    first = terms[0][2:] if terms[0].startswith("+ ") else terms[0]
    body = " ".join([first] + terms[1:])
    lines.append(f"g({g_args}) = {body}")
    lines.append("\\]")
    lines.append("\\[")
    defs = []
    for block in _all_blocks(expr.m):
        defs.append(
            f"{_block_name(block, 'latex')} = {_block_sum_string(expr, block, 't', 'latex')}"
        )
    lines.append(" ,\\quad ".join(defs))
    lines.append("\\]")
    return "\n".join(lines)


def evaluate_expression(expr: Expression, n: int, *, max_terms: int | None = None) -> int:
    """Evaluate the AST at a concrete n; agrees with the direct evaluator.

    The column-choice values are recomputed from the AST's own partition
    expansion and block lists, so this closes the loop between the
    printed formula and the packaged one.
    """
    if n < 0:
        raise ValueError("need n >= 0")
    q = 1 << expr.m
    guards.check_terms(n, q, max_terms, f"expression evaluation for k={expr.k}, n={n}")

    term_classes = []
    for gt in expr.g_terms:
        masks = []
        for block in gt.blocks:
            bm = 0
            for e in block:
                bm |= 1 << (e - 1)
            masks.append(tuple(cls for cls in range(q) if not cls & bm))
        term_classes.append((gt.coefficient, masks))

    def g_of(values) -> int:
        total = 0
        for coeff, masks in term_classes:
            prod = coeff
            for zero_classes in masks:
                prod *= sum(values[cls] for cls in zero_classes)
            total += prod
        return total

    total = 0
    for profile in profiles.compositions(n, expr.m):
        prod = 1
        for factor in expr.factors:
            exp = profile[factor.cls]
            if exp == 0:
                continue
            shifted = tuple(profile[u] + factor.deltas[u] for u in range(q))
            prod *= powered(g_of(shifted), exp)
        exponent = sum(
            w * c for w, c in zip(expr.sign_weights, profile)
        )
        term = profiles.multinomial(profile) * prod
        total += -term if exponent & 1 else term
    return total
