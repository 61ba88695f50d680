"""Symbolic form of the reduced-count formula for any k.

`generate_expression` builds an AST mirroring the evaluated sum: the
2^(k-1) summation indices, the sign exponent, the multinomial, one
factor per omission class with its shifted arguments, and the expansion
of the column-choice polynomial over set partitions with their signed
coefficients.  Rendering and evaluation are separate consumers of the
same AST, and no algebraic simplification is applied: every class,
factor and block sum is spelled out, which keeps `evaluate_expression` a
direct transcription of the tree.

The expansion has Bell(k-1) terms, so `guards.check_expansion` refuses
k past 8, the same rule that bounds the compiled kernels.  `render`
builds the formula's pieces once from a notation table, one entry per
format (text or LaTeX), and the two layouts only place them.
"""

from collections import namedtuple

from . import guards, partitions, profiles
from .tallies import powered

GTerm = namedtuple("GTerm", "coefficient blocks")
GTerm.__doc__ = "One partition's contribution: coefficient times a product of block sums."

Factor = namedtuple("Factor", "cls deltas")
Factor.__doc__ = "The class-`cls` factor: choice polynomial at shifted arguments, power s_cls."

Expression = namedtuple("Expression", "k m class_labels sign_weights factors g_terms")


def generate_expression(k: int) -> Expression:
    """Build the symbolic reduced-count formula for the given k.

    k = 1 is refused: its count is the constant 1 and there is no sum to
    print.  The partition expansion has Bell(k - 1) terms, so k past 8
    is refused by `guards.check_expansion`, like the compiled kernels.
    """
    if k < 2:
        raise ValueError(
            "the reduced count for k = 1 is the constant 1; expressions start at k = 2"
        )
    guards.check_expansion(k - 1, f"expression generation for k={k}")
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


# per format: variable spelling, sum joiner, list joiner, product sign, block name
_NOTATION = {
    "text": ("{}{}", " + ", ", ", "*", "f({})"),
    "latex": ("{}_{{{}}}", "+", ",", " ", "f_{{{}}}"),
}


def _all_blocks(m: int):
    """Every nonempty subset of {1..m}, by (size, elements)."""
    subsets = []
    for mask in range(1, 1 << m):
        block = tuple(e for e in range(1, m + 1) if mask >> (e - 1) & 1)
        subsets.append(block)
    subsets.sort(key=lambda b: (len(b), b))
    return subsets


def _pieces(expr: Expression, var, plus, comma, times, block):
    """The formula's pieces in one notation; the layouts in `render` place them."""
    s = [var.format("s", label) for label in expr.class_labels]
    t = [var.format("t", label) for label in expr.class_labels]
    sign = plus.join(
        x if w == 1 else f"{w}{times}{x}" for x, w in zip(s, expr.sign_weights) if w
    )
    factors = [
        (comma.join(f"{x}{d:+d}" if d else x for x, d in zip(s, f.deltas)), s[f.cls])
        for f in expr.factors
    ]

    def block_name(b):
        return block.format(",".join(map(str, b)))

    terms = []
    for c, blocks in expr.g_terms:
        prod = times.join(map(block_name, blocks))
        scaled = prod if abs(c) == 1 else f"{abs(c)}{times}{prod}"
        terms.append(("- " if c < 0 else "+ ") + scaled)
    defs = []
    for b in _all_blocks(expr.m):
        mask = sum(1 << (e - 1) for e in b)
        open_t = (x for cls, x in enumerate(t) if not cls & mask)
        defs.append(f"{block_name(b)} = {plus.join(open_t)}")
    g = f"g({comma.join(t)}) = " + " ".join(terms).removeprefix("+ ")
    return plus.join(s), comma.join(s), sign, factors, g, defs


def render(expr: Expression, fmt: str = "text") -> str:
    """Deterministic text or LaTeX for the expression; LaTeX needs no packages."""
    if fmt not in _NOTATION:
        raise ValueError(f"unknown format {fmt!r}")
    indices, choose, sign, factors, g, defs = _pieces(expr, *_NOTATION[fmt])
    if fmt == "text":
        return "\n".join([
            f"R_{expr.k}(n) = sum over {indices} = n of",
            f"    (-1)^({sign})",
            f"    * multinomial(n; {choose})",
            *(f"    * g({args})^{power}" for args, power in factors),
            "where",
            f"    {g}",
            *(f"    {d}" for d in defs),
        ])
    return "\n".join([
        "\\[",
        f"R_{{{expr.k}}}(n) = \\sum_{{{indices}=n}}",
        f"(-1)^{{{sign}}}",
        f"{{n \\choose {choose}}}",
        *(f"g({args})^{{{power}}}" for args, power in factors),
        "\\]\n\\[",
        g,
        "\\]\n\\[",
        " ,\\quad ".join(defs),
        "\\]",
    ])


def evaluate_expression(expr: Expression, n: int, *, max_terms: int | None = None) -> int:
    """Evaluate the AST at a concrete n; agrees with the direct evaluator.

    The column-choice values are recomputed from the AST's own partition
    expansion and block lists, so this closes the loop between the
    printed formula and the packaged one.
    """
    if n < 0:
        raise ValueError("need n >= 0")
    q = guards.check_sum(expr.m, n, n, max_terms, f"expression evaluation for k={expr.k}, n={n}")

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
