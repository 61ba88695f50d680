"""Per-column choice counts as a function of a hall-omission profile.

One column of a reduced configuration needs each non-back row to pick a
floor: all picks distinct, every pick avoiding the floors whose hall for
that row is omitted.  `choice_count` counts those picks for a profile by
inclusion-exclusion over coincidence patterns of the rows, i.e. a sum
over set partitions of the row set weighted by the signed coefficients
from `partitions`.  Partitions share blocks, so the expansion for m
rows is compiled once into straight-line code that adds up each
distinct block sum once (`_kernel`); `direct_sum` compiles the same
code into the whole direct-L sum, which walks the profiles of n in
colex order itself, carries each term's sign and multinomial from one
profile to the next instead of recomputing them, and collects like terms: it sums the weights of the
profiles that share a bracket value and raises each distinct value to
the n-th power once.  Nothing here counts operations: `tallies.add_sum_ops`
scales each compiled function's cost per call up to a whole sum.
`guards.check_expansion` refuses the expansion past 7 rows: CPython
fails to compile the 4,140 terms of 8 rows.
`config_count` multiplies per-column counts over a whole profile; the
floor carrying the column's back-row pick is handled by shifting one
floor into the fully-omitted class first.

Row convention here: bit i of a class index refers to rectangle row
i + 2 (bit 0 is the row right after the fixed back row), matching the
ground elements 1..m of the partitions.
"""

from functools import lru_cache

from . import guards, partitions, profiles
from .tallies import assembly_product, powered


@lru_cache(maxsize=None)
def _zero_classes(m: int, mask: int) -> tuple[int, ...]:
    return tuple(cls for cls in range(1 << m) if not cls & mask)


@lru_cache(maxsize=None)
def _expansion(m: int) -> tuple[tuple[int, tuple[int, ...]], ...]:
    """(coefficient, block bitmasks) per partition of {1..m}, in order."""
    out = []
    for p in partitions.partitions_of(m):
        masks = []
        for block in p.blocks:
            bm = 0
            for e in block:
                bm |= 1 << (e - 1)
            masks.append(bm)
        out.append((partitions.mobius_coefficient(p), tuple(masks)))
    return tuple(out)


def _names(q: int) -> str:
    """The local names c0, c1, ... that generated code binds to a profile's q entries."""
    return ", ".join(f"c{cls}" for cls in range(q))


def _g_source(m: int) -> tuple[tuple[str, ...], str, int, int]:
    """g over `_expansion(m)` as straight-line code: (lines, polynomial, adds, mults).

    The code reads class cls of the profile as the local name c<cls>
    (see `_names`).  The lines bind each distinct block sum once, as
    b<mask>; the polynomial combines them over the partitions.  adds and
    mults are the additions and inner multiplications the code performs;
    a coefficient of -1 is a subtraction, not a multiplication.
    """
    guards.check_expansion(m, f"a column count over {1 << m} classes")
    lines = []
    summed = set()
    terms = []
    adds = mults = 0
    for coeff, block_masks in _expansion(m):
        for bm in block_masks:
            if bm not in summed:
                summed.add(bm)
                zero = _zero_classes(m, bm)
                lines.append(f"    b{bm} = " + " + ".join(f"c{cls}" for cls in zero))
                adds += len(zero) - 1
        factors = [f"b{bm}" for bm in block_masks]
        if abs(coeff) != 1:
            factors.insert(0, str(abs(coeff)))
        mults += max(len(factors) - 1, 0)
        terms.append(("- " if coeff < 0 else "+ ") + (" * ".join(factors) or "1"))
    adds += len(terms) - 1
    return tuple(lines), " ".join(terms).removeprefix("+ "), adds, mults


def _kernel_source(q: int) -> tuple[str, int, int]:
    lines, poly, adds, mults = _g_source(_tracked_rows(q))
    # m = 0 has no block sums: g is 1 and reads nothing
    unpack = [f"    {_names(q)} = c"] if lines else []
    return "\n".join(["def g(c):", *unpack, *lines, f"    return {poly}"]), adds, mults


def _sum_source(q: int, bracket: str) -> tuple[str, int, int]:
    m = _tracked_rows(q)
    if bracket == "literal":
        if q != 4:
            raise ValueError(f"the literal bracket is defined for k = 2 only, not k = {m}")
        # the bracket as printed, with the fully-omitted class subtracted
        # instead of the fully-open one
        lines, poly, adds, mults = (), "(c0 + c1) * (c0 + c2) - c3", 3, 1
    elif bracket == "derived":
        lines, poly, adds, mults = _g_source(m)
    else:
        raise ValueError(f"unknown bracket variant {bracket!r}")
    # one branch per lowest nonzero class j past 0: the step emptied class
    # j - 1, which held v = c0 + 1 floors (see `direct_sum`)
    odd = [profiles.class_weight(cls) & 1 for cls in range(q)]
    steps = []
    for j in range(1, q):
        steps.append(f"        {'if' if j == 1 else 'elif'} c{j}:")
        if odd[j - 1]:
            signed = "w if v & 1 else -w" if odd[j] else "-w if v & 1 else w"
            steps.append("            v = c0 + 1")
            steps.append(f"            w = ({signed}) * v // c{j}")
        else:
            steps.append(f"            w = {'-' if odd[j] else ''}w * (c0 + 1) // c{j}")
    source = "\n".join([
        "def direct_sum(n):",
        "    acc = {}",
        "    get = acc.get",
        "    terms = 0",
        "    w = 1",
        f"    for terms, ({_names(q)}) in enumerate(profiles.compositions(n, {m}), 1):",
        *steps,
        *(line.replace("    ", "        ", 1) for line in lines),
        f"        g = {poly}",
        "        acc[g] = get(g, 0) + w",
        "    return sum(w * g ** n for g, w in acc.items()), terms, len(acc)",
    ])
    return source, adds, mults


def _compiled(source: str, name: str):
    # generated code looks `profiles.compositions` up at each call, so a
    # rebinding of that name reaches the compiled walk too
    namespace = {"profiles": profiles}
    exec(source, namespace)
    return namespace[name]


@lru_cache(maxsize=None)
def _kernel(q: int):
    """g for profiles of length q = 2^m, compiled once: (function, adds, mults).

    The function is `_g_source(m)`'s straight-line code: it binds the
    profile's entries to local names, adds up each distinct block sum
    once, then combines the partitions.  At m = 2 its source is

        def g(c):
            c0, c1, c2, c3 = c
            b1 = c0 + c2
            b2 = c0 + c1
            b3 = c0
            return b1 * b2 - b3

    and `direct_sum` builds the whole direct-L sum around the same code,
    walking the profiles itself and unpacking each one in its loop target:

        def direct_sum(n):
            acc = {}
            get = acc.get
            terms = 0
            w = 1
            for terms, (c0, c1, c2, c3) in enumerate(profiles.compositions(n, 2), 1):
                if c1:
                    w = -w * (c0 + 1) // c1
                elif c2:
                    v = c0 + 1
                    w = (w if v & 1 else -w) * v // c2
                elif c3:
                    v = c0 + 1
                    w = (-w if v & 1 else w) * v // c3
                b1 = c0 + c2
                b2 = c0 + c1
                b3 = c0
                g = b1 * b2 - b3
                acc[g] = get(g, 0) + w
            return sum(w * g ** n for g, w in acc.items()), terms, len(acc)

    adds and mults are the additions and inner multiplications one call
    of g performs, which `tallies.add_sum_ops` counts once per sum.
    """
    source, adds, mults = _kernel_source(q)
    return _compiled(source, "g"), adds, mults


@lru_cache(maxsize=None)
def direct_sum(q: int, bracket: str = "derived"):
    """The direct-L sum for profiles of length q = 2^k, compiled once: (function, adds, mults).

    `direct_sum(n)` walks `profiles.compositions(n, k)` and returns
    (total, terms, distinct): total is the sum over those profiles c of
    sign(c) * multinomial(n; c) * bracket(c) ** n, where the bracket
    is g over all k rows (`_kernel`'s polynomial) or, for k = 2 and
    bracket "literal", (c0 + c1)(c0 + c2) - c3.  Any other bracket, or
    "literal" at q != 4, raises ValueError.

    The signed multinomial w is carried along the colex walk, which
    starts at (n, 0, ..., 0), where w = 1; the walk is the compiled
    function's own, so nothing outside it depends on that order.  The
    step into a later profile c emptied class j - 1, which held
    v = c[0] + 1 floors: one went to class j, the lowest nonzero class
    past 0, and the rest to class 0.  So w <- w * v // c[j], an exact
    quotient, and w changes sign iff (v & odd(j - 1)) ^ odd(j), where
    odd(u) is the parity of class u's weight, as in `profiles.sign`.

    Like terms are collected: acc maps each bracket value to the sum of
    the weights of the profiles that have it, and each of its `distinct`
    values is raised to the n-th power once.  That is exact, and cheap
    because the bracket is a polynomial of degree k in block sums of at
    most n, so it takes O(n^k) values over O(n^(q-1)) profiles: 1,081
    over 116,280 at k=3 n=14.  adds and mults are the additions and
    inner multiplications the bracket performs once per term; the two
    multiplications of a step are not among them.
    """
    source, adds, mults = _sum_source(q, bracket)
    return _compiled(source, "direct_sum"), adds, mults


def _tracked_rows(q: int) -> int:
    m = (q - 1).bit_length()
    if q != 1 << m:
        raise ValueError(f"profile length {q} is not a power of two")
    return m


def block_sum(counts, block) -> int:
    """Sum of profile entries over classes open for every row in `block`.

    `block` is a nonempty set of 1-based row positions within the
    tracked rows.
    """
    m = _tracked_rows(len(counts))
    mask = 0
    for e in block:
        if not 1 <= e <= m:
            raise ValueError(f"block element {e} outside 1..{m}")
        mask |= 1 << (e - 1)
    if mask == 0:
        raise ValueError("block must be nonempty")
    return sum(counts[cls] for cls in _zero_classes(m, mask))


def choice_count(counts) -> int:
    """Distinct-floor choices for one column under the given profile.

    Entries may be negative (the direct total formulas raise possibly
    negative brackets to powers); the counting meaning applies only to
    nonnegative profiles.  m = 0 gives the empty product 1.
    """
    return _kernel(len(counts))[0](counts)


def shift_profile(counts, cls: int) -> tuple[int, ...]:
    """Move one floor from class `cls` into the fully-omitted class.

    The fully-omitted (all-ones) class itself shifts to the profile
    unchanged.  Shifting any other empty class is a caller bug: callers
    skip zero-exponent factors before shifting.
    """
    counts = tuple(counts)
    all_ones = len(counts) - 1
    if not 0 <= cls <= all_ones:
        raise ValueError(f"class {cls} outside 0..{all_ones}")
    if cls == all_ones:
        return counts
    if counts[cls] < 1:
        raise ValueError(f"cannot shift empty class {cls} of profile {counts}")
    shifted = list(counts)
    shifted[cls] -= 1
    shifted[all_ones] += 1
    return tuple(shifted)


def config_count(counts) -> int:
    """Reduced configurations omitting every hall of a set with this profile.

    Product over classes with nonzero count of the shifted column choice
    count raised to that count; zero-exponent factors are omitted before
    shifting, so no intermediate profile goes negative.  Nonnegative for
    every valid profile.
    """
    powers = []
    for cls, cnt in enumerate(counts):
        if cnt == 0:
            continue
        if cnt < 0:
            raise ValueError("profile entries must be nonnegative")
        base = choice_count(shift_profile(counts, cls))
        powers.append(powered(base, cnt))
    return assembly_product(powers)
