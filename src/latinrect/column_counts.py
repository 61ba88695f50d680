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
profile to the next instead of recomputing them, steps the bracket by
its differences (`_difference`) along classes 1 and 2 instead of
evaluating it there, and collects like terms: it sums the weights of
the profiles that share a bracket value and raises each distinct value
to the n-th power once.  `range_sum` compiles one walk that serves
the reduced sum for every n: the all-ones class is in no block sum, so
only its floors, n - s, depend on n, and the walk over the profiles of
the other classes that sum to s collects like terms by g into weights
W_s that no n changes.  The walk is a loop nest whose limits are
Hall's conditions (`_hall_bounds`), so it visits no profile whose term
is 0; each level carries its own weight, and no factorial table is
built.  `_finish` makes the rows from every W_s, holding one power per
key at a time.  Each generator emits bare lines that the function
around them indents, and `profiles._compiled` compiles every one of
them.
Nothing here counts operations: `tallies.add_sum_ops` scales each
compiled function's cost per call, or per branch, up to a whole sum,
and `range_sum`'s callers print no op counts.
`guards.check_expansion` refuses the expansion past 7 rows: CPython
fails to compile the 4,140 terms of 8 rows.
`config_count` multiplies per-column counts over a whole profile; the
floor carrying the column's back-row pick is handled by shifting one
floor into the fully-omitted class first.  It too is compiled once per
profile length (`_config`): straight-line code that writes each shifted
profile as a tuple literal and calls `choice_count` and
`tallies.powered` once per nonempty class, looking both up here at
each call.

Row convention here: bit i of a class index refers to rectangle row
i + 2 (bit 0 is the row right after the fixed back row), matching the
ground elements 1..m of the partitions.
"""

import sys
from functools import lru_cache
from itertools import accumulate, repeat
from operator import add, index, mul

from . import guards, partitions, profiles
from .tallies import assembly_product, powered  # noqa: F401  config_count's code reads powered; perfbench traces both


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


def _polynomial(terms, lowered=()) -> tuple[str, int, int]:
    """Σ coeff Π b<mask> over (coefficient, block masks) terms, as code: (expression, adds, mults).

    A coefficient of -1 is a subtraction, not a multiplication, and an
    empty product is 1.  The block sums whose masks are in `lowered`
    are read lowered by one, as d<mask>.
    """
    out = []
    mults = 0
    for coeff, block_masks in terms:
        factors = [f"{'d' if bm in lowered else 'b'}{bm}" for bm in block_masks]
        if abs(coeff) != 1:
            factors.insert(0, str(abs(coeff)))
        mults += max(len(factors) - 1, 0)
        out.append(("- " if coeff < 0 else "+ ") + (" * ".join(factors) or "1"))
    return " ".join(out).removeprefix("+ ") or "0", max(len(out) - 1, 0), mults


def _block_masks(m: int) -> tuple[int, ...]:
    """The distinct block masks of `_expansion(m)`, in order of first use."""
    return tuple(dict.fromkeys(bm for _, block_masks in _expansion(m) for bm in block_masks))


def _g_source(m: int) -> tuple[tuple[str, ...], str, int, int]:
    """g over `_expansion(m)` as straight-line code: (lines, polynomial, adds, mults).

    The code reads class cls of the profile as the local name c<cls>
    (see `profiles._names`).  The lines, unindented, bind each distinct
    block sum once, as b<mask>; the polynomial combines them over the
    partitions.  adds and mults are the additions and inner
    multiplications the code performs.
    """
    guards.check_expansion(m, f"a column count over {1 << m} classes")
    lines = []
    adds = 0
    for bm in _block_masks(m):
        zero = _zero_classes(m, bm)
        lines.append(f"b{bm} = " + " + ".join(f"c{cls}" for cls in zero))
        adds += len(zero) - 1
    poly, poly_adds, mults = _polynomial(_expansion(m))
    return tuple(lines), poly, adds + poly_adds, mults


@lru_cache(maxsize=None)
def _difference(m: int, s: int) -> tuple[tuple[int, tuple[int, ...]], ...]:
    """D_s over `_expansion(m)`: (coefficient, block masks) per distinct product.

    D_s sums, over the partitions whose blocks each hold at most one
    bit of s, the coefficient times the block sums of the blocks that
    hold none; like products are collected and zero ones dropped.  D_0
    is g.  For a bit j outside s, moving one floor from class 0 to class
    2^j lowers D_s by D_(s | 2^j), evaluated at either profile:

        D_s(c) - D_s(c - e_0 + e_(2^j)) = D_(s | 2^j)(c).

    The move lowers by one exactly the block sums of the blocks that
    hold j, since class 0 is in every block sum and class 2^j in those
    of the blocks without j.  Each partition has one block holding j,
    and its product is linear in that block's sum when the block holds
    no bit of s; the partitions whose block of j holds a bit of s do
    not change and are the ones D_(s | 2^j) leaves out.
    """
    collected = {}
    for coeff, block_masks in _expansion(m):
        if all((bm & s).bit_count() <= 1 for bm in block_masks):
            key = tuple(bm for bm in block_masks if not bm & s)
            collected[key] = collected.get(key, 0) + coeff
    return tuple((coeff, key) for key, coeff in collected.items() if coeff)


def _kernel_source(q: int) -> tuple[str, int, int]:
    lines, poly, adds, mults = _g_source(_tracked_rows(q))
    # m = 0 has no block sums: g is 1 and reads nothing
    unpack = [f"{profiles._names(q)} = c"] if lines else []
    return "\n".join(["def g(c):", *_indent([*unpack, *lines, f"return {poly}"])]), adds, mults


def _config_source(q: int) -> str:
    m = _tracked_rows(q)
    guards.check_expansion(m, f"a column count over {q} classes")
    top = q - 1  # the all-ones class: its shift leaves the profile as it is
    # one chain of comparisons: the builtin min costs more at these lengths
    negative = " or ".join(f"c{cls} < 0" for cls in range(q))
    body = [f"{profiles._names(q)} = c", "column_counts.index(sum(c))", f"if {negative}:",
            '    raise ValueError("profile entries must be nonnegative")', "y = 1"]
    for cls in range(q):
        arg = "c"
        if cls != top:
            shifted = [f"c{u}" for u in range(q)]
            shifted[cls] += " - 1"
            shifted[top] += " + 1"
            arg = f"({', '.join(shifted)})"
        body += [f"if c{cls}:",
                 f"    y *= column_counts.powered(column_counts.choice_count({arg}), c{cls})"]
    return "\n".join(["def config_count(c):", *_indent([*body, "return y"])])


def _indent(lines) -> list[str]:
    return ["    " + line for line in lines]


def _step(j: int) -> list[str]:
    # w into a profile whose lowest nonzero class past 0 is j: the step
    # emptied class j - 1, which held v = c0 + 1 floors (see `direct_sum`)
    flips = profiles.class_weight(j) & 1
    if profiles.class_weight(j - 1) & 1:
        signed = "w if v & 1 else -w" if flips else "-w if v & 1 else w"
        return ["v = c0 + 1", f"w = ({signed}) * v // c{j}"]
    return [f"w = {'-' if flips else ''}w * (c0 + 1) // c{j}"]


def _sum_source(q: int, bracket: str) -> tuple[str, tuple[tuple[int, int], ...]]:
    m = _tracked_rows(q)
    if q < 2:
        raise ValueError("the direct-L sum tracks k >= 1 rows")
    if bracket == "literal":
        if q != 4:
            raise ValueError(f"the literal bracket is defined for k = 2 only, not k = {m}")
        # the bracket as printed, with the fully-omitted class subtracted
        # instead of the fully-open one; its differences along classes 1
        # and 2 are its two factors, and along both the constant 1
        lines, poly, adds, mults = ("b2 = c0 + c1", "b1 = c0 + c2"), "b2 * b1 - c3", 3, 1
        differences = [("b2", 0, 0), ("b1", 0, 0), ("1", 0, 0)]
    elif bracket == "derived":
        lines, poly, adds, mults = _g_source(m)
        differences = [_polynomial(_difference(m, s)) for s in (1, 2, 3)] if q > 2 else []
    else:
        raise ValueError(f"unknown bracket variant {bracket!r}")
    bracket_lines = [*lines, f"g = {poly}"]
    if q == 2:
        # k = 1: g is c0 itself, which no difference makes cheaper
        body = ["if c1:", *_indent(_step(1)), *bracket_lines]
        step_costs = (0, 0), (0, 0)
    else:
        full = []
        for j in range(3, q):
            full += [f"{'if' if j == 3 else 'elif'} c{j}:", *_indent(_step(j))]
        d1, d2, d3 = (code for code, _, _ in differences)
        full += [*bracket_lines, "if c0:",
                 *_indent(["g2 = g", f"s1 = s12 = {d1}", f"s2 = {d2}", f"t = {d3}"])]
        body = [
            "if c1:", *_indent([*_step(1), "g -= s1"]),
            "elif c2:", *_indent([*_step(2), "g = g2 = g2 - s2", "s1 = s12 = s12 - t"]),
            "else:", *_indent(full),
        ]
        step_costs = (1, 0), (2, 0)
    source = "\n".join([
        "def direct_sum(n):",
        "    acc = {}",
        "    get = acc.get",
        "    terms = 0",
        "    w = 1",
        f"    for terms, ({profiles._names(q)}) in enumerate(profiles.compositions(n, {m}), 1):",
        *_indent(_indent(body)),
        "        acc[g] = get(g, 0) + w",
        "    return sum(w * g ** n for g, w in acc.items()), terms, len(acc)",
    ])
    differences_cost = sum(a for _, a, _ in differences), sum(x for _, _, x in differences)
    return source, ((adds, mults), differences_cost, *step_costs)


# Loop levels per generated function of the one walk's nest.  CPython
# refuses more than 20 statically nested blocks; 12 already splits the
# 14 loops at q = 16, so every q from 16 on runs the same chain.
_NEST_LEVELS = 12


def _hall_bounds(m: int) -> tuple[tuple[int, tuple[int, ...]], ...]:
    """Per loop of the one walk's nest, outermost first: (class T, the classes u ⊋ T other than v*).

    The loops run over the classes other than 0 and v* = 2^m - 1, in
    descending popcount, then descending index, so every u ⊋ T is
    fixed before T's loop starts.  A profile c' with s = |c'| >= 1 has
    no G_v = 0 exactly when s > m and, for every T,

        c'_T <= s - |T| - 1 - Σ c'_u over the u listed with T,

    which is T's loop limit (see `range_sum`).
    """
    top = (1 << m) - 1
    order = sorted(range(1, top), key=lambda t: (t.bit_count(), t), reverse=True)
    return tuple((t, tuple(u for u in range(t + 1, top) if u & t == t)) for t in order)


def _range_source(q: int) -> str:
    m = _tracked_rows(q)
    head = "def range_sum(s):"
    if q == 1:
        return "\n".join([head, "    return {}"])
    _, poly, _, _ = _g_source(m)
    masks = _block_masks(m)
    full = q - 1  # the block of every row: its sum is class 0's floors
    bounds = _hall_bounds(m)
    levels = len(bounds) + 1  # level 0 is the body, level i > 0 class bounds[i - 1]
    # each function of the chain holds _NEST_LEVELS levels, but the first
    cuts = range(levels - _NEST_LEVELS, 0, -_NEST_LEVELS)
    # the weight, and each block sum, inside level i's loop: a floor moved
    # from class 0 to class t lowers the block sums whose blocks meet t.
    # The singletons are the innermost loops, so the loop of a block's
    # lowest row lowers its sum last, and names it as the leaf reads it
    weights = ["w", *(f"w{t}" for t, _ in bounds)]
    names = {**{bm: f"b{bm}" for bm in masks}, full: "c0"}
    sums = [dict.fromkeys(names, "s")]
    for t, _ in bounds:
        sums.append({bm: names[bm] + ("" if t == bm & -bm else f"_{t}") if bm & t else name
                     for bm, name in sums[-1].items()})
    leaf = ["c0 = s"] if levels == 1 else []
    leaf += [f"b{full} = c0", *(f"d{bm} = b{bm} - 1" for bm in masks), f"y = {weights[-1]}"]
    for cls in range(q - 1):
        # G_cls: g after one floor of class cls moves to v*, which lowers
        # by one the block sums that hold class cls
        lowered, _, _ = _polynomial(_expansion(m), {bm for bm in masks if not cls & bm})
        leaf += [f"if c{cls}:", f"    y *= ({lowered}) ** c{cls}"]
    leaf += [f"key = {poly}", "acc[key] = get(key, 0) + y"]
    functions = []

    def level(i):
        # the lines that run level i inside level i - 1's loop
        if i == levels:
            return leaf
        if i in cuts:
            args = ", ".join(dict.fromkeys(["acc", "get", "s", weights[i - 1], *sums[i - 1].values(),
                                            *(f"c{t}" for t, _ in bounds[:i - 1])]))
            functions.append([f"def nest{i}({args}):", *_indent(loop(i))])
            return [f"nest{i}({args})"]
        return loop(i)

    def loop(i):
        t, above = bounds[i - 1]
        w, outer, here = weights[i], sums[i - 1], sums[i]
        # c'_T < s - |T| - Σ c'_u; the first class loop has all s floors to take
        stop = " - ".join([f"s - {t.bit_count()}", *(f"c{u}" for u in above)])
        if outer[full] != "s":
            stop = f"min({outer[full]} + 1, {stop})"
        lowered = [f"{here[bm]} = {outer[bm]} - c{t}" for bm in here if bm & t]
        # a floor moved from class 0 to class t: times class 0's floors
        # before the move, over class t's after it, and odd |t| flips the sign
        return [f"{w} = {weights[i - 1]}",
                f"for c{t} in range({stop}):",
                *_indent([*lowered, *level(i + 1)]),
                f"    {w} = {'-' if t.bit_count() & 1 else ''}{w} * {here[full]} // (c{t} + 1)"]

    # c' = (s, 0, ..., 0): sign +1 and multinomial 1
    body = ["acc = {}", "get = acc.get", "w = 1", *level(1), "return acc"]
    return "\n\n".join(["\n".join([head, *_indent(body)]),
                        *("\n".join(f) for f in functions)])


def _finish(walk, n_max: int, m: int, n_min: int) -> list[tuple[int, int]]:
    """The rows (R_k(n), terms) for n = n_min..N, N = n_max, from the weights W_s of `walk`.

    Row n is Σ_s C(n, s) Σ_gamma W_s(gamma) ((-1)^m gamma)^(n - s), with
    m tracked rows (see `range_sum`).  W_0 = {gamma: 1} holds c' = 0,
    whose gamma is 0, since each partition of a nonempty row set has a
    block, or 1 at m = 0; W_1..W_m are empty, since the set of every row
    fails Hall's condition there, and `walk(s)` gives W_s for s > m.
    Row n_min multiplies C(n_min, s) into each weight before its power,
    and builds nothing more when it is the only row.  Each later row
    takes C(n, s) from the row before by Pascal's rule, with additions
    only, and each key's power from the row before, so no row is
    divided.  Row n's terms are the profiles of n, C(n + 2^m - 1, 2^m - 1)
    (`guards.composition_count`): the walk visits only the profiles
    whose terms are not 0, so it counts none.  No row below n_min is
    made, so a table that starts at a large n pays for the walk and its
    own rows only.
    """
    # row n_min's C(n_min, s), s = 0..n_min, by the ratio (n_min - s) / (s + 1)
    # from s to s + 1: 70 times faster than math.comb per s at n_min = 2000
    binomials = list(accumulate(range(n_min), lambda b, s: b * (n_min - s) // (s + 1), initial=1))
    value = 0
    powers = []
    for s in range(n_max + 1):
        weights = walk(s) if s > m else {} if s else {int(not m): 1}
        powers.append([])
        for gamma, w in weights.items():
            gamma = -gamma if m & 1 else gamma
            if s <= n_min:
                # C(n_min, s) joins w before the power: two long factors
                # multiply faster than a short one into their product
                power = gamma ** (n_min - s)
                value += binomials[s] * w * power
                if n_min == n_max:
                    continue
                w *= power * gamma
            # per key, its terms of the later rows, from max(s, n_min + 1)
            # on, made one at a time, each the one before times (-1)^m
            # gamma: one big integer per key is held at a time
            powers[s].append(accumulate(repeat(gamma, n_max - max(s, n_min + 1)), mul, initial=w))
    rows = [(value, guards.composition_count(n_min, 1 << m))]
    for n in range(n_min + 1, n_max + 1):
        binomials = [1, *map(add, binomials, binomials[1:]), 1]
        rows.append((sum(b * sum(map(next, powers[s])) for s, b in enumerate(binomials)),
                     guards.composition_count(n, 1 << m)))
    return rows


# g per profile length, as `_kernel` compiled it: a plain dict is read
# faster than a cache, once per nonempty class of every reduced term.
# Pool threads that race to fill it store equivalent kernels; either serves.
_g = {}


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

    and `direct_sum` builds the whole direct-L sum around the same code.

    adds and mults are the additions and inner multiplications one call
    of g performs, which `tallies.add_sum_ops` counts once per sum.
    """
    source, adds, mults = _kernel_source(q)
    return profiles._compiled(source, "g"), adds, mults


@lru_cache(maxsize=None)
def direct_sum(q: int, bracket: str = "derived"):
    """The direct-L sum for profiles of length q = 2^k, compiled once: (function, costs).

    `direct_sum(n)` walks `profiles.compositions(n, k)` and returns
    (total, terms, distinct): total is the sum over those profiles c of
    sign(c) * multinomial(n; c) * bracket(c) ** n, where the bracket
    is g over all k rows (`_kernel`'s polynomial) or, for k = 2 and
    bracket "literal", (c0 + c1)(c0 + c2) - c3.  Any other bracket,
    "literal" at q != 4, or q = 1 raises ValueError.

    The signed multinomial w is carried along the colex walk, which
    starts at (n, 0, ..., 0), where w = 1; the walk is the compiled
    function's own, so nothing outside it depends on that order.  The
    step into a later profile c emptied class j - 1, which held
    v = c[0] + 1 floors: one went to class j, the lowest nonzero class
    past 0, and the rest to class 0.  So w <- w * v // c[j], an exact
    quotient, and w changes sign iff (v & odd(j - 1)) ^ odd(j), where
    odd(u) is the parity of class u's weight, as in `profiles.sign`.
    `_step(j)` emits that step for class j.

    At k >= 2 the bracket is affine along classes 1 and 2, which each
    omit a single row's hall: a floor moved there from class 0 lowers by
    one every block sum of a block holding that row, and each partition
    has exactly one such block.  With j = 1 the step is c - e_0 + e_1,
    so g drops by D_1 (see `_difference`), which that step leaves
    unchanged.  With j = 2, let p be the start of the run of j = 1 steps
    that just ended, the last profile with c[1] = 0; then c = p - e_0 +
    e_2, so g(c) = g(p) - D_2(p) and D_1(c) = D_1(p) - D_3(p), while D_2
    and D_3 keep their values at p.  The code holds g(p) as g2 and D_1(p)
    as s12.  For the literal bracket D_1, D_2 and D_3 are c0 + c1,
    c0 + c2 and 1.  Every other profile (j >= 3, and the first) takes the
    block sums and g in full, and then the differences only if c0 >= 1:
    with c0 = 0 the next step has j >= 3 again, and skipping them there
    keeps k = 5 from paying for differences it never uses.  At k = 1 the
    bracket is c0 itself, and every profile takes it in full.  At k = 2
    the source is

        def direct_sum(n):
            acc = {}
            get = acc.get
            terms = 0
            w = 1
            for terms, (c0, c1, c2, c3) in enumerate(profiles.compositions(n, 2), 1):
                if c1:
                    w = -w * (c0 + 1) // c1
                    g -= s1
                elif c2:
                    v = c0 + 1
                    w = (w if v & 1 else -w) * v // c2
                    g = g2 = g2 - s2
                    s1 = s12 = s12 - t
                else:
                    if c3:
                        v = c0 + 1
                        w = (-w if v & 1 else w) * v // c3
                    b1 = c0 + c2
                    b2 = c0 + c1
                    b3 = c0
                    g = b1 * b2 - b3
                    if c0:
                        g2 = g
                        s1 = s12 = b2 - 1
                        s2 = b1 - 1
                        t = 1
                acc[g] = get(g, 0) + w
            return sum(w * g ** n for g, w in acc.items()), terms, len(acc)

    Like terms are collected: acc maps each bracket value to the sum of
    the weights of the profiles that have it, and each of its `distinct`
    values is raised to the n-th power once.  That is exact, and cheap
    because the bracket is a polynomial of degree k in block sums of at
    most n, so it takes O(n^k) values over O(n^(q-1)) profiles: 1,081
    over 116,280 at k=3 n=14.  costs holds (adds, mults) per branch, the
    operations `tallies.add_sum_ops` scales up to a whole sum: the full
    bracket, the three differences, a step along class 1 and a step
    along class 2.  The two multiplications of a weight step are not
    among them.
    """
    source, costs = _sum_source(q, bracket)
    return profiles._compiled(source, "direct_sum"), costs


@lru_cache(maxsize=None)
def range_sum(q: int):
    """The one walk over profiles of length q = 2^(k-1) that serves R_k(n) for every n, compiled once.

    `range_sum(s)`, for one s > m = k - 1, returns W_s, a dict from
    gamma to W_s(gamma), from which `_finish` makes the rows
    (R_k(n), terms).  The all-ones class v* = q - 1, every tracked row's
    hall omitted, is in no block sum.  For a profile c of n, write c'
    for c with v* emptied and s = |c'|.  Then g(c) and each shifted
    count G_v(c) depend on c' alone: g(c) = g(c') = gamma, and G_v, for
    v != v*, is g with the block sums that hold class v lowered by one,
    which is `config_count`'s shift of a floor of v into v*.  Only the
    sign, the multinomial and v*'s factor gamma^(n - s) depend on n, and
    splitting them off gives

        R_k(n) = sum over s <= n of C(n, s) (-1)^(m(n-s)) sum_gamma W_s(gamma) gamma^(n-s),

    where W_s(gamma) sums Y(c') = sign(c') s!/prod c'_u! prod G_v(c')^(c'_v),
    over the nonempty classes v != v*, for the c' with |c'| = s and
    g(c') = gamma.  No W_s depends on n.

    The walk is a loop nest that visits only the c' whose G_v are all
    nonzero.  By Hall's theorem G_v(c') = 0 for some nonempty v when a
    nonempty row set T has too few floors open to it, and the nest's
    limits are those conditions, exact (`_hall_bounds`; the tests check
    them profile by profile).  At s = 1..m the set of every row fails,
    so W_s is empty there, and `_finish` calls the walk for s > m only.
    One loop per class T other than 0 and v*, in `_hall_bounds`' order,
    runs c'_T from 0 to the smaller of the floors left and
    s - |T| - 1 - Σ c'_u over the classes u ⊋ T other than v*, and
    class 0 takes the floors left.  Every level carries its own weight,
    from w = 1 at c' = (s, 0, ..., 0), whose sign is +1 and multinomial
    1: a step of T's loop moves a floor from class 0 to T, which
    multiplies the weight by class 0's floors before the move and
    divides it, exactly, by c'_T after it, and flips its sign when |T|
    is odd.  So the leaf's w is sign(c') s!/prod c'_u!, and no factorial
    table is built.  The block sums are carried the same way: every one
    starts at s, and T's loop lowers by c'_T those of the blocks that
    meet T, since its floors left class 0, which is in every block sum,
    for T, which is in none of those.  Class 0's floors are the sum of
    the block of every row.  The leaf folds G_v^(c'_v) for each
    nonempty class v != v* into w and adds the result into acc[gamma].

    The nest has q - 2 loops, and CPython compiles at most 20 nested
    blocks, so each run of `_NEST_LEVELS` levels from the innermost out
    is a function of its own, which the level above calls with what it
    has fixed: from q = 16 on the nest is a chain.  At q = 1 there is no
    class but v*, and the walk returns {}.  At m = 2 the source is

        def range_sum(s):
            acc = {}
            get = acc.get
            w = 1
            w2 = w
            for c2 in range(s - 1):
                b2 = s - c2
                c0_2 = s - c2
                w1 = w2
                for c1 in range(min(c0_2 + 1, s - 1)):
                    b1 = s - c1
                    c0 = c0_2 - c1
                    b3 = c0
                    d1 = b1 - 1
                    d2 = b2 - 1
                    d3 = b3 - 1
                    y = w1
                    if c0:
                        y *= (d1 * d2 - d3) ** c0
                    if c1:
                        y *= (b1 * d2 - b3) ** c1
                    if c2:
                        y *= (d1 * b2 - b3) ** c2
                    key = b1 * b2 - b3
                    acc[key] = get(key, 0) + y
                    w1 = -w1 * c0 // (c1 + 1)
                w2 = -w2 * c0_2 // (c2 + 1)
            return acc

    Nothing here counts operations: `table` and selftest print none.
    """
    return profiles._compiled(_range_source(q), "range_sum")


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
    nonnegative profiles.  m = 0 gives the empty product 1.  The value
    is taken through `operator.index`, so a non-integer entry that g
    reads raises TypeError.  The all-ones class is in no block sum, so
    g never reads it and this check cannot see it there.
    """
    g = _g.get(len(counts))
    if g is None:
        g = _g[len(counts)] = _kernel(len(counts))[0]
    return index(g(counts))


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


@lru_cache(maxsize=None)
def _config(q: int):
    """`config_count` for profiles of length q = 2^m, compiled once from `_config_source(q)`."""
    return profiles._compiled(_config_source(q), "config_count", sys.modules[__name__])


def config_count(counts) -> int:
    """Reduced configurations omitting every hall of a set with this profile.

    The product, over the classes v with c[v] > 0 in class order, of
    `choice_count(shift_profile(c, v)) ** c[v]`: one floor of v, the
    one carrying the column's back-row pick, moves to the all-ones
    class first, so no shifted profile goes negative.  Nonnegative for
    every valid profile.  It runs the code that `_config` compiles once
    per profile length.  That code checks the entries once per call: a
    non-integer one raises TypeError and a negative one ValueError.  It
    writes each shifted profile as a tuple literal and calls
    `choice_count` and `tallies.powered` once per nonempty class, even
    past a zero factor, looking both up in this module at each call, so
    a rebinding of either reaches it.  At q = 4 its source is

        def config_count(c):
            c0, c1, c2, c3 = c
            column_counts.index(sum(c))
            if c0 < 0 or c1 < 0 or c2 < 0 or c3 < 0:
                raise ValueError("profile entries must be nonnegative")
            y = 1
            if c0:
                y *= column_counts.powered(column_counts.choice_count((c0 - 1, c1, c2, c3 + 1)), c0)
            if c1:
                y *= column_counts.powered(column_counts.choice_count((c0, c1 - 1, c2, c3 + 1)), c1)
            if c2:
                y *= column_counts.powered(column_counts.choice_count((c0, c1, c2 - 1, c3 + 1)), c2)
            if c3:
                y *= column_counts.powered(column_counts.choice_count(c), c3)
            return y
    """
    return _config(len(counts))(counts)
