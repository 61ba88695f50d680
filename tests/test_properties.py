"""Property-based checks of the algebraic identities."""

from functools import lru_cache
from math import comb, factorial, log, prod

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from latinrect.column_counts import _kernel, choice_count, config_count, direct_sum
from latinrect.oracle import injective_tuple_count, is_latin, reduce_rectangle
from latinrect.partitions import mobius_coefficient, partitions_of
from latinrect.profiles import class_weight, compositions, multinomial, sign
from latinrect.tallies import OpTally, add_sum_ops, assembly_product, powered


@given(st.integers(min_value=0, max_value=10), st.integers(min_value=0, max_value=2))
def test_multinomials_sum_to_power(n, m):
    assert sum(multinomial(p) for p in compositions(n, m)) == (2**m) ** n


@given(st.integers(min_value=1, max_value=9), st.integers(min_value=1, max_value=3))
def test_signed_multinomials_cancel(n, m):
    assert sum(sign(p) * multinomial(p) for p in compositions(n, m)) == 0


@given(st.integers(min_value=0, max_value=12), st.integers(min_value=0, max_value=3))
def test_composition_count_closed_form(n, m):
    q = 2**m
    assert sum(1 for _ in compositions(n, m)) == comb(n + q - 1, q - 1)


@given(st.integers(min_value=2, max_value=7))
def test_mobius_coefficients_cancel(m):
    assert sum(mobius_coefficient(p) for p in partitions_of(m)) == 0


def profiles_strategy(max_m=3, max_n=5):
    def build(m):
        q = 2**m
        return st.lists(
            st.integers(min_value=0, max_value=max_n), min_size=q, max_size=q
        ).filter(lambda c: sum(c) <= max_n).map(tuple)

    return st.integers(min_value=1, max_value=max_m).flatmap(build)


@settings(max_examples=60)
@given(profiles_strategy())
def test_choice_count_equals_tuple_enumeration(profile):
    assert choice_count(profile) == injective_tuple_count(profile)


def signed_profiles(max_m=4):
    # choice_count takes any integer entries, negative ones included
    return st.integers(min_value=0, max_value=max_m).flatmap(
        lambda m: st.lists(
            st.integers(min_value=-6, max_value=6), min_size=2**m, max_size=2**m
        ).map(tuple)
    )


@lru_cache(maxsize=None)
def reference_expansion(m):
    """g's definition over m rows, listed once: (terms, open classes, adds, mults).

    terms holds each partition's signed coefficient and block bitmasks,
    and open classes maps each distinct block B to the 2^(m - |B|)
    classes that omit none of its rows.  adds and mults are the
    additions and multiplications the definition implies when each
    distinct block sum is added up once.
    """
    q = 1 << m
    terms = [
        (mobius_coefficient(p), [sum(1 << (e - 1) for e in block) for block in p.blocks])
        for p in partitions_of(m)
    ]
    blocks = {bm: [cls for cls in range(q) if not cls & bm] for _, masks in terms for bm in masks}
    adds = sum(len(classes) - 1 for classes in blocks.values()) + len(terms) - 1
    mults = sum(max(len(masks) - 1, 0) + (abs(coeff) != 1) for coeff, masks in terms)
    return terms, blocks, adds, mults


def reference_choice_count(counts):
    """g from its definition: every partition's signed product of block sums.

    Also returns the additions and multiplications of `reference_expansion`.
    """
    terms, blocks, adds, mults = reference_expansion((len(counts) - 1).bit_length())
    sums = {bm: sum(counts[cls] for cls in classes) for bm, classes in blocks.items()}
    return sum(coeff * prod(sums[bm] for bm in masks) for coeff, masks in terms), adds, mults


@settings(max_examples=200)
@given(signed_profiles())
def test_choice_count_matches_partition_reference(profile):
    expected, _, _ = reference_choice_count(profile)
    assert choice_count(profile) == expected


def test_kernel_op_counts_match_partition_reference():
    for m in range(5):
        q = 1 << m
        assert _kernel(q)[1:] == reference_choice_count((0,) * q)[1:], m


@given(signed_profiles())
def test_sign_is_parity_of_weighted_sum(profile):
    weighted = sum(class_weight(cls) * c for cls, c in enumerate(profile))
    assert sign(profile) == (-1) ** (weighted % 2)


@settings(max_examples=60)
@given(profiles_strategy(max_m=2, max_n=6))
def test_config_count_is_nonnegative(profile):
    assert config_count(profile) >= 0


@given(
    st.integers(min_value=-30, max_value=30), st.integers(min_value=0, max_value=40)
)
def test_powered_matches_builtin(base, exp):
    assert powered(base, exp) == base**exp


@st.composite
def shuffled_latin_rectangles(draw):
    n = draw(st.integers(min_value=1, max_value=6))
    k = draw(st.integers(min_value=1, max_value=min(n, 3)))
    # cyclic rectangle, columns then shuffled
    rows = [[(i + j) % n + 1 for j in range(n)] for i in range(k)]
    order = draw(st.permutations(range(n)))
    return tuple(tuple(row[j] for j in order) for row in rows)


@given(shuffled_latin_rectangles())
def test_reduce_is_idempotent_and_sorts_first_row(rect):
    assert is_latin(rect)
    reduced = reduce_rectangle(rect)
    assert is_latin(reduced)
    assert reduced[0] == tuple(range(1, len(rect[0]) + 1))
    assert reduce_rectangle(reduced) == reduced


@st.composite
def sized_profiles(draw, max_n=3000):
    """Profiles of 1, 2, 4 or 8 entries summing to n <= max_n, from q - 1 cuts."""
    q = draw(st.sampled_from([1, 2, 4, 8]))
    n = draw(st.integers(min_value=0, max_value=max_n))
    cuts = sorted(draw(st.lists(st.integers(0, n), min_size=q - 1, max_size=q - 1)))
    counts = [b - a for a, b in zip([0, *cuts], [*cuts, n])]
    return tuple(draw(st.permutations(counts)))


def reference_multinomial(counts):
    return factorial(sum(counts)) // prod(factorial(c) for c in counts)


@settings(max_examples=150)
@given(sized_profiles())
def test_multinomial_matches_factorial_quotient(profile):
    assert multinomial(profile) == reference_multinomial(profile)


@pytest.mark.parametrize(
    "profile",
    [
        (1500, 1500),  # tie for the maximum at n / 2
        (700, 700, 100, 0),  # tie below n / 2
        (0, 3, 3, 3, 3, 0, 3, 0),
        (2999, 1),  # maximum far above n / 2
        (0, 0, 3000, 0),
        (1, 2, 3, 2200, 4, 5, 6, 7),
        (2,),
        (0,),
        (),
    ],
)
def test_multinomial_ties_and_large_maxima(profile):
    assert multinomial(profile) == reference_multinomial(profile)


@st.composite
def profiles_with_a_negative_entry(draw):
    m = draw(st.integers(min_value=0, max_value=3))
    counts = draw(st.lists(st.integers(-20, 20), min_size=2**m, max_size=2**m))
    counts[draw(st.integers(0, 2**m - 1))] = draw(st.integers(-10**6, -1))
    return tuple(counts)


@settings(max_examples=150)
@given(profiles_with_a_negative_entry())
def test_negative_entries_are_rejected_wherever_they_sit(profile):
    with pytest.raises(ValueError):
        multinomial(profile)
    with pytest.raises(ValueError):
        config_count(profile)


def reference_power(base, exp):
    """base**exp by explicit left-to-right binary powering, with its step count."""
    if exp == 0:
        return 1, 0
    acc = base
    steps = 0
    for bit in bin(exp)[3:]:
        acc = acc * acc
        steps += 1
        if bit == "1":
            acc = acc * base
            steps += 1
    return acc, steps


def sum_ops(n, q, cost, distinct=None):
    tally = OpTally()
    add_sum_ops(tally, n, q, cost, distinct)
    return tally


def test_powered_tallies_binary_powering_steps():
    # the reduced sum at q = 1 has one term, one class of n floors, and
    # a free g: its assembly is exactly the powering of g ** n
    for exp in range(4097):
        base = (-3, -2, -1, 0, 1, 5)[exp % 6]
        value, steps = reference_power(base, exp)
        assert powered(base, exp) == value, (base, exp)
        assert sum_ops(exp, 1, (0, 0)) == OpTally(1, 2, steps, max(exp - 1, 0)), exp


@given(st.integers(min_value=-(10**40), max_value=10**40), st.integers(0, 300))
def test_powered_matches_reference_powering(base, exp):
    value, steps = reference_power(base, exp)
    assert powered(base, exp) == value
    assert sum_ops(exp, 1, (0, 0)).mults_assembly == steps


@given(st.lists(st.integers(-(10**30), 10**30), max_size=9))
def test_assembly_product_is_the_product_of_its_factors(values):
    expected = 1
    for v in values:
        expected *= v
    assert assembly_product(values) == expected


def reference_differences(k):
    """The adds and mults of D_1, D_2 and D_3 over k rows, from g's definition.

    D_s sums, over the partitions whose blocks each hold at most one bit
    of s, the coefficient times the sums of the blocks that hold none,
    with like products collected.
    """
    terms, _, _, _ = reference_expansion(k)
    adds = mults = 0
    for s in (1, 2, 3):
        collected = {}
        for coeff, masks in terms:
            if all(bin(bm & s).count("1") <= 1 for bm in masks):
                key = tuple(sorted(bm for bm in masks if not bm & s))
                collected[key] = collected.get(key, 0) + coeff
        live = {key: coeff for key, coeff in collected.items() if coeff}
        adds += max(len(live) - 1, 0)
        # a coefficient other than ±1 is one more factor, and a constant none
        mults += sum(max(len(key) + (abs(coeff) != 1) - 1, 0) for key, coeff in live.items())
    return adds, mults


def reference_direct_costs(k):
    """(adds, mults) per branch of the direct-L sum over k rows, from the definitions.

    The full bracket, its differences, a step along class 1 (g -= s1)
    and one along class 2 (two subtractions); at k = 1 the bracket is
    c0, and no profile steps.
    """
    full = reference_expansion(k)[2:]
    if k == 1:
        return full, (0, 0), (0, 0), (0, 0)
    return full, reference_differences(k), (1, 0), (2, 0)


def test_direct_sum_costs_match_the_definitions():
    for k in range(1, 6):
        assert direct_sum(1 << k)[1] == reference_direct_costs(k), k
    assert direct_sum(4, "literal")[1] == ((3, 1), (0, 0), (1, 0), (2, 0))


def reference_sum_ops(n, m, cost, bracket=None):
    """One sum's op counts, summed term by term over `compositions(n, m)`.

    A reduced term (bracket None) costs q multinomial mults, one mult
    and one add into the sum, and per nonzero class one g (cost is its
    (adds, mults)), its power and, past the first class, one assembly
    step.  A direct-L term costs the branch it takes (cost is the
    (adds, mults) of the full bracket, the differences, a class-1 step
    and a class-2 step): past k = 1, a profile with c1 >= 1 steps along
    class 1, else one with c2 >= 1 along class 2, else it takes the full
    bracket, and the differences too if c0 >= 1.  It also costs one add
    into its bracket's sum; each step of the walk after the first
    profile costs two mults for the weight; each distinct value of
    `bracket` over the profiles costs the power g ** n, one mult by its
    summed weight and, past the first, one add into the total.  Returns
    the tally and the number D of distinct brackets (None for the
    reduced sum).
    """
    q = 1 << m
    steps = [reference_power(1, exp)[1] for exp in range(n + 1)]
    tally = OpTally()
    values = set()
    for i, profile in enumerate(compositions(n, m)):
        if bracket:
            full, differences, class1, class2 = cost
            if q > 2 and profile[1]:
                branches = [class1]
            elif q > 2 and profile[2]:
                branches = [class2]
            elif q > 2 and profile[0]:
                branches = [full, differences]
            else:
                branches = [full]
            values.add(bracket(profile))
            tally.adds += sum(adds for adds, _ in branches) + 1
            tally.mults_inner += sum(mults for _, mults in branches) + (2 if i else 0)
            tally.mults_assembly_naive += max(n - 1, 0)
        else:
            adds, mults = cost
            used = [c for c in profile if c]
            extra = max(len(used) - 1, 0)
            tally.adds += 1 + adds * len(used)
            tally.mults_inner += q + 1 + mults * len(used)
            tally.mults_assembly += sum(steps[c] for c in used) + extra
            tally.mults_assembly_naive += sum(used) - len(used) + extra
    if not bracket:
        return tally, None
    distinct = len(values)
    tally.adds += distinct - 1
    tally.mults_inner += distinct
    tally.mults_assembly += steps[n] * distinct
    return tally, distinct


def test_sum_ops_equals_the_per_term_reference():
    # k = 1..5 at n <= 8 and k = 2 at n <= 60, except where the walks
    # pass about 10^5 profiles: reduced k = 5 stops at n = 7, and
    # direct-L k = 2 at n = 30, k = 4 at n = 6 and k = 5 at n = 3
    literal = (lambda c: (c[0] + c[1]) * (c[0] + c[2]) - c[3], ((3, 1), (0, 0), (1, 0), (2, 0)))
    last_n = {1: 8, 2: 60, 3: 8, 4: 8, 5: 7}
    last_direct_n = {1: 8, 2: 30, 3: 8, 4: 6, 5: 3}
    for k in range(1, 6):
        m = k - 1
        cost = reference_choice_count((0,) * (1 << m))[1:]
        for n in range(last_n[k] + 1):
            want, _ = reference_sum_ops(n, m, cost)
            assert sum_ops(n, 1 << m, cost) == want, (k, n)
        derived = (lambda c: reference_choice_count(c)[0], reference_direct_costs(k))
        brackets = [derived, literal] if k == 2 else [derived]
        for bracket, cost in brackets:
            for n in range(last_direct_n[k] + 1):
                want, distinct = reference_sum_ops(n, k, cost, bracket)
                got = sum_ops(n, 1 << k, cost, distinct)
                assert got == want, (k, n, cost)


def test_op_count_slopes_from_the_rule_alone_at_every_k():
    # the paper's order n^(2^(k-1)) at k = 2..8, from `add_sum_ops` and
    # each compiled g's cost, without evaluating a sum: the log-slope of
    # a count from n to 2n is its exponent in n, up to lower-order terms
    n = 10**4
    for k in range(2, 9):
        q = 1 << (k - 1)
        cost = _kernel(q)[1:]
        at_n, at_2n = sum_ops(n, q, cost), sum_ops(2 * n, q, cost)
        naive = log(at_2n.mults_assembly_naive / at_n.mults_assembly_naive, 2)
        assert abs(naive - q) <= 0.005 * q, (k, naive)
        # binary powering puts every add and mult together about
        # n / log n under the naive model (measured: +0.11 at k = 2 to
        # -0.57 at k = 8); a per-term cost that grew with n would not be
        total = [t.adds + t.mults_inner + t.mults_assembly for t in (at_n, at_2n)]
        actual = log(total[1] / total[0], 2)
        assert abs(actual - (q - 1)) <= 0.6, (k, actual)
