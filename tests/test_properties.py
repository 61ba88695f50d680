"""Property-based checks of the algebraic identities."""

from math import comb, factorial, prod

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from latinrect.column_counts import _kernel, choice_count, config_count
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


def reference_choice_count(counts):
    """g from its definition: every partition's signed product of block sums.

    Also returns the additions and multiplications that definition
    implies when each distinct block sum is added up once: a block B
    sums the 2^(m - |B|) classes that omit none of its rows.
    """
    m = (len(counts) - 1).bit_length()
    sums = {}
    total = adds = mults = 0
    for p in partitions_of(m):
        coeff = mobius_coefficient(p)
        term = 1
        for block in p.blocks:
            if block not in sums:
                rows = sum(1 << (e - 1) for e in block)
                sums[block] = sum(c for cls, c in enumerate(counts) if not cls & rows)
                adds += (1 << (m - len(block))) - 1
            term *= sums[block]
        total += coeff * term
        mults += max(len(p.blocks) - 1, 0) + (abs(coeff) != 1)
    adds += len(partitions_of(m)) - 1
    return total, adds, mults


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


def sum_ops(n, q, adds, mults, direct=False):
    tally = OpTally()
    add_sum_ops(tally, n, q, adds, mults, direct)
    return tally


def test_powered_tallies_binary_powering_steps():
    # the reduced sum at q = 1 has one term, one class of n floors, and
    # a free g: its assembly is exactly the powering of g ** n
    for exp in range(4097):
        base = (-3, -2, -1, 0, 1, 5)[exp % 6]
        value, steps = reference_power(base, exp)
        assert powered(base, exp) == value, (base, exp)
        assert sum_ops(exp, 1, 0, 0) == OpTally(1, 2, steps, max(exp - 1, 0)), exp


@given(st.integers(min_value=-(10**40), max_value=10**40), st.integers(0, 300))
def test_powered_matches_reference_powering(base, exp):
    value, steps = reference_power(base, exp)
    assert powered(base, exp) == value
    assert sum_ops(exp, 1, 0, 0).mults_assembly == steps


@given(st.lists(st.integers(-(10**30), 10**30), max_size=9))
def test_assembly_product_is_the_product_of_its_factors(values):
    expected = 1
    for v in values:
        expected *= v
    assert assembly_product(values) == expected


def reference_sum_ops(n, m, adds, mults, direct):
    """One sum's op counts, summed term by term over `compositions(n, m)`.

    A reduced term costs q multinomial mults, one mult and one add into
    the sum, and per nonzero class one g, its power and, past the first
    class, one assembly step.  A direct-L term costs the bracket, one
    add and one mult into the sum and the power g ** n; each step of
    the walk after the first profile costs two mults for the weight.
    """
    q = 1 << m
    steps = [reference_power(1, exp)[1] for exp in range(n + 1)]
    tally = OpTally()
    for i, profile in enumerate(compositions(n, m)):
        if direct:
            used, extra = [n] if n else [], 0
            tally.adds += adds + 1
            tally.mults_inner += mults + 1 + (2 if i else 0)
        else:
            used = [c for c in profile if c]
            extra = max(len(used) - 1, 0)
            tally.adds += 1 + adds * len(used)
            tally.mults_inner += q + 1 + mults * len(used)
        tally.mults_assembly += sum(steps[c] for c in used) + extra
        tally.mults_assembly_naive += sum(used) - len(used) + extra
    return tally


def test_sum_ops_equals_the_per_term_reference():
    # k = 1..5 at n <= 8 and k = 2 at n <= 60, except where the walks
    # pass about 10^5 profiles: reduced k = 5 stops at n = 7, and
    # direct-L k = 2 at n = 30, k = 4 at n = 6 and k = 5 at n = 3
    literal = (3, 1)  # (c0 + c1)(c0 + c2) - c3: three adds, one mult
    last_n = {1: 8, 2: 60, 3: 8, 4: 8, 5: 7}
    last_direct_n = {1: 8, 2: 30, 3: 8, 4: 6, 5: 3}
    for k in range(1, 6):
        m = k - 1
        _, adds, mults = reference_choice_count((0,) * (1 << m))
        for n in range(last_n[k] + 1):
            want = reference_sum_ops(n, m, adds, mults, False)
            assert sum_ops(n, 1 << m, adds, mults) == want, (k, n)
        brackets = [reference_choice_count((0,) * (1 << k))[1:]]
        if k == 2:
            brackets.append(literal)
        for adds, mults in brackets:
            for n in range(last_direct_n[k] + 1):
                want = reference_sum_ops(n, k, adds, mults, True)
                assert sum_ops(n, 1 << k, adds, mults, True) == want, (k, n, adds, mults)
