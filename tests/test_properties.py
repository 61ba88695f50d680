"""Property-based checks of the algebraic identities."""

from math import comb, factorial, prod

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from latinrect.column_counts import block_sum, choice_count, config_count
from latinrect.oracle import injective_tuple_count, is_latin, reduce_rectangle
from latinrect.partitions import mobius_coefficient, partitions_of
from latinrect.profiles import class_weight, compositions, multinomial, sign
from latinrect.tallies import OpTally, assembly_product, powered


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

    Also returns the tally that definition implies when each distinct
    block sum is added up once.
    """
    m = (len(counts) - 1).bit_length()
    tally = OpTally()
    sums = {}
    total = 0
    for p in partitions_of(m):
        coeff = mobius_coefficient(p)
        term = 1
        for block in p.blocks:
            if block not in sums:
                sums[block] = block_sum(counts, set(block), tally)
            term *= sums[block]
        total += coeff * term
        tally.mults_inner += max(len(p.blocks) - 1, 0) + (abs(coeff) != 1)
    tally.adds += len(partitions_of(m)) - 1
    return total, tally


@settings(max_examples=200)
@given(signed_profiles())
def test_choice_count_matches_partition_reference(profile):
    expected, expected_tally = reference_choice_count(profile)
    tally = OpTally()
    assert choice_count(profile, tally) == expected
    assert tally == expected_tally


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
    tally = OpTally()
    assert multinomial(profile, tally) == reference_multinomial(profile)
    assert tally == OpTally(mults_inner=len(profile))


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
    tally = OpTally()
    assert multinomial(profile, tally) == reference_multinomial(profile)
    assert tally.mults_inner == len(profile)


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


def test_powered_tallies_binary_powering_steps():
    for exp in range(4097):
        base = (-3, -2, -1, 0, 1, 5)[exp % 6]
        value, steps = reference_power(base, exp)
        tally = OpTally()
        assert powered(base, exp, tally) == value, (base, exp)
        assert tally == OpTally(mults_assembly=steps, mults_assembly_naive=max(exp - 1, 0))


@given(st.integers(min_value=-(10**40), max_value=10**40), st.integers(0, 300))
def test_powered_matches_reference_powering(base, exp):
    value, steps = reference_power(base, exp)
    tally = OpTally()
    assert powered(base, exp, tally) == value
    assert tally.mults_assembly == steps


@given(st.lists(st.integers(-(10**30), 10**30), max_size=9))
def test_assembly_product_tallies_one_step_per_factor_after_the_first(values):
    expected = 1
    for v in values:
        expected *= v
    tally = OpTally()
    assert assembly_product(values, tally) == expected
    steps = max(len(values) - 1, 0)
    assert tally == OpTally(mults_assembly=steps, mults_assembly_naive=steps)
