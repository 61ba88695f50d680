"""Property-based checks of the algebraic identities."""

from math import comb

from hypothesis import given, settings
from hypothesis import strategies as st

from latinrect.column_counts import block_sum, choice_count, config_count
from latinrect.oracle import injective_tuple_count, is_latin, reduce_rectangle
from latinrect.partitions import mobius_coefficient, partitions_of
from latinrect.profiles import class_weight, compositions, multinomial, sign
from latinrect.tallies import OpTally, powered


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
