import random
import textwrap

import pytest

from latinrect.column_counts import (
    _kernel,
    _kernel_source,
    _term_source,
    block_sum,
    choice_count,
    config_count,
    direct_term,
    shift_profile,
)
from latinrect.oracle import injective_tuple_count, lonely_hall_count, profile_of
from latinrect.profiles import compositions, multinomial, sign

# m = 3 profile with two floors fully open, one with each single row omitted
# pattern as written t000=2, t010=1, t001=1, t011=1 -> class indices 0,2,4,6
T3 = (2, 0, 1, 0, 1, 0, 1, 0)


def test_block_sum_examples():
    assert block_sum(T3, {1}) == 5
    assert block_sum(T3, {1, 2}) == 3
    assert block_sum(T3, {1, 2, 3}) == 2


def test_block_sum_validation():
    with pytest.raises(ValueError):
        block_sum(T3, set())
    with pytest.raises(ValueError):
        block_sum(T3, {4})
    with pytest.raises(ValueError):
        block_sum((1, 2, 3), {1})  # not a power-of-two profile


def test_choice_count_direct_substitution():
    assert choice_count((2, 1, 1, 0)) == 7  # (2+1)(2+1) - 2
    assert choice_count((1, 0, 0, 0)) == 0
    assert choice_count((3, 2)) == 3
    assert choice_count((5,)) == 1  # no tracked rows: empty product


def test_choice_count_all_zero_profiles():
    assert choice_count((0,)) == 1
    assert choice_count((0, 0)) == 0
    assert choice_count((0, 0, 0, 0)) == 0


def test_choice_count_matches_tuple_enumeration():
    for m in (1, 2, 3):
        for n in range(6):
            for profile in compositions(n, m):
                assert choice_count(profile) == injective_tuple_count(profile), profile


def test_choice_count_matches_tuple_enumeration_four_rows():
    # exercises the 4-block partition coefficient: a wrong value shows up here
    for profile in ((5, 0) + (0,) * 14, (2, 1, 1, 0, 1, 0, 0, 0) + (0,) * 8):
        assert choice_count(profile) == injective_tuple_count(profile)


def test_falling_factorial_specialization():
    for m in range(5):
        q = 1 << m
        for n in range(13):
            expected = 1
            for i in range(m):
                expected *= n - i
            assert choice_count((n,) + (0,) * (q - 1)) == expected


def test_choice_count_accepts_negative_entries():
    assert choice_count((-1, 2, 0, 1)) == (-1 + 0) * (-1 + 2) - (-1)


def test_shift_profile():
    assert shift_profile((3, 1, 0, 1), 0) == (2, 1, 0, 2)
    assert shift_profile((3, 1, 0, 1), 3) == (3, 1, 0, 1)
    assert shift_profile((0, 2, 0, 0), 1) == (0, 1, 0, 1)
    with pytest.raises(ValueError):
        shift_profile((0, 2, 0, 0), 0)
    with pytest.raises(ValueError):
        shift_profile((1, 1), 2)


def test_config_count_two_row_values():
    assert config_count((3, 0)) == 8  # (n-1)^n at n=3
    assert config_count((3, 1)) == 24  # 2^3 * 3
    assert config_count((2, 2)) == 4  # 1^2 * 2^2


def test_config_count_matches_ryser_term():
    for n in range(11):
        for r in range(n + 1):
            expected = (n - r) ** r * (n - r - 1) ** (n - r)
            assert config_count((n - r, r)) == expected


def test_config_count_nonnegative():
    for m in (1, 2):
        for n in range(6):
            for profile in compositions(n, m):
                assert config_count(profile) >= 0


def test_config_count_rejects_negative_entries():
    with pytest.raises(ValueError):
        config_count((2, -1, 1, 0))


def test_config_count_agrees_with_hall_oracle_spot():
    # no omitted halls, k = 3, n = 4: profile (4,0,0,0)
    assert config_count((4, 0, 0, 0)) == lonely_hall_count(3, 4)


@pytest.mark.parametrize("k,n", [(4, n) for n in (5, 6, 7)] + [(3, n) for n in range(7, 11)])
def test_config_count_agrees_with_hall_oracle_past_its_guard(k, n):
    # the oracle's cost grows linearly in n, so its guard can be raised
    rng = random.Random(100 * k + n)
    universe = [(row, floor) for row in range(2, k + 1) for floor in range(1, n + 1)]
    for _ in range(20):
        halls = [h for h in universe if rng.random() < 0.5]
        want = lonely_hall_count(k, n, halls, max_k=k, max_n=n)
        assert config_count(profile_of(halls, k, n)) == want, sorted(halls)


def test_every_term_vanishes_when_n_is_below_k():
    # Hall's condition fails for T = rows 2..k (see `reduced_count`), so
    # G is zero on every profile, not only in the signed sum
    checked = 0
    for k in range(2, 6):
        for n in range(1, k):
            for profile in compositions(n, k - 1):
                assert config_count(profile) == 0, (k, n, profile)
                checked += 1
    assert checked == 5024


def test_direct_term_is_signed_multinomial_times_powered_bracket():
    # the generated term against the paper's term, built from the public
    # pieces: sign x multinomial(n; c) x g(c)^n over all k rows
    negative_brackets = 0
    for k, top in ((1, 6), (2, 8), (3, 5), (4, 3)):
        term = direct_term(1 << k)[0]
        for n in range(top + 1):
            for c in compositions(n, k):
                expected = sign(c) * multinomial(c) * choice_count(c) ** n
                assert term(c, n) == expected, (k, n, c)
    literal = direct_term(4, "literal")[0]
    for n in range(9):
        for c in compositions(n, 2):
            bracket = (c[0] + c[1]) * (c[0] + c[2]) - c[3]
            negative_brackets += bracket < 0
            assert literal(c, n) == sign(c) * multinomial(c) * bracket**n, (n, c)
    assert negative_brackets > 0


def docstring_code(doc):
    """The code blocks of a docstring: its runs of lines indented past the prose."""
    blocks, current = [], []
    for line in doc.splitlines() + [""]:
        if line.startswith(" " * 8):
            current.append(line)
        elif current:
            blocks.append(textwrap.dedent("\n".join(current)))
            current = []
    return blocks


def test_kernel_docstring_shows_the_generated_source():
    assert docstring_code(_kernel.__doc__) == [
        _kernel_source(4)[0],
        _term_source(4, "derived")[0],
    ]
