import random
import textwrap
from math import comb, prod

import pytest

from latinrect import column_counts, profiles, tallies
from latinrect.column_counts import (
    _config_source,
    _difference,
    _hall_bounds,
    _kernel,
    _kernel_source,
    _range_source,
    _sum_source,
    block_sum,
    choice_count,
    config_count,
    direct_sum,
    range_sum,
    shift_profile,
)
from latinrect.formulas import reduced_counts
from latinrect.guards import ResourceGuardError
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


@pytest.mark.parametrize("profile", [(1.5, 0, 0, 0), (0, 2.0, 0, 0)])
def test_choice_count_refuses_non_integer_entries(profile):
    with pytest.raises(TypeError):
        choice_count(profile)


def test_choice_count_keeps_integer_values():
    # the index check keeps every integer value, negative entries included
    for profile, value in (((2, 1, 1, 0), 7), ((-1, 2, 0, 1), 0), ((-2, 3, -1, 4), (-2 - 1) * (-2 + 3) - (-2)),
                           ((3, -2), 3), ((5,), 1), ((1,) * 8, injective_tuple_count((1,) * 8))):
        got = choice_count(profile)
        assert type(got) is int and got == value, profile


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
    with pytest.raises(ValueError, match="nonnegative"):
        config_count((3, -1, 0, 0))


@pytest.mark.parametrize("profile", [(1.5, 0, 0, 0), (1.5, -0.5, 0, 0)])
def test_config_count_refuses_non_integer_entries(profile):
    # a float once gave a complex number: the type is checked before the sign
    with pytest.raises(TypeError):
        config_count(profile)


def literal_config_count(profile):
    """The paper's product, built from the public pieces: prod g(c shifted at v) ** c[v]."""
    return prod(choice_count(shift_profile(profile, v)) ** cnt for v, cnt in enumerate(profile) if cnt)


def test_config_count_is_the_literal_product_on_every_small_profile():
    checked = want = 0
    for k, n_top in ((1, 8), (2, 8), (3, 6), (4, 5), (5, 4)):
        for n in range(n_top + 1):
            for profile in compositions(n, k - 1):
                assert config_count(profile) == literal_config_count(profile), profile
                checked += 1
        q = 1 << (k - 1)
        want += comb(n_top + q, q)  # the profiles of length q summing to at most n_top
    assert checked == want


@pytest.mark.parametrize("q", [1 << m for m in range(8)])
def test_config_count_is_the_literal_product_at_every_profile_length(q):
    # zeros, ones and larger entries in every position, and a nonzero all-ones class
    rng = random.Random(q)
    profile = tuple(rng.choice((0, 0, 1, 2, 3)) for _ in range(q - 1)) + (1,)
    assert config_count(profile) == literal_config_count(profile)


def test_config_count_calls_choice_count_and_powered_through_the_module(monkeypatch):
    calls = []

    def spy(name, fn):
        def wrapped(*args):
            calls.append((name, args))
            return fn(*args)
        return wrapped

    monkeypatch.setattr(column_counts, "choice_count", spy("g", choice_count))
    monkeypatch.setattr(column_counts, "powered", spy("power", tallies.powered))
    # (1, 1, 0, 0) has G = 0 at its first class; the second is still taken
    for profile in ((1, 1, 0, 0), (2, 0, 1, 0, 0, 3, 0, 1)):
        calls.clear()
        assert config_count(profile) == literal_config_count(profile)
        nonzero = [v for v, cnt in enumerate(profile) if cnt]
        assert [args for name, args in calls if name == "g"] == [
            (shift_profile(profile, v),) for v in nonzero]
        assert [args[1] for name, args in calls if name == "power"] == [profile[v] for v in nonzero]
    # perfbench's tracer looks up every traced name in this module
    assert column_counts.shift_profile is shift_profile
    assert column_counts.assembly_product is tallies.assembly_product


def test_profiles_past_seven_rows_refuse():
    # 256 classes are 8 rows, whose Bell(8) = 4,140 terms fail to compile
    for count in (choice_count, config_count):
        with pytest.raises(ResourceGuardError, match="would have 4140 terms"):
            count((1,) * 256)


def test_config_count_agrees_with_hall_oracle_spot():
    # no omitted halls, k = 3, n = 4: profile (4,0,0,0)
    assert config_count((4, 0, 0, 0)) == lonely_hall_count(3, 4)


@pytest.mark.parametrize("k,n", [(4, n) for n in (5, 6, 7)] + [(3, n) for n in range(7, 11)])
def test_config_count_agrees_with_hall_oracle_past_its_guard(k, n):
    # past selftest's depth caps; the oracle's cost grows linearly in n
    rng = random.Random(100 * k + n)
    universe = [(row, floor) for row in range(2, k + 1) for floor in range(1, n + 1)]
    for _ in range(20):
        halls = [h for h in universe if rng.random() < 0.5]
        want = lonely_hall_count(k, n, halls)
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
    # the generated sum, which carries sign x multinomial along the walk
    # and collects like terms, against the paper's terms built from the
    # public pieces: sign x multinomial(n; c) x g(c)^n over all k rows,
    # with the number of distinct brackets.  k = 2 to n = 30 takes long
    # runs along classes 1 and 2, and k = 5 the differences of the
    # largest bracket; both have steps along class 2 that leave c0 = 0
    for k, top in ((1, 6), (2, 30), (3, 5), (4, 3), (5, 3)):
        q = 1 << k
        direct = direct_sum(q)[0]
        for n in range(top + 1):
            brackets = [(c, choice_count(c)) for c in compositions(n, k)]
            expected = sum(sign(c) * multinomial(c) * g**n for c, g in brackets)
            distinct = len({g for _, g in brackets})
            want = (expected, comb(n + q - 1, q - 1), distinct)
            assert direct(n) == want, (k, n)
    literal = direct_sum(4, "literal")[0]
    negative_brackets = 0
    for n in range(31):
        expected = 0
        seen = set()
        for c in compositions(n, 2):
            bracket = (c[0] + c[1]) * (c[0] + c[2]) - c[3]
            negative_brackets += bracket < 0
            seen.add(bracket)
            expected += sign(c) * multinomial(c) * bracket**n
        assert literal(n) == (expected, comb(n + 3, 3), len(seen)), n
    assert negative_brackets > 0


def test_direct_sum_refuses_an_unknown_or_misplaced_bracket():
    # the literal bracket names classes 0..3, so it exists at k = 2 only
    for q, bracket in ((4, "inverted"), (8, "Literal"), (2, "literal"), (8, "literal"),
                       (16, "literal")):
        with pytest.raises(ValueError, match="bracket"):
            direct_sum(q, bracket)
    with pytest.raises(ValueError, match="k >= 1"):
        direct_sum(1)


def moved(c, j):
    """c with one floor moved from class 0 to class j."""
    return tuple(x - (u == 0) + (u == j) for u, x in enumerate(c))


def difference(c, s):
    """D_s (`_difference`) evaluated at profile c."""
    m = (len(c) - 1).bit_length()
    total = 0
    for coeff, block_masks in _difference(m, s):
        term = coeff
        for bm in block_masks:
            term *= sum(x for u, x in enumerate(c) if not u & bm)
        total += term
    return total


def test_bracket_steps_by_its_differences_along_classes_1_and_2():
    # what `direct_sum` relies on, at every profile Q with c0 >= 1: g
    # drops by D_1 along class 1 and by D_2 along class 2, D_1 drops by
    # D_3 along class 2 and D_2 along class 1, and a difference does not
    # change along a class whose row it already holds
    checked = 0
    for k, top in ((2, 10), (3, 6), (4, 4), (5, 3)):
        for n in range(1, top + 1):
            for c in compositions(n, k):
                if not c[0]:
                    continue
                d1, d2, d3 = (difference(c, s) for s in (1, 2, 3))
                assert difference(c, 0) == choice_count(c)
                assert choice_count(c) - choice_count(moved(c, 1)) == d1, c
                assert choice_count(c) - choice_count(moved(c, 2)) == d2, c
                assert d1 - difference(moved(c, 2), 1) == d3, c
                assert d2 - difference(moved(c, 1), 2) == d3, c
                assert difference(moved(c, 1), 1) == d1, c
                assert difference(moved(c, 2), 2) == d2, c
                assert difference(moved(c, 1), 3) == difference(moved(c, 2), 3) == d3, c
                checked += 1
    assert checked == 3532

    def literal(c):
        return (c[0] + c[1]) * (c[0] + c[2]) - c[3]

    for n in range(1, 12):
        for c in compositions(n, 2):
            if c[0]:
                assert literal(c) - literal(moved(c, 1)) == c[0] + c[1], c
                assert literal(c) - literal(moved(c, 2)) == c[0] + c[2], c
                assert (c[0] + c[1]) - (moved(c, 2)[0] + moved(c, 2)[1]) == 1, c


def test_direct_bracket_vanishes_exactly_when_hall_fails():
    # g(c) = 0 iff some nonempty row set T has sum_{u ⊇ T} c_u > n - |T|
    # (see `total_count_direct`)
    seen = set()
    for k, top in ((2, 8), (3, 6), (4, 4)):
        q = 1 << k
        supersets = [[u for u in range(q) if u & t == t] for t in range(q)]
        for n in range(top + 1):
            for c in compositions(n, k):
                fails = any(
                    sum(c[u] for u in supersets[t]) > n - t.bit_count() for t in range(1, q)
                )
                assert (choice_count(c) == 0) == fails, (k, n, c)
                seen.add(fails)
    assert seen == {False, True}


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
    # each compiled function's docstring shows its own generator's source
    assert docstring_code(_kernel.__doc__) == [_kernel_source(4)[0]]
    assert docstring_code(direct_sum.__doc__) == [_sum_source(4, "derived")[0]]
    assert docstring_code(config_count.__doc__) == [_config_source(4)]


@pytest.mark.parametrize("q", [1, 2, 4, 8, 16, 32])
def test_range_sum_builds_no_factorial_table_and_walks_no_compositions(q, monkeypatch):
    # the nest carries its weight level by level and never visits a
    # profile whose term is 0, so it tests no factor and counts nothing;
    # its weights W_s are free of the largest n, so it knows no n_max
    m = q.bit_length() - 1
    source = _range_source(q)
    for word in ("fact", "compositions", "continue", "seen", "n_max", "comb"):
        assert word not in source, word

    def refuse(*args):
        raise AssertionError("the nest called a profiles helper")

    monkeypatch.setattr(profiles, "compositions", refuse)
    monkeypatch.setattr(profiles, "factorial_table", refuse)
    # at q = 1 there is no class but v*, so every s > 0 has no weights;
    # the first s past m at q = 32 walks for over 10 s, so there the
    # source alone is checked
    if q <= 16:
        assert bool(range_sum(q)(m + 1)) == (q > 1)


@pytest.mark.parametrize("k, n", [(2, 12), (3, 14), (4, 10), (5, 5)])
def test_hall_bounds_admit_exactly_the_profiles_without_a_zero_factor(k, n):
    # profile by profile over c of n, with c' = c without v* and s = |c'|,
    # so that every c' with s <= n comes once: the nest's loop limits hold
    # exactly when no G_v of a nonempty class v != v* is 0, and W_s sums
    # sign(c') multinomial(c') prod G_v over exactly those c' of s
    m = k - 1
    top = (1 << m) - 1
    bounds = _hall_bounds(m)
    assert sorted(t for t, _ in bounds) == list(range(1, top))
    want = {s: {} for s in range(m + 1, n + 1)}
    admitted = 0
    for c in compositions(n, m):
        s = n - c[top]
        factors = [choice_count(shift_profile(c, v)) ** c[v] for v in range(top) if c[v]]
        within = s == 0 or s > m and all(
            c[t] <= s - t.bit_count() - 1 - sum(c[u] for u in above) for t, above in bounds)
        assert within == all(factors), c
        if within:
            admitted += 1
        if within and s:
            cut = (*c[:top], 0)
            weights = want[s]
            key = choice_count(c)
            weights[key] = weights.get(key, 0) + sign(cut) * multinomial(cut) * prod(factors)
    assert {s: range_sum(1 << m)(s) for s in want} == want
    assert 0 < admitted < comb(n + top, top)


@pytest.mark.parametrize("k, n", [(6, 3), (7, 2)])
def test_range_sum_chains_past_the_nesting_limit(k, n, monkeypatch):
    # 30 and 62 loops: CPython compiles at most 20 nested blocks, so the
    # nest is a chain of functions; the 14 loops at q = 16 already split,
    # as k = 5 runs
    q = 1 << (k - 1)
    assert _range_source(q).count("\ndef ") == (q - 1 + 11) // 12 - 1
    assert _range_source(16).count("\ndef ") == 1
    assert range_sum(q)
    # cut after every other level, the q = 8 nest gives its weights whole
    whole = range_sum(8)
    monkeypatch.setattr(column_counts, "_NEST_LEVELS", 2)
    source = _range_source(8)
    assert source.count("\ndef ") == 3
    chained = profiles._compiled(source, "range_sum")
    for s in range(4, 10):
        assert chained(s) == whole(s), s
    # the walk runs for s = m+1..n only, so rows up to n = m call none
    calls = []
    monkeypatch.setattr(column_counts, "range_sum", lambda q: lambda s: calls.append(s) or {})
    assert reduced_counts(k, n) == [(1, 1), *((0, comb(i + q - 1, i)) for i in range(1, n + 1))]
    assert calls == []
    reduced_counts(3, 6, n_min=6)
    assert calls == [3, 4, 5, 6]


def test_range_sum_docstring_shows_the_generated_source():
    # the first block is the sum the walk evaluates, the last its code
    assert docstring_code(range_sum.__doc__)[-1] == _range_source(4)
