import ast
import itertools
import random
import time
from collections import Counter
from math import factorial
from pathlib import Path

import pytest

import latinrect.oracle as oracle
from latinrect.column_counts import config_count
from latinrect.formulas import reduced_count
from latinrect.guards import ResourceGuardError
from latinrect.oracle import (
    brute_force_count,
    hall_sets,
    is_latin,
    lonely_hall_count,
    profile_of,
    reduce_rectangle,
)

SQUARE_3 = ((1, 2, 3), (2, 3, 1), (3, 1, 2))
RECT_3x5 = ((1, 3, 2, 5, 4), (2, 1, 4, 3, 5), (5, 2, 1, 4, 3))


def permutation_filter_count(k, n):
    """Ground truth by filtering products of permutations of the later rows."""
    first = tuple(range(1, n + 1))
    count = 0
    perms = list(itertools.permutations(first))
    for rest in itertools.product(perms, repeat=k - 1):
        rows = (first,) + rest
        if all(len(set(col)) == k for col in zip(*rows)):
            count += 1
    return count


def row_mask_count(k, n):
    """Reference column search: concrete symbols, memo on sorted row masks.

    Rows 2..k are filled one column at a time against the first row
    1..n, one used-symbol bitmask per row; states whose masks agree up
    to the order of rows 2..k share their completions.  Symbols are
    never grouped by type, so it checks the oracle's type-count memo.
    """
    if k == 1:
        return 1
    full = (1 << n) - 1
    m = k - 1
    memo = {}

    def fill(masks):
        j = masks[0].bit_count()  # columns filled so far
        if j == n:
            return 1
        if masks in memo:
            return memo[masks]
        total = 0

        def cell(i, colmask, acc):
            nonlocal total
            if i == m:
                total += fill(tuple(sorted(acc)))
                return
            avail = full & ~masks[i] & ~colmask
            while avail:
                b = avail & -avail
                avail ^= b
                cell(i + 1, colmask | b, acc + (masks[i] | b,))

        cell(0, 1 << j, ())
        memo[masks] = total
        return total

    return fill((0,) * m)


def every_configuration_count(k, n, halls=()):
    """Reference hall count: every configuration visited one at a time.

    Fills columns left to right and re-runs the search of column j+1 for
    every pick tuple of column j, so its cost is the count itself.  It
    never multiplies column counts, so it checks the oracle's product.
    """
    full = (1 << n) - 1
    blocked = [0] * (k + 1)
    for row, floor in halls:
        blocked[row] |= 1 << (floor - 1)

    def column(j):
        if j == n:
            return 1
        total = 0

        def pick(i, colmask):
            nonlocal total
            if i > k:
                total += column(j + 1)
                return
            avail = full & ~blocked[i] & ~colmask
            while avail:
                b = avail & -avail
                avail ^= b
                pick(i + 1, colmask | b)

        pick(2, 1 << j)
        return total

    return column(0)


def test_is_latin_examples():
    assert is_latin(SQUARE_3)
    assert is_latin(RECT_3x5)
    assert not is_latin(((1, 2), (1, 2)))
    assert is_latin(())  # vacuous


def test_is_latin_rejects_malformed_cells():
    with pytest.raises(ValueError):
        is_latin(((1, 2), (0, 1)))
    with pytest.raises(ValueError):
        is_latin(((1, 2), (3, 1)))
    with pytest.raises(ValueError):
        is_latin(((1, 2), (1,)))


def indicator_tensor(rows):
    """0-1 tensor T[i][j][l] = 1 iff rows[i][j] == l + 1 (a derived view).

    Lets a test assert the three defining conditions verbatim: exactly
    one room per shaft, at most one per hall, at most one per corridor.
    """
    n = len(rows[0])
    return tuple(tuple(tuple(1 if v == l + 1 else 0 for l in range(n)) for v in r) for r in rows)


def test_indicator_tensor_conditions():
    tensor = indicator_tensor(RECT_3x5)
    k, n = 3, 5
    for i in range(k):
        for j in range(n):
            assert sum(tensor[i][j][l] for l in range(n)) == 1  # one per shaft
    for i in range(k):
        for l in range(n):
            assert sum(tensor[i][j][l] for j in range(n)) <= 1  # one per hall
    for j in range(n):
        for l in range(n):
            assert sum(tensor[i][j][l] for i in range(k)) <= 1  # one per corridor


def test_reduce_examples():
    assert reduce_rectangle(RECT_3x5) == (
        (1, 2, 3, 4, 5),
        (2, 4, 1, 5, 3),
        (5, 1, 2, 3, 4),
    )
    assert reduce_rectangle(SQUARE_3) == SQUARE_3
    assert reduce_rectangle(((2, 1), (1, 2))) == ((1, 2), (2, 1))


def test_reduce_is_idempotent_and_latin_preserving():
    once = reduce_rectangle(RECT_3x5)
    assert is_latin(once)
    assert reduce_rectangle(once) == once
    with pytest.raises(ValueError):
        reduce_rectangle(((1, 2), (1, 2)))


@pytest.mark.parametrize("k,n", [(k, n) for k in (1, 2, 3) for n in range(1, 6)] + [(4, n) for n in range(1, 5)])
def test_brute_force_matches_permutation_filter(k, n):
    assert brute_force_count(k, n) == permutation_filter_count(k, n)


@pytest.mark.parametrize("k,n", [(k, n) for k in range(1, 5) for n in range(7)])
def test_brute_force_matches_row_mask_search(k, n):
    assert brute_force_count(k, n) == row_mask_count(k, n)


def test_brute_force_examples():
    assert brute_force_count(2, 4) == 9
    assert brute_force_count(3, 3) == 2
    assert brute_force_count(1, 3, "total") == 6
    assert brute_force_count(3, 4, "total") == factorial(4) * brute_force_count(3, 4)
    assert brute_force_count(3, 0) == 1


def test_brute_force_guard():
    with pytest.raises(ResourceGuardError):
        brute_force_count(5, 5)
    with pytest.raises(ResourceGuardError):
        brute_force_count(3, 8)
    assert brute_force_count(5, 5, max_k=5) == 1344  # guard is configurable
    # a raised k guard still refuses the memo's relabeling tables past k=7
    assert brute_force_count(7, 4, max_k=7) == 0
    with pytest.raises(ResourceGuardError, match="7! row relabelings"):
        brute_force_count(8, 3, max_k=8)
    with pytest.raises(ValueError):
        brute_force_count(0, 3)
    with pytest.raises(ValueError):
        brute_force_count(2, 2, "sideways")


@pytest.mark.parametrize(
    "k,n,value",
    [
        (3, 8, 70299264),
        (3, 9, 5792853248),  # OEIS A000186
        (4, 7, 155185920),  # OEIS A000573
    ],
)
def test_brute_force_up_to_n9_matches_the_formula(k, n, value):
    assert brute_force_count(k, n, max_n=n) == reduced_count(k, n).value == value


def test_brute_force_past_the_default_guard():
    assert brute_force_count(4, 8, max_n=8) == reduced_count(4, 8).value == 88390995840
    assert brute_force_count(5, 6, max_k=5) == reduced_count(5, 6).value == 1128960
    # an (n-1)-by-n rectangle completes uniquely to a square, so
    # R_{n-1}(n) = R_n(n) = (Latin squares of order n) / n!  (OEIS A002860):
    # 812,851,200 / 6! and 61,479,419,904,000 / 7!
    assert brute_force_count(6, 6, max_k=6) == 1128960
    assert brute_force_count(6, 7, max_k=6) == 12198297600


def test_oracle_imports_nothing_from_the_formula_side():
    # agreement with the profile sum is evidence only while no code is shared
    tree = ast.parse(Path(oracle.__file__).read_text())
    imported = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            imported.update(alias.name for alias in node.names)
        elif isinstance(node, ast.ImportFrom):
            module = node.module or ""
            imported.add(module)
            imported.update(f"{module}.{alias.name}" for alias in node.names)
    forbidden = {"profiles", "column_counts", "formulas", "partitions", "expressions"}
    assert not {part for name in imported for part in name.split(".")} & forbidden
    assert "guards" in imported


def definition_counts(k, n):
    """Reference hall counts straight from the definition, for every hall set.

    Visits every configuration of rows 2..k, each row any n-tuple of
    floors.  One whose columns are distinct, back pick included, is
    tallied under the set of halls it uses; it counts for a hall set
    exactly when it uses none of that set's halls.
    """
    floors = range(1, n + 1)
    used = Counter()
    for rows in itertools.product(itertools.product(floors, repeat=n), repeat=k - 1):
        if all(len(set(col)) == k for col in zip(floors, *rows)):
            used[frozenset((i, f) for i, row in enumerate(rows, 2) for f in row)] += 1
    return {halls: sum(c for u, c in used.items() if not u & halls) for halls in hall_sets(k, n)}


@pytest.mark.parametrize("k,n", [(k, n) for k in (1, 2, 3, 4) for n in range(4)] + [(2, 4), (3, 4)])
def test_lonely_hall_matches_its_definition_on_every_hall_set(k, n):
    for halls, want in definition_counts(k, n).items():
        assert lonely_hall_count(k, n, halls) == want, sorted(halls)


def test_lonely_hall_examples():
    assert lonely_hall_count(2, 3) == 8
    assert lonely_hall_count(2, 4, {(2, 2)}) == 24
    assert lonely_hall_count(2, 4, {(2, 1), (2, 2)}) == 4
    assert lonely_hall_count(2, 5, {(2, 1), (2, 2)}) == 72


@pytest.mark.parametrize("k,n", [(k, n) for k in (1, 2, 3) for n in range(5)])
def test_lonely_hall_matches_every_configuration_on_every_hall_set(k, n):
    for halls in hall_sets(k, n):
        assert lonely_hall_count(k, n, halls) == every_configuration_count(k, n, halls)


@pytest.mark.parametrize("n", [5, 6])
def test_lonely_hall_matches_every_configuration_on_random_hall_sets(n):
    # the reference's cost is the count, up to 20^6 with no halls at n=6;
    # each row omitting half its floors keeps every count under 9^6
    rng = random.Random(n)
    for _ in range(50):
        halls = {(row, floor) for row in (2, 3) for floor in rng.sample(range(1, n + 1), n // 2)}
        assert lonely_hall_count(3, n, halls) == every_configuration_count(3, n, halls), sorted(halls)


def test_lonely_hall_guard_and_validation():
    # the pick bound is the only guard on k and n
    assert lonely_hall_count(4, 3) == 0
    assert lonely_hall_count(2, 7) == 6**7
    with pytest.raises(ResourceGuardError):
        lonely_hall_count(3, 1000)
    with pytest.raises(ValueError):
        lonely_hall_count(2, 3, {(1, 1)})  # back halls never omitted
    with pytest.raises(ValueError):
        lonely_hall_count(2, 3, {(2, 4)})


def test_lonely_hall_pick_bound_is_exact(monkeypatch):
    # k=4 n=7 visits 6*5 = 30 picks of rows 2..3 in each of its 7 columns
    # and counts row 4's 4 floors after each, 120 tuples per column
    monkeypatch.setattr(oracle, "ENUMERATION_MAX", 210)
    assert lonely_hall_count(4, 7) == 120**7
    monkeypatch.setattr(oracle, "ENUMERATION_MAX", 209)
    with pytest.raises(ResourceGuardError, match="more than 209 picks"):
        lonely_hall_count(4, 7)
    # a pick counts once per word of its floor mask: 2 words at n=65,
    # so 2 * 65 * 64 picks of row 2 at k=3
    monkeypatch.setattr(oracle, "ENUMERATION_MAX", 8320)
    assert lonely_hall_count(3, 65) == (64 * 63) ** 65
    monkeypatch.setattr(oracle, "ENUMERATION_MAX", 8319)
    with pytest.raises(ResourceGuardError, match="more than 8319 picks"):
        lonely_hall_count(3, 65)
    # the largest n the default bound admits at k = 6..9, e.g. 27 * 26 *
    # 25 * 24 * 23 = 9,687,600 picks at k=6; no column is counted here
    monkeypatch.setattr(oracle, "ENUMERATION_MAX", 10**7)
    monkeypatch.setattr(oracle, "_column_count", lambda *args: 1)
    for k, n in ((6, 27), (7, 17), (8, 13), (9, 11)):
        assert lonely_hall_count(k, n, {(2, 1)}) == 1, (k, n)
        start = time.perf_counter()
        with pytest.raises(ResourceGuardError, match="more than 10000000 picks"):
            lonely_hall_count(k, n + 1, {(2, 1)})
        assert time.perf_counter() - start < 1.0, (k, n + 1)


def test_lonely_hall_counts_six_rows_without_a_guard():
    # 10 * 9 * 8 * 7 * 6 = 30,240 picks; no k or n cap stands in the way
    rng = random.Random(610)
    universe = [(row, floor) for row in range(2, 7) for floor in range(1, 11)]
    halls = [h for h in universe if rng.random() < 0.3]
    assert lonely_hall_count(6, 10, halls) == config_count(profile_of(halls, 6, 10))


def test_lonely_hall_digit_bound_is_exact():
    # with no hall, k=2 n=11 is 10^11, 12 digits; the bound 11 log10(10) is exact
    assert lonely_hall_count(2, 11, max_digits=12) == 10**11
    with pytest.raises(ResourceGuardError, match="may pass 11 decimal digits"):
        lonely_hall_count(2, 11, max_digits=11)
    assert lonely_hall_count(4, 3, max_digits=1) == 0  # k > n: no column fits


def test_lonely_hall_dominates_latin_count():
    for k, n in ((2, 3), (2, 4), (3, 3), (3, 4)):
        assert lonely_hall_count(k, n) >= brute_force_count(k, n)


def test_lonely_hall_configs_restricted_to_permutation_rows_are_latin():
    # k = 2: filter second rows that are permutations out of all configurations
    for n in (3, 4):
        floors = range(1, n + 1)
        total = 0
        latin = 0
        for row in itertools.product(*[[f for f in floors if f != j] for j in floors]):
            total += 1
            if len(set(row)) == n:
                latin += 1
        assert total == lonely_hall_count(2, n)
        assert latin == brute_force_count(2, n)


def test_profile_of_examples():
    assert profile_of((), 2, 4) == (4, 0)
    assert profile_of({(2, 1), (3, 1)}, 3, 3) == (2, 0, 0, 1)
    assert profile_of({(2, 1), (3, 2)}, 3, 4) == (2, 1, 1, 0)


def test_profile_of_costs_follow_the_halls_not_n():
    start = time.perf_counter()
    assert profile_of((), 3, 10**7) == (10**7, 0, 0, 0)
    assert profile_of({(2, 5), (3, 5), (3, 10**7)}, 3, 10**7) == (10**7 - 2, 0, 1, 1)
    assert time.perf_counter() - start < 1.0


def test_equal_profiles_give_equal_counts():
    for k, n in ((2, 4), (3, 3)):
        by_profile = {}
        for halls in hall_sets(k, n):
            value = lonely_hall_count(k, n, halls)
            key = profile_of(halls, k, n)
            assert by_profile.setdefault(key, value) == value


def test_hall_sets_enumeration():
    sets = list(hall_sets(3, 2))
    assert len(sets) == 16
    assert len(set(sets)) == 16


def test_inclusion_exclusion_identity_small():
    for k, n in ((2, 3), (2, 4), (3, 3)):
        acc = 0
        for halls in hall_sets(k, n):
            acc += (-1) ** len(halls) * lonely_hall_count(k, n, halls)
        assert acc == brute_force_count(k, n)
