import sys
import textwrap
from concurrent.futures import ThreadPoolExecutor
from math import comb, factorial

import pytest

from latinrect import profiles
from latinrect.guards import ResourceGuardError
from latinrect.profiles import (
    class_label,
    class_weight,
    compositions,
    factorial_table,
    multinomial,
    sign,
)


def test_two_class_compositions_order_golden():
    assert list(compositions(2, 1)) == [(2, 0), (1, 1), (0, 2)]


def test_composition_counts():
    assert len(list(compositions(3, 2))) == 20
    assert len(list(compositions(5, 1))) == 6
    for m in range(4):
        for n in range(9):
            q = 1 << m
            assert len(list(compositions(n, m))) == comb(n + q - 1, q - 1)


def test_compositions_are_colexicographic_and_distinct():
    for n, m in ((4, 2), (3, 3), (6, 1)):
        seen = list(compositions(n, m))
        assert len(set(seen)) == len(seen)
        for a, b in zip(seen, seen[1:]):
            # colex: compare from the last differing position
            diff = max(i for i in range(len(a)) if a[i] != b[i])
            assert a[diff] < b[diff]
        assert all(sum(p) == n for p in seen)


def test_zero_total_has_single_composition():
    assert list(compositions(0, 3)) == [(0,) * 8]


def test_multinomial_examples():
    assert multinomial((1, 1, 1, 0)) == 6
    assert multinomial((2, 3)) == 10
    assert multinomial((7, 0, 0, 0)) == 1


def test_multinomial_theorem():
    for m in range(4):
        q = 1 << m
        top = 12 if m < 3 else 8
        for n in range(top + 1):
            assert sum(multinomial(p) for p in compositions(n, m)) == q**n
    # the bound cases for the narrow profiles
    for m in (0, 1, 2):
        q = 1 << m
        assert sum(multinomial(p) for p in compositions(30, m)) == q**30


def test_sign_examples():
    assert sign((0, 1, 1, 1)) == 1  # exponent 0*0 + 1 + 1 + 2 = 4
    assert sign((9, 0, 0, 0)) == 1
    for n in range(7):
        for r in range(n + 1):
            assert sign((n - r, r)) == (-1) ** r


def test_signed_multinomial_sum_vanishes():
    for m in (1, 2, 3):
        for n in range(1, 9):
            assert sum(sign(p) * multinomial(p) for p in compositions(n, m)) == 0


def test_class_helpers():
    assert class_weight(0) == 0
    assert class_weight(0b101) == 2
    assert class_label(0, 2) == "00"
    assert class_label(1, 2) == "10"
    assert class_label(2, 2) == "01"
    assert class_label(3, 2) == "11"
    assert class_label(1, 3) == "100"


def test_multinomial_rejects_negative_entries():
    with pytest.raises(ValueError):
        multinomial((2, -1, 1, 0))


def test_compositions_reject_bad_arguments():
    # the call itself raises, before anything is iterated; past 7 rows no
    # walk is compiled
    with pytest.raises(ValueError):
        compositions(-1, 2)
    with pytest.raises(ValueError):
        compositions(3, -1)
    for m in (8, 30, 10**6):
        with pytest.raises(ResourceGuardError, match="at most 7 rows"):
            compositions(0, m)


def reference_walk(n, m):
    """The colex walk over a list: copy it out, find the lowest nonzero class, step."""
    q = 1 << m
    c = [0] * q
    c[0] = n
    out = []
    while True:
        out.append(tuple(c))
        i = 0
        while i < q and c[i] == 0:
            i += 1
        if i >= q - 1:
            return out
        v = c[i]
        c[i] = 0
        c[0] = v - 1
        c[i + 1] += 1


def test_compiled_walk_equals_the_list_walk():
    for m, top in ((0, 6), (1, 6), (2, 6), (3, 6), (4, 4), (5, 3)):
        for n in range(top + 1):
            assert list(compositions(n, m)) == reference_walk(n, m), (m, n)


def test_walk_docstring_shows_the_generated_source():
    doc = profiles._walk.__doc__
    code = textwrap.dedent("\n".join(line for line in doc.splitlines() if line.startswith(" " * 8)))
    assert code == profiles._walk_source(1)


@pytest.fixture
def fresh_factorials(monkeypatch):
    # start from an empty shared table and cache, whichever n ran before
    factorial_table.cache_clear()
    monkeypatch.setattr(profiles, "_factorials", (1,))
    yield
    factorial_table.cache_clear()


def test_factorial_table_matches_math_factorial():
    for n in (0, 1, 2, 7, 100, 457):
        assert list(factorial_table(n)) == [factorial(i) for i in range(n + 1)]


@pytest.mark.parametrize("order", [(10, 300), (300, 10)])
def test_factorial_tables_share_their_entries(fresh_factorials, order):
    first, second = (factorial_table(n) for n in order)
    tables = {len(first) - 1: first, len(second) - 1: second}
    assert tables[10][7] is tables[300][7]
    assert tables[10] == tables[300][:11]


def test_factorial_tables_built_by_concurrent_threads_are_correct(fresh_factorials):
    sizes = [5, 800, 17, 1200, 0, 64, 900, 333, 1199, 2, 640, 1000] * 2
    reference = [factorial(i) for i in range(max(sizes) + 1)]
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        with ThreadPoolExecutor(4) as pool:
            tables = list(pool.map(factorial_table, sizes, timeout=60))
    finally:
        sys.setswitchinterval(interval)
    for n, table in zip(sizes, tables):
        assert list(table) == reference[: n + 1], n


def test_multinomial_rejects_a_negative_entry_after_large_ones():
    # entries ahead of the negative one may overrun the n // 2 table; in
    # the last two, one entry equals the sum, as in a one-class profile
    profiles = ((3, 4, -5), (1000, 1000, -1999), (5, -3), (0, 0, 9, -1), (7, 3, -3), (0, 2, -2))
    for profile in profiles:
        with pytest.raises(ValueError):
            multinomial(profile)


def test_multinomial_of_one_full_entry_builds_no_table():
    # a table of n // 2 factorials would not fit in memory at these n
    for n in (10**6, 10**30):
        assert multinomial((n,)) == 1
        assert multinomial((0, 0, n, 0)) == 1
