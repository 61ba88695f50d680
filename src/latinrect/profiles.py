"""Omission-class profiles and their summation machinery.

A profile tallies the floors of a configuration by omission class.  With
m tracked rows, a class is an integer in [0, 2^m) whose bit i (least
significant first) says whether the tracked row i's hall on that floor
is omitted.  A profile is a tuple of 2^m nonnegative counts indexed by
class, summing to n.  Which rectangle rows are "tracked" is fixed by the
caller: the reduced formulas track rows 2..k (bit 0 = row 2), the direct
total formulas track all rows (bit 0 = row 1).

Class labels render the bits in index order, so for m = 2 the classes
0..3 print as 00, 10, 01, 11.

`compositions` iterates every profile exactly once in colexicographic
order with an in-place increment, which is O(1) amortized per step.
"""

from collections.abc import Iterator
from functools import lru_cache
from math import perm
from operator import itemgetter


def class_weight(cls: int) -> int:
    """Number of omitted halls in the class: its popcount."""
    return cls.bit_count()


def class_label(cls: int, m: int) -> str:
    """Bit string of the class, bit 0 first (m = 2: 0 -> '00', 1 -> '10')."""
    return "".join("1" if cls >> i & 1 else "0" for i in range(m))


def compositions(n: int, m: int) -> Iterator[tuple[int, ...]]:
    """Every profile of 2^m classes summing to n, colexicographic.

    Starts at (n, 0, ..., 0) and ends with all mass in the last class;
    yields C(n + 2^m - 1, 2^m - 1) tuples in total.
    """
    if n < 0 or m < 0:
        raise ValueError("need n >= 0 and m >= 0")
    q = 1 << m
    c = [0] * q
    c[0] = n
    while True:
        yield tuple(c)
        i = 0
        while i < q and c[i] == 0:
            i += 1
        if i >= q - 1:
            return
        v = c[i]
        c[i] = 0
        c[0] = v - 1
        c[i + 1] += 1


# 0!, 1!, ...: grown on demand; every factorial_table is a slice of it
_factorials = (1,)


@lru_cache(maxsize=None)
def factorial_table(n: int) -> tuple[int, ...]:
    """0! .. n! as exact integers, computed once and shared.

    Every table is a prefix of one growing tuple, so tables for different
    n share their integer objects.  A caller that must grow it builds on
    a local copy and then publishes it; when two threads race, one
    result is dropped, which costs sharing and never a wrong entry.
    """
    global _factorials
    fact = _factorials
    if len(fact) <= n:
        grown = list(fact)
        x = grown[-1]
        for i in range(len(fact), n + 1):
            x *= i
            grown.append(x)
        fact = tuple(grown)
        if len(fact) > len(_factorials):
            _factorials = fact
    return fact[: max(n + 1, 0)]


def multinomial(counts) -> int:
    """n! / prod(counts[v]!) for n = sum(counts), exactly.

    A profile with all of n in one entry has multinomial 1, so it
    builds no table, however large n is.  Otherwise the largest entry's
    factorial cancels against n!, leaving the falling product
    perm(n, n - top); every other entry is at most n // 2.
    `tallies.add_sum_ops` counts one inner multiplication per entry.
    """
    n = sum(counts)
    if n in counts:
        # the other entries sum to 0: all zero, unless one is negative
        if min(counts) < 0:
            raise ValueError("profile entries must be nonnegative")
        return 1
    fact = factorial_table(n // 2)
    top = 0
    denom = 1
    try:
        for c in counts:
            if c > top:
                c, top = top, c
            elif c < 0:
                raise ValueError("profile entries must be nonnegative")
            denom *= fact[c]
    except IndexError:
        # two entries above n // 2: only a negative entry, not yet
        # reached, can have cut the sum that short
        raise ValueError("profile entries must be nonnegative") from None
    return perm(n, n - top) // denom


@lru_cache(maxsize=None)
def _odd_entries(q: int):
    """Getter of a profile's entries in classes of odd weight, as a sequence."""
    odd = tuple(cls for cls in range(q) if class_weight(cls) & 1)
    if len(odd) > 1:
        return itemgetter(*odd)
    # q <= 2: no such class, or class 1 alone; a slice keeps a sequence
    return itemgetter(slice(1, q))


def sign(counts) -> int:
    """(-1) to the total number of omitted halls, sum of weight(v) * counts[v].

    Only classes of odd weight change the parity of that sum.
    """
    return -1 if sum(_odd_entries(len(counts))(counts)) & 1 else 1
