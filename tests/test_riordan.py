"""R_3(n) by Riordan's method, which shares no code with the profile sum.

Row 2 of a reduced 3-row rectangle is a derangement sigma.  Row 3 avoids
both the identity and sigma, and the number of such permutations
depends only on sigma's cycle type: each c-cycle forbids a ring of 2c
cells, whose rook numbers are the menage numbers
r_j = 2c/(2c-j) C(2c-j, j), and the board's rook polynomial is the
product over the cycles.  The helpers use only `math` and `collections`.
"""

import math
from collections import Counter

from latinrect.formulas import reduced_count


def _partitions(n, least=2):
    """Partitions of n into parts >= least, as nondecreasing tuples."""
    if n == 0:
        yield ()
        return
    for part in range(least, n + 1):
        for rest in _partitions(n - part, part):
            yield (part, *rest)


def _menage_rooks(c):
    """Rook numbers r_0..r_c of the 2c-cell ring a c-cycle forbids."""
    return [2 * c * math.comb(2 * c - j, j) // (2 * c - j) for j in range(c + 1)]


def _times(p, q):
    out = [0] * (len(p) + len(q) - 1)
    for i, a in enumerate(p):
        for j, b in enumerate(q):
            out[i + j] += a * b
    return out


def riordan_three_rows(n):
    """Reduced 3-by-n Latin rectangles, summed over row 2's cycle type."""
    total = 0
    for cycle_type in _partitions(n):
        denom = 1
        for c, m in Counter(cycle_type).items():
            denom *= c**m * math.factorial(m)
        rooks = [1]
        for c in cycle_type:
            rooks = _times(rooks, _menage_rooks(c))
        avoiding = sum((-1) ** j * r * math.factorial(n - j) for j, r in enumerate(rooks))
        total += math.factorial(n) // denom * avoiding
    return total


def test_riordan_matches_oeis_a000186():
    assert riordan_three_rows(8) == 70299264
    assert riordan_three_rows(9) == 5792853248


def test_profile_sum_matches_riordan_to_n_30():
    for n in range(31):
        assert reduced_count(3, n).value == riordan_three_rows(n), n
