"""Operation tallies for exact-integer formula evaluation.

The n-dependent cost of one formula term is the chain of big-integer
multiplications assembling the product of n per-column factors.  Those
land in the ``assembly`` buckets, under two accountings: the
multiplications actually performed (binary powering plus combining the
per-class powers) and the naive model that builds each power g^s with
s - 1 multiplications.  Everything else a term needs --
block sums, the column-choice polynomial, multinomial quotients,
coefficient scaling -- costs a fixed number of operations once k is
fixed; its multiplications are tallied in ``mults_inner`` and its
additions in ``adds``.  Quotients of factorial-table entries count as
multiplications (same cost class).  No term code counts anything:
`add_sum_ops` adds a whole sum's counts at once.
"""

from math import comb, prod


class OpTally:
    """Mutable counters; confined to one evaluation context."""

    __slots__ = ("adds", "mults_inner", "mults_assembly", "mults_assembly_naive")

    def __init__(self, adds=0, mults_inner=0, mults_assembly=0, mults_assembly_naive=0):
        self.adds = adds
        self.mults_inner = mults_inner
        self.mults_assembly = mults_assembly
        self.mults_assembly_naive = mults_assembly_naive

    def __eq__(self, other):
        if not isinstance(other, OpTally):
            return NotImplemented
        return all(getattr(self, name) == getattr(other, name) for name in self.__slots__)

    def __repr__(self) -> str:
        fields = ", ".join(f"{name}={getattr(self, name)!r}" for name in self.__slots__)
        return f"OpTally({fields})"

    @property
    def mults_total(self) -> int:
        return self.mults_inner + self.mults_assembly


def add_sum_ops(tally: OpTally, n: int, q: int, adds: int, mults: int, direct: bool) -> None:
    """Add one sum's op counts over the profiles of length q summing to n.

    adds and mults are one kernel call's cost: g's (`column_counts._kernel`)
    or the direct-L bracket's (`column_counts.direct_sum`).  Of the T
    terms, a direct-L term costs the bracket, an add and a mult into the
    sum, and g**n; each step of the walk costs two mults for the weight.
    A reduced term costs q multinomial mults and an add and a mult into
    the sum; each of its nonzero classes costs a g, a power and, past
    the first class, an assembly step.  There are Z = q C(n+q-2, q-1)
    nonzero entries for n >= 1, C(n-c+q-2, q-2) per class equal to c,
    `**` spends `_steps(c)` mults on g**c, and the naive model charges
    every term n - 1.  That is O(n) integer operations per sum, and
    n < T whenever q >= 2.
    """
    terms = comb(n + q - 1, q - 1)
    tally.mults_assembly_naive += max(n - 1, 0) * terms
    if direct:
        tally.adds += (adds + 1) * terms
        tally.mults_inner += (mults + 1) * terms + 2 * (terms - 1)
        tally.mults_assembly += _steps(n) * terms if n else 0
        return
    tally.adds += terms
    tally.mults_inner += (q + 1) * terms
    if n == 0:
        return
    if q == 1:
        nonzero, powering = 1, _steps(n)
    else:
        nonzero = q * comb(n + q - 2, q - 1)
        powering = q * sum(comb(n - c + q - 2, q - 2) * _steps(c) for c in range(1, n + 1))
    tally.adds += adds * nonzero
    tally.mults_inner += mults * nonzero
    tally.mults_assembly += powering + nonzero - terms


def _steps(exp: int) -> int:
    """Multiplications `**` spends on a power to exp >= 1.

    For these exponents `**` is left-to-right binary powering: one
    squaring per bit after the leading one and one multiplication by the
    base per further set bit.
    """
    return exp.bit_length() + exp.bit_count() - 2


def powered(base: int, exp: int):
    """base**exp by the interpreter's `**`, with 0**0 == 1."""
    if exp < 0:
        raise ValueError("exponent must be nonnegative")
    return base**exp


def assembly_product(values):
    """Product of a sequence of per-class powers; empty product is 1."""
    return prod(values)
