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
multiplications (same cost class).
"""

from math import prod


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

    def merge(self, other: "OpTally") -> None:
        self.adds += other.adds
        self.mults_inner += other.mults_inner
        self.mults_assembly += other.mults_assembly
        self.mults_assembly_naive += other.mults_assembly_naive


def powered(base: int, exp: int, tally: OpTally | None = None):
    """base**exp by the interpreter's `**`, with 0**0 == 1.

    For these exponents `**` is left-to-right binary powering: one
    squaring per bit after the leading one and one multiplication by the
    base per further set bit, bit_length + bit_count - 2 in all.  Those
    go to the assembly bucket; the naive model is credited
    max(exp - 1, 0) multiplications for the same power.
    """
    if exp < 0:
        raise ValueError("exponent must be nonnegative")
    if exp == 0:
        return 1
    if tally is not None:
        tally.mults_assembly += exp.bit_length() + exp.bit_count() - 2
        tally.mults_assembly_naive += exp - 1
    return base**exp


def assembly_product(values, tally: OpTally | None = None):
    """Product of a sequence of per-class powers; empty product is 1."""
    if tally is not None:
        steps = max(len(values) - 1, 0)
        tally.mults_assembly += steps
        tally.mults_assembly_naive += steps
    return prod(values)
