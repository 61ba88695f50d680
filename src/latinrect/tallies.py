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

from dataclasses import dataclass
from math import prod


@dataclass
class OpTally:
    """Mutable counters; confined to one evaluation context."""

    adds: int = 0
    mults_inner: int = 0
    mults_assembly: int = 0
    mults_assembly_naive: int = 0

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
