"""Operation tallies for exact-integer formula evaluation.

The n-dependent cost of one formula term is the chain of big-integer
multiplications assembling the product of n per-column factors.  Those
land in the ``assembly`` buckets, under two accountings: the
multiplications actually performed (binary powering plus combining the
per-class powers) and the naive model that builds each power g^s with
s - 1 multiplications.  Direct-L collects like terms, so it performs
one power g^n per distinct bracket value, not one per term; the naive
model still charges every term n - 1.  Everything else a term needs --
block sums, the column-choice polynomial, multinomial quotients,
coefficient scaling -- costs a fixed number of operations once k is
fixed, or for direct-L once k and the branch its profile takes are
fixed; its multiplications are tallied in ``mults_inner`` and its
additions in ``adds``.  Quotients of factorial-table entries count as
multiplications (same cost class), and so does the factorial bridge's
one multiplication by n!.  No term code counts anything: `add_sum_ops`
adds a whole sum's counts at once, to the tally its evaluation made.
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


def add_sum_ops(tally: OpTally, n: int, q: int, cost, distinct: int | None) -> None:
    """Add one sum's op counts over the profiles of length q summing to n.

    For the reduced sum, cost is one call of g's (adds, mults)
    (`column_counts._kernel`) and distinct is None.  A reduced term
    costs q multinomial mults and an add and a mult into the sum; each
    of its nonzero classes costs a g, a power and, past the first class,
    an assembly step.  There are Z = q C(n+q-2, q-1) nonzero entries for
    n >= 1, C(n-c+q-2, q-2) per class equal to c, and `**` spends
    `_steps(c)` mults on g**c.

    For direct-L, cost is `column_counts.direct_sum`'s (adds, mults) per
    branch -- the full bracket, its differences, a step along class 1
    and one along class 2 -- and distinct is the number D of distinct
    bracket values its sum returned.  Of the T = C(n+q-1, q-1) profiles,
    T1 = C(n+q-2, q-1) have c1 >= 1 and step along class 1, and
    T2 = C(n+q-3, q-2) have c1 = 0 < c2 and step along class 2.  The
    other T - T1 - T2 take the full bracket, and the C(n+q-4, q-3) of
    them with c0 >= 1 take the differences too.  At q = 2 every profile
    takes the bracket, c0, in full.  Every term also costs an add of its
    weight into its bracket's running sum, and each of the T - 1 steps
    of the walk two mults for the weight; each distinct bracket then
    costs g**n, a mult by its summed weight and, past the first, an add
    into the total.

    The naive model charges every term n - 1.  That is O(n) integer
    operations per sum, and n < T whenever q >= 2.
    """
    terms = comb(n + q - 1, q - 1)
    tally.mults_assembly_naive += max(n - 1, 0) * terms
    if distinct is not None:
        if q == 2:
            on1 = on2 = differences = 0
        else:
            on1, on2 = comb(n + q - 2, q - 1), comb(n + q - 3, q - 2)
            differences = comb(n + q - 4, q - 3)
        for (adds, mults), count in zip(cost, (terms - on1 - on2, differences, on1, on2)):
            tally.adds += adds * count
            tally.mults_inner += mults * count
        tally.adds += terms + distinct - 1
        tally.mults_inner += 2 * (terms - 1) + distinct
        tally.mults_assembly += _steps(n) * distinct if n else 0
        return
    adds, mults = cost
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
