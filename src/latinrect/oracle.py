"""Independent ground truth by exhaustive search.

Everything here counts by filling cells and checking constraints
directly; none of it shares code with the formula evaluators, so
agreement between the two is evidence, not tautology.  There are two
shortcuts, and both count positive completions only; no signs,
multinomials or column-choice counts.  The backtracking memo in
`brute_force_count` stores a partial rectangle under how many symbols
have each type (which of rows 2..k have placed the symbol, and whether
its column is still unfilled), up to a relabeling of rows 2..k.
`lonely_hall_count` counts each column's picks by one recursion and
multiplies the n column counts, since none of its rules links two
columns.  Both searches are module-level recursions that take their
tables as arguments: no closure refers to itself or to another, so a
count leaves no reference cycle for the garbage collector.

Rectangles are sequences of rows of integers in 1..n.  A configuration
view of a rectangle places one room per (row, column) shaft at floor
`cells[i][j]`; column constraints say no two rooms of a column share a
floor, row constraints (for Latin rectangles only) say no two rooms of a
row share a floor.  A hall is a (row, floor) pair; a hall set is a set
of halls forced empty, never including the back row (row 1).
"""

import itertools
from math import factorial, log10, prod
from operator import itemgetter

from .guards import ResourceGuardError

Rows = tuple[tuple[int, ...], ...]

BRUTE_FORCE_MAX_K = 4
BRUTE_FORCE_MAX_N = 7
# The memo's (k-1)! row relabelings of 2^k-entry tables are built before
# the first column.  k=7 needs 92,160 entries (0.09 s to build, 1.7 ms
# per memo miss; R_7(7) in 3 s); k=8 needs 1,290,240 (1.2 s, 17 ms).
BRUTE_FORCE_MAX_TABLE = 10**5
# most picks or tuples an enumeration may visit, about 0.2-0.5 us each
# at small n; a hall-oracle pick works on n-bit masks, so it counts once
# per 64-bit word of the mask (k=3 n=845 in 0.35 s, k=5 n=57 in 4.4 s)
ENUMERATION_MAX = 10**7


def _normalize(rows) -> Rows:
    rows = tuple(tuple(r) for r in rows)
    if not rows:
        return rows
    n = len(rows[0])
    for r in rows:
        if len(r) != n:
            raise ValueError("ragged rectangle")
        for v in r:
            if not isinstance(v, int) or not 1 <= v <= n:
                raise ValueError(f"cell value {v!r} outside 1..{n}")
    return rows


def is_latin(rows) -> bool:
    """True iff no row and no column contains a duplicate entry.

    Raises ValueError for malformed input (ragged rows, cells outside
    1..n).  The empty rectangle is vacuously Latin.
    """
    rows = _normalize(rows)
    for r in rows:
        if len(set(r)) != len(r):
            return False
    for col in zip(*rows):
        if len(set(col)) != len(col):
            return False
    return True


def reduce_rectangle(rows) -> Rows:
    """Permute columns so the first row reads 1..n; rows otherwise intact."""
    rows = _normalize(rows)
    if not is_latin(rows):
        raise ValueError("cannot reduce a non-Latin rectangle")
    if not rows:
        return rows
    order = sorted(range(len(rows[0])), key=rows[0].__getitem__)
    return tuple(tuple(r[j] for j in order) for r in rows)


def brute_force_count(
    k: int,
    n: int,
    variant: str = "reduced",
    *,
    max_k: int = BRUTE_FORCE_MAX_K,
    max_n: int = BRUTE_FORCE_MAX_N,
) -> int:
    """Exact Latin-rectangle count by column-by-column backtracking.

    Rows 2..k are filled one column at a time against a fixed first row
    1..n.  After some columns are filled, each symbol s has a type
    (U, f): U is the set of rows 2..k that have placed s, and f = 1 iff
    s heads a column (is its row-1 symbol) that is still unfilled.  The
    state is the vector N of how many symbols have each of the 2^k
    types, and the number of completions depends on N alone.  Take a
    permutation of the symbols that maps each symbol to one of the same
    type, and move each unfilled column along with its head symbol: it
    maps the completions of one partial rectangle one-to-one onto those
    of the other, since the remaining constraints (each row a
    permutation, each column distinct, the first row fixed) only see
    types.  Relabeling rows 2..k permutes the bits of U and maps
    completions one-to-one in the same way, since those constraints
    treat rows 2..k alike.  So the memo key is N up to the (k-1)! bit
    permutations; the raw N is looked up first, and the canonical one
    (the least relabeling) is computed only on a miss.

    The search fills any unfilled column next, since the order of the
    columns does not change the set of completions.  Row i picks a
    symbol whose type lacks row i, other than the column's head and the
    symbols already picked in the column; picking from a type with a
    such symbols left multiplies the count by a.

    Three module-level functions recurse into each other: `_fill` looks
    a state up in the memo, `_extend` fills one column of it and sums
    over the successor states, and `_cell` picks row by row within that
    column.  The memo, the relabelings and each row's lacking types are
    passed down as arguments, so a count builds no closures and leaves
    no garbage cycles behind.

    At k=4 n=7 the memo holds 159 canonical states.

    variant="total" scales the reduced count by n! rather than
    enumerating first rows.
    """
    if k < 1 or n < 0:
        raise ValueError("need k >= 1 and n >= 0")
    if variant not in ("reduced", "total"):
        raise ValueError(f"unknown variant {variant!r}")
    if k > max_k or n > max_n:
        raise ResourceGuardError(
            f"brute force refused at k={k}, n={n} (guard k<={max_k}, n<={max_n}); "
            "raise the guard explicitly for a deeper search"
        )
    entries = 2  # 2^k (k-1)! = 2 * (2*1) * (2*2) * ... * (2*(k-1))
    for i in range(1, k):
        entries *= 2 * i
        if entries > BRUTE_FORCE_MAX_TABLE:
            raise ResourceGuardError(
                f"brute force refused at k={k}, n={n}: its {k - 1}! row relabelings "
                f"of 2^{k}-entry tables pass {BRUTE_FORCE_MAX_TABLE} entries"
            )
    reduced = _count_reduced(k, n)
    return reduced if variant == "reduced" else factorial(n) * reduced


def _count_reduced(k: int, n: int) -> int:
    # A symbol's type is U | f << m: U holds bit i iff row i+2 has placed
    # the symbol, f is set iff the symbol heads a column not yet filled.
    # A state is the count of symbols of each type.
    m = k - 1
    pending = 1 << m
    size = pending << 1
    relabelings = []
    for perm in itertools.permutations(range(m)):
        src = [0] * size
        for t in range(size):
            moved = t & pending
            for i in range(m):
                if t >> i & 1:
                    moved |= 1 << perm[i]
            src[moved] = t
        relabelings.append(itemgetter(*src))
    lacking = [[t for t in range(size) if not t >> i & 1] for i in range(m)]
    done = [0] * size
    done[pending - 1] = n  # every row has placed every symbol
    memo: dict[tuple[int, ...], int] = {tuple(done): 1}
    initial = [0] * size
    initial[pending] = n  # no row has placed anything; every column pending
    return _fill(tuple(initial), memo, relabelings, lacking)


def _fill(state: tuple[int, ...], memo: dict, relabelings: list, lacking: list) -> int:
    # completions of `state`: the raw state is looked up first, then the
    # least of its row relabelings, which is computed only on a miss
    cached = memo.get(state)
    if cached is not None:
        return cached
    key = min(relabel(state) for relabel in relabelings)
    cached = memo.get(key)
    if cached is None:
        cached = memo[key] = _extend(state, memo, relabelings, lacking)
    memo[state] = cached
    return cached


def _extend(state: tuple[int, ...], memo: dict, relabelings: list, lacking: list) -> int:
    # fill the column of some pending symbol of type head; picked symbols
    # leave counts until the column is done, so no row of this column can
    # pick them (or the head) again
    pending = len(state) >> 1
    counts = list(state)
    head = next(t for t in range(pending, len(state)) if counts[t])
    counts[head] -= 1
    placed = [head ^ pending]  # the head's column is no longer pending
    successors: dict[tuple[int, ...], int] = {}
    _cell(0, 1, counts, placed, lacking, successors)
    return sum(
        ways * _fill(nxt, memo, relabelings, lacking) for nxt, ways in successors.items()
    )


def _cell(i: int, ways: int, counts: list, placed: list, lacking: list, successors: dict):
    # row i+2 picks a symbol whose type lacks it, in `ways` times as many
    # ways as the rows before it; a full column adds its successor state
    if i == len(lacking):
        nxt = counts[:]
        for t in placed:
            nxt[t] += 1
        nxt = tuple(nxt)
        successors[nxt] = successors.get(nxt, 0) + ways
        return
    bit = 1 << i
    for t in lacking[i]:
        a = counts[t]
        if a:
            counts[t] = a - 1
            placed.append(t | bit)
            _cell(i + 1, ways * a, counts, placed, lacking, successors)
            placed.pop()
            counts[t] = a


def _normalize_halls(halls, k: int, n: int) -> frozenset[tuple[int, int]]:
    out = set()
    for row, floor in halls:
        if not 2 <= row <= k:
            raise ValueError(f"hall row {row} outside 2..{k} (back halls never omitted)")
        if not 1 <= floor <= n:
            raise ValueError(f"hall floor {floor} outside 1..{n}")
        out.add((row, floor))
    return frozenset(out)


def lonely_hall_count(
    k: int,
    n: int,
    halls=(),
    *,
    max_digits: int = 0,
) -> int:
    """Count reduced configurations avoiding every hall in `halls`.

    A reduced configuration fixes the back row at 1..n and lets rows
    2..k pick any floor per column subject only to the column rule: all
    picks of a column distinct, including the back pick.  Rows may
    repeat floors.  This is the naive count the profile formula is
    checked against.

    Both rules that remain bind inside one column: the column rule
    compares picks of the same column, and a hall (row, floor) only
    removes that floor from that row's choices, the same in every
    column.  No rule links two columns, so a configuration is any choice
    of one admissible pick tuple per column, and the count is the
    product over columns of the number of admissible tuples.  Each
    column is one recursion over rows 2..k: a row picks an open floor
    that no earlier row of the column took, and the last row's
    admissible floors are counted with `int.bit_count` rather than
    visited.  With no hall omitted a column visits (n-1) ... (n-k+2)
    picks of rows 2..k-1, so n (n-1) ... (n-k+2) over all columns (n at
    k = 1 and 2, one visit per column).  Each pick works on n-bit floor
    masks, so the work is that count times the ceil(n/64) words of a
    mask, and it must stay within ENUMERATION_MAX: that bound sizes the
    work of any k and n, so no separate cap on k or n is needed.

    A nonzero `max_digits` (as `sys.get_int_max_str_digits()` gives)
    refuses, before any column is counted, a count that may have more
    decimal digits: no column admits more than (n-1) ... (n-k+1) pick
    tuples, so the count has at most n log10 of that many.
    """
    if k < 1 or n < 0:
        raise ValueError("need k >= 1 and n >= 0")
    words = -(-n // 64)
    picks = words
    for i in range(max(k - 1, 1)):  # stops once the product is 0 or past the bound
        picks *= n - i
        if not 0 < picks <= ENUMERATION_MAX:
            break
    if picks > ENUMERATION_MAX:
        raise ResourceGuardError(
            f"configuration enumeration refused at k={k}, n={n}: "
            f"more than {ENUMERATION_MAX} picks (each counted once per word "
            f"of its {words}-word floor mask)"
        )
    if max_digits and k <= n:  # past n rows no column admits a tuple, and the count is 0
        digits = 0.0
        for i in range(1, k):  # k <= 24: the pick bound's k - 1 factors are 2 or more
            digits += n * log10(n - i)
            if digits >= max_digits:
                raise ResourceGuardError(
                    f"configuration count refused at k={k}, n={n}: "
                    f"it may pass {max_digits} decimal digits"
                )
    halls = _normalize_halls(halls, k, n)
    full = (1 << n) - 1
    blocked = {}  # row -> floors its halls omit; nothing here grows with k
    for row, floor in halls:
        blocked[row] = blocked.get(row, 0) | 1 << (floor - 1)
    return prod(_column_count(2, k, 1 << j, full, blocked) for j in range(n))


def _column_count(row: int, k: int, taken: int, full: int, blocked: dict) -> int:
    # pick tuples of rows row..k: each row picks a floor of `full` its
    # halls leave open and no earlier row of the column took (`taken`,
    # which holds the back pick); the last row's picks are counted
    if row > k:
        return 1
    avail = full & ~taken & ~blocked.get(row, 0)
    if row == k:
        return avail.bit_count()
    count = 0
    while avail:
        b = avail & -avail
        avail ^= b
        count += _column_count(row + 1, k, taken | b, full, blocked)
    return count


def profile_of(halls, k: int, n: int) -> tuple[int, ...]:
    """Tally floors by omission class: bit i set iff row i+2's hall is in the set.

    The tally is taken from the hall list: a floor some hall names gets
    its class bits, and every other floor is class 0, so the cost
    follows the number of halls, not n.  The profile has 2^(k-1)
    entries, refused past BRUTE_FORCE_MAX_TABLE (k >= 18) like the
    brute-force oracle's tables, before any is built.
    """
    m = k - 1
    if m >= BRUTE_FORCE_MAX_TABLE.bit_length():  # exactly when 2^m > BRUTE_FORCE_MAX_TABLE
        raise ResourceGuardError(
            f"profile refused at k={k}: its 2^{m} classes pass {BRUTE_FORCE_MAX_TABLE} entries"
        )
    floor_class = {}  # floor -> its class; the floors no hall names are class 0
    for row, floor in _normalize_halls(halls, k, n):
        floor_class[floor] = floor_class.get(floor, 0) | 1 << (row - 2)
    counts = [0] * (1 << m)
    counts[0] = n - len(floor_class)
    for cls in floor_class.values():
        counts[cls] += 1
    return tuple(counts)


def hall_sets(k: int, n: int):
    """Every subset of the (k-1) * n omittable halls, smallest first."""
    universe = [(row, floor) for row in range(2, k + 1) for floor in range(1, n + 1)]
    for size in range(len(universe) + 1):
        for combo in itertools.combinations(universe, size):
            yield frozenset(combo)


def injective_tuple_count(counts) -> int:
    """Brute-force ground truth for `choice_count`, by tuple enumeration.

    Realizes a floor classification with the given profile, then counts
    m-tuples of distinct floors where coordinate i may only use floors
    whose class has bit i clear.
    """
    m = (len(counts) - 1).bit_length()
    if len(counts) != 1 << m:
        raise ValueError("profile length must be a power of two")
    if any(c < 0 for c in counts):
        raise ValueError("profile entries must be nonnegative")
    n = sum(counts)
    if n**m > ENUMERATION_MAX:
        raise ResourceGuardError(f"tuple enumeration refused: {n}^{m} tuples")
    floor_class = []
    for cls, c in enumerate(counts):
        floor_class.extend([cls] * c)
    total = 0
    for tup in itertools.product(range(n), repeat=m):
        if len(set(tup)) != m:
            continue
        if any(floor_class[f] >> i & 1 for i, f in enumerate(tup)):
            continue
        total += 1
    return total
