"""Nullity and rank types of rational matrices, the standard matrix
families behind the ST1/ST2 conditions, partition-generated rank-<=2
types, matroid duality, the D_3, D_4 and D_5 rows from them, and the
h-equivalence of constraint rows (equal `ratios.h_coordinates`).

`nullity_type` takes all 2^n column-subset nullities from one depth-first
walk over the include/exclude trie of the columns, in integers: a node
inherits from its parent the later columns reduced against the parent's
echelon basis, and one new column either reduces to zero (the nullity
grows by one) or joins the basis, reducing each later column by one
primitive combination (`exact.combine`).  The result is cross-checked
against an independent Bareiss rank (`exact.rank`) of the whole matrix
and the zero pattern of the columns, and validated as a matroid rank
function.

A column permutation of a matrix permutes its nullity type, so
`family_types` eliminates one M_S or M^S per set size and relabels its
type for the other sets of that size.  The D_n rows for n = 3, 4, 5 need
no elimination: `d_constraint_set` takes them from rank functions, the
rank-<=2 partition types and their matroid duals, as (label, NullityType)
pairs.  All computations here are exact; floating point never enters.
"""

from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from numbers import Rational
from operator import sub
from typing import Callable, Dict, Iterator, List, Sequence, Tuple

from .exact import CertificateError, clear_denominators, combine, rank
from .ratios import MAX_GROUND_SIZE, h_coordinates
from .subsets import (format_subset, mask_of, members_of,
                      order_preserving_gather)

RationalMatrix = Tuple[Tuple[Rational, ...], ...]


def matrix(rows: Sequence[Sequence]) -> RationalMatrix:
    return tuple(tuple(Fraction(x) for x in row) for row in rows)


def parse_matrix(text: str) -> RationalMatrix:
    """One row per line; entries whitespace-separated integers or p/q."""
    rows = []
    width = None
    for lineno, line in enumerate(text.splitlines(), start=1):
        if not line.strip():
            continue
        entries = []
        for col, token in enumerate(line.split(), start=1):
            try:
                entries.append(Fraction(token))
            except (ValueError, ZeroDivisionError):
                raise ValueError(
                    f"line {lineno}, entry {col}: bad rational {token!r}")
        if width is None:
            width = len(entries)
        elif len(entries) != width:
            raise ValueError(f"line {lineno}: expected {width} entries, "
                             f"got {len(entries)}")
        rows.append(tuple(entries))
    if not rows:
        raise ValueError("empty matrix file")
    return tuple(rows)


@lru_cache(maxsize=None)
def _cardinalities(bits: int) -> Tuple[int, ...]:
    """|T| for every mask T below 2^bits."""
    card = [0]
    for _ in range(bits):
        card += [c + 1 for c in card]
    return tuple(card)


def _ranks_of(entries: Sequence[int]) -> List[int]:
    """|T| - entries[T] for every mask T: the ranks of a nullity type of any
    length, so that a wrong length reaches `_validate_rank_function`."""
    return list(map(sub, _cardinalities((len(entries) - 1).bit_length()),
                    entries))


def _bit_walk(n: int, x: Sequence) -> Iterator[Tuple[list, list]]:
    """For each bit k = 0..n-1 of the mask index of x, yield two lists:
    x[T + k] - x[T] for every T without bit k, and a[T + k] - a[T] for
    every list a yielded first at an earlier bit and every T of its index
    without bit k.

    Each step moves bit k of every index to the top (the even positions,
    then the odd ones), so the next bit is always the lowest; the first
    lists join a second list that is moved the same way."""
    made: list = []
    for _ in range(n):
        crossed = list(map(sub, x[1::2], x[0::2]))
        yield crossed, list(map(sub, made[1::2], made[0::2]))
        x = x[0::2] + x[1::2]
        made = made[0::2] + made[1::2] + crossed


def _validate_rank_function(n: int, r: Sequence[int]) -> None:
    """Check that the mask-indexed `r` (2^n entries) is a matroid rank
    function: r(empty) = 0, unit increase r(T+i) - r(T) in {0, 1}, and local
    submodularity r(T+i) + r(T+j) >= r(T+i+j) + r(T), that is, no step
    r(T+i) - r(T) grows when j is added to T.  A function that breaks both
    axioms is reported as breaking unit increase."""
    size = 1 << n
    if len(r) != size:
        raise ValueError(f"a type on {n} elements has {size} entries, "
                         f"got {len(r)}")
    if r[0] != 0:
        raise ValueError("rank of the empty set must be 0")
    steps: list = []
    growth: list = []
    for crossed, changed in _bit_walk(n, r):
        steps += crossed
        growth += changed
    if not {0, 1}.issuperset(steps):
        raise ValueError("rank function violates unit increase")
    if max(growth, default=0) > 0:
        raise ValueError("rank function is not submodular")


@dataclass(frozen=True)
class RankType:
    """Mask-indexed subset ranks; always a matroid rank function."""
    ground_size: int
    entries: Tuple[int, ...]

    def __post_init__(self):
        _validate_rank_function(self.ground_size, self.entries)

    def __getitem__(self, mask: int) -> int:
        return self.entries[mask]


@dataclass(frozen=True)
class NullityType:
    """Mask-indexed kernel dimensions of column subsets."""
    ground_size: int
    entries: Tuple[int, ...]

    def __post_init__(self):
        _validate_rank_function(self.ground_size, _ranks_of(self.entries))

    def __getitem__(self, mask: int) -> int:
        return self.entries[mask]

    def rank_type(self) -> RankType:
        return RankType(self.ground_size, tuple(_ranks_of(self.entries)))


def _subset_nullities(columns: Sequence[Sequence[int]]) -> List[int]:
    """Mask-indexed nullity of every subset of the integer `columns`, by one
    depth-first walk over the subsets in which each mask extends the mask
    without its top column.  A node holds its later columns reduced against
    its echelon basis (None once a column is in the span).  Its top column
    adds one to the parent's nullity if it reduced to None, and otherwise
    joins the basis: each later column is then reduced by it in one step.
    Every later column stays zero at every pivot, so it reduces to zero
    exactly when it lies in the span."""
    nullities = [0] * (1 << len(columns))

    def visit(mask: int, nullity: int, first: int, residuals: List) -> None:
        for k, v in enumerate(residuals):
            child = mask | 1 << (first + k)
            rest = residuals[k + 1:]
            if v is None:
                nullities[child] = nullity + 1
                if rest:
                    visit(child, nullity + 1, first + k + 1, rest)
            else:
                nullities[child] = nullity
                if rest:
                    q = v.index(next(filter(None, v)))
                    visit(child, nullity, first + k + 1,
                          [w if w is None or not w[q]
                           else combine(v[q], w, w[q], v) for w in rest])

    visit(0, 0, 0, [list(col) if any(col) else None for col in columns])
    return nullities


def nullity_type(m: RationalMatrix) -> NullityType:
    n = len(m[0]) if m else 0
    # One nullity per column subset: 2^n of them.
    if n > MAX_GROUND_SIZE:
        raise ValueError(f"matrix has {n} columns; at most "
                         f"{MAX_GROUND_SIZE} are supported")
    for k, row in enumerate(m, start=1):
        if len(row) != n:
            raise ValueError(f"row {k} has {len(row)} entries, expected {n}")
    # Scaling a row changes the rank of no column submatrix, so each row is
    # cleared of denominators once.
    rows = [clear_denominators(row)[0] for row in m]
    columns = list(zip(*rows))
    entries = _subset_nullities(columns)
    # Cross-check: the whole matrix against an independent Bareiss rank, and
    # each single column against its zero pattern.
    if n - entries[-1] != rank(rows) or any(
            entries[1 << c] != (not any(col))
            for c, col in enumerate(columns)):
        raise CertificateError(
            "subset nullities disagree with the rank of the matrix or the "
            "zero pattern of its columns")
    return NullityType(n, tuple(entries))


def rank_type(m: RationalMatrix) -> RankType:
    return nullity_type(m).rank_type()


def superset_matrix(s: int, n: int) -> RationalMatrix:
    """The (n-1) x n 0/1 matrix M_S, a column permutation of [I|e] + I,
    whose nullity type is the indicator of supersets of S.  Requires
    |S| >= 3.  Its entries are ints, which `nullity_type` takes as they
    are."""
    size = s.bit_count()
    if size < 3:
        raise ValueError("superset matrix requires |S| >= 3")
    s_cols = [i - 1 for i in members_of(s)]
    other_cols = [c for c in range(n) if c not in s_cols]
    rows = []
    for r in range(size - 1):
        row = [0] * n
        row[s_cols[r]] = 1
        row[s_cols[-1]] = 1
        rows.append(tuple(row))
    for c in other_cols:
        row = [0] * n
        row[c] = 1
        rows.append(tuple(row))
    return tuple(rows)


def subset_matrix(s: int, n: int) -> RationalMatrix:
    """The 1 x n 0/1 matrix M^S: zero in the columns of S and one
    elsewhere; its rank type is the indicator of non-subsets of S.
    Requires |S| <= n-2.  Its entries are ints."""
    if s.bit_count() > n - 2:
        raise ValueError("subset matrix requires |S| <= n-2")
    return (tuple(0 if s >> c & 1 else 1 for c in range(n)),)


def family_types(family: Callable[[int, int], RationalMatrix],
                 masks: Sequence[int], n: int) -> List[Tuple[int, ...]]:
    """The nullity type entries of family(s, n) for every s in `masks`, in
    order, for `superset_matrix` or `subset_matrix`.  Each is the matrix of
    the first set of its size with its columns relabelled in order, so
    `nullity_type` runs once per size and every other set takes the image
    under `subsets.order_preserving_gather`."""
    first: Dict[int, Tuple[int, Tuple[int, ...]]] = {}
    out = []
    for s in masks:
        base = first.get(s.bit_count())
        if base is None:
            entries = nullity_type(family(s, n)).entries
            first[s.bit_count()] = (s, entries)
        else:
            entries = order_preserving_gather(base[0], s, n)(base[1])
        out.append(entries)
    return out


# The two rank-2 matrices of CATALOG_N4_BASES with no M_S/M^S form.
M6 = matrix([[1, 0, 1, 1], [0, 1, 1, 1]])
M7 = matrix([[1, 1, 1, 1], [0, 1, 2, 3]])

# Seven labeled matrices whose column permutations realize every row of
# D_4; `reproduce` checks rank-nullity on each.
CATALOG_N4_BASES: Tuple[Tuple[str, RationalMatrix], ...] = (
    ("M^{}", subset_matrix(0, 4)),
    ("M^{1}", subset_matrix(mask_of([1]), 4)),
    ("M^{1,2}", subset_matrix(mask_of([1, 2]), 4)),
    ("M_{1,2,3}", superset_matrix(mask_of([1, 2, 3]), 4)),
    ("M_{1,2,3,4}", superset_matrix(mask_of([1, 2, 3, 4]), 4)),
    ("M6", M6),
    ("M7", M7),
)


@dataclass(frozen=True)
class Partition:
    """Parallel classes of nonzero columns plus a loop set of zero columns."""
    ground_size: int
    blocks: Tuple[int, ...]    # disjoint nonempty masks
    loops: int = 0

    def __post_init__(self):
        union = self.loops
        for b in self.blocks:
            if b == 0:
                raise ValueError("blocks must be nonempty")
            if union & b:
                raise ValueError("blocks and loops must be disjoint")
            union |= b
        if union != (1 << self.ground_size) - 1:
            raise ValueError("blocks and loops must cover the ground set")

    def label(self) -> str:
        parts = "|".join(format_subset(b) for b in sorted(self.blocks))
        if self.loops:
            parts += f";loops={format_subset(self.loops)}"
        return parts or "all-loops"


def partition_nullity(p: Partition) -> NullityType:
    """Nullity type of any rank-<=2 matrix whose zero columns are the loops
    and whose nonzero columns are parallel exactly within blocks."""
    n = p.ground_size
    entries = []
    for t in range(1 << n):
        hit = sum(1 for b in p.blocks if b & t)
        entries.append(t.bit_count() - min(2, hit))
    return NullityType(n, tuple(entries))


def dual_nullity_type(nt: NullityType) -> NullityType:
    """Nullity type of the dual matroid: r*(T) = |T| + r(N\\T) - r(N)."""
    n = nt.ground_size
    full = (1 << n) - 1
    r = _ranks_of(nt.entries)
    entries = tuple(r[full] - r[full ^ t] for t in range(1 << n))
    return NullityType(n, entries)


def h_equivalent(v: Sequence, w: Sequence, n: int) -> bool:
    """True iff v - w lies in the span of the homogeneity vectors, i.e. the
    two vectors impose the same constraint on log(H_n)."""
    return h_coordinates(v, n) == h_coordinates(w, n)


def set_partitions(items: Tuple[int, ...]) -> Iterator[Tuple[Tuple[int, ...], ...]]:
    """All partitions of `items` into blocks (each block a tuple)."""
    if not items:
        yield ()
        return
    first, rest = items[0], items[1:]
    for sub in set_partitions(rest):
        for i, block in enumerate(sub):
            yield sub[:i] + ((first,) + block,) + sub[i + 1:]
        yield ((first,),) + sub


def enumerate_partitions(n: int) -> List[Partition]:
    """All partitions-with-loops of {1..n} into parallel classes."""
    out = []
    for loops in range(1 << n):
        items = tuple(i for i in range(1, n + 1) if not loops >> (i - 1) & 1)
        for blocks in set_partitions(items):
            out.append(Partition(n, tuple(sorted(mask_of(b) for b in blocks)),
                                 loops))
    return out


# The number of rows of d_constraint_set(n) for each supported n.
D_ROW_COUNTS = {3: 5, 4: 23, 5: 149}


@lru_cache(maxsize=None)
def d_constraint_set(n: int) -> Tuple[Tuple[str, NullityType], ...]:
    """(label, type) pairs defining D_n for n in `D_ROW_COUNTS`: the rank-<=2
    type of each partition of the columns into parallel classes and loops
    (labeled by `Partition.label`) and its matroid dual ("dual:" + label),
    the first of each class modulo homogeneity (equal `h_coordinates`).
    Every matroid on n <= 5 elements has rank <= 2 or corank <= 2, and all
    of these are rational-realizable, so the rows cut out D_n.  The zero
    class is left out, and so is a partition of exactly two blocks of two
    or more columns: a direct sum of two rank-1 matroids, whose type and
    dual type are sums of one-block types.  No kept row is a nonnegative
    combination of the others."""
    if n not in D_ROW_COUNTS:
        raise ValueError("D system supported only for n in {3, 4, 5}")
    out: List[Tuple[str, NullityType]] = []
    seen = {h_coordinates((0,) * (1 << n), n)}
    for p in enumerate_partitions(n):
        if len(p.blocks) == 2 and min(b.bit_count() for b in p.blocks) >= 2:
            continue
        nt = partition_nullity(p)
        for prefix, row_nt in (("", nt), ("dual:", dual_nullity_type(nt))):
            key = h_coordinates(row_nt.entries, n)
            if key not in seen:
                seen.add(key)
                out.append((prefix + p.label(), row_nt))
    if len(out) != D_ROW_COUNTS[n]:
        raise CertificateError(
            f"D_{n} has {len(out)} rows, expected {D_ROW_COUNTS[n]}")
    return tuple(out)


# The D_4 and D_5 rows under the names that perfbench binds and calls.
def catalog_n4() -> Tuple[Tuple[str, NullityType], ...]:
    return d_constraint_set(4)


def d5_constraint_set() -> Tuple[Tuple[str, NullityType], ...]:
    return d_constraint_set(5)
