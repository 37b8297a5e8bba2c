"""Nullity and rank types of rational matrices, the standard matrix
families behind the ST1/ST2 conditions, the 23-type catalogue for n = 4,
partition-generated rank-<=2 types, matroid duality, and the h-equivalence
of constraint rows (equal `ratios.h_coordinates`).

`nullity_type` takes all 2^n column-subset nullities from one depth-first
walk over the include/exclude trie of the columns, in integers: a node
inherits from its parent the later columns reduced against the parent's
echelon basis, and one new column either reduces to zero (the nullity
grows by one) or joins the basis, reducing each later column by one
primitive combination (`exact.combine`).  The result is cross-checked
against an independent Bareiss rank (`exact.rank`) of the whole matrix
and the zero pattern of the columns, and validated as a matroid rank
function.

A column permutation of a matrix permutes its nullity type, so the
catalogue eliminates each of its seven base matrices (`CATALOG_N4_BASES`)
once and takes the permuted types from `subsets.group_gathers`, and
`family_types` eliminates one M_S or M^S per set size and relabels its
type for the other sets of that size.  The D_5 constraint set has the
catalogue's shape, (label, NullityType) pairs.  All computations here are
exact; floating point never enters.
"""

from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from numbers import Rational
from operator import sub
from typing import Callable, Dict, Iterator, List, Sequence, Tuple

from .exact import CertificateError, clear_denominators, combine, rank
from .ratios import MAX_GROUND_SIZE, h_coordinates
from .subsets import (format_subset, group_gathers, mask_of, members_of,
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


# The two rank-2 matrices of the n = 4 catalogue with no M_S/M^S form.
M6 = matrix([[1, 0, 1, 1], [0, 1, 1, 1]])
M7 = matrix([[1, 1, 1, 1], [0, 1, 2, 3]])

# The seven labeled matrices whose column permutations give catalog_n4.
CATALOG_N4_BASES: Tuple[Tuple[str, RationalMatrix], ...] = (
    ("M^{}", subset_matrix(0, 4)),
    ("M^{1}", subset_matrix(mask_of([1]), 4)),
    ("M^{1,2}", subset_matrix(mask_of([1, 2]), 4)),
    ("M_{1,2,3}", superset_matrix(mask_of([1, 2, 3]), 4)),
    ("M_{1,2,3,4}", superset_matrix(mask_of([1, 2, 3, 4]), 4)),
    ("M6", M6),
    ("M7", M7),
)


@lru_cache(maxsize=None)
def catalog_n4() -> Tuple[Tuple[str, NullityType], ...]:
    """The 23 labeled nullity types defining D_4: all distinct types of
    column permutations of the seven CATALOG_N4_BASES.  The type of the
    matrix with column i moved to column perm[i-1] is the base type's image
    under perm, so each base matrix is eliminated once."""
    seen = set()
    out: List[Tuple[str, NullityType]] = []
    for name, base in CATALOG_N4_BASES:
        base_entries = nullity_type(base).entries
        for perm, complement, gather in group_gathers(4):
            entries = gather(base_entries)
            if complement or entries in seen:
                continue
            seen.add(entries)
            out.append((f"{name}@{''.join(map(str, perm))}",
                        NullityType(4, entries)))
    if len(out) != 23:
        raise CertificateError(
            f"n=4 catalogue has {len(out)} types, expected 23")
    return tuple(out)


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


@lru_cache(maxsize=None)
def d5_constraint_set() -> Tuple[Tuple[str, NullityType], ...]:
    """(label, type) pairs sufficient to define D_5: all rank-<=2 types
    (every partition of 5 columns into parallel classes plus loops, labeled
    by `Partition.label`) and their matroid duals (labeled "dual:" + that),
    deduplicated up to the h-equivalence relation.

    Every matroid on 5 elements has rank <= 2 or corank <= 2, and both the
    rank-<=2 matroids and their duals are rational-realizable, so these rows
    impose exactly the D_5 conditions.
    """
    out: List[Tuple[str, NullityType]] = []
    seen = set()
    for p in enumerate_partitions(5):
        nt = partition_nullity(p)
        for prefix, row_nt in (("", nt), ("dual:", dual_nullity_type(nt))):
            key = h_coordinates(row_nt.entries, 5)
            if key not in seen:
                seen.add(key)
                out.append((prefix + p.label(), row_nt))
    return tuple(out)
