"""Exact rational linear algebra on plain Python lists of Fractions/ints.

Cone certificates must be exact, so no floating point enters any function
in this module.  It is the one home of each integer step the other
modules take.  `clear_denominators` scales a rational vector to integers
once, and `as_fractions` turns an integer result back into reported
Fractions.  `bareiss_step` is the one fraction-free step, and `bareiss`
the one elimination built on it: it gives the rank (`bareiss_rank`) and,
on Kronecker-packed polynomials, a minor over Z[e]
(`polyarith.principal_minor_poly`); the `asn` subset walk takes the same
step.  `combine` is the one primitive combination s * u - t * v, which
the double description (`cones`) and the nullity walk (`nullity`) take.
`exact_products`, the one numpy kernel, takes a whole batch of inner
products, of integer rows or arrays, as an int64 matmul when a bound
(`int64_products_fit`) proves that no sum can overflow, and on Python ints
otherwise: E/D membership, the ray certificate and the LP checks all call
it.  `rref` stays on Fractions: the homogeneity basis has a closed form
(`ratios.homogeneity_basis`), so only the kernel oracle
(`oracles.kernel_basis`) and the tests reduce with it.
"""

from fractions import Fraction
from itertools import chain
from math import gcd, lcm
from operator import mul
from typing import List, Optional, Sequence, Tuple

import numpy as np

Vector = Tuple
Matrix = Sequence[Sequence]


def dot(u: Sequence, v: Sequence):
    return sum(map(mul, u, v))


def int64_products_fit(norm: int, top: int) -> bool:
    """Whether every partial sum of row . vec fits in int64 for any row with
    ||row||_1 <= norm and any vec with every |entry| <= top: the sums are at
    most norm * top in absolute value, and with each factor taken as at
    least 1 every entry fits too."""
    return max(norm, 1) * max(top, 1) < 1 << 63


def largest_entry(values) -> int:
    """max |entry| of an integer array (int64 or Python ints), or of a
    sequence of integer rows; 0 if there are no entries."""
    if isinstance(values, np.ndarray):
        if not values.size:
            return 0
        return max(int(values.max()), -int(values.min()))
    return max(map(abs, chain.from_iterable(values)), default=0)


def largest_norm(rows) -> int:
    """max ||row||_1 of integer rows, a sequence of integer rows or an
    integer array (int64 or Python ints); 0 if there are none."""
    if isinstance(rows, np.ndarray):
        rows = rows.tolist()
    return max((sum(map(abs, row)) for row in rows), default=0)


def exact_products(rows, vecs, norm: Optional[int] = None) -> np.ndarray:
    """The (rows, vecs) matrix of exact integer inner products row . vec.
    `rows` is a nonempty sequence of integer rows or an integer array of
    rows (possibly none), with `norm` their `largest_norm` when the caller
    already holds it; `vecs` is a sequence of integer vectors or an
    integer array with one vector per row.  When `int64_products_fit`
    proves that no partial sum can overflow, the product is an int64
    matmul; otherwise it is the same matmul on Python ints (dtype
    object)."""
    if norm is None:
        norm = largest_norm(rows)
    fits = int64_products_fit(norm, largest_entry(vecs))
    dtype = np.int64 if fits else object
    return np.asarray(rows, dtype=dtype) @ np.asarray(vecs, dtype=dtype).T


class CertificateError(ArithmeticError):
    """An exact answer failed its independent certificate check."""


def clear_denominators(row: Sequence) -> Tuple[List[int], int]:
    """(ints, d) with ints = d * row, d > 0 the lcm of the entries'
    denominators: (the row itself, 1) if all entries are ints.  A value
    computed on ints is reported for the row as that value over d."""
    types = set(map(type, row))
    if types <= {int}:
        return list(row), 1
    if not types <= {int, Fraction}:
        row = [Fraction(x) for x in row]
    d = lcm(*(x.denominator for x in row))
    return [x.numerator * (d // x.denominator) for x in row], d


def as_fractions(values: Sequence[int], d: int) -> List[Fraction]:
    """The reported values v / d of integers computed on a row cleared by
    `clear_denominators`; one Fraction is built per distinct value and
    shared, since Fractions are immutable."""
    made = {v: Fraction(v, d) for v in set(values)}
    return [made[v] for v in values]


def primitive(vec: Sequence) -> Tuple[int, ...]:
    """Scale a rational vector to a primitive integer vector (same ray)."""
    ints, _ = clear_denominators(vec)
    g = gcd(*ints)
    return tuple(ints) if g == 0 else tuple(x // g for x in ints)


def combine(s: int, u: Sequence[int], t: int, v: Sequence[int]
            ) -> Optional[Tuple[int, ...]]:
    """The primitive integer vector along s * u - t * v, for integer
    vectors u, v and integers s, t; None if that vector is zero."""
    w = [s * x - t * y for x, y in zip(u, v)]
    g = gcd(*w)
    if g == 0:
        return None
    return tuple([x // g for x in w] if g > 1 else w)


def rref(rows: Matrix) -> Tuple[List[List[Fraction]], List[int]]:
    """Reduced row echelon form; returns (nonzero rows, pivot columns)."""
    mat = [[Fraction(x) for x in row] for row in rows]
    pivots: List[int] = []
    r = 0
    ncols = len(mat[0]) if mat else 0
    for c in range(ncols):
        piv = next((i for i in range(r, len(mat)) if mat[i][c] != 0), None)
        if piv is None:
            continue
        mat[r], mat[piv] = mat[piv], mat[r]
        inv = mat[r][c]
        mat[r] = [x / inv for x in mat[r]]
        for i in range(len(mat)):
            if i != r and mat[i][c] != 0:
                f = mat[i][c]
                mat[i] = [x - f * y for x, y in zip(mat[i], mat[r])]
        pivots.append(c)
        r += 1
        if r == len(mat):
            break
    return mat[:r], pivots


def bareiss_step(row: Sequence[int], pivot_row: Sequence[int], pivot: int,
                 factor: int, prev: int) -> List[int]:
    """One fraction-free (Bareiss) step on integer rows: the entries
    (pivot * row[j] - factor * pivot_row[j]) / prev.  By Sylvester's
    identity each division is exact; a remainder raises ArithmeticError.
    The division is skipped when prev is 1."""
    nums = [x * pivot - factor * y for x, y in zip(row, pivot_row)]
    if prev == 1:
        return nums
    out = []
    for num in nums:
        q, r = divmod(num, prev)
        if r:
            raise ArithmeticError("inexact division")
        out.append(q)
    return out


def bareiss(rows: Sequence[Sequence[int]]) -> Tuple[int, int]:
    """(rank, last pivot) of integer rows by fraction-free elimination with
    row swaps past a zero pivot, the pivot signed by the swaps.  Each step
    pivots on the first column that is not zero and keeps only the later
    columns of the other rows, so the last pivot of a square matrix of
    full rank is its determinant; the empty matrix gives (0, 1).  The
    rows are not changed."""
    m = list(rows)
    rank, sign, prev = 0, 1, 1
    c = 0
    while m and c < len(m[0]):
        piv = next((i for i, row in enumerate(m) if row[c]), None)
        if piv is None:
            c += 1
            continue
        if piv:
            m[0], m[piv] = m[piv], m[0]
            sign = -sign
        pivot, tail = m[0][c], m[0][c + 1:]
        m = [bareiss_step(row[c + 1:], tail, pivot, row[c], prev)
             for row in m[1:]]
        prev = pivot
        rank += 1
        c = 0
    return rank, sign * prev


def bareiss_rank(rows: Matrix) -> int:
    """Exact rank by `bareiss`.  Rows of ints are used as they are; other
    rows are first cleared of denominators."""
    return bareiss([clear_denominators(row)[0] for row in rows])[0]


rank = bareiss_rank
