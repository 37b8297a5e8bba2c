"""Exact rational linear algebra on plain Python lists of Fractions/ints.

Cone certificates must be exact, so no floating point enters any function
in this module.  The hot kernels run on Python ints: `clear_denominators`
scales a rational vector to integers once, `primitive` and `bareiss_rank`
work on its output, and `as_fractions` turns an integer result back into
reported Fractions.  `exact_products`, the one numpy kernel, takes a whole
batch of inner products, of integer rows or arrays, as an int64 matmul when
a bound proves that no sum can overflow, and on Python ints otherwise.
`rref`, `kernel_basis`, `det` and `rank_by_minors` stay on Fractions:
`rref` and `kernel_basis` serve only the brute-force ray oracle
(`cones.brute_force_rays`) and the tests, since the homogeneity basis has a
closed form (`ratios.homogeneity_basis`).
"""

from fractions import Fraction
from itertools import combinations
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
    """max |entry| of an integer array (int64 or Python ints; 0 if it is
    empty), or of a nonempty sequence of nonempty integer rows."""
    if isinstance(values, np.ndarray):
        if not values.size:
            return 0
        return max(int(values.max()), -int(values.min()))
    return max(max(map(max, values)), -min(map(min, values)))


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


def bareiss_rank(rows: Matrix) -> int:
    """Exact rank by fraction-free (Bareiss) elimination.  Rows of ints are
    used as they are; other rows are first cleared of denominators."""
    mat = [clear_denominators(row)[0] for row in rows]
    if not mat:
        return 0
    nrows, ncols = len(mat), len(mat[0])
    prev = 1
    r = 0
    for c in range(ncols):
        piv = next((i for i in range(r, nrows) if mat[i][c] != 0), None)
        if piv is None:
            continue
        mat[r], mat[piv] = mat[piv], mat[r]
        p = mat[r][c]
        for i in range(r + 1, nrows):
            fi = mat[i][c]
            row_i = mat[i]
            row_r = mat[r]
            for j in range(ncols):
                row_i[j] = (row_i[j] * p - fi * row_r[j]) // prev
        prev = p
        r += 1
        if r == nrows:
            break
    return r


rank = bareiss_rank


def rank_by_minors(rows: Matrix) -> int:
    """Rank via brute-force minor expansion; an independent test oracle."""
    mat = [[Fraction(x) for x in row] for row in rows]
    if not mat or not mat[0]:
        return 0
    nrows, ncols = len(mat), len(mat[0])
    for k in range(min(nrows, ncols), 0, -1):
        for rs in combinations(range(nrows), k):
            for cs in combinations(range(ncols), k):
                sub = [[mat[i][j] for j in cs] for i in rs]
                if det(sub) != 0:
                    return k
    return 0


def det(mat: Matrix) -> Fraction:
    """Determinant by cofactor expansion (small matrices only)."""
    k = len(mat)
    if k == 0:
        return Fraction(1)
    if k == 1:
        return Fraction(mat[0][0])
    total = Fraction(0)
    sign = 1
    for j in range(k):
        if mat[0][j] != 0:
            minor = [[row[c] for c in range(k) if c != j] for row in mat[1:]]
            total += sign * Fraction(mat[0][j]) * det(minor)
        sign = -sign
    return total


def kernel_basis(rows: Matrix, ncols: int) -> List[Tuple[int, ...]]:
    """Primitive integer basis of the right kernel of `rows`."""
    red, pivots = rref(rows)
    free = [c for c in range(ncols) if c not in pivots]
    basis = []
    for f in free:
        vec = [Fraction(0)] * ncols
        vec[f] = Fraction(1)
        for r, p in enumerate(pivots):
            vec[p] = -red[r][f]
        basis.append(primitive(vec))
    return basis
