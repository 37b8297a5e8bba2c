"""Independent references that the exact results are checked against:
brute force, minor expansion and one cofactor expansion, `cofactor_det`,
over Q (`det`) and over Z[e] on coefficient lists (`poly_det_cofactor`).
None runs on a hot path: in the package only `reproduce` imports this
module, for its `oracle_equivalence` check.  `brute_force_rays` reduces
its rows by the closed forms of `ratios`, not as `cones.extreme_rays`
does.
"""

from fractions import Fraction
from itertools import combinations
from operator import add, mul, neg
from typing import List, Tuple

from .cones import ConstraintSystem, Ray
from .exact import Matrix, bareiss_rank, dot, primitive, rref
from .polyarith import (P_ONE, P_ZERO, Poly, PolyMatrix, _principal_minors,
                        _unpack, poly)
from .ratios import h_coordinates, h_lift


def p_add(a: Poly, b: Poly) -> Poly:
    if len(a) < len(b):
        a, b = b, a
    return poly([x + y for x, y in zip(a, b)] + list(a[len(b):]))


def p_neg(a: Poly) -> Poly:
    return tuple(-c for c in a)


def p_mul(a: Poly, b: Poly) -> Poly:
    if not a or not b:
        return P_ZERO
    out = [0] * (len(a) + len(b) - 1)
    for i, ca in enumerate(a):
        if ca:
            for j, cb in enumerate(b):
                out[i + j] += ca * cb
    return poly(out)


def cofactor_det(rows: Matrix, ring: Tuple):
    """Determinant of a square matrix by cofactor expansion along the
    first row, skipping zero entries, over the ring given as (zero, unit,
    addition, negation, multiplication); the empty matrix gives the unit.
    Exponential: small matrices only."""
    zero, one, plus, minus, times = ring
    if not rows:
        return one
    total = zero
    for j, entry in enumerate(rows[0]):
        if entry:
            minor = [[x for c, x in enumerate(row) if c != j]
                     for row in rows[1:]]
            term = times(entry, cofactor_det(minor, ring))
            total = plus(total, minus(term) if j % 2 else term)
    return total


def det(mat: Matrix) -> Fraction:
    """Determinant over Q by `cofactor_det`."""
    return cofactor_det([[Fraction(x) for x in row] for row in mat],
                        (Fraction(0), Fraction(1), add, neg, mul))


def poly_det_cofactor(rows: List[List[Poly]]) -> Poly:
    """Determinant over Z[e] on coefficient lists by `cofactor_det`."""
    return cofactor_det(rows, (P_ZERO, P_ONE, p_add, p_neg, p_mul))


def rank_by_minors(rows: Matrix) -> int:
    """Rank via brute-force minor expansion."""
    mat = [[Fraction(x) for x in row] for row in rows]
    nrows, ncols = len(mat), len(mat[0]) if mat else 0
    for k in range(min(nrows, ncols), 0, -1):
        for rs in combinations(range(nrows), k):
            for cs in combinations(range(ncols), k):
                sub = [[mat[i][j] for j in cs] for i in rs]
                if det(sub) != 0:
                    return k
    return 0


def kernel_basis(rows: Matrix, ncols: int) -> List[Tuple[int, ...]]:
    """Primitive integer basis of the right kernel of `rows`, by `rref`."""
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


def brute_force_rays(system: ConstraintSystem) -> List[Ray]:
    """The extreme rays of `system`, in `Ray.sort_key` order: on the
    homogeneity quotient of dimension dim, the feasible directions of the
    one-dimensional kernels of every dim - 1 independent inequality rows.
    Exponential; small n only."""
    n = system.ground_size
    dim = (1 << n) - n - 1
    reduced = [h_coordinates(row, n) for row in system.inequalities]
    found = set()
    for rows in combinations(reduced, dim - 1):
        if bareiss_rank(rows) == dim - 1:
            x = kernel_basis(rows, dim)[0]
            for cand in (x, tuple(-c for c in x)):
                if all(dot(row, cand) >= 0 for row in reduced):
                    found.add(primitive(h_lift(cand, n)))
    return sorted((Ray(n, vec) for vec in found), key=Ray.sort_key)


def gram_principal_minors(g: PolyMatrix) -> List[Poly]:
    """Mask-indexed principal minors det G[S] of a Gram matrix G with
    integer coefficients: the packed subset walk behind `polyarith.asn`,
    unpacked for comparison with `poly_det_cofactor`."""
    k, minors = _principal_minors(g.entries)
    return [_unpack(m, k) for m in minors]
