"""Exact rational feasibility: nonnegative combinations with Farkas duals.

Phase-I simplex with Bland's rule on an integer tableau (integer pivoting:
each pivot divides exactly by the previous one, as in Bareiss elimination).
The columns come either as rational vectors, cleared of denominators once
per call, or as an integer array already cleared, such as the read-only
int64 generator matrix `ratios.koteljanskii_matrix(n)` that every cone(K_n)
LP shares.  The tableau is one 2-D numpy array built from that array, the
constraint rows over the reduced-cost row, and each pivot updates it with a
few whole-array operations.  It is int64 while every entry is below 2^31 in
absolute value, which proves that the next pivot cannot overflow: a bound
carried from pivot to pivot shows it, and the array is searched for its
largest entry only when the bound reaches 2^31.  From the first entry of
2^31 on, the tableau holds Python ints (dtype object) and runs the same
code.  Used to certify membership in finitely generated cones; on
infeasibility the dual vector gives a separating hyperplane.  Both answers
are verified with one exact product each against the integer columns
before they are returned as Fractions.
"""

from fractions import Fraction
from typing import List, Optional, Sequence, Tuple, Union

import numpy as np

from .exact import (CertificateError, as_fractions, clear_denominators, dot,
                    exact_products, int64_products_fit, largest_entry)

# With every entry below 2^31 in absolute value, each x * piv - f * y of a
# pivot is below 2 * (2^31 - 1)^2 < 2^63, so int64 cannot overflow.
_INT64_LIMIT = 1 << 31


def _tableau(cols: np.ndarray, tgt: Sequence[int]) -> np.ndarray:
    """The initial phase-I tableau of the integer system sum_j x_j * cols[j]
    = tgt, for a (k, m) integer array `cols` and m Python ints `tgt`: rows
    [x columns | artificial columns | rhs], negated where the target entry
    is negative, with artificial i basic in row i, over the reduced-cost
    row of the objective "minimize the sum of artificials" (0 under the
    artificials, minus the column sums elsewhere).  It is int64 if every
    entry is below 2^31 in absolute value, else Python ints."""
    k, m = cols.shape
    # A column sum is at most m times the largest entry, so int64 holds the
    # build whenever int64 holds that bound.
    top = max(largest_entry(cols), max(map(abs, tgt), default=0))
    dtype = np.int64 if int64_products_fit(m, top) else object
    table = np.zeros((m + 1, k + m + 1), dtype=dtype)
    body = table[:m]
    signs = np.array([-1 if t < 0 else 1 for t in tgt], dtype=np.int64)
    body[:, :k] = np.asarray(cols, dtype=dtype).T * signs[:, None]
    body[:, k:k + m].flat[::m + 1] = 1
    body[:, -1] = [abs(t) for t in tgt]
    table[m] = -body.sum(axis=0)
    table[m, k:k + m] = 0
    if dtype is np.int64 and largest_entry(table) >= _INT64_LIMIT:
        table = table.astype(object)
    return table


def _phase_one(table: np.ndarray, basis: List[int]) -> Tuple[np.ndarray, int]:
    """Pivot the integer tableau `table` (the constraint rows over the
    reduced-cost row, as `_tableau` builds it; the basic variable of each
    row in `basis`) to an optimum by Bland's rule, and return the final
    tableau and d, the last pivot.  Every entry is kept as d times the
    value of the rational tableau (d = 1 at the start), so each update
    divides exactly by the previous pivot.  `basis` is updated in place.

    An int64 tableau stays int64 while `top`, a bound on every |entry|, is
    below 2^31; it starts as the largest |entry|.  After a pivot, an
    updated entry (x * piv - f * y) / d is at most (top * piv + F * top) / d,
    F the largest |f| of the entering column, and the pivot row keeps its
    own: that is the new bound.  Only when it reaches 2^31 is the largest
    |entry| taken from the array, and if that is 2^31 or more the array
    turns into Python ints (dtype object) for the remaining pivots."""
    m, width = len(basis), table.shape[1] - 1
    top = largest_entry(table)
    d = 1
    while True:
        costs = table[m].tolist()
        enter = next((j for j in range(width) if costs[j] < 0), None)
        if enter is None:
            return table, d
        # Ratio test rhs/entry over positive entries (d cancels), ties to
        # the smallest basic variable; ratios compared by cross-multiplying.
        col, rhs = table[:m, enter].tolist(), table[:m, -1].tolist()
        leave = None
        for i, a in enumerate(col):
            if a > 0:
                if leave is not None:
                    lhs = rhs[i] * col[leave]
                    right = rhs[leave] * a
                    if lhs > right or lhs == right and basis[i] > basis[leave]:
                        continue
                leave = i
        if leave is None:
            raise ArithmeticError("phase-I objective unbounded below")
        # Every other row x, with entry f in the entering column, becomes
        # (x * piv - f * pivot_row) // d, in place; the pivot row stays.
        # A factor or divisor of 1 is skipped: most pivots of the cone(K_n)
        # LPs are unimodular.
        piv, pivot_row = col[leave], table[leave].copy()
        outer = table[:, enter, None] * pivot_row
        if piv != 1:
            table *= piv
        table -= outer
        if d != 1:
            table //= d
        table[leave] = pivot_row
        if table.dtype != object:
            f_top = max(max(col), -min(col), -costs[enter])
            top = max(top, (top * piv + f_top * top) // d)
            if top >= _INT64_LIMIT:
                top = int(np.abs(table).max())
                if top >= _INT64_LIMIT:
                    table = np.array(table, dtype=object)
        d = piv
        basis[leave] = enter


def nonnegative_combination(
    columns: Union[Sequence[Sequence[Fraction]], np.ndarray],
    target: Union[Sequence[Fraction], Tuple[Sequence[int], int]],
) -> Tuple[Optional[List[Fraction]], Optional[List[Fraction]]]:
    """Solve sum_j x_j * columns[j] = target with x >= 0, exactly.

    `columns` is a sequence of rational columns, or a (k, m) integer numpy
    array (int64 or Python ints) whose row j is column j, already cleared
    of denominators.  With an array, `target` is given cleared too, as the
    pair (ints, d) of `exact.clear_denominators` (or `FormalLog.cleared`)
    standing for ints / d; otherwise it is a rational sequence.

    Returns (x, None) on feasibility, or (None, y) with y.target > 0 and
    y.column <= 0 for every column (a Farkas certificate of infeasibility).
    """
    # Column j times its denominator lcm scale[j] is the integer column
    # cols[j], and the target times its own lcm `size` is the integer tgt.
    # The scaling keeps every pivot choice and the duals; x is scaled back
    # at the end.
    if isinstance(columns, np.ndarray):
        cols, scale = columns, None
        tgt, size = target
    else:
        cleared = [clear_denominators(col) for col in columns]
        tgt, size = clear_denominators(target)
        cols = np.array([col for col, _ in cleared], dtype=object).reshape(
            len(cleared), len(tgt))
        scale = [lcm for _, lcm in cleared]
    k, m = cols.shape
    basis = list(range(k, k + m))
    table, d = _phase_one(_tableau(cols, tgt), basis)

    # Every pivot is a positive entry, so d > 0 and the checks below, made
    # on d times the tableau values, have the signs of the rational ones.
    if d <= 0:
        raise CertificateError("nonpositive pivot in the integer tableau")
    z = table[m].tolist()
    if z[-1] == 0:
        # Basic x_j is rhs_j * scale[j] / (d * size): check, with one
        # product over the support, that sum_j rhs_j * cols[j] = d * tgt
        # with every rhs_j >= 0.
        support = [(var, r) for var, r in zip(basis, table[:m, -1].tolist())
                   if var < k and r]
        weights = [r for _, r in support]
        combined = exact_products([weights],
                                  cols[[j for j, _ in support]].T)[0]
        if (any(r < 0 for r in weights)
                or combined.tolist() != [d * t for t in tgt]):
            raise CertificateError("nonnegative combination failed its check")
        x = [0] * k
        for j, r in support:
            x[j] = r if scale is None else r * scale[j]
        return as_fractions(x, d * size), None

    # Dual values: reduced cost of artificial i is 1 - y_i in the row-signed
    # coordinates; undoing the row sign flips gives Y = d * y in the original
    # system, checked as Y.cols[j] <= 0 for every column and Y.tgt > 0.
    dual = [(-1 if t < 0 else 1) * (d - z[k + i]) for i, t in enumerate(tgt)]
    if dot(dual, tgt) <= 0 or (exact_products([dual], cols) > 0).any():
        raise CertificateError("Farkas certificate failed its check")
    return None, as_fractions(dual, d)
