"""Exact rational feasibility: nonnegative combinations with Farkas duals.

Phase-I simplex with Bland's rule on an integer tableau (integer pivoting:
each pivot divides exactly by the previous one, as in Bareiss elimination).
It takes and returns integers cleared of denominators: the columns as a
(k, m) integer array, such as the read-only int64 generator matrix
`ratios.koteljanskii_matrix(n)` that every cone(K_n) LP shares, the target
as (ints, d) and the answer as integers over a positive denominator.  The
tableau is one 2-D numpy array, the constraint rows over the reduced-cost
row, and each pivot updates it with a few whole-array operations.  It is
int64 while every entry is below 2^31 in absolute value, which proves that
the next pivot cannot overflow: a bound carried from pivot to pivot, from
the largest entry that the build finds, shows it, and the array is
searched again only when the bound reaches 2^31.  From the first entry of
2^31 on, the tableau holds Python ints (dtype object) and runs the same
code.  Used to certify membership in finitely generated cones; on
infeasibility the dual vector gives a separating hyperplane.  Both answers
are verified with one exact product each against the integer columns.
"""

from typing import List, Optional, Sequence, Tuple

import numpy as np

from .exact import (CertificateError, dot, exact_products, int64_products_fit,
                    largest_entry)

# With every entry below 2^31 in absolute value, each x * piv - f * y of a
# pivot is below 2 * (2^31 - 1)^2 < 2^63, so int64 cannot overflow.
_INT64_LIMIT = 1 << 31

Cleared = Tuple[List[int], int]   # (ints, d), d > 0, for ints / d


def _tableau(cols: np.ndarray, tgt: Sequence[int]) -> Tuple[np.ndarray, int]:
    """The initial phase-I tableau of the integer system sum_j x_j * cols[j]
    = tgt, for a (k, m) integer array `cols` and m Python ints `tgt`: rows
    [x columns | artificial columns | rhs], negated where the target entry
    is negative, with artificial i basic in row i, over the reduced-cost
    row of the objective "minimize the sum of artificials" (0 under the
    artificials, minus the column sums elsewhere).  It is int64 if every
    entry is below 2^31 in absolute value, else Python ints.  Returned with
    the bound that `_phase_one` starts from: the largest |entry| of an
    int64 tableau (unused on Python ints)."""
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
    if dtype is np.int64:
        top = largest_entry(table)
        if top >= _INT64_LIMIT:
            table = table.astype(object)
    return table, top


def _phase_one(table: np.ndarray, basis: List[int], top: int
               ) -> Tuple[np.ndarray, int]:
    """Pivot the integer tableau `table` (the constraint rows over the
    reduced-cost row, as `_tableau` builds it; the basic variable of each
    row in `basis`) to an optimum by Bland's rule, and return the final
    tableau and d, the last pivot.  Every entry is kept as d times the
    value of the rational tableau (d = 1 at the start), so each update
    divides exactly by the previous pivot.  `basis` is updated in place.

    An int64 tableau stays int64 while `top`, a bound on every |entry|, is
    below 2^31; it starts as the largest |entry|, from `_tableau`.  After a
    pivot, an updated entry (x * piv - f * y) / d is at most
    (top * piv + F * top) / d, F the largest |f| of the entering column,
    and the pivot row keeps its own: that is the new bound.  Only when it
    reaches 2^31 is the largest |entry| taken from the array, and if that
    is 2^31 or more the array turns into Python ints (dtype object) for
    the remaining pivots."""
    m, width = len(basis), table.shape[1] - 1
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


def nonnegative_combination(cols: np.ndarray, target: Cleared
                            ) -> Tuple[Optional[Cleared], Optional[Cleared]]:
    """Solve sum_j x_j * cols[j] = target with x >= 0, exactly.

    `cols` is a (k, m) integer numpy array (int64 or Python ints) whose row
    j is column j, and `target` the pair (ints, d), d > 0, standing for
    ints / d, as `exact.clear_denominators` or `FormalLog.cleared` give it.

    Returns ((x, e), None), with x >= 0 the k integers and e > 0 the
    denominator of a combination x / e; or (None, (y, e)), with y.target > 0
    and y.cols[j] <= 0 for every column (a Farkas certificate of
    infeasibility), y / e the dual values of the LP.
    """
    tgt, size = target
    k, m = cols.shape
    basis = list(range(k, k + m))
    table, top = _tableau(cols, tgt)
    table, d = _phase_one(table, basis, top)

    # Every pivot is a positive entry, so d > 0 and the checks below, made
    # on d times the tableau values, have the signs of the rational ones.
    if d <= 0:
        raise CertificateError("nonpositive pivot in the integer tableau")
    z = table[m].tolist()
    if z[-1] == 0:
        # Basic x_j is rhs_j / (d * size): check, with one product over the
        # support, that sum_j rhs_j * cols[j] = d * tgt with every rhs_j >= 0.
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
            x[j] = r
        return (x, d * size), None

    # Dual values: reduced cost of artificial i is 1 - y_i in the row-signed
    # coordinates; undoing the row sign flips gives Y = d * y in the original
    # system, checked as Y.cols[j] <= 0 for every column and Y.tgt > 0.
    dual = [(-1 if t < 0 else 1) * (d - z[k + i]) for i, t in enumerate(tgt)]
    if dot(dual, tgt) <= 0 or (exact_products([dual], cols) > 0).any():
        raise CertificateError("Farkas certificate failed its check")
    return None, (dual, d)
