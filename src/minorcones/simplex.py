"""Exact rational feasibility: nonnegative combinations with Farkas duals.

Phase-I simplex with Bland's rule on an integer tableau (integer pivoting:
each pivot divides exactly by the previous one, as in Bareiss elimination).
The tableau is one 2-D numpy array, the constraint rows over the
reduced-cost row, and each pivot updates it with a few whole-array
operations.  It is int64 while every entry is below 2^31 in absolute value,
which proves that the next pivot cannot overflow: a bound carried from
pivot to pivot shows it, and the array is searched for its largest entry
only when the bound reaches 2^31.  From the first entry of 2^31 on, the
tableau holds Python ints (dtype object) and runs the same code.  Used to
certify membership in finitely generated cones; on infeasibility the dual
vector gives a separating hyperplane.  Both answers are verified with one
exact product each on the scaled integer system before they are returned
as Fractions.
"""

from fractions import Fraction
from typing import List, Optional, Sequence, Tuple

import numpy as np

from .exact import (CertificateError, as_fractions, clear_denominators,
                    exact_products)

# With every entry below 2^31 in absolute value, each x * piv - f * y of a
# pivot is below 2 * (2^31 - 1)^2 < 2^63, so int64 cannot overflow.
_INT64_LIMIT = 1 << 31


def _phase_one(rows: List[List[int]], z: List[int], basis: List[int]) -> int:
    """Pivot the integer tableau (`rows`, reduced costs `z`, basic variable
    of each row in `basis`) in place to an optimum by Bland's rule, and
    return d, the last pivot.  Every entry is kept as d times the value
    of the rational tableau (d = 1 at the start), so each update divides
    exactly by the previous pivot.  The pivots run on one array of the
    rows over z, and the lists are filled from it at the end.

    The array is int64 while `top`, a bound on every |entry|, is below
    2^31; it starts as the largest |entry|.  After a pivot, an updated
    entry (x * piv - f * y) / d is at most (top * piv + F * top) / d, F the
    largest |f| of the entering column, and the pivot row keeps its own:
    that is the new bound.  Only when it reaches 2^31 is the largest
    |entry| taken from the array, and if that is 2^31 or more the array
    turns into Python ints (dtype object) for the remaining pivots."""
    m, width = len(rows), len(z) - 1
    values = rows + [z]
    top = max(max(map(max, values)), -min(map(min, values)))
    table = np.array(values, dtype=np.int64 if top < _INT64_LIMIT else object)
    d = 1
    while True:
        costs = table[m].tolist()
        enter = next((j for j in range(width) if costs[j] < 0), None)
        if enter is None:
            break
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
    rows[:] = table[:m].tolist()
    z[:] = costs
    return d


def nonnegative_combination(
    columns: Sequence[Sequence[Fraction]],
    target: Sequence[Fraction],
) -> Tuple[Optional[List[Fraction]], Optional[List[Fraction]]]:
    """Solve sum_j x_j * columns[j] = target with x >= 0, exactly.

    Returns (x, None) on feasibility, or (None, y) with y.target > 0 and
    y.column <= 0 for every column (a Farkas certificate of infeasibility).
    """
    m = len(target)
    k = len(columns)
    # Column j times its denominator lcm scale[j] is the integer column
    # C_j, and the target times its own lcm `size` is the integer T.  The
    # scaling keeps every pivot choice and the duals; x is scaled back at
    # the end.
    cleared = [clear_denominators(col) for col in columns]
    cols = [col for col, _ in cleared]
    scale = [lcm for _, lcm in cleared]
    tgt, size = clear_denominators(target)
    signs = [-1 if v < 0 else 1 for v in tgt]

    # Tableau rows: [x columns | artificial columns | rhs], negated where
    # the target entry is negative; artificial i starts basic in row i.
    # Objective: minimize the sum of artificials.  Its reduced-cost row
    # from the artificial basis is 1 under each artificial minus the sum
    # of the rows: 0 under the artificials, minus the column sums
    # elsewhere.
    signed = [list(entries) if entries[-1] >= 0 else [-x for x in entries]
              for entries in zip(*cols, tgt)]
    sums = [-sum(entries) for entries in zip(*signed)] if m else [0] * (k + 1)
    z = sums[:k] + [0] * m + sums[k:]
    rows = []
    for i, row in enumerate(signed):
        unit = [0] * m
        unit[i] = 1
        rows.append(row[:k] + unit + row[k:])
    basis = list(range(k, k + m))
    d = _phase_one(rows, z, basis)

    # Every pivot is a positive entry, so d > 0 and the checks below, made
    # on d times the tableau values, have the signs of the rational ones.
    if d <= 0:
        raise CertificateError("nonpositive pivot in the integer tableau")
    if z[-1] == 0:
        # Basic x_j is rhs_j * scale[j] / (d * size): check, as one product
        # with the rows of [C_j over the support | T], that
        # sum_j rhs_j * C_j - d * T = 0 with every rhs_j >= 0.
        support = [(var, rows[i][-1]) for i, var in enumerate(basis)
                   if var < k and rows[i][-1]]
        weights = [r for _, r in support]
        system_rows = list(zip(*(cols[j] for j, _ in support), tgt))
        if any(r < 0 for r in weights) or m and exact_products(
                [weights + [-d]], system_rows).any():
            raise CertificateError("nonnegative combination failed its check")
        x = [0] * k
        for j, r in support:
            x[j] = r * scale[j]
        return as_fractions(x, d * size), None

    # Dual values: reduced cost of artificial i is 1 - y_i in the row-signed
    # coordinates; undoing the row sign flips gives Y = d * y in the original
    # system, checked as Y.C_j <= 0 for every column and Y.T > 0.
    dual = [signs[i] * (d - z[k + i]) for i in range(m)]
    values = exact_products([dual], cols + [tgt])[0]
    if values[-1] <= 0 or (values[:-1] > 0).any():
        raise CertificateError("Farkas certificate failed its check")
    return None, as_fractions(dual, d)
