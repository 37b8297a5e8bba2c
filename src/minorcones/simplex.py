"""Exact rational feasibility: nonnegative combinations with Farkas duals.

Phase-I simplex with Bland's rule on an integer tableau (integer pivoting:
each pivot divides exactly by the previous one, as in Bareiss elimination).
Used to certify membership in finitely generated cones; on infeasibility
the dual vector gives a separating hyperplane.  Both answers are verified
in integers on the scaled system before they are returned as Fractions.
"""

from fractions import Fraction
from typing import List, Optional, Sequence, Tuple

from .exact import CertificateError, as_fractions, clear_denominators, dot


def _phase_one(rows: List[List[int]], z: List[int], basis: List[int]) -> int:
    """Pivot the integer tableau (`rows`, reduced costs `z`, basic variable
    of each row in `basis`) in place to an optimum by Bland's rule, and
    return d, the last pivot.  Every entry is kept as d times the value
    of the rational tableau (d = 1 at the start), so each update divides
    exactly by the previous pivot."""
    m, width = len(rows), len(z) - 1
    d = 1
    while True:
        enter = next((j for j in range(width) if z[j] < 0), None)
        if enter is None:
            return d
        # Ratio test rhs/entry over positive entries (d cancels), ties to
        # the smallest basic variable; ratios compared by cross-multiplying.
        leave = None
        for i in range(m):
            a = rows[i][enter]
            if a > 0:
                if leave is not None:
                    lhs = rows[i][-1] * rows[leave][enter]
                    rhs = rows[leave][-1] * a
                    if lhs > rhs or lhs == rhs and basis[i] > basis[leave]:
                        continue
                leave = i
        if leave is None:
            raise ArithmeticError("phase-I objective unbounded below")
        pivot_row = rows[leave]
        piv = pivot_row[enter]
        for i in range(m):
            f = rows[i][enter]
            if i != leave and (f or piv != d):
                rows[i] = [(x * piv - f * y) // d
                           for x, y in zip(rows[i], pivot_row)]
        f = z[enter]
        z[:] = [(x * piv - f * y) // d for x, y in zip(z, pivot_row)]
        d = piv
        basis[leave] = enter


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
    # Objective: minimize the sum of artificials.
    rows = [[signs[i] * col[i] for col in cols]
            + [int(i == r) for r in range(m)]
            + [signs[i] * tgt[i]] for i in range(m)]
    basis = [k + i for i in range(m)]
    # Reduced-cost row for cost vector (0,...,0,1,...,1): start from the
    # artificial basis, i.e. subtract every constraint row.
    z = [-sum(col) for col in zip(*rows)] if rows else [0] * (k + 1)
    for i in range(m):
        z[k + i] += 1
    d = _phase_one(rows, z, basis)

    # Every pivot is a positive entry, so d > 0 and the checks below, made
    # on d times the tableau values, have the signs of the rational ones.
    if d <= 0:
        raise CertificateError("nonpositive pivot in the integer tableau")
    if z[-1] == 0:
        # Basic x_j is rhs_j * scale[j] / (d * size): check
        # sum_j rhs_j * C_j = d * T with every rhs_j >= 0.
        support = [(var, rows[i][-1]) for i, var in enumerate(basis)
                   if var < k and rows[i][-1]]
        if any(r < 0 for _, r in support) or any(
                sum(r * cols[j][i] for j, r in support) != d * tgt[i]
                for i in range(m)):
            raise CertificateError("nonnegative combination failed its check")
        x = [0] * k
        for j, r in support:
            x[j] = r * scale[j]
        return as_fractions(x, d * size), None

    # Dual values: reduced cost of artificial i is 1 - y_i in the row-signed
    # coordinates; undoing the row sign flips gives Y = d * y in the original
    # system, checked as Y.T > 0 and Y.C_j <= 0 for every column.
    dual = [signs[i] * (d - z[k + i]) for i in range(m)]
    if dot(dual, tgt) <= 0 or any(dot(dual, col) > 0 for col in cols):
        raise CertificateError("Farkas certificate failed its check")
    return None, as_fractions(dual, d)
