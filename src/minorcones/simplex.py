"""Exact rational feasibility: nonnegative combinations with Farkas duals.

Phase-I simplex with Bland's rule on an integer tableau (integer pivoting:
each pivot divides exactly by the previous one, as in Bareiss elimination).
Used to certify membership in finitely generated cones; on infeasibility
the dual vector gives a separating hyperplane, verified before it is
returned.
"""

from fractions import Fraction
from math import lcm
from typing import List, Optional, Sequence, Tuple

from .exact import CertificateError


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
    # Scaling column j by its denominator lcm and the target by its own
    # keeps every pivot choice and the duals; x is scaled back at the end.
    scale = [lcm(1, *(v.denominator for v in col)) for col in columns]
    size = lcm(1, *(v.denominator for v in target))
    signs = [-1 if v < 0 else 1 for v in target]

    # Tableau rows: [x columns | artificial columns | rhs], negated where
    # the target entry is negative; artificial i starts basic in row i.
    # Objective: minimize the sum of artificials.  Entries are d times the
    # tableau's values, d the last pivot (1 at the start).
    rows = [[int(signs[i] * columns[j][i] * scale[j]) for j in range(k)]
            + [int(i == r) for r in range(m)]
            + [int(signs[i] * target[i] * size)] for i in range(m)]
    basis = [k + i for i in range(m)]
    # Reduced-cost row for cost vector (0,...,0,1,...,1): start from the
    # artificial basis, i.e. subtract every constraint row.
    z = [-sum(row[j] for row in rows) for j in range(k + m + 1)]
    for i in range(m):
        z[k + i] += 1
    d = 1

    while True:
        enter = next((j for j in range(k + m) if z[j] < 0), None)
        if enter is None:
            break
        # Ratio test rhs/entry over positive entries (d cancels), ties to
        # the smallest basic variable.
        leave = min((i for i in range(m) if rows[i][enter] > 0),
                    key=lambda i: (Fraction(rows[i][-1], rows[i][enter]),
                                   basis[i]), default=None)
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
        z = [(x * piv - f * y) // d for x, y in zip(z, pivot_row)]
        d = piv
        basis[leave] = enter

    if z[-1] == 0:
        x = [Fraction(0)] * k
        for i, var in enumerate(basis):
            if var < k:
                x[var] = Fraction(rows[i][-1] * scale[var], d * size)
        support = [j for j in range(k) if x[j]]
        if any(sum(x[j] * columns[j][i] for j in support) != target[i]
               for i in range(m)) or any(v < 0 for v in x):
            raise CertificateError("nonnegative combination failed its check")
        return x, None

    # Dual values: reduced cost of artificial i is 1 - y_i in the row-signed
    # coordinates; undo the row sign flips to certify in the original system.
    y = [signs[i] * Fraction(d - z[k + i], d) for i in range(m)]
    if sum(y[i] * target[i] for i in range(m)) <= 0 or any(
            sum(y[i] * col[i] for i in range(m)) > 0 for col in columns):
        raise CertificateError("Farkas certificate failed its check")
    return None, y
