"""Exact rational feasibility: nonnegative combinations with Farkas duals.

Phase-I simplex over Fractions with Bland's rule.  Used to certify
membership in finitely generated cones; on infeasibility the dual vector
gives a separating hyperplane, which is verified before being returned.
"""

from fractions import Fraction
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
    b = [Fraction(v) for v in target]
    a = [[Fraction(columns[j][i]) for j in range(k)] for i in range(m)]
    signs = []
    for i in range(m):
        if b[i] < 0:
            b[i] = -b[i]
            a[i] = [-x for x in a[i]]
            signs.append(-1)
        else:
            signs.append(1)

    # Tableau rows: [x columns | artificial columns | rhs]; artificial i
    # starts basic in row i.  Objective: minimize the sum of artificials.
    width = k + m + 1
    rows = [a[i] + [Fraction(int(i == j)) for j in range(m)] + [b[i]]
            for i in range(m)]
    basis = [k + i for i in range(m)]
    # Reduced-cost row for cost vector (0,...,0,1,...,1): start from the
    # artificial basis, i.e. subtract every constraint row.
    z = [Fraction(0)] * width
    for i in range(m):
        for j in range(width):
            z[j] -= rows[i][j]
    for i in range(m):
        z[k + i] += Fraction(1)

    while True:
        enter = next((j for j in range(k + m) if z[j] < 0), None)
        if enter is None:
            break
        leave = None
        best = None
        for i in range(m):
            if rows[i][enter] > 0:
                ratio = rows[i][-1] / rows[i][enter]
                if best is None or ratio < best or (
                        ratio == best and basis[i] < basis[leave]):
                    best = ratio
                    leave = i
        if leave is None:
            raise ArithmeticError("phase-I objective unbounded below")
        piv = rows[leave][enter]
        rows[leave] = [x / piv for x in rows[leave]]
        for i in range(m):
            if i != leave and rows[i][enter] != 0:
                f = rows[i][enter]
                rows[i] = [x - f * y for x, y in zip(rows[i], rows[leave])]
        if z[enter] != 0:
            f = z[enter]
            z = [x - f * y for x, y in zip(z, rows[leave])]
        basis[leave] = enter

    objective = -z[-1]
    if objective == 0:
        x = [Fraction(0)] * k
        for i, var in enumerate(basis):
            if var < k:
                x[var] = rows[i][-1]
        residual = [sum(x[j] * columns[j][i] for j in range(k)) - target[i]
                    for i in range(m)]
        if any(r != 0 for r in residual) or any(v < 0 for v in x):
            raise CertificateError("nonnegative combination failed its check")
        return x, None

    # Dual values: reduced cost of artificial i is 1 - y_i in the row-signed
    # coordinates; undo the row sign flips to certify in the original system.
    y = [signs[i] * (Fraction(1) - z[k + i]) for i in range(m)]
    if sum(y[i] * target[i] for i in range(m)) <= 0 or any(
            sum(y[i] * col[i] for i in range(m)) > 0 for col in columns):
        raise CertificateError("Farkas certificate failed its check")
    return None, y
