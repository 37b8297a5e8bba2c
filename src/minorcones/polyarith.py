"""Polynomial matrix families P(eps), exact Gram minors, and asymptotic
nullity types: the half-degree d_S of the dominating term C_S * eps^(2 d_S)
of each principal minor of P(eps)^T P(eps).

Polynomials have rational coefficients: ints where the input gave ints,
Fractions where it gave anything else (a parsed polynomial has ints for its
integral coefficients).  `asn` scales P by the lcm of its coefficient
denominators once, so the Gram matrix and its minors are computed over Z[e]
on Python ints: `gram_principal_minors` takes all 2^n principal minors from
one depth-first fraction-free walk over the subsets.  `poly_det_bareiss`,
one determinant, shares its elimination step, `_eliminate`, whose
divisions `p_divexact` checks to be exact in Z[e].  Fractions stay in
parsing, formatting and the cofactor oracle.
"""

import re
from dataclasses import dataclass
from fractions import Fraction
from typing import Dict, List, Sequence, Tuple

import numpy as np

from .exact import CertificateError, clear_denominators, dot
from .ratios import MAX_GROUND_SIZE, FormalLog
from .subsets import members_of

# Dense univariate polynomials over the rationals: coefficient tuples with
# index = degree and no trailing zeros; the zero polynomial is ().
Poly = Tuple[Fraction, ...]

P_ZERO: Poly = ()
P_ONE: Poly = (1,)


def _trim(coeffs: List) -> Poly:
    while coeffs and not coeffs[-1]:
        coeffs.pop()
    return tuple(coeffs)


def poly(coeffs: Sequence) -> Poly:
    """A Poly from numbers: ints are kept, anything else becomes a Fraction."""
    return _trim([c if type(c) is int else Fraction(c) for c in coeffs])


def p_add(a: Poly, b: Poly) -> Poly:
    if len(a) < len(b):
        a, b = b, a
    return _trim([x + y for x, y in zip(a, b)] + list(a[len(b):]))


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
    return _trim(out)


def p_divexact(a: Poly, b: Poly) -> Poly:
    """Exact division in Z[e]: raises ArithmeticError if a quotient
    coefficient is not an integer or a remainder is left (neither happens
    inside fraction-free elimination over Z[e])."""
    if not b:
        raise ZeroDivisionError("polynomial division by zero")
    rem = list(a)
    top = len(b) - 1
    lead = b[top]
    out = [0] * max(len(a) - top, 0)
    for shift in range(len(out) - 1, -1, -1):
        head = rem[shift + top]
        if head:
            factor, left = divmod(head, lead)
            if left:
                raise ArithmeticError("inexact polynomial division")
            out[shift] = factor
            for i, cb in enumerate(b, start=shift):
                rem[i] -= factor * cb
    if any(rem[:top]):
        raise ArithmeticError("inexact polynomial division")
    return _trim(out)


def p_eval(a: Poly, x: float) -> float:
    total = 0.0
    for c in reversed(a):
        total = total * x + float(c)
    return total


def lowest_term(a: Poly) -> Tuple[int, Fraction]:
    """(degree, coefficient) of the lowest-order nonzero term."""
    for i, c in enumerate(a):
        if c != 0:
            return i, c
    raise ValueError("zero polynomial has no lowest term")


_TERM = re.compile(
    r"^(?P<sign>[+-]?)(?P<coef>\d+(?:/\d+)?)?(?:\*?(?P<var>e)(?:\^(?P<deg>\d+))?)?$")


def parse_poly(text: str) -> Poly:
    """Parse a polynomial in the literal variable `e`, e.g. `1 + 2*e - 3/2*e^2`."""
    s = "".join(text.split())
    if not s:
        raise ValueError("empty polynomial")
    if s in ("0",):
        return P_ZERO
    chunks = re.split(r"(?=[+-])", s)
    coeffs: Dict[int, Fraction] = {}
    for chunk in chunks:
        if not chunk:
            continue
        m = _TERM.match(chunk)
        if not m or (m.group("coef") is None and m.group("var") is None):
            raise ValueError(f"bad polynomial term {chunk!r} in {text!r}")
        sign, coef, var, deg = m.group("sign", "coef", "var", "deg")
        if coef is None:
            value = 1
        elif "/" in coef:
            num, den = coef.split("/")
            value = Fraction(int(num), int(den))
        else:
            value = int(coef)
        if sign == "-":
            value = -value
        power = (int(deg) if deg else 1) if var else 0
        coeffs[power] = coeffs.get(power, 0) + value
    top = max(coeffs)
    # Integral coefficients are ints, also where Fractions summed to one,
    # which p_eval converts to float without Fraction.__float__ at every
    # point.
    return poly([c.numerator if c.denominator == 1 else c
                 for c in (coeffs.get(i, 0) for i in range(top + 1))])


def format_poly(a: Poly) -> str:
    if not a:
        return "0"
    parts = []
    for deg, c in enumerate(a):
        if c == 0:
            continue
        mag = abs(c)
        if deg == 0:
            body = str(mag)
        else:
            e = "e" if deg == 1 else f"e^{deg}"
            body = e if mag == 1 else f"{mag}*{e}"
        parts.append(("- " if c < 0 else "+ ") + body)
    text = " ".join(parts)
    return text[2:] if text.startswith("+ ") else "-" + text[2:]


@dataclass(frozen=True)
class PolyMatrix:
    size: int
    entries: Tuple[Tuple[Poly, ...], ...]

    def __post_init__(self):
        if len(self.entries) != self.size or any(
                len(row) != self.size for row in self.entries):
            raise ValueError("polynomial matrix must be square")


def poly_matrix(rows: Sequence[Sequence]) -> PolyMatrix:
    """Build a PolyMatrix from entries that are Polys, numbers, or strings."""
    def convert(x) -> Poly:
        if isinstance(x, tuple):
            return poly(x)
        if isinstance(x, str):
            return parse_poly(x)
        return poly([x])

    entries = tuple(tuple(convert(x) for x in row) for row in rows)
    return PolyMatrix(len(entries), entries)


def parse_poly_matrix(text: str) -> PolyMatrix:
    """One row per line, entries comma-separated polynomials in `e`."""
    rows = []
    for lineno, line in enumerate(text.splitlines(), start=1):
        if not line.strip():
            continue
        try:
            rows.append([parse_poly(tok) for tok in line.split(",")])
        except ValueError as err:
            raise ValueError(f"line {lineno}: {err}")
    if not rows:
        raise ValueError("empty polynomial matrix file")
    width = len(rows[0])
    if any(len(r) != width for r in rows) or len(rows) != width:
        raise ValueError("polynomial matrix must be square")
    return poly_matrix(rows)


def format_poly_matrix(p: PolyMatrix) -> str:
    return "\n".join(", ".join(format_poly(x) for x in row)
                     for row in p.entries)


def gram(p: PolyMatrix) -> PolyMatrix:
    """P^T P with exact polynomial products (real transpose; data rational,
    over Z[e] when P's coefficients are ints)."""
    n = p.size
    columns = list(zip(*p.entries))
    out = [[P_ZERO] * n for _ in range(n)]
    for i in range(n):
        for j in range(i, n):
            acc = [0] * (2 * max(map(len, columns[i] + columns[j])) - 1)
            for x, y in zip(columns[i], columns[j]):
                for k, cx in enumerate(x):
                    if cx:
                        for m, cy in enumerate(y, start=k):
                            acc[m] += cx * cy
            out[i][j] = out[j][i] = _trim(acc)
    return PolyMatrix(n, tuple(tuple(row) for row in out))


def poly_det_cofactor(rows: List[List[Poly]]) -> Poly:
    """Determinant by cofactor expansion: the test oracle for
    `poly_det_bareiss` and `gram_principal_minors`, never run on the `asn`
    path."""
    k = len(rows)
    if k == 0:
        return P_ONE
    if k == 1:
        return rows[0][0]
    total = P_ZERO
    sign = 1
    for j in range(k):
        if rows[0][j]:
            minor = [[row[c] for c in range(k) if c != j] for row in rows[1:]]
            term = p_mul(rows[0][j], poly_det_cofactor(minor))
            total = p_add(total, term if sign > 0 else p_neg(term))
        sign = -sign
    return total


def _cross(a: Poly, b: Poly, c: Poly, d: Poly) -> Poly:
    """a*b - c*d in one coefficient list."""
    out = [0] * (max(len(a) + len(b), len(c) + len(d)) - 1)
    for i, x in enumerate(a):
        if x:
            for j, y in enumerate(b):
                out[i + j] += x * y
    for i, x in enumerate(c):
        if x:
            for j, y in enumerate(d):
                out[i + j] -= x * y
    return _trim(out)


def _eliminate(row: Sequence[Poly], pivot_row: Sequence[Poly], pivot: Poly,
               factor: Poly, prev: Poly) -> List[Poly]:
    """One fraction-free step on a row over Z[e]: the entries
    (pivot * row[j] - factor * pivot_row[j]) / prev.  By Sylvester's
    identity each division is exact, and `p_divexact` checks that it is;
    it is skipped when prev is 1."""
    if prev == P_ONE:
        return [_cross(x, pivot, factor, y) for x, y in zip(row, pivot_row)]
    return [p_divexact(_cross(x, pivot, factor, y), prev)
            for x, y in zip(row, pivot_row)]


def poly_det_bareiss(rows: List[List[Poly]]) -> Poly:
    """Fraction-free determinant over Z[e] of one matrix, with row swaps
    past a zero pivot.  Entries with fractional coefficients are cleared
    first by the caller (`asn` scales P); left in, a division may raise
    ArithmeticError."""
    m = [list(row) for row in rows]
    if not m:
        return P_ONE
    prev = P_ONE
    sign = 1
    while len(m) > 1:
        piv = next((i for i, row in enumerate(m) if row[0]), None)
        if piv is None:
            return P_ZERO
        if piv:
            m[0], m[piv] = m[piv], m[0]
            sign = -sign
        top = m[0]
        m = [_eliminate(row[1:], top[1:], top[0], row[0], prev)
             for row in m[1:]]
        prev = top[0]
    det = m[0][0]
    return det if sign > 0 else p_neg(det)


def principal_submatrix(a: PolyMatrix, s: int) -> List[List[Poly]]:
    idx = [i - 1 for i in members_of(s)]
    return [[a.entries[i][j] for j in idx] for i in idx]


def principal_minor_poly(a: PolyMatrix, s: int) -> Poly:
    """det of the principal submatrix on the subset mask s, by fraction-free
    elimination over Z[e]; the empty minor is the constant 1."""
    return poly_det_bareiss(principal_submatrix(a, s))


def gram_principal_minors(g: PolyMatrix) -> List[Poly]:
    """Mask-indexed principal minors det G[S] of a Gram matrix G over Z[e],
    by one depth-first walk over the subsets in which each mask extends the
    mask without its top index.

    A node on the subset S holds the upper triangle of its trailing block
    after fraction-free pivots on S, one row per index after max(S): by
    Sylvester's identity entry (i, j) is det G[S+i, S+j], so row i starts
    with the minor of the child S+i, and one `_eliminate` step per later
    row, dividing by det G[S], opens that child.  The pivots are principal
    minors, so no row is swapped.  A zero pivot leaves its subset and
    every subset below it zero: with G = P^T P, the columns of P on that
    subset are dependent, and so are those on every superset."""
    n = g.size
    minors = [P_ZERO] * (1 << n)
    minors[0] = P_ONE

    def visit(mask: int, first: int, prev: Poly, rows: List) -> None:
        for t, row in enumerate(rows):
            pivot = row[0]
            child = mask | 1 << (first + t)
            minors[child] = pivot
            if pivot and t + 1 < len(rows):
                visit(child, first + t + 1, pivot,
                      [_eliminate(later, row[k:], pivot, row[k], prev)
                       for k, later in enumerate(rows[t + 1:], start=1)])

    visit(0, 0, P_ONE, [g.entries[i][i:] for i in range(n)])
    return minors


@dataclass(frozen=True)
class AsnVector:
    """Half-degrees d_S of the dominating minor terms of a Gram family."""
    ground_size: int
    entries: Tuple[int, ...]

    def __getitem__(self, mask: int) -> int:
        return self.entries[mask]


def asn(p: PolyMatrix) -> AsnVector:
    """Asymptotic nullity type of an invertible polynomial matrix: for each
    subset S the minor det (P^T P)[S] has dominating term C_S eps^(2 d_S)
    with C_S > 0; returns the vector of the d_S.

    P is first scaled by the lcm L of its coefficient denominators.  The
    minor on S then scales by L^(2|S|) > 0, which changes neither d_S nor
    the sign of C_S, and the Gram minors are computed over Z[e]."""
    n = p.size
    # One minor per subset, 2^n of them, from one elimination walk.
    if n > MAX_GROUND_SIZE:
        raise ValueError(f"matrix has {n} columns; at most "
                         f"{MAX_GROUND_SIZE} are supported")
    flat = [c for row in p.entries for entry in row for c in entry]
    ints = iter(clear_denominators(flat)[0])
    a = gram(PolyMatrix(n, tuple(tuple(tuple(next(ints) for _ in entry)
                                       for entry in row)
                                 for row in p.entries)))
    minors = gram_principal_minors(a)
    entries = [0] * (1 << n)
    for s in range(1, 1 << n):
        minor = minors[s]
        if not minor:
            raise ValueError(
                "a principal Gram minor is identically zero; "
                "P is not invertible as a polynomial matrix")
        deg, coeff = lowest_term(minor)
        if deg % 2 or coeff <= 0:
            raise CertificateError(
                "dominating minor term is not a positive even power")
        entries[s] = deg // 2
    return AsnVector(n, tuple(entries))


def asn_inner_product(v: FormalLog, a: AsnVector) -> Fraction:
    if v.ground_size != a.ground_size:
        raise ValueError("ground size mismatch")
    ints, d = v.cleared
    return Fraction(dot(ints, a.entries), d)


def eval_poly_matrix(p: PolyMatrix, x: float):
    return np.array([[p_eval(entry, x) for entry in row]
                     for row in p.entries], dtype=float)
