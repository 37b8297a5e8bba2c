"""Polynomial matrix families P(eps), exact Gram minors, and asymptotic
nullity types: the half-degree d_S of the dominating term C_S * eps^(2 d_S)
of each principal minor of P(eps)^T P(eps).

Polynomials have rational coefficients: ints where the input gave ints,
Fractions where it gave anything else (a parsed polynomial has ints for its
integral coefficients).  Exact arithmetic over Z[e] runs on
Kronecker-packed ints: a polynomial a becomes the one int a(2^k), so a
product of polynomials is one int multiply and an exact quotient one
`divmod`.  k is chosen per matrix from a bound on its minors.  Expanding a
determinant, and using that the l1 norm of a product is at most the
product of the l1 norms, every minor of a matrix G has coefficients of
absolute value at most B = prod_i max(1, sum_j ||g_ij||_1).  With
2^(k-1) > B the balanced base-2^k digits of a packed minor are its
coefficients.

Fraction-free elimination reads only minors and divides only by minors,
so nothing is unpacked between its steps.  The numerators it forms may
exceed B, but packing is a ring map Z[e] -> Z, so a division exact in
Z[e] is exact on the packed ints, and the integer elimination of `exact`
serves Z[e] unchanged.  A remainder raises ArithmeticError: the
polynomial division would have been inexact.

`_packed_principal_minors` takes all 2^n principal minors of a Gram
matrix from one depth-first walk over the subsets, each child opened by
`exact.bareiss_step`, and `principal_minor_poly`, one minor, is
`exact.bareiss` on the packed submatrix.  Both take integer coefficients.
`asn` scales P by the lcm of its coefficient denominators once and reads
each packed minor directly: zero or not, its lowest degree as the 2-adic
valuation // k, and the sign of its lowest digit.  Fractions stay in
parsing and in `gram` of a rational P.
"""

import re
import sys
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from operator import mul
from typing import Dict, List, Sequence, Tuple

import numpy as np

from .exact import (CertificateError, bareiss, bareiss_step,
                    clear_denominators, dot)
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


# The largest degree `parse_poly` accepts.  A parsed polynomial is a dense
# list with one entry per degree, and packing it for the Z[e] kernel takes
# time quadratic in the degree.  At n = 16, `eval_poly_matrix`'s
# (n, n, degree + 1) array at this degree holds 2^25 doubles, the
# `probe.MAX_SAMPLE_ENTRIES` cap on a sample batch.
MAX_DEGREE = 2**17 - 1

_TERM = re.compile(
    r"^(?P<sign>[+-]?)(?P<coef>\d+(?:/\d+)?)?(?:\*?(?P<var>e)(?:\^(?P<deg>\d+))?)?$")


def _digit_field(digits: str, field: str, chunk: str, text: str) -> int:
    """int(digits), or a ValueError naming the term if int() would refuse
    the string for having more digits than Python's conversion limit."""
    # Python before 3.10.7 has no limit, which the API writes as 0.
    limit = getattr(sys, "get_int_max_str_digits", lambda: 0)()
    if limit and len(digits) > limit:
        raise ValueError(f"{field} of polynomial term {chunk!r} in {text!r} "
                         f"has more than {limit} digits")
    return int(digits)


@lru_cache(maxsize=1024)
def parse_poly(text: str) -> Poly:
    """Parse a polynomial in the literal variable `e`, e.g. `1 + 2*e - 3/2*e^2`.
    Memoised on the text: a Poly is an immutable tuple, and matrix files
    repeat entries.  An error is raised again on every call.  A ValueError
    names the term with a zero denominator, with a degree above MAX_DEGREE
    (an exponent with more digits is not converted) or with a digit string
    that int() would refuse, before any coefficient list is built."""
    s = "".join(text.split())
    if not s:
        raise ValueError("empty polynomial")
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
            den = _digit_field(den, "denominator", chunk, text)
            if not den:
                raise ValueError(f"zero denominator in polynomial term "
                                 f"{chunk!r} in {text!r}")
            value = Fraction(_digit_field(num, "numerator", chunk, text), den)
        else:
            value = _digit_field(coef, "coefficient", chunk, text)
        if sign == "-":
            value = -value
        # The degree's digits without leading zeros, "" for degree 0; more
        # of them than MAX_DEGREE has exceed it without a conversion.
        digits = (deg or "1").lstrip("0") if var else ""
        if (len(digits) > len(str(MAX_DEGREE))
                or int(digits or "0") > MAX_DEGREE):
            raise ValueError(f"degree {digits} of polynomial term {chunk!r} "
                             f"in {text!r} exceeds the supported maximum "
                             f"{MAX_DEGREE}")
        power = int(digits or "0")
        coeffs[power] = coeffs.get(power, 0) + value
    top = max(coeffs)
    # Integral coefficients are ints, also where Fractions summed to one,
    # which the packed kernel takes and `float` converts without
    # Fraction.__float__.
    return poly([c.numerator if c.denominator == 1 else c
                 for c in (coeffs.get(i, 0) for i in range(top + 1))])


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


def _pack(a: Poly, k: int) -> int:
    """a(2^k) for integer coefficients."""
    value = 0
    for c in reversed(a):
        value = (value << k) + c
    return value


def _unpack(value: int, k: int) -> Poly:
    """The Poly whose balanced base-2^k digits, each of absolute value
    below 2^(k-1), make up value."""
    full = 1 << k
    low, half = full - 1, full >> 1
    out = []
    while value:
        digit = value & low
        value >>= k
        if digit >= half:
            digit -= full
            value += 1
        out.append(digit)
    return tuple(out)


def _minor_bits(rows: Sequence[Sequence[Poly]]) -> int:
    """The packing width k = bit_length(B) + 1, so 2^(k-1) > B, for the
    bound B = prod_i max(1, sum_j ||g_ij||_1) on the coefficients of every
    minor of the matrix `rows`.  Raises ValueError on a coefficient that
    is not an int."""
    bound = 1
    for row in rows:
        coeffs = [c for entry in row for c in entry]
        if not set(map(type, coeffs)) <= {int}:
            raise ValueError("integer coefficients are required; clear "
                             "denominators first")
        bound *= max(1, sum(map(abs, coeffs)))
    return bound.bit_length() + 1


def _integral_gram(p: PolyMatrix) -> Tuple[List[List[Poly]], int]:
    """(G, L): G = (L P)^T (L P) over Z[e], for the lcm L of P's
    coefficient denominators.  A coefficient of g_ij is at most
    sum_r ||p_ri||_1 ||p_rj||_1 <= N^2, for the l1 norm N of all of L P's
    coefficients, so the products are taken packed at 2^(k-1) > N^2."""
    flat = [c for row in p.entries for entry in row for c in entry]
    ints, scale = clear_denominators(flat)
    k = (sum(map(abs, ints)) ** 2).bit_length() + 1
    ints = iter(ints)
    rows = [[[next(ints) for _ in entry] for entry in row]
            for row in p.entries]
    columns = list(zip(*[[_pack(entry, k) for entry in row] for row in rows]))
    g = [[P_ZERO] * len(columns) for _ in columns]
    for i, x in enumerate(columns):
        for j in range(i, len(columns)):
            g[i][j] = g[j][i] = _unpack(sum(map(mul, x, columns[j])), k)
    return g, scale


def gram(p: PolyMatrix) -> PolyMatrix:
    """P^T P with exact polynomial products (real transpose).  A rational
    P is scaled to integers once and the product divided by L^2 at the
    end: ints where a coefficient is integral, Fractions elsewhere."""
    g, scale = _integral_gram(p)
    square = scale * scale
    if square > 1:
        g = [[poly([c // square if c % square == 0 else Fraction(c, square)
                    for c in entry]) for entry in row] for row in g]
    return PolyMatrix(p.size, tuple(map(tuple, g)))


def principal_submatrix(a: PolyMatrix, s: int) -> List[List[Poly]]:
    idx = [i - 1 for i in members_of(s)]
    return [[a.entries[i][j] for j in idx] for i in idx]


def principal_minor_poly(a: PolyMatrix, s: int) -> Poly:
    """det of the principal submatrix on the subset mask s over Z[e]:
    `exact.bareiss` on its entries packed at the width of its minor bound,
    whose last pivot is the determinant when the rank is full, and zero
    otherwise.  Every entry met is a minor of the submatrix, so one packing
    width holds them all.  The empty minor is the constant 1.
    Coefficients must be ints (`asn` scales P); a Fraction raises
    ValueError."""
    rows = principal_submatrix(a, s)
    k = _minor_bits(rows)
    rank, last = bareiss([[_pack(x, k) for x in row] for row in rows])
    return _unpack(last, k) if rank == len(rows) else P_ZERO


def _packed_principal_minors(upper: List[List[int]]) -> List[int]:
    """The mask-indexed principal minors det G[S] of a Gram matrix G over
    Z[e], from the upper triangle of G packed at a width that holds every
    minor of G (row i from the diagonal on), by one depth-first walk over
    the subsets in which each mask extends the mask without its top index.

    A node on the subset S holds the upper triangle of its trailing block
    after fraction-free pivots on S, one row per index after max(S): by
    Sylvester's identity entry (i, j) is det G[S+i, S+j], so row i starts
    with the minor of the child S+i, and one `exact.bareiss_step` per later
    row, dividing by det G[S], opens that child.  The pivots are principal
    minors, so no row is swapped.  A zero pivot leaves its subset and
    every subset below it zero: with G = P^T P, the columns of P on that
    subset are dependent, and so are those on every superset."""
    minors = [0] * (1 << len(upper))
    minors[0] = 1

    def visit(mask: int, first: int, prev: int, rows: List) -> None:
        for t, row in enumerate(rows):
            pivot = row[0]
            child = mask | 1 << (first + t)
            minors[child] = pivot
            if pivot and t + 1 < len(rows):
                visit(child, first + t + 1, pivot,
                      [bareiss_step(later, row[j:], pivot, row[j], prev)
                       for j, later in enumerate(rows[t + 1:], start=1)])

    visit(0, 0, 1, upper)
    return minors


def _principal_minors(g: Sequence[Sequence[Poly]]) -> Tuple[int, List[int]]:
    """(k, minors): the principal minors of the Gram matrix g with integer
    coefficients, packed at the width k of its minor bound."""
    k = _minor_bits(g)
    return k, _packed_principal_minors([[_pack(x, k) for x in row[i:]]
                                        for i, row in enumerate(g)])


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
    the sign of C_S, and the Gram minors are computed over Z[e].  Each is
    read packed at 2^k: the valuation of a nonzero m = sum_i c_i 2^(k i)
    with lowest coefficient c_d is k d + v(c_d), and |c_d| < 2^(k-1), so
    d is that valuation // k and c_d the balanced digit at position d."""
    n = p.size
    # One minor per subset, 2^n of them, from one elimination walk.
    if n > MAX_GROUND_SIZE:
        raise ValueError(f"matrix has {n} columns; at most "
                         f"{MAX_GROUND_SIZE} are supported")
    k, minors = _principal_minors(_integral_gram(p)[0])
    low, half = (1 << k) - 1, 1 << (k - 1)
    entries = [0] * (1 << n)
    for s in range(1, 1 << n):
        minor = minors[s]
        if not minor:
            raise ValueError(
                "a principal Gram minor is identically zero; "
                "P is not invertible as a polynomial matrix")
        deg = ((minor & -minor).bit_length() - 1) // k
        if deg % 2 or (minor >> k * deg) & low >= half:
            raise CertificateError(
                "dominating minor term is not a positive even power")
        entries[s] = deg // 2
    return AsnVector(n, tuple(entries))


def asn_inner_product(v: FormalLog, a: AsnVector) -> Fraction:
    if v.ground_size != a.ground_size:
        raise ValueError("ground size mismatch")
    ints, d = v.cleared
    return Fraction(dot(ints, a.entries), d)


def eval_poly_matrix(p: PolyMatrix, x):
    """P at x: an n x n array for a scalar x, or one matrix per point,
    shape (len(x), n, n), for a 1-d array x.  Each entry is Horner's rule
    from 0.0, total * x + float(c) from the top coefficient down, with the
    same float operations in the same order at every point.  Entries of
    lower degree start with zero coefficients, which leave the total +0.0
    at a finite x, so each value is bitwise the entry's own scalar Horner
    value."""
    x = np.asarray(x, dtype=float)[..., None, None]
    top = max((len(entry) for row in p.entries for entry in row), default=0)
    coeffs = np.array([[[float(c) for c in entry] + [0.0] * (top - len(entry))
                        for entry in row] for row in p.entries],
                      dtype=float).reshape(p.size, p.size, top)
    total = np.zeros(x.shape[:-2] + (p.size, p.size))
    for d in range(top - 1, -1, -1):
        total = total * x + coeffs[:, :, d]
    return total
