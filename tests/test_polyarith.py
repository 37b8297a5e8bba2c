import random
import re
import sys
from fractions import Fraction

import numpy as np
import pytest

from minorcones import exact, polyarith
from minorcones.cli import main
from minorcones.constants import P_for_Q
from minorcones.exact import CertificateError, clear_denominators, rank
from minorcones.nullity import matrix, nullity_type
from minorcones.oracles import (gram_principal_minors, kernel_basis, p_add,
                                p_mul, p_neg, poly_det_cofactor)
from minorcones.polyarith import (P_ONE, P_ZERO, AsnVector, PolyMatrix,
                                  asn, asn_inner_product, gram,
                                  parse_poly, parse_poly_matrix, poly,
                                  poly_matrix, principal_minor_poly,
                                  principal_submatrix)
from minorcones.subsets import members_of
from test_ratios import from_entries


def format_poly(a):
    """Polynomial text with every nonzero term written out as c*e^d."""
    return " ".join(f"{'-' if c < 0 else '+'}{abs(c)}*e^{d}"
                    for d, c in enumerate(a) if c) or "0"


def poly_det(rows):
    """The determinant of a square list of Polys: its full principal minor."""
    return principal_minor_poly(poly_matrix(rows), (1 << len(rows)) - 1)


# List arithmetic over Z[e] and on floats: the oracles for the packed
# kernel and the array Horner evaluation.

def _trim(coeffs):
    while coeffs and not coeffs[-1]:
        coeffs.pop()
    return tuple(coeffs)


def p_divexact(a, b):
    """Exact division in Z[e]: raises ArithmeticError if a quotient
    coefficient is not an integer or a remainder is left."""
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


def p_eval(a, x):
    total = 0.0
    for c in reversed(a):
        total = total * x + float(c)
    return total


def lowest_term(a):
    """(degree, coefficient) of the lowest-order nonzero term."""
    for i, c in enumerate(a):
        if c != 0:
            return i, c
    raise ValueError("zero polynomial has no lowest term")


def list_gram(p):
    """P^T P from coefficient lists, in the arithmetic of P's entries."""
    columns = list(zip(*p.entries))
    n = p.size
    out = [[P_ZERO] * n for _ in range(n)]
    for i in range(n):
        for j in range(i, n):
            acc = P_ZERO
            for x, y in zip(columns[i], columns[j]):
                acc = p_add(acc, p_mul(x, y))
            out[i][j] = out[j][i] = acc
    return PolyMatrix(n, tuple(map(tuple, out)))


def list_eliminate(row, pivot_row, pivot, factor, prev):
    nums = [p_add(p_mul(x, pivot), p_neg(p_mul(factor, y)))
            for x, y in zip(row, pivot_row)]
    return nums if prev == P_ONE else [p_divexact(x, prev) for x in nums]


def list_det_bareiss(rows):
    """Fraction-free determinant on coefficient lists, with row swaps."""
    m = [list(row) for row in rows]
    if not m:
        return P_ONE
    prev, sign = P_ONE, 1
    while len(m) > 1:
        piv = next((i for i, row in enumerate(m) if row[0]), None)
        if piv is None:
            return P_ZERO
        if piv:
            m[0], m[piv] = m[piv], m[0]
            sign = -sign
        top = m[0]
        m = [list_eliminate(row[1:], top[1:], top[0], row[0], prev)
             for row in m[1:]]
        prev = top[0]
    return m[0][0] if sign > 0 else p_neg(m[0][0])


def list_principal_minors(g):
    """The depth-first Sylvester walk over the subsets on coefficient
    lists."""
    minors = [P_ZERO] * (1 << g.size)
    minors[0] = P_ONE

    def visit(mask, first, prev, rows):
        for t, row in enumerate(rows):
            pivot = row[0]
            child = mask | 1 << (first + t)
            minors[child] = pivot
            if pivot and t + 1 < len(rows):
                visit(child, first + t + 1, pivot,
                      [list_eliminate(later, row[j:], pivot, row[j], prev)
                       for j, later in enumerate(rows[t + 1:], start=1)])

    visit(0, 0, P_ONE, [g.entries[i][i:] for i in range(g.size)])
    return minors


class TestPolyBasics:
    def test_parse_examples(self):
        assert parse_poly("1 + 2*e - 3/2*e^2") == poly([1, 2, Fraction(-3, 2)])
        assert parse_poly("e") == poly([0, 1])
        assert parse_poly("-e^3") == poly([0, 0, 0, -1])
        assert parse_poly("0") == poly([])

    def test_integral_coefficients_parse_to_ints(self):
        p = parse_poly("3 + 4/2*e - 3/2*e^2 + 0*e^3 - e^4")
        assert p == (3, 2, Fraction(-3, 2), 0, -1)
        assert [type(c) for c in p] == [int, int, Fraction, int, int]
        # The same values as Fraction coefficients convert to the same
        # floats, so the eps-matrices of a parsed P are unchanged.
        pm = parse_poly_matrix("1 + 2*e, 3/2*e^2\n-e, 7 - 5*e^3\n")
        as_fractions = polyarith.PolyMatrix(2, tuple(
            tuple(tuple(Fraction(c) for c in entry) for entry in row)
            for row in pm.entries))
        for eps in (1.0, 0.3, 1e-3, 1e-7, 2.5e-11):
            assert (polyarith.eval_poly_matrix(pm, eps).tobytes()
                    == polyarith.eval_poly_matrix(as_fractions, eps).tobytes())

    def test_parse_matches_fraction_parser(self):
        # Bench-style tokens (sign, coefficient, `*e^k`) with p/q
        # coefficients, spaces, repeated degrees and cancelling terms.
        rng = random.Random(41)
        tokens = ["4/2*e", "1/3 - 1/3", "-0", "0", "-4/2", "6/4*e - 1/2*e",
                  "0*e^5", "+3*e - 3e", "7/1", "e^0 + 3", "-e"]
        for _ in range(400):
            terms = []
            for _ in range(rng.randint(1, 4)):
                coef = rng.choice(["", str(rng.randint(0, 9)),
                                   f"{rng.randint(0, 9)}/{rng.randint(1, 6)}"])
                var = rng.choice(["", "e", "e^2", "e^3"] if coef else
                                 ["e", "e^2", "e^3"])
                body = coef + ("*" if coef and var else "") + var
                terms.append(rng.choice("+-") + rng.choice(["", " "]) + body)
            tokens.append(" ".join(terms).lstrip("+"))
        for text in tokens:
            got, expect = parse_poly(text), fraction_parse_poly(text)
            assert got == expect, text
            assert [type(c) for c in got] == [type(c) for c in expect], text

    def test_parse_rejects_garbage(self):
        with pytest.raises(ValueError):
            parse_poly("1 + x")
        with pytest.raises(ValueError):
            parse_poly("")

    def test_zero_denominator_names_its_term_and_line(self):
        with pytest.raises(ValueError, match=r"^zero denominator in "
                           r"polynomial term '-3/0\*e' in '1 - 3/0\*e'$"):
            parse_poly("1 - 3/0*e")
        with pytest.raises(ValueError, match=r"^line 2: zero denominator in "
                           r"polynomial term '1/00' in ' 1/00'$"):
            parse_poly_matrix("1, e\ne, 1/00\n")

    def test_degree_bound(self):
        top = polyarith.MAX_DEGREE
        assert top == 2**17 - 1
        assert parse_poly(f"2*e^{top} - 1") == (-1,) + (0,) * (top - 1) + (2,)
        # Also a term with a zero coefficient, which would set the length
        # of the dense coefficient list all the same.
        for text in (f"e^{top + 1}", f"1 + 0*e^{10 ** 11}"):
            with pytest.raises(ValueError, match=r"exceeds the supported "
                               f"maximum {top}$"):
                parse_poly(text)

    def test_degree_digits_are_checked_before_conversion(self):
        # An exponent longer than int() converts exceeds MAX_DEGREE: the
        # error names the term, not Python's digit limit.  Leading zeros
        # do not count.
        top = polyarith.MAX_DEGREE
        nines = "9" * 5000
        with pytest.raises(ValueError) as err:
            parse_poly(f"1 - e^{nines}")
        assert str(err.value) == (
            f"degree {nines} of polynomial term '-e^{nines}' in "
            f"'1 - e^{nines}' exceeds the supported maximum {top}")
        assert parse_poly("e^0003") == (0, 0, 0, 1)
        # Also zeros of another script that int() reads.
        assert parse_poly("e^" + "\u0660" * 7 + "\u0663") == (0, 0, 0, 1)
        assert parse_poly(f"e^{'0' * 5000}") == (1,)
        with pytest.raises(ValueError, match=r"^degree 131072 of polynomial "
                           r"term 'e\^0000131072' in 'e\^0000131072' "
                           r"exceeds the supported maximum 131071$"):
            parse_poly("e^0000131072")

    @pytest.mark.parametrize("field,template", [
        ("coefficient", "{}*e"), ("numerator", "{}/3"),
        ("denominator", "1/{}*e^2")])
    def test_digit_fields_past_the_int_limit_name_the_term(self, field,
                                                           template):
        limit = getattr(sys, "get_int_max_str_digits", lambda: 0)()
        if not limit:
            pytest.skip("int() converts strings of any length")
        term = template.format("7" * (limit + 1))
        with pytest.raises(ValueError) as err:
            parse_poly(f"1 + {term}")
        assert str(err.value) == (
            f"{field} of polynomial term '+{term}' in '1 + {term}' has "
            f"more than {limit} digits")
        # At the limit, the field converts.
        assert parse_poly(template.format("7" * limit)) != P_ZERO

    def test_memoised_parse_raises_again_on_a_repeated_bad_entry(self):
        # Exceptions are not cached: the same text fails, with the same
        # message, on every call, also inside a matrix file.
        for _ in range(3):
            with pytest.raises(ValueError,
                               match=r"bad polynomial term '\+x' in '1 \+ x'"):
                parse_poly("1 + x")
            with pytest.raises(ValueError, match="line 2: bad polynomial"):
                parse_poly_matrix("1, e\n1 + x, 0\n")
        assert parse_poly("1 + 2*e") is parse_poly("1 + 2*e")

    def test_format_round_trip(self):
        rng = random.Random(7)
        for _ in range(30):
            p = poly([Fraction(rng.randint(-5, 5), rng.randint(1, 4))
                      for _ in range(rng.randint(0, 5))])
            assert parse_poly(format_poly(p)) == p

    def test_mul_distributes(self):
        a, b, c = poly([1, 2]), poly([0, 0, 3]), poly([-1, 1, 1])
        assert p_mul(a, p_add(b, c)) == p_add(p_mul(a, b), p_mul(a, c))

    def test_divexact_inverts_mul(self):
        a, b = poly([1, -2, 1]), poly([3, 0, 5])
        assert p_divexact(p_mul(a, b), b) == a

    def test_divexact_rejects_inexact(self):
        with pytest.raises(ArithmeticError):
            p_divexact(poly([1]), poly([0, 1]))

    def test_eval_matches_horner(self):
        p = poly([1, Fraction(1, 2), -3])
        assert p_eval(p, 2.0) == pytest.approx(1 + 0.5 * 2 - 3 * 4)

    def test_matrix_eval_is_bitwise_per_entry_horner(self):
        # Scalar and array points against p_eval entry by entry, with
        # entries of mixed degree (the zero polynomial included), int and
        # Fraction coefficients, and points of either sign.
        rng = random.Random(23)
        points = [0.5, 1e-2, 3.7e-5, 1e-7, -0.3, 0.0, 2.0, 123.25]
        for _ in range(40):
            n = rng.randint(1, 5)
            p = random_poly_matrix(rng, n, denominators=(1, 1, 3, 7),
                                   degree=rng.randint(0, 4))
            expect = np.array([[[p_eval(entry, x) for entry in row]
                                for row in p.entries] for x in points])
            stacked = polyarith.eval_poly_matrix(p, np.array(points))
            assert stacked.shape == (len(points), n, n)
            assert stacked.tobytes() == expect.tobytes()
            for x, mat in zip(points, expect):
                got = polyarith.eval_poly_matrix(p, x)
                assert got.shape == (n, n)
                assert got.tobytes() == mat.tobytes()

    def test_divexact_int_remainder_raises(self):
        # x^2 + 3 = (x - 1)(x + 1) + 4, and 2x + 1 = 2 * x + 1: both leave
        # a remainder in Z[e]; 3 / 2 has no integer quotient.
        with pytest.raises(ArithmeticError, match="inexact"):
            p_divexact((3, 0, 1), (1, 1))
        with pytest.raises(ArithmeticError, match="inexact"):
            p_divexact((1, 2), (0, 1))
        with pytest.raises(ArithmeticError, match="inexact"):
            p_divexact((3,), (2,))

    def test_divexact_int_quotient_stays_int(self):
        q = p_divexact(p_mul((2, -3, 1), (-1, 0, 4)), (-1, 0, 4))
        assert q == (2, -3, 1)
        assert all(type(c) is int for c in q)

    def test_lowest_term(self):
        assert lowest_term(poly([0, 0, 5, 7])) == (2, 5)
        with pytest.raises(ValueError):
            lowest_term(poly([]))


class TestPolyMatrix:
    def test_parse_and_format(self):
        text = "1, e\n0, 1 - e^2\n"
        pm = parse_poly_matrix(text)
        assert pm.size == 2
        written = "\n".join(", ".join(map(format_poly, row))
                            for row in pm.entries)
        assert parse_poly_matrix(written).entries == pm.entries

    def test_non_square_rejected(self):
        with pytest.raises(ValueError):
            parse_poly_matrix("1, e\n")

    def test_gram_is_symmetric(self):
        pm = parse_poly_matrix("1, e\ne, 1\n")
        g = gram(pm)
        assert g.entries[0][1] == g.entries[1][0]

    def test_gram_diagonal_entry(self):
        pm = parse_poly_matrix("1, 0\ne, e\n")
        g = gram(pm)
        # column 1 is (1, e): squared norm 1 + e^2
        assert g.entries[0][0] == poly([1, 0, 1])


class TestDeterminants:
    def test_two_by_two(self):
        rows = [[poly([1]), poly([0, 1])], [poly([0, 1]), poly([1])]]
        expect = poly([1, 0, -1])
        assert poly_det_cofactor([r[:] for r in rows]) == expect
        assert poly_det(rows) == expect

    def test_bareiss_matches_cofactor_randomly(self):
        rng = random.Random(13)
        for _ in range(15):
            k = rng.randint(2, 4)
            rows = [[poly([rng.randint(-2, 2) for _ in range(2)])
                     for _ in range(k)] for _ in range(k)]
            a = poly_det_cofactor([r[:] for r in rows])
            b = poly_det(rows)
            assert a == b

    def test_constant_matrix_matches_scalar_det(self):
        pm = poly_matrix([[poly([2]), poly([1])], [poly([1]), poly([3])]])
        assert principal_minor_poly(pm, 0b11) == poly([5])

    def test_principal_minors_match_cofactor_oracle(self):
        g = gram(P_for_Q())
        for s in range(1 << g.size):
            assert principal_minor_poly(g, s) == poly_det_cofactor(
                principal_submatrix(g, s))


def fraction_parse_poly(text):
    """Reference parser: every coefficient read as a Fraction and summed,
    integral sums returned as ints."""
    s = "".join(text.split())
    if s == "0":
        return ()
    coeffs = {}
    for chunk in re.split(r"(?=[+-])", s):
        if not chunk:
            continue
        m = polyarith._TERM.match(chunk)
        coef = Fraction(m.group("coef")) if m.group("coef") else Fraction(1)
        if m.group("sign") == "-":
            coef = -coef
        deg = 0
        if m.group("var"):
            deg = int(m.group("deg")) if m.group("deg") else 1
        coeffs[deg] = coeffs.get(deg, Fraction(0)) + coef
    return poly([c.numerator if c.denominator == 1 else c
                 for c in (coeffs.get(i, 0) for i in range(max(coeffs) + 1))])


def random_poly_matrix(rng, n, denominators=(1,), degree=2):
    """Coefficients in [-2, 2] over a denominator from `denominators`,
    ints where it is 1."""
    def coefficient():
        d, x = rng.choice(denominators), rng.randint(-2, 2)
        return x if d == 1 else Fraction(x, d)
    return poly_matrix([[poly([coefficient()
                               for _ in range(rng.randint(0, degree + 1))])
                         for _ in range(n)] for _ in range(n)])


def integral_multiple(p):
    """(L * P, L) for the lcm L of P's coefficient denominators."""
    flat = [c for row in p.entries for entry in row for c in entry]
    scale = clear_denominators(flat)[1]
    return poly_matrix([[poly([int(c * scale) for c in entry])
                         for entry in row] for row in p.entries]), scale


def degenerate_family(rng, n):
    """P = A + eB + e^2 C with rank A = 2: invertible, with many positive
    half-degrees."""
    while True:
        u = [[rng.randint(-2, 2) for _ in range(2)] for _ in range(n)]
        v = [[rng.randint(-2, 2) for _ in range(n)] for _ in range(2)]
        p = poly_matrix([[poly([sum(u[i][k] * v[k][j] for k in range(2)),
                                rng.randint(-1, 1), rng.randint(-1, 1)])
                          for j in range(n)] for i in range(n)])
        if principal_minor_poly(p, (1 << n) - 1):
            return p


class TestGramWalk:
    def check_minors(self, g, scale=1, oracle=None):
        """Every walk minor against the Bareiss determinant of its
        submatrix and L^(2|S|) times the cofactor expansion on `oracle`
        (the unscaled Gram matrix; g itself by default)."""
        minors = gram_principal_minors(g)
        assert len(minors) == 1 << g.size
        for s, minor in enumerate(minors):
            assert minor == principal_minor_poly(g, s), s
            cofactor = poly_det_cofactor(principal_submatrix(oracle or g, s))
            factor = scale ** (2 * s.bit_count())
            assert minor == poly([c * factor for c in cofactor]), s
            assert all(type(c) is int for c in minor)

    def test_p_for_q(self):
        self.check_minors(gram(P_for_Q()))

    @pytest.mark.parametrize("n", range(1, 7))
    def test_seeded_integer_families(self, n):
        rng = random.Random(100 + n)
        for _ in range(3):
            self.check_minors(gram(random_poly_matrix(rng, n)))
        self.check_minors(gram(degenerate_family(rng, n)))

    @pytest.mark.parametrize("n", range(1, 7))
    def test_seeded_rational_families(self, n):
        rng = random.Random(200 + n)
        for _ in range(3 if n < 6 else 1):
            p = random_poly_matrix(rng, n, denominators=(1, 2, 3), degree=1)
            scaled, scale = integral_multiple(p)
            self.check_minors(gram(scaled), scale, gram(p))

    @pytest.mark.parametrize("n", range(2, 7))
    def test_singular_families(self, n):
        # Column n repeats column 1 times 1 - e, so every subset holding
        # both has a zero minor, and the walk leaves the subsets below a
        # zero pivot zero.
        rng = random.Random(300 + n)
        p = random_poly_matrix(rng, n)
        rows = [list(row) for row in p.entries]
        for row in rows:
            row[-1] = p_mul(row[0], poly([1, -1]))
        self.check_minors(gram(poly_matrix(rows)))

    def test_zero_minor_below_a_nonleading_pair(self):
        # Columns 1 and 3 are parallel: {1,3} is the first zero subset, a
        # child of {1}, not of the leading prefix {1,2}.
        p = parse_poly_matrix("1, 0, 2\ne, 1, 2*e\n0, e, 0\n")
        minors = gram_principal_minors(gram(p))
        assert [s for s in range(8) if not minors[s]] == [0b101, 0b111]
        with pytest.raises(ValueError, match="identically zero"):
            asn(p)

    @pytest.mark.parametrize("n,count", [(5, 4), (6, 2)])
    def test_asn_matches_cofactor_oracle(self, n, count):
        rng = random.Random(400 + n)
        for _ in range(count):
            p = degenerate_family(rng, n)
            assert asn(p).entries == cofactor_half_degrees(p)

    def test_asn_makes_no_single_determinant(self, monkeypatch):
        def refuse(*args):
            raise RuntimeError("single determinant on the asn path")
        expect = asn(P_for_Q())
        monkeypatch.setattr(polyarith, "principal_minor_poly", refuse)
        assert asn(P_for_Q()) == expect


def big_family(rng, n, bits=40, degree=4):
    """Integer entries of degree up to `degree` with coefficients up to
    +-2^bits, a quarter of them zero polynomials."""
    top = 1 << bits
    return poly_matrix([[() if rng.random() < 0.25 else
                         poly([rng.randint(-top, top)
                               for _ in range(rng.randint(1, degree + 1))])
                         for _ in range(n)] for _ in range(n)])


def every_minor(rows):
    """Every square minor of `rows` by cofactor expansion."""
    n = len(rows)
    for size in range(1, n + 1):
        for r in range(1 << n):
            if r.bit_count() != size:
                continue
            for c in range(1 << n):
                if c.bit_count() == size:
                    yield poly_det_cofactor(
                        [[rows[i - 1][j - 1] for j in members_of(c)]
                         for i in members_of(r)])


class TestPackedKernel:
    """The Kronecker-packed walk, determinant and Gram product against
    cofactor expansion and the list arithmetic they replaced."""

    def families(self, n):
        rng = random.Random(600 + n)
        out = [big_family(rng, n) for _ in range(2)]
        out.append(big_family(rng, n, bits=3, degree=1))
        out.append(degenerate_family(rng, n))
        if n > 1:
            # Column n repeats column 1 times 1 - e: a singular family.
            rows = [list(row) for row in big_family(rng, n, 20, 2).entries]
            for row in rows:
                row[-1] = p_mul(row[0], poly([1, -1]))
            out.append(poly_matrix(rows))
        return out

    @pytest.mark.parametrize("n", range(1, 7))
    def test_walk_determinant_and_gram_match_the_oracles(self, n):
        for p in self.families(n):
            g = gram(p)
            assert g == list_gram(p)
            minors = gram_principal_minors(g)
            assert minors == list_principal_minors(g)
            for s in (1 << n) - 1, (1 << n) - 2, 1:
                assert minors[s] == poly_det_cofactor(
                    principal_submatrix(g, s))
            rows = [list(row) for row in p.entries]
            det = poly_det(rows)
            assert det == list_det_bareiss(rows)
            if n <= 5:
                assert det == poly_det_cofactor(rows)
            assert all(type(c) is int for m in minors for c in m)

    @pytest.mark.parametrize("n", range(1, 7))
    def test_rational_gram_scales_back(self, n):
        rng = random.Random(700 + n)
        for _ in range(3):
            p = random_poly_matrix(rng, n, denominators=(1, 2, 3, 7),
                                   degree=3)
            g = gram(p)
            assert g == list_gram(p)
            assert all(type(c) is int or c.denominator > 1
                       for row in g.entries for x in row for c in x)

    @pytest.mark.parametrize("n", range(1, 5))
    def test_every_minor_fits_the_packing_width(self, n):
        # The width of the walk and the determinant bounds every minor of
        # G, not only the principal ones, and also G's largest coefficient
        # alone is far too narrow for them.
        rng = random.Random(800 + n)
        for p in self.families(n):
            # The widths of the walk and asn, and of the determinant.
            for g in (gram(p), p):
                k = polyarith._minor_bits(g.entries)
                top = max((abs(c) for m in every_minor(g.entries) for c in m),
                          default=0)
                assert top < 1 << (k - 1)
        if n > 1:
            g = gram(big_family(rng, n))
            widest = max(abs(c) for row in g.entries for x in row for c in x)
            assert max(abs(c) for m in every_minor(g.entries)
                       for c in m) >= 1 << widest.bit_length()

    def test_pack_round_trip_and_lowest_digit(self):
        rng = random.Random(9)
        for _ in range(300):
            k = rng.randint(2, 70)
            top = (1 << (k - 1)) - 1
            a = poly([rng.choice([0, rng.randint(-top, top), top, -top])
                      for _ in range(rng.randint(0, 6))])
            packed = polyarith._pack(a, k)
            assert polyarith._unpack(packed, k) == a
            assert (packed == 0) == (a == P_ZERO)

    def test_asn_reads_the_packed_lowest_term(self):
        # Degrees and signs of the lowest term at every position, read by
        # asn from single-entry families e^d * c, c of either sign.
        for d in range(4):
            for c in (1, 3, 2 ** 40 + 1, 6):
                p = poly_matrix([[poly([0] * d + [c])]])
                assert asn(p).entries == (0, d)
                q = poly_matrix([[poly([0] * d + [-c])]])
                assert asn(q).entries == (0, d)

    @pytest.mark.parametrize("n", range(1, 7))
    def test_asn_matches_the_list_oracle(self, n):
        rng = random.Random(900 + n)
        families = [degenerate_family(rng, n) for _ in range(3)]
        families += [p for p in self.families(n)[:2]]
        for p in families:
            expect = list_half_degrees(p)
            if expect is None:
                with pytest.raises(ValueError, match="identically zero"):
                    asn(p)
            else:
                assert asn(p).entries == expect

    def test_fraction_coefficients_rejected_up_front(self, monkeypatch):
        def refuse(*args):
            raise AssertionError("elimination reached with a Fraction")
        for module, name in ((exact, "bareiss_step"), (polyarith, "bareiss"),
                             (polyarith, "gram_subset_walk")):
            monkeypatch.setattr(module, name, refuse)
        rows = [[poly([1]), poly([Fraction(1, 2)])],
                [poly([0, 1]), poly([3])]]
        with pytest.raises(ValueError, match="integer coefficients"):
            principal_minor_poly(poly_matrix(rows), 0b11)
        with pytest.raises(ValueError, match="integer coefficients"):
            gram_principal_minors(gram(poly_matrix(rows)))
        # An integral Fraction is a Fraction all the same.
        with pytest.raises(ValueError, match="integer coefficients"):
            poly_det([[(Fraction(2),)]])


def list_half_degrees(p):
    """asn from the list walk on the Gram matrix of the cleared P; None
    where a principal Gram minor is zero."""
    scaled, _ = integral_multiple(p)
    minors = list_principal_minors(list_gram(scaled))
    if not all(minors):
        return None
    out = [0]
    for s in range(1, 1 << p.size):
        deg, coeff = lowest_term(minors[s])
        assert deg % 2 == 0 and coeff > 0
        out.append(deg // 2)
    return tuple(out)


class TestAsn:
    def test_identity_is_zero(self):
        pm = parse_poly_matrix("1, 0\n0, 1\n")
        assert asn(pm).entries == (0, 0, 0, 0)

    def test_scaled_identity_counts_cardinality(self):
        pm = parse_poly_matrix("e, 0, 0\n0, e, 0\n0, 0, e\n")
        a = asn(pm)
        for s in range(8):
            assert a[s] == s.bit_count()

    def test_singular_poly_matrix_rejected(self):
        with pytest.raises(ValueError, match="identically zero"):
            asn(parse_poly_matrix("1, 1\n1, 1\n"))

    def test_generic_perturbation_recovers_nullity_type(self):
        # For P(e) = B + e*C with C generic relative to B, the asymptotic
        # type of the Gram family equals the nullity type of B.
        rng = random.Random(17)
        n = 3
        while True:
            b = matrix([[rng.randint(-2, 2) for _ in range(n)]
                        for _ in range(n)])
            if 0 < rank([list(r) for r in b]) < n:
                break
        while True:
            c = matrix([[rng.randint(-3, 3) for _ in range(n)]
                        for _ in range(n)])
            if _is_generic(b, c, n):
                break
        pm = poly_matrix([[poly([b[i][j], c[i][j]]) for j in range(n)]
                          for i in range(n)])
        assert asn(pm).entries == nullity_type(b).entries

    def test_inner_product(self):
        pm = parse_poly_matrix("e, 0\n0, 1\n")
        v = from_entries(2, {0b11: 1})  # {1,2} / {} convention: sum zero
        a = asn(pm)
        assert asn_inner_product(v, a) == a[0b11]

    @pytest.mark.parametrize("n", range(2, 7))
    def test_inner_product_matches_fraction_sum(self, n):
        rng = random.Random(500 + n)
        for _ in range(20):
            v = from_entries(n, {
                s: Fraction(rng.randint(-9, 9), rng.randint(1, 12))
                for s in range(1, 1 << n) if rng.random() < 0.6})
            a = AsnVector(n, tuple(rng.randint(0, n) for _ in range(1 << n)))
            got = asn_inner_product(v, a)
            assert got == sum((x * d for x, d in zip(v.exponents, a.entries)),
                              start=Fraction(0))
            assert type(got) is Fraction

    def test_inner_product_size_mismatch(self):
        pm = parse_poly_matrix("1, 0\n0, 1\n")
        with pytest.raises(ValueError):
            asn_inner_product(from_entries(3, {1: 1}), asn(pm))


def _is_generic(b, c, n):
    """No nonzero x with Bx = 0 and Cx in col(B): guarantees the lowest
    Gram-minor terms are controlled by the kernel structure of B alone."""
    bt_cols = [[b[i][j] for i in range(n)] for j in range(n)]
    kern = kernel_basis([list(r) for r in b], n)
    if not kern:
        return True
    w_cols = []
    for x in kern:
        w_cols.append([sum(c[i][j] * x[j] for j in range(n))
                       for i in range(n)])
    cols = [list(col) for col in bt_cols] + w_cols
    stacked = [[cols[j][i] for j in range(len(cols))] for i in range(n)]
    base = [[bt_cols[j][i] for j in range(n)] for i in range(n)]
    return rank(stacked) == rank(base) + len(kern)


def cofactor_half_degrees(p):
    """Oracle: d_S read from the cofactor expansion of every principal
    minor of the unscaled Gram matrix, in Fraction arithmetic."""
    g = gram(p)
    out = [0]
    for s in range(1, 1 << p.size):
        deg, coeff = lowest_term(poly_det_cofactor(principal_submatrix(g, s)))
        assert deg % 2 == 0 and coeff > 0
        out.append(deg // 2)
    return tuple(out)


class TestAsnRationalCoefficients:
    @pytest.mark.parametrize("text", [
        "1/2*e, 3/2\n0, 1\n",
        "1/2*e, 3/2\n1/3, 1 - 1/3*e^2\n",
        "1, 1, 1\n0, 1/2*e, 3/2\n0, 0, 2/3*e^2\n",
        "e, 0, 0\n0, 1/7*e, 0\n0, 0, 5/2*e\n",
    ])
    def test_matches_cofactor_oracle(self, text):
        p = parse_poly_matrix(text)
        assert asn(p).entries == cofactor_half_degrees(p)

    def test_random_rational_families_match_oracle(self):
        rng = random.Random(29)
        checked = 0
        while checked < 12:
            n = rng.randint(2, 4)
            p = poly_matrix([[poly([Fraction(rng.randint(-3, 3),
                                             rng.choice((1, 2, 3, 4)))
                                    for _ in range(rng.randint(0, 3))])
                              for _ in range(n)] for _ in range(n)])
            if not poly_det_cofactor([list(r) for r in p.entries]):
                continue
            assert asn(p).entries == cofactor_half_degrees(p)
            checked += 1

    def test_scaling_p_leaves_asn_unchanged(self):
        base = P_for_Q()
        scaled = poly_matrix([[poly([Fraction(c, 6) for c in entry])
                               for entry in row] for row in base.entries])
        assert asn(scaled) == asn(base)


class TestAsnCertificate:
    # Every minor replaced by the packed constant -1: a negative lowest
    # digit at degree 0.
    @staticmethod
    def negative_minors(upper):
        return [-1] * (1 << len(upper)), [0] * (1 << len(upper))

    def test_negative_dominating_term_raises(self, monkeypatch):
        monkeypatch.setattr(polyarith, "gram_subset_walk",
                            self.negative_minors)
        with pytest.raises(CertificateError, match="positive even power"):
            asn(parse_poly_matrix("1, 0\n0, e\n"))

    def test_cli_exits_2(self, monkeypatch, tmp_path, capsys):
        f = tmp_path / "p.txt"
        f.write_text("1, 0\n0, e\n")
        monkeypatch.setattr(polyarith, "gram_subset_walk",
                            self.negative_minors)
        assert main(["asn", str(f)]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: dominating minor term")

    def test_inexact_division_raises(self, monkeypatch):
        # Off by one in every fraction-free numerator: the first division
        # by a pivot other than 1 (det G[{2}] = 1 + e^2 of P_for_Q) is
        # inexact, and the step's own division says so.
        step = exact.bareiss_step

        def off_by_one(row, pivot_row, pivot, factor, prev):
            nums = [x + 1 for x in step(row, pivot_row, pivot, factor, 1)]
            return step(nums, nums, 1, 0, prev)
        monkeypatch.setattr(exact, "bareiss_step", off_by_one)
        with pytest.raises(ArithmeticError, match="inexact") as err:
            asn(P_for_Q())
        assert type(err.value) is ArithmeticError
