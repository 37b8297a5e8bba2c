import itertools
import os
import random
import subprocess
import sys
import tracemalloc
from pathlib import Path

import numpy as np
import pytest
from fractions import Fraction
from hypothesis import given, settings
from hypothesis import strategies as st

from minorcones import cones, ratios
from minorcones.exact import clear_denominators, dot
from minorcones.oracles import kernel_basis
from minorcones.ratios import (LOG_MINOR_CHUNK, FormalLog,
                               NotPositiveDefiniteError, RatioSyntaxError,
                               apply_complement, apply_permutation,
                               batch_log_minors, delete_index,
                               evaluate_log_ratio, formal_log,
                               h_coordinates, h_lift,
                               homogeneity_basis, homogeneity_vectors,
                               is_homogeneous, is_koteljanskii_ray,
                               koteljanskii_log, log_of, log_ratio_from_minors,
                               log_ratio_values, MAX_GROUND_SIZE, parse_ratio)
from minorcones.subsets import (complement_mask, format_subset, mask_of,
                                members_of, ordered_entries, subset_order)


def from_entries(n, entries):
    """The FormalLog with the given nonempty-set entries and the empty-set
    entry that makes all entries sum to zero."""
    vec = [Fraction(0)] * (1 << n)
    for mask, x in entries.items():
        vec[mask] = Fraction(x)
    vec[0] = -sum(vec[1:])
    return FormalLog(n, tuple(vec))


def format_ratio(spec):
    """The ratio text of a RatioSpec, every exponent written out."""
    def product(terms):
        return "".join(f"{format_subset(mask)}^{exp}" for mask, exp in terms)
    return product(spec.numerator) + " / " + product(spec.denominator)


def permute_mask(mask, perm):
    """Image of a subset under a permutation given as perm[i-1] = sigma(i),
    one member at a time: the reference for `subsets.image_gather`."""
    return mask_of(perm[i - 1] for i in members_of(mask))


def permuted_by_entry(v, perm):
    out = [Fraction(0)] * len(v.exponents)
    for mask, x in enumerate(v.exponents):
        out[permute_mask(mask, perm)] = x
    return FormalLog(v.ground_size, tuple(out))


def complemented_by_entry(v):
    out = [Fraction(0)] * len(v.exponents)
    for mask, x in enumerate(v.exponents):
        out[complement_mask(mask, v.ground_size)] = x
    return FormalLog(v.ground_size, tuple(out))


# Malformed ratio strings: (text, message, position) of the
# RatioSyntaxError each one raises.
SYNTAX_ERRORS = (
    ('', "expected '{'", 0),
    ('   ', "expected '{'", 3),
    ('/', "expected '{'", 0),
    ('{1}', "expected '/' between numerator and denominator", 3),
    ('{1} ', "expected '/' between numerator and denominator", 4),
    ('{1} {2}', "expected '/' between numerator and denominator", 7),
    ('{1}/', "expected '{'", 4),
    ('{1} / ', "expected '{'", 6),
    ('{1} / x', "expected '{'", 6),
    ('x / {1}', "expected '{'", 0),
    ('  x', "expected '{'", 2),
    ('{', 'expected an integer', 1),
    ('{ ', 'expected an integer', 2),
    ('{1', "expected ',' or '}'", 2),
    ('{1 ', "expected ',' or '}'", 3),
    ('{1,', 'expected an integer', 3),
    ('{1, ', 'expected an integer', 4),
    ('{,}', 'expected an integer', 1),
    ('{1,}', 'expected an integer', 3),
    ('{1,,2}', 'expected an integer', 3),
    ('{1 2} / {}', "expected ',' or '}'", 3),
    ('{a} / {}', 'expected an integer', 1),
    ('{1}^ / {1}', 'expected an integer', 5),
    ('{1}^x / {1}', 'expected an integer', 4),
    ('{1}^/2 / {1}', 'expected an integer', 4),
    ('{1}^ / 3{2} / {1}', 'expected an integer', 5),
    ('{1}^  /3 {2} / {1}', 'expected an integer', 6),
    ('{1}^ / x', 'expected an integer', 5),
    ('{1} ^ 0 / {1}', 'exponent must be positive', 6),
    ('{1}^0/3 / {1}', 'exponent must be positive', 4),
    ('{1}^00 / {1}', 'exponent must be positive', 4),
    ('{1}^1/0 / {1}', 'exponent denominator must be positive', 6),
    ('{1}^0/0 / {1}', 'exponent denominator must be positive', 6),
    ('{1} ^ 3 / 00 / {1}', 'exponent denominator must be positive', 10),
    ('{1}^2/ / {1}', "expected '{'", 7),
    ('{1}^2/3/{1}^ 1 / 3 x', 'unexpected trailing input', 19),
    ('{1} / {2} }', 'unexpected trailing input', 10),
    ('{1} / {2}{', 'expected an integer', 10),
    ('{1} / {2}^', 'expected an integer', 10),
    ('{1}{2}^3/ {1,2}x', 'unexpected trailing input', 15),
    ('{1}\t/\n{2}\t^\t', 'expected an integer', 12),
    ('{1}}/{2}', "expected '/' between numerator and denominator", 3),
    ('{1}^-1 / {1}', 'expected an integer', 4),
    ('{1}^+1 / {1}', 'expected an integer', 4),
    ('{1.5} / {1}', "expected ',' or '}'", 2),
    ('{1}^1.5 / {1}', "expected '/' between numerator and denominator", 5),
    ('{-1} / {}', 'expected an integer', 1),
    ('{1}/{2}/{3}', 'unexpected trailing input', 7),
    ('{1} // {2}', "expected '{'", 5),
    ('{1}^2//3 / {1}', "expected '{'", 6),
    ('{ 1 , 2 ', "expected ',' or '}'", 8),
    ('{\xa01\u2003}/{\u3000 2}^\xa0', 'expected an integer', 13),
)

# Inputs that are well formed but rejected by a value check, with the
# ground size given or not: (text, n, exception type, message).
VALUE_ERRORS = (
    ("{0} / {}", None, ValueError, "index 0 out of range (1-based)"),
    ("{0} / {", None, ValueError, "index 0 out of range (1-based)"),
    ("{1,0} / {1}", None, ValueError, "index 0 out of range (1-based)"),
    ("{2,0,1} / {", None, ValueError, "index 0 out of range (1-based)"),
    ("{0,99} / {}", None, ValueError, "index 0 out of range (1-based)"),
    ("{99,0} / {1}", None, ValueError, "index 0 out of range (1-based)"),
    ("{99} / {0}", None, ValueError, "index 0 out of range (1-based)"),
    ("{5} / {1}", 4, ValueError, "index 5 exceeds ground size 4"),
    ("{1,17}{} / {1}{17}", None, ValueError,
     "ground size 17 exceeds the supported maximum 16"),
    ("{1,17}{} / {1}{17}", 17, ValueError,
     "ground size 17 exceeds the supported maximum 16"),
    ("{1}{} / {1}{}", 17, ValueError,
     "ground size 17 exceeds the supported maximum 16"),
)


class TestClearedForm:
    @pytest.mark.parametrize("text,n", [
        ("{1,2}{} / {1}{2}", 4),
        ("{1,2}^2/4{}^1/2 / {1}^3/6{2}^1/2", 2),
        ("{1,2,3}^6{}^2 / {1,2}^4{3}^4", 3),
        ("{1}^1/3{2}^1/6 / {1}^1/3{2}^1/6", 2),
        ("{1,2,3,4,5}^7/4{1}^7/4 / {1,2,3,4}^7/4{1,5}^7/4", 5)])
    def test_cleared_form_is_that_of_the_exponents(self, text, n):
        v = log_of(text, n)
        ints, d = clear_denominators(v.exponents)
        assert v.cleared == (tuple(ints), d)
        assert v == FormalLog(n, v.exponents)

    def test_generated_logs(self):
        rng = random.Random(4)
        for _ in range(50):
            n = rng.randint(2, 5)
            entries = {rng.randrange(1, 1 << n):
                       Fraction(rng.randint(-9, 9), rng.choice((1, 2, 6, 9)))
                       for _ in range(rng.randint(0, 6))}
            for v in (from_entries(n, entries),
                      koteljanskii_log(rng.randrange(1 << n),
                                       rng.randrange(1 << n), n)):
                ints, d = clear_denominators(v.exponents)
                assert v.cleared == (tuple(ints), d)
                assert sum(v.exponents) == 0


class TestParseRatio:
    def test_hadamard(self):
        spec = parse_ratio("{1,2}{} / {1}{2}", 2)
        assert spec.numerator == ((0b11, Fraction(1)), (0, Fraction(1)))
        assert spec.denominator == ((0b01, Fraction(1)), (0b10, Fraction(1)))

    def test_r1(self):
        spec = parse_ratio("{1,2,4}{1,3,4}{2,3}{1}{4} / "
                           "{1,2}{1,3}{1,4}{2,4}{3,4}", 4)
        assert [m for m, _ in spec.numerator] == [
            mask_of([1, 2, 4]), mask_of([1, 3, 4]), mask_of([2, 3]),
            mask_of([1]), mask_of([4])]
        assert len(spec.denominator) == 5

    def test_fractional_exponents(self):
        spec = parse_ratio("{1,2}^3/2 / {1}^3/2{2}^3/2")
        for _, exp in spec.numerator + spec.denominator:
            assert exp == Fraction(3, 2)

    def test_integer_exponent_then_separator(self):
        spec = parse_ratio("{1,2}^2 / {1}^2{2}^2")
        assert spec.numerator[0][1] == 2

    def test_syntax_error_has_position(self):
        with pytest.raises(RatioSyntaxError) as err:
            parse_ratio("{1,2 / {1}{2}")
        assert err.value.position >= 0

    @pytest.mark.parametrize("text,message,position", SYNTAX_ERRORS)
    def test_syntax_error_message_and_position(self, text, message,
                                               position):
        with pytest.raises(RatioSyntaxError) as err:
            parse_ratio(text)
        assert str(err.value) == f"{message} (at position {position})"
        assert err.value.position == position

    @pytest.mark.parametrize("text,n,kind,message", VALUE_ERRORS)
    def test_value_error_message(self, text, n, kind, message):
        with pytest.raises(kind) as err:
            parse_ratio(text, n)
        assert type(err.value) is kind and str(err.value) == message

    def test_whitespace_inside_exponent(self):
        spec = parse_ratio("{1,2} ^ 2 /3 {} / {1}^2/ 3{2}^ 2 / 3")
        assert spec.numerator == ((0b11, Fraction(2, 3)), (0, Fraction(1)))
        assert spec.denominator == ((0b01, Fraction(2, 3)),
                                    (0b10, Fraction(2, 3)))

    def test_zero_exponent_rejected(self):
        with pytest.raises(RatioSyntaxError):
            parse_ratio("{1}^0 / {1}")

    @pytest.mark.parametrize("exponent", [0, Fraction(0), Fraction(-1, 2),
                                          -1])
    def test_directly_built_spec_rejects_non_positive_exponents(
            self, exponent):
        with pytest.raises(ValueError, match="must be positive"):
            ratios.RatioSpec(2, ((0b11, exponent),), ((0b01, Fraction(1)),))
        with pytest.raises(ValueError, match="must be positive"):
            ratios.RatioSpec(2, ((0b11, Fraction(1)),), ((0b01, exponent),))

    def test_directly_built_spec_takes_int_exponents(self):
        spec = ratios.RatioSpec(2, ((0b11, 2), (0, 1)), ((0b01, 2), (0b10, 1)))
        assert spec.numerator == ((0b11, 2), (0, 1))
        assert log_of("{1,2}^2{} / {1}^2{2}", 2).exponents == formal_log(
            spec).exponents

    def test_index_beyond_ground_size(self):
        with pytest.raises(ValueError):
            parse_ratio("{1,5} / {1}{5}", n=3)

    def test_ground_size_capped_before_allocation(self):
        with pytest.raises(ValueError, match=f"ground size 40 exceeds the "
                                             f"supported maximum "
                                             f"{MAX_GROUND_SIZE}"):
            parse_ratio("{1,40}{} / {1}{40}")
        with pytest.raises(ValueError, match="ground size 40"):
            log_of("{1,2}{} / {1}{2}", 40)
        top = MAX_GROUND_SIZE
        assert parse_ratio(f"{{1,{top}}}{{}} / {{1}}{{{top}}}").ground_size \
            == top

    @pytest.mark.parametrize("n", [None, 4, 16])
    def test_huge_index_rejected_without_a_mask(self, n, monkeypatch):
        # No mask of an index past MAX_GROUND_SIZE is built: 1 << 10^12
        # alone would need 125 GB.
        built = []
        monkeypatch.setattr(ratios, "mask_of",
                            lambda members: built.append(members) or 0)
        huge = 10 ** 12
        message = (f"ground size {huge}" if n is None
                   else f"index {huge} exceeds ground size {n}")
        with pytest.raises(ValueError, match=message):
            parse_ratio(f"{{1}}{{2,{huge}}} / {{1,2}}{{{huge}}}", n)
        assert all(max(members) <= MAX_GROUND_SIZE for members in built)

    def test_digits_int_cannot_read_are_a_syntax_error(self):
        # U+00B2 is a digit to str.isdigit but not a decimal digit.
        with pytest.raises(RatioSyntaxError) as err:
            parse_ratio("{\u00b2} / {}")
        assert str(err.value) == "expected an integer (at position 1)"
        spec = parse_ratio("{\u0661,\u0662} / {\u0661}{\u0662}")
        assert spec.numerator == ((0b11, Fraction(1)),)

    def test_round_trip(self):
        for text in ("{1,2}{} / {1}{2}", "{1,2}^3/2 / {1}^3/2{2}^3/2",
                     "{1,2,4}{1,3,4}{2,3}{1}{4} / {1,2}{1,3}{1,4}{2,4}{3,4}"):
            spec = parse_ratio(text)
            assert parse_ratio(format_ratio(spec), spec.ground_size) == spec


class TestFormalLog:
    def test_hadamard_entries(self):
        v = log_of("{1,2}{} / {1}{2}", 2)
        assert v[0b11] == 1 and v[0b01] == -1 and v[0b10] == -1 and v[0] == 1

    def test_r1_entries(self):
        v = log_of("{1,2,4}{1,3,4}{2,3}{1}{4} / "
                   "{1,2}{1,3}{1,4}{2,4}{3,4}", 4)
        assert v[0] == 0
        assert v[mask_of([1, 2, 4])] == 1
        assert v[mask_of([3, 4])] == -1

    def test_trivial_cancellation(self):
        assert not any(log_of("{1} / {1}", 1).exponents)

    def test_sum_zero_invariant(self):
        v = log_of("{1,2,3}^5{2} / {1}^2{3}^1/3", 3)
        assert sum(v.exponents) == 0

    def test_integer_form_is_kept_outside_equality_and_repr(self):
        v = log_of("{1,2,3}^5{2} / {1}^2{3}^1/3", 3)
        ints, d = clear_denominators(v.exponents)
        assert v.cleared == (tuple(ints), d) and d == 3
        w = FormalLog(3, tuple(v.exponents))
        assert w == v and hash(w) == hash(v)
        assert repr(w) == repr(v) == (
            f"FormalLog(ground_size=3, exponents={v.exponents!r})")

    def test_exact_checks_read_the_kept_integer_form(self, monkeypatch):
        from minorcones.constants import R1
        v = R1()
        calls = []
        for module in (ratios, cones):
            monkeypatch.setattr(module, "clear_denominators",
                                lambda row: calls.append(row), raising=False)
        assert is_homogeneous(v)
        cert = cones.membership(v, cones.build_E_system(4))
        assert cert.verdict and calls == []

    def test_numeric_forms_are_built_once_and_only_on_use(self):
        huge = Fraction(10 ** 400)
        v = from_entries(2, {0b11: huge, 0b01: -huge, 0b10: -huge})
        assert is_homogeneous(v)   # the exact forms need no float
        assert v.support() == [0b01, 0b10, 0b11]
        with pytest.raises(OverflowError):
            evaluate_log_ratio(v, np.eye(2))
        w = log_of("{1,2,3}^5{2} / {1}^2{3}^1/3", 3)
        support = w.support()
        support.append(99)
        assert w.support() == [m for m in subset_order(3) if m and w[m]]
        assert w._support is w._support and w._weights is w._weights


class TestHomogeneity:
    def test_hadamard_homogeneous(self):
        assert is_homogeneous(log_of("{1,2}{} / {1}{2}", 2))

    def test_empty_set_convention_irrelevant(self):
        assert is_homogeneous(log_of("{1,2} / {1}{2}", 2))
        assert not is_homogeneous(log_of("{1,2} / {1}", 2))

    def test_r2_homogeneous(self):
        from minorcones.constants import R2
        assert is_homogeneous(R2())


def seeded_rows(n, seed, count=4):
    """Mask-indexed rows of small ints and of Fractions."""
    rng = random.Random(seed)
    ints = [tuple(rng.randint(-9, 9) for _ in range(1 << n))
            for _ in range(count)]
    fractions = [tuple(Fraction(rng.randint(-9, 9), rng.randint(1, 6))
                       for _ in range(1 << n)) for _ in range(count)]
    return ints + fractions


def elimination_kernel(n):
    return kernel_basis(homogeneity_vectors(n), 1 << n)


class TestHomogeneityQuotient:
    @pytest.mark.parametrize("n", range(1, 8))
    def test_closed_form_basis_is_the_elimination_kernel(self, n):
        assert homogeneity_basis(n) == tuple(elimination_kernel(n))

    @pytest.mark.parametrize("n", range(1, 7))
    def test_coordinates_are_dot_products_with_the_kernel(self, n):
        kernel = elimination_kernel(n)
        for row in seeded_rows(n, seed=n):
            assert h_coordinates(row, n) == tuple(dot(row, b) for b in kernel)

    @pytest.mark.parametrize("n", range(1, 7))
    def test_lift_is_the_kernel_combination(self, n):
        kernel = elimination_kernel(n)
        rng = random.Random(100 + n)
        for _ in range(4):
            for coords in ([rng.randint(-5, 5) for _ in kernel],
                           [Fraction(rng.randint(-5, 5), rng.randint(1, 4))
                            for _ in kernel]):
                assert h_lift(coords, n) == [
                    sum(c * b[mask] for c, b in zip(coords, kernel))
                    for mask in range(1 << n)]

    @pytest.mark.parametrize("row,n", [
        ((1, 2, 3, 4, 99), 2), ((1, 2, 3), 2), ((), 1)])
    def test_coordinates_reject_a_row_of_the_wrong_length(self, row, n):
        with pytest.raises(ValueError, match="expected 2\\^"):
            h_coordinates(row, n)

    def test_lift_rejects_a_wrong_coordinate_count(self):
        with pytest.raises(ValueError, match="expected 11"):
            h_lift([1] * 12, 4)


perms_of_4 = st.permutations(list(range(1, 5)))


def random_log(draw_entries):
    return from_entries(4, {m: Fraction(e) for m, e in draw_entries.items()})


small_logs = st.dictionaries(
    st.integers(min_value=1, max_value=15),
    st.integers(min_value=-3, max_value=3), max_size=8).map(random_log)


class TestGroupActions:
    def test_gathers_equal_per_entry_loops(self):
        rng = np.random.default_rng(47)
        cases = [(4, perm) for perm in itertools.permutations(range(1, 5))]
        cases.append((7, tuple(int(i) + 1 for i in rng.permutation(7))))
        cases.append((0, ()))
        for n, perm in cases:
            v = from_entries(n, {m: Fraction(int(x), 3) for m, x in
                                 enumerate(rng.integers(-9, 10, 1 << n))})
            permuted = apply_permutation(v, perm)
            assert permuted == permuted_by_entry(v, perm)
            assert apply_complement(v) == complemented_by_entry(v)
            assert (apply_complement(permuted)
                    == complemented_by_entry(permuted_by_entry(v, perm)))

    @pytest.mark.parametrize("n", range(7))
    def test_ordered_entries_equal_the_generator_form(self, n):
        vec = tuple(random.Random(n).randint(-9, 9) for _ in range(1 << n))
        got = ordered_entries(vec, n)
        assert type(got) is tuple
        assert got == tuple(vec[m] for m in subset_order(n))

    def test_identity_permutation(self):
        v = log_of("{1,2}{} / {1}{2}", 4)
        assert apply_permutation(v, (1, 2, 3, 4)) == v

    def test_r1_swap_23_invariant(self):
        from minorcones.constants import R1
        assert apply_permutation(R1(), (1, 3, 2, 4)) == R1()

    def test_hadamard_swap_12_invariant(self):
        v = log_of("{1,2}{} / {1}{2}", 2)
        assert apply_permutation(v, (2, 1)) == v

    @settings(max_examples=50, deadline=None)
    @given(small_logs, perms_of_4, perms_of_4)
    def test_permutation_composition(self, v, sigma, tau):
        once = apply_permutation(apply_permutation(v, sigma), tau)
        composed = tuple(tau[sigma[i] - 1] for i in range(4))
        assert once == apply_permutation(v, composed)

    @settings(max_examples=50, deadline=None)
    @given(small_logs)
    def test_complement_involution(self, v):
        assert apply_complement(apply_complement(v)) == v

    def test_hadamard_self_complementary_n2(self):
        v = log_of("{1,2}{} / {1}{2}", 2)
        assert apply_complement(v) == v

    @settings(max_examples=30, deadline=None)
    @given(small_logs, perms_of_4)
    def test_homogeneity_invariant_under_actions(self, v, sigma):
        h = is_homogeneous(v)
        assert is_homogeneous(apply_permutation(v, sigma)) == h
        assert is_homogeneous(apply_complement(v)) == h


class TestKoteljanskii:
    def test_disjoint_singletons(self):
        assert koteljanskii_log(mask_of([1]), mask_of([2]), 2) == \
            log_of("{1,2}{} / {1}{2}", 2)

    def test_overlapping_pairs(self):
        assert koteljanskii_log(mask_of([1, 2]), mask_of([1, 3]), 3) == \
            log_of("{1,2,3}{1} / {1,2}{1,3}", 3)

    def test_nested_sets_give_zero(self):
        assert not any(koteljanskii_log(0b11, 0b11, 2).exponents)
        assert not any(koteljanskii_log(0b01, 0b11, 2).exponents)

    def test_ray_predicate(self):
        assert is_koteljanskii_ray(log_of("{1,2,3}{1} / {1,2}{1,3}", 3))
        assert is_koteljanskii_ray(log_of("{1,2}{} / {1}{2}", 2))
        from minorcones.constants import R1
        assert not is_koteljanskii_ray(R1())

    def test_scaled_multiple_still_a_ray(self):
        assert is_koteljanskii_ray(log_of("{1,2}^3/2 / {1}^3/2{2}^3/2", 2))


class TestDeleteIndex:
    def test_delete_from_zero(self):
        assert not any(delete_index(from_entries(3, {}), 2).exponents)

    def test_delete_merges_pairs(self):
        v = log_of("{1,2,3}{1} / {1,2}{1,3}", 3)
        assert not any(delete_index(v, 3).exponents)

    def test_relabeling(self):
        v = log_of("{1,3} / {1}{3}", 3)
        w = delete_index(v, 2)
        assert w == log_of("{1,2} / {1}{2}", 2)

    def test_koteljanskii_closed_under_deletion(self):
        for s, t in ((0b0011, 0b0101), (0b0110, 0b1010), (0b0111, 0b1101)):
            v = koteljanskii_log(s, t, 4)
            for i in range(1, 5):
                w = delete_index(v, i)
                assert not any(w.exponents) or is_koteljanskii_ray(w)


class TestEvaluate:
    def test_homogeneous_on_diagonal_is_zero(self):
        v = log_of("{1,2}{} / {1}{2}", 2)
        a = np.diag([3.0, 7.0])
        assert abs(evaluate_log_ratio(v, a)) < 1e-12

    def test_hadamard_value(self):
        v = log_of("{1,2}{} / {1}{2}", 2)
        a = np.array([[2.0, 1.0], [1.0, 2.0]])
        assert evaluate_log_ratio(v, a) == pytest.approx(np.log(3 / 4))

    def test_r1_on_identity(self):
        from minorcones.constants import R1
        assert evaluate_log_ratio(R1(), np.eye(4)) == pytest.approx(0.0)

    def test_non_pd_reports_subset(self):
        v = log_of("{1,2}{} / {1}{2}", 2)
        with pytest.raises(NotPositiveDefiniteError):
            evaluate_log_ratio(v, np.array([[1.0, 2.0], [2.0, 1.0]]))

    def test_diagonal_scaling_invariance(self):
        rng = np.random.default_rng(5)
        from minorcones.constants import R1
        for _ in range(10):
            g = rng.standard_normal((4, 4))
            a = g @ g.T + 1e-3 * np.eye(4)
            d = np.diag(rng.uniform(0.5, 2.0, size=4))
            base = evaluate_log_ratio(R1(), a)
            scaled = evaluate_log_ratio(R1(), d @ a @ d)
            assert abs(base - scaled) <= 1e-9 * max(1.0, abs(base))

    def test_jacobi_identity_single_set(self):
        rng = np.random.default_rng(6)
        n = 4
        for _ in range(10):
            g = rng.standard_normal((n, n))
            a = g @ g.T + 1e-3 * np.eye(n)
            for s in (0b0011, 0b0101, 0b1110):
                v = from_entries(n, {s: 1})
                full = (1 << n) - 1
                w = from_entries(n, {full ^ s: 1, full: -1})
                lhs = evaluate_log_ratio(v, a)
                rhs = evaluate_log_ratio(w, np.linalg.inv(a))
                assert abs(lhs - rhs) <= 1e-9 * max(1.0, abs(lhs))


def _pd_stack(count, n, seed):
    """Well-conditioned PD matrices, so log-determinants agree across
    factorizations to a few ulps."""
    g = np.random.default_rng(seed).standard_normal((count, n, n))
    return g @ g.transpose(0, 2, 1) + n * np.eye(n)


def _reference_log_minor(a, mask):
    """log det a[S] for one mask on one matrix, by a plain loop of the
    kernel's Schur step, S' = S[1:,1:] - S[1:,0] * (S[0,1:] / p), with the
    log-pivots added in pivot order starting from the first; 0.0 for the
    empty mask."""
    idx = [i - 1 for i in members_of(mask)]
    s = [[float(a[i, j]) for j in idx] for i in idx]
    pivots = []
    while s:
        p = s[0][0]
        pivots.append(p)
        s = [[row[j] - row[0] * (s[0][j] / p) for j in range(1, len(s))]
             for row in s[1:]]
    logs = np.log(np.array(pivots)).tolist()
    total = logs[0] if logs else 0.0
    for x in logs[1:]:
        total = total + x
    return total


class TestLogMinorKernel:
    def test_values_equal_a_single_mask_loop_bitwise(self):
        rng = np.random.default_rng(12)
        for n in range(1, 9):
            full = (1 << n) - 1
            stack = _pd_stack(6, n, seed=20 + n)
            random_masks = [int(m) for m in rng.integers(0, full + 1, size=8)]
            for masks in (random_masks, random_masks[:3] * 2 + [0, full]):
                for mask, logdet in batch_log_minors(stack, masks).items():
                    want = [_reference_log_minor(a, mask) for a in stack]
                    assert logdet.tobytes() == np.array(want).tobytes(), (
                        n, mask)
        # Across a chunk boundary: with the full set of n = 4 requested,
        # a chunk holds LOG_MINOR_CHUNK matrices.
        masks = [15, 1, 0, 6, 11, 6]
        stack = _pd_stack(LOG_MINOR_CHUNK + 3, 4, seed=31)
        rows = [0, 1, LOG_MINOR_CHUNK - 1, LOG_MINOR_CHUNK, LOG_MINOR_CHUNK + 2]
        for mask, logdet in batch_log_minors(stack, masks).items():
            want = [_reference_log_minor(stack[k], mask) for k in rows]
            assert logdet[rows].tobytes() == np.array(want).tobytes(), mask

    def test_stack_equals_single_matrices_bitwise(self):
        from minorcones.constants import R1, R2, counterexample_E4
        stack = _pd_stack(40, 4, seed=1)
        for v in (R1(), R2(), counterexample_E4()):
            values = evaluate_log_ratio(v, stack)
            assert values.shape == (40,)
            assert values.tolist() == [evaluate_log_ratio(v, a)
                                       for a in stack]
        assert isinstance(evaluate_log_ratio(R1(), stack[0]), float)

    def test_zero_log_keeps_the_stack_shape(self):
        v = log_of("{}/{}", 3)
        assert v.support() == []
        values = evaluate_log_ratio(v, _pd_stack(5, 3, seed=3))
        assert isinstance(values, np.ndarray) and values.tolist() == [0.0] * 5
        assert evaluate_log_ratio(v, np.eye(3)) == 0.0

    def test_matches_slogdet_across_a_chunk_boundary(self):
        count = LOG_MINOR_CHUNK + 3
        stack = _pd_stack(count, 4, seed=2)
        minors = batch_log_minors(stack, range(1, 16))
        assert sorted(minors) == list(range(1, 16))
        for mask, logdet in minors.items():
            idx = [i - 1 for i in members_of(mask)]
            sign, ref = np.linalg.slogdet(stack[:, idx][:, :, idx])
            assert logdet.shape == (count,) and np.all(sign > 0)
            np.testing.assert_allclose(logdet, ref, rtol=1e-12, atol=0)

    def test_names_the_failing_subset(self):
        a = np.array([[1.0, 0.0, 2.0], [0.0, 1.0, 0.0], [2.0, 0.0, 1.0]])
        masks = [m for m in subset_order(3) if 0 < m.bit_count() <= 2]
        for stack in (a[None], np.concatenate(
                [np.broadcast_to(np.eye(3), (LOG_MINOR_CHUNK, 3, 3)), a[None]])):
            with pytest.raises(NotPositiveDefiniteError) as err:
                batch_log_minors(stack, masks)
            assert err.value.subset == (1, 3)

    def test_names_the_first_failing_subset_across_chunks(self):
        # The first matrix fails on {1,3} only; the last, more than
        # LOG_MINOR_CHUNK matrices later and so in a later chunk, fails on
        # {1,2}, which comes first in the order.  The whole stack is
        # checked, so {1,2} is named.
        fails_13 = np.array([[1.0, 0.0, 2.0], [0.0, 1.0, 0.0],
                             [2.0, 0.0, 1.0]])
        fails_12 = np.array([[1.0, 2.0, 0.0], [2.0, 1.0, 0.0],
                             [0.0, 0.0, 1.0]])
        masks = [1, 2, 4, 3, 5, 6]
        eyes = np.broadcast_to(np.eye(3), (LOG_MINOR_CHUNK, 3, 3))
        stack = np.concatenate([fails_13[None], eyes, fails_12[None]])
        for rows, subset in ((stack, (1, 2)), (stack[:-1], (1, 3)),
                             (stack[1:], (1, 2))):
            with pytest.raises(NotPositiveDefiniteError) as err:
                batch_log_minors(rows, masks)
            assert err.value.subset == subset

    def test_log_ratio_values_match_the_checked_evaluation(self):
        from minorcones.constants import R1, counterexample_E4
        stack = _pd_stack(30, 4, seed=4)
        bad = stack.copy()
        bad[3, 0, 0] = -1.0            # not PD on {1}
        bad[7, 2, 3] = bad[7, 3, 2] = 50.0   # not PD on {3,4}
        bad[9, 1, 1] = np.nan
        for v in (R1(), counterexample_E4(), log_of("{}/{}", 4)):
            values, finite = log_ratio_values(v, stack)
            assert finite.all() and finite.shape == (30,)
            assert values.tobytes() == evaluate_log_ratio(v, stack).tobytes()
            values, finite = log_ratio_values(v, bad)
            for k, a in enumerate(bad):
                try:
                    want = evaluate_log_ratio(v, a)
                except NotPositiveDefiniteError:
                    assert not finite[k]
                else:
                    assert finite[k] and values[k] == want
        values, finite = log_ratio_values(R1(), bad)
        assert np.flatnonzero(~finite).tolist() == [3, 7, 9]

    def test_each_mask_equals_its_own_call_bitwise(self):
        rng = np.random.default_rng(11)
        for n in range(3, 8):
            stack = _pd_stack(25, n, seed=n)
            for _ in range(4):
                masks = [int(m) for m in rng.integers(1, 1 << n, size=12)]
                minors = batch_log_minors(stack, masks)
                for mask, logdet in minors.items():
                    assert logdet.tobytes() == batch_log_minors(
                        stack, [mask])[mask].tobytes()
        # Across chunk boundaries, which differ between the two calls.
        stack = _pd_stack(LOG_MINOR_CHUNK + 3, 4, seed=5)
        minors = batch_log_minors(stack, range(1, 16))
        for mask in (1, 6, 11, 15):
            assert minors[mask].tobytes() == batch_log_minors(
                stack, [mask])[mask].tobytes()
            assert minors[mask][-2:].tobytes() == batch_log_minors(
                stack[-2:], [mask])[mask].tobytes()

    @pytest.mark.parametrize("n", range(1, 9))
    def test_matches_slogdet_on_mask_families(self, n):
        full = (1 << n) - 1
        rng = np.random.default_rng(n)
        random_masks = [int(m) for m in rng.integers(1, full + 1, size=10)]
        families = {
            "duplicates": [full, 1, full, 1] + random_masks[:3] * 2,
            # Lowest members all differ, so no two masks share a pivot.
            "no shared prefix": [
                mask_of([k] + [i for i in range(k + 1, n + 1)
                               if rng.random() < 0.5])
                for k in range(1, n + 1)],
            "singletons": [1 << k for k in range(n)],
            "full": [full],
            "random": random_masks,
        }
        stack = _pd_stack(20, n, seed=n)
        for name, masks in families.items():
            minors = batch_log_minors(stack, masks)
            assert list(minors) == list(dict.fromkeys(masks)), name
            for mask, logdet in minors.items():
                idx = [i - 1 for i in members_of(mask)]
                sign, ref = np.linalg.slogdet(stack[:, idx][:, :, idx])
                assert np.all(sign > 0)
                np.testing.assert_allclose(logdet, ref, rtol=1e-12, atol=0,
                                           err_msg=name)

    def test_zero_pivot_names_the_singular_subset(self):
        # The Gram matrix of the columns (1,0,0), (1,0,0), (0,1,0),
        # (0,0,1): PSD, with columns 1 and 2 equal.  Pivoting on 1 leaves
        # exactly 1 - 1*1/1 = 0 at index 2.
        b = np.array([[1.0, 1.0, 0.0, 0.0], [0.0, 0.0, 1.0, 0.0],
                      [0.0, 0.0, 0.0, 1.0]])
        a = (b.T @ b)[None]
        assert batch_log_minors(a, [1, 2, 4, 8, 13])[13].tolist() == [0.0]
        for masks, subset in (([1, 5, 13, 3, 15], (1, 2)),
                              ([1, 5, 15, 3], (1, 2, 3, 4)),
                              ([4, 7, 3], (1, 2, 3))):
            with pytest.raises(NotPositiveDefiniteError) as err:
                batch_log_minors(a, masks)
            assert err.value.subset == subset

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_non_finite_entry_inside_a_submatrix_raises(self, bad):
        base = np.array([[2.0, 0.5, 0.3], [0.5, 2.0, 0.4], [0.3, 0.4, 2.0]])
        masks = [1, 5, 3, 7]
        for (i, j), subset in (((0, 0), (1,)), ((1, 1), (1, 2)),
                               ((0, 1), (1, 2)), ((1, 0), (1, 2)),
                               ((0, 2), (1, 3)), ((2, 1), (1, 2, 3))):
            a = base.copy()
            a[i, j] = bad
            with pytest.raises(NotPositiveDefiniteError) as err:
                batch_log_minors(np.stack([base, a]), masks)
            assert err.value.subset == subset, (i, j)
        with pytest.raises(NotPositiveDefiniteError) as err:
            batch_log_minors(np.diag([1.0, bad, 1.0])[None], [7, 3])
        assert err.value.subset == (1, 2, 3)

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_non_finite_entry_outside_every_submatrix(self, bad):
        base = np.array([[2.0, 0.5, 0.3], [0.5, 2.0, 0.4], [0.3, 0.4, 2.0]])
        for masks, entries in (([3, 4], [(0, 2), (2, 0), (1, 2), (2, 1)]),
                               ([1, 4], [(0, 2), (2, 0), (1, 1)]),
                               ([1, 2], [(2, 2), (0, 2), (2, 1)])):
            clean = batch_log_minors(base[None], masks)
            for i, j in entries:
                a = base.copy()
                a[i, j] = bad
                got = batch_log_minors(a[None], masks)
                for mask in masks:
                    assert got[mask].tobytes() == clean[mask].tobytes()

    def test_non_finite_check_runs_without_asserts(self):
        script = (
            "import numpy as np\n"
            "from minorcones.ratios import NotPositiveDefiniteError, "
            "batch_log_minors\n"
            "try:\n"
            "    batch_log_minors(np.diag([1.0, np.nan, 1.0])[None], [7, 3])\n"
            "except NotPositiveDefiniteError as err:\n"
            "    print('debug', __debug__, 'raised', err.subset)\n")
        src = str(Path(ratios.__file__).resolve().parents[1])
        env = dict(os.environ, PYTHONPATH=os.pathsep.join(
            filter(None, [src, os.environ.get("PYTHONPATH")])))
        done = subprocess.run([sys.executable, "-O", "-c", script], env=env,
                              capture_output=True, text=True, timeout=120)
        assert done.returncode == 0, done.stderr
        assert done.stdout.strip() == "debug False raised (1, 2, 3)"

    def test_memory_stays_within_the_chunk_bound(self):
        # The masks of complement_ratio_check at n = 16: the size-15
        # group (masks x 15^2) holds several times the doubles of one full
        # matrix, so the chunk shrinks to keep each group's stack within
        # LOG_MINOR_CHUNK full matrices.  A Schur step holds at most three
        # such arrays (the chunk's copy, this stack and the next) beside
        # the output.
        n, count = 16, 8192
        full = (1 << n) - 1
        masks = ([1 << k for k in range(n)]
                 + [full ^ (1 << k) for k in range(n)])
        stack = _pd_stack(count, n, seed=8)
        batch_log_minors(stack[:2], masks)
        tracemalloc.start()
        try:
            batch_log_minors(stack, masks)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        output = len(masks) * count * 8
        level = LOG_MINOR_CHUNK * n * n * 8
        assert peak <= output + 3 * level

    def test_rejects_a_mask_outside_the_ground_set(self):
        with pytest.raises(ValueError, match="outside 1..3"):
            batch_log_minors(np.eye(3)[None], [1, 9])

    def test_positive_determinant_is_not_enough(self):
        a = np.diag([-1.0, -1.0, 1.0])
        assert np.linalg.det(a) > 0
        with pytest.raises(NotPositiveDefiniteError) as err:
            batch_log_minors(a[None], [0b111])
        assert err.value.subset == (1, 2, 3)

    def test_only_nonzero_exponents_are_factored(self, monkeypatch):
        from minorcones.constants import R1
        requested = []

        def spy(batch, masks):
            requested.append(list(masks))
            return batch_log_minors(batch, masks)

        monkeypatch.setattr(ratios, "batch_log_minors", spy)
        v = R1()
        evaluate_log_ratio(v, np.eye(4))
        assert requested == [v.support()]
        assert len(v.support()) == 10
        assert v.support() == [m for m in subset_order(4) if m and v[m]]

    def test_weighted_sum_is_the_per_term_sum_bitwise(self):
        v = log_of("{1,2,3}^5/2{2} / {1}^2{3}^1/3{2,3}^7/6", 3)
        minors = batch_log_minors(_pd_stack(50, 3, seed=5), v.support())
        expected = 0.0
        for mask in subset_order(3):
            if mask and v[mask]:
                expected = expected + float(v[mask]) * minors[mask]
        for _ in range(2):   # the second call reads the kept weights
            assert np.array_equal(log_ratio_from_minors(v, minors, 50),
                                  expected)

    def test_rejects_wrong_shapes(self):
        v = log_of("{1,2}{} / {1}{2}", 2)
        for shape in ((3, 3), (2, 2, 2, 2), (2,)):
            with pytest.raises(ValueError, match="2x2"):
                evaluate_log_ratio(v, np.ones(shape))
