from fractions import Fraction

from minorcones.cones import build_D_system, extreme_rays, membership
from minorcones.constants import (M6, M7, P_for_Q, Q, R1, R1_FACTORS,
                                  R1_TEXT, R2, R2_FACTORS, R3, R3_FACTORS,
                                  counterexample_E4, named_log, ratio_spec)
from minorcones.nullity import matrix, nullity_type
from minorcones.polyarith import asn, asn_inner_product
from minorcones.ratios import (FormalLog, apply_complement,
                               apply_permutation, h_coordinates,
                               is_homogeneous, is_koteljanskii_ray, log_of,
                               parse_ratio)
from test_ratios import format_ratio


class TestNamedRatios:
    def test_all_homogeneous(self):
        for name in ("R1", "R2", "R3", "counterexample_E4", "Q"):
            assert is_homogeneous(named_log(name)), name

    def test_none_are_koteljanskii(self):
        for v in (R1(), R2(), R3()):
            assert not is_koteljanskii_ray(v)

    def test_text_round_trip(self):
        spec = ratio_spec("R1")
        assert parse_ratio(format_ratio(spec), 4) == spec
        assert log_of(R1_TEXT, 4) == R1()

    def test_r1_fixed_by_swapping_2_and_3(self):
        assert apply_permutation(R1(), (1, 3, 2, 4)) == R1()

    def test_r3_fixed_by_swapping_2_and_3(self):
        assert apply_permutation(R3(), (1, 3, 2, 4)) == R3()

    def test_q_self_complementary(self):
        assert apply_complement(Q()) == Q()

    def test_rays_are_extreme_in_d4(self):
        vectors = {r.vector for r in extreme_rays(build_D_system(4))}
        for v in (R1(), R2(), R3()):
            assert tuple(int(x) for x in v.exponents) in vectors

    def test_counterexample_witness_value(self):
        inner = sum(x * Fraction(e) for x, e in
                    zip(counterexample_E4().exponents,
                        nullity_type(M6()).entries))
        assert inner == -1


class TestFactorizations:
    def test_all_factors_parse_and_are_homogeneous(self):
        for factors in (R1_FACTORS, R2_FACTORS, R3_FACTORS):
            for text in factors:
                assert is_homogeneous(log_of(text, 4))

    def test_all_but_last_factor_koteljanskii(self):
        for factors in (R1_FACTORS, R2_FACTORS, R3_FACTORS):
            for text in factors[:-1]:
                assert is_koteljanskii_ray(log_of(text, 4))
            assert not is_koteljanskii_ray(log_of(factors[-1], 4))

    def test_products_recover_named_ratios(self):
        for name, factors in (("R1", R1_FACTORS), ("R2", R2_FACTORS),
                              ("R3", R3_FACTORS)):
            total = [Fraction(0)] * 16
            for text in factors:
                for i, x in enumerate(log_of(text, 4).exponents):
                    total[i] += x
            assert FormalLog(4, tuple(total)) == named_log(name)


class TestMatrices:
    def test_m6_m7_shapes_and_ranks(self):
        assert len(M6()) == 2 and len(M6()[0]) == 4
        assert len(M7()) == 2 and len(M7()[0]) == 4
        assert nullity_type(M7()).rank_type()[15] == 2

    def test_d3_matrices_give_d3_rows(self):
        d3 = build_D_system(3)
        # The five 3-column matrices whose nullity types cut out E_3.
        d3_matrices = ([[1, 1, 1]], [[0, 1, 1]], [[1, 0, 1]], [[1, 1, 0]],
                       [[1, 0, 1], [0, 1, 1]])
        types = {h_coordinates(nullity_type(matrix(m)).entries, 3)
                 for m in d3_matrices}
        assert types == {h_coordinates(row, 3) for row in d3.inequalities}

    def test_p_for_q_asn_pairs_with_q(self):
        a = asn(P_for_Q())
        assert a[(1 << 5) - 1] == 4
        assert asn_inner_product(Q(), a) == -1


class TestMembershipOfNamedRatios:
    def test_q_in_d5(self):
        assert membership(Q(), build_D_system(5)).verdict

    def test_r1_r2_r3_in_d4(self):
        d4 = build_D_system(4)
        for v in (R1(), R2(), R3()):
            assert membership(v, d4).verdict
