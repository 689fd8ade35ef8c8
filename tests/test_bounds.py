"""Oracle and frontier tests for the certification bounds.

Group orders are checked against hand-computed values (and, for the
desk-scale groups, against the exhaustive enumerations in the geometry
tests).  The verdict frontiers pin down exactly which parameters each
pipeline can and cannot certify.
"""

from fractions import Fraction

import pytest

from regcycles import bounds as bd
from regcycles import numtheory as nt
from regcycles.bounds import GroupId


def gid(family, n, q):
    return GroupId(family, n, q)


class TestGroupId:
    def test_rejects_bad_family(self):
        with pytest.raises(ValueError):
            GroupId("PGL", 3, 5)

    def test_rejects_non_prime_power(self):
        with pytest.raises(ValueError):
            GroupId("PSL", 3, 6)

    def test_rejects_odd_symplectic(self):
        with pytest.raises(ValueError):
            GroupId("PSp", 5, 3)

    def test_rejects_even_q_odd_orthogonal(self):
        with pytest.raises(ValueError):
            GroupId("POmega", 7, 4)

    def test_rejects_small_even_orthogonal(self):
        with pytest.raises(ValueError):
            GroupId("POmega+", 6, 2)

    def test_parameters(self):
        g = gid("PSU", 5, 2)
        assert (g.p, g.e, g.q0) == (2, 1, 4)
        g = gid("POmega-", 10, 9)
        assert (g.p, g.e, g.m) == (3, 2, 4)
        assert str(g) == "POmega-_10(9)"


class TestOrders:
    def test_psl2(self):
        assert bd.group_order(gid("PSL", 2, 5)) == 60
        assert bd.group_order(gid("PSL", 2, 7)) == 168
        assert bd.group_order(gid("PSL", 2, 9)) == 360

    def test_psl3_2(self):
        assert bd.group_order(gid("PSL", 3, 2)) == 168

    def test_psp6_2(self):
        # confirmed by exhaustive enumeration in the geometry tests
        assert bd.group_order(gid("PSp", 6, 2)) == 1451520

    def test_psu4_2(self):
        assert bd.group_order(gid("PSU", 4, 2)) == 25920

    def test_psu5_2(self):
        assert bd.group_order(gid("PSU", 5, 2)) == 13685760

    def test_omega_plus_8_2(self):
        assert bd.group_order(gid("POmega+", 8, 2)) == 174182400

    def test_omega_7_3(self):
        assert bd.group_order(gid("POmega", 7, 3)) == 4585351680

    def test_aut_orders(self):
        # PGammaL_2(9) = Aut(PSL_2(9)) has order 1440
        assert bd.aut_order(gid("PSL", 2, 9)) == 1440
        # Sp_4(4) has the extra graph-field automorphism: |Out| = 4
        assert bd.aut_order(gid("PSp", 4, 4)) == 979200 * 4
        # triality: |Out(POmega+_8(3))| = 24
        g = gid("POmega+", 8, 3)
        assert bd.aut_order(g) == bd.group_order(g) * 24

    def test_prime_sets(self):
        assert bd.group_prime_set(gid("PSp", 6, 2)) == frozenset(
            {2, 3, 5, 7})
        # 7**6 - 1 = 2**4 * 3**2 * 19 * 43 brings in the residual primes
        assert bd.group_prime_set(gid("POmega", 7, 7)) == frozenset(
            {2, 3, 5, 7, 19, 43})

    def test_p_prime_part(self):
        assert bd.p_prime_part(1440, 3) == 160
        assert bd.p_prime_part(77, 2) == 77


class TestANQ:
    def test_excluded_groups(self):
        for q in (4, 5, 7):
            with pytest.raises(ValueError):
                bd.a_nq(gid("PSL", 2, q))

    def test_dominates_exact_omega(self):
        # a(n,q) >= omega(|Aut(G0)|) across the full desk grid
        grid = []
        for n in range(2, 11):
            grid += [("PSL", n)]
        for n in range(3, 11):
            grid += [("PSU", n)]
        for n in range(4, 11, 2):
            grid += [("PSp", n)]
        grid += [("POmega", 7), ("POmega", 9)]
        for n in (8, 10):
            grid += [("POmega+", n), ("POmega-", n)]
        qs = [q for q in range(2, 65) if nt.prime_power(q)]
        for family, n in grid:
            for q in qs:
                try:
                    g = GroupId(family, n, q)
                except ValueError:
                    continue
                try:
                    a = bd.a_nq(g)
                except ValueError:
                    continue  # outside the machinery
                assert a >= len(bd.aut_prime_set(g)), (family, n, q)


class TestTableConstants:
    def test_mstar_msharp(self):
        assert bd.mstar_msharp(gid("PSp", 6, 2)) == (3, 2)
        assert bd.mstar_msharp(gid("POmega+", 8, 2)) == (3, 2)
        assert bd.mstar_msharp(gid("POmega", 7, 3)) == (3, 2)
        assert bd.mstar_msharp(gid("POmega-", 8, 2)) == (4, 3)
        assert bd.mstar_msharp(gid("PSU", 6, 2)) == (Fraction(5, 2), 2)
        assert bd.mstar_msharp(gid("PSU", 7, 2)) == (Fraction(7, 2), 3)
        with pytest.raises(ValueError):
            bd.mstar_msharp(gid("PSL", 5, 2))


class TestOmegaSize:
    """Closed-form domain sizes, cross-checked against the exhaustive
    counts in the geometry tests where both exist."""

    def test_singular_points(self):
        assert bd.omega_size("i", gid("PSL", 5, 2)) == 31
        assert bd.omega_size("i", gid("PSp", 6, 2)) == 63
        assert bd.omega_size("i", gid("PSU", 5, 2)) == 165
        assert bd.omega_size("i", gid("POmega", 7, 3)) == 364
        assert bd.omega_size("i", gid("POmega+", 8, 2)) == 135
        assert bd.omega_size("i", gid("POmega-", 8, 2)) == 119

    def test_nondegenerate_points(self):
        assert bd.omega_size("ii", gid("PSU", 5, 2)) == 176
        assert bd.omega_size("ii", gid("POmega+", 8, 2)) == 120
        assert bd.omega_size("ii", gid("POmega-", 8, 2)) == 136
        # odd q: both square classes together
        assert bd.omega_size("ii", gid("POmega", 7, 3)) == 378 + 351

    def test_anisotropic_2_subspaces(self):
        assert bd.omega_size("iv", gid("POmega+", 8, 2)) == 1120
        assert bd.omega_size("iv", gid("POmega-", 8, 2)) == 1632
        assert bd.omega_size("iv", gid("POmega", 7, 3)) == 22113

    def test_polarizing_forms(self):
        assert bd.omega_size("vi", gid("PSp", 6, 2)) == (36, 28)
        assert bd.omega_size("vi", gid("PSp", 4, 2)) == (10, 6)

    def test_rejects_wrong_family(self):
        with pytest.raises(ValueError):
            bd.omega_size("iv", gid("PSU", 5, 2))
        with pytest.raises(ValueError):
            bd.omega_size("vi", gid("PSp", 6, 3))


class TestFprBounds:
    def test_fprell(self):
        assert bd.fprell_bound("i", gid("PSL", 5, 4), 2) == Fraction(1, 16)
        assert bd.fprell_bound("i", gid("PSU", 5, 2), 2) == Fraction(2, 16)
        assert bd.fprell_bound("i", gid("POmega", 7, 3), 3) \
            == Fraction(2, 27)
        assert bd.fprell_bound("ii", gid("POmega+", 8, 3), 2) \
            == Fraction(36, 13 * 9)

    def test_casevi(self):
        assert bd.casevi_fpr_bound(3, 2, 2, "+") == Fraction(1, 4)
        assert bd.casevi_fpr_bound(3, 2, 0, "-") == Fraction(1, 14)
        assert bd.casevi_fpr_bound(3, 2, 0, "+") == Fraction(1, 16)
        with pytest.raises(ValueError):
            bd.casevi_fpr_bound(2, 2, 0, "+")
        with pytest.raises(ValueError):
            bd.casevi_fpr_bound(3, 3, 0, "+")


class TestScopeGuard:
    def test_cases_v_and_vii_are_rejected(self):
        for case in ("v", "vii"):
            with pytest.raises(ValueError):
                bd.certify_case(case, gid("PSp", 6, 2))

    def test_unknown_case(self):
        with pytest.raises(ValueError):
            bd.certify_case("viii", gid("PSp", 6, 2))

    def test_symplectic_case_i_redirects(self):
        with pytest.raises(ValueError):
            bd.certify_case("i", gid("PSp", 6, 3))


def verdicts(case, ids):
    return {g: bd.certify_case(case, g).verdict for g in ids}


class TestCaseILinear:
    def test_certified_for_q_at_least_11(self):
        qs = [11, 13, 16, 25, 27, 64, 81, 101, 243, 1024, 2401, 9973]
        for n in (5, 8, 13, 21, 34, 50):
            for q in qs:
                report = bd.certify_case("i", gid("PSL", n, q))
                assert report.verdict == "certified", (n, q, report.total)

    def test_bounds_are_exact_rationals(self):
        report = bd.certify_case("i", gid("PSL", 5, 11))
        assert isinstance(report.s1_bound, Fraction)


class TestCaseIUnitary:
    def test_q2_frontier(self):
        for n in range(5, 31):
            v = bd.certify_case("i", gid("PSU", n, 2)).verdict
            if n == 5:
                assert v == "delegated-external"
            elif n in (6, 7, 8):
                assert v == "inconclusive", n
            else:
                assert v == "certified", n

    def test_n5_certified_from_q5(self):
        for q in (5, 7, 8, 9, 11, 16, 25):
            assert bd.certify_case("i", gid("PSU", 5, q)).verdict \
                == "certified"
        for q in (2, 3, 4):
            assert bd.certify_case("i", gid("PSU", 5, q)).verdict \
                == "delegated-external"


class TestCaseIOrthogonal:
    def test_certified_for_q_at_least_7(self):
        ids = []
        for q in (7, 9, 11, 13, 25, 27):
            ids += [gid("POmega", n, q) for n in range(7, 16, 2)]
        for q in (7, 8, 9, 11, 16, 25):
            ids += [gid("POmega+", n, q) for n in range(8, 17, 2)]
            ids += [gid("POmega-", n, q) for n in range(8, 17, 2)]
        for g, v in verdicts("i", ids).items():
            assert v == "certified", g

    def test_q2_delegated(self):
        assert bd.certify_case("i", gid("POmega+", 8, 2)).verdict \
            == "delegated-external"


class TestCaseIIUnitary:
    def test_q2_frontier(self):
        for n in range(5, 31):
            v = bd.certify_case("ii", gid("PSU", n, 2)).verdict
            if n == 5:
                assert v == "delegated-external"
            elif n in (6, 7, 8):
                assert v == "inconclusive", n
            else:
                assert v == "certified", n

    def test_large_q_certified(self):
        for q in (3, 4, 5, 7, 9, 16, 25):
            for n in (6, 7, 10, 15):
                assert bd.certify_case("ii", gid("PSU", n, q)).verdict \
                    == "certified", (n, q)


class TestCaseIIOrthogonal:
    def grid_q7(self):
        ids = [gid("POmega", n, 7) for n in range(7, 16, 2)]
        ids += [gid("POmega+", n, 7) for n in range(8, 17, 2)]
        ids += [gid("POmega-", n, 7) for n in range(8, 17, 2)]
        return ids

    def test_q7_frontier_before_refinement(self):
        flagged = [g for g in self.grid_q7()
                   if bd.s1_bound("ii", g) + bd.s2_bound("ii", g) >= 1]
        assert flagged == [gid("POmega", 7, 7), gid("POmega+", 8, 7)]

    def test_q7_certified_after_refinement(self):
        for g in (gid("POmega", 7, 7), gid("POmega+", 8, 7)):
            report = bd.certify_case("ii", g)
            assert report.verdict == "certified"
            assert report.refinements  # the residual-prime step was used
            assert "5, 19, 43" in report.s2_terms[0].label

    def test_q3_exceptions(self):
        flagged = []
        for n in range(7, 14):
            for fam in ("POmega", "POmega+", "POmega-"):
                try:
                    g = gid(fam, n, 3)
                except ValueError:
                    continue
                if bd.certify_case("ii", g).verdict != "certified":
                    flagged.append(g)
        assert set(flagged) == {
            gid("POmega", 7, 3), gid("POmega+", 8, 3),
            gid("POmega-", 8, 3), gid("POmega", 9, 3),
            gid("POmega+", 10, 3)}

    def test_q2_delegated(self):
        assert bd.certify_case("ii", gid("POmega+", 8, 2)).verdict \
            == "delegated-external"

    def test_q4_q5_certified(self):
        for g in (gid("POmega+", 8, 4), gid("POmega-", 8, 4),
                  gid("POmega+", 8, 5), gid("POmega", 7, 5)):
            assert bd.certify_case("ii", g).verdict == "certified", g


class TestCaseIV:
    def test_frontier(self):
        not_certified = []
        for q in (2, 3, 4, 5, 7, 8, 9):
            for n in range(7, 31):
                for fam in ("POmega", "POmega+", "POmega-"):
                    try:
                        g = gid(fam, n, q)
                    except ValueError:
                        continue
                    if bd.certify_case("iv", g).verdict != "certified":
                        not_certified.append(g)
        for g in not_certified:
            assert g.q == 2 or (g.n, g.q) == (7, 3), g
        assert gid("POmega", 7, 3) in not_certified
        assert all(bd.certify_case("iv", g).verdict
                   == "delegated-external"
                   for g in not_certified if g.q == 2)

    def test_8_3_certified(self):
        report = bd.certify_case("iv", gid("POmega+", 8, 3))
        assert report.verdict == "certified"
        assert 0.98 < report.total < 1  # tight but clears the guard band


class TestCaseVI:
    def test_certified_for_e_at_least_4(self):
        for q in (16, 32, 64, 128):
            for n in (6, 8, 10):
                assert bd.certify_case("vi", gid("PSp", n, q)).verdict \
                    == "certified", (n, q)

    def test_q8_certified_via_exact_omega(self):
        report = bd.certify_case("vi", gid("PSp", 6, 8))
        assert report.verdict == "certified"
        assert "omega(2e(q-1)) = 3" in report.s1_terms[0].label

    def test_q4_certified_by_prime_split(self):
        report = bd.certify_case("vi", gid("PSp", 6, 4))
        assert report.verdict == "certified"
        assert report.s1_bound == Fraction(7, 12)

    def test_q2_delegated(self):
        assert bd.certify_case("vi", gid("PSp", 6, 2)).verdict \
            == "delegated-external"

    def test_odd_q_rejected(self):
        with pytest.raises(ValueError):
            bd.certify_case("vi", gid("PSp", 6, 9))

    def test_ppd_count_bound_covers_exact_counts(self):
        for t in (2, 3, 4, 5, 8, 16):
            for ell in range(1, 25):
                if t**ell <= 10**20:
                    assert bd._ppd_count_bound(t, ell) \
                        >= nt.primitive_prime_divisor_count(t, ell), (t, ell)

    def test_fixed_free_term_past_the_factorization_cap(self):
        # q**(2m) = 8**44 > 2**128: the l = 2m count is bounded, not factored
        report = bd.certify_case("vi", gid("PSp", 44, 8))
        assert report.verdict == "certified"
        label = report.s2_terms[-1].label
        assert "at most" in label
        assert f"at most {bd._ppd_count_bound(8, 44)} " in label


class TestTailTerms:
    def test_window_entries_past_the_cap_join_the_log_tail(self):
        t = 10**16  # t**2 is within 2**128, t**3 is not
        terms = bd._tail_terms(t, Fraction(2), window=(2, 3))
        assert terms == bd._tail_terms(t, Fraction(2), window=(2,))
        assert terms[0].label == (f"exact ppd count at l=2: "
                                  f"{nt.primitive_prime_divisor_count(t, 2)}")


class TestCaseIII:
    def test_default_max_order_flags_dagger_members(self):
        for g in (gid("PSp", 6, 2), gid("POmega+", 8, 2),
                  gid("POmega", 7, 3)):
            assert bd.certify_case("iii", g).verdict == "inconclusive"

    def test_large_q_certified(self):
        for g in (gid("PSp", 6, 16), gid("POmega+", 10, 8),
                  gid("PSU", 6, 3)):
            assert bd.certify_case("iii", g).verdict == "certified", g

    def test_tables_sharpen_the_verdict(self):
        g = gid("PSp", 6, 2)
        tables = bd.load_external_tables(
            '{"PSp:6:2": {"max_order": 3}}')
        assert bd.certify_case("iii", g, tables).verdict == "certified"

    def test_rejects_psl(self):
        with pytest.raises(ValueError):
            bd.certify_case("iii", gid("PSL", 5, 2))


class TestTriality:
    def test_frontier(self):
        flagged = [q for q in range(2, 129) if nt.prime_power(q)
                   and bd.triality_bound(q).verdict != "certified"]
        assert flagged == [2, 4]

    def test_q4_is_exactly_one(self):
        report = bd.triality_bound(4)
        assert report.total == 1  # exact rational: strictly not < 1

    def test_rejects_non_prime_power(self):
        with pytest.raises(ValueError):
            bd.triality_bound(6)


class TestLine22:
    def test_examples(self):
        assert not bd.line22_contradiction(3, 2)
        assert not bd.line22_contradiction(3, 3)
        assert bd.line22_contradiction(4, 2)
        assert bd.line22_contradiction(5, 2)
        assert bd.line22_contradiction(4, 3)


TABLE_SMALL_DIM = (
    [("PSL", 2, q) for q in (5, 7, 8, 9, 11, 16, 19)]
    + [("PSL", 3, q) for q in (3, 4, 5)]
    + [("PSL", 4, q) for q in (2, 3, 4, 5, 8)]
    + [("PSU", 3, q) for q in (3, 4, 5)]
    + [("PSU", 4, q) for q in (2, 3, 4, 5, 8)]
    + [("PSp", 4, q) for q in (4, 5)]
)

TABLE_NONSUBSPACE = (
    [("PSL", 5, q) for q in (2, 3, 4)]
    + [("PSL", 6, q) for q in (2, 3, 4, 5, 7, 8, 9, 11)]
    + [("PSL", 7, 2), ("PSL", 8, 2), ("PSL", 8, 3), ("PSL", 10, 2)]
    + [("PSU", 6, 2), ("PSU", 6, 3)]
    + [("PSp", 6, q) for q in (2, 3, 4, 5, 7, 8, 9)]
    + [("PSp", 8, 2), ("PSp", 10, 2)]
    + [("POmega", 7, 3)]
    + [("POmega+", 8, 2), ("POmega+", 8, 3), ("POmega+", 10, 2)]
    + [("POmega-", 8, 2), ("POmega-", 8, 3), ("POmega-", 8, 4),
       ("POmega-", 10, 2)]
)

DAGGER = [("PSp", 6, 2), ("PSp", 8, 2), ("PSp", 6, 3),
          ("POmega+", 8, 2), ("POmega+", 10, 2), ("POmega+", 12, 2),
          ("POmega+", 8, 4), ("POmega+", 8, 3), ("POmega-", 8, 2),
          ("POmega", 7, 3)]


class TestScans:
    def test_small_dim_contains_known_exceptions(self):
        flagged = set(bd.small_dim_scan())
        for family, n, q in TABLE_SMALL_DIM:
            assert GroupId(family, n, q) in flagged, (family, n, q)

    def test_small_dim_certifies_somewhere(self):
        flagged = bd.small_dim_scan()
        # finite, deterministic, and does not flag e.g. PSL_3(16)
        assert flagged == bd.small_dim_scan()
        assert GroupId("PSL", 3, 16) not in flagged

    def test_nonsubspace_contains_known_exceptions(self):
        flagged = set(bd.nonsubspace_scan())
        for family, n, q in TABLE_NONSUBSPACE:
            assert GroupId(family, n, q) in flagged, (family, n, q)

    def test_nonsubspace_tables_shrink(self):
        tables = bd.load_external_tables(
            '{"PSL:6:11": {"min_degree": 1000000000, '
            '"iota_num": 0, "iota_den": 1}}')
        base = set(bd.nonsubspace_scan())
        shrunk = set(bd.nonsubspace_scan(tables))
        assert shrunk <= base
        assert GroupId("PSL", 6, 11) not in shrunk

    def test_dagger_contains_known_exceptions(self):
        flagged = set(bd.dagger_scan())
        for family, n, q in DAGGER:
            assert GroupId(family, n, q) in flagged, (family, n, q)
        assert GroupId("PSp", 6, 16) not in flagged


class TestReportSerialization:
    def test_json_shape(self):
        report = bd.certify_case("ii", gid("POmega", 7, 7))
        data = report.to_json_dict()
        assert data["schema"] == 1
        assert data["verdict"] == "certified"
        assert data["group"] == "POmega_7(7)"
        assert data["s1_terms"] and data["s2_terms"]
        assert data["total"] < 1

    def test_delegated_report(self):
        data = bd.certify_case("iv", gid("POmega+", 8, 2)).to_json_dict()
        assert data["verdict"] == "delegated-external"
        assert data["s1_terms"] == []
        assert data["note"]
