"""Oracle and frontier tests for the certification bounds.

Group orders are checked against hand-computed values (and, for the
desk-scale groups, against the exhaustive enumerations in the geometry
tests).  The verdict frontiers pin down exactly which parameters each
pipeline can and cannot certify.
"""

import functools
import json
from collections import Counter
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from bounds_reference import omega_size
from regcycles import bounds as bd
from regcycles import numtheory as nt
from regcycles.bounds import GroupId
from regcycles.cli import main
from test_certify_pool import load_pool_module


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

    def test_q_to_the_n_cap_is_exact(self):
        # 2**4096 is the largest q**n allowed, and 3**2584 < 2**4096 < 3**2585
        assert bd.QN_CAP_BITS == 4096
        GroupId("PSL", 4096, 2)
        GroupId("PSL", 2584, 3)
        for family, n, q in [("PSL", 4097, 2), ("PSL", 2585, 3),
                             ("PSU", 33, 2**127 - 1)]:
            with pytest.raises(OverflowError,
                               match=r"exceeds the cap 2\*\*4096"):
                GroupId(family, n, q)

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
        assert bd.group_prime_set(gid("PSp", 6, 2)) == bd.PrimeSet(
            frozenset({2, 3, 5, 7}), 0)
        # 7**6 - 1 = 2**4 * 3**2 * 19 * 43 brings in the residual primes
        assert bd.group_prime_set(gid("POmega", 7, 7)) == bd.PrimeSet(
            frozenset({2, 3, 5, 7, 19, 43}), 0)

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
                assert a >= bd.aut_prime_set(g).count, (family, n, q)


    def test_p_prime_part_is_read_off_the_order_factors(self, monkeypatch):
        # a_nq takes |Aut|_p' as prod(pieces) / d times |Out|_p'; for every
        # group the three scans visit it is the p'-part of |Aut| itself
        seen, post_init = [], GroupId.__post_init__

        def recorded(self):
            post_init(self)
            seen.append(self)

        monkeypatch.setattr(GroupId, "__post_init__", recorded)
        bd.small_dim_scan()
        bd.nonsubspace_scan()
        bd.dagger_scan()
        parts, robin_bound = [], nt.robin_bound

        def read(part):
            parts.append(part)
            return robin_bound(part)

        monkeypatch.setattr(nt, "robin_bound", read)
        for g in seen:
            try:
                bd.a_nq(g)
            except ValueError:
                continue  # excluded, or A' < 26
            assert parts.pop() == bd.p_prime_part(bd.aut_order(g), g.p), g
        assert len(seen) > 700


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
        assert omega_size("i", gid("PSL", 5, 2)) == 31
        assert omega_size("i", gid("PSp", 6, 2)) == 63
        assert omega_size("i", gid("PSU", 5, 2)) == 165
        assert omega_size("i", gid("POmega", 7, 3)) == 364
        assert omega_size("i", gid("POmega+", 8, 2)) == 135
        assert omega_size("i", gid("POmega-", 8, 2)) == 119

    def test_nondegenerate_points(self):
        assert omega_size("ii", gid("PSU", 5, 2)) == 176
        assert omega_size("ii", gid("POmega+", 8, 2)) == 120
        assert omega_size("ii", gid("POmega-", 8, 2)) == 136
        # odd q: both square classes together
        assert omega_size("ii", gid("POmega", 7, 3)) == 378 + 351

    def test_anisotropic_2_subspaces(self):
        assert omega_size("iv", gid("POmega+", 8, 2)) == 1120
        assert omega_size("iv", gid("POmega-", 8, 2)) == 1632
        assert omega_size("iv", gid("POmega", 7, 3)) == 22113

    def test_polarizing_forms(self):
        assert omega_size("vi", gid("PSp", 6, 2)) == (36, 28)
        assert omega_size("vi", gid("PSp", 4, 2)) == (10, 6)

    def test_rejects_wrong_family(self):
        with pytest.raises(ValueError):
            omega_size("iv", gid("PSU", 5, 2))
        with pytest.raises(ValueError):
            omega_size("vi", gid("PSp", 6, 3))


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

    def test_generic(self):
        assert bd.generic_fpr_bound(5) == Fraction(4, 15)


class TestCertifyReadsTheTestedRatios:
    """certify takes its fixed-point ratios from the functions the
    acceptance tests check on real groups: doubling them doubles S2."""

    @pytest.mark.parametrize("case, g", [
        ("i", gid("PSL", 5, 4)), ("i", gid("POmega", 9, 5)),
        ("ii", gid("PSU", 6, 4)), ("ii", gid("POmega-", 8, 11)),
        ("vi", gid("PSp", 6, 4)), ("vi", gid("PSp", 8, 16))])
    def test_doubled_ratios_double_s2(self, monkeypatch, case, g):
        before = bd.certify_case(case, g)
        assert before.verdict == "certified"
        for name in ("fprell_bound", "casevi_fpr_bound"):
            ratio = getattr(bd, name)
            monkeypatch.setattr(bd, name, lambda *args, ratio=ratio:
                                2 * ratio(*args))
        assert bd.certify_case(case, g).s2_bound == 2 * before.s2_bound

    def test_fixed_point_free_label_names_the_excess(self):
        term = bd.certify_case("vi", gid("PSp", 6, 4)).s2_terms[-1]
        assert term.label == ("fixed-point-free classes (l = 2m): 1 times "
                              "the excess 4/(q^m(q^m-1)) - 4/q^(2m) over "
                              "the log tail")
        assert term.value == 1 * (Fraction(4, 4**3 * 63) - Fraction(4, 4**6))


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


def exact_grid_reports():
    """Non-delegated reports of every case on both sides of q = 16."""
    reports = []
    for q in (3, 4, 5, 7, 8, 9, 11, 16, 17, 25, 27, 32, 49, 81, 125):
        reports.append(bd.certify_case("ii", gid("PSU", 6, q)))
        reports.append(bd.certify_case("iii", gid("PSU", 6, q)))
        reports.append(bd.triality_bound(q))
        for n in (7, 9):
            if q % 2:
                reports.append(bd.certify_case("iv", gid("POmega", n, q)))
                reports.append(bd.certify_case("ii", gid("POmega", n, q)))
        for n in (8, 10):
            reports.append(bd.certify_case("iv", gid("POmega+", n, q)))
            reports.append(bd.certify_case("i", gid("POmega-", n, q)))
            reports.append(bd.certify_case("iii", gid("POmega-", n, q)))
        if q >= 5:
            reports.append(bd.certify_case("i", gid("PSU", 5, q)))
            reports.append(bd.certify_case("iii", gid("PSU", 5, q)))
        reports.append(bd.certify_case("i", gid("PSL", 5, q)))
        reports.append(bd.certify_case("i", gid("PSU", 7, q)))
        if q % 2 == 0:
            reports.append(bd.certify_case("vi", gid("PSp", 8, q)))
    return reports


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
        # every case, at q <= 16 (exact omega fronts) and q > 16 (log2
        # fronts), case iv at odd n (half-integer powers) and even n
        for report in exact_grid_reports():
            assert report.verdict != "delegated-external", report.group
            terms = report.s1_terms + report.s2_terms
            assert terms
            for t in terms:
                assert type(t.value) is Fraction, (report.group, t.label)
            assert type(report.total) is Fraction


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
        # the refinement runs only where the unrefined total is >= 1, so
        # these are the groups that used it or are still not certified
        flagged = [g for g in self.grid_q7()
                   if (r := bd.certify_case("ii", g)).refinements
                   or r.verdict != "certified"]
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
        assert 0.98 < report.total < 1  # tight: margin about 0.0065


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


class TestHalfPowers:
    @given(st.integers(min_value=2, max_value=10**6),
           st.integers(min_value=1, max_value=40))
    @settings(max_examples=200)
    def test_inverse_sqrt_bound_squared_covers(self, q, k):
        bound = bd._inverse_sqrt_upper(q**k)
        assert bound**2 >= Fraction(1, q**k)
        if k % 2 == 0:
            assert bound == Fraction(1, q**(k // 2))


class TestUnsplitCofactors:
    """A cofactor factorize leaves unsplit counts as at most
    floor(log_1000(m)) primes, and its label says so."""

    N = 1009 * 1013  # both primes just past the trial-division table

    def test_omega_label(self, monkeypatch):
        assert bd._omega(nt.factorize(self.N), "omega(x)") == \
            (2, "exact omega(x) = 2")
        monkeypatch.setattr(nt, "RHO_BUDGET", 0)
        assert bd._omega(nt.factorize(self.N), "omega(x)") == \
            (2, "omega(x) at most 2")

    def test_prime_set(self, monkeypatch):
        monkeypatch.setattr(nt, "RHO_BUDGET", 0)
        primes = bd._prime_set([2 * self.N, 12])
        assert primes == bd.PrimeSet(frozenset({2, 3}), 2)
        assert primes.count == 4

    def test_tail_label(self, monkeypatch):
        monkeypatch.setattr(nt, "RHO_BUDGET", 0)
        # q = 4N - 1 is prime, and Phi_2(q) = q + 1 = 4N: its primitive
        # prime divisors are those of N
        q = 4 * self.N - 1
        g = gid("PSL", 5, q)
        ratio = functools.partial(bd.fprell_bound, "i", g)
        term = bd._tail_terms(g, ratio, window=(2,))[0]
        assert term.label == "ppd count at l=2: at most 2"
        assert term.value == Fraction(2, q**2)

    def test_certificate_from_bounded_counts(self, monkeypatch):
        g = gid("POmega", 7, 1400527)
        exact = bd.certify_case("i", g)
        monkeypatch.setattr(nt, "RHO_BUDGET", 0)
        bounded = bd.certify_case("i", g)
        assert bounded.verdict == exact.verdict == "certified"
        labels = [term.label for term in bounded.s2_terms]
        assert labels[2:5] == ["ppd count at l=4: at most 4",
                               "ppd count at l=5: at most 8",
                               "ppd count at l=6: at most 4"]
        for b, e in zip(bounded.s2_terms, exact.s2_terms):
            assert b.value >= e.value


class TestTailTerms:
    def test_window_entries_past_the_cap_join_the_log_tail(self):
        t = 2**50  # t**2 is within 2**128, t**3 is not
        g = gid("PSL", 5, t)
        ratio = functools.partial(bd.fprell_bound, "i", g)
        terms = bd._tail_terms(g, ratio, window=(2, 3))
        assert terms == bd._tail_terms(g, ratio, window=(2,))
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

# every group the dagger scan flags, in its output order
DAGGER_ALL = (
    [("PSp", 6, q) for q in (2, 3, 4)] + [("PSp", 8, 2), ("PSp", 10, 2)]
    + [("POmega", 7, 3)]
    + [("POmega+", 8, q) for q in (2, 3, 4, 5)]
    + [("POmega+", 10, 2), ("POmega+", 12, 2)]
    + [("POmega-", 8, 2), ("POmega-", 10, 2)]
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

    def test_nonsubspace_ignores_a_bare_fraction_key(self):
        # only the _num/_den pair is read: PSL_5(25) is visited and kept
        # unflagged, and amended_fpr_num = amended_fpr_den = 1 flags it
        g = GroupId("PSL", 5, 25)
        bare = bd.load_external_tables(
            '{"PSL:5:25": {"amended_fpr": 1, "iota": 0.5}}')
        pair = bd.load_external_tables(
            '{"PSL:5:25": {"amended_fpr_num": 1, "amended_fpr_den": 1}}')
        assert g not in bd.nonsubspace_scan()
        assert bd.nonsubspace_scan(bare) == bd.nonsubspace_scan()
        assert g in bd.nonsubspace_scan(pair)

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

    def test_dagger_flags_exactly(self):
        assert bd.dagger_scan() == [GroupId(*g) for g in DAGGER_ALL]

    def test_each_q_is_factored_once(self, monkeypatch):
        # prime_power runs only inside GroupId, once per group the scans and
        # the triality bound build
        calls = {"prime_power": 0, "GroupId": 0}
        prime_power, post_init = nt.prime_power, GroupId.__post_init__

        def counted_prime_power(q):
            calls["prime_power"] += 1
            return prime_power(q)

        def counted_post_init(self):
            calls["GroupId"] += 1
            post_init(self)

        monkeypatch.setattr(nt, "prime_power", counted_prime_power)
        monkeypatch.setattr(GroupId, "__post_init__", counted_post_init)
        bd.small_dim_scan()
        bd.nonsubspace_scan()
        bd.dagger_scan()
        bd.triality_bound(3)
        assert calls["prime_power"] == calls["GroupId"] > 0

    def test_dagger_is_case_iii_not_certified(self):
        tables = bd.load_external_tables('{"PSp:6:2": {"max_order": 3}}')
        flagged = bd.dagger_scan(tables)
        assert GroupId("PSp", 6, 2) not in flagged
        assert flagged == [GroupId(*g) for g in DAGGER_ALL[1:]]


class TestExternalTables:
    @pytest.mark.parametrize("text", [
        '[1]',
        '{"PSp:6:2": 5}',
        '{"PSp:6:2": {"max_order": "abc"}}',
        '{"PSp:6:2": {"max_order": 2.5}}',
        '{"PSp:6:2": {"max_order": 0}}',
        '{"PSp:6:2": {"max_order": true}}',
        '{"PSL:6:11": {"min_degree": -3}}',
        '{"PSL:6:11": {"iota_num": 1, "iota_den": 0}}',
        '{"PSL:6:11": {"iota_num": 1}}',
        '{"PSL:6:11": {"iota_den": 4}}',
        '{"PSL:6:11": {"iota_num": 0.5, "iota_den": 2}}',
        '{"PSL:6:11": {"amended_fpr_num": 1, "amended_fpr_den": false}}',
        pytest.param('{"a":' * 100000 + '1' + '}' * 100000,
                     id="deep-nesting"),
    ])
    def test_rejects_malformed(self, text):
        with pytest.raises(ValueError):
            bd.load_external_tables(text)

    def test_accepts_well_formed(self):
        tables = bd.load_external_tables(
            '{"PSL:6:11": {"min_degree": 100, "iota_num": -1, '
            '"iota_den": 4, "amended_fpr_num": 1, "amended_fpr_den": 9}, '
            '"PSp:6:2": {"max_order": 15}}')
        assert tables.get(gid("PSL", 6, 11), "iota") == Fraction(-1, 4)
        assert tables.get(gid("PSL", 6, 11), "amended_fpr") == Fraction(1, 9)
        assert tables.get(gid("PSp", 6, 2), "max_order") == 15

    def test_a_pair_never_stands_in_for_an_integer_field(self):
        tables = bd.load_external_tables(
            '{"PSp:6:2": {"max_order_num": 1, "max_order_den": 2}}')
        assert tables.get(gid("PSp", 6, 2), "max_order") is None


class TestReportSerialization:
    def test_json_shape(self):
        report = bd.certify_case("ii", gid("POmega", 7, 7))
        data = report.to_json_dict()
        assert data["schema"] == 2
        assert data["verdict"] == "certified"
        assert data["group"] == "POmega_7(7)"
        assert data["s1_terms"] and data["s2_terms"]
        assert data["total"] < 1

    def test_exact_total_decides_the_verdict(self):
        reports = exact_grid_reports()
        assert {r.verdict for r in reports} == {"certified", "inconclusive"}
        for report in reports:
            data = json.loads(json.dumps(report.to_json_dict()))
            total = Fraction(data["total_num"], data["total_den"])
            assert total == report.total
            assert (total < 1) == (data["verdict"] == "certified"), \
                report.group
            assert all("exact" not in t
                       for t in data["s1_terms"] + data["s2_terms"])

    def test_delegated_report(self):
        data = bd.certify_case("iv", gid("POmega+", 8, 2)).to_json_dict()
        assert data["verdict"] == "delegated-external"
        assert data["s1_terms"] == []
        assert data["note"]


class TestDerivedVerdict:
    def report(self, *values):
        terms = [bd.BoundTerm(f"term {i}", v) for i, v in enumerate(values)]
        return bd.BoundReport("i", gid("PSL", 5, 11), terms[:1], terms[1:])

    def test_total_below_one_is_certified(self):
        report = self.report(Fraction(1, 2), Fraction(1, 3))
        assert (report.s1_bound, report.s2_bound) == (Fraction(1, 2),
                                                      Fraction(1, 3))
        assert report.total == Fraction(5, 6)
        assert report.verdict == "certified"

    @pytest.mark.parametrize("second", [Fraction(1, 2), Fraction(2, 3)])
    def test_total_of_at_least_one_is_inconclusive(self, second):
        report = self.report(Fraction(1, 2), second)
        assert report.total >= 1
        assert report.verdict == "inconclusive"

    def test_no_caller_states_a_verdict(self):
        with pytest.raises(TypeError):
            bd.BoundReport("i", gid("PSL", 5, 11), (), (),
                           verdict="certified")
        report = self.report(Fraction(2))
        with pytest.raises(AttributeError):
            report.verdict = "certified"

    def test_delegation_is_the_one_stated_verdict(self):
        report = bd.BoundReport("iv", gid("POmega+", 8, 2), (), (),
                                delegated=True)
        assert report.total == 0
        assert report.verdict == "delegated-external"

    def test_every_pool_verdict_is_its_exact_total(self, capsys):
        pool = load_pool_module()
        verdicts = Counter()
        for entry in pool.load():
            code = main(pool.argv(entry))
            data = json.loads(capsys.readouterr().out)
            verdict = data["verdict"]
            verdicts[verdict] += 1
            if verdict != "delegated-external":
                below = data["total_num"] < data["total_den"]
                assert (verdict == "certified") == below, entry
            assert code == (0 if verdict == "certified" else 1)
        assert verdicts == {"certified": 896, "inconclusive": 14,
                            "delegated-external": 22}
