"""Acceptance suite: end-to-end checks of the guarantees this package
advertises, each backed by an independent oracle.

The tests here are deliberately redundant with the per-module suites:
they re-derive every headline number or verdict from scratch (brute-force
enumeration, closed-form counts, random sampling with fixed seeds) and
compare against the library's answers.
"""

import math
import random
from fractions import Fraction

import numpy as np
import pytest

from corpus import MAX_DEGREE, MAX_ORDER, corpus_groups
from regcycles import bounds as bd
from regcycles import geometry as geo
from regcycles import numtheory as nt
from regcycles import perm
from regcycles.bounds import GroupId
from regcycles.perm import Permutation, has_regular_cycle_direct
from regcycles.regcycle import (compare_actions_monotonic, fix_union_test,
                                verify_all_elements)
from test_bounds import DAGGER, TABLE_NONSUBSPACE, TABLE_SMALL_DIM

SEED = 20260823


# ---------------------------------------------------------------------------
# shared fixtures

@pytest.fixture(scope="module")
def corpus():
    return list(corpus_groups())


@pytest.fixture(scope="module")
def sp6():
    return geo.builtin_matrix_group("sp6_2")


@pytest.fixture(scope="module")
def o8p():
    return geo.builtin_matrix_group("o8p_2")


@pytest.fixture(scope="module")
def o73():
    return geo.builtin_matrix_group("o7_3")


@pytest.fixture(scope="module")
def su5():
    return geo.builtin_matrix_group("su5_2")


@pytest.fixture(scope="module")
def sp6_points(sp6):
    """Sp6(2) on the 63 projective points, with all elements enumerated."""
    space, gens = sp6
    G = geo.perm_image(gens, geo.singular_points(space))
    return G, G.element_array(2_000_000)


def sampled_perms(G, samples, seed=SEED):
    """Deterministic random-word sample of permutations of G."""
    arrs = [np.array(g.images) for g in G.generators]
    rng = random.Random(seed)
    cur = np.arange(G.degree)
    out = []
    for _ in range(samples):
        cur = arrs[rng.randrange(len(arrs))][cur]
        out.append(Permutation(cur.tolist()))
    return out


# ---------------------------------------------------------------------------
# 1. baseline: symmetric and alternating groups

class TestSymmetricAlternatingBaseline:
    def witness(self, m, cycles):
        images = list(range(m))
        for cyc in cycles:
            for a, b in zip(cyc, cyc[1:] + cyc[:1]):
                images[a] = b
        return Permutation(images)

    def test_symmetric_groups_have_nonregular_elements(self):
        for m in range(5, 11):
            g = self.witness(m, [(0, 1, 2), (3, 4)])
            assert not has_regular_cycle_direct(g)
            report = fix_union_test(g)
            assert not report.has_regular_cycle
            assert report.s_value >= 1  # the fixed sets cover the domain

    def test_alternating_witnesses(self):
        # {3, 2, 2, 1, ...} is an even element without a regular cycle
        for m in range(7, 11):
            g = self.witness(m, [(0, 1, 2), (3, 4), (5, 6)])
            assert not has_regular_cycle_direct(g)
            assert not fix_union_test(g).has_regular_cycle

    def test_smallest_alternating_groups_are_all_regular(self):
        for m in (5, 6):
            report = verify_all_elements(perm.alternating_group(m))
            assert report.all_regular


# ---------------------------------------------------------------------------
# 2. the covering test agrees with the direct test on a large corpus

class TestCorpusAgreement:
    def test_corpus_is_large_and_varied(self, corpus):
        names = [name for name, _ in corpus]
        assert len(corpus) >= 200
        assert len(set(names)) == len(names)
        assert any("wr" in name for name in names)
        assert any("product" in name for name in names)
        for name, G in corpus:
            assert G.degree <= MAX_DEGREE, name
            assert G.order(MAX_ORDER + 1) <= MAX_ORDER, name

    def test_fix_union_agrees_with_direct_everywhere(self, corpus):
        for name, G in corpus:
            for row in G.element_array(MAX_ORDER + 1):
                g = Permutation(row.tolist())
                report = fix_union_test(g)
                direct = has_regular_cycle_direct(g)
                assert report.has_regular_cycle == direct, (name, row)
                if not g.is_identity():
                    # the covering criterion, read from fixed sets alone
                    covered = report.fix_union_size == G.degree
                    assert covered == (not direct), (name, row)


# ---------------------------------------------------------------------------
# 3. restricting to square-free orders never changes the verdict

class TestSquareFreeReduction:
    def test_same_verdict_on_whole_corpus(self, corpus):
        for name, G in corpus:
            full = verify_all_elements(G, cap=MAX_ORDER + 1)
            reduced = verify_all_elements(G, cap=MAX_ORDER + 1,
                                          square_free_only=True)
            assert full.verdict == reduced.verdict, name
            assert reduced.checked <= full.checked


# ---------------------------------------------------------------------------
# 3b. one coset per stabilizer orbit stands for the whole group

def brute_force_verify(G, max_witnesses=5):
    """{square_free_only: (checked, verdict, witnesses)} from one scan of
    every row of the sorted enumeration, with its own cycle walk."""
    out = {sf: [0, 0, []] for sf in (False, True)}  # checked, failing, least
    for row in G.element_array(MAX_ORDER + 1).tolist():
        seen = [False] * len(row)
        lengths = []
        for start in range(len(row)):
            n, x = 0, start
            while not seen[x]:
                seen[x] = True
                x = row[x]
                n += 1
            if n:
                lengths.append(n)
        order = math.lcm(*lengths)
        square_free = all(order % (p * p) for p in range(2, order + 1))
        for sf in (False, True):
            if sf and not square_free:
                continue
            tally = out[sf]
            tally[0] += 1
            if order not in lengths:
                tally[1] += 1
                if len(tally[2]) < max_witnesses:
                    tally[2].append(tuple(row))
    return {sf: (checked, "failures" if failures else "all-regular",
                 tuple(witnesses))
            for sf, (checked, failures, witnesses) in out.items()}


class TestOrbitRepresentativeReduction:
    def test_matches_brute_force_scan_on_whole_corpus(self, corpus):
        late_base_with_failures = []
        for name, G in corpus:
            expected = brute_force_verify(G)
            for sf in (False, True):
                report = verify_all_elements(G, cap=MAX_ORDER + 1,
                                             square_free_only=sf)
                got = (report.checked, report.verdict,
                       tuple(w.images for w in report.witnesses))
                assert got == expected[sf], (name, sf)
            if (G.stabilizer_chain().base[0] > 0
                    and expected[False][1] == "failures"):
                late_base_with_failures.append(name)
        assert any(not G.is_transitive() for _, G in corpus)
        assert late_base_with_failures


# ---------------------------------------------------------------------------
# 4. geometric domain sizes match the closed-form counts

class TestGeometryCounts:
    def test_unitary_dim5_q2(self, su5):
        space, _ = su5
        q = 2
        assert geo.singular_points(space).degree \
            == (q**5 + 1) * (q**4 - 1) // (q**2 - 1) == 165
        assert geo.nondegenerate_points(space).degree \
            == (q**5 + 1) * q**4 // (q + 1) == 176

    def test_oplus8_q2(self, o8p):
        space, _ = o8p
        assert geo.singular_points(space).degree == 135
        assert geo.nondegenerate_points(space).degree == 120
        assert geo.anisotropic_2_subspaces(space).degree == 1120

    def test_o7_q3(self, o73):
        space, _ = o73
        assert geo.singular_points(space).degree == 364
        plus, minus = geo.nondegenerate_points(space)
        assert (plus.degree, minus.degree) == (378, 351)
        assert geo.anisotropic_2_subspaces(space).degree == 22113

    def test_ominus8_q2_anisotropic_planes(self):
        space = geo.standard_form("quadratic", 8, 2, "-")
        assert geo.anisotropic_2_subspaces(space).degree == 1632

    def test_sp6_q2_form_domains(self, sp6):
        space, _ = sp6
        plus = geo.quadratic_forms_polarizing(space, "+")
        minus = geo.quadratic_forms_polarizing(space, "-")
        assert (plus.degree, minus.degree) == (36, 28)
        assert plus.degree + minus.degree == 2**6


# ---------------------------------------------------------------------------
# 5. semisimple elements: fixed points, exact counts, ratio bounds

def mat_pow(K, m, k):
    out = geo.mat_identity(len(m))
    base = m
    while k:
        if k & 1:
            out = geo.mat_mul(K, out, base)
        k >>= 1
        if k:
            base = geo.mat_mul(K, base, base)
    return out


def semisimple_sample(space, gens, excluded_primes, want):
    """Distinct matrices of prime order r (r not excluded), found by
    powering random words down to prime order.  Deterministic."""
    K = space.field
    ident = geo.mat_identity(space.n)
    mats = [g.matrix for g in gens]
    rng = random.Random(SEED)
    found = {}
    cur = ident
    for _ in range(4000):
        cur = geo.mat_mul(K, cur, rng.choice(mats))
        order = geo.map_order(space, geo.SemilinearMap(cur), cap=10**5)
        for r in nt.factorize(order).primes():
            if r not in excluded_primes:
                m = mat_pow(K, cur, order // r)
                if m != ident and m not in found:
                    found[m] = r
        if len(found) >= want:
            return found
    raise AssertionError("not enough semisimple elements found")


def fixed_labels(dom, m):
    p = dom.permutation(geo.SemilinearMap(m))
    return [dom.labels[i] for i in range(dom.degree) if p.images[i] == i]


def check_fixed_set(space, dom, m, kernel):
    """Fixed labels are exactly the domain labels inside ker(m - 1)."""
    K = space.field
    fixed = fixed_labels(dom, m)
    for v in fixed:
        assert geo.vec_mat(K, v, m) == tuple(v)  # eigenvalue exactly 1
        assert kernel.contains(K, v)
    in_kernel = [v for v in dom.labels if kernel.contains(K, v)]
    assert sorted(fixed) == sorted(in_kernel)
    return len(fixed)


def singular_count(q, d):
    """Possible numbers of singular points of a non-degenerate quadratic
    form on a d-dimensional space over GF(q) (both types when d is even)."""
    if d % 2:
        return {(q**(d - 1) - 1) // (q - 1)}
    h = d // 2
    return {(q**h - e) * (q**(h - 1) + e) // (q - 1) for e in (1, -1)}


class TestSemisimpleFixedPoints:
    def test_linear(self):
        field = geo.field_build(2, 1)
        space = geo.standard_form("trivial", 5, 2)
        gens = geo.sl_generators(5, field)
        dom = geo.singular_points(space)
        gid = GroupId("PSL", 5, 2)
        sample = semisimple_sample(space, gens, {2}, 6)
        for m in sample:
            kernel, _, ellp = geo.semisimple_decomposition(
                geo.SemilinearMap(m), space)
            count = check_fixed_set(space, dom, m, kernel)
            assert count == 2**(5 - ellp) - 1
            assert Fraction(count, dom.degree) \
                <= bd.fprell_bound("i", gid, ellp)

    def test_unitary(self, su5):
        space, gens = su5
        q, n = space.q, space.n
        dom_i = geo.singular_points(space)
        dom_ii = geo.nondegenerate_points(space)
        gid = GroupId("PSU", 5, 2)
        sample = semisimple_sample(space, gens, {2, 3}, 7)
        seen = set()
        for m in sample:
            kernel, _, ellp = geo.semisimple_decomposition(
                geo.SemilinearMap(m), space)
            seen.add(ellp)
            d = n - ellp
            count = check_fixed_set(space, dom_i, m, kernel)
            assert count == (q**d - (-1)**d) \
                * (q**(d - 1) - (-1)**(d - 1)) // (q * q - 1)
            assert Fraction(count, dom_i.degree) \
                <= bd.fprell_bound("i", gid, ellp)
            count = check_fixed_set(space, dom_ii, m, kernel)
            assert count == q**(d - 1) * (q**d - (-1)**d) // (q + 1)
            assert Fraction(count, dom_ii.degree) \
                <= bd.fprell_bound("ii", gid, ellp)
        assert len(seen) >= 2  # several distinct commutator dimensions

    @pytest.mark.parametrize("name,family,n,q,excluded", [
        ("o7_3", "POmega", 7, 3, frozenset({2, 3})),
        ("o8p_2", "POmega+", 8, 2, frozenset({2})),
    ])
    def test_orthogonal(self, name, family, n, q, excluded):
        space, gens = geo.builtin_matrix_group(name)
        gid = GroupId(family, n, q)
        dom_i = geo.singular_points(space)
        nd = geo.nondegenerate_points(space)
        doms_ii = list(nd) if isinstance(nd, tuple) else [nd]
        sample = semisimple_sample(space, gens, excluded, 7)
        for m in sample:
            kernel, _, ellp = geo.semisimple_decomposition(
                geo.SemilinearMap(m), space)
            d = n - ellp
            count = check_fixed_set(space, dom_i, m, kernel)
            assert count in singular_count(q, d)
            assert Fraction(count, dom_i.degree) \
                <= bd.fprell_bound("i", gid, ellp)
            total = 0
            for dom in doms_ii:
                part = check_fixed_set(space, dom, m, kernel)
                total += part
                assert Fraction(part, dom.degree) \
                    <= bd.fprell_bound("ii", gid, ellp), (name, ellp)
            # the orbit totals exhaust the non-singular kernel points
            assert total == (q**d - 1) // (q - 1) - count


# ---------------------------------------------------------------------------
# 6. odd-order elements of Sp6(2) on the two quadratic-form domains

class TestSymplecticFormDomains:
    def test_every_odd_order_element_meets_the_bounds(self, sp6,
                                                      sp6_points):
        space, _ = sp6
        G, arr = sp6_points
        dom = geo.singular_points(space)

        # odd order <=> the 2835-th power (the odd part of the exponent
        # of Sp6(2)) is the identity
        ident = np.arange(63, dtype=arr.dtype)
        res = np.tile(ident, (len(arr), 1))
        base = arr
        k = 2835
        while k:
            if k & 1:
                res = np.take_along_axis(base, res, axis=1)
            k >>= 1
            if k:
                base = np.take_along_axis(base, base, axis=1)
        odd = (res == ident).all(axis=1)
        rows = arr[odd]
        assert len(rows) == 530145

        # value table of each quadratic form on the 63 nonzero vectors
        def masks(form_dom):
            return np.array(
                [[geo._polarized_quad_value(space, diag, v)
                  for v in dom.labels] for diag in form_dom.labels],
                dtype=np.uint8)

        mask_plus = masks(geo.quadratic_forms_polarizing(space, "+"))
        mask_minus = masks(geo.quadratic_forms_polarizing(space, "-"))
        seen_c = set()
        for p in rows:
            # fixed vectors form the eigenspace, of size 2**c
            nfixed = int((p == ident).sum()) + 1
            c = nfixed.bit_length() - 1
            assert 2**c == nfixed
            seen_c.add(c)
            fixed_plus = int((mask_plus[:, p] == mask_plus).all(axis=1)
                             .sum())
            fixed_minus = int((mask_minus[:, p] == mask_minus).all(axis=1)
                              .sum())
            assert Fraction(fixed_plus, 36) <= Fraction(2**c, 16)
            if c > 0:
                assert Fraction(fixed_minus, 28) <= Fraction(2**c, 16)
            else:
                assert Fraction(fixed_minus, 28) <= Fraction(1, 14)
        assert 0 in seen_c and 6 in seen_c


# ---------------------------------------------------------------------------
# 7. certification verdict frontiers

class TestCertificationFrontiers:
    def test_linear_certified_from_q11(self):
        for n in (5, 13, 34, 50):
            for q in (11, 16, 27, 101, 1024, 9973):
                assert bd.certify_case("i", GroupId("PSL", n, q)).verdict \
                    == "certified", (n, q)

    def test_unitary_q2_frontiers(self):
        for case in ("i", "ii"):
            for n in range(5, 31):
                v = bd.certify_case(case, GroupId("PSU", n, 2)).verdict
                if n == 5:
                    assert v == "delegated-external"
                elif n in (6, 7, 8):
                    assert v == "inconclusive", (case, n)
                else:
                    assert v == "certified", (case, n)

    def test_orthogonal_points_certified_from_q7(self):
        for q in (7, 8, 9, 11, 25):
            for fam, ns in (("POmega", range(7, 16, 2)),
                            ("POmega+", range(8, 17, 2)),
                            ("POmega-", range(8, 17, 2))):
                for n in ns:
                    try:
                        g = GroupId(fam, n, q)
                    except ValueError:
                        continue
                    assert bd.certify_case("i", g).verdict == "certified", g

    def test_orthogonal_q3_exceptions(self):
        flagged = set()
        for n in range(7, 14):
            for fam in ("POmega", "POmega+", "POmega-"):
                try:
                    g = GroupId(fam, n, 3)
                except ValueError:
                    continue
                if bd.certify_case("ii", g).verdict != "certified":
                    flagged.add(g)
        assert flagged == {GroupId("POmega", 7, 3),
                           GroupId("POmega+", 8, 3),
                           GroupId("POmega-", 8, 3),
                           GroupId("POmega", 9, 3),
                           GroupId("POmega+", 10, 3)}

    def test_orthogonal_q7_needs_refinement(self):
        # before the residual-prime refinement exactly two groups exceed 1
        over = []
        for fam, ns in (("POmega", range(7, 16, 2)),
                        ("POmega+", range(8, 17, 2)),
                        ("POmega-", range(8, 17, 2))):
            for n in ns:
                g = GroupId(fam, n, 7)
                if bd.s1_bound("ii", g) + bd.s2_bound("ii", g) >= 1:
                    over.append(g)
        assert over == [GroupId("POmega", 7, 7), GroupId("POmega+", 8, 7)]
        for g in over:
            report = bd.certify_case("ii", g)
            assert report.verdict == "certified"
            assert report.refinements

    def test_anisotropic_plane_frontier(self):
        not_certified = []
        for q in (2, 3, 4, 5, 7, 8, 9):
            for n in range(7, 31):
                for fam in ("POmega", "POmega+", "POmega-"):
                    try:
                        g = GroupId(fam, n, q)
                    except ValueError:
                        continue
                    if bd.certify_case("iv", g).verdict != "certified":
                        not_certified.append(g)
        assert all(g.q == 2 or (g.n, g.q) == (7, 3)
                   for g in not_certified)
        assert GroupId("POmega", 7, 3) in not_certified
        assert bd.certify_case("iv", GroupId("POmega+", 8, 2)).verdict \
            == "delegated-external"

    def test_even_symplectic_frontier(self):
        for q in (4, 8, 16, 64):
            assert bd.certify_case("vi", GroupId("PSp", 6, q)).verdict \
                == "certified", q
        assert bd.certify_case("vi", GroupId("PSp", 6, 2)).verdict \
            == "delegated-external"

    def test_triality_frontier(self):
        flagged = [q for q in range(2, 129) if nt.prime_power(q)
                   and bd.triality_bound(q).verdict != "certified"]
        assert flagged == [2, 4]
        assert bd.triality_bound(4).total == 1  # exactly 1: not certified


# ---------------------------------------------------------------------------
# 8. the scans contain every known exception

class TestScanCoverage:
    def test_small_dimension_scan(self):
        flagged = set(bd.small_dim_scan())
        for family, n, q in TABLE_SMALL_DIM:
            assert GroupId(family, n, q) in flagged, (family, n, q)

    def test_nonsubspace_scan(self):
        flagged = set(bd.nonsubspace_scan())
        for family, n, q in TABLE_NONSUBSPACE:
            assert GroupId(family, n, q) in flagged, (family, n, q)

    def test_maximal_totally_singular_scan(self):
        flagged = set(bd.dagger_scan())
        for family, n, q in DAGGER:
            assert GroupId(family, n, q) in flagged, (family, n, q)

    def test_scans_are_deterministic(self):
        assert bd.small_dim_scan() == bd.small_dim_scan()
        assert bd.dagger_scan() == bd.dagger_scan()


# ---------------------------------------------------------------------------
# 9. soundness: certified or externally delegated verdicts survive direct
#    verification wherever the action is small enough to enumerate

REALIZED_INSTANCES = (
    ("i", ("PSU", 5, 2), "su5_2"),
    ("ii", ("PSU", 5, 2), "su5_2"),
    ("iii", ("PSU", 5, 2), "su5_2"),
    ("i", ("POmega", 7, 3), "o7_3"),
    ("ii", ("POmega", 7, 3), "o7_3"),
    ("i", ("POmega+", 8, 2), "o8p_2"),
    ("ii", ("POmega+", 8, 2), "o8p_2"),
    ("iii", ("PSp", 6, 2), "sp6_2"),
    ("vi", ("PSp", 6, 2), "sp6_2"),
)

ENUM_CAP = 2_000_000


def case_domains(case, space):
    if case == "i":
        return [geo.singular_points(space)]
    if case == "ii":
        nd = geo.nondegenerate_points(space)
        return list(nd) if isinstance(nd, tuple) else [nd]
    if case == "iii":
        return [geo.maximal_totally_singular(space)]
    if case == "vi":
        return [geo.quadratic_forms_polarizing(space, "+"),
                geo.quadratic_forms_polarizing(space, "-")]
    raise ValueError(case)


class TestCertifiedActionsSound:
    def test_certified_instances_verify(self):
        skipped = []
        for case, key, name in REALIZED_INSTANCES:
            g = GroupId(*key)
            report = bd.certify_case(case, g)
            assert report.verdict in ("certified", "inconclusive",
                                      "delegated-external")
            if report.verdict != "certified":
                continue
            if bd.group_order(g) > ENUM_CAP:
                skipped.append((case, g))
                continue
            space, gens = geo.builtin_matrix_group(name)
            for dom in case_domains(case, space):
                G = geo.perm_image(gens, dom)
                assert verify_all_elements(G, cap=ENUM_CAP).all_regular, \
                    (case, g, dom.name)
        # at this scale every realized instance is one of the bound's
        # delegated or inconclusive cases, so nothing may have been
        # silently skipped after certification
        assert skipped == []

    def test_delegated_symplectic_instance_is_all_regular(self, sp6_points):
        # the q=2 symplectic form-domain verdict is delegated; the
        # underlying point action checks out exhaustively
        G, _ = sp6_points
        report = verify_all_elements(G, cap=ENUM_CAP)
        assert report.all_regular
        assert report.checked == 1451520

    def test_sampled_actions_have_regular_cycles(self, su5, o8p):
        # too large to enumerate: sample random words instead
        for (space, gens), builder in (
                (su5, geo.maximal_totally_singular),
                (o8p, geo.singular_points)):
            G = geo.perm_image(gens, builder(space))
            for g in sampled_perms(G, 10**4):
                assert has_regular_cycle_direct(g)


# ---------------------------------------------------------------------------
# 10. regular-cycle counts are monotone from points to non-degenerate
#     2-subspaces (sampled)

class TestFixedPointRatioMonotonicity:
    @pytest.mark.parametrize("name", ["sp6_2", "o8p_2"])
    def test_point_action_below_nondegenerate_2_subspaces(self, name):
        space, gens = geo.builtin_matrix_group(name)
        G1 = geo.perm_image(gens, geo.singular_points(space))
        G2 = geo.perm_image(gens, geo.nondegenerate_2_subspaces(space))
        report = compare_actions_monotonic(G1, G2, samples=10**4,
                                           seed=1729)
        assert report.monotone, report.violations[:3]
        assert report.samples == 10**4


# ---------------------------------------------------------------------------
# 11. totally singular complements and the point/hyperplane pair action

class TestTotallySingularComplements:
    @pytest.mark.parametrize("q,expect", [(2, 8), (3, 27)])
    def test_complement_count(self, q, expect):
        space = geo.standard_form("quadratic", 6, q, "+")
        dom = geo.maximal_totally_singular(space)
        fixed = dom.labels[0]
        count = sum(
            1 for other in dom.labels
            if geo.subspace_intersection_dim(space.field, fixed,
                                             other) == 0)
        assert count == expect == q**3  # q^(m(m-1)/2) with m = 3

    def test_duality_extended_pair_action_is_all_regular_sampled(self):
        space = geo.standard_form("trivial", 5, 2)
        gens = geo.sl_generators(5, space.field) + [geo.duality_map(space)]
        _, perp = geo.pair_domains(space, 1)
        G = geo.perm_image(gens, perp)
        assert G.degree == 496
        for g in sampled_perms(G, 10**4, seed=1729):
            assert has_regular_cycle_direct(g)


# ---------------------------------------------------------------------------
# 12. arithmetic invariants backing the bounds

class TestArithmeticInvariants:
    def test_factorization_round_trip(self):
        for n in list(range(2, 3000)) + [2**31 - 1, 10**12 + 39,
                                         2**5 * 3**4 * 5**3 * 7**2]:
            fact = nt.factorize(n)
            prod = 1
            for p, e in fact:
                assert nt.is_prime(p)
                prod *= p**e
            assert prod == n == fact.value

    def test_prime_count_bound(self):
        # omega(n) <= robin_bound(n) for 26 <= n <= 10**6, with omega
        # computed independently via a smallest-prime-factor sieve
        limit = 10**6
        spf = np.zeros(limit + 1, dtype=np.int32)
        for p in range(2, limit + 1):
            if spf[p] == 0:
                spf[p::p][spf[p::p] == 0] = p
        for n in range(26, limit + 1):
            count = 0
            rest = n
            while rest > 1:
                p = spf[rest]
                count += 1
                while rest % p == 0:
                    rest //= p
            assert count <= nt.robin_bound(n), n

    def test_primitive_prime_divisor_counts(self):
        for q in (2, 3, 4, 5, 7, 9):
            for ell in range(2, 9):
                direct = sum(
                    1 for r in nt.factorize(q**ell - 1).primes()
                    if all((q**j - 1) % r for j in range(1, ell)))
                assert nt.primitive_prime_divisor_count(q, ell) == direct

    def test_weighted_geometric_sum_closed_form(self):
        for q in (2, 3, 4, 9, 16, 101):
            x = Fraction(1, q)
            # sum_{l>=0} l x**l = x / (1 - x)**2
            assert nt.weighted_geometric_sum(q) == x / (1 - x)**2
            # and the partial sums approach it from below
            partial = sum(Fraction(ell, q**ell) for ell in range(1, 40))
            assert partial < nt.weighted_geometric_sum(q)
            assert nt.weighted_geometric_sum(q) - partial \
                < Fraction(1, q**30)
