"""Oracle tests for fields, forms, domains, and matrix-group plumbing."""

import itertools

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from regcycles import geometry as ge
from regcycles import numtheory as nt
from regcycles.geometry import (
    DomainNotPreservedError,
    MatrixFileError,
    SemilinearMap,
    duality_map,
    field_build,
    mat_identity,
    mat_inv,
    mat_mul,
    perm_image,
    semisimple_decomposition,
    span,
    standard_form,
)


class TestField:
    def test_gf4_modulus(self):
        K = field_build(2, 2)
        assert K.modulus == (1, 1, 1)  # x**2 + x + 1, the only choice

    def test_gf9_least_modulus(self):
        # monic degree-2 polynomials over GF(3), constant term compared
        # first: x**2 + 1 is the least irreducible
        assert field_build(3, 2).modulus == (1, 0, 1)

    def test_gf2(self):
        K = field_build(2, 1)
        assert K.q == 2 and K.add(1, 1) == 0

    def test_explicit_modulus(self):
        # x**2 + 2x + 2 is also irreducible over GF(3)
        K = ge.Fq(3, 2, modulus=(2, 2, 1))
        assert K.mul(3, 3) != 0  # arithmetic works
        with pytest.raises(ValueError):
            ge.Fq(3, 2, modulus=(2, 0, 1))  # x**2 + 2 = (x-1)(x+1)

    def test_rejects_bad_parameters(self):
        with pytest.raises(ValueError):
            field_build(4, 1)
        with pytest.raises(OverflowError):
            field_build(2, 10)

    @given(st.sampled_from([(2, 1), (3, 1), (2, 2), (5, 1), (3, 2), (2, 3)]),
           st.data())
    @settings(max_examples=100, deadline=None)
    def test_field_axioms(self, pe, data):
        K = field_build(*pe)
        a = data.draw(st.integers(0, K.q - 1))
        b = data.draw(st.integers(0, K.q - 1))
        c = data.draw(st.integers(0, K.q - 1))
        assert K.add(a, b) == K.add(b, a)
        assert K.mul(a, b) == K.mul(b, a)
        assert K.mul(a, K.add(b, c)) == K.add(K.mul(a, b), K.mul(a, c))
        assert K.add(a, K.neg(a)) == 0
        if a:
            assert K.mul(a, K.inv(a)) == 1
        assert K.frobenius(K.add(a, b)) == K.add(K.frobenius(a),
                                                 K.frobenius(b))

    def test_squares_gf3(self):
        K = field_build(3, 1)
        assert K.is_square(1) and not K.is_square(2)


class TestLinearAlgebra:
    def test_mat_inv_round_trip(self):
        K = field_build(2, 2)
        M = ((1, 2, 0), (0, 1, 3), (2, 0, 1))
        assert mat_mul(K, M, mat_inv(K, M)) == mat_identity(3)

    def test_singular_matrix_rejected(self):
        K = field_build(2, 1)
        with pytest.raises(ValueError):
            mat_inv(K, ((1, 1), (1, 1)))

    def test_span_canonical(self):
        K = field_build(2, 1)
        a = span(K, [(1, 1, 0), (0, 1, 1)])
        b = span(K, [(1, 0, 1), (1, 1, 0), (0, 1, 1)])
        assert a == b and a.dim == 2

    def test_nullspace_orthogonal(self):
        K = field_build(3, 1)
        M = ((1, 2, 0), (0, 1, 1), (1, 0, 1))
        ns = ge.nullspace(K, ((1, 2, 0), (2, 1, 0), (0, 0, 0)))
        for v in ns:
            assert not any(ge.vec_mat(K, v, ((1, 2, 0), (2, 1, 0),
                                             (0, 0, 0))))


class TestStandardForms:
    def test_witt_indices(self):
        assert standard_form("symplectic", 6, 2).witt_index == 3
        assert standard_form("quadratic", 6, 2, "-").witt_index == 2
        assert standard_form("quadratic", 7, 3, "o").witt_index == 3
        assert standard_form("hermitian", 5, 2).witt_index == 2
        assert standard_form("quadratic", 8, 2, "+").witt_index == 4

    def test_witt_index_is_the_maximal_singular_dimension(self):
        for F in _standard_forms():
            def singular(rows, v, F=F):
                return F.is_singular_vector(v) and not any(
                    F.bilinear(u, v) for u in rows)

            w = F.witt_index
            label = (F.kind, F.epsilon, F.n, F.q)
            assert next(ge.subspaces(F, w, singular), None) is not None, \
                label
            # the search for a (w+1)-space is exhaustive; in dimension 12
            # (q = 2) it walks millions of partial bases, so stop at 10
            if F.n <= 10:
                assert next(ge.subspaces(F, w + 1, singular), None) is None, \
                    label

    def test_incompatible_parameters(self):
        with pytest.raises(ValueError):
            standard_form("symplectic", 5, 2)
        with pytest.raises(ValueError):
            standard_form("quadratic", 6, 2, "o")
        with pytest.raises(ValueError):
            standard_form("quadratic", 7, 2, "o")  # odd dim needs odd q
        with pytest.raises(ValueError):
            standard_form("quadratic", 7, 3, "+")

    def test_symplectic_all_points_singular(self):
        F = standard_form("symplectic", 6, 2)
        assert ge.singular_points(F).degree == 63  # (2**6 - 1) / (2 - 1)

    def test_hermitian_gram_identity(self):
        F = standard_form("hermitian", 4, 2)
        assert F.gram == mat_identity(4)
        # h(v, v) is fixed by conjugation
        for v in itertools.product(range(4), repeat=4):
            h = F.bilinear(v, v)
            assert F.conj(h) == h


def _standard_forms():
    """Every standard non-trivial form of dimension >= 1 with at most 4096
    vectors."""
    for q in range(2, 65):
        if nt.prime_power(q) is None:
            continue
        for n in range(1, 13):
            if q**n <= 4096:
                if n % 2 == 0:
                    yield standard_form("symplectic", n, q)
                    yield standard_form("quadratic", n, q, "+")
                    yield standard_form("quadratic", n, q, "-")
                elif q % 2:
                    yield standard_form("quadratic", n, q, "o")
            if q * q <= ge.FIELD_CAP and q**(2 * n) <= 4096:
                yield standard_form("hermitian", n, q)


def _gaussian_binomial(n, k, q):
    num = den = 1
    for i in range(k):
        num *= q**(n - i) - 1
        den *= q**(i + 1) - 1
    return num // den


class TestSubspaceEnumerator:
    @given(st.integers(1, 5), st.sampled_from([2, 3, 4, 5]), st.data())
    @settings(max_examples=40, deadline=None)
    def test_each_subspace_once_in_rref(self, n, q, data):
        k = data.draw(st.integers(0, n))
        F = standard_form("trivial", n, q)
        subs = list(ge.subspaces(F, k))
        assert len(subs) == _gaussian_binomial(n, k, q)
        assert len(set(subs)) == len(subs)
        for sub in subs:
            assert sub.dim == k
            assert span(F.field, sub.basis) == sub

    def test_row_filter_prunes_partial_bases(self):
        F = standard_form("trivial", 4, 3)

        def first_coordinate_zero(rows, v):
            assert all(u[0] == 0 for u in rows)  # rejected rows never grow
            return v[0] == 0

        subs = list(ge.subspaces(F, 2, first_coordinate_zero))
        # the 2-subspaces of the hyperplane x_0 = 0
        assert len(subs) == _gaussian_binomial(3, 2, 3) == 13
        assert all(row[0] == 0 for sub in subs for row in sub.basis)

    def test_cap(self):
        F = standard_form("trivial", 20, 2)
        with pytest.raises(OverflowError):
            next(ge.subspaces(F, 1))


class TestPointCounts:
    def test_unitary_singular_points(self):
        F = standard_form("hermitian", 5, 2)
        q = 2
        expect = (q**5 + 1) * (q**4 - 1) // (q**2 - 1)
        assert ge.singular_points(F).degree == expect == 165

    def test_oplus8_singular_points(self):
        F = standard_form("quadratic", 8, 2, "+")
        q = 2
        expect = (q**4 - 1) * (q**3 + 1) // (q - 1)
        assert ge.singular_points(F).degree == expect == 135

    def test_trivial_projective_points(self):
        F = standard_form("trivial", 5, 2)
        assert ge.singular_points(F).degree == 31

    def test_ns1_even_q(self):
        F = standard_form("quadratic", 8, 2, "+")
        assert ge.nondegenerate_points(F).degree == 2**3 * (2**4 - 1) == 120

    def test_ns1_split_odd_q(self):
        plus, minus = ge.nondegenerate_points(standard_form(
            "quadratic", 7, 3, "o"))
        k = 3**3
        assert plus.degree == k * (k + 1) // 2 == 378
        assert minus.degree == k * (k - 1) // 2 == 351

    def test_hermitian_nondegenerate_points(self):
        F = standard_form("hermitian", 5, 2)
        q = 2
        expect = (q**5 + 1) * q**4 // (q + 1)
        assert ge.nondegenerate_points(F).degree == expect == 176


class TestSubspaceDomains:
    def test_aniso2_oplus8(self):
        F = standard_form("quadratic", 8, 2, "+")
        dom = ge.anisotropic_2_subspaces(F)
        q, m = 2, 4
        assert dom.degree == q**(2 * (m - 1)) * (q**m - 1) \
            * (q**(m - 1) - 1) // (2 * (q + 1)) == 1120
        # spot check: no singular vector in the first few subspaces
        for sub in dom.labels[:5]:
            assert all(not any(v) or F.quad_value(v)
                       for v in sub.vectors(F.field))

    def test_aniso2_ominus8(self):
        F = standard_form("quadratic", 8, 2, "-")
        m = 3  # Witt index; n = 2m + 2
        q = 2
        expect = q**(2 * m) * (q**(m + 1) + 1) * (q**m + 1) // (2 * (q + 1))
        assert ge.anisotropic_2_subspaces(F).degree == expect == 1632

    def test_maxts_counts(self):
        dom = ge.maximal_totally_singular(standard_form(
            "quadratic", 6, 2, "+"))
        assert dom.degree == 30
        assert ge.maximal_totally_singular(standard_form(
            "symplectic", 4, 2)).degree == 15
        # golden value, recorded from the brute-force closure
        assert ge.maximal_totally_singular(standard_form(
            "quadratic", 6, 2, "-")).degree == 45

    def test_maxts_are_maximal_and_singular(self):
        F = standard_form("quadratic", 6, 2, "+")
        dom = ge.maximal_totally_singular(F)
        K = F.field
        for sub in dom.labels[:10]:
            assert sub.dim == F.witt_index
            assert all(F.quad_value(v) == 0 for v in sub.vectors(K))
            # no singular extension exists in the perp
            perp = F.perp(sub)
            assert not any(F.quad_value(v) == 0 and any(v)
                           and not sub.contains(K, v)
                           for v in perp.vectors(K))

    def test_nondegenerate_2_subspaces_sp6(self):
        F = standard_form("symplectic", 6, 2)
        # ordered hyperbolic pairs: 63 * 32; each 2-space has 6 of them
        assert ge.nondegenerate_2_subspaces(F).degree == 63 * 32 // 6 == 336


class TestPolarizingForms:
    def test_sp6_domains(self):
        F = standard_form("symplectic", 6, 2)
        plus = ge.quadratic_forms_polarizing(F, "+")
        minus = ge.quadratic_forms_polarizing(F, "-")
        # |Omega^eps| = |Sp6(2)| / |GO6^eps(2)|
        assert plus.degree == 1451520 // 40320 == 36
        assert minus.degree == 1451520 // 51840 == 28
        assert plus.degree + minus.degree == 2**6

    def test_sp4_domains(self):
        F = standard_form("symplectic", 4, 2)
        assert ge.quadratic_forms_polarizing(F, "+").degree == 10
        assert ge.quadratic_forms_polarizing(F, "-").degree == 6

    def test_standard_plus_form_in_plus_domain(self):
        F = standard_form("symplectic", 6, 2)
        plus = ge.quadratic_forms_polarizing(F, "+")
        # the all-zero diagonal is the standard hyperbolic form sum x_i y_i
        assert (0,) * 6 in plus.index

    @pytest.mark.parametrize("n, q", [(4, 2), (6, 2), (4, 4)])
    def test_arf_type_matches_the_zero_count(self, n, q):
        F = standard_form("symplectic", n, q)
        m = n // 2
        zeros = {"+": q**(n - 1) + q**m - q**(m - 1),
                 "-": q**(n - 1) - q**m + q**(m - 1)}
        total = 0
        for eps in "+-":
            labels = ge.quadratic_forms_polarizing(F, eps).labels
            total += len(labels)
            for diag in labels:
                assert sum(1 for v in itertools.product(range(q), repeat=n)
                           if ge._polarized_quad_value(F, diag, v) == 0) \
                    == zeros[eps]
        assert total == q**n

    def test_sp6_4_domains(self):
        F = standard_form("symplectic", 6, 4)
        # |Sp6(4)| / |GO6^eps(4)| = q**3 (q**3 + eps 1) / 2
        assert ge.quadratic_forms_polarizing(F, "+").degree == 2080
        assert ge.quadratic_forms_polarizing(F, "-").degree == 2016

    def test_cap(self):
        F = standard_form("symplectic", 20, 2)
        with pytest.raises(OverflowError):
            ge.quadratic_forms_polarizing(F, "+")

    def test_rejects_odd_characteristic(self):
        K = field_build(3, 1)
        F = ge.FormSpace("symplectic", 4, K)
        with pytest.raises(ValueError):
            ge.quadratic_forms_polarizing(F, "+")


class TestPairsAndDuality:
    def test_pair_sizes(self):
        F = standard_form("trivial", 5, 2)
        le, perp = ge.pair_domains(F, 1)
        assert le.degree == 31 * 15 == 465
        assert perp.degree == 31 * 16 == 496

    def test_duality_is_involution(self):
        F = standard_form("trivial", 5, 2)
        tau = duality_map(F)
        subs = list(ge.subspaces(F, 2))[:100]
        for s in subs:
            t = tau.apply_subspace(F, s)
            assert t.dim == 3
            assert tau.apply_subspace(F, t) == s

    def test_duality_acts_on_pairs(self):
        F = standard_form("trivial", 5, 2)
        _le, perp = ge.pair_domains(F, 1)
        g = duality_map(F)
        p = perp.permutation(g)
        assert sorted(p.images) == list(range(perp.degree))
        # involution
        assert all(p.images[p.images[i]] == i for i in range(perp.degree))

    def test_k_out_of_range(self):
        F = standard_form("trivial", 5, 2)
        with pytest.raises(ValueError):
            ge.pair_domains(F, 3)


class TestSemisimpleDecomposition:
    def test_identity(self):
        F = standard_form("trivial", 4, 2)
        x = SemilinearMap(mat_identity(4))
        cv, comm, ell = semisimple_decomposition(x, F)
        assert ell == 0 and cv.dim == 4 and comm.dim == 0

    def test_order3_with_plane_fixed(self):
        F = standard_form("trivial", 4, 2)
        x = SemilinearMap(((0, 1, 0, 0), (1, 1, 0, 0),
                           (0, 0, 1, 0), (0, 0, 0, 1)))
        assert ge.map_order(F, x) == 3
        cv, comm, ell = semisimple_decomposition(x, F)
        assert ell == 2 and cv.dim == 2

    def test_order5_fixed_point_free(self):
        F = standard_form("trivial", 4, 2)
        # companion matrix of x**4 + x**3 + x**2 + x + 1
        x = SemilinearMap(((0, 1, 0, 0), (0, 0, 1, 0),
                           (0, 0, 0, 1), (1, 1, 1, 1)))
        assert ge.map_order(F, x) == 5
        cv, comm, ell = semisimple_decomposition(x, F)
        assert ell == 4 and cv.dim == 0

    def test_rejects_unipotent(self):
        F = standard_form("trivial", 2, 2)
        x = SemilinearMap(((1, 1), (0, 1)))
        with pytest.raises(ValueError):
            semisimple_decomposition(x, F)


class TestPermImage:
    def test_sl5_on_projective_points(self):
        F = standard_form("trivial", 5, 2)
        G = perm_image(ge.sl_generators(5, F.field),
                       ge.singular_points(F))
        assert G.degree == 31
        assert G.is_transitive() and G.is_primitive()

    def test_similarity_swaps_ns1_orbits(self):
        F = standard_form("quadratic", 8, 3, "+")
        plus, _minus = ge.nondegenerate_points(F)
        # scale the second member of each hyperbolic pair by the
        # non-square 2: a similarity with Q(v g) = 2 Q(v)
        diag = tuple(tuple((2 if (i % 2 and i == j) else (1 if i == j else 0))
                           for j in range(8)) for i in range(8))
        with pytest.raises(DomainNotPreservedError):
            plus.permutation(SemilinearMap(diag))

    def test_duality_rejected_on_points(self):
        F = standard_form("trivial", 4, 2)
        dom = ge.singular_points(F)
        with pytest.raises(DomainNotPreservedError):
            dom.permutation(duality_map(F))


class TestCombinatorialActions:
    def test_k_set_action(self):
        G = ge.k_set_action(5, 2)
        assert G.degree == 10 and G.order() == 120

    def test_product_action_trivial_r(self):
        base = ge.k_set_action(5, 2)
        assert ge.product_action(base, 1) is base

    def test_product_action_primitive(self):
        G = ge.product_action(ge.k_set_action(5, 2), 2)
        assert G.degree == 100
        assert G.is_primitive()

    def test_product_action_order(self):
        # Sym(3) wr Sym(2) in product action on 9 points
        G = ge.product_action(ge.k_set_action(3, 1), 2)
        assert G.degree == 9 and G.order() == 72

    def test_cap(self):
        with pytest.raises(OverflowError):
            ge.product_action(ge.k_set_action(5, 2), 8)


class TestMatrixFiles:
    def test_round_trip_builtins(self):
        for name in ("sp6_2", "o8p_2", "o7_3", "su5_2"):
            space, gens = ge.builtin_matrix_group(name)
            text = ge.emit_matrix_file(space, gens)
            space2, gens2 = ge.parse_matrix_file(text)
            assert gens2 == gens
            assert space2.kind == space.kind and space2.n == space.n

    def test_builtin_sp6_order(self):
        space, gens = ge.builtin_matrix_group("sp6_2")
        G = perm_image(gens, ge.singular_points(space))
        assert G.order(cap=2 * 10**6) == 1451520

    def test_builtins_preserve_forms(self):
        for name in ("o8p_2", "su5_2"):
            space, gens = ge.builtin_matrix_group(name)
            n = space.n
            basis = [tuple(1 if j == i else 0 for j in range(n))
                     for i in range(n)]
            for g in gens[:4]:
                imgs = [g.apply_vector(space, b) for b in basis]
                for i in range(n):
                    for j in range(n):
                        assert space.bilinear(imgs[i], imgs[j]) \
                            == space.bilinear(basis[i], basis[j])

    def test_parse_errors(self):
        with pytest.raises(MatrixFileError):
            ge.parse_matrix_file("dim 2\nform trivial\n")
        with pytest.raises(MatrixFileError) as exc:
            ge.parse_matrix_file("GF 2 1\ndim 2\nform trivial\ngen\n1 0\n")
        assert exc.value.lineno >= 5  # truncated matrix
        with pytest.raises(MatrixFileError):
            ge.parse_matrix_file(
                "GF 2 1\ndim 2\nform trivial\ngen\n1 1\n1 1\n")  # singular
        with pytest.raises(MatrixFileError) as exc:
            ge.parse_matrix_file("GF 2 1\ndim 5\nform symplectic\ngen\n"
                                 + "1 0 0 0 0\n" * 5)  # odd dimension
        assert exc.value.lineno == 3
        with pytest.raises(MatrixFileError) as exc:
            ge.parse_matrix_file("GF 2 1\ndim 0\nform trivial\ngen\n")
        assert exc.value.lineno == 2

    def test_twist_and_duality_lines(self):
        text = ("GF 2 2 1 1 1\ndim 2\nform trivial\n"
                "gen\n1 0\n0 1\ntwist 1\nduality\n")
        _space, gens = ge.parse_matrix_file(text)
        assert gens[0].twist == 1 and gens[0].duality

    def test_unknown_builtin(self):
        with pytest.raises(ValueError):
            ge.builtin_matrix_group("nope")
