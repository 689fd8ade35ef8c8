"""Oracle tests for fields, forms, domains, and matrix-group plumbing."""

import hashlib
import importlib.util
import itertools
import math
import random
import time
from importlib import resources
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from geometry_reference import (
    apply_subspace,
    apply_vector,
    bilinear,
    conj,
    duality_map,
    is_singular_vector,
    least_anisotropic_constant,
    map_order,
    mat_identity,
    mat_inv,
    mat_mul,
    mat_rank,
    nullspace,
    perp,
    polarized_quad_value,
    quad_value,
    reference_permutation,
    scalar_gram,
    scalars,
    semisimple_decomposition,
    sl_generators,
    span,
    subspace_contains,
    subspace_vectors,
    subspaces,
    table_combine,
    vec_mat,
)
from regcycles import geometry as ge
from regcycles import numtheory as nt
from regcycles import perm
from regcycles.geometry import (
    DomainNotPreservedError,
    SemilinearMap,
    Subspace,
    field_build,
    perm_image,
    standard_form,
)
from regcycles.perm import GroupFileError, Permutation


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
        assert K.q == 2 and K.add_table[1, 1] == 0

    def test_explicit_modulus(self):
        # x**2 + 2x + 2 is also irreducible over GF(3)
        K = ge.Fq(3, 2, modulus=(2, 2, 1))
        assert scalars(K).mul(3, 3) != 0  # arithmetic works
        with pytest.raises(ValueError):
            ge.Fq(3, 2, modulus=(2, 0, 1))  # x**2 + 2 = (x-1)(x+1)

    def test_rejects_bad_parameters(self):
        with pytest.raises(ValueError):
            field_build(4, 1)
        with pytest.raises(OverflowError):
            field_build(2, 10)

    @given(st.sampled_from([(2, 1), (3, 1), (2, 2), (5, 1), (3, 2), (2, 3)]),
           st.data())
    @settings(max_examples=100)
    def test_field_axioms(self, pe, data):
        K = scalars(field_build(*pe))
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
        assert K.square_mask[1] and not K.square_mask[2]


class TestFieldTables:
    def test_every_field_matches_its_recorded_tables(self):
        # modulus and SHA-256 digests of the add and mul tables of every
        # field up to FIELD_CAP, as built by polynomial arithmetic
        path = Path(__file__).with_name("field_tables.tsv")
        rows = [line.split("\t") for line in path.read_text().splitlines()
                if not line.startswith("#")]
        assert [(int(p), int(e)) for p, e, *_ in rows] == [
            nt.prime_power(q) for q in range(2, ge.FIELD_CAP + 1)
            if nt.prime_power(q)]
        for p, e, modulus, add, mul in rows:
            K = ge.Fq(int(p), int(e))
            assert " ".join(map(str, K.modulus)) == modulus, (p, e)
            for table, digest in ((K.add_table, add), (K.mul_table, mul)):
                data = np.asarray(table, dtype="<i2").tobytes()
                assert hashlib.sha256(data).hexdigest() == digest, (p, e)
            # the multiplicative group is cyclic of order q - 1
            S = scalars(K)
            g = S.generator()
            assert S.elt_pow(g, K.q - 1) == 1, (p, e)
            assert all(S.elt_pow(g, (K.q - 1) // r) != 1
                       for r in nt.factorize(K.q - 1).primes()), (p, e)
            # the derived tables against the scalar arithmetic
            elements = range(K.q)
            assert K.neg_table.tolist() == [S.neg(a) for a in elements]
            assert K.inv_table.tolist() == [0] + [S.inv(a)
                                                  for a in elements[1:]]
            assert K.square_mask.tolist() == [S.is_square(a)
                                              for a in elements]
            for t in range(K.e):
                assert K.frobenius_table(t).tolist() == [
                    S.frobenius(a, t) for a in elements], (p, e, t)


class TestCombine:
    """`ProjectivePoints.combine`, one matmul over GF(p), against the
    per-column table loop `table_combine`."""

    @staticmethod
    def _shapes(k):
        # (coeffs, rows) shapes: (N, k)(k, n), the coefficients smaller
        # than the rows, two leading axes on one matrix, the broadcast
        # (1, P, k)(S, 1, k, n), shared leading axes, empty leading axes
        return [((40, k), (k, 3)), ((1, k), (k, 5)), ((3, 2, k), (k, 4)),
                ((1, 6, k), (4, 1, k, 3)), ((7, k), (7, k, 1)),
                ((5, 2, k), (5, 1, k, 2)), ((0, k), (k, 3)),
                ((1, 6, k), (0, 1, k, 3))]

    # the default block, and one small enough that every 2-D product of
    # more than a few rows runs in blocks
    @pytest.mark.parametrize("block", [ge._COMBINE_BLOCK, 64])
    def test_matches_the_table_loop_on_every_field(self, block, monkeypatch):
        monkeypatch.setattr(ge, "_COMBINE_BLOCK", block)
        rng = np.random.default_rng(15)
        fields = [nt.prime_power(q) for q in range(2, ge.FIELD_CAP + 1)
                  if nt.prime_power(q)]
        assert len(fields) == 117
        for p, e in fields:
            K = field_build(p, e)
            pts = ge.projective_points(K, 1)
            # the longest sum a ProjectivePoints can need: k <= n with
            # q**n <= VECTOR_ENUM_CAP
            top = int(math.log(ge.VECTOR_ENUM_CAP, K.q) + 1e-9)
            for k in sorted({0, 1, top}):
                for a, b in self._shapes(k):
                    coeffs = rng.integers(0, K.q, a, dtype=np.int16)
                    rows = rng.integers(0, K.q, b, dtype=np.int16)
                    cases = [(coeffs, rows),
                             (np.full(a, K.q - 1, dtype=np.int16),
                              np.full(b, K.q - 1, dtype=np.int16))]
                    for x, y in cases:
                        got = pts.combine(x, y)
                        want = table_combine(K, x, y)
                        assert got.dtype == np.int16, (p, e, a, b)
                        assert got.shape == want.shape, (p, e, a, b)
                        assert (got == want).all(), (p, e, a, b)

    def test_digit_and_multiplication_tables(self):
        for p, e in [(2, 1), (3, 1), (2, 2), (5, 2), (2, 9), (509, 1)]:
            K = field_build(p, e)
            digits = K.digit_table.astype(np.int64)
            assert (digits @ p ** np.arange(e) == np.arange(K.q)).all()
            # digits(a * b) = digits(a) @ mul_matrices[b] mod p
            products = np.einsum("as,bst->abt", digits,
                                 K.mul_matrices.astype(np.int64)) % p
            assert (products == digits[K.mul_table]).all(), (p, e)
            for table in (K.digit_table, K.mul_matrices):
                assert not table.flags.writeable


class TestLinearAlgebra:
    def test_mat_inv_round_trip(self):
        K = field_build(2, 2)
        M = ((1, 2, 0), (0, 1, 3), (2, 0, 1))
        assert mat_mul(K, M, mat_inv(K, M)) == mat_identity(3)

    def test_singular_matrix_rejected(self):
        K = field_build(2, 1)
        with pytest.raises(ValueError):
            mat_inv(K, ((1, 1), (1, 1)))

    @pytest.mark.parametrize("q", [q for q in range(2, 17)
                                   if nt.prime_power(q)])
    def test_batched_singularity_matches_mat_inv(self, q):
        K = field_build(*nt.prime_power(q))
        rng = random.Random(q)
        for n in range(1, 7):
            # random matrices, and as many made singular by a repeated row
            # or a row that is a combination of two others
            matrices = [[[rng.randrange(q) for _ in range(n)]
                         for _ in range(n)] for _ in range(60)]
            for m in matrices[:30]:
                i, j, k = (rng.randrange(n) for _ in range(3))
                if n > 1 and i != j:
                    m[i] = vec_mat(K, (1, rng.randrange(q)), (m[j], m[k]))
            matrices += [[[0] * n for _ in range(n)], mat_identity(n)]
            expect = []
            for m in matrices:
                try:
                    mat_inv(K, m)
                    expect.append(False)
                except ValueError:
                    expect.append(True)
            got = ge.singular_matrices(K, np.array(matrices))
            assert got.tolist() == expect, (q, n)
            assert any(expect) and not all(expect), (q, n)

    def test_span_canonical(self):
        K = field_build(2, 1)
        a = span(K, [(1, 1, 0), (0, 1, 1)])
        b = span(K, [(1, 0, 1), (1, 1, 0), (0, 1, 1)])
        assert a == b and a.dim == 2

    def test_nullspace_orthogonal(self):
        K = field_build(3, 1)
        M = ((1, 2, 0), (0, 1, 1), (1, 0, 1))
        ns = nullspace(K, ((1, 2, 0), (2, 1, 0), (0, 0, 0)))
        for v in ns:
            assert not any(vec_mat(K, v, ((1, 2, 0), (2, 1, 0),
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
                return is_singular_vector(F, v) and not any(
                    bilinear(F, u, v) for u in rows)

            w = F.witt_index
            label = (F.kind, F.epsilon, F.n, F.q)
            assert next(subspaces(F, w, singular), None) is not None, \
                label
            # the search for a (w+1)-space is exhaustive; in dimension 12
            # (q = 2) it walks millions of partial bases, so stop at 10
            if F.n <= 10:
                assert next(subspaces(F, w + 1, singular), None) is None, \
                    label

    def test_gram_and_coefficients_match_the_scalar_construction(self):
        for F in _standard_forms():
            label = (F.kind, F.epsilon, F.n, F.q)
            assert F.gram.tolist() == scalar_gram(F), label
            if F.epsilon == "-":
                # the anisotropic plane z1**2 + z1 z2 + a z2**2 closes the
                # hyperbolic pairs
                expect = [[0] * F.n for _ in range(F.n)]
                for i in range(0, F.n - 2, 2):
                    expect[i][i + 1] = 1
                expect[-2][-2] = expect[-2][-1] = 1
                expect[-1][-1] = least_anisotropic_constant(F.field)
                assert F.upper.tolist() == expect, label

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
        assert F.gram.tolist() == [list(row) for row in mat_identity(4)]
        # h(v, v) is fixed by conjugation
        for v in itertools.product(range(4), repeat=4):
            h = bilinear(F, v, v)
            assert conj(F, h) == h


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


class TestPointTables:
    def test_point_values_match_the_scalar_forms(self):
        for F in _standard_forms():
            vectors = ge.projective_points(F.field, F.n).vectors.tolist()
            if F.kind == "quadratic":
                expect = [quad_value(F, v) for v in vectors]
            elif F.kind == "hermitian":
                expect = [bilinear(F, v, v) for v in vectors]
            else:
                expect = [0] * len(vectors)
            assert F.point_values.tolist() == expect, \
                (F.kind, F.epsilon, F.n, F.q)


def _gaussian_binomial(n, k, q):
    num = den = 1
    for i in range(k):
        num *= q**(n - i) - 1
        den *= q**(i + 1) - 1
    return num // den


# every standard form space with n <= 5 over a field of order <= 5
_SMALL_SPACES = (
    [("trivial", n, q) for n in range(1, 6) for q in (2, 3, 4, 5)]
    + [("symplectic", n, q) for n in (2, 4) for q in (2, 3, 4, 5)]
    + [("quadratic", n, q, eps) for n in (2, 4) for q in (2, 3, 4, 5)
       for eps in "+-"]
    + [("quadratic", n, q, "o") for n in (1, 3, 5) for q in (3, 5)]
    + [("hermitian", n, 2) for n in range(1, 6)])


class TestSubspaceEnumerator:
    @given(st.integers(1, 5), st.sampled_from([2, 3, 4, 5]), st.data())
    @settings(max_examples=40)
    def test_each_subspace_once_in_rref(self, n, q, data):
        k = data.draw(st.integers(0, n))
        F = standard_form("trivial", n, q)
        bases = ge.subspaces(F, k)
        assert bases.shape == (_gaussian_binomial(n, k, q), k, n)
        subs = [Subspace(tuple(map(tuple, b))) for b in bases.tolist()]
        assert len(set(subs)) == len(subs)
        for sub in subs:
            assert span(F.field, sub.basis) == sub

    def test_row_filter_prunes_partial_bases(self):
        F = standard_form("trivial", 4, 3)

        def first_coordinate_zero(partial, rows):
            assert (partial[..., 0] == 0).all()  # rejected rows never grow
            return np.broadcast_to(rows[:, 0] == 0, (len(partial), len(rows)))

        bases = ge.subspaces(F, 2, first_coordinate_zero)
        # the 2-subspaces of the hyperplane x_0 = 0
        assert len(bases) == _gaussian_binomial(3, 2, 3) == 13
        assert (bases[..., 0] == 0).all()

    def test_cap(self):
        F = standard_form("trivial", 20, 2)
        with pytest.raises(OverflowError):
            ge.subspaces(F, 1)

    @given(st.sampled_from(_SMALL_SPACES), st.booleans(), st.data())
    @settings(max_examples=60)
    def test_array_enumerator_matches_the_reference(self, params, prune,
                                                    data):
        F = standard_form(*params)
        k = data.draw(st.integers(0, F.n))

        # the same pruning rule in both signatures: it reads the partial
        # basis and the new row, so order and broadcasting both show
        def reference_ok(rows, v):
            return (sum(v) + sum(map(sum, rows))) % 3 != 1

        def array_ok(partial, rows):
            return (rows.sum(axis=1)[None]
                    + partial.sum(axis=(1, 2))[:, None]) % 3 != 1

        bases = ge.subspaces(F, k, array_ok if prune else None)
        expect = [sub.basis for sub in
                  subspaces(F, k, reference_ok if prune else None)]
        assert bases.shape == (len(expect), k, F.n)
        assert [tuple(map(tuple, b)) for b in bases.tolist()] == expect

    def test_maxts_row_test_matches_the_scalar_forms(self):
        for params in _SMALL_SPACES:
            F = standard_form(*params)
            if F.kind == "trivial":
                continue

            def singular(rows, v, F=F):
                return is_singular_vector(F, v) and not any(
                    bilinear(F, u, v) for u in rows)

            if F.witt_index == 0:
                # only the zero subspace, on which no action is built
                with pytest.raises(ValueError, match="has Witt index 0"):
                    ge.maximal_totally_singular(F)
                continue
            expect = sorted(subspaces(F, F.witt_index, singular))
            assert list(ge.maximal_totally_singular(F).labels) == expect, \
                params


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
            assert all(not any(v) or quad_value(F, v)
                       for v in subspace_vectors(F.field, sub))

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
            assert all(quad_value(F, v) == 0
                       for v in subspace_vectors(K, sub))
            # no singular extension exists in the perp
            complement = perp(F, sub)
            assert not any(quad_value(F, v) == 0 and any(v)
                           and not subspace_contains(K, sub, v)
                           for v in subspace_vectors(K, complement))

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
        assert (0,) * 6 in plus.labels

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
                           if polarized_quad_value(F, diag, v) == 0) \
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
        # PG(6, 3): 1093 points, 364 hyperplanes through each and 3**6
        # missing it, counted off a 1093 x 1093 incidence product
        le, perp = ge.pair_domains(standard_form("trivial", 7, 3), 1)
        assert le.degree == 1093 * 364 == 397852
        assert perp.degree == 1093 * 3**6 == 796797

    def test_duality_is_involution(self):
        F = standard_form("trivial", 5, 2)
        tau = duality_map(F)
        subs = [Subspace(tuple(map(tuple, b)))
                for b in ge.subspaces(F, 2)[:100].tolist()]
        for s in subs:
            t = apply_subspace(tau, F, s)
            assert t.dim == 3
            assert apply_subspace(tau, F, t) == s

    def test_duality_acts_on_pairs(self):
        F = standard_form("trivial", 5, 2)
        _le, perp = ge.pair_domains(F, 1)
        g = duality_map(F)
        p = perp.images([g])[0].tolist()
        assert sorted(p) == list(range(perp.degree))
        # involution
        assert all(p[p[i]] == i for i in range(perp.degree))

    def test_k_out_of_range(self):
        F = standard_form("trivial", 5, 2)
        with pytest.raises(ValueError):
            ge.pair_domains(F, 3)

    @pytest.mark.parametrize("params", [
        ("trivial", 4, 3), ("trivial", 5, 2), ("symplectic", 6, 2),
        ("hermitian", 3, 2), ("quadratic", 6, 2, "+"),
        ("quadratic", 5, 3, "o")])
    def test_perps_match_the_reference(self, params):
        F = standard_form(*params)
        pts = ge.projective_points(F.field, F.n)
        for k in range(1, F.n):
            bases = ge.subspaces(F, k)
            expect = [pts.span_points(np.array([perp(F, Subspace(
                tuple(map(tuple, b)))).basis], dtype=np.int16))[0].tolist()
                for b in bases.tolist()]
            assert ge._perp_points(F, bases).tolist() == expect, (params, k)

    def test_duality_that_changes_the_dimension_is_refused(self):
        # the perp of a maximal totally singular 2-space of SU5(2) is a
        # 3-space, outside the domain
        F = standard_form("hermitian", 5, 2)
        with pytest.raises(DomainNotPreservedError):
            ge.maximal_totally_singular(F).images([duality_map(F)])[0]


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
        assert map_order(F, x) == 3
        cv, comm, ell = semisimple_decomposition(x, F)
        assert ell == 2 and cv.dim == 2

    def test_order5_fixed_point_free(self):
        F = standard_form("trivial", 4, 2)
        # companion matrix of x**4 + x**3 + x**2 + x + 1
        x = SemilinearMap(((0, 1, 0, 0), (0, 0, 1, 0),
                           (0, 0, 0, 1), (1, 1, 1, 1)))
        assert map_order(F, x) == 5
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
        G = perm_image(sl_generators(5, F.field),
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
            plus.images([SemilinearMap(diag)])[0]

    def test_duality_rejected_on_points(self):
        F = standard_form("trivial", 4, 2)
        dom = ge.singular_points(F)
        with pytest.raises(DomainNotPreservedError):
            dom.images([duality_map(F)])[0]

    @pytest.mark.parametrize("build", [ge.maximal_totally_singular,
                                       ge.nondegenerate_2_subspaces])
    def test_non_isometry_rejected_on_subspaces(self, build):
        F = standard_form("symplectic", 6, 2)
        dom = build(F)
        # e_0 -> e_0 + e_2 breaks B(e_0, e_3) = 0
        shear = SemilinearMap(tuple(
            tuple(1 if i == j or (i, j) == (0, 2) else 0 for j in range(6))
            for i in range(6)))
        with pytest.raises(DomainNotPreservedError):
            dom.images([shear])[0]
        with pytest.raises(DomainNotPreservedError):
            reference_permutation(dom, shear)

    def test_singular_generator_rejected(self):
        F = standard_form("trivial", 5, 2)
        _le, perp = ge.pair_domains(F, 1)
        singular = ((1, 0, 0, 0, 0),) * 5
        for g in (SemilinearMap(singular),
                  SemilinearMap(singular, duality=True)):
            with pytest.raises(DomainNotPreservedError):
                perp.images([g])[0]


# -- the induced point action against the per-label reference ----------------

_DOMAIN_KINDS = ("point", "ns1", "aniso2", "nd2", "maxts", "pairs-le",
                 "pairs-perp")
# the reference maps every label with its own row reductions, so the
# domains stay small: the Gaussian binomials of the dimensions the builder
# enumerates bound the degree
_MAX_LABELS = 1100


def _small_spaces():
    """(kind, n, q, epsilon) for every standard form space, the trivial
    one included, over a field of order 2, 3, 4 or 5 with at most 1024
    vectors."""
    for q in (2, 3, 4, 5):
        for n in range(1, 11):
            if q**n <= 1024:
                if n >= 2:
                    yield ("trivial", n, q, None)
                if n % 2 == 0:
                    yield ("symplectic", n, q, None)
                    yield ("quadratic", n, q, "+")
                    yield ("quadratic", n, q, "-")
                elif q % 2 and n >= 3:
                    yield ("quadratic", n, q, "o")
            if (q * q)**n <= 1024 and n >= 2:  # hermitian: over GF(q**2)
                yield ("hermitian", n, q, None)


def _domain_dims(kind, space):
    """Dimensions of the subspaces a domain label is made of."""
    if kind in ("point", "ns1"):
        return [1]
    if kind in ("aniso2", "nd2"):
        return [2]
    if kind == "maxts":
        return [space.witt_index]
    return [1, space.n - 1]  # pairs with k = 1


def _applies(kind, space):
    if kind == "ns1":
        return space.kind in ("quadratic", "hermitian")
    if kind == "aniso2":
        return space.kind == "quadratic"
    if kind == "nd2":  # GL does not preserve it under the dot product
        return space.kind != "trivial"
    if kind == "maxts":
        return space.kind != "trivial" and space.witt_index >= 1
    if kind in ("pairs-le", "pairs-perp"):
        return space.n >= 3
    return True


def _reference_cases(kind):
    cases = []
    for params in _small_spaces():
        space = standard_form(*params)
        if _applies(kind, space) and math.prod(
                _gaussian_binomial(space.n, d, space.field.q)
                for d in _domain_dims(kind, space)) <= _MAX_LABELS:
            cases.append(params)
    return cases


_domain_cache: dict = {}


def _domain(kind, params):
    key = (kind, params)
    if key not in _domain_cache:
        space = standard_form(*params)
        if kind == "point":
            dom = ge.singular_points(space)
        elif kind == "ns1":
            dom = ge.nondegenerate_points(space)
            dom = dom[0] if isinstance(dom, tuple) else dom
        elif kind == "aniso2":
            dom = ge.anisotropic_2_subspaces(space)
        elif kind == "nd2":
            dom = ge.nondegenerate_2_subspaces(space)
        elif kind == "maxts":
            dom = ge.maximal_totally_singular(space)
        elif kind.startswith("forms"):
            dom = ge.quadratic_forms_polarizing(space, kind[-1])
        else:
            le, perp = ge.pair_domains(space, 1)
            dom = le if kind == "pairs-le" else perp
        _domain_cache[key] = dom
    return _domain_cache[key]


def _is_isometry(space, m):
    n = space.n
    basis = mat_identity(n)
    images = [vec_mat(space.field, b, m) for b in basis]
    if space.kind == "quadratic" and any(
            quad_value(space, images[i]) != quad_value(space, basis[i])
            for i in range(n)):
        return False
    return all(bilinear(space, images[i], images[j])
               == bilinear(space, basis[i], basis[j])
               for i in range(n) for j in range(n))


def _random_generators(space, rng, count=3):
    """Random invertible matrices for the trivial form; otherwise random
    isometries x -> x + c B(x, v) v (symplectic transvections, orthogonal
    reflections, unitary transvections and quasi-reflections)."""
    K, n = scalars(space.field), space.n
    gens = []
    while len(gens) < count:
        if space.kind == "trivial":
            m = tuple(tuple(rng.randrange(K.q) for _ in range(n))
                      for _ in range(n))
            if mat_rank(K, m) == n:
                gens.append(m)
            continue
        v = tuple(rng.randrange(K.q) for _ in range(n))
        c = rng.randrange(1, K.q)
        # B(x, v) = x . w with w = G conj(v), w_i = B(e_i, v)
        w = [bilinear(space, e, v) for e in mat_identity(n)]
        m = tuple(tuple(K.add(1 if i == j else 0, K.mul(c, K.mul(w[i], v[j])))
                        for j in range(n)) for i in range(n))
        if any(v) and m != mat_identity(n) and _is_isometry(space, m):
            gens.append(m)
    return gens


def _admits_twist(space):
    """The Frobenius map preserves the form when its coefficients lie in
    the prime field."""
    coeffs = [x for row in space.gram for x in row]
    if space.upper is not None:
        coeffs += [x for row in space.upper for x in row]
    return space.field.e > 1 and all(x < space.field.p for x in coeffs)


def _admits_duality(kind, space):
    """W -> W^perp maps pairs to pairs, and a maximal totally singular
    subspace of half the dimension to itself."""
    return kind in ("pairs-le", "pairs-perp") or (
        kind == "maxts" and 2 * space.witt_index == space.n)


class TestInducedPointAction:
    @pytest.mark.parametrize("kind", _DOMAIN_KINDS)
    @given(st.data())
    @settings(max_examples=25)
    def test_permutation_matches_reference(self, kind, data):
        params = data.draw(st.sampled_from(_reference_cases(kind)))
        dom = _domain(kind, params)
        space = dom.space
        rng = random.Random(data.draw(st.integers(0, 2**32 - 1)))
        gens = _random_generators(space, rng)
        word = mat_identity(space.n)
        for _ in range(data.draw(st.integers(1, 4))):
            word = mat_mul(space.field, word, rng.choice(gens))
        twist = data.draw(st.integers(0, space.field.e - 1)) \
            if _admits_twist(space) else 0
        duality = data.draw(st.booleans()) \
            if _admits_duality(kind, space) else False
        g = SemilinearMap(word, twist, duality)
        assert Permutation(dom.images([g])[0]) == reference_permutation(dom, g)

    def test_every_space_kind_is_covered(self):
        kinds = {(params[0], params[3]) for kind in _DOMAIN_KINDS
                 for params in _reference_cases(kind)}
        assert kinds == {("trivial", None), ("symplectic", None),
                         ("hermitian", None), ("quadratic", "+"),
                         ("quadratic", "-"), ("quadratic", "o")}
        assert all(_reference_cases(kind) for kind in _DOMAIN_KINDS)


    @given(st.sampled_from([(n, q, eps) for n in (2, 4, 6) for q in (2, 4)
                            for eps in "+-"]), st.data())
    @settings(max_examples=40)
    def test_form_action_matches_reference(self, case, data):
        n, q, eps = case
        dom = _domain(f"forms{eps}", ("symplectic", n, q, None))
        space = dom.space
        rng = random.Random(data.draw(st.integers(0, 2**32 - 1)))
        gens = _random_generators(space, rng)
        word = mat_identity(n)
        for _ in range(data.draw(st.integers(1, 4))):
            word = mat_mul(space.field, word, rng.choice(gens))
        g = SemilinearMap(word)
        assert Permutation(dom.images([g])[0]) == reference_permutation(dom, g)

    @pytest.mark.parametrize("eps", "+-")
    def test_form_action_rejects_non_isometries(self, eps):
        # the forms are mapped forward, Q -> Q o g, and the permutation
        # inverted, which is the action Q -> Q o g^-1 only for isometries:
        # a shear, a similarity and a singular matrix are refused
        dom = _domain(f"forms{eps}", ("symplectic", 4, 4, None))
        shear = tuple(tuple(int(i == j or (i, j) == (0, 2))
                            for j in range(4)) for i in range(4))
        scalar = tuple(tuple(2 * (i == j) for j in range(4))
                       for i in range(4))
        for m in (shear, scalar, ((1, 0, 0, 0),) * 4):
            with pytest.raises(DomainNotPreservedError,
                               match="does not preserve the form"):
                dom.images([SemilinearMap(m)])[0]

    def test_form_action_rejects_twist_and_duality(self):
        dom = _domain("forms-", ("symplectic", 4, 4, None))
        for g in (SemilinearMap(mat_identity(4), twist=1),
                  SemilinearMap(mat_identity(4), duality=True)):
            with pytest.raises(DomainNotPreservedError):
                dom.images([g])[0]
            with pytest.raises(DomainNotPreservedError):
                reference_permutation(dom, g)


# (builtin, action, argument, degree, SHA-256 of emit_group_file of the
# perm_image, SHA-256 of the label lines as `build-action` writes them),
# recorded with the per-label implementation (the last two with the scalar
# form filters); every rewrite of the domains must reproduce them byte for
# byte
_GOLDEN = [
    ('sp6_2', 'singular-points', None, 63,
     "942f66513e70b1952d0a5be7ae9e3cc06f134e0b0ce2f649624c653943220b41",
     "3e33eae1e649b7bafdd0496e63ef1ea954e29586c522d267ae31f02cd15dacef"),
    ('sp6_2', 'maxts', None, 135,
     "14b4b5abd9ee6161721068358ae54aa648791a140698368c61b189351113fd7c",
     "539c25818653b8774ca7a8588e028337c744c6ab59399599a516292561ccdf2c"),
    ('sp6_2', 'forms', '+', 36,
     "3829c2f06287ec683026fc3105031287d393ee3a7813a0dab5b0f89778525111",
     "f76d47650c649b4f1ccc726a910b90d32aa4323354be7b9a85e0706ec45b1330"),
    ('sp6_2', 'forms', '-', 28,
     "1d08980d7650a3cb7e6268fce2e84a591f5d7cb73a937fdba9ab2c8949c0ba9c",
     "f0f5fecb3b95bcaa272b3792bf76dff02cf1df9253c0d671833deac4b8aeb85b"),
    ('sp6_2', 'pairs-le', 1, 1953,
     "d4ab40b910227aa52b5f5017bfe2f4396601b1cf028ad0d78006f6de9a0944e0",
     "8cdee308ebc6ebd5d5b494ab59a833d247b9bcc6bf8e72743fdcc3c8148f3939"),
    ('o8p_2', 'singular-points', None, 135,
     "e535fc6470c83946a6f97f2683f68ff3708589a2594a52e45e9d9d89259cc731",
     "eea2fec711f24ef6e6a2c221cd854cc272185c1c5acc33403e184cffbecb6d62"),
    ('o8p_2', 'ns1', None, 120,
     "38722b943b0d99eb9a067845079a6a35b39bc77cfa80da430f61c83621147360",
     "7c1b77133ed236084a3a713ba0ab9c381d93a679d7f5252751d220664adc1ca8"),
    ('o8p_2', 'aniso2', None, 1120,
     "2ba8f6f05e12dc9b50af030d1244e07c56320e616b07a1564286a70226b036ea",
     "6d26de9e12aacca8b33cdf09461919334804bbd9a486e255c74974def9e53bc1"),
    ('su5_2', 'singular-points', None, 165,
     "1f3d36c4eb65661ec5f9e5be8b33b2b6e411eeda7603f3bf1649b9b97e3372f6",
     "8516f130a8782b9967af4d29a83ee813fc1d835b3c3c178a930c6298abf80fe5"),
    ('su5_2', 'ns1', None, 176,
     "d71e2fb348715ac861a1953738468d4fc37580eacdd8d49a1fb580b75144c77a",
     "f044c17f7dea5a26c4579651994a8432e7183b41eae8ab91589a8906b3abcee0"),
    ('su5_2', 'maxts', None, 297,
     "c80296417d1ec535a66b93619ebfb6c5c49a184580b65cbd083ef098467e6445",
     "b8d4a1ff7524035d53ca4da5b314bc07d6af6fe8022cbc0bbfcd26b1c545e0d9"),
    ('o7_3', 'singular-points', None, 364,
     "19e23bbf942cb1501bf870d721751ebb7ed47cebfef7f439344cb93c9a98ca2b",
     "48f4a39bffb0d349634b328a071e66d05a3c856f37ac04949e2ec97f24e5d5dc"),
    ('o7_3', 'ns1', 'plus', 378,
     "1ccfe7a29344c18bd99d15aa4f6b517419f1befda6e507da2a6ea3511ed1cdc8",
     "3fc3294bb5605c3f2adfa13f68f6ab0e1c63ead08632414c9915c3fa9c41624f"),
    ('o7_3', 'ns1', 'minus', 351,
     "3da186d653ff327610464965b7f649218b61e5e3ded3d65d410787f15843d256",
     "fedfd58d1faed2ec5ccda8b4b1e9a529a098585afee8f39ce9b24c87801fa008"),
    ('sp6_2', 'nd2', None, 336,
     "4784024ccd67195823153aae9f91c230680f09b8b8370b77f06ffb89b6aba211",
     "073652ef1eff71bc3150fe1855cf7da8cac5666a8fc1c45c21695ecf66e538ec"),
    ('o8p_2', 'nd2', None, 5440,
     "ff4c18ba138f4a8a4f7c2c0dd9af30bbe5bd53506790ba0ec53d873fb96f063e",
     "60d5a3bf306b735d385b569b6a25977724721e548aa7b742654c1bf72af91b26"),
    ('su5_2', 'nd2', None, 3520,
     "834ffdbedbd23e25ba2ebbcd847a1653e5b07bcac00511bf49ca679a12b37616",
     "c673bdc182aac9ced67dfe2187c50bb590ee2cfbe3f3547a0805646ccdfcf41f"),
    ('o7_3', 'aniso2', None, 22113,
     "6531a0909fba2036addb1f3e5f4662adf9a4402615b9a42f7d37d710570a3621",
     "58be0914431c243f2311175319df48ce8442cf97cdb9fc3eda7ad7ca462509d8"),
    ('o8p_2', 'maxts', None, 270,
     "b5415879cb45e08b485d873e59042113086e8b944162b2246519df756215e562",
     "7ff2dca5a546a58f38e448da0309d2fb3e257f25d04caf6582de40e78a131d14"),
    ('o7_3', 'maxts', None, 1120,
     "e7ed302db9078d157c2b8a513cd3041d37f485e28c72a2e57fe1b70925bfb167",
     "15282bd7afb22d994f57103f661db3826d4099dcaf02abf96b9e89ff40835bee"),
    ('o7_3', 'nd2', None, 66339,
     "70be37ed147fb8fc4468d2a2c5cbaded012271e496ee70febdd8e32706db94a3",
     "2d3c706b37024cafd47e4455863afe5e9a053434fb78b669346659df74fa17bf"),
    ('sp6_2', 'pairs-perp', 1, 2016,
     "3842d0a4ebd54717796c8ae3d6dc25c0d2a170df7e1412a8b8ec5ed00fa5c04f",
     "07a68c95f799d53affb83cf177a48a6e4b54ab2019cbf87a4fcf8a86dabc2b35"),
    ('sp6_2', 'pairs-le', 2, 22785,
     "2289a64fdd5448e894c8c13bf9ae3ea5e6e564c00082e3a59a605f7dd1db85f1",
     "cff0db13870b65cca402fce88aa6578bcbd942af310ced615ac0cd0266d845bd"),
]


class TestGoldenOutputs:
    @staticmethod
    def _domain(space, action, arg):
        if action == "singular-points":
            return ge.singular_points(space)
        if action == "ns1":
            dom = ge.nondegenerate_points(space)
            return dom[0 if arg == "plus" else 1] \
                if isinstance(dom, tuple) else dom
        if action == "aniso2":
            return ge.anisotropic_2_subspaces(space)
        if action == "maxts":
            return ge.maximal_totally_singular(space)
        if action == "forms":
            return ge.quadratic_forms_polarizing(space, arg)
        if action == "nd2":
            return ge.nondegenerate_2_subspaces(space)
        le, perp = ge.pair_domains(space, arg)
        return le if action == "pairs-le" else perp

    @pytest.mark.parametrize("name, action, arg, degree, grp, labels",
                             _GOLDEN, ids=[f"{name}-{action}-{arg}"
                                           for name, action, arg, *_
                                           in _GOLDEN])
    def test_outputs_are_byte_identical(self, name, action, arg, degree,
                                        grp, labels):
        space, gens = ge.builtin_matrix_group(name)
        dom = self._domain(space, action, arg)
        text = perm.emit_group_file(perm_image(gens, dom))
        label_lines = dom.label_lines()
        lines = "\n".join(label_lines) + "\n"
        assert dom.degree == degree
        # every constructor builds its labels distinct
        assert len(set(label_lines)) == degree
        assert hashlib.sha256(text.encode()).hexdigest() == grp
        assert hashlib.sha256(lines.encode()).hexdigest() == labels

    def test_labels_are_built_only_when_read(self):
        space, gens = ge.builtin_matrix_group("o8p_2")
        le, _perp = ge.pair_domains(standard_form("trivial", 4, 2), 1)
        for dom in (ge.anisotropic_2_subspaces(space),
                    ge.singular_points(space), le):
            lines = dom.label_lines()
            perm_image(gens if dom.kind != "pair" else [], dom)
            assert "labels" not in vars(dom)
            assert list(dom.labels) == sorted(dom.labels)
            assert len(set(dom.labels)) == dom.degree == len(lines)


class TestBatchedImages:
    """perm_image maps all generators at once, in batches: it must give
    each generator's row, as the one-generator case gives it, and raise
    the error of the first generator that does not act."""

    @pytest.mark.parametrize("name, action, arg", [case[:3] for case in
                                                   _GOLDEN],
                             ids=[f"{name}-{action}-{arg}"
                                  for name, action, arg, *_ in _GOLDEN])
    def test_rows_are_the_single_images(self, name, action, arg):
        space, gens = ge.builtin_matrix_group(name)
        dom = TestGoldenOutputs._domain(space, action, arg)
        assert (perm_image(gens, dom).images
                == np.array([dom.images([g])[0] for g in gens])).all()

    def test_twists_and_dualities_among_plain_generators(self):
        # GF(4): the twist is the Frobenius map; on pairs, duality swaps
        # the halves of each pair
        space = standard_form("trivial", 3, 2**2)
        mats = _random_generators(space, random.Random(5))
        gens = [SemilinearMap(mats[0]), SemilinearMap(mats[1], twist=1),
                SemilinearMap(mats[2], duality=True),
                SemilinearMap(mats[0], 1, True), SemilinearMap(mats[2])]
        for dom in ge.pair_domains(space, 1):
            assert perm_image(gens, dom).images.tolist() == [
                list(reference_permutation(dom, g).images) for g in gens]

    def test_the_first_generator_that_does_not_act_is_named(self):
        # the similarity of test_similarity_swaps_ns1_orbits maps labels
        # of NS1+ outside it; a singular matrix maps points to 0
        F = standard_form("quadratic", 8, 3, "+")
        plus, _minus = ge.nondegenerate_points(F)
        outside = SemilinearMap(tuple(
            tuple(2 if i % 2 and i == j else int(i == j) for j in range(8))
            for i in range(8)))
        singular = SemilinearMap(((1,) + (0,) * 7,) * 8)
        plain = SemilinearMap(mat_identity(8))
        label = "generator maps label (0, 0, 0, 0, 0, 0, 1, 1) of domain "
        for gens, message in [
                ([outside, singular], label),
                ([plain, singular, outside], "a singular generator"),
                ([plain, SemilinearMap(singular.matrix, duality=True),
                  outside], "duality does not act"),
                ([plain] * 40 + [outside, singular], label)]:
            with pytest.raises(DomainNotPreservedError) as batched:
                perm_image(gens, plus)
            with pytest.raises(DomainNotPreservedError) as single:
                for g in gens:
                    plus.images([g])[0]
            assert str(batched.value) == str(single.value)
            assert str(batched.value).startswith(message)


class TestCombinatorialActions:
    def test_k_set_action(self):
        G = ge.k_set_action(5, 2)
        assert G.degree == 10 and G.stabilizer_chain().order == 120

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
        assert G.degree == 9 and G.stabilizer_chain().order == 72

    def test_cap(self):
        with pytest.raises(OverflowError):
            ge.product_action(ge.k_set_action(5, 2), 8)


class TestDomainCap:
    """Every constructor refuses a domain past perm.DEFAULT_DOMAIN_CAP
    before it allocates it."""

    @pytest.mark.parametrize("m, k", [(183, 3), (10**6, 500000),
                                      (10**6 + 1, 1), (10**100, 10**100)])
    def test_k_sets_are_refused_before_they_are_listed(self, m, k):
        start = time.perf_counter()
        with pytest.raises(OverflowError, match="cap 1000000$"):
            ge.k_set_action(m, k)
        assert time.perf_counter() - start < 1

    def test_k_sets_at_the_cap(self, monkeypatch):
        monkeypatch.setattr(ge, "DEFAULT_DOMAIN_CAP", math.comb(8, 3))
        assert ge.k_set_action(8, 3).degree == ge.k_set_action(8, 5).degree
        monkeypatch.setattr(ge, "DEFAULT_DOMAIN_CAP", math.comb(8, 3) - 1)
        with pytest.raises(OverflowError,
                           match="^domain size 56 exceeds cap 55$"):
            ge.k_set_action(8, 5)

    @pytest.mark.parametrize("d, r", [(1, 21), (2, 20), (3, 16000000),
                                      (2, 10**50)])
    def test_products_are_refused_before_they_are_built(self, d, r):
        base = perm.symmetric_group(d)
        start = time.perf_counter()
        with pytest.raises(OverflowError, match="cap 1000000$"):
            ge.product_action(base, r)
        assert time.perf_counter() - start < 1

    def test_products_at_the_cap(self, monkeypatch):
        assert ge.product_action(perm.symmetric_group(1), 20).degree == 1
        monkeypatch.setattr(ge, "DEFAULT_DOMAIN_CAP", 81)
        assert ge.product_action(perm.symmetric_group(3), 4).degree == 81
        monkeypatch.setattr(ge, "DEFAULT_DOMAIN_CAP", 80)
        with pytest.raises(OverflowError,
                           match=r"^domain size 3\*\*4 exceeds cap 80$"):
            ge.product_action(perm.symmetric_group(3), 4)

    @pytest.mark.parametrize("prune", ["none", "scalar", "rows", "pairs"])
    def test_subspaces_count_the_kept_bases_exactly(self, monkeypatch,
                                                    prune):
        F = standard_form("trivial", 5, 2)
        row_ok = {"none": None,
                  "scalar": lambda partial, rows: np.True_,
                  "rows": lambda partial, rows: np.ones(len(rows), bool),
                  "pairs": lambda partial, rows:
                      np.ones((len(partial), len(rows)), bool)}[prune]
        total = _gaussian_binomial(5, 2, 2)
        monkeypatch.setattr(ge, "DEFAULT_DOMAIN_CAP", total)
        assert len(ge.subspaces(F, 2, row_ok)) == total
        monkeypatch.setattr(ge, "DEFAULT_DOMAIN_CAP", total - 1)
        with pytest.raises(OverflowError, match="^2-subspace enumeration "
                                                f"exceeds the domain cap "
                                                f"{total - 1}$"):
            ge.subspaces(F, 2, row_ok)

    def test_subspaces_count_only_the_rows_kept(self, monkeypatch):
        # the 13 2-subspaces of the hyperplane x_0 = 0 of GF(3)^4
        F = standard_form("trivial", 4, 3)

        def in_hyperplane(partial, rows):
            return rows[:, 0] == 0

        def nothing(partial, rows):
            return np.zeros((len(partial), len(rows)), bool)

        monkeypatch.setattr(ge, "DEFAULT_DOMAIN_CAP", 13)
        assert len(ge.subspaces(F, 2, in_hyperplane)) == 13
        monkeypatch.setattr(ge, "DEFAULT_DOMAIN_CAP", 12)
        with pytest.raises(OverflowError):
            ge.subspaces(F, 2, in_hyperplane)
        # nothing kept: the empty partial bases are counted as none
        assert ge.subspaces(F, 2, nothing).shape == (0, 2, 4)

    def test_pair_domains_past_the_cap_are_refused_while_counted(self):
        # 2**19 vectors pass the vector enumeration cap; the 2-subspaces,
        # about 9.2e10 of them, are refused before they are listed
        F = standard_form("trivial", 19, 2)
        start = time.perf_counter()
        with pytest.raises(OverflowError, match="2-subspace enumeration"):
            ge.pair_domains(F, 2)
        assert time.perf_counter() - start < 1

    def test_perm_image_refuses_before_any_image(self, monkeypatch):
        space, gens = ge.builtin_matrix_group("sp6_2")
        domain = ge.singular_points(space)
        monkeypatch.setattr(ge, "DEFAULT_DOMAIN_CAP", 62)
        monkeypatch.setattr(ge.ActionDomain, "images",
                            lambda self, gens: pytest.fail("image computed"))
        with pytest.raises(OverflowError,
                           match="^domain size 63 exceeds cap 62$"):
            ge.perm_image(gens, domain)


class TestMatrixFiles:
    def test_round_trip_builtins(self):
        for name in ("sp6_2", "o8p_2", "o7_3", "su5_2"):
            space, gens = ge.builtin_matrix_group(name)
            text = ge.emit_matrix_file(space, gens)
            space2, gens2 = ge.parse_matrix_file(text)
            assert gens2 == gens
            assert space2.kind == space.kind and space2.n == space.n

    def test_generator_script_reproduces_the_builtins(self):
        path = Path(__file__).parents[1] / "scripts"
        spec = importlib.util.spec_from_file_location(
            "make_generator_files", path / "make_generator_files.py")
        script = importlib.util.module_from_spec(spec)
        spec.loader.exec_module(script)
        for name in ("sp6_2", "o8p_2", "o7_3", "su5_2"):
            space, gens = getattr(script, f"build_{name}")()
            shipped = resources.files("regcycles").joinpath(
                "data", f"{name}.mat").read_text(encoding="utf-8")
            assert ge.emit_matrix_file(space, gens) == shipped, name

    def test_builtin_sp6_order(self):
        space, gens = ge.builtin_matrix_group("sp6_2")
        G = perm_image(gens, ge.singular_points(space))
        assert G.stabilizer_chain(2 * 10**6).order == 1451520

    def test_builtins_preserve_forms(self):
        for name in ("o8p_2", "su5_2"):
            space, gens = ge.builtin_matrix_group(name)
            n = space.n
            basis = [tuple(1 if j == i else 0 for j in range(n))
                     for i in range(n)]
            for g in gens[:4]:
                imgs = [apply_vector(g, space, b) for b in basis]
                for i in range(n):
                    for j in range(n):
                        assert bilinear(space, imgs[i], imgs[j]) \
                            == bilinear(space, basis[i], basis[j])

    def test_parse_errors(self):
        with pytest.raises(GroupFileError):
            ge.parse_matrix_file("dim 2\nform trivial\n")
        with pytest.raises(GroupFileError) as exc:
            ge.parse_matrix_file("GF 2 1\ndim 2\nform trivial\ngen\n1 0\n")
        assert exc.value.lineno >= 5  # truncated matrix
        with pytest.raises(GroupFileError):
            ge.parse_matrix_file(
                "GF 2 1\ndim 2\nform trivial\ngen\n1 1\n1 1\n")  # singular
        with pytest.raises(GroupFileError) as exc:
            ge.parse_matrix_file("GF 2 1\ndim 5\nform symplectic\ngen\n"
                                 + "1 0 0 0 0\n" * 5)  # odd dimension
        assert exc.value.lineno == 3
        with pytest.raises(GroupFileError) as exc:
            ge.parse_matrix_file("GF 2 1\ndim 0\nform trivial\ngen\n")
        assert exc.value.lineno == 2
        # a digit that is not a decimal digit, which int() refuses
        with pytest.raises(GroupFileError) as exc:
            ge.parse_matrix_file("GF 2 1\ndim \u00b2\nform trivial\n")
        assert exc.value.lineno == 2

    def test_singular_generator_is_reported_before_later_errors(self):
        # the third matrix has determinant 3 = 0 over GF(3), the fourth is
        # singular too and the fifth block is cut short; the error names
        # the last line of the third block, as the per-generator check did
        text = ("GF 3 1\ndim 3\nform trivial\n# five generators\n"
                "gen\n1 0 0\n0 1 0\n0 0 1\n"
                "gen\n0 1 0\n0 0 1\n1 0 0\n"
                "gen\n1 2 0\n0 1 1\n1 0 1\n\ntwist 0\n"
                "gen\n0 0 0\n0 1 0\n0 0 1\n"
                "gen\n1 0 0\n0 1\n")
        with pytest.raises(GroupFileError) as exc:
            ge.parse_matrix_file(text)
        assert (exc.value.lineno, str(exc.value)) \
            == (18, "line 18: generator matrix is singular")
        # an error before the singular block is reported first
        text = ("GF 3 1\ndim 3\nform trivial\n"
                "gen\n1 0 0\n0 1 0\n0 0 1\n"
                "gen\n0 1 0\n0 0 x\n1 0 0\n"
                "gen\n1 1 0\n1 1 0\n1 0 1\n")
        with pytest.raises(GroupFileError) as exc:
            ge.parse_matrix_file(text)
        assert str(exc.value) == "line 10: non-integer entry"

    # (text, line, message): an integer past int()'s 4300 digits in every
    # integer field of a matrix file, and the entry tokens int() would take
    # though the format does not
    LONG = "9" * 5000
    SHOWN = f"{'9' * 20}... (5000 characters)"
    GEN = "gen\n1 0\n0 1\n"

    @pytest.mark.parametrize("text, line, message", [
        (f"GF {LONG} 1\ndim 2\nform trivial\n{GEN}", 1,
         "field order exceeds cap 512"),
        (f"GF 2 2 1 {LONG} 1\ndim 2\nform trivial\n{GEN}", 1,
         f"integer {SHOWN} is too long"),
        (f"GF 2 1\n# n\ndim {LONG}\nform trivial\n{GEN}", 3,
         f"dim {SHOWN} over GF(2) exceeds the vector enumeration cap "
         f"{ge.VECTOR_ENUM_CAP}"),
        (f"GF 2 1\ndim 2\nform trivial\n{GEN}gen\n1 0\n0 {LONG}\n", 9,
         "entry out of range 0..1"),
        (f"GF 2 2\ndim 2\nform trivial\n{GEN}twist {LONG}\n", 7,
         f"integer {SHOWN} is too long"),
        (f"GF 3 1\ndim 2\nform trivial\ngen\n1 0\n0 2_0\n", 6,
         "non-integer entry"),
        (f"GF 3 1\ndim 2\nform trivial\ngen\n+2 0\n0 1\n", 5,
         "non-integer entry"),
        (f"GF 3 1\ndim 2\nform trivial\ngen\n\u0662 0\n0 1\n", 5,
         "non-integer entry"),
        (f"GF +2 1\ndim 2\nform trivial\n{GEN}", 1,
         "expected an integer, got '+2'"),
    ], ids=["long-p", "long-modulus", "long-dim", "long-entry", "long-twist",
            "underscore-entry", "signed-entry", "arabic-two-entry",
            "signed-p"])
    def test_integers_are_ascii_digit_runs(self, text, line, message):
        with pytest.raises(GroupFileError) as exc:
            ge.parse_matrix_file(text)
        assert (exc.value.lineno, str(exc.value)) \
            == (line, f"line {line}: {message}")

    def test_zeros_in_front_are_allowed(self):
        space, gens = ge.parse_matrix_file(
            "GF 02 002 01 1 001\ndim 02\nform trivial\n"
            f"gen\n01 0\n0 0003\ntwist {'0' * 5000}1\n")
        assert (space.field.q, space.n) == (4, 2)
        assert gens == [ge.SemilinearMap(((1, 0), (0, 3)), 1)]

    def test_twist_and_duality_lines(self):
        text = ("GF 2 2 1 1 1\ndim 2\nform trivial\n"
                "gen\n1 0\n0 1\ntwist 1\nduality\n")
        _space, gens = ge.parse_matrix_file(text)
        assert gens[0].twist == 1 and gens[0].duality

    def test_unknown_builtin(self):
        with pytest.raises(ValueError):
            ge.builtin_matrix_group("nope")
