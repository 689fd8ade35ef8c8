"""Finite fields, classical forms, and the permutation actions built on them.

The module has one linear algebra: numpy arrays of field elements.  Every
linear combination of vectors (`ProjectivePoints.combine`: vectors times
a matrix, spans, form values) is one matmul over the prime field GF(p),
an element of GF(p^e) being its e base-p digits and multiplication by it
an e x e matrix over GF(p).  All arithmetic on vectors, matrices and forms
runs on such arrays; the scalar algebra over tuples that the tests compare
against lives in the tests (`tests/geometry_reference.py`).  The module
provides:

  * GF(p^e) with elements encoded as plain ints (base-p coefficient
    vectors, constant term least significant).  `Fq` builds the field's
    addition, multiplication, negation, inverse, square and Frobenius
    tables once, in numpy, with the digits of every element and the
    GF(p)-matrix of multiplication by it, and is the one holder of field
    arithmetic: everything below reads those tables;
  * non-degenerate symplectic, hermitian and quadratic spaces over such
    fields, with a fixed hyperbolic-basis convention;
  * constructors for the point/subspace/form domains that classical groups
    act on (singular points, non-degenerate 1- and 2-subspaces, anisotropic
    2-subspaces, maximal totally singular subspaces, polarizing quadratic
    forms in characteristic 2, flag and complement pairs).  Every domain
    is held as numpy arrays: point domains are masks over the form values
    of the projective points, and every subspace domain comes from the one
    enumerator `subspaces`, which returns the reduced row-echelon bases of
    all k-subspaces as one array, pruned row by row and then masked by the
    same numpy evaluation of the form;
  * conversion of matrix/semilinear generators into `perm.PermGroup`
    instances acting on those domains, with a strict domain-preservation
    check.  The generators' arrays go through whole-array passes: every
    generator of one Frobenius twist is computed as a permutation of the
    projective points (`ProjectivePoints`, numpy arrays over the field
    tables) by one matmul, its matrices side by side; a subspace is held
    as the sorted array of its point indices, so every point, subspace
    and pair domain is mapped by array gathers through those
    permutations, and the images of all generators are looked up at once
    per label position.  Duality maps each image basis to the points
    orthogonal to all its rows.  Form domains map their table of values
    at once, one generator at a time, forward through the generator
    matrix itself, and invert the permutation found.  A single element is
    the one-generator case (`ActionDomain.image`).  The image rows become
    `PermGroup.images`;
  * a plain text file format for matrix generators, read by the line and
    integer readers of the package root (`file_lines`, `read_ints`),
    whose generators are checked for singularity by one batched Gaussian
    elimination (`singular_matrices`).

Caps raise OverflowError before the arrays they guard: `FIELD_CAP` on the
field order, `VECTOR_ENUM_CAP` on q**n and `DEFAULT_DOMAIN_CAP` on every
domain, which `subspaces` applies to the bases it keeps; the first two keep
the float32 matmuls of `combine` and of the pair incidence exact.

Every domain lists its labels in sorted order, so repeated runs build
identical permutation groups.  The label text of `label_lines` formats each
distinct point, basis or form once; the Python label objects (`labels`)
are built only when read.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from functools import cache, cached_property
from typing import NamedTuple

import numpy as np

from . import DEFAULT_DOMAIN_CAP, file_lines, read_ints
from .numtheory import floor_log, is_prime, prime_power
from .perm import GroupFileError, PermGroup

FIELD_CAP = 512
VECTOR_ENUM_CAP = 10**6

# Multiply-adds one matmul of ProjectivePoints.combine does at once; longer
# products run in blocks of coefficient rows.  OpenBLAS splits an sgemm of
# more than about 10**6 multiply-adds across its threads, and on a shared
# 2-vCPU host such a call took about 8 ms against 0.05 ms on one thread.
# perm_image maps as many generators at once as hold about this many
# entries of point vectors and label rows.
_COMBINE_BLOCK = 1 << 19

_field_cache: dict = {}


class DomainNotPreservedError(ValueError):
    """A generator mapped a domain label outside the domain."""


# ---------------------------------------------------------------------------
# fields

class Fq:
    """GF(p^e) = GF(p)[x]/(f) for a monic irreducible f of degree e.

    Elements are ints in range(q) encoding base-p coefficient vectors
    (constant term least significant).  The field is its tables, built once
    in numpy: `add_table` and `mul_table` are (q, q) int16 arrays,
    `neg_table` and `inv_table` map a to -a and 1/a (0 to 0),
    `square_mask` marks the squares and `frobenius_table(t)` maps a to
    a**(p**t).  For the matmul of `ProjectivePoints.combine`,
    `digit_table` (q, e) holds the base-p digits of each element and
    `mul_matrices` (q, e, e) the matrix over GF(p) of multiplication by
    each element b (row s: the digits of x**s * b); these two are float32,
    so that numpy runs the matmul in BLAS, and their entries are integers
    below p.  All tables are read-only.  The default modulus is the least
    monic irreducible, coefficients compared constant term first.
    """

    def __init__(self, p: int, e: int, modulus: tuple[int, ...] | None = None):
        # refuse before p is tested and p**e formed: both take time, and
        # p**e digits, that grow with p and e
        if p > FIELD_CAP or e > FIELD_CAP.bit_length():
            raise OverflowError(f"field order exceeds cap {FIELD_CAP}")
        if not is_prime(p):
            raise ValueError(f"{p} is not prime")
        if e < 1:
            raise ValueError("need e >= 1")
        q = p**e
        if q > FIELD_CAP:
            raise OverflowError(f"field order {q} exceeds cap {FIELD_CAP}")
        if modulus is None:
            # x divides every candidate with constant term 0
            candidates = (tail + (1,) for tail in
                          itertools.product(range(p), repeat=e) if tail[0])
        else:
            modulus = tuple(int(c) % p for c in modulus[:-1]) + (1,)
            if len(modulus) != e + 1:
                raise ValueError("modulus must be monic of degree e")
            candidates = [modulus]
        digits = np.arange(q)[:, None] // p ** np.arange(e) % p
        weights = p ** np.arange(e)
        for modulus in candidates:
            # the digits of x**i * b for every b.  Multiplying by x is one
            # linear map on digit vectors: x**j goes to x**(j+1) for
            # j < e - 1, and x**(e-1) to x**e - f
            step = np.eye(e, k=1, dtype=np.int64)
            step[-1] = np.negative(modulus[:-1])
            shifts = [digits]
            for _ in range(1, e):
                shifts.append(shifts[-1] @ step % p)
            # mul[a, b] = sum_i a_i * (x**i * b)
            mul = np.einsum("ai,ibj->abj", digits, shifts) % p @ weights
            # GF(p)[x]/(f) is a field iff f is irreducible, iff the ring
            # has no zero divisors
            if not (mul[1:, 1:] == 0).any():
                break
        else:
            raise ValueError(f"modulus {modulus} is reducible over GF({p})")
        self.p, self.e, self.q = p, e, q
        self.modulus = modulus
        self.add_table = ((digits[:, None] + digits) % p @ weights) \
            .astype(np.int16)
        self.mul_table = mul.astype(np.int16)
        # digits(a * b) = digits(a) @ mul_matrices[b]
        self.digit_table = digits.astype(np.float32)
        self.mul_matrices = np.stack(shifts, axis=1).astype(np.float32)
        self.square_mask = np.zeros(q, dtype=bool)
        self.square_mask[self.mul_table.diagonal()] = True
        # -a and 1/a for every a (and 0 for a = 0)
        self.neg_table = (self.add_table == 0).argmax(axis=1).astype(np.int16)
        self.inv_table = (self.mul_table == 1).argmax(axis=1).astype(np.int16)
        frob = np.empty((e, q), dtype=np.int16)
        frob[0] = np.arange(q)
        for t in range(1, e):
            frob[t] = frob[t - 1]
            for _ in range(p - 1):
                frob[t] = self.mul_table[frob[t], frob[t - 1]]
        self._frob = frob
        for table in (self.add_table, self.mul_table, self.digit_table,
                      self.mul_matrices, self.square_mask, self.neg_table,
                      self.inv_table, frob):
            table.flags.writeable = False

    def frobenius_table(self, t=1):
        """a -> a ** (p**t) for every element, as a read-only array."""
        return self._frob[t % self.e]

    def __repr__(self):
        return f"Fq({self.p}, {self.e})"


def field_build(p: int, e: int, modulus=None) -> Fq:
    """Build (and cache) GF(p^e) with the default or an explicit modulus."""
    key = (p, e, tuple(modulus) if modulus is not None else None)
    if key not in _field_cache:
        _field_cache[key] = Fq(p, e, modulus)
    return _field_cache[key]


# ---------------------------------------------------------------------------
# matrices and subspaces

def singular_matrices(field: Fq, matrices):
    """Whether each of the (m, n, n) matrices over the field is singular:
    one Gaussian elimination over the field tables for all of them."""
    add, mul = field.add_table, field.mul_table
    a = np.array(matrices, dtype=np.int16)
    rows = np.arange(len(a))
    singular = np.zeros(len(a), dtype=bool)
    for c in range(a.shape[1]):
        # swap the first row with a nonzero entry in column c up to row c;
        # a matrix without one is singular, and its rows no longer matter
        nonzero = a[:, c:, c] != 0
        singular |= ~nonzero.any(axis=1)
        pivot = c + nonzero.argmax(axis=1)
        a[rows, c], a[rows, pivot] = a[rows, pivot], a[rows, c]
        # row i -= (a_ic / a_cc) row c below the pivot
        factor = mul[a[:, c + 1:, c], field.inv_table[a[:, c, c, None]]]
        a[:, c + 1:] = add[a[:, c + 1:],
                           field.neg_table[mul[factor[..., None],
                                               a[:, c, None]]]]
    return singular


class Subspace(NamedTuple):
    """Subspace given by its unique reduced row-echelon basis.  A named
    tuple, so that subspaces and pairs of them sort and hash as plain
    tuples."""

    basis: tuple[tuple[int, ...], ...]

    @property
    def dim(self):
        return len(self.basis)


# ---------------------------------------------------------------------------
# classical form spaces

class FormSpace:
    """A vector space over GF(q0) with a fixed non-degenerate classical form.

    kind is one of "trivial", "symplectic", "hermitian", "quadratic".  For
    quadratic spaces epsilon is "+", "-" or "o".  For hermitian spaces the
    field is GF(q**2), the form is conjugated by the involutory field
    automorphism x -> x**q (`conj_table`), and the Gram matrix is the
    identity.  Quadratic forms are given by an upper-triangular coefficient
    matrix `upper` with Q(v) = sum_{i<=j} upper[i][j] v_i v_j; the polar
    form is derived.  `gram` and `upper` are read-only (n, n) int16 arrays.

    Basis convention: hyperbolic pairs are interleaved, so basis vectors
    2i, 2i+1 form the i-th hyperbolic pair, followed by the anisotropic
    tail (if any).  ``standard_form`` builds these spaces and refuses
    every invalid argument; the constructor takes its arguments as given.
    """

    def __init__(self, kind, n, field: Fq, epsilon=None, upper=None):
        self.kind = kind
        self.n = n
        self.field = field
        self.epsilon = epsilon if kind == "quadratic" else None
        if kind == "hermitian":
            self.q = field.p**(field.e // 2)
            self.conj_table = field.frobenius_table(field.e // 2)
        else:
            self.q = field.q
            self.conj_table = field.frobenius_table(0)
        self.upper = upper
        self.gram = self._derive_gram()
        self.gram.flags.writeable = False
        self.witt_index = self._expected_witt()

    # -- construction helpers ----------------------------------------------

    def _derive_gram(self):
        K, n = self.field, self.n
        if self.kind in ("trivial", "hermitian"):
            # the dot product, for perps and duality, in the trivial case
            return np.eye(n, dtype=np.int16)
        if self.kind == "symplectic":
            gram = np.zeros((n, n), dtype=np.int16)
            pairs = np.arange(0, n, 2)
            gram[pairs, pairs + 1] = 1
            gram[pairs + 1, pairs] = K.neg_table[1]
            return gram
        # quadratic: the polar form B(u, v) = Q(u+v) - Q(u) - Q(v) has
        # 2 upper[i][i] on the diagonal and upper[min][max] off it
        return K.add_table[self.upper, self.upper.T]

    def _expected_witt(self):
        n = self.n
        if self.kind == "trivial":
            return n
        if self.kind == "quadratic":
            return {"+": n // 2, "-": n // 2 - 1,
                    "o": (n - 1) // 2}[self.epsilon]
        return n // 2  # symplectic and hermitian

    # -- form values in bulk ------------------------------------------------

    def _products(self, left, matrix, right):
        """sum_ij left[..., i] matrix[i, j] right[..., j, :] over the field,
        with numpy broadcasting between the leading axes: the one evaluator
        of the form in bulk."""
        pts = projective_points(self.field, self.n)
        return pts.combine(pts.combine(left, matrix), right)

    def values(self, vectors):
        """The form value at each vector v of an (..., n) array: Q(v) for
        quadratic spaces, B(v, v) for hermitian ones, and 0 for symplectic
        and trivial ones, where every vector is singular."""
        if self.kind == "quadratic":
            matrix, right = self.upper, vectors
        elif self.kind == "hermitian":
            matrix, right = self.gram, self.conj_table[vectors]
        else:
            return np.zeros(vectors.shape[:-1], dtype=np.int16)
        return self._products(vectors, matrix, right[..., None])[..., 0]

    @cached_property
    def point_values(self):
        """The form value at each projective point's canonical vector."""
        return self.values(projective_points(self.field, self.n).vectors)

    def pairing(self, left, right):
        """B(u, v) = u G conj(v) for every row u of the (..., k, n) array
        left and every row v of the (..., m, n) array right, as a
        (..., k, m) array; the leading axes broadcast."""
        rows = self.conj_table[right].swapaxes(-1, -2)[..., None, :, :]
        return self._products(left, self.gram, rows)

    def _orthogonal(self, bases, vectors):
        """(S, C) mask: whether each of the (C, n) vectors v is orthogonal
        to every row b of each of the (S, k, n) bases, b G conj(v) = 0."""
        return ~self.pairing(bases, vectors).any(axis=1)


def standard_form(kind, n, q, epsilon=None, modulus=None) -> FormSpace:
    """Build the standard non-degenerate form space of the given kind.

    `q` is the defining parameter: hermitian spaces live over GF(q**2),
    everything else over GF(q).  Conventions: interleaved hyperbolic pairs
    with Q(sum x_i e_i + y_i f_i) = sum x_i y_i plus an anisotropic tail;
    hermitian Gram matrix is the identity.
    """
    fact = prime_power(q)
    if fact is None:
        raise ValueError(f"{q} is not a prime power")
    p, e = fact
    if kind == "hermitian":
        field = field_build(p, 2 * e, modulus)
    else:
        field = field_build(p, e, modulus)
    K = field
    if kind in ("trivial", "hermitian"):
        return FormSpace(kind, n, field)
    if kind == "symplectic":
        if n % 2:
            raise ValueError("symplectic spaces have even dimension")
        return FormSpace(kind, n, field)
    if kind != "quadratic":
        raise ValueError(f"unknown form kind {kind!r}")
    if epsilon not in ("+", "-", "o"):
        raise ValueError("quadratic form needs epsilon in {+, -, o}")
    if epsilon == "o" and n % 2 == 0:
        raise ValueError("epsilon 'o' needs odd dimension")
    if epsilon != "o" and n % 2:
        raise ValueError(f"epsilon {epsilon!r} needs even dimension")
    if epsilon == "o" and p == 2:
        raise ValueError("odd-dimensional quadratic spaces need odd q")
    upper = np.zeros((n, n), dtype=np.int16)
    pairs = n // 2 if epsilon == "+" else (n - 1) // 2 if epsilon == "o" \
        else n // 2 - 1
    upper[2 * np.arange(pairs), 2 * np.arange(pairs) + 1] = 1
    if epsilon == "o":
        upper[n - 1, n - 1] = 1
    elif epsilon == "-":
        # anisotropic plane: z1**2 + z1 z2 + a z2**2 with t**2 + t + a
        # irreducible; pick the least such a, the first column of the
        # table of t**2 + t + a (rows t) without a zero
        t = np.arange(K.q)
        roots = K.add_table[K.add_table[K.mul_table[t, t], t]] == 0
        upper[n - 2, n - 2:] = 1
        upper[n - 1, n - 1] = (~roots.any(axis=0)).argmax()
    upper.flags.writeable = False
    return FormSpace("quadratic", n, field, epsilon, upper=upper)


# ---------------------------------------------------------------------------
# semilinear maps

@dataclass(frozen=True)
class SemilinearMap:
    """v -> frobenius^twist(v) * matrix, optionally composed with the
    duality W -> W^perp (subspace domains only)."""

    matrix: tuple[tuple[int, ...], ...]
    twist: int = 0
    duality: bool = False


# ---------------------------------------------------------------------------
# action domains

def _digits(codes, q, width):
    """The base-q digits of integer codes, first digit most significant, as
    an (len(codes), width) int16 array; `_digits(np.arange(q**w), q, w)`
    lists every vector of length w in lexicographic order."""
    return (codes[:, None] // q ** np.arange(width - 1, -1, -1)
            % q).astype(np.int16)


class ProjectivePoints:
    """The (q**n - 1)/(q - 1) points of PG(n-1, q), as numpy arrays.

    `vectors[i]` is the canonical vector of point i (first nonzero entry
    1); the points are in lexicographic order of these vectors.  `index`
    maps the base-q code of any vector (first entry most significant) to
    the point it spans, and the zero vector to -1.  Field entries are
    int16 and point indices int32.
    """

    def __init__(self, field: Fq, n: int):
        q = field.q
        if q**n > VECTOR_ENUM_CAP:
            raise OverflowError("point enumeration exceeds cap")
        self.field, self.n = field, n
        self._weights = q ** np.arange(n - 1, -1, -1, dtype=np.int64)
        # the canonical vectors with their leading 1 in column j have the
        # codes q**(n-1-j) + r, r < q**(n-1-j); listed from j = n - 1 down
        # they come out in increasing order
        codes = np.concatenate([q**t + np.arange(q**t) for t in range(n)])
        self.vectors = _digits(codes, q, n)
        self.index = np.full(q**n, -1, dtype=np.int32)
        for c in range(1, q):
            self.index[self.codes(field.mul_table[c][self.vectors])] = \
                np.arange(len(codes), dtype=np.int32)
        # shared by every caller through the cache below
        self.vectors.flags.writeable = self.index.flags.writeable = False

    def codes(self, vectors):
        return vectors @ self._weights

    def combine(self, coeffs, rows):
        """sum_i coeffs[..., i] * rows[..., i, :] over the field, with numpy
        broadcasting between the leading axes, as one matmul over GF(p).

        An element is its e base-p digits and multiplication by b is the
        matrix `mul_matrices[b]` over GF(p), so (k, n) rows are one
        (k e, n e) matrix over GF(p) and a coefficient vector is k e
        digits; their matmul, reduced mod p, gives the digits of the sums.
        Rows that are one matrix take a 2-D matmul over the coefficient
        vectors, in blocks of about `_COMBINE_BLOCK` multiply-adds, expanding
        the operand with fewer entries into matrices ((coeffs rows)^T =
        rows^T coeffs^T); other rows take a batched one.  Each sum is an
        integer at most k e (p - 1)**2 <= 19 * 511**2 < 2**24 (k <= n,
        q**n <= VECTOR_ENUM_CAP makes k e <= 19, and p <= FIELD_CAP), so
        float32 holds it exactly.  The result is int16.
        """
        K, (k, n) = self.field, rows.shape[-2:]
        shape = np.broadcast_shapes(coeffs.shape[:-1], rows.shape[:-2]) + (n,)
        if math.prod(rows.shape[:-2]) == 1:
            coeffs = coeffs.reshape(math.prod(coeffs.shape[:-1]), k)
            rows = rows.reshape(k, n)
            if coeffs.size < rows.size:
                return self.combine(rows.T, coeffs.T).T.reshape(shape)
            blocks = min(len(coeffs),
                         -(-len(coeffs) * k * n * K.e**2 // _COMBINE_BLOCK))
            if blocks > 1:
                return np.concatenate([
                    self.combine(part, rows)
                    for part in np.array_split(coeffs, blocks)]).reshape(shape)
            unit = ()
        else:
            unit = (1,)
        # take gathers whole table rows much faster than indexing does
        mats = K.mul_matrices.take(rows, axis=0).swapaxes(-3, -2)
        mats = mats.reshape(mats.shape[:-4] + (k * K.e, n * K.e))
        digits = K.digit_table.take(coeffs, axis=0)
        digits = digits.reshape(coeffs.shape[:-1] + unit + (k * K.e,))
        sums = (digits @ mats).astype(np.int32).reshape(shape + (K.e,))
        sums %= K.p
        elements = sums[..., 0].astype(np.int16)
        for s in range(1, K.e):
            elements += sums[..., s] * K.p**s
        return elements

    def apply(self, g: SemilinearMap, vectors):
        """v -> v^(p^twist) M for every vector of an (..., n) array."""
        vectors = self.field.frobenius_table(g.twist)[vectors]
        return self.combine(vectors, np.array(g.matrix, dtype=np.int16))

    def images(self, generators):
        """The permutations of the points induced by the generators' maps
        v -> v^(p^twist) M, one row each, -1 where a singular map sends a
        point to 0: one combine per twist, its generators' matrices side
        by side as one (n, k n) operand."""
        K, (size, n) = self.field, self.vectors.shape
        out = np.empty((len(generators), size), np.int32)
        twists = [g.twist % K.e for g in generators]
        for t in set(twists):
            at = [i for i, s in enumerate(twists) if s == t]
            mats = np.array([generators[i].matrix for i in at], np.int16)
            vectors = self.combine(K.frobenius_table(t)[self.vectors],
                                   mats.swapaxes(0, 1).reshape(n, -1))
            out[at] = self.index[
                self.codes(vectors.reshape(size, len(at), n))].T
        return out

    def span_points(self, bases):
        """Sorted point indices of the spans of k-row bases, (S, k, n) ->
        (S, (q**k - 1)/(q - 1)): the canonical coefficient vectors of
        PG(k-1, q) times each basis."""
        coeffs = projective_points(self.field, bases.shape[1]).vectors
        # (S, n, k) (k, P) -> (S, n, P): the basis columns times the
        # coefficients, one matmul for all bases
        vectors = self.combine(bases.swapaxes(1, 2), coeffs.T).swapaxes(1, 2)
        return np.sort(self.index[self.codes(vectors)], axis=1)

    def incidence(self, rows):
        """0/1 matrix (S, N) of the point sets given as index rows, float32
        so that products run in BLAS (numpy has none for integers); exact,
        as each sum counts points of PG(n-1, q), fewer than 2**24."""
        inc = np.zeros((len(rows), len(self.vectors)), dtype=np.float32)
        np.put_along_axis(inc, rows, 1, axis=1)
        return inc


@cache
def projective_points(field: Fq, n: int) -> ProjectivePoints:
    return ProjectivePoints(field, n)


def _perp_points(space: FormSpace, bases):
    """Sorted point indices of the perps of the spans of (S, k, n) bases of
    rank k: the points orthogonal to every basis row."""
    pts = projective_points(space.field, space.n)
    _, points = np.nonzero(space._orthogonal(bases, pts.vectors))
    return points.reshape(len(bases), -1).astype(np.int32)


class _RowIndex:
    """Exact lookup of integer rows in a table of distinct rows (each row
    compared as one opaque byte string)."""

    def __init__(self, rows):
        keys = _row_keys(rows)
        self.order = np.argsort(keys)
        self.keys = keys[self.order]

    def find(self, rows):
        """Table position of each row, -1 where the table lacks it (every
        row of another width)."""
        keys = _row_keys(rows)
        if keys.dtype != self.keys.dtype:
            return np.full(len(keys), -1)
        pos = np.searchsorted(self.keys, keys).clip(max=len(self.keys) - 1)
        return np.where(self.keys[pos] == keys, self.order[pos], -1)


def _row_keys(rows):
    rows = np.ascontiguousarray(rows, dtype=np.int32)
    return rows.view(np.dtype((np.void, 4 * rows.shape[1]))).ravel()


def _lex_sorted(rows):
    """The order that sorts an array by its entries after the first axis,
    compared lexicographically, and whether two of those entries are
    equal."""
    flat = rows.reshape(len(rows), int(np.prod(rows.shape[1:])))
    # entries of size 0 (the bases of the zero subspace) are all equal
    order = np.lexsort(flat.T[::-1]) if flat.size else np.arange(len(flat))
    flat = flat[order]
    return order, bool((flat[1:] == flat[:-1]).all(axis=1).any())


def subspaces(space: FormSpace, k: int, row_ok=None):
    """Every k-subspace of the underlying vector space, each exactly once,
    as the (S, k, n) int16 array of their reduced row-echelon bases.

    For each choice of pivot columns the rows are filled in order: row i
    has a 1 in its pivot column, zeros before it and in the other pivot
    columns, and free entries elsewhere, the first free column most
    significant.  All partial bases of a pivot choice grow one row at a
    time.  `row_ok(partial, rows)` prunes: it maps the (S, i, n) partial
    bases and the (C, n) candidate next rows to an (S, C) mask (or one that
    broadcasts to it), and a rejected row is never extended.  The kept
    pairs, taken in row-major order, list the bases depth first; they are
    counted against the domain cap, partial or whole, before they are listed.
    """
    K, n = space.field, space.n
    if K.q ** n > VECTOR_ENUM_CAP:
        raise OverflowError("subspace enumeration exceeds cap")
    found, done = [np.zeros((0, k, n), dtype=np.int16)], 0
    for pivots in itertools.combinations(range(n), k):
        bases = np.zeros((1, 0, n), dtype=np.int16)
        for c in pivots:
            free = [j for j in range(c + 1, n) if j not in pivots]
            rows = np.zeros((K.q ** len(free), n), dtype=np.int16)
            rows[:, c] = 1
            rows[:, free] = _digits(np.arange(len(rows)), K.q, len(free))
            keep = np.asarray(True if row_ok is None else row_ok(bases, rows))
            shape = (len(bases), len(rows))
            # the broadcast repeats each entry of keep equally often
            if done + np.count_nonzero(keep) * math.prod(shape) \
                    // max(keep.size, 1) > DEFAULT_DOMAIN_CAP:
                raise OverflowError(f"{k}-subspace enumeration exceeds the "
                                    f"domain cap {DEFAULT_DOMAIN_CAP}")
            s, r = np.nonzero(np.broadcast_to(keep, shape))
            bases = np.concatenate([bases[s], rows[r, None]], axis=1)
        found.append(bases)
        done += len(bases)
    return np.concatenate(found)


class ActionDomain:
    """A sorted domain of labels with a uniform action of semilinear maps.
    kind is one of "point", "subspace", "pair", "form".

    A label is a tuple of r components (r = 2 for pairs, else 1): point
    vectors, reduced row-echelon bases or form values.  The domain is
    given, per position, an array of the distinct components found there
    and the (degree, r) array of each label's component indices.  It keeps
    each component array sorted lexicographically (as (m, rows, n) bases),
    and the index rows sorted lexicographically, so the labels come in
    sorted order.  The Python labels (`labels`) are built only when read.
    """

    def __init__(self, name, kind, space: FormSpace, components, members):
        self.name = name
        self.kind = kind
        self.space = space
        self.components, columns, repeats = [], [], False
        for comps, column in zip(components, np.asarray(members).T):
            order, repeated = _lex_sorted(comps)
            rank = np.empty(len(order), dtype=np.int32)
            rank[order] = np.arange(len(order), dtype=np.int32)
            bases = comps if comps.ndim == 3 else comps[:, None]
            self.components.append(bases[order])
            columns.append(rank[column])
            repeats |= repeated
        members = np.stack(columns, axis=1)
        order, repeated = _lex_sorted(members)
        self.members = members[order]
        if repeats or repeated:
            raise ValueError("duplicate labels")

    @property
    def degree(self):
        return len(self.members)

    @cached_property
    def labels(self):
        """The labels in domain order: tuples of ints for point and form
        domains, `Subspace`s, and pairs of `Subspace`s."""
        columns = []
        for comps, column in zip(self.components, self.members.T.tolist()):
            if self.kind in ("point", "form"):
                items = list(map(tuple, comps[:, 0].tolist()))
            else:
                items = [Subspace(tuple(map(tuple, basis)))
                         for basis in comps.tolist()]
            columns.append(map(items.__getitem__, column))
        labels = zip(*columns)
        if self.kind == "pair":
            return tuple(labels)
        return tuple(label for label, in labels)

    @cached_property
    def _parts(self):
        """For each position the sorted point-index rows of its components
        and their lookup; then the lookup of the member rows, which only a
        pair domain needs: with one position the members are 0, 1, ...,
        since no label repeats.  A form domain has no positions: its
        components themselves are looked up."""
        if self.kind == "form":
            return [], _RowIndex(self.components[0][:, 0])
        pts = projective_points(self.space.field, self.space.n)
        parts = []
        for comps in self.components:
            rows = pts.span_points(comps)
            parts.append((rows, _RowIndex(rows)))
        return parts, _RowIndex(self.members) if len(parts) > 1 else None

    def image(self, g: SemilinearMap) -> np.ndarray:
        """The image row of the permutation g induces on the labels."""
        return self.images([g])[0]

    def images(self, generators) -> np.ndarray:
        """The image rows of the permutations the generators induce on the
        labels, one row each.  Point, subspace and pair domains map the
        point sets of their components through the point permutations of
        all the generators at once (``ProjectivePoints.images``), in
        batches of about _COMBINE_BLOCK entries of point and label rows;
        form domains map their table of values, one generator at a time.

        The error raised is the first generator's that does not act, in
        the order given; within one generator, a duality on a point
        domain comes first, then a singular map, then a label mapped
        outside the domain."""
        if self.kind == "form":
            return self._form_rows(generators)
        if self.kind not in ("point", "subspace", "pair"):
            raise ValueError(f"unknown domain kind {self.kind!r}")
        if not self.degree:
            for g in generators:
                if why := self._refusal(g, False):
                    raise DomainNotPreservedError(why)
            return np.empty((len(generators), 0), np.intp)
        pts = projective_points(self.space.field, self.space.n)
        per = pts.vectors.size + sum(rows.size for rows, _ in self._parts[0])
        step = max(1, _COMBINE_BLOCK // per)
        out = np.empty((len(generators), self.degree), np.intp)
        for a in range(0, len(generators), step):
            batch = generators[a:a + step]
            points = pts.images(batch)
            why = list(map(self._refusal, batch, (points < 0).any(axis=1)))
            # the generators before the first that does not act on points
            acts = next((i for i, w in enumerate(why) if w), len(batch))
            out[a:a + acts] = self._member_rows(batch[:acts], points)
            self._refuse_outside(out[a:a + acts])
            if acts < len(batch):
                raise DomainNotPreservedError(why[acts])
        return out

    def _refusal(self, g: SemilinearMap, singular) -> str | None:
        """Why g does not act on the points of the domain, if it does not."""
        if g.duality and self.kind == "point":
            return f"duality does not act on the point domain {self.name}"
        if singular:
            return f"a singular generator does not act on {self.name}"
        return None

    def _member_rows(self, generators, points):
        """The image rows of generators that act on the points, from the
        first rows of their point permutations: at each position, the
        sorted image point sets of the plain generators and the perps of
        the dualities' image bases, found in one lookup; then the pairs
        of component images, found among the members in one more."""
        parts, lookup = self._parts
        pts = projective_points(self.space.field, self.space.n)
        plain = [k for k, g in enumerate(generators) if not g.duality]
        dual = [k for k, g in enumerate(generators) if g.duality]
        moved = np.empty((len(generators), self.degree, len(parts)), np.intp)
        for j, (rows, target) in enumerate(parts):
            # duality sends W to W^perp, which swaps the halves of a pair;
            # the perp of the image is read from the image of the basis
            i, width = len(parts) - 1 - j, rows.shape[1]
            images = [np.sort(points[plain][:, rows], axis=2)
                      .reshape(-1, width)]
            for k in dual:
                perp = _perp_points(self.space, pts.apply(generators[k],
                                                          self.components[i]))
                # a perp of another dimension is no label: rows of -1
                images.append(perp if perp.shape[1] == width
                              else np.full((len(perp), width), -1))
            found = target.find(np.concatenate(images))
            plain_found = found[:len(plain) * len(rows)].reshape(-1, len(rows))
            moved[plain, :, j] = plain_found[:, self.members[:, j]]
            dual_found = found[len(plain) * len(rows):].reshape(
                len(dual), len(self.components[i]))
            moved[dual, :, j] = dual_found[:, self.members[:, i]]
        if lookup is None:
            return moved[..., 0]
        return lookup.find(moved.reshape(-1, len(parts))).reshape(
            len(generators), self.degree)

    def _form_rows(self, generators):
        """The image rows of generators on a form domain, one at a time."""
        out = np.empty((len(generators), self.degree), np.intp)
        lookup = self._parts[1]
        for k, g in enumerate(generators):
            if g.twist or g.duality:
                raise DomainNotPreservedError(
                    "form domains only support plain matrix generators")
            images = lookup.find(
                self._form_images(g, self.components[0][:, 0]))
            self._refuse_outside(images)
            # the forms were mapped by Q -> Q o g, the inverse of the action
            out[k] = np.argsort(images)
        return out

    def _refuse_outside(self, rows):
        """Raise for the first label that a row maps to -1, rows in order."""
        outside = np.flatnonzero(rows.ravel() < 0)
        if outside.size:
            raise DomainNotPreservedError(
                f"generator maps label "
                f"{self.labels[outside[0] % self.degree]!r} of domain "
                f"{self.name} outside the domain")

    def _form_images(self, g: SemilinearMap, table):
        # Q -> Q o g, whose inverse is the action Q -> Q o g^{-1}; so no
        # inverse matrix is needed.  When g preserves the polar form G,
        # Q o g has polar form G again, and for the form with the values
        # L_i on the basis vectors it takes at e_j g = m_j the value
        # sum_i L_i m_ji^2 (characteristic 2) plus the cross term
        # sum_{i < i'} G_ii' m_ji m_ji', which is the same for every label
        space = self.space
        K = space.field
        m = np.array(g.matrix, dtype=np.int16)
        if (space.pairing(m, m) != space.gram).any():
            raise DomainNotPreservedError(
                f"generator does not preserve the form of {self.name}")
        cross = space._products(m, np.triu(space.gram, 1), m[..., None])[:, 0]
        squares = K.mul_table[m, m]
        pts = projective_points(K, space.n)
        return K.add_table[pts.combine(table, squares.T), cross]

    def label_lines(self):
        """One canonical textual label per line, for cross-tool diffing:
        the entries of a row joined by spaces, the rows of a basis by ";"
        and the two halves of a pair by " | ".  Each distinct component is
        formatted once."""
        columns = []
        for comps, column in zip(self.components, self.members.T.tolist()):
            text = [";".join(" ".join(map(str, row)) for row in basis)
                    for basis in map(np.ndarray.tolist, comps)]
            columns.append(map(text.__getitem__, column))
        return list(map(" | ".join, zip(*columns)))


def perm_image(generators, domain: ActionDomain) -> PermGroup:
    """Permutation group induced by the generators on the domain.

    Raises DomainNotPreservedError if any generator moves a label outside
    the domain (e.g. a similarity swapping the two orbits on non-degenerate
    points)."""
    if domain.degree > DEFAULT_DOMAIN_CAP:
        raise OverflowError(f"domain size {domain.degree} exceeds cap "
                            f"{DEFAULT_DOMAIN_CAP}")
    return PermGroup(domain.degree, domain.images(list(generators)))


# -- the individual domains --------------------------------------------------

def _domain(name, kind, space: FormSpace, items) -> ActionDomain:
    """The domain whose labels are the distinct items of one array."""
    return ActionDomain(name, kind, space, [items],
                        np.arange(len(items))[:, None])


def singular_points(space: FormSpace) -> ActionDomain:
    """Totally singular 1-subspaces (all projective points for trivial and
    symplectic forms)."""
    vectors = projective_points(space.field, space.n).vectors
    return _domain(f"singular-points[{space.kind},{space.n},{space.q}]",
                   "point", space, vectors[space.point_values == 0])


def nondegenerate_points(space: FormSpace):
    """Non-degenerate 1-subspaces: the points with a nonzero form value.

    For quadratic spaces over odd q the group has two orbits, split by
    whether Q(v) is a square; returns (NS1+, NS1-).  For quadratic spaces
    over even q (non-singular points) and hermitian spaces there is a
    single orbit; returns one domain.
    """
    if space.kind not in ("quadratic", "hermitian"):
        raise ValueError("non-degenerate points need a quadratic or "
                         "hermitian space")
    K = space.field
    vectors = projective_points(K, space.n).vectors
    values = space.point_values
    base = f"{space.kind},{space.n},{space.q}"
    if space.kind == "quadratic" and K.q % 2:
        square = K.square_mask[values]
        return (_domain(f"ns1+[{base}]", "point", space,
                        vectors[square & (values != 0)]),
                _domain(f"ns1-[{base}]", "point", space, vectors[~square]))
    return _domain(f"ns1[{base}]", "point", space, vectors[values != 0])


def anisotropic_2_subspaces(space: FormSpace) -> ActionDomain:
    """2-subspaces containing no nonzero singular vector (quadratic only):
    every one of their points has a nonzero value."""
    if space.kind != "quadratic":
        raise ValueError("anisotropic 2-subspaces need a quadratic space")
    pts = projective_points(space.field, space.n)
    values = space.point_values
    bases = subspaces(space, 2, lambda partial, rows:
                      values[pts.index[pts.codes(rows)]] != 0)
    return _domain(f"aniso2[{space.epsilon},{space.n},{space.q}]",
                   "subspace", space,
                   bases[(values[pts.span_points(bases)] != 0).all(axis=1)])


def nondegenerate_2_subspaces(space: FormSpace) -> ActionDomain:
    """Non-degenerate 2-subspaces (the form restricts non-degenerately):
    the Gram block B(u_a, u_b) of their basis has a nonzero determinant."""
    mul = space.field.mul_table
    bases = subspaces(space, 2)
    block = space.pairing(bases, bases)  # (S, 2, 2)
    nondegenerate = mul[block[:, 0, 0], block[:, 1, 1]] \
        != mul[block[:, 0, 1], block[:, 1, 0]]
    return _domain(f"nondeg2[{space.kind},{space.n},{space.q}]",
                   "subspace", space, bases[nondegenerate])


def maximal_totally_singular(space: FormSpace) -> ActionDomain:
    """Totally singular subspaces of dimension equal to the Witt index."""
    if space.kind == "trivial":
        raise ValueError("need a non-trivial form")
    name = f"maxts[{space.kind},{space.epsilon},{space.n},{space.q}]"
    if space.witt_index == 0:
        raise ValueError(f"{name}: the form has Witt index 0, so it has no "
                         "nonzero totally singular subspace")
    pts = projective_points(space.field, space.n)
    singular = space.point_values == 0

    def extends(partial, rows):
        # singular rows, pairwise orthogonal, span a totally singular space
        return singular[pts.index[pts.codes(rows)]] \
            & space._orthogonal(partial, rows)

    return _domain(name, "subspace", space,
                   subspaces(space, space.witt_index, extends))


def quadratic_forms_polarizing(space: FormSpace, epsilon: str) -> ActionDomain:
    """All quadratic forms of type epsilon whose polarization is the given
    symplectic form (characteristic 2 only).

    A form is labeled by its values on the basis vectors; the symplectic
    group acts by Q -> Q o g^{-1}.  The two types together exhaust the
    q**n polarizing forms.  The type is the Arf invariant: on the
    hyperbolic pairs (e_2i, e_2i+1), Q is of + type iff the absolute trace
    of sum_i Q(e_2i) Q(e_2i+1) is 0.
    """
    K = space.field
    if space.kind != "symplectic" or K.p != 2:
        raise ValueError("polarizing forms need a symplectic space in "
                         "characteristic 2")
    if epsilon not in ("+", "-"):
        raise ValueError("epsilon must be '+' or '-'")
    n, q = space.n, K.q
    if q**n > VECTOR_ENUM_CAP:
        raise OverflowError("polarizing form enumeration exceeds cap")
    add, mul = K.add_table, K.mul_table
    diag = _digits(np.arange(q**n), q, n)
    arf = trace = np.zeros(len(diag), dtype=np.int16)
    for i in range(0, n, 2):
        arf = add[arf, mul[diag[:, i], diag[:, i + 1]]]
    for _ in range(K.e):
        trace = add[trace, arf]
        arf = mul[arf, arf]
    return _domain(f"forms{epsilon}[{space.n},{space.q}]", "form", space,
                   diag[(trace == 0) == (epsilon == "+")])


def pair_domains(space: FormSpace, k: int):
    """(Omega_{k,<=}, Omega_{k,perp}): unordered pairs {W, U} with
    dim W = k, dim U = n - k, and W <= U resp. W + U = V."""
    n = space.n
    if not 1 <= k < n / 2:
        raise ValueError("need 1 <= k < n/2")
    small, big = subspaces(space, k), subspaces(space, n - k)
    pts = projective_points(space.field, n)
    # |pts(W) & pts(U)| for every W, U: W <= U when it is all of pts(W),
    # and, as dim W + dim U = n, W + U = V when it is 0
    small_pts = pts.span_points(small)
    meet = pts.incidence(small_pts) @ pts.incidence(pts.span_points(big)).T
    base = f"{n},{k},{space.q}"
    return (ActionDomain(f"pairs-le[{base}]", "pair", space, [small, big],
                         np.argwhere(meet == small_pts.shape[1])),
            ActionDomain(f"pairs-perp[{base}]", "pair", space, [small, big],
                         np.argwhere(meet == 0)))


# ---------------------------------------------------------------------------
# combinatorial actions

def k_set_action(m: int, k: int) -> PermGroup:
    """Sym(m) acting on k-subsets, generated by an m-cycle and (1 2)."""
    if not 1 <= k <= m:
        raise ValueError("need 1 <= k <= m")
    # the generators have m entries, and C(m, j) >= 2**j for j <= m/2
    cap = DEFAULT_DOMAIN_CAP
    if m > cap:
        raise OverflowError(f"{m} points exceed the domain cap {cap}")
    j = min(k, m - k)
    if j > cap.bit_length():
        raise OverflowError(f"domain size C({m}, {k}) exceeds cap {cap}")
    if (size := math.comb(m, j)) > cap:
        raise OverflowError(f"domain size {size} exceeds cap {cap}")
    subsets = sorted(itertools.combinations(range(m), k))
    index = {s: i for i, s in enumerate(subsets)}
    cycle = [(i + 1) % m for i in range(m)]
    swap = list(range(m))
    if m >= 2:
        swap[0], swap[1] = 1, 0
    return PermGroup(len(subsets), [
        [index[tuple(sorted(base[x] for x in s))] for s in subsets]
        for base in (cycle, swap)])


def k_set_labels(m: int, k: int):
    return [" ".join(str(x + 1) for x in s)
            for s in sorted(itertools.combinations(range(m), k))]


def product_action(base: PermGroup, r: int) -> PermGroup:
    """Wreath product of the base group with Sym(r) in product action.

    Degree is (base degree)**r.  Generators: each base generator acting on
    the first coordinate, plus the coordinate r-cycle (and a coordinate
    transposition when r >= 3), which together generate base wr Sym(r).
    """
    if r < 1:
        raise ValueError("need r >= 1")
    d, cap = base.degree, DEFAULT_DOMAIN_CAP
    # d**r > cap for every d >= 2 and r past the cap's bit length, and the
    # one r-tuple of d = 1 has r entries: r is refused before d**r is formed
    most = cap.bit_length()
    if d == 1 and r > most:
        raise OverflowError(f"r = {r} exceeds {most}, the most coordinates "
                            f"within the domain cap {cap}")
    if r > most or d**r > cap:
        raise OverflowError(f"domain size {d}**{r} exceeds cap {cap}")
    if r == 1:
        return base
    # the r-tuples in lexicographic order, one coordinate per row; a tuple
    # is at the index of its base-d digits
    dims = (d,) * r
    t = np.indices(dims).reshape(r, -1)
    rows = [np.ravel_multi_index((g[t[0]], *t[1:]), dims)
            for g in base.images]
    rows.append(np.ravel_multi_index((*t[1:], t[0]), dims))
    if r >= 3:
        rows.append(np.ravel_multi_index((t[1], t[0], *t[2:]), dims))
    return PermGroup(d**r, rows)


def product_labels(base_labels, r: int):
    return [" | ".join(t)
            for t in itertools.product([str(x) for x in base_labels],
                                       repeat=r)]


# ---------------------------------------------------------------------------
# matrix generator files

def parse_matrix_file(text: str):
    """Parse a matrix-generator file; returns (FormSpace, [SemilinearMap]).

    Format: `GF p e [c0 c1 ... ce]`, `dim n`, `form kind [epsilon]`, then
    per generator a `gen` line followed by n rows of n field elements,
    optionally followed by `twist t` and/or `duality` lines.  `#` starts a
    comment, and every integer is read by `read_ints`.  A malformed
    file raises `perm.GroupFileError` with its line.
    """
    lines, end = file_lines(text)
    wanted, rows, gens, linenos, error = "GF header", None, [], [], None
    try:
        for lineno, line in lines:
            parts = line.split()
            if wanted == "matrix row":
                if len(parts) != n:
                    raise ValueError(f"expected {n} entries")
                rows.append(tuple(read_ints(parts, field.q - 1,
                                            "non-integer entry", past_q)))
                wanted = "matrix row" if len(rows) < n else "gen"
            elif rows and parts[0] == "duality":
                duality = True
            elif rows and parts[0] == "twist":
                if len(parts) != 2:
                    raise ValueError("expected 'twist t'")
                [twist] = read_ints(parts[1:], bad="expected 'twist t'")
            elif wanted == "GF header":
                if parts[0] != "GF" or len(parts) < 3:
                    raise ValueError("expected 'GF p e [modulus...]'")
                p, e = read_ints(parts[1:3], FIELD_CAP,
                                 over=f"field order exceeds cap {FIELD_CAP}")
                modulus = tuple(read_ints(parts[3:])) or None
                field = field_build(p, e, modulus)
                past_q = f"entry out of range 0..{field.q - 1}"
                wanted = "dim"
            elif wanted == "dim":
                no_dim = "expected 'dim n' with n >= 1"
                if parts[0] != "dim" or len(parts) != 2:
                    raise ValueError(no_dim)
                # every domain refuses q**n past the cap; refuse it here,
                # before the form's (n, n) Gram matrix is built
                most = floor_log(VECTOR_ENUM_CAP, field.q)
                [n] = read_ints(parts[1:], most, no_dim,
                                f"dim {{}} over GF({field.q}) exceeds the "
                                f"vector enumeration cap {VECTOR_ENUM_CAP}")
                if n < 1:
                    raise ValueError(no_dim)
                wanted = "form"
            elif wanted == "form":
                if parts[0] != "form" or len(parts) not in (2, 3):
                    raise ValueError("expected 'form kind [epsilon]'")
                kind, epsilon = (parts[1:] + [None])[:2]
                if kind == "hermitian" and field.e % 2:
                    raise ValueError("hermitian form needs GF(q**2)")
                q = math.isqrt(field.q) if kind == "hermitian" else field.q
                space = standard_form(kind, n, q, epsilon, modulus=modulus)
                wanted = "gen"
            else:
                # a generator's block ends at the next `gen` line
                if rows:
                    gens.append(SemilinearMap(tuple(rows), twist, duality))
                    linenos.append(last)
                if line != "gen":
                    raise ValueError(f"expected 'gen', got {line!r}")
                rows, twist, duality, wanted = [], 0, False, "matrix row"
            last = lineno
        lineno = end
        if wanted != "gen":
            raise ValueError(f"unexpected end of file (wanted {wanted})")
        if rows:
            gens.append(SemilinearMap(tuple(rows), twist, duality))
            linenos.append(last)
    except (ValueError, OverflowError) as exc:
        error = GroupFileError(lineno, str(exc))
    # one elimination for every generator read; a singular one is reported
    # before any later error, at the last line of its block
    if gens:
        singular = np.flatnonzero(
            singular_matrices(field, [g.matrix for g in gens]))
        if singular.size:
            raise GroupFileError(linenos[singular[0]],
                                 "generator matrix is singular")
    if error is not None:
        raise error
    if not gens:
        raise GroupFileError(end, "no generators")
    return space, gens


def builtin_matrix_group(name: str):
    """Load one of the shipped generator files (sp6_2, o8p_2, o7_3, su5_2);
    returns (FormSpace, [SemilinearMap])."""
    from importlib import resources

    ref = resources.files("regcycles").joinpath("data", f"{name}.mat")
    try:
        text = ref.read_text(encoding="utf-8")
    except FileNotFoundError:
        raise ValueError(f"no builtin matrix group named {name!r}") from None
    return parse_matrix_file(text)


def emit_matrix_file(space: FormSpace, gens) -> str:
    field = space.field
    out = [f"GF {field.p} {field.e} " + " ".join(str(c)
                                                 for c in field.modulus)]
    out.append(f"dim {space.n}")
    out.append(f"form {space.kind}"
               + (f" {space.epsilon}" if space.epsilon else ""))
    for g in gens:
        out.append("gen")
        for row in g.matrix:
            out.append(" ".join(str(x) for x in row))
        if g.twist:
            out.append(f"twist {g.twist}")
        if g.duality:
            out.append("duality")
    return "\n".join(out) + "\n"
