"""The scalar linear algebra over tuples, as the tests' oracle.

The library has one linear algebra: numpy arrays over the tables of
`geometry.Fq`, whose linear combinations (`ProjectivePoints.combine`) are
one matmul over the prime field.  It enumerates subspaces as arrays, maps
point, subspace and pair domains through one induced permutation of the
projective points and form domains through one table of form values, and
checks matrix files for singular generators with one batched elimination.
The helpers here do the same work the direct way, one element, vector and
label at a time: field arithmetic through `scalars`, Python list views of
the field tables; linear combinations one column at a time through the
add and mul tables (`table_combine`); vectors and matrices as tuples
(`vec_mat`, `mat_mul`, `rref`, `mat_inv`, `span`); the scalar form values
`quad_value`, `bilinear` and `conj`; and the generators that only the
tests use.
"""

import functools
import itertools
from typing import NamedTuple

import numpy as np

from regcycles.geometry import (
    VECTOR_ENUM_CAP,
    DomainNotPreservedError,
    FormSpace,
    Fq,
    SemilinearMap,
    Subspace,
)
from regcycles.perm import Permutation


# ---------------------------------------------------------------------------
# scalar field arithmetic

class ScalarField:
    """Element-by-element arithmetic of one `Fq`, read from Python list
    views of its tables."""

    def __init__(self, field: Fq):
        self.p, self.e, self.q = field.p, field.e, field.q
        self._add = field.add_table.tolist()
        self._mul = field.mul_table.tolist()
        self._inv = [0] + [row.index(1) for row in self._mul[1:]]
        self._neg = [row.index(0) for row in self._add]

    def add(self, a, b):
        return self._add[a][b]

    def neg(self, a):
        return self._neg[a]

    def sub(self, a, b):
        return self._add[a][self._neg[b]]

    def mul(self, a, b):
        return self._mul[a][b]

    def inv(self, a):
        if a == 0:
            raise ZeroDivisionError("inverse of 0")
        return self._inv[a]

    def elt_pow(self, a, k):
        if k < 0:
            a, k = self.inv(a), -k
        r = 1
        while k:
            if k & 1:
                r = self._mul[r][a]
            a = self._mul[a][a]
            k >>= 1
        return r

    def frobenius(self, a, t=1):
        """a ** (p**t)."""
        return self.elt_pow(a, self.p ** (t % self.e))

    def is_square(self, a):
        """Euler's criterion; every element is a square when q is even."""
        if a == 0 or self.p == 2:
            return True
        return self.elt_pow(a, (self.q - 1) // 2) == 1

    def generator(self):
        """Least generator of the multiplicative group."""
        for g in range(2, self.q):
            seen, x = 1, g
            while x != 1:
                x = self._mul[x][g]
                seen += 1
            if seen == self.q - 1:
                return g
        return 1  # q = 2


@functools.cache
def _scalar_field(field: Fq) -> ScalarField:
    return ScalarField(field)


def scalars(K) -> ScalarField:
    """The scalar arithmetic of a field (an `Fq` or a `ScalarField`)."""
    return K if isinstance(K, ScalarField) else _scalar_field(K)


def table_combine(field: Fq, coeffs, rows):
    """sum_i coeffs[..., i] * rows[..., i, :] over the field, with numpy
    broadcasting between the leading axes: one add and one mul table
    gather per column of coefficients."""
    add, mul = field.add_table, field.mul_table
    out = np.zeros(np.broadcast_shapes(coeffs.shape[:-1] + (1,),
                                       rows.shape[:-2] + rows.shape[-1:]),
                   dtype=np.int16)
    for i in range(coeffs.shape[-1]):
        out = add[out, mul[coeffs[..., i, None], rows[..., i, :]]]
    return out


# ---------------------------------------------------------------------------
# vectors, matrices, subspaces

def vec_add(K, u, v):
    K = scalars(K)
    return tuple(K.add(a, b) for a, b in zip(u, v))


def vec_scale(K, c, v):
    K = scalars(K)
    return tuple(K.mul(c, a) for a in v)


def vec_mat(K, v, M):
    """Row vector times matrix."""
    K = scalars(K)
    n = len(M[0])
    out = [0] * n
    for i, vi in enumerate(v):
        if vi:
            row = M[i]
            for j in range(n):
                if row[j]:
                    out[j] = K.add(out[j], K.mul(vi, row[j]))
    return tuple(out)


def mat_mul(K, A, B):
    return tuple(vec_mat(K, row, B) for row in A)


def mat_identity(n):
    return tuple(tuple(1 if i == j else 0 for j in range(n)) for i in range(n))


def mat_transpose(M):
    return tuple(zip(*M))


def rref(K, rows):
    """Reduced row-echelon form; returns (rows without zeros, pivot columns)."""
    K = scalars(K)
    rows = [list(r) for r in rows]
    if not rows:
        return (), ()
    ncols = len(rows[0])
    pivots = []
    r = 0
    for c in range(ncols):
        pivot = next((i for i in range(r, len(rows)) if rows[i][c]), None)
        if pivot is None:
            continue
        rows[r], rows[pivot] = rows[pivot], rows[r]
        inv = K.inv(rows[r][c])
        rows[r] = [K.mul(inv, x) for x in rows[r]]
        for i in range(len(rows)):
            if i != r and rows[i][c]:
                f = rows[i][c]
                rows[i] = [K.sub(x, K.mul(f, y))
                           for x, y in zip(rows[i], rows[r])]
        pivots.append(c)
        r += 1
        if r == len(rows):
            break
    return tuple(tuple(row) for row in rows[:r]), tuple(pivots)


def mat_inv(K, M):
    n = len(M)
    aug = [list(M[i]) + [1 if j == i else 0 for j in range(n)]
           for i in range(n)]
    reduced, pivots = rref(K, aug)
    if pivots[:n] != tuple(range(n)):
        raise ValueError("matrix is singular")
    return tuple(tuple(row[n:]) for row in reduced)


def span(K, vectors) -> Subspace:
    return Subspace(rref(K, list(vectors))[0])


def subspace_contains(K, sub: Subspace, v):
    K = scalars(K)
    v = list(v)
    for row in sub.basis:
        lead = next(i for i, x in enumerate(row) if x)
        if v[lead]:
            c = v[lead]
            v = [K.sub(x, K.mul(c, y)) for x, y in zip(v, row)]
    return not any(v)


def subspace_vectors(K, sub: Subspace):
    """All vectors of the subspace (q**dim of them)."""
    n = len(sub.basis[0]) if sub.basis else 0
    for coeffs in itertools.product(range(K.q), repeat=sub.dim):
        v = tuple([0] * n) if n else ()
        for c, row in zip(coeffs, sub.basis):
            if c:
                v = vec_add(K, v, vec_scale(K, c, row))
        yield v


# ---------------------------------------------------------------------------
# form values and semilinear maps

class _ScalarForm(NamedTuple):
    K: ScalarField
    gram: list
    upper: list | None
    conj: list


@functools.cache
def _scalar_form(space: FormSpace) -> _ScalarForm:
    """The form's matrices as nested lists, and its conjugation as a list
    computed by the scalar Frobenius map."""
    K = scalars(space.field)
    t = space.field.e // 2 if space.kind == "hermitian" else 0
    return _ScalarForm(K, space.gram.tolist(),
                       None if space.upper is None else space.upper.tolist(),
                       [K.frobenius(a, t) for a in range(K.q)])


def conj(space: FormSpace, a):
    """x -> x**q for a hermitian form over GF(q**2), the identity else."""
    return _scalar_form(space).conj[a]


def quad_value(space: FormSpace, v):
    if space.kind != "quadratic":
        raise ValueError("not a quadratic space")
    K, _, upper, _ = _scalar_form(space)
    total = 0
    for i in range(space.n):
        if v[i]:
            row = upper[i]
            for j in range(i, space.n):
                if row[j] and v[j]:
                    total = K.add(total, K.mul(row[j], K.mul(v[i], v[j])))
    return total


def bilinear(space: FormSpace, u, v):
    """Bilinear (or sesquilinear) form value; for quadratic spaces this
    is the polar form Q(u+v) - Q(u) - Q(v); for trivial spaces, the
    plain dot product (used for perps and duality)."""
    K, gram, _, conj = _scalar_form(space)
    total = 0
    for i in range(space.n):
        if u[i]:
            row = gram[i]
            for j in range(space.n):
                if row[j] and v[j]:
                    total = K.add(total, K.mul(row[j],
                                               K.mul(u[i], conj[v[j]])))
    return total


def scalar_gram(space: FormSpace):
    """The Gram matrix of the form built entry by entry: the identity for
    trivial and hermitian spaces, the interleaved hyperbolic pairs
    B(e_2i, e_2i+1) = 1 = -B(e_2i+1, e_2i) for symplectic ones, and the
    polar form Q(e_i + e_j) - Q(e_i) - Q(e_j) for quadratic ones."""
    K, n = scalars(space.field), space.n
    if space.kind in ("trivial", "hermitian"):
        return [list(row) for row in mat_identity(n)]
    g = [[0] * n for _ in range(n)]
    if space.kind == "symplectic":
        for i in range(0, n, 2):
            g[i][i + 1] = 1
            g[i + 1][i] = K.neg(1)
        return g
    basis = mat_identity(n)
    for i in range(n):
        for j in range(n):
            both = quad_value(space, vec_add(K, basis[i], basis[j]))
            g[i][j] = K.sub(K.sub(both, quad_value(space, basis[i])),
                            quad_value(space, basis[j]))
    return g


def least_anisotropic_constant(K):
    """The least a with t**2 + t + a irreducible over the field."""
    K = scalars(K)
    return next(a for a in range(1, K.q)
                if all(K.add(K.add(K.mul(t, t), t), a) for t in range(K.q)))


def apply_vector(g: SemilinearMap, space: FormSpace, v):
    """v -> frobenius^twist(v) * matrix."""
    K = scalars(space.field)
    if g.twist:
        v = tuple(K.frobenius(x, g.twist) for x in v)
    return vec_mat(K, v, g.matrix)


def duality_map(space: FormSpace) -> SemilinearMap:
    """The involution W -> W^perp (with respect to space.gram)."""
    return SemilinearMap(mat_identity(space.n), duality=True)


def sl_generators(n: int, field: Fq):
    """Generators of SL_n(q): the transvections I + z**k * E_{12} for a
    field generator z (one per coefficient of an additive basis) and the
    signed permutation matrix of the n-cycle."""
    if n < 2:
        raise ValueError("need n >= 2")
    K = scalars(field)
    gens = []
    z = K.generator()
    coeff = 1
    for _ in range(K.e):
        rows = [list(row) for row in mat_identity(n)]
        rows[0][1] = coeff
        gens.append(SemilinearMap(tuple(tuple(r) for r in rows)))
        coeff = K.mul(coeff, z)
    cyc = [[0] * n for _ in range(n)]
    for i in range(n - 1):
        cyc[i][i + 1] = 1
    cyc[n - 1][0] = K.neg(1) if n % 2 == 0 else 1
    gens.append(SemilinearMap(tuple(tuple(r) for r in cyc)))
    return gens


# ---------------------------------------------------------------------------
# subspaces and domains, label by label

def subspaces(space: FormSpace, k: int, row_ok=None):
    """Every k-subspace, each once, as its reduced row-echelon `Subspace`,
    lazily and depth first.

    For each choice of pivot columns the rows are filled in order: row i
    has a 1 in its pivot column, zeros before it and in the other pivot
    columns, and free entries elsewhere, the first free column most
    significant.  `row_ok(rows, v)` prunes: when it rejects the next row v
    of the partial basis `rows`, every completion of rows + [v] is
    skipped.
    """
    K, n = space.field, space.n
    if K.q ** n > VECTOR_ENUM_CAP:
        raise OverflowError("subspace enumeration exceeds cap")
    for pivots in itertools.combinations(range(n), k):
        yield from _rref_completions(K, n, pivots, [], row_ok)


def _rref_completions(K, n, pivots, rows, row_ok):
    i = len(rows)
    if i == len(pivots):
        yield Subspace(tuple(rows))
        return
    row = [0] * n
    row[pivots[i]] = 1
    free = [c for c in range(pivots[i] + 1, n) if c not in pivots]
    for values in itertools.product(range(K.q), repeat=len(free)):
        for c, x in zip(free, values):
            row[c] = x
        v = tuple(row)
        if row_ok is None or row_ok(rows, v):
            rows.append(v)
            yield from _rref_completions(K, n, pivots, rows, row_ok)
            rows.pop()


def mat_rank(K, M):
    return len(rref(K, M)[0])


def nullspace(K, M):
    """Canonical basis of the left null space {v : v M = 0}."""
    K = scalars(K)
    reduced, pivots = rref(K, mat_transpose(M))
    n = len(M)
    basis = []
    pivot_set = set(pivots)
    for f in range(n):
        if f in pivot_set:
            continue
        v = [0] * n
        v[f] = 1
        for i, p in enumerate(pivots):
            v[p] = K.neg(reduced[i][f])
        basis.append(tuple(v))
    return rref(K, basis)[0]


def perp(space: FormSpace, sub: Subspace) -> Subspace:
    """Orthogonal complement with respect to the (polar) form."""
    K, n = space.field, space.n
    if not sub.basis:
        return span(K, [tuple(1 if j == i else 0 for j in range(n))
                        for i in range(n)])
    # v in perp iff for each basis row b: sum_j (b G)_j conj(v_j) = 0;
    # applying conj to the equation turns it into a linear system in v.
    gram = _scalar_form(space).gram
    rows = [tuple(conj(space, x) for x in vec_mat(K, b, gram))
            for b in sub.basis]
    return Subspace(nullspace(K, mat_transpose(rows)))


def is_singular_vector(space: FormSpace, v):
    """Whether v is singular: Q(v) = 0 for quadratic spaces, B(v, v) = 0
    for hermitian ones; every vector of a symplectic or trivial space."""
    if space.kind == "quadratic":
        return quad_value(space, v) == 0
    if space.kind == "hermitian":
        return bilinear(space, v, v) == 0
    return True


def polarized_quad_value(space: FormSpace, diag, v):
    """Value at v of the quadratic form with polarization space.gram and
    the given values on the basis vectors (characteristic 2)."""
    K, gram, _, _ = _scalar_form(space)
    total = 0
    n = space.n
    for i in range(n):
        if v[i]:
            total = K.add(total, K.mul(diag[i], K.mul(v[i], v[i])))
            for j in range(i + 1, n):
                if v[j] and gram[i][j]:
                    total = K.add(total, K.mul(gram[i][j],
                                               K.mul(v[i], v[j])))
    return total


def apply_subspace(g: SemilinearMap, space: FormSpace, sub: Subspace):
    """The image of a subspace: the span of its mapped basis, then its
    perp when g carries the duality."""
    mapped = span(space.field, [apply_vector(g, space, b) for b in sub.basis])
    return perp(space, mapped) if g.duality else mapped


def _canonical_point(K, v):
    lead = next(x for x in v if x)
    return tuple(v) if lead == 1 else vec_scale(K, scalars(K).inv(lead), v)


def _apply_label(domain, g, label):
    space = domain.space
    if domain.kind == "point":
        if g.duality:
            raise DomainNotPreservedError(
                f"duality does not act on the point domain {domain.name}")
        return _canonical_point(space.field, apply_vector(g, space, label))
    if domain.kind == "subspace":
        return apply_subspace(g, space, label)
    if domain.kind == "pair":
        a, b = (apply_subspace(g, space, s) for s in label)
        return (a, b) if (a.dim, a.basis) <= (b.dim, b.basis) else (b, a)
    if domain.kind == "form":
        # Q -> Q o g^{-1}; the polar form is preserved, so the image is
        # again determined by its values on the basis vectors
        if g.twist or g.duality:
            raise DomainNotPreservedError(
                "form domains only support plain matrix generators")
        return tuple(polarized_quad_value(space, label, row)
                     for row in mat_inv(space.field, g.matrix))
    raise ValueError(f"no reference action for {domain.kind!r} domains")


def reference_permutation(domain, g: SemilinearMap) -> Permutation:
    """The permutation g induces on a domain, computed label by label."""
    index = {label: i for i, label in enumerate(domain.labels)}
    images = []
    for label in domain.labels:
        j = index.get(_apply_label(domain, g, label))
        if j is None:
            raise DomainNotPreservedError(
                f"generator maps label {label!r} of domain {domain.name} "
                f"outside the domain")
        images.append(j)
    return Permutation(images)


def subspace_intersection_dim(K, a: Subspace, b: Subspace) -> int:
    return a.dim + b.dim - mat_rank(K, list(a.basis) + list(b.basis))


def map_order(space: FormSpace, g: SemilinearMap, cap: int = 10**6) -> int:
    """Order of a twist-free, duality-free map, by repeated multiplication."""
    if g.twist or g.duality:
        raise ValueError("order is only computed for plain matrices")
    K = space.field
    ident = mat_identity(space.n)
    m = g.matrix
    for k in range(1, cap + 1):
        if m == ident:
            return k
        m = mat_mul(K, m, g.matrix)
    raise ArithmeticError("order exceeds cap")


def semisimple_decomposition(x: SemilinearMap, space: FormSpace):
    """(C_V(x), [V, x], l') for a semisimple matrix x.

    C_V(x) is the kernel of x - 1, [V, x] its image, and l' = dim [V, x] is
    the rank of x - 1.  Requires the order of x to be coprime to the field
    characteristic (otherwise V need not split as the direct sum).
    """
    if x.twist or x.duality:
        raise ValueError("decomposition needs a plain matrix")
    K = scalars(space.field)
    order = map_order(space, x)
    if order % K.p == 0:
        raise ValueError(f"order {order} divisible by the characteristic "
                         f"{K.p}: element is not semisimple")
    n = space.n
    diff = tuple(tuple(K.sub(x.matrix[i][j], 1 if i == j else 0)
                       for j in range(n)) for i in range(n))
    image = Subspace(rref(K, diff)[0])
    kernel = Subspace(nullspace(K, diff))
    assert kernel.dim + image.dim == n
    return kernel, image, image.dim
