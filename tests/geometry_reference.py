"""Per-label linear algebra over the geometry module, as test oracles.

The library enumerates subspaces as numpy arrays, maps point, subspace
and pair domains through one induced permutation of the projective
points, and form domains through one table of form values.  The helpers
here do the same work the direct way, one label at a time, with
`vec_mat`, `span`, `perp` and the scalar `FormSpace.quad_value` and
`FormSpace.bilinear`, and also hold the matrix helpers that only the
tests need.
"""

import itertools

from regcycles.geometry import (
    VECTOR_ENUM_CAP,
    DomainNotPreservedError,
    FormSpace,
    SemilinearMap,
    Subspace,
    mat_identity,
    mat_inv,
    mat_mul,
    mat_transpose,
    rref,
    span,
    vec_mat,
    vec_scale,
)
from regcycles.perm import Permutation


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
    rows = [tuple(map(space.conj, vec_mat(K, b, space.gram)))
            for b in sub.basis]
    return Subspace(nullspace(K, mat_transpose(rows)))


def is_singular_vector(space: FormSpace, v):
    """Whether v is singular: Q(v) = 0 for quadratic spaces, B(v, v) = 0
    for hermitian ones; every vector of a symplectic or trivial space."""
    if space.kind == "quadratic":
        return space.quad_value(v) == 0
    if space.kind == "hermitian":
        return space.bilinear(v, v) == 0
    return True


def polarized_quad_value(space: FormSpace, diag, v):
    """Value at v of the quadratic form with polarization space.gram and
    the given values on the basis vectors (characteristic 2)."""
    K = space.field
    total = 0
    n = space.n
    for i in range(n):
        if v[i]:
            total = K.add(total, K.mul(diag[i], K.mul(v[i], v[i])))
            for j in range(i + 1, n):
                if v[j] and space.gram[i][j]:
                    total = K.add(total, K.mul(space.gram[i][j],
                                               K.mul(v[i], v[j])))
    return total


def apply_subspace(g: SemilinearMap, space: FormSpace, sub: Subspace):
    """The image of a subspace: the span of its mapped basis, then its
    perp when g carries the duality."""
    mapped = span(space.field, [g.apply_vector(space, b) for b in sub.basis])
    return perp(space, mapped) if g.duality else mapped


def _canonical_point(K, v):
    lead = next(x for x in v if x)
    return tuple(v) if lead == 1 else vec_scale(K, K.inv(lead), v)


def _apply_label(domain, g, label):
    space = domain.space
    if domain.kind == "point":
        if g.duality:
            raise DomainNotPreservedError(
                f"duality does not act on the point domain {domain.name}")
        return _canonical_point(space.field, g.apply_vector(space, label))
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
    K = space.field
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
