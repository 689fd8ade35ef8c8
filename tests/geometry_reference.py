"""Per-label linear algebra over the geometry module, as test oracles.

The library maps point, subspace and pair domains through one induced
permutation of the projective points.  The helpers here do the same work
the direct way, one label at a time, with `vec_mat`, `span` and
`FormSpace.perp`, and also hold the matrix helpers that only the tests
need.
"""

from regcycles.geometry import (
    DomainNotPreservedError,
    FormSpace,
    SemilinearMap,
    Subspace,
    mat_identity,
    mat_mul,
    mat_rank,
    nullspace,
    rref,
    span,
    vec_scale,
)
from regcycles.perm import Permutation


def apply_subspace(g: SemilinearMap, space: FormSpace, sub: Subspace):
    """The image of a subspace: the span of its mapped basis, then its
    perp when g carries the duality."""
    mapped = span(space.field, [g.apply_vector(space, b) for b in sub.basis])
    return space.perp(mapped) if g.duality else mapped


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
    raise ValueError(f"no reference action for {domain.kind!r} domains")


def reference_permutation(domain, g: SemilinearMap) -> Permutation:
    """The permutation g induces on a point, subspace or pair domain,
    computed label by label."""
    images = []
    for label in domain.labels:
        j = domain.index.get(_apply_label(domain, g, label))
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
