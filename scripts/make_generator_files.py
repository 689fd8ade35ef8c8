"""Regenerate the matrix-generator data files shipped with the package.

Each classical group is built from transvections/reflections with respect
to the package's standard forms:

  * Sp6(2):  symplectic transvections  x -> x + B(x,v) v
  * O8+(2):  orthogonal transvections  x -> x + B(x,v) v  with Q(v) = 1
  * O7(3):   reflections               x -> x - (B(x,v)/Q(v)) v
  * SU5(2):  unitary transvections     x -> x + h(x,v) v  with h(v,v) = 0

Every file is validated before being written: generators preserve the
form, and the induced permutation group is transitive on the natural
point domain (for Sp6(2) the full group order 1451520 is confirmed by
exhaustive enumeration on the 63 projective points).
"""

import itertools
import os
import sys

import numpy as np

sys.path.insert(0, os.path.join(os.path.dirname(__file__), "..", "src"))

from regcycles import geometry as ge  # noqa: E402
from regcycles.geometry import SemilinearMap  # noqa: E402

DATA_DIR = os.path.join(os.path.dirname(__file__), "..", "src",
                        "regcycles", "data")


def all_vectors(space):
    """Every vector of the space, in lexicographic order, as an array."""
    q, n = space.field.q, space.n
    return np.array(list(itertools.product(range(q), repeat=n)),
                    dtype=np.int16)


def transvection(space, v, scale=1, subtract=False):
    """Matrix of x -> x +- scale * B(x, v) * v (row-vector convention)."""
    K = space.field
    v = np.array(v, dtype=np.int16)
    identity = np.eye(space.n, dtype=np.int16)
    # B(e_i, v) for every basis vector e_i
    coeff = K.mul_table[scale, space.pairing(identity, v[None])[:, 0]]
    if subtract:
        coeff = K.neg_table[coeff]
    rows = K.add_table[identity, K.mul_table[coeff[:, None], v]]
    return SemilinearMap(tuple(map(tuple, rows.tolist())))


def check_preserves(space, g):
    matrix = np.array(g.matrix, dtype=np.int16)
    # the images of the basis vectors have the Gram matrix of the form
    if (space.pairing(matrix, matrix) != space.gram).any():
        raise AssertionError("bilinear form not preserved")
    if space.kind == "quadratic":
        vectors = all_vectors(space)
        pts = ge.projective_points(space.field, space.n)
        if (space.values(pts.apply(g, vectors))
                != space.values(vectors)).any():
            raise AssertionError("quadratic form not preserved")


def build_sp6_2():
    space = ge.standard_form("symplectic", 6, 2)
    dom = ge.singular_points(space)
    gens = []
    order = 1
    # grow greedily: any fixed set of transvections can land inside the
    # stabilizer of a quadratic form, so keep adding until the full group
    # order is reached
    for v in itertools.product(range(2), repeat=6):
        if not any(v):
            continue
        cand = gens + [transvection(space, v)]
        chain = ge.perm_image(cand, dom).stabilizer_chain(2 * 10**6)
        new_order = chain.order
        if new_order > order:
            gens, order = cand, new_order
        if order == 1451520:
            break
    assert order == 1451520, order
    for g in gens:
        check_preserves(space, g)
    return space, gens


def build_o8p_2():
    space = ge.standard_form("quadratic", 8, 2, "+")
    vectors = all_vectors(space)
    nonsingular = vectors[space.values(vectors) == 1]
    # every basis direction should be moved by some chosen transvection;
    # a small deterministic slice of the 120 candidates suffices
    chosen = np.concatenate([nonsingular[::11], nonsingular[:3]])
    gens = [transvection(space, v) for v in chosen]
    for g in gens:
        check_preserves(space, g)
    G = ge.perm_image(gens, ge.singular_points(space))
    assert G.is_transitive() and G.is_primitive()
    H = ge.perm_image(gens, ge.nondegenerate_points(space))
    assert H.is_transitive()
    return space, gens


def build_o7_3():
    space = ge.standard_form("quadratic", 7, 3, "o")
    K = space.field
    vectors = all_vectors(space)
    anisotropic = vectors[space.values(vectors) != 0]
    chosen = np.concatenate([anisotropic[::131], anisotropic[:3]])
    gens = [transvection(space, v, scale=K.inv_table[space.values(v)],
                         subtract=True) for v in chosen]
    for g in gens:
        check_preserves(space, g)
    G = ge.perm_image(gens, ge.singular_points(space))
    assert G.is_transitive() and G.is_primitive()
    plus, minus = ge.nondegenerate_points(space)
    assert ge.perm_image(gens, plus).is_transitive()
    assert ge.perm_image(gens, minus).is_transitive()
    return space, gens


def build_su5_2():
    space = ge.standard_form("hermitian", 5, 2)
    vectors = all_vectors(space)
    isotropic = vectors[vectors.any(axis=1)
                        & (space.values(vectors) == 0)]
    chosen = np.concatenate([isotropic[::17], isotropic[:3]])
    gens = [transvection(space, v) for v in chosen]
    for g in gens:
        check_preserves(space, g)
    G = ge.perm_image(gens, ge.singular_points(space))
    assert G.is_transitive() and G.is_primitive()
    H = ge.perm_image(gens, ge.maximal_totally_singular(space))
    assert H.is_transitive()
    return space, gens


def main():
    os.makedirs(DATA_DIR, exist_ok=True)
    for name, builder in (("sp6_2", build_sp6_2),
                          ("o8p_2", build_o8p_2),
                          ("o7_3", build_o7_3),
                          ("su5_2", build_su5_2)):
        space, gens = builder()
        path = os.path.join(DATA_DIR, f"{name}.mat")
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(ge.emit_matrix_file(space, gens))
        # round trip
        with open(path, encoding="utf-8") as fh:
            ge.parse_matrix_file(fh.read())
        print(f"wrote {path} ({len(gens)} generators)")


if __name__ == "__main__":
    main()
