"""A deterministic corpus of small permutation groups (degree <= 50,
order <= 10**5) used by the bulk equivalence and reduction tests.

The mix deliberately includes intransitive, imprimitive (wreath),
product-action, affine, and projective examples so the regular-cycle
tests see many different cycle structures, and groups that fix the first
points of their domain, whose stabilizer chains start past point 0.
"""

import itertools

from regcycles import geometry, perm
from regcycles.perm import PermGroup, Permutation

MAX_DEGREE = 50
MAX_ORDER = 10**5


def dihedral(m: int) -> PermGroup:
    rot = Permutation(tuple(range(1, m)) + (0,))
    ref = Permutation(tuple((m - i) % m for i in range(m)))
    return PermGroup(m, [rot, ref])


def set_action(G: PermGroup, k: int) -> PermGroup:
    """The action of G on k-subsets of its domain."""
    subsets = sorted(itertools.combinations(range(G.degree), k))
    index = {s: i for i, s in enumerate(subsets)}
    gens = []
    for g in G.generators:
        gens.append(Permutation(
            [index[tuple(sorted(g.images[x] for x in s))] for s in subsets]))
    return PermGroup(len(subsets), gens)


def ordered_pairs_action(m: int) -> PermGroup:
    pairs = [(a, b) for a in range(m) for b in range(m) if a != b]
    index = {t: i for i, t in enumerate(pairs)}
    G = perm.symmetric_group(m)
    gens = [Permutation([index[(g.images[a], g.images[b])]
                         for a, b in pairs]) for g in G.generators]
    return PermGroup(len(pairs), gens)


def wreath_imprimitive(m: int, r: int) -> PermGroup:
    """Sym(m) wr Sym(r) on m*r points, preserving the block system."""
    d = m * r
    base = perm.symmetric_group(m)
    gens = []
    for g in base.generators:
        images = list(range(d))
        for i in range(m):
            images[i] = g.images[i]
        gens.append(Permutation(images))
    shift = Permutation([((x // m + 1) % r) * m + x % m for x in range(d)])
    gens.append(shift)
    if r >= 3:
        swap = Permutation([(m + x if x < m else x - m) if x < 2 * m else x
                            for x in range(d)])
        gens.append(swap)
    return PermGroup(d, gens)


def affine_group(p: int, d: int) -> PermGroup:
    """Frobenius subgroup of AGL(1, p) of order p*d (d | p-1)."""
    if (p - 1) % d:
        raise ValueError("d must divide p - 1")
    gen = next(g for g in range(2, p)
               if all(pow(g, (p - 1) // r, p) != 1
                      for r in range(2, p) if (p - 1) % r == 0
                      and all(r % s for s in range(2, r))))
    a = pow(gen, (p - 1) // d, p)
    translate = Permutation([(x + 1) % p for x in range(p)])
    scale = Permutation([a * x % p for x in range(p)])
    return PermGroup(p, [translate, scale])


def projective_line_group(p: int, full: bool = False) -> PermGroup:
    """PSL_2(p) (or PGL_2(p) with full=True) on the projective line;
    point p is the point at infinity."""
    inf = p
    translate = Permutation([(x + 1) % p for x in range(p)] + [inf])

    def inv_neg(x):
        if x == inf:
            return 0
        if x == 0:
            return inf
        return (-pow(x, p - 2, p)) % p

    gens = [translate, Permutation([inv_neg(x) for x in range(p + 1)])]
    if full:
        gen = affine_group(p, p - 1)  # reuse its multiplier
        a = gen.generators[1].images[1]
        gens.append(Permutation([a * x % p for x in range(p)] + [inf]))
    return PermGroup(p + 1, gens)


def direct_sum(G: PermGroup, H: PermGroup) -> PermGroup:
    """Intransitive direct product on the disjoint union of the domains."""
    d = G.degree + H.degree
    gens = [Permutation(list(g.images) + list(range(G.degree, d)))
            for g in G.generators]
    gens += [Permutation(list(range(G.degree))
                         + [G.degree + x for x in h.images])
             for h in H.generators]
    return PermGroup(d, gens)


def fixing(k: int, G: PermGroup) -> PermGroup:
    """G on the points k, k+1, ...; the first k points are fixed."""
    return direct_sum(PermGroup(k, [perm.identity(k)]), G)


def two_cycle_group(a: int, b: int) -> PermGroup:
    """Cyclic group generated by an a-cycle next to a b-cycle."""
    images = [(x + 1) % a for x in range(a)]
    images += [a + ((x + 1) % b) for x in range(b)]
    return PermGroup(a + b, [Permutation(images)])


def corpus_groups():
    """Yield (name, PermGroup) pairs; deterministic order and content."""
    for m in range(2, 41):
        yield f"cyclic-{m}", perm.cyclic_group(m)
    for m in range(3, 41):
        yield f"dihedral-{m}", dihedral(m)
    for m in range(2, 9):
        yield f"sym-{m}", perm.symmetric_group(m)
    for m in range(3, 9):
        yield f"alt-{m}", perm.alternating_group(m)
    for m, k in ((5, 2), (6, 2), (6, 3), (7, 2), (7, 3), (8, 2)):
        yield f"sym-{m}-on-{k}-sets", geometry.k_set_action(m, k)
        yield f"alt-{m}-on-{k}-sets", set_action(
            perm.alternating_group(m), k)
    for m, r in ((3, 2), (4, 2), (5, 2), (3, 3)):
        yield (f"sym-{m}-product-{r}",
               geometry.product_action(perm.symmetric_group(m), r))
    for m, r in ((4, 2), (5, 2)):
        yield (f"alt-{m}-product-{r}",
               geometry.product_action(perm.alternating_group(m), r))
    for m, r in ((2, 2), (2, 3), (2, 4), (2, 5), (2, 6), (3, 2), (3, 3),
                 (3, 4), (4, 2), (4, 3), (5, 2)):
        yield f"sym-{m}-wr-{r}", wreath_imprimitive(m, r)
    for p in (5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41, 43, 47):
        yield f"agl1-{p}", affine_group(p, p - 1)
        yield f"psl2-{p}", projective_line_group(p)
    for p, d in ((7, 2), (7, 3), (11, 2), (11, 5), (13, 2), (13, 3),
                 (13, 4), (13, 6), (17, 2), (17, 4), (17, 8), (19, 2),
                 (19, 3), (19, 6), (19, 9)):
        yield f"frobenius-{p}-{d}", affine_group(p, d)
    for p in (5, 7, 11, 13, 17, 19, 23, 29, 31):
        yield f"pgl2-{p}", projective_line_group(p, full=True)
    for a in range(2, 6):
        for b in range(a, 6):
            yield (f"sym-{a}-plus-sym-{b}",
                   direct_sum(perm.symmetric_group(a),
                              perm.symmetric_group(b)))
    for a in (4, 5):
        for b in range(2, 7):
            yield (f"alt-{a}-plus-cyclic-{b}",
                   direct_sum(perm.alternating_group(a),
                              perm.cyclic_group(b)))
    for m in (4, 5, 6, 7):
        yield f"sym-{m}-on-ordered-pairs", ordered_pairs_action(m)
    for a, b in ((2, 3), (3, 4), (4, 5), (3, 5), (5, 6), (2, 5), (3, 7),
                 (4, 7), (5, 7), (6, 7)):
        yield f"two-cycles-{a}-{b}", two_cycle_group(a, b)
    for k, m in ((1, 4), (2, 5), (3, 6)):
        yield f"fixed-{k}-plus-sym-{m}", fixing(k, perm.symmetric_group(m))
    yield "fixed-1-plus-alt-7", fixing(1, perm.alternating_group(7))
