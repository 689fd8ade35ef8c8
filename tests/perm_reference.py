"""Element arithmetic and whole-group listings that only the tests use.

The library holds a group's generators as one array of image rows
(`perm.PermGroup.images`), answers bulk questions with one pointer-doubling
kernel (`perm.cycle_sizes`) and walks single elements' cycles with
`perm.cycle_decomposition`.  The helpers here work the direct way, one
Permutation at a time: composition, inverses and powers; cycle lengths
from their own scalar walk, cycle types and orders; the sorted element
list and the conjugacy classes; the stock groups Alt(m) and C_m, which
only the tests build; fixed-point ratios and regular-cycle counts; the
whole-array transversal product that `StabChain.cosets` lists in pieces,
as the coset of the identity; the count of G_(2)-orbits on the images of
the first two base points, against which the verifier's readings are
weighed; the two-action word loop that
`compare_actions_monotonic` replaced with one diagonal action; and the
group-file writer that formats one `cycle_string` per generator, which
`perm.emit_group_file` replaced with whole-array passes.
"""

import math
import random
from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from regcycles.perm import (DEFAULT_ELEMENT_CAP, PermGroup, Permutation,
                            cycle_decomposition, cycle_sizes, cycle_string)
from regcycles.regcycle import (_CHUNK_ENTRIES, MAX_WORD_LENGTH,
                                MonotonicityReport, _regular_counts)


@dataclass(frozen=True)
class CycleType:
    """Multiset of cycle lengths, sorted descending."""

    lengths: tuple[int, ...]

    @property
    def degree(self) -> int:
        return sum(self.lengths)

    @property
    def order(self) -> int:
        return math.lcm(*self.lengths) if self.lengths else 1


def emit_group_file(G: PermGroup) -> str:
    """The group file as the scalar walk writes it: one ``cycle_string``
    per generator row."""
    lines = [f"degree {G.degree}"]
    lines.extend(cycle_string(row.tolist()) for row in G.images)
    return "\n".join(lines) + "\n"


def compose(a: Permutation, b: Permutation) -> Permutation:
    """Product 'apply a, then b': x -> b(a(x))."""
    if a.degree != b.degree:
        raise ValueError(f"degree mismatch: {a.degree} != {b.degree}")
    bi = b.images
    return Permutation(tuple(bi[x] for x in a.images))


def inverse(a: Permutation) -> Permutation:
    inv = [0] * a.degree
    for x, y in enumerate(a.images):
        inv[y] = x
    return Permutation(inv)


def power(a: Permutation, k: int) -> Permutation:
    """a**k for any integer k (negative allowed); exact via cycle arithmetic."""
    d = a.degree
    out = [0] * d
    for cycle in cycle_decomposition(a.images):
        L = len(cycle)
        shift = k % L
        for i, x in enumerate(cycle):
            out[x] = cycle[(i + shift) % L]
    return Permutation(out)


def cycle_lengths(images) -> list[int]:
    """Cycle lengths of an image sequence, from a walk of its own."""
    d = len(images)
    seen = bytearray(d)
    lengths = []
    for start in range(d):
        if seen[start]:
            continue
        n = 1
        seen[start] = 1
        x = images[start]
        while x != start:
            seen[x] = 1
            n += 1
            x = images[x]
        lengths.append(n)
    return lengths


def cycle_type(g: Permutation) -> CycleType:
    return CycleType(tuple(sorted(cycle_lengths(g.images), reverse=True)))


def element_order(g: Permutation) -> int:
    return math.lcm(*cycle_lengths(g.images))


def alternating_group(m: int) -> PermGroup:
    """Alt(m) on m points (3-cycle plus an even long cycle)."""
    if m < 3:
        return PermGroup(max(m, 1), [range(max(m, 1))])
    three = (1, 2, 0, *range(3, m))
    if m % 2 == 1:
        long = (*range(1, m), 0)
    else:
        long = (0, *range(2, m), 1)
    return PermGroup(m, [three, long])


def cyclic_group(m: int) -> PermGroup:
    return PermGroup(m, [(*range(1, m), 0)])


def enumerate_elements(G: PermGroup, cap: int = DEFAULT_ELEMENT_CAP):
    """All elements of G as Permutation objects, lexicographically sorted."""
    arr = G.element_array(cap)
    return [Permutation(tuple(int(v) for v in row)) for row in arr]


def stabilizer_rows(chain, level: int = 1) -> np.ndarray:
    """Every element of G_(level), the stabilizer of the chain's first
    `level` base points (G_b by default), as one unsorted
    (|G_(level)| x degree) array of transversal products."""
    rows = np.arange(chain.degree)[None]
    for lev in reversed(chain.levels[level:]):
        # h then u_beta, for every u_beta and every h below (np.take:
        # lev.trans[:, rows] holds a second copy of the result while
        # it builds it)
        rows = np.take(lev.trans, rows, axis=1).reshape(-1, chain.degree)
    return rows


def base_pair_orbit_count(chain) -> int:
    """The number of orbits of G_(2) on the images (g(b1), g(b2)), g in G,
    of the chain's first two base points, by a breadth-first search over
    the pairs as tuples.  The pairs are (t(b1), t(gamma)), t a row of the
    first transversal and gamma a point of the second orbit."""
    top, second = chain.levels[:2]
    gens = chain.levels[2].gens.tolist() if len(chain.levels) > 2 else []
    pairs = {(t[top.point], t[gamma]) for t in top.trans.tolist()
             for gamma in second.orbit.tolist()}
    count = 0
    while pairs:
        count += 1
        queue = [pairs.pop()]
        for beta, gamma in queue:
            for g in gens:
                image = (g[beta], g[gamma])
                if image in pairs:
                    pairs.remove(image)
                    queue.append(image)
    return count


def conjugacy_classes(G: PermGroup, cap: int = DEFAULT_ELEMENT_CAP):
    """List of (representative, class size); rep = least class member.

    Classes are ordered by their representative (lexicographic on image
    arrays), so the identity's class comes first.
    """
    arr = G.element_array(cap)
    d = G.degree
    gen_pairs = [(g, inverse(g)) for g in G.generators]
    remaining = {tuple(int(v) for v in row) for row in arr}
    classes = []
    for row in arr:
        t = tuple(int(v) for v in row)
        if t not in remaining:
            continue
        # conjugation orbit of t under the generators
        orbit = {t}
        queue = [t]
        while queue:
            s = queue.pop()
            for g, gi in gen_pairs:
                # g^-1 * s * g  (apply g^-1, then s, then g)
                conj = tuple(g.images[s[gi.images[x]]] for x in range(d))
                if conj not in orbit:
                    orbit.add(conj)
                    queue.append(conj)
        remaining -= orbit
        classes.append((Permutation(t), len(orbit)))
    return classes


def fpr_exact(x: Permutation) -> Fraction:
    """Exact fixed-point ratio |Fix(x)| / degree."""
    return Fraction(sum(1 for i, img in enumerate(x.images) if img == i),
                    x.degree)


def count_regular_cycles(g) -> int:
    """Number of cycles of g of length exactly the order of g.

    Accepts a Permutation or a raw image sequence.
    """
    images = g.images if isinstance(g, Permutation) else g
    return int(_regular_counts(cycle_sizes(np.array([images])))[0])


def compare_actions_two_loops(G1: PermGroup, G2: PermGroup,
                              samples: int = 10**4,
                              seed: int = 1729) -> MonotonicityReport:
    """For sampled words w: count_regular_cycles(w on Omega1) <= (w on Omega2).

    The two groups must be the same abstract group given by *compatible*
    generator lists (generator i of G1 corresponds to generator i of G2); the
    word is evaluated in both in lockstep.  Sampling uses a fixed seed, so
    runs are reproducible.  At least one word is sampled, and the actions
    need at least one generator.  The words' images are counted a chunk
    of words at a time, by the kernel that ``verify_all_elements`` uses.
    """
    if len(G1.generators) != len(G2.generators):
        raise ValueError("generator lists must have equal length")
    if not G1.generators:
        raise ValueError("the actions list no generators, so there are "
                         "no words to sample")
    if samples < 1:
        raise ValueError(f"need at least 1 sample, got {samples}")

    ngens = len(G1.generators)
    rng = random.Random(seed)
    gens1 = [np.array(g.images) for g in G1.generators]
    gens2 = [np.array(g.images) for g in G2.generators]
    ident1 = np.arange(G1.degree)
    ident2 = np.arange(G2.degree)
    per_chunk = max(1, _CHUNK_ENTRIES // max(G1.degree, G2.degree))
    words, rows1, rows2 = [], [], []
    violations: list[str] = []
    for k in range(samples):
        length = rng.randint(1, MAX_WORD_LENGTH)
        word = [rng.randrange(ngens) for _ in range(length)]
        w1, w2 = ident1, ident2
        for i in word:
            w1 = gens1[i][w1]  # apply w, then generator i
            w2 = gens2[i][w2]
        words.append(word)
        rows1.append(w1)
        rows2.append(w2)
        if len(words) == per_chunk or k == samples - 1:
            more = (_regular_counts(cycle_sizes(np.array(rows1)))
                    > _regular_counts(cycle_sizes(np.array(rows2))))
            for j in np.flatnonzero(more)[:5 - len(violations)]:
                violations.append("g" + " g".join(str(i) for i in words[j]))
            words, rows1, rows2 = [], [], []
    return MonotonicityReport(samples, tuple(violations))
