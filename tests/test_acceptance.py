"""Acceptance suite: end-to-end checks of the guarantees this package
advertises, each backed by an independent oracle.

The tests here are deliberately redundant with the per-module suites:
they re-derive every headline number or verdict from scratch (brute-force
enumeration, closed-form counts, random sampling with fixed seeds) and
compare against the library's answers.
"""

import itertools
import math
import random
import re
from collections import Counter
from fractions import Fraction

import numpy as np
import pytest

from corpus import (MAX_DEGREE, MAX_ORDER, corpus_groups, dihedral,
                    direct_sum, projective_line_group)
from geometry_reference import (duality_map, map_order, mat_identity,
                                mat_mul, polarized_quad_value,
                                semisimple_decomposition, sl_generators,
                                subspace_contains, subspace_intersection_dim,
                                vec_mat)
from perm_reference import (alternating_group, base_pair_orbit_count,
                            cyclic_group)
from regcycles import bounds as bd
from regcycles import geometry as geo
from regcycles import numtheory as nt
from regcycles import perm, regcycle
from regcycles.bounds import GroupId
from regcycles.perm import (PermGroup, Permutation,
                             has_regular_cycle_direct)
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
            report = verify_all_elements(alternating_group(m))
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
            chain = G.stabilizer_chain(MAX_ORDER + 1)
            assert chain.order <= MAX_ORDER, name

    def test_primitive_groups_of_the_corpus(self, corpus):
        # the transitive groups of prime degree, Sym and Alt, their k-set
        # actions but on 3-sets of 6 points (complements pair into blocks),
        # their product actions, and AGL1, PSL2, PGL2 and the Frobenius
        # groups of a prime degree; no wreath product, ordered pairs or
        # intransitive group
        def expected(name):
            if m := re.fullmatch(r"(cyclic|dihedral)-(\d+)", name):
                return nt.is_prime(int(m[2]))
            if m := re.fullmatch(r"(sym|alt)-(\d+)-on-(\d+)-sets", name):
                return int(m[2]) != 2 * int(m[3])
            return bool(re.fullmatch(r"(sym|alt)-\d+(-product-\d+)?"
                                     r"|(agl1|psl2|pgl2|frobenius)-.*", name))

        primitive = [name for name, G in corpus if G.is_primitive()]
        assert primitive == [name for name, _ in corpus if expected(name)]
        assert len(corpus) == 207 and len(primitive) == 102

    def test_fix_union_agrees_with_direct_everywhere(self, corpus):
        for name, G in corpus:
            for row in G.element_array(MAX_ORDER + 1):
                g = Permutation(row.tolist())
                report = fix_union_test(g)
                direct = has_regular_cycle_direct(g)
                assert report.has_regular_cycle == direct, (name, row)
                if not report.identity_convention:
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
    """({square_free_only: (checked, failing, verdict, witnesses)}, images)
    from one scan of every row of the sorted enumeration, with its own
    cycle walk; images are those of the least point G moves (0 if none)
    under the failing elements."""
    moved = [x for g in G.generators for x in range(G.degree) if g(x) != x]
    point = min(moved, default=0)
    out = {sf: [0, 0, []] for sf in (False, True)}  # checked, failing, least
    images = set()
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
        if order not in lengths:
            images.add(row[point])
        for sf in (False, True):
            if sf and not square_free:
                continue
            tally = out[sf]
            tally[0] += 1
            if order not in lengths:
                tally[1] += 1
                if len(tally[2]) < max_witnesses:
                    tally[2].append(tuple(row))
    return {sf: (checked, failing, "failures" if failing else "all-regular",
                 tuple(witnesses))
            for sf, (checked, failing, witnesses) in out.items()}, images


def relabelled(G, seed=SEED):
    """G with its points renamed by a seeded random permutation s: each
    generator g becomes s g s^-1."""
    s = list(range(G.degree))
    random.Random(seed).shuffle(s)
    gens = []
    for g in G.generators:
        images = [0] * G.degree
        for x, y in enumerate(g.images):
            images[s[x]] = s[y]
        gens.append(Permutation(images))
    return PermGroup(G.degree, gens)


def one_level_rows(chain):
    """The kernel rows of one coset of G_(l) per G_(l)-orbit on the images
    of the first l base points, for the one level l that reads fewer, 1 or
    2, with level 2 weighed only past one kernel chunk and when n1 n2, a
    lower bound for its rows, is below those of level 1."""
    n = chain.orbit_lengths
    stabilizer = chain.order // n[0]
    rows = len(chain.orbits()) * stabilizer
    if len(n) > 1 and n[0] * n[1] < rows \
            and rows * chain.degree > regcycle._CHUNK_ENTRIES:
        rows = min(rows, base_pair_orbit_count(chain) * stabilizer // n[1])
    return rows


def branch_readings(chain):
    """The readings of G_(k), (k, orbits, pieces) of
    ``regcycle._orbit_readings(chain, k)``, at depth 0 and then at every
    depth the branch reaches: k + 1 while the orbit {b_(k+1)} of depth k
    is read by the branch."""
    k = 0
    while True:
        orbits, pieces = regcycle._orbit_readings(chain, k)
        yield k, orbits, pieces
        if "branch" not in [kind for _orbit, _rows, kind in orbits]:
            return
        k += 1


def read_rows(chain):
    """The kernel rows of the counting pass, from its readings, after
    checking that each orbit's rows are those of the cosets read for it."""
    orbits, pieces = regcycle._orbit_readings(chain)
    rows = [0] * len(orbits)
    for level, xs, weights, owners in pieces:
        assert len(xs) == len(weights) == len(owners)
        for i in owners:
            rows[i] += chain.order // math.prod(chain.orbit_lengths[:level])
    assert rows == [r for _orbit, r, _kind in orbits]
    return sum(rows)


class TestOrbitRepresentativeReduction:
    # besides the corpus: two groups on relabelled points, so that their
    # transversals and least failures differ from those of the corpus's
    # copies (PSL2(29) passes one kernel chunk, Sym(7) has failures), one
    # whose second base point lies outside the orbit of the first, and one
    # whose G_(2) is trivial, also past one kernel chunk
    EXTRA = [("psl2-29-relabelled", relabelled(projective_line_group(29))),
             ("sym-7-relabelled", relabelled(perm.symmetric_group(7))),
             ("cyclic-3-plus-sym-6",
              direct_sum(cyclic_group(3), perm.symmetric_group(6))),
             ("dihedral-127", dihedral(127))]

    def test_extra_groups_have_their_shapes(self):
        groups = dict(self.EXTRA)
        chain = groups["cyclic-3-plus-sym-6"].stabilizer_chain()
        assert chain.base[1] not in chain.levels[0].orbit
        chain = groups["dihedral-127"].stabilizer_chain()
        assert chain.orbit_lengths == [127, 2]  # G_(2) = 1
        assert len(chain.orbits()) * 2 * 127 \
            > regcycle._CHUNK_ENTRIES

    def test_matches_brute_force_scan_on_whole_corpus(self, corpus):
        late_base_with_failures = []
        read, failing_under = {}, {}  # reading -> groups with an orbit so read
        deep_pairs = []  # groups read by pairs at some depth below 0
        for name, G in corpus + self.EXTRA:
            expected, images = brute_force_verify(G)
            for sf in (False, True):
                report = verify_all_elements(G, cap=MAX_ORDER + 1,
                                             square_free_only=sf)
                got = (report.checked, report.failing, report.verdict,
                       tuple(w.images for w in report.witnesses))
                assert got == expected[sf], (name, sf)
            chain = G.stabilizer_chain()
            orbits, _pieces = regcycle._orbit_readings(chain)
            for orbit, _rows, kind in orbits:
                read.setdefault(kind, []).append(name)
                if images & set(orbit):
                    # the pair reading of the orbit of b2 is over b2 alone
                    over_b2 = kind == "pairs" and chain.base[1] in orbit
                    failing_under.setdefault(
                        "pairs over b2" if over_b2 else kind, []).append(name)
            if any(kind == "pairs" for k, found, _pieces
                   in branch_readings(chain) if k
                   for _orbit, _rows, kind in found):
                deep_pairs.append(name)
            if chain.base[0] > 0 and images:
                late_base_with_failures.append(name)
        assert any(not G.is_transitive() for _, G in corpus)
        assert late_base_with_failures
        # every reading is used, and the branch and the pairs over b2 over
        # orbits that hold failures; pairs are read below depth 0 too
        assert set(read) == {"whole", "pairs", "branch"}
        assert failing_under["branch"] and failing_under["pairs over b2"]
        assert {"sym-8", "sym-5-product-2"} <= set(deep_pairs)

    def test_pieces_stand_for_every_element_at_every_depth(self, corpus,
                                                           sp6, su5):
        # at every depth k, each orbit's pieces stand for its |O| cosets
        # of G_(k+1), so all of them together for G_(k); every piece's
        # representatives lie in G_(k)
        groups = corpus + self.EXTRA + [
            ("sp6_2-points", geo.perm_image(sp6[1],
                                            geo.singular_points(sp6[0]))),
            ("su5_2-maxts", geo.perm_image(
                su5[1], geo.maximal_totally_singular(su5[0])))]
        for name, G in groups:
            chain = G.stabilizer_chain(2 * 10**7)
            n, base = chain.orbit_lengths, chain.base
            for k, orbits, pieces in branch_readings(chain):
                stands = [0] * len(orbits)
                for level, xs, weights, owners in pieces:
                    assert (xs[:, base[:k]] == base[:k]).all(), (name, k)
                    for weight, owner in zip(weights, owners):
                        stands[owner] += weight * math.prod(n[level:])
                assert stands == [len(orbit) * math.prod(n[k + 1:])
                                  for orbit, _rows, _kind in orbits], (name, k)
                assert sum(stands) == math.prod(n[k:]), (name, k)

    def test_readings_only_past_one_kernel_chunk(self, sp6):
        # the whole cosets of Sym(7), 2 cosets of 720 rows of 7 points,
        # fit one kernel chunk, so they are read whole, though the branch
        # and the pairs over b2 would read fewer rows; those of Sym(8)
        # (2 x 5,040 x 8 entries) and Sp6(2) (3 x 23,040 x 63) do not
        space, gens = sp6
        for G, kinds in (
                (perm.symmetric_group(7), ["whole", "whole"]),
                (perm.symmetric_group(8), ["branch", "pairs"]),
                (geo.perm_image(gens, geo.singular_points(space)),
                 ["branch", "pairs", "pairs"])):
            orbits, _pieces = regcycle._orbit_readings(G.stabilizer_chain())
            assert [kind for _orbit, _rows, kind in orbits] == kinds
            assert verify_all_elements(G).checked \
                == G.stabilizer_chain().order

    def test_never_reads_more_rows_than_one_level(self, corpus, sp6, su5):
        for name, G in corpus + self.EXTRA:
            chain = G.stabilizer_chain()
            assert read_rows(chain) <= one_level_rows(chain), name
        # PSL2(47) on 48 points: one level reads 2 x 1,081 rows; G_b and
        # the coset of b2 each take 3 cosets of G_(2) of 23 elements
        chain = dict(corpus)["psl2-47"].stabilizer_chain()
        assert (read_rows(chain), one_level_rows(chain)) == (138, 2162)
        # rows of Sp6(2) on points, SU5(2) on points and on maximal
        # totally singular subspaces, against those of one level
        for (space, gens), domain, rows in (
                (sp6, geo.singular_points, (13200, 28800)),
                (su5, geo.singular_points, (24330, 89424)),
                (su5, geo.maximal_totally_singular, (52992, 93312))):
            chain = geo.perm_image(gens, domain(space)).stabilizer_chain(
                2 * 10**7)
            assert (read_rows(chain), one_level_rows(chain)) == rows

    def test_coset_over_several_kernel_chunks(self):
        # Sym(8) on 8 points: a coset of G_b has 5,040 rows, more than one
        # chunk of the regular-cycle kernel holds
        G = perm.symmetric_group(8)
        chain = G.stabilizer_chain()
        stab_order = chain.order // len(chain.levels[0].orbit)
        assert stab_order == 5040
        assert stab_order * G.degree > regcycle._CHUNK_ENTRIES
        expected, _images = brute_force_verify(G)
        for sf in (False, True):
            report = verify_all_elements(G, square_free_only=sf)
            got = (report.checked, report.failing, report.verdict,
                   tuple(w.images for w in report.witnesses))
            assert got == expected[sf], sf


# ---------------------------------------------------------------------------
# 3c. Sym(m) on k-sets: the verdict from the cycle types of Sym(m) alone

def partitions(m, largest=None):
    """The partitions of m, parts in descending order."""
    if m == 0:
        yield ()
        return
    for part in range(min(m, largest or m), 0, -1):
        for rest in partitions(m - part, part):
            yield (part, *rest)


def mobius(n):
    """The Moebius function, by trial division."""
    sign, p = 1, 2
    while n > 1:
        if n % p == 0:
            n //= p
            if n % p == 0:
                return 0
            sign = -sign
        p += 1
    return sign


def k_sets_in_cycles_of_length(cycle_type, k, length):
    """The k-sets that lie in a cycle of the given length, for g in Sym(m)
    of the given cycle type: the sum over d | length of mu(length/d)
    fix(g^d), where fix(g^d) is the x^k coefficient of the product of
    (1 + x^c) over the cycles c of g^d (a k-set fixed by g^d is a union of
    them).  A cycle of length L of g splits into gcd(L, d) cycles of g^d."""

    def fix(d):
        poly = [1] + [0] * k
        for part in cycle_type:
            c = part // math.gcd(part, d)
            for _ in range(math.gcd(part, d)):
                poly = [poly[i] + (poly[i - c] if i >= c else 0)
                        for i in range(k + 1)]
        return poly[k]

    return sum(mobius(length // d) * fix(d)
               for d in range(1, length + 1) if length % d == 0)


def k_sets_in_regular_cycles(cycle_type, k):
    """The k-sets that lie in a cycle of length exactly |g|."""
    return k_sets_in_cycles_of_length(cycle_type, k, math.lcm(*cycle_type))


def class_size(cycle_type):
    m = sum(cycle_type)
    centralizer = 1
    for c in set(cycle_type):
        a = cycle_type.count(c)
        centralizer *= c**a * math.factorial(a)
    return math.factorial(m) // centralizer


def point_cycle_type(w, m, k):
    """The cycle type on the m points of an element w of Sym(m) given on
    the k-sets of ``geometry.k_set_action`` (sorted combinations)."""
    subsets = sorted(itertools.combinations(range(m), k))
    images = [set.intersection(*(set(subsets[w.images[j]])
                                 for j, s in enumerate(subsets) if i in s))
              for i in range(m)]
    g = [image.pop() for image in images]
    return tuple(sorted(map(len, perm.cycle_decomposition(g)),
                        reverse=True))


class TestKSetClassOracle:
    @pytest.mark.parametrize("k", [2, 3])
    @pytest.mark.parametrize("m", range(5, 11))
    def test_verdict_and_witnesses_match_the_class_oracle(self, m, k):
        failing = {t: class_size(t) for t in partitions(m)
                   if k_sets_in_regular_cycles(t, k) == 0}
        report = verify_all_elements(geo.k_set_action(m, k))
        assert report.checked == report.group_order == math.factorial(m)
        assert report.all_regular == (not failing)
        assert report.failing == sum(failing.values())
        assert len(report.witnesses) == min(5, sum(failing.values()))
        for w in report.witnesses:
            assert point_cycle_type(w, m, k) in failing
        # the weighted coset counts, against the classes of square-free order
        reduced = verify_all_elements(geo.k_set_action(m, k),
                                      square_free_only=True)
        assert reduced.checked == sum(
            class_size(t) for t in partitions(m)
            if mobius(math.lcm(*t)) != 0)
        assert reduced.all_regular == report.all_regular

    def test_known_values_of_sym_10(self):
        two = [t for t in partitions(10) if not k_sets_in_regular_cycles(t, 2)]
        assert two == [(5, 3, 2)] and class_size((5, 3, 2)) == 120960
        assert all(k_sets_in_regular_cycles(t, 3) for t in partitions(10))


# ---------------------------------------------------------------------------
# 3d. Sym(m) wr Sym(2) on ordered pairs of k-sets: the paper's exceptional
#     family for r = 2, from the classes of Sym(m) alone

def k_set_cycles(cycle_type, k):
    """{L: number of L-cycles} of g in Sym(m) of the given cycle type on
    the k-sets (every L divides |g|)."""
    o = math.lcm(*cycle_type)
    counts = {length: k_sets_in_cycles_of_length(cycle_type, k, length)
              for length in range(1, o + 1) if o % length == 0}
    return {length: n // length for length, n in counts.items() if n}


def base_cycles(c1, c2):
    """The cycles of (g1, g2) on Omega x Omega from those of g1 and g2 on
    Omega: an a-cycle and a b-cycle give gcd(a, b) cycles of length
    lcm(a, b)."""
    out = Counter()
    for a, na in c1.items():
        for b, nb in c2.items():
            out[math.lcm(a, b)] += na * nb * math.gcd(a, b)
    return out


def top_cycles(c):
    """The cycles of (g1, g2) tau, tau the coordinate swap, on Omega x
    Omega from those of h = g1 g2 on Omega: with z = g1(y) it acts as
    (x, z) -> (z, h x).  Two distinct h-cycles of lengths a and b give
    gcd(a, b) cycles of length 2 lcm(a, b); one a-cycle with itself gives,
    for odd a, one a-cycle and (a - 1)/2 cycles of length 2a, and for even
    a, a/2 cycles of length 2a."""
    out = Counter()
    for (a, na), (b, nb) in itertools.combinations(c.items(), 2):
        out[2 * math.lcm(a, b)] += na * nb * math.gcd(a, b)
    for a, na in c.items():
        out[2 * a] += na * (na - 1) // 2 * a
        if a % 2:
            out[a] += na
            out[2 * a] += na * (a - 1) // 2
        else:
            out[2 * a] += na * a // 2
    return +out  # drop the lengths counted 0 times


def wreath_square_classes(m, k):
    """(pair, cycles, size) for the element classes of Sym(m) wr Sym(2) on
    the ordered pairs of k-sets: pair is ("base", t1, t2) for the (g1, g2)
    with g1, g2 of cycle types t1, t2, or ("top", t) for the (g1, g2) tau
    with g1 g2 of cycle type t, each such product standing for m! pairs;
    cycles is {L: number of L-cycles} and size the number of elements."""
    omega = {t: k_set_cycles(t, k) for t in partitions(m)}
    for (t1, c1), (t2, c2) in itertools.product(omega.items(), repeat=2):
        yield ("base", t1, t2), base_cycles(c1, c2), \
            class_size(t1) * class_size(t2)
    for t, c in omega.items():
        yield ("top", t), top_cycles(c), class_size(t) * math.factorial(m)


def cycle_key(cycles):
    """A hashable cycle type: the sorted (length, count) pairs."""
    return tuple(sorted(cycles.items()))


def fails(cycles):
    """No cycle has length |g|, the lcm of the lengths."""
    return math.lcm(*cycles) not in cycles


def enumerated_cycle_types(G):
    """Counter of cycle_key over every element of G, by enumeration."""
    rows = G.element_array().astype(np.intp)
    types = Counter()
    for start in range(0, len(rows), 4096):
        sizes = np.sort(perm.cycle_sizes(rows[start:start + 4096]), axis=1)
        unique, counts = np.unique(sizes, axis=0, return_counts=True)
        for row, count in zip(unique.tolist(), counts.tolist()):
            types[cycle_key(Counter(L for L in row if L))] += count
    return types


class TestWreathSquareClassOracle:
    @pytest.mark.parametrize("m, k", [(3, 1), (4, 1), (4, 2), (5, 1),
                                      (5, 2)])
    def test_cycle_types_verdict_and_witnesses_match_enumeration(self, m, k):
        expected, failing = Counter(), set()
        for _pair, cycles, size in wreath_square_classes(m, k):
            expected[cycle_key(cycles)] += size
            if fails(cycles):
                failing.add(cycle_key(cycles))
        G = geo.product_action(geo.k_set_action(m, k), 2)
        assert enumerated_cycle_types(G) == expected
        report = verify_all_elements(G)
        assert report.checked == 2 * math.factorial(m) ** 2
        assert report.all_regular == (not failing)
        assert report.failing == sum(expected[key] for key in failing)
        assert len(report.witnesses) == min(
            5, sum(expected[key] for key in failing))
        for w in report.witnesses:
            assert cycle_key(Counter(map(len, perm.cycle_decomposition(
                w.images)))) in failing

    def test_known_values(self):
        def failing(m, k):
            return {pair: size
                    for pair, cycles, size in wreath_square_classes(m, k)
                    if fails(cycles)}

        assert not any(failing(m, 2) for m in range(5, 10))
        assert not failing(7, 3) and not failing(10, 3)
        t, one, seven = (5, 3, 2), (1,) * 10, (7, 1, 1, 1)
        classes = list(wreath_square_classes(10, 2))
        assert sum(size for *_, size in classes) == 26_336_378_880_000
        assert {sum(L * n for L, n in cycles.items())
                for _, cycles, _ in classes} == {2025}
        bad = failing(10, 2)
        assert set(bad) == {("base", t, one), ("base", one, t),
                            ("base", seven, t), ("base", t, seven)}
        assert sum(bad.values()) == 20_902_129_920
        assert len(failing(12, 2)) == 42


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
    out = mat_identity(len(m))
    base = m
    while k:
        if k & 1:
            out = mat_mul(K, out, base)
        k >>= 1
        if k:
            base = mat_mul(K, base, base)
    return out


def semisimple_sample(space, gens, excluded_primes, want):
    """Distinct matrices of prime order r (r not excluded), found by
    powering random words down to prime order.  Deterministic."""
    K = space.field
    ident = mat_identity(space.n)
    mats = [g.matrix for g in gens]
    rng = random.Random(SEED)
    found = {}
    cur = ident
    for _ in range(4000):
        cur = mat_mul(K, cur, rng.choice(mats))
        order = map_order(space, geo.SemilinearMap(cur), cap=10**5)
        for r in nt.factorize(order).primes():
            if r not in excluded_primes:
                m = mat_pow(K, cur, order // r)
                if m != ident and m not in found:
                    found[m] = r
        if len(found) >= want:
            return found
    raise AssertionError("not enough semisimple elements found")


def fixed_labels(dom, m):
    p = dom.images([geo.SemilinearMap(m)])[0]
    return [dom.labels[i] for i in range(dom.degree) if p[i] == i]


def check_fixed_set(space, dom, m, kernel):
    """Fixed labels are exactly the domain labels inside ker(m - 1)."""
    K = space.field
    fixed = fixed_labels(dom, m)
    for v in fixed:
        assert vec_mat(K, v, m) == tuple(v)  # eigenvalue exactly 1
        assert subspace_contains(K, kernel, v)
    in_kernel = [v for v in dom.labels if subspace_contains(K, kernel, v)]
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
        gens = sl_generators(5, field)
        dom = geo.singular_points(space)
        gid = GroupId("PSL", 5, 2)
        sample = semisimple_sample(space, gens, {2}, 6)
        for m in sample:
            kernel, _, ellp = semisimple_decomposition(
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
            kernel, _, ellp = semisimple_decomposition(
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
            kernel, _, ellp = semisimple_decomposition(
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

        # value table of each quadratic form on the 63 nonzero vectors
        def masks(form_dom):
            return np.array(
                [[polarized_quad_value(space, diag, v)
                  for v in dom.labels] for diag in form_dom.labels],
                dtype=np.uint8)

        mask_plus = masks(geo.quadratic_forms_polarizing(space, "+"))
        mask_minus = masks(geo.quadratic_forms_polarizing(space, "-"))
        col_plus, col_minus = (
            (mask.astype(np.uint64) << np.arange(len(mask), dtype=np.uint64)
             [:, None]).sum(axis=0, dtype=np.uint64)
            for mask in (mask_plus, mask_minus))
        assert (len(mask_plus), len(mask_minus)) == (36, 28)

        # the bounds certify uses, as (numerator, denominator) arrays by c
        def bound_arrays(epsilon):
            ratios = [bd.casevi_fpr_bound(3, 2, c, epsilon) for c in range(7)]
            return (np.array([r.numerator for r in ratios]),
                    np.array([r.denominator for r in ratios]))

        plus, minus = bound_arrays("+"), bound_arrays("-")
        ident = np.arange(63, dtype=arr.dtype)
        odd_rows, seen_c = 0, set()
        for start in range(0, len(arr), 4096):
            block = arr[start:start + 4096]
            # odd order <=> the 2835-th power (the odd part of the exponent
            # of Sp6(2)) is the identity; each row is offset by 63 times
            # its index and flattened, so one gather composes every row
            flat = (block + 63 * np.arange(len(block))[:, None]).ravel()
            res = start_points = np.arange(flat.size)
            base = flat
            k = 2835
            while k:
                if k & 1:
                    res = base[res]
                k >>= 1
                if k:
                    base = base[base]
            odd = (res == start_points).reshape(-1, 63).all(axis=1)
            rows = block[odd]
            odd_rows += len(rows)
            # fixed vectors form the eigenspace, of size 2**c
            nfixed = (rows == ident).sum(axis=1) + 1
            c = np.frexp(nfixed)[1] - 1  # nfixed.bit_length() - 1
            assert ((1 << c) == nfixed).all()
            seen_c.update(c.tolist())
            # forms whose value table each row maps onto itself: bit f of
            # column v is form f's value at v, so the forms a row moves are
            # the bits set in some column's XOR with its image's column
            fixed_plus = 36 - np.bitwise_count(np.bitwise_or.reduce(
                col_plus[rows] ^ col_plus, axis=1))
            fixed_minus = 28 - np.bitwise_count(np.bitwise_or.reduce(
                col_minus[rows] ^ col_minus, axis=1))
            # fixed / |domain| <= casevi_fpr_bound(3, 2, c, epsilon),
            # cross-multiplied exactly
            for fixed, size, (num, den) in ((fixed_plus, 36, plus),
                                            (fixed_minus, 28, minus)):
                assert (fixed * den[c] <= num[c] * size).all()
        assert odd_rows == 530145
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
        # before the residual-prime refinement exactly two groups exceed 1;
        # it runs only there, so these are the groups that used it or are
        # still not certified
        over = []
        for fam, ns in (("POmega", range(7, 16, 2)),
                        ("POmega+", range(8, 17, 2)),
                        ("POmega-", range(8, 17, 2))):
            for n in ns:
                g = GroupId(fam, n, 7)
                report = bd.certify_case("ii", g)
                if report.refinements or report.verdict != "certified":
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

    @pytest.mark.parametrize("builder", [geo.singular_points,
                                         geo.maximal_totally_singular])
    def test_su5_2_actions_verify_exhaustively(self, su5, builder):
        # |SU5(2)| = q^10 (q^2 - 1)(q^3 + 1)(q^4 - 1)(q^5 + 1) at q = 2
        order = 2**10 * 3 * 9 * 15 * 33
        assert order == 13685760
        space, gens = su5
        G = geo.perm_image(gens, builder(space))
        assert G.degree in (165, 297)
        report = verify_all_elements(G, cap=2 * 10**7)
        assert report.all_regular
        assert report.checked == report.group_order == order

    def test_o8p_2_points_verify_exhaustively(self, o8p):
        # |POmega+_8(2)| = 348,364,800, read as 1,128,960 rows of one
        # coset per orbit of G_(2) on the base-point pairs
        space, gens = o8p
        G = geo.perm_image(gens, geo.singular_points(space))
        assert G.degree == 135
        report = verify_all_elements(G, cap=4 * 10**8)
        assert report.all_regular
        assert report.checked == report.group_order == 348364800

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
            if subspace_intersection_dim(space.field, fixed, other) == 0)
        assert count == expect == q**3  # q^(m(m-1)/2) with m = 3

    def test_duality_extended_pair_action_is_all_regular_sampled(self):
        space = geo.standard_form("trivial", 5, 2)
        gens = sl_generators(5, space.field) + [duality_map(space)]
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
            for p, e in fact.pairs:
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
