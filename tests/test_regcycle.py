"""Tests for the fixed-union regular-cycle machinery."""

import itertools
import math
import tracemalloc
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from perm_reference import (
    alternating_group,
    compare_actions_two_loops,
    count_regular_cycles,
    cycle_lengths,
    cycle_type,
    cyclic_group,
    element_order,
    enumerate_elements,
    fpr_exact,
    power,
    stabilizer_rows,
)
from regcycles import geometry, numtheory
from regcycles import regcycle as rc
from regcycles.perm import (
    PermGroup,
    Permutation,
    cycle_decomposition,
    has_regular_cycle_direct,
    identity,
    parse_cycles,
    symmetric_group,
)


class TestFixAndFpr:
    def test_identity_fpr_one(self):
        assert fpr_exact(identity(5)) == 1

    def test_double_transposition(self):
        g = parse_cycles("(1 2)(3 4)", 5)
        assert fpr_exact(g) == Fraction(1, 5)

    def test_fixed_point_free(self):
        assert fpr_exact(parse_cycles("(1 2 3)(4 5)(6 7)", 7)) == 0


def _reference_fix_union_test(g):
    """The fixed-point union test the direct way: one power of g per prime
    r dividing |g|, and its fixed points."""
    d = g.degree
    order = element_order(g)
    witness = next(((c[0], order) for c in cycle_decomposition(g.images)
                    if len(c) == order), None)
    if order == 1:
        return rc.RegCycleReport(1, witness, Fraction(0), d, d)
    union, s_value = set(), Fraction(0)
    for r in numtheory.factorize(order).primes():
        x = power(g, order // r)
        fixed = {i for i in range(d) if x(i) == i}
        union |= fixed
        s_value += Fraction(len(fixed), d)
    return rc.RegCycleReport(order, witness, s_value, len(union), d)


class TestFixUnionTest:
    def test_six_order_element_no_regular_cycle(self):
        g = parse_cycles("(1 2 3)(4 5)(6 7)", 7)
        rep = rc.fix_union_test(g)
        assert not rep.has_regular_cycle
        assert rep.order == 6
        assert rep.fix_union_size == 7  # g**2 fixes 4 points, g**3 fixes 3
        assert rep.s_value == 1  # 4/7 + 3/7

    def test_five_cycle(self):
        rep = rc.fix_union_test(parse_cycles("(1 2 3 4 5)", 5))
        assert rep.has_regular_cycle
        assert rep.s_value == 0
        assert rep.witness == (0, 5)

    def test_transposition_with_fixed_points(self):
        rep = rc.fix_union_test(parse_cycles("(1 2)", 5))
        assert rep.has_regular_cycle
        assert rep.s_value == Fraction(3, 5)

    def test_identity_convention(self):
        rep = rc.fix_union_test(identity(4))
        assert rep.has_regular_cycle
        assert rep.identity_convention
        assert rep.order == 1

    @given(st.integers(min_value=1, max_value=11).flatmap(
        lambda d: st.permutations(range(d)).map(Permutation)))
    @settings(max_examples=300)
    def test_agrees_with_direct_test(self, g):
        rep = rc.fix_union_test(g)
        assert rep.has_regular_cycle == has_regular_cycle_direct(g)
        # sufficiency: S < 1 forces a regular cycle (hard assertion)
        if rep.s_value < 1:
            assert rep.has_regular_cycle
        # for g != 1: no regular cycle iff the union covers the domain
        if rep.order > 1:
            assert (rep.fix_union_size == rep.degree) == (
                not rep.has_regular_cycle)

    @given(st.lists(st.integers(min_value=1, max_value=12), max_size=8),
           st.randoms(use_true_random=False))
    @settings(max_examples=300)
    def test_matches_the_power_reference(self, lengths, rnd):
        # cycles of the drawn lengths on shuffled points
        points = list(range(sum(lengths)))
        rnd.shuffle(points)
        images = list(range(len(points)))
        start = 0
        for L in lengths:
            cycle = points[start:start + L]
            for x, y in zip(cycle, cycle[1:] + cycle[:1]):
                images[x] = y
            start += L
        g = Permutation(images)
        assert rc.fix_union_test(g) == _reference_fix_union_test(g)

    def test_json_record(self):
        rep = rc.fix_union_test(parse_cycles("(1 2 3)(4 5)(6 7)", 7))
        d = rep.to_json_dict()
        assert d["schema"] == 1
        assert d["s_value_num"] == 1 and d["s_value_den"] == 1
        assert d["has_regular_cycle"] is False


class TestCountRegularCycles:
    def test_identity_counts_fixed_points(self):
        assert count_regular_cycles(identity(5)) == 5

    def test_two_two_cycles(self):
        assert count_regular_cycles(parse_cycles("(1 2)(3 4)", 4)) == 2

    def test_no_regular_cycle(self):
        assert count_regular_cycles(parse_cycles("(1 2 3)(4 5)(6 7)", 7)) == 0

    def test_regular_cycles_of_the_longest_length(self):
        # (6)(3)(2)(1): every length divides 6, one 6-cycle
        g = parse_cycles("(1 2 3 4 5 6)(7 8 9)(10 11)", 12)
        assert count_regular_cycles(g) == 1
        assert count_regular_cycles(
            parse_cycles("(1 2 3 4)(5 6 7 8)(9 10)", 11)) == 2
        assert count_regular_cycles(
            parse_cycles("(1 2 3 4)(5 6 7 8 9 10)", 10)) == 0

    def test_order_past_int64(self):
        # one cycle of each of the first 16 primes, 2 + 3 + ... + 53 = 381
        # points: the order, their product, is about 3.26e19 > 2**63
        primes = [p for p in range(2, 54) if numtheory.is_prime(p)]
        images, start = [], 0
        for p in primes:
            images += [start + (i + 1) % p for i in range(p)]
            start += p
        assert len(primes) == 16 and len(images) == 381
        assert math.prod(primes) > 2**63
        assert count_regular_cycles(images) == 0
        assert not has_regular_cycle_direct(Permutation(images))
        # in a chunk of the bulk scan its row fails, and its order (a
        # product of distinct primes) passes the square-free filter
        rows = np.array([list(range(381)), images, images[::-1]])
        sizes = rc.cycle_sizes(rows)
        counts = rc._regular_counts(sizes)
        kept = rc._square_free_table(381)[sizes].all(axis=1)
        lengths = cycle_lengths(images[::-1])
        assert counts.tolist() == [381, 0,
                                   lengths.count(math.lcm(*lengths))]
        assert kept[:2].tolist() == [True, True]


class TestVerifyAllElements:
    def test_alt5_all_regular(self):
        rep = rc.verify_all_elements(alternating_group(5))
        assert rep.all_regular
        assert rep.group_order == 60

    def test_sym5_fails_with_32_witness(self):
        rep = rc.verify_all_elements(symmetric_group(5))
        assert not rep.all_regular
        w = rep.witnesses[0]
        assert cycle_type(w).lengths == (3, 2)

    def test_alt8_fails_with_3221_witness(self):
        rep = rc.verify_all_elements(alternating_group(8))
        assert not rep.all_regular
        assert cycle_type(rep.witnesses[0]).lengths == (3, 2, 2, 1)

    def test_square_free_reduction_matches_exhaustive(self):
        for G in (alternating_group(5), symmetric_group(5),
                  alternating_group(6), symmetric_group(6),
                  PermGroup(6, [parse_cycles("(1 2 3 4 5 6)", 6)])):
            full = rc.verify_all_elements(G)
            reduced = rc.verify_all_elements(G, square_free_only=True)
            assert full.all_regular == reduced.all_regular
            assert reduced.checked <= full.checked

    def test_square_free_factors_once_per_order(self, monkeypatch):
        G = symmetric_group(6)
        orders = {element_order(g) for g in enumerate_elements(G)}
        calls = []
        factorize = numtheory.factorize

        def counting(n):
            calls.append(n)
            return factorize(n)

        monkeypatch.setattr(numtheory, "factorize", counting)
        rep = rc.verify_all_elements(G, square_free_only=True)
        assert rep.group_order == 720
        assert len(calls) <= len(orders)

    def test_square_free_table_matches_the_factorization(self):
        for degree in (1, 3, 4, 63, 1000):
            table = rc._square_free_table(degree)
            assert table.tolist() == [
                n == 0 or all(e == 1 for _p, e in numtheory.factorize(n).pairs)
                for n in range(degree + 1)]

    def test_degree_above_65535(self):
        swap = Permutation([1, 0] + list(range(2, 70000)))
        rep = rc.verify_all_elements(PermGroup(70000, [swap]))
        assert rep.all_regular
        assert rep.group_order == 2

    @pytest.mark.parametrize("G, failing", [
        (symmetric_group(5), 20),  # type 3.2
        (symmetric_group(6), 120),  # type 3.2.1
        (alternating_group(7), 210),  # type 3.2.2
    ], ids=["sym5", "sym6", "alt7"])
    def test_failing_counts_every_failing_element(self, G, failing):
        assert failing == sum(not has_regular_cycle_direct(g)
                              for g in enumerate_elements(G))
        for square_free_only in (False, True):
            rep = rc.verify_all_elements(G, square_free_only=square_free_only)
            assert rep.failing == failing
            assert rep.verdict == "failures" and not rep.all_regular

    def test_witness_is_lexicographically_least(self):
        rep = rc.verify_all_elements(symmetric_group(5))
        failing = [g for g in enumerate_elements(symmetric_group(5))
                   if not has_regular_cycle_direct(g)]
        assert rep.witnesses[0] == min(failing)

    def test_sp6_2_reads_one_coset_per_pair_orbit(self, monkeypatch):
        # Sp6(2) on 63 points, base orbits 63, 32, 15, 6, 4, 2: G_b has
        # three orbits, {b1}, the 32 points of b2 and 30 more.  One coset
        # of G_(2) (720 elements) per G_(2)-orbit on the 63 x 32 base-point
        # pairs would read 40 x 720 = 28,800 rows, and one coset per
        # G_b-orbit 3 x 23,040 = 69,120.  Each orbit is read its cheapest
        # way: G_b itself through the chain's stabilizers (1,680 rows),
        # the coset of b2 one coset per pair orbit over b2 (4 x 720 =
        # 2,880) and the last orbit one per pair orbit over it (12 x 720
        # = 8,640), 13,200 rows.  They are regrouped into kernel calls of
        # 15,872 // 63 = 251 rows, so they take 52 full calls and one of
        # 148 rows
        space, gens = geometry.builtin_matrix_group("sp6_2")
        G = geometry.perm_image(gens, geometry.singular_points(space))
        rows, kernel = [], rc.cycle_sizes

        def counted(chunk):
            rows.append(len(chunk))
            return kernel(chunk)

        monkeypatch.setattr(rc, "cycle_sizes", counted)
        report = rc.verify_all_elements(G)
        assert report.all_regular  # so no witness pass reads a row
        assert report.failing == 0 and report.verdict == "all-regular"
        assert report.checked == 1451520
        assert sum(rows) == 13200
        assert rows == [251] * 52 + [148]

    def test_kernel_calls_split_blocks_and_keep_their_owners(self):
        # blocks of 2 x 3 and 1 x 4 rows of degree 2, in calls of 4 rows:
        # the first block's last two rows go with the second block's first
        # two, and every row keeps the coset it came from
        rows = np.arange(20).reshape(10, 2)
        blocks = [(0, 0, rows[:6].reshape(2, 3, 2)),
                  (5, 3, rows[6:].reshape(1, 4, 2))]
        calls = [(r.copy(), rc._owners(slices))
                 for r, slices in rc._kernel_calls(iter(blocks), 4)]
        assert [owner.tolist() for _, owner in calls] == \
            [[0, 0, 0, 1], [1, 1, 5, 5], [5, 5]]
        assert np.array_equal(np.concatenate([r for r, _ in calls]), rows)

    def test_kernel_chunk_stays_below_the_mmap_threshold(self):
        # each int64 temporary of a full chunk comes from the heap, below
        # glibc's default mmap threshold of 128 KiB
        assert rc._CHUNK_ENTRIES * 8 < 128 * 1024

    def test_stabilizer_is_never_held_whole(self):
        space, gens = geometry.builtin_matrix_group("sp6_2")
        G = geometry.perm_image(gens, geometry.singular_points(space))
        chain = G.stabilizer_chain()
        stab_bytes = chain.order // 63 * G.degree  # G_b: 23,040 x 63 bytes
        assert stab_bytes == 23040 * 63
        # the pieces of G_(l) are bounded by the kernel's chunk, far
        # smaller than G_b itself
        tracemalloc.start()
        try:
            pieces = rc.verify_all_elements(G)
            _size, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert pieces.all_regular and pieces.checked == 1451520
        assert peak < stab_bytes


class _AccessorChain:
    """A stand-in for a stabilizer chain that holds only what the verifier
    may read of it: the accessors orbits, representatives and
    pair_orbits, and base, orbit_lengths, cosets, order and degree.  Any
    other read, of the levels above all, raises AttributeError."""

    __slots__ = ("orbits", "representatives", "pair_orbits", "base",
                 "orbit_lengths", "cosets", "order", "degree")

    def __init__(self, chain):
        for name in self.__slots__:
            setattr(self, name, getattr(chain, name))


def _plain(readings):
    """_orbit_readings' (orbits, pieces) with arrays and ranges as lists."""
    orbits, pieces = readings
    return orbits, [(level, xs.tolist(), list(weights), list(owners))
                    for level, xs, weights, owners in pieces]


def _boundary_group(name):
    if name == "sym8":
        return symmetric_group(8), 10**7
    space, gens = geometry.builtin_matrix_group(name)
    return (geometry.perm_image(gens, geometry.singular_points(space)),
            10**9)


class TestChainBoundary:
    """The verifier reads the stabilizer chain through its accessors only,
    and pair_orbits gives the orbits of G_(l+2) on base-point pairs."""

    @pytest.mark.parametrize("name", ["sp6_2", "sym8", "o8p_2"])
    def test_readings_use_the_accessors_alone(self, name):
        G, cap = _boundary_group(name)
        chain = G.stabilizer_chain(cap)
        depth = 0
        while True:
            got = rc._orbit_readings(_AccessorChain(chain), depth)
            assert _plain(got) == _plain(rc._orbit_readings(chain, depth))
            if "branch" not in [kind for _o, _r, kind in got[0]]:
                break
            depth += 1
        assert depth >= 1  # the branch was read through the stand-in too

    @pytest.mark.parametrize("name", ["sp6_2", "sym8"])
    def test_verify_reads_the_chain_through_the_accessors(self, monkeypatch,
                                                           name):
        G, cap = _boundary_group(name)
        expected = [rc.verify_all_elements(G, cap, square_free_only)
                    for square_free_only in (False, True)]
        chain = G.stabilizer_chain(cap)
        monkeypatch.setattr(PermGroup, "stabilizer_chain",
                            lambda self, cap=None: _AccessorChain(chain))
        assert [rc.verify_all_elements(G, cap, square_free_only)
                for square_free_only in (False, True)] == expected
        # Sym(8) fails, so its witness pass reads the stand-in too
        assert expected[0].all_regular == (name == "sp6_2")
        assert len(expected[0].witnesses) == (0 if name == "sp6_2" else 5)

    @pytest.mark.parametrize("name", ["sp6_2", "sym8"])
    @pytest.mark.parametrize("level", [0, 1])
    def test_pair_orbits_partition_the_pairs(self, name, level):
        G, cap = _boundary_group(name)
        chain = G.stabilizer_chain(cap)
        b, n = chain.base, chain.orbit_lengths
        # G_(level+2), every element, by the reference's own products
        below = stabilizer_rows(chain, level + 2)
        choices = [orbit for orbit in chain.orbits(level)
                   if orbit != [b[level]]]
        choices = [[b[level + 1]] if b[level + 1] in orbit else orbit
                   for orbit in choices]
        choices.append(sorted(x for o in chain.orbits(level) for x in o))
        for firsts in choices:
            rows, lengths = chain.pair_orbits(level, firsts)
            assert len(rows) == len(lengths)
            assert sum(lengths) == len(firsts) * n[level + 1]
            assert (rows[:, b[:level]] == b[:level]).all()
            assert set(rows[:, b[level]].tolist()) <= set(firsts)
            assert all(chain.contains(row) for row in rows.tolist())
            seen = set()
            for row, length in zip(rows.tolist(), lengths):
                pair = (row[b[level]], row[b[level + 1]])
                orbit = {(h[pair[0]], h[pair[1]]) for h in below.tolist()}
                assert len(orbit) == length
                assert not orbit & seen  # no two rows in one orbit
                seen |= orbit


class TestCompareActions:
    def test_identical_actions(self):
        G = symmetric_group(5)
        rep = rc.compare_actions_monotonic(G, G, samples=200)
        assert rep.monotone

    def test_collapsed_second_action_fails(self):
        G1 = symmetric_group(5)
        trivial = PermGroup(1, [identity(1), identity(1)])
        rep = rc.compare_actions_monotonic(G1, trivial, samples=200)
        assert not rep.monotone

    def test_seed_reproducibility(self):
        G = symmetric_group(6)
        r1 = rc.compare_actions_monotonic(G, G, samples=50, seed=7)
        r2 = rc.compare_actions_monotonic(G, G, samples=50, seed=7)
        assert r1 == r2

    @pytest.mark.parametrize("samples", [0, -5])
    def test_samples_below_one_are_refused(self, samples):
        G = symmetric_group(4)
        with pytest.raises(ValueError):
            rc.compare_actions_monotonic(G, G, samples=samples)

    def test_unequal_generator_counts_are_refused(self):
        with pytest.raises(ValueError, match="^the two actions list "
                           "different numbers of generators and cannot "
                           "be compared word-by-word$"):
            rc.compare_actions_monotonic(cyclic_group(4),
                                         symmetric_group(4), samples=10)

    def test_actions_without_generators_are_refused(self):
        G = PermGroup(3, [])
        with pytest.raises(ValueError, match="no generators"):
            rc.compare_actions_monotonic(G, G, samples=10)

    @pytest.mark.parametrize("k1, k2", [(2, 3), (3, 2)])
    def test_diagonal_action_matches_the_two_action_loop(self, k1, k2):
        # Sym(8) on 2-sets against 3-sets: not monotone in one order
        G1 = geometry.k_set_action(8, k1)
        G2 = geometry.k_set_action(8, k2)
        rep = rc.compare_actions_monotonic(G1, G2, samples=3000, seed=7)
        assert rep == compare_actions_two_loops(G1, G2, samples=3000,
                                                seed=7)
        assert rep.monotone == (k1 < k2)
        if not rep.monotone:
            assert len(rep.violations) == 5

    def test_diagonal_action_matches_on_sp6_2_points_and_nd2(self):
        space, gens = geometry.builtin_matrix_group("sp6_2")
        G1 = geometry.perm_image(gens, geometry.singular_points(space))
        G2 = geometry.perm_image(gens,
                                 geometry.nondegenerate_2_subspaces(space))
        for a, b in ((G1, G2), (G2, G1)):
            rep = rc.compare_actions_monotonic(a, b, samples=1000, seed=3)
            assert rep == compare_actions_two_loops(a, b, samples=1000,
                                                    seed=3)

    @staticmethod
    def _kernel_rows(monkeypatch):
        """The rows the kernel reads, summed by their width."""
        rows, kernel = {}, rc.cycle_sizes

        def counted(chunk):
            rows[chunk.shape[1]] = rows.get(chunk.shape[1], 0) + len(chunk)
            return kernel(chunk)

        monkeypatch.setattr(rc, "cycle_sizes", counted)
        return rows

    @pytest.mark.parametrize("rows, order, primes, counts", [
        # one 6-cycle and a 2-cycle: w**6 = 1 and 6 points on 6-cycles
        ([[1, 2, 3, 4, 5, 0, 7, 6]], 6, (2, 3), [1]),
        # two 3-cycles at order 6 (3 = 6/2): w**6 = 1 but no point moved
        # by both w**3 and w**2, so the order is a proper divisor
        ([[1, 2, 0, 4, 5, 3, 6, 7]], 6, (2, 3), [-1]),
        # a 4-cycle at order 6: w**6 != 1
        ([[1, 2, 3, 0, 4, 5, 6, 7]], 6, (2, 3), [-1]),
        # the identity at order 1: every point a regular 1-cycle
        ([list(range(8))], 1, (), [8]),
        # two rows of order 4 at once: (0 1 2 3)(4 5 6 7), (0 1 2 3)(4 5)
        ([[1, 2, 3, 0, 5, 6, 7, 4], [1, 2, 3, 0, 5, 4, 6, 7]], 4, (2,),
         [2, 1]),
    ])
    def test_fix_union_counts_decide_or_defer(self, rows, order, primes,
                                              counts):
        # the rows are read as the action-2 columns of diagonal rows,
        # shifted by d1 = 3
        shifted = np.array(rows, np.uint8) + 3
        assert rc._fix_union_counts(shifted, 3, order, primes).tolist() \
            == counts

    @pytest.mark.parametrize("sign_first", [True, False])
    def test_rows_the_powers_cannot_decide_reach_the_kernel(
            self, monkeypatch, sign_first):
        # Sym(5) on points against its sign action on 2 points: the
        # transposition swaps them and the 5-cycle fixes them.  As action
        # 1, the sign action gives an odd word order 2 and an even one
        # order 1, at which w**o != 1 on the points for most words; as
        # action 2, a 3-cycle has o = 3 and acts trivially, so no point
        # there is moved by w: P = 0
        G = symmetric_group(5)
        sign = PermGroup(2, [(1, 0), (0, 1)])
        G1, G2 = (sign, G) if sign_first else (G, sign)
        rows = self._kernel_rows(monkeypatch)
        rep = rc.compare_actions_monotonic(G1, G2, samples=200, seed=11)
        assert rep == compare_actions_two_loops(G1, G2, samples=200,
                                                seed=11)
        assert rows[G1.degree] == 200
        assert rows[G2.degree] > 0

    def test_sp6_2_points_against_nd2_never_needs_the_kernel_twice(
            self, monkeypatch):
        # the fix-union test decides action 2 for all 1,000 words: the
        # kernel reads their 63 action-1 columns and nothing of the 336
        # action-2 columns
        G1, G2 = _sp6_2_points_and_nd2()
        rows = self._kernel_rows(monkeypatch)
        rep = rc.compare_actions_monotonic(G1, G2, samples=1000, seed=3)
        assert rep.monotone and rep.samples == 1000
        assert rows == {63: 1000}

    def test_sampling_stops_at_the_fifth_violation(self, monkeypatch):
        # Sym(8) on 3-sets against 2-sets holds five violations in its
        # first chunk of 15,872 // 56 = 283 words, so the rest of the
        # 3,000 words requested are never read
        G1, G2 = geometry.k_set_action(8, 3), geometry.k_set_action(8, 2)
        rows = self._kernel_rows(monkeypatch)
        rep = rc.compare_actions_monotonic(G1, G2, samples=3000, seed=7)
        assert rep == compare_actions_two_loops(G1, G2, samples=3000,
                                                seed=7)
        assert len(rep.violations) == 5 and rep.samples == 3000
        assert rows[56] == 283 < 3000

    def test_a_chunk_of_words_stays_within_the_table_bound(self):
        # a trivial action on 1 point against C_65600: 15,872 // d1 words
        # of 65,601 points each would take 4 GB.  The table and the chunk
        # each hold at most _TABLE_BYTES, and every word's action-2
        # columns go through the kernel (at o = 1, w**o != 1 on them),
        # whose temporaries for one row of 65,600 points take about 3 MB
        C = cyclic_group(65600)
        trivial = PermGroup(1, [[0]])
        tracemalloc.start()
        try:
            rep = rc.compare_actions_monotonic(trivial, C, samples=20,
                                               seed=3)
            _size, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert rep == compare_actions_two_loops(trivial, C, samples=20,
                                                seed=3)
        assert peak < 3 * rc._TABLE_BYTES


def _sp6_2_points_and_nd2():
    space, gens = geometry.builtin_matrix_group("sp6_2")
    return (geometry.perm_image(gens, geometry.singular_points(space)),
            geometry.perm_image(gens,
                                geometry.nondegenerate_2_subspaces(space)))


def _compare_pair(name):
    """(G1, G2, samples, seed) of a named pair of actions."""
    if name.startswith("sym8"):
        k1, k2 = (2, 3) if name == "sym8-2sets-3sets" else (3, 2)
        return (geometry.k_set_action(8, k1), geometry.k_set_action(8, k2),
                3000, 7)
    if name.startswith("sp6_2"):
        G1, G2 = _sp6_2_points_and_nd2()
        return (G1, G2, 1000, 3) if name == "sp6_2-points-nd2" \
            else (G2, G1, 1000, 3)
    C = cyclic_group(65600)  # 131,200 points in the diagonal action
    return C, C, 10, 3


class TestLetterProducts:
    """compare_actions_monotonic reads each word k letters at a time from
    one table of k-letter products; every k gives the report of the loop
    that evaluates each action one letter at a time."""

    PAIRS = ["sym8-2sets-3sets", "sym8-3sets-2sets", "sp6_2-points-nd2",
             "sp6_2-nd2-points", "cyclic65600-twice"]
    DTYPES = {"sym8": np.uint8, "sp6_2": np.uint16, "cyclic65600": np.uint32}

    @pytest.fixture(scope="class")
    def oracle(self):
        """The two-loop report of each pair, computed once."""
        reports = {}

        def report(name):
            if name not in reports:
                G1, G2, samples, seed = _compare_pair(name)
                reports[name] = compare_actions_two_loops(
                    G1, G2, samples=samples, seed=seed)
            return reports[name]

        return report

    @pytest.mark.parametrize("width", [1, 2, 3])
    @pytest.mark.parametrize("name", PAIRS)
    def test_every_width_matches_the_two_action_loop(self, monkeypatch,
                                                     oracle, name, width):
        G1, G2, samples, seed = _compare_pair(name)
        n, d = len(G1.images), G1.degree + G2.degree
        dtype = np.dtype(self.DTYPES[name.split("-")[0]])
        # the bound that the table of `width` letters fills exactly
        bound = n * (n + 1) ** (width - 1) * d * dtype.itemsize
        monkeypatch.setattr(rc, "_TABLE_BYTES", bound)
        tables, build = [], rc._letter_products

        def spy(*groups):
            tables.append(build(*groups))
            return tables[-1]

        monkeypatch.setattr(rc, "_letter_products", spy)
        rep = rc.compare_actions_monotonic(G1, G2, samples=samples,
                                           seed=seed)
        assert rep == oracle(name)
        [(table, k)] = tables
        assert k == width and table.nbytes <= bound
        assert table.dtype == dtype
        assert table.shape == (n * (n + 1) ** (k - 1), d)
        if name == "sym8-3sets-2sets":
            assert not rep.monotone and len(rep.violations) == 5

    @pytest.mark.parametrize("name, width", [
        ("sym8-2sets-3sets", 10), ("sp6_2-points-nd2", 3),
        ("cyclic65600-twice", 3)])
    def test_the_widest_table_within_the_bound(self, name, width):
        G1, G2, samples, _seed = _compare_pair(name)
        table, k = rc._letter_products(G1, G2, samples)
        assert k == width
        assert table.nbytes <= rc._TABLE_BYTES < (len(G1.images) + 1) \
            * table.nbytes

    @pytest.mark.parametrize("name, width", [("sp6_2", 3), ("o8p_2", 2)])
    def test_benchmark_pairs_keep_their_width_at_2000_words(self, name,
                                                            width):
        # 2,000 words read at most 80,000 rows: the byte bound decides
        space, gens = geometry.builtin_matrix_group(name)
        G1 = geometry.perm_image(gens, geometry.singular_points(space))
        G2 = geometry.perm_image(gens,
                                 geometry.nondegenerate_2_subspaces(space))
        table, k = rc._letter_products(G1, G2, 2000)
        n = len(G1.images)
        assert k == width and len(table) == n * (n + 1) ** (k - 1)

    @pytest.mark.parametrize("samples, width", [
        (1, 3), (7, 5), (200, 8), (2000, 10)])
    def test_the_words_bound_the_rows(self, monkeypatch, samples, width):
        # Sym(5) on points with itself: the byte bound alone allows k = 12
        # (354,294 rows); samples words read at most samples x 40 rows,
        # and the table has no more
        G = symmetric_group(5)
        tables, build = [], rc._letter_products

        def spy(*args):
            tables.append(build(*args))
            return tables[-1]

        monkeypatch.setattr(rc, "_letter_products", spy)
        rep = rc.compare_actions_monotonic(G, G, samples=samples, seed=5)
        assert rep == compare_actions_two_loops(G, G, samples=samples,
                                                seed=5)
        [(table, k)] = tables
        reads = samples * rc.MAX_WORD_LENGTH
        assert k == width and len(table) == 2 * 3 ** (k - 1)
        assert len(table) <= reads < 3 * len(table)

    def test_table_rows_are_the_products_of_their_letters(self,
                                                          monkeypatch):
        # letters l_0, l_1, l_2, applied in that order, with l_0 a
        # generator, sit at the code that reads them as base-(n+1) digits,
        # less (n+1)**2; letter 0 is the identity
        G1, G2 = geometry.k_set_action(5, 2), geometry.k_set_action(5, 1)
        n, d1, d = 2, 10, 15
        monkeypatch.setattr(rc, "_TABLE_BYTES", n * (n + 1) ** 2 * d)
        table, k = rc._letter_products(G1, G2, 1000)
        assert k == 3 and len(table) == n * (n + 1) ** 2
        letters = [np.arange(d)] + [
            np.concatenate([a, b + d1]) for a, b in
            zip(G1.images.astype(np.intp), G2.images.astype(np.intp))]
        for l0, l1, l2 in itertools.product(range(1, n + 1), range(n + 1),
                                            range(n + 1)):
            row = (l0 * (n + 1) + l1) * (n + 1) + l2 - (n + 1) ** 2
            assert table[row].tolist() == \
                letters[l2][letters[l1][letters[l0]]].tolist()
