"""Tests for permutations, groups, enumeration, and the group-file format."""

import itertools
import math
import time
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from perm_reference import (
    alternating_group,
    compose,
    conjugacy_classes,
    cycle_lengths,
    cycle_type,
    cyclic_group,
    element_order,
    emit_group_file as reference_group_file,
    enumerate_elements,
    inverse,
    power,
    stabilizer_rows,
)
from corpus import fixing, projective_line_group
from regcycles import geometry, perm
from regcycles.perm import (
    CapExceeded,
    GroupFileError,
    PermGroup,
    Permutation,
    cycle_decomposition,
    cycle_sizes,
    emit_group_file,
    has_regular_cycle_direct,
    identity,
    parse_cycles,
    parse_group_file,
    symmetric_group,
)

perms = st.integers(min_value=1, max_value=12).flatmap(
    lambda d: st.permutations(range(d)).map(Permutation))


def random_pair(draw_degree=10):
    return st.permutations(range(draw_degree)).map(Permutation)


class TestArithmetic:
    def test_compose_inverse_is_identity(self):
        g = parse_cycles("(1 2 3)(4 5)", 7)
        assert compose(g, inverse(g)) == identity(7)

    def test_power_order(self):
        g = parse_cycles("(1 2 3)(4 5)(6 7)", 7)
        assert element_order(g) == 6
        assert power(g, 6) == identity(7)

    def test_negative_power_is_inverse(self):
        g = parse_cycles("(1 2 3 4)(5 6)", 7)
        assert power(g, -1) == inverse(g)

    def test_degree_mismatch(self):
        with pytest.raises(ValueError):
            compose(identity(3), identity(4))

    @given(st.lists(st.integers(min_value=-2, max_value=7), max_size=6))
    @settings(max_examples=300)
    def test_accepts_exactly_the_bijections(self, images):
        if sorted(images) == list(range(len(images))):
            assert Permutation(images).images == tuple(images)
        else:
            with pytest.raises(ValueError, match="do not form a bijection"):
                Permutation(images)

    @given(st.permutations(range(9)).map(Permutation),
           st.permutations(range(9)).map(Permutation),
           st.permutations(range(9)).map(Permutation))
    def test_associativity(self, a, b, c):
        assert compose(compose(a, b), c) == compose(a, compose(b, c))

    @given(st.permutations(range(10)).map(Permutation),
           st.integers(min_value=-30, max_value=30))
    def test_power_matches_repeated_product(self, g, k):
        expected = identity(10)
        step = g if k >= 0 else inverse(g)
        for _ in range(abs(k)):
            expected = compose(expected, step)
        assert power(g, k) == expected


class TestValueType:
    @given(perms, perms)
    def test_equality_hash_and_order_follow_the_images(self, a, b):
        assert (a == b) == (a.images == b.images)
        assert (a < b) == (a.images < b.images)
        assert (a <= b) == (a.images <= b.images)
        assert Permutation(list(a.images)) == a
        assert hash(Permutation(list(a.images))) == hash(a)

    def test_equal_images_give_one_set_element(self):
        g, h = Permutation([1, 2, 0]), Permutation(np.array([1, 2, 0]))
        assert g is not h and g == h and hash(g) == hash(h)
        assert len({g, h}) == 1
        assert h.images == (1, 2, 0)
        assert all(type(x) is int for x in h.images)

    def test_assignment_raises(self):
        g = Permutation([1, 0])
        with pytest.raises(AttributeError):
            g.images = (0, 1)
        with pytest.raises(AttributeError):
            del g.images
        # a new name is refused too: Python 3.11's frozen slotted
        # dataclasses raise TypeError for it
        with pytest.raises((AttributeError, TypeError)):
            g.note = "moved"
        assert g.images == (1, 0) and not hasattr(g, "note")

    def test_not_equal_to_its_images(self):
        g = Permutation([1, 2, 0])
        assert g != (1, 2, 0) and (1, 2, 0) != g
        assert g != [1, 2, 0]


class TestCycles:
    def test_identity_decomposition(self):
        cycles = cycle_decomposition(identity(5).images)
        assert cycles == [(0,), (1,), (2,), (3,), (4,)]
        assert element_order(identity(5)) == 1

    def test_mixed_cycle_type_element(self):
        g = parse_cycles("(1 2 3)(4 5)(6 7)", 7)
        lengths = [len(c) for c in cycle_decomposition(g.images)]
        assert sorted(lengths) == [2, 2, 3]
        assert element_order(g) == 6

    def test_five_cycle(self):
        g = parse_cycles("(1 2 3 4 5)", 5)
        assert element_order(g) == 5

    def test_regular_cycle_direct(self):
        assert not has_regular_cycle_direct(parse_cycles("(1 2 3)(4 5)(6 7)", 7))
        assert has_regular_cycle_direct(parse_cycles("(1 2)(3 4)", 5))
        assert has_regular_cycle_direct(parse_cycles("(1 2 3 4)(5 6)", 6))
        assert has_regular_cycle_direct(identity(4))

    @given(st.permutations(range(11)).map(Permutation))
    def test_order_is_lcm_and_regular_implies_small_order(self, g):
        lengths = [len(c) for c in cycle_decomposition(g.images)]
        assert sum(lengths) == 11
        assert element_order(g) == math.lcm(*lengths)
        if has_regular_cycle_direct(g):
            assert element_order(g) <= g.degree

    @given(st.permutations(range(8)).map(Permutation),
           st.permutations(range(8)).map(Permutation))
    def test_cycle_type_conjugation_invariant(self, g, h):
        conj = compose(compose(inverse(h), g), h)
        assert cycle_type(conj) == cycle_type(g)


# (dtype, degree, rows, seed): u1 rows hold at most 256 points
cycle_size_cases = st.sampled_from(["u1", "u2", "intp"]).flatmap(
    lambda dtype: st.tuples(
        st.just(dtype),
        st.integers(min_value=1, max_value=256 if dtype == "u1" else 400),
        st.integers(min_value=1, max_value=50),
        st.integers(min_value=0, max_value=2**32 - 1)))


class TestCycleSizes:
    @given(cycle_size_cases)
    @settings(max_examples=200)
    def test_agrees_with_the_scalar_walk(self, case):
        dtype, degree, nrows, seed = case
        rng = np.random.default_rng(seed)
        rows = []
        for _ in range(nrows):
            # a random power of a random permutation: short cycles too
            p = rng.permutation(degree)
            row = np.arange(degree)
            for _ in range(rng.integers(1, 13)):
                row = p[row]
            rows.append(row)
        rows = np.array(rows, dtype=dtype)
        sizes = cycle_sizes(rows)
        assert sizes.shape == (nrows, degree)
        for images, got in zip(rows.tolist(), sizes.tolist()):
            assert sorted(n for n in got if n) == sorted(cycle_lengths(images))
            # each length sits at its cycle's least point
            want = [0] * degree
            for cycle in cycle_decomposition(images):
                want[cycle[0]] = len(cycle)
            assert got == want

    def test_fixed_rows(self):
        rows = np.array([[1, 2, 0, 4, 3, 5], [0, 1, 2, 3, 4, 5],
                         [5, 0, 1, 2, 3, 4]], dtype="u1")
        assert cycle_sizes(rows).tolist() == [[3, 0, 0, 2, 0, 1],
                                              [1, 1, 1, 1, 1, 1],
                                              [6, 0, 0, 0, 0, 0]]


@st.composite
def writer_rows(draw):
    """(degree, rows): random image rows of one degree, with identity
    rows, fixed points, one long cycle and sparse rows among them."""
    degree = draw(st.sampled_from([1, 2, 3, 9, 10, 11, 99, 100, 101, 1000,
                                   1001, 12345]))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    rows = []
    for kind in draw(st.lists(st.sampled_from(
            ["identity", "power", "cycle", "sparse"]), max_size=6)):
        row = np.arange(degree)
        if kind == "power":
            # a random power of a random permutation: fixed points too
            p = rng.permutation(degree)
            for _ in range(rng.integers(1, 13)):
                row = p[row]
        elif kind == "cycle":
            points = rng.permutation(degree)
            row[points] = np.roll(points, -1)
        elif kind == "sparse":
            points = rng.permutation(degree)[:rng.integers(0, 8)]
            row[points] = np.roll(points, -1)
        rows.append(row)
    return degree, rows


class TestGroupFileWriter:
    """emit_group_file against the scalar writer, one cycle_string per
    row, and read back by parse_group_file."""

    @given(writer_rows())
    @settings(max_examples=150, deadline=None)
    def test_writes_what_the_scalar_walk_writes(self, case):
        degree, rows = case
        G = PermGroup(degree, rows)
        text = emit_group_file(G)
        assert text == reference_group_file(G)
        assert (parse_group_file(text).images == G.images).all()

    def test_sparse_rows_of_a_million_points(self):
        # points of 1 to 7 digits, and rows across many writer blocks
        d = 10**6
        rows = [np.arange(d) for _ in range(3)]
        rows[0][[0, 9, 99, 999, 9999, 99999, d - 1]] = \
            [9, 99, 999, 9999, 99999, d - 1, 0]
        rows[2][[5, d - 2]] = [d - 2, 5]
        G = PermGroup(d, rows)
        text = emit_group_file(G)
        assert text == reference_group_file(G) == (
            f"degree {d}\n(1 10 100 1000 10000 100000 {d})\nid\n"
            f"(6 {d - 1})\n")
        assert (parse_group_file(text).images == G.images).all()

    def test_many_small_rows_span_blocks(self):
        G = PermGroup(5, [[1, 0, 2, 3, 4], [1, 2, 3, 4, 0], list(range(5))]
                      * 5000)
        assert emit_group_file(G) == reference_group_file(G)

    def test_no_generators(self):
        assert emit_group_file(PermGroup(4, [])) == "degree 4\n"


class TestGroups:
    def test_alt5_enumeration(self):
        G = alternating_group(5)
        assert len(enumerate_elements(G, cap=10**4)) == 60

    def test_sym6_enumeration(self):
        assert symmetric_group(6).order(cap=10**4) == 720

    def test_cap_exceeded(self):
        with pytest.raises(CapExceeded):
            symmetric_group(9).element_array(cap=10**4)

    def test_symmetric_group_past_the_domain_cap(self):
        cap = perm.DEFAULT_DOMAIN_CAP
        assert symmetric_group(cap).degree == cap
        for m in (cap + 1, 10**100):
            start = time.perf_counter()
            with pytest.raises(OverflowError, match=f"^degree {m} exceeds "
                                                    f"the domain cap {cap}$"):
                symmetric_group(m)
            assert time.perf_counter() - start < 1

    def test_contains(self):
        G = PermGroup(4, [parse_cycles("(1 2)(3 4)", 4)])
        assert G.contains(parse_cycles("(1 2)(3 4)", 4))
        assert G.contains(identity(4))
        assert not G.contains(parse_cycles("(1 2 3)", 4))
        assert not G.contains(identity(5))
        with pytest.raises(CapExceeded):
            symmetric_group(9).contains(identity(9), cap=10**4)

    def test_enumeration_sorted_and_closed(self):
        G = symmetric_group(4)
        elems = enumerate_elements(G)
        assert elems == sorted(elems)
        elem_set = set(elems)
        for a in elems[:8]:
            assert inverse(a) in elem_set
            for b in elems[:8]:
                assert compose(a, b) in elem_set

    def test_orbits_and_transitivity(self):
        G = PermGroup(4, [parse_cycles("(1 2)", 4), parse_cycles("(3 4)", 4)])
        assert G.orbits() == [(0, 1), (2, 3)]
        assert not G.is_transitive()
        assert not G.is_primitive()

    def test_alt5_primitive(self):
        assert alternating_group(5).is_primitive()

    def test_cyclic6_imprimitive(self):
        G = cyclic_group(6)
        assert G.is_transitive()
        assert not G.is_primitive()

    def test_primitivity_against_block_oracle(self):
        # oracle: enumerate all candidate block systems by brute force
        def primitive_oracle(G):
            if not G.is_transitive():
                return False
            d = G.degree
            elems = enumerate_elements(G, cap=10**5)
            for size in range(2, d):
                if d % size:
                    continue
                from itertools import combinations
                for block in combinations(range(d), size):
                    if 0 not in block:
                        continue
                    bs = frozenset(block)
                    if all((frozenset(g.images[x] for x in bs) == bs
                            or not (frozenset(g.images[x] for x in bs) & bs))
                           for g in elems):
                        return False
            return True

        cases = [
            alternating_group(5),
            symmetric_group(4),
            cyclic_group(6),
            cyclic_group(5),
            PermGroup(6, [parse_cycles("(1 2 3 4 5 6)", 6),
                          parse_cycles("(1 4)", 6)]),
            PermGroup(8, [parse_cycles("(1 2 3 4 5 6 7 8)", 8)]),
        ]
        for G in cases:
            assert G.is_primitive() == primitive_oracle(G), G

    def test_sp6_2_points_are_primitive_with_three_stabilizer_orbits(self):
        # Sp6(2) on its 63 points: G_0 has the orbits {0}, 30 points
        # orthogonal to 0 and 32 not, so two orbital graphs decide, not 62
        space, gens = geometry.builtin_matrix_group("sp6_2")
        G = geometry.perm_image(gens, geometry.singular_points(space))
        assert G.is_primitive()
        orbits = G.stabilizer_chain().stabilizer_orbits()
        assert len(orbits) == 3
        assert sorted(map(len, orbits)) == [1, 30, 32]

    def test_conjugacy_classes_alt5(self):
        sizes = sorted(size for _rep, size in
                       conjugacy_classes(alternating_group(5)))
        assert sizes == [1, 12, 12, 15, 20]

    def test_conjugacy_classes_sym5(self):
        assert len(conjugacy_classes(symmetric_group(5))) == 7

    def test_conjugacy_classes_cyclic6(self):
        assert len(conjugacy_classes(cyclic_group(6))) == 6


def closure(degree, gens):
    """Brute-force closure of the generators: every product, as tuples."""
    elems = {tuple(range(degree))}
    frontier = list(elems)
    while frontier:
        fresh = []
        for a in frontier:
            for g in gens:
                b = tuple(g.images[x] for x in a)  # a, then g
                if b not in elems:
                    elems.add(b)
                    fresh.append(b)
        frontier = fresh
    return elems


generator_sets = st.integers(min_value=1, max_value=7).flatmap(
    lambda d: st.tuples(st.just(d), st.lists(
        st.permutations(range(d)).map(Permutation), max_size=3)))


class TestGeneratorArray:
    """A group's generators are one read-only array of image rows, checked
    once where they enter PermGroup."""

    @pytest.mark.parametrize("rows, message", [
        ([[0, 0, 2]], "bijection"),
        ([[0, 1, 3]], "bijection"),
        ([[0, -1, 2]], "bijection"),
        ([[1, 0, 2], [2, 2, 1]], "bijection"),
        ([[0, 1]], "degree mismatch"),
        ([[0, 1, 2, 3]], "degree mismatch"),
    ], ids=["repeat", "above-range", "negative", "second-row", "narrow",
            "wide"])
    def test_rejects_bad_rows_from_arrays_and_lists(self, rows, message):
        for given_rows in (rows, np.array(rows)):
            with pytest.raises(ValueError, match=message):
                PermGroup(3, given_rows)

    def test_the_parser_skips_the_check_that_other_callers_keep(
            self, monkeypatch):
        # the parser has refused every non-bijection line, so its rows
        # skip the sort; PermGroup itself still refuses one
        sorts, real_sort = [], np.sort

        def counted_sort(*args, **kwargs):
            sorts.append(args)
            return real_sort(*args, **kwargs)

        monkeypatch.setattr(np, "sort", counted_sort)
        G = parse_group_file("degree 3\n(1 2 3)\n(1 2)\n")
        assert G.images.tolist() == [[1, 2, 0], [1, 0, 2]]
        assert G.images.dtype == np.uint8 and not G.images.flags.writeable
        assert not sorts
        with pytest.raises(ValueError, match="bijection"):
            PermGroup(3, [[1, 2, 0], [1, 1, 2]])
        assert len(sorts) == 1

    def test_rejects_permutations_of_another_degree(self):
        with pytest.raises(ValueError, match="degree mismatch"):
            PermGroup(3, [identity(3), identity(4)])

    def test_images_are_one_read_only_array_in_the_point_dtype(self):
        for degree, dtype in ((256, "u1"), (257, "u2")):
            gens = [Permutation([(x + 1) % degree for x in range(degree)]),
                    Permutation([1, 0] + list(range(2, degree)))]
            G = PermGroup(degree, gens)
            assert G.images.shape == (2, degree)
            assert G.images.dtype == np.dtype(dtype)
            assert not G.images.flags.writeable
            with pytest.raises(ValueError):
                G.images[0, 0] = 1
            assert G.images.tolist() == [list(g.images) for g in gens]

    @given(generator_sets)
    def test_generators_round_trip(self, case):
        degree, gens = case
        for given_gens in (gens, [g.images for g in gens],
                           np.array([g.images for g in gens],
                                    dtype=np.intp).reshape(-1, degree)):
            G = PermGroup(degree, given_gens)
            assert G.generators == tuple(gens)
            assert all(isinstance(g, Permutation) for g in G.generators)

    def test_the_group_owns_its_array(self):
        rows = np.array([[1, 0, 2]])
        G = PermGroup(3, rows)
        rows[0] = [0, 1, 2]
        assert G.images.tolist() == [[1, 0, 2]]


class TestStabilizerChain:
    @given(generator_sets, st.data())
    @settings(max_examples=150)
    def test_chain_matches_brute_force_closure(self, case, data):
        degree, gens = case
        elems = closure(degree, gens)
        G = PermGroup(degree, gens)
        assert G.order() == len(elems)
        assert [tuple(row) for row in G.element_array().tolist()] \
            == sorted(elems)
        members = sorted(elems)[:50]
        assert all(G.contains(Permutation(e)) for e in members)
        probes = data.draw(st.lists(st.permutations(range(degree)),
                                    max_size=10))
        for images in probes:
            assert G.contains(Permutation(images)) == (tuple(images)
                                                       in elems)
        assert not G.contains(identity(degree + 1))

    @given(generator_sets, st.integers(min_value=1, max_value=6000))
    @settings(max_examples=150)
    def test_cap_exceeded_iff_order_above_cap(self, case, cap):
        degree, gens = case
        order = len(closure(degree, gens))
        calls = (lambda G: G.order(cap), lambda G: G.element_array(cap),
                 lambda G: G.contains(identity(degree), cap))
        for call in calls:
            fresh, built = PermGroup(degree, gens), PermGroup(degree, gens)
            built.order()  # chain built and cached before the capped call
            for G in (fresh, built):
                if order > cap:
                    with pytest.raises(CapExceeded):
                        call(G)
                else:
                    call(G)

    def test_refuses_past_the_cap_before_a_transversal(self):
        # the first orbit of Sym(4000) alone passes a cap of 100, so the
        # chain refuses before it builds that level's 4000 x 4000
        # transversal (32 MB of two-byte points, and its inverse)
        G = symmetric_group(4000)
        tracemalloc.start()
        try:
            with pytest.raises(CapExceeded, match="^more than 100 elements$"):
                G.stabilizer_chain(100)
            _size, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 8 * 2**20

    @pytest.mark.parametrize("degree, dihedral", [(256, False), (257, False),
                                                  (257, True)])
    def test_chain_at_the_one_byte_point_boundary(self, degree, dihedral):
        # the chain stores points in one byte up to degree 256; on 257
        # points a one-byte chain would wrap point 256 to 0
        gens = [Permutation([(x + 1) % degree for x in range(degree)])]
        if dihedral:
            gens.append(Permutation([-x % degree for x in range(degree)]))
        elems = closure(degree, gens)
        G = PermGroup(degree, gens)
        assert G.order() == len(elems) == degree * (1 + dihedral)
        assert list(map(tuple, G.element_array().tolist())) == sorted(elems)
        assert all(G.contains(Permutation(e)) for e in elems)
        swap = Permutation([1, 0] + list(range(2, degree)))
        assert not G.contains(swap)

    def test_first_base_point_is_least_moved_point(self):
        gens = [parse_cycles("(3 5)(4 6)", 6), parse_cycles("(4 5 6)", 6)]
        chain = PermGroup(6, gens).stabilizer_chain()
        assert chain.base[0] == 2
        assert chain.order == len(closure(6, gens))
        assert PermGroup(3, [identity(3)]).stabilizer_chain().base == [0]

    def test_schreier_generators_are_sifted_within_the_bound(self,
                                                             monkeypatch):
        # Sp6(2) on its 63 points: the 63 Schreier generators of one
        # generator hold 3,969 entries, past a bound of 1,000, so they are
        # sifted in blocks of orbit points
        space, gens = geometry.builtin_matrix_group("sp6_2")
        G = geometry.perm_image(gens, geometry.singular_points(space))
        monkeypatch.setattr(perm, "_ARRAY_ENTRIES", 1000)
        sizes, residue = [], perm.StabChain._residue

        def sized_residue(chain, rows, start):
            sizes.append(rows.size)
            return residue(chain, rows, start)

        monkeypatch.setattr(perm.StabChain, "_residue", sized_residue)
        assert G.order() == 1451520
        assert sizes and max(sizes) <= max(1000, G.degree)


def _row_multiset(rows):
    return sorted(map(tuple, np.asarray(rows).tolist()))


# Sym(6), PSL2(11) on the projective line, and Sym(6) on the points 3..8
# of 9, whose base starts at point 3
CHAIN_GROUPS = {
    "sym-6": lambda: symmetric_group(6),
    "psl2-11": lambda: projective_line_group(11),
    "fixed-3-plus-sym-6": lambda: fixing(3, symmetric_group(6)),
}


class TestChainPieces:
    @pytest.mark.parametrize("name", CHAIN_GROUPS)
    def test_level_rows_are_the_whole_product_in_pieces(self, name):
        G = CHAIN_GROUPS[name]()
        chain = G.stabilizer_chain()
        elements = G.element_array().astype(np.intp)
        base, d = chain.base, G.degree
        assert name != "fixed-3-plus-sym-6" or base[0] == 3
        for i in range(len(base) + 1):
            whole = _row_multiset(stabilizer_rows(chain, i))
            # the oracle is G_(i): the elements fixing b_1, ..., b_i
            fixing_base = (elements[:, base[:i]] == base[:i]).all(axis=1)
            assert whole == _row_multiset(elements[fixing_base])
            # G_(i) is the one coset of the identity; n = 1 recurses to
            # the trivial group, n >= |G| builds G_(i) whole
            for n in (1, 7, chain.order):
                blocks = list(chain.cosets(np.arange(d)[None], i, n * d))
                assert all(first == 0 and len(rows) == 1
                           and 1 <= rows.shape[1] <= n
                           for first, _at, rows in blocks)
                assert [at for _first, at, _rows in blocks] == list(
                    itertools.accumulate(
                        (rows.shape[1] for *_, rows in blocks[:-1]),
                        initial=0))
                pieces = np.concatenate([rows[0] for *_, rows in blocks])
                assert _row_multiset(pieces) == whole

    @pytest.mark.parametrize("name", CHAIN_GROUPS)
    # a bound in entries beside the degree-relative ones below: past one
    # row of psl2-11, a few rows, and element_array's own
    @pytest.mark.parametrize("bound", [10, 100, perm._ARRAY_ENTRIES])
    def test_cosets_cover_each_coset_once_within_the_bound(self, name,
                                                           bound):
        G = CHAIN_GROUPS[name]()
        chain = G.stabilizer_chain()
        elements = G.element_array().astype(np.intp)
        for level in (1, 2):
            base = chain.base[:level]
            # the images of the first `level` base points
            images = sorted(set(map(tuple, elements[:, base].tolist())))
            # the orbits of G_(level) on them, from its elements
            stabilizer = elements[(elements[:, base] == base).all(axis=1)]
            orbits = {frozenset(tuple(h[list(image)]) for h in stabilizer)
                      for image in images}
            if level == 1:
                got = chain.stabilizer_orbits()
                assert [[(beta,) for beta in sorted(orbit)]
                        for orbit in got] == sorted(map(sorted, orbits))
                assert all(orbit[0] == min(orbit) for orbit in got)
            # every image, a few out of order, and one per orbit
            for picked in (images, images[::-3], sorted(map(min, orbits))):
                # the chain's transversal rows at level 1; at level 2 the
                # least element with each image
                reps = chain.representatives(
                    [image[0] for image in picked]) if level == 1 else \
                    np.array([elements[(elements[:, base] == image).all(
                        axis=1)][0] for image in picked])
                inverses = np.argsort(reps, axis=1)
                for entries in (1, 3 * G.degree + 1, 40 * G.degree, bound):
                    got = {k: [] for k in range(len(picked))}
                    listing = {}  # position in G_(level) -> element
                    for first, at, rows in chain.cosets(reps, level,
                                                        entries):
                        k, m, _d = rows.shape
                        assert rows.size <= entries or m == 1
                        assert (rows[:, :, base] == np.array(
                            picked)[first:first + k, None]).all()
                        # h, of "h then x", in each coset of the block:
                        # x^-1 after the row
                        h = np.take_along_axis(
                            inverses[first:first + k, None], rows, axis=2)
                        assert (h == h[0]).all()
                        for i, row in enumerate(h[0].tolist(), start=at):
                            assert listing.setdefault(i, row) == row
                        for j in range(k):
                            got[first + j] += rows[j].tolist()
                    assert sorted(listing) == list(range(len(stabilizer)))
                    assert _row_multiset(list(listing.values())) == \
                        _row_multiset(stabilizer)
                    for k, image in enumerate(picked):
                        assert _row_multiset(got[k]) == _row_multiset(
                            elements[(elements[:, base] == image).all(
                                axis=1)])

    def test_element_array_holds_its_output_and_one_piece(self,
                                                          monkeypatch):
        G = symmetric_group(9)
        whole = G.element_array()
        stab_bytes = 40320 * 9  # G_b, Sym(8) on 9 points
        # pieces of G_b far smaller than G_b itself (a chain without the
        # bound fails on the peak below, not here)
        monkeypatch.setattr(perm, "_ARRAY_ENTRIES", 4096, raising=False)
        tracemalloc.start()
        try:
            pieces = G.element_array()
            _size, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert np.array_equal(pieces, whole)
        assert peak < whole.nbytes + stab_bytes

    def test_cosets_of_no_points_build_nothing(self, monkeypatch):
        chain = symmetric_group(6).stabilizer_chain()
        # G_(1) would be listed by the same method one level down
        levels, cosets = [], chain.cosets

        def recorded(reps, level, entries):
            levels.append(level)
            return cosets(reps, level, entries)

        monkeypatch.setattr(chain, "cosets", recorded)
        assert list(chain.cosets(chain.representatives([]), 1, 100)) == []
        assert levels == [1]


class TestGroupFile:
    def test_parse_basic(self):
        G = parse_group_file("degree 7\n(1 2 3)(4 5)(6 7)\n")
        assert G.degree == 7
        assert len(G.generators) == 1
        assert element_order(G.generators[0]) == 6

    def test_parse_trivial(self):
        G = parse_group_file("degree 5\nid\n")
        assert G.generators == (identity(5),)

    def test_point_out_of_range(self):
        with pytest.raises(GroupFileError) as exc:
            parse_group_file("degree 3\n(1 2 4)\n")
        assert exc.value.lineno == 2

    def test_missing_header(self):
        with pytest.raises(GroupFileError):
            parse_group_file("(1 2)\n")

    def test_comments_and_blanks(self):
        G = parse_group_file("# a comment\ndegree 4\n\n(1 2) # trailing\n")
        assert G.degree == 4 and len(G.generators) == 1

    def test_round_trip(self):
        for G in (symmetric_group(5), alternating_group(6),
                  parse_group_file("degree 5\nid\n")):
            H = parse_group_file(emit_group_file(G))
            assert H.degree == G.degree
            assert H.generators == G.generators

    def test_degree_past_the_domain_cap_is_refused_at_the_header(self):
        cap = perm.DEFAULT_DOMAIN_CAP
        with pytest.raises(GroupFileError,
                           match=f"degree {cap + 1} exceeds the domain "
                                 f"cap {cap}") as exc:
            parse_group_file(f"# big\ndegree {cap + 1}\n(1 2)\n")
        assert exc.value.lineno == 2
        G = parse_group_file(f"degree {cap}\n(1 2)\n")
        assert G.degree == cap and G.images.shape == (1, cap)

    # (text, line, message): an integer past int()'s 4300 digits in every
    # integer field of a group file, and the tokens int() would take
    # though the format does not
    LONG = "9" * 5000

    @pytest.mark.parametrize("text, line, message", [
        (f"# long\ndegree {LONG}\n", 2,
         f"degree {'9' * 20}... (5000 characters) exceeds the domain cap "
         f"{perm.DEFAULT_DOMAIN_CAP}"),
        (f"degree 3\n(1 2)\n(1 {LONG})\n", 3,
         f"point {'9' * 20}... (5000 characters) out of range 1..3"),
        ("degree 30\n(1 2_0)\n", 2, "expected an integer, got '2_0'"),
        ("degree 3\n\n(1 +2)\n", 3, "expected an integer, got '+2'"),
        ("degree 3\n(1 \u0662)\n", 2, "expected an integer, got '\u0662'"),
        ("degree +3\n(1 2)\n", 1, "expected 'degree <d>' header"),
    ], ids=["long-degree", "long-point", "underscore", "sign", "arabic-two",
            "signed-degree"])
    def test_integers_are_ascii_digit_runs(self, text, line, message):
        with pytest.raises(GroupFileError) as exc:
            parse_group_file(text)
        assert (exc.value.lineno, str(exc.value)) \
            == (line, f"line {line}: {message}")

    def test_zeros_in_front_are_allowed(self):
        G = parse_group_file("degree 0003\n(001 0002)\n")
        assert G.generators == (parse_cycles("(1 2)", 3),)
        assert parse_cycles(f"(1 {'0' * 5000}2)", 2) \
            == parse_cycles("(1 2)", 2)


class TestReadInts:
    def test_values_and_caps(self):
        assert perm.read_ints(["0", "007", "12"], 12) == [0, 7, 12]
        assert perm.read_ints([]) == []
        # uncapped fields convert as far as int() does
        assert perm.read_ints(["9" * 4000]) == [int("9" * 4000)]
        with pytest.raises(ValueError, match="^past 13$"):
            perm.read_ints(["12", "013"], 12, over="past {}")

    def test_a_capped_field_is_refused_by_digit_count(self, monkeypatch):
        # int() never sees a token with more digits than the cap
        seen = []
        monkeypatch.setattr(perm, "int", lambda s: seen.append(s) or 0,
                            raising=False)
        with pytest.raises(ValueError, match=r"^999.*\(4000 characters\)$"):
            perm.read_ints(["1", "9" * 4000], 10**6, over="{}")
        assert all(len(s) <= 7 for s in seen)

    def test_the_first_bad_token_is_named(self):
        for token in ("-1", "+1", "1_0", "\u0662", "\u00b2", "1.0", "0x1"):
            with pytest.raises(ValueError) as exc:
                perm.read_ints(["1", token, "x"], 5)
            assert str(exc.value) == f"expected an integer, got {token!r}"

    def test_file_lines(self):
        lines, end = perm.file_lines("# c\n  a b # c\n\n\tc\n#\n")
        assert (lines, end) == ([(2, "a b"), (4, "c")], 6)
        assert perm.file_lines("") == ([], 1)
