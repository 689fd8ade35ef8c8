"""Tests for permutations, groups, enumeration, and the group-file format."""

import math

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from regcycles import perm
from regcycles.perm import (
    CapExceeded,
    GroupFileError,
    PermGroup,
    Permutation,
    alternating_group,
    compose,
    cycle_decomposition,
    cycle_type,
    element_order,
    emit_group_file,
    enumerate_elements,
    has_regular_cycle_direct,
    identity,
    inverse,
    parse_cycles,
    parse_group_file,
    power,
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


class TestCycles:
    def test_identity_decomposition(self):
        cycles = cycle_decomposition(identity(5))
        assert cycles == [(0,), (1,), (2,), (3,), (4,)]
        assert element_order(identity(5)) == 1

    def test_mixed_cycle_type_element(self):
        g = parse_cycles("(1 2 3)(4 5)(6 7)", 7)
        assert sorted(len(c) for c in cycle_decomposition(g)) == [2, 2, 3]
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
        lengths = [len(c) for c in cycle_decomposition(g)]
        assert sum(lengths) == 11
        assert element_order(g) == math.lcm(*lengths)
        if has_regular_cycle_direct(g):
            assert element_order(g) <= g.degree

    @given(st.permutations(range(8)).map(Permutation),
           st.permutations(range(8)).map(Permutation))
    def test_cycle_type_conjugation_invariant(self, g, h):
        conj = compose(compose(inverse(h), g), h)
        assert cycle_type(conj) == cycle_type(g)


class TestGroups:
    def test_alt5_enumeration(self):
        G = alternating_group(5)
        assert len(enumerate_elements(G, cap=10**4)) == 60

    def test_sym6_enumeration(self):
        assert symmetric_group(6).order(cap=10**4) == 720

    def test_cap_exceeded(self):
        with pytest.raises(CapExceeded):
            symmetric_group(9).element_array(cap=10**4)

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
        G = perm.cyclic_group(6)
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
            perm.cyclic_group(6),
            perm.cyclic_group(5),
            PermGroup(6, [parse_cycles("(1 2 3 4 5 6)", 6),
                          parse_cycles("(1 4)", 6)]),
            PermGroup(8, [parse_cycles("(1 2 3 4 5 6 7 8)", 8)]),
        ]
        for G in cases:
            assert G.is_primitive() == primitive_oracle(G), G

    def test_conjugacy_classes_alt5(self):
        sizes = sorted(size for _rep, size in
                       alternating_group(5).conjugacy_classes())
        assert sizes == [1, 12, 12, 15, 20]

    def test_conjugacy_classes_sym5(self):
        assert len(symmetric_group(5).conjugacy_classes()) == 7

    def test_conjugacy_classes_cyclic6(self):
        assert len(perm.cyclic_group(6).conjugacy_classes()) == 6


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


class TestStabilizerChain:
    @given(generator_sets, st.data())
    @settings(max_examples=150, deadline=None)
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
    @settings(max_examples=150, deadline=None)
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

    def test_first_base_point_is_least_moved_point(self):
        gens = [parse_cycles("(3 5)(4 6)", 6), parse_cycles("(4 5 6)", 6)]
        chain = PermGroup(6, gens).stabilizer_chain()
        assert chain.base[0] == 2
        assert chain.order == len(closure(6, gens))
        assert PermGroup(3, [identity(3)]).stabilizer_chain().base == [0]


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
