"""Permutations, cycle structure, and finitely generated permutation groups.

Points are 0-based internally.  The text file format and all cycle notation
accepted/emitted by the CLI are 1-based, matching the usual convention for
writing permutations as products of disjoint cycles.

Group enumeration is a breadth-first closure over generator multiplication
with a hash set of image arrays -- no stabilizer chains.  That keeps results
exactly reproducible and is plenty for desk-scale groups (the default caps
are 10**7 elements and 10**6 points).  The hot loop is vectorized with numpy.
"""

from __future__ import annotations

import math
import re
from dataclasses import dataclass

import numpy as np

DEFAULT_ELEMENT_CAP = 10**7
DEFAULT_DOMAIN_CAP = 10**6


class CapExceeded(Exception):
    """Enumeration passed its element cap without closing."""


class GroupFileError(ValueError):
    """Malformed group file; carries the 1-based line number."""

    def __init__(self, lineno: int, message: str):
        super().__init__(f"line {lineno}: {message}")
        self.lineno = lineno


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


class Permutation:
    """Immutable bijection of {0, ..., d-1} in image-array form."""

    __slots__ = ("images", "_hash")

    def __init__(self, images):
        images = tuple(int(x) for x in images)
        d = len(images)
        if sorted(images) != list(range(d)):
            raise ValueError("images do not form a bijection of 0..d-1")
        object.__setattr__(self, "images", images)
        object.__setattr__(self, "_hash", hash(images))

    def __setattr__(self, name, value):
        raise AttributeError("Permutation is immutable")

    @property
    def degree(self) -> int:
        return len(self.images)

    def __call__(self, point: int) -> int:
        return self.images[point]

    def __eq__(self, other) -> bool:
        return isinstance(other, Permutation) and self.images == other.images

    def __lt__(self, other: "Permutation") -> bool:
        return self.images < other.images

    def __hash__(self) -> int:
        return self._hash

    def __mul__(self, other: "Permutation") -> "Permutation":
        return compose(self, other)

    def __pow__(self, k: int) -> "Permutation":
        return power(self, k)

    def __repr__(self) -> str:
        return f"Permutation({cycle_string(self)!r}, degree={self.degree})"

    def is_identity(self) -> bool:
        return all(i == x for x, i in enumerate(self.images))


def identity(degree: int) -> Permutation:
    return Permutation(range(degree))


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
    for cycle in cycle_decomposition(a):
        L = len(cycle)
        shift = k % L
        for i, x in enumerate(cycle):
            out[x] = cycle[(i + shift) % L]
    return Permutation(out)


def cycle_decomposition(g: Permutation) -> list[tuple[int, ...]]:
    """Disjoint cycles partitioning the domain (1-cycles included).

    Each cycle starts at its least point; cycles are ordered by that point.
    """
    seen = [False] * g.degree
    cycles = []
    img = g.images
    for start in range(g.degree):
        if seen[start]:
            continue
        cyc = [start]
        seen[start] = True
        x = img[start]
        while x != start:
            seen[x] = True
            cyc.append(x)
            x = img[x]
        cycles.append(tuple(cyc))
    return cycles


def cycle_lengths(images) -> list[int]:
    """Cycle lengths of an image sequence (no Permutation object needed)."""
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


def has_regular_cycle_direct(g: Permutation) -> bool:
    """True iff some cycle of g has length equal to the order of g.

    The identity has order 1 and fixes every point, so on a nonempty domain
    it has a regular cycle by convention (a fixed point is a 1-cycle).
    """
    lengths = cycle_lengths(g.images)
    return math.lcm(*lengths) in lengths


def cycle_string(g: Permutation, one_based: bool = True) -> str:
    """Disjoint-cycle notation; 'id' for the identity."""
    off = 1 if one_based else 0
    parts = [
        "(" + " ".join(str(x + off) for x in c) + ")"
        for c in cycle_decomposition(g)
        if len(c) > 1
    ]
    return "".join(parts) if parts else "id"


_CYCLE_RE = re.compile(r"\(([^()]*)\)")


def parse_cycles(text: str, degree: int) -> Permutation:
    """Parse 1-based disjoint-cycle notation ('id' or '(1 2 3)(4 5)')."""
    text = text.strip()
    if text == "id":
        return identity(degree)
    stripped = _CYCLE_RE.sub("", text)
    if stripped.strip():
        raise ValueError(f"unparsable cycle text: {text!r}")
    images = list(range(degree))
    seen: set[int] = set()
    for body in _CYCLE_RE.findall(text):
        pts = [int(tok) for tok in body.replace(",", " ").split()]
        if len(pts) < 2:
            raise ValueError("cycles need at least 2 points")
        for p in pts:
            if not 1 <= p <= degree:
                raise ValueError(f"point {p} out of range 1..{degree}")
            if p - 1 in seen:
                raise ValueError(f"point {p} repeated across cycles")
            seen.add(p - 1)
        for i, p in enumerate(pts):
            images[p - 1] = pts[(i + 1) % len(pts)] - 1
    return Permutation(images)


class PermGroup:
    """Finitely generated permutation group with bounded enumeration caches."""

    def __init__(self, degree: int, generators):
        if degree < 1:
            raise ValueError("degree must be >= 1")
        generators = tuple(generators)
        for g in generators:
            if g.degree != degree:
                raise ValueError("generator degree mismatch")
        self.degree = degree
        self.generators = generators
        self._elem_array: np.ndarray | None = None

    def __repr__(self) -> str:
        return f"PermGroup(degree={self.degree}, ngens={len(self.generators)})"

    # -- enumeration -------------------------------------------------------

    def element_array(self, cap: int = DEFAULT_ELEMENT_CAP) -> np.ndarray:
        """All elements as a lexicographically sorted (|G| x degree) array.

        Raises CapExceeded if the closure passes ``cap`` elements.  The
        result is cached; a cache built under a smaller cap is reused only
        if it closed successfully (the closure is cap-independent).
        """
        if self._elem_array is not None:
            return self._elem_array
        d = self.degree
        # Big-endian rows make tobytes() ordering match lexicographic order.
        dtype = np.dtype("u1" if d <= 256 else ">u2" if d <= 65536 else ">u4")
        gens = [np.array(g.images, dtype=dtype) for g in self.generators]
        ident = np.arange(d, dtype=dtype)
        seen = {ident.tobytes()}
        frontier = ident.reshape(1, d)
        while frontier.size:
            fresh: list[bytes] = []
            for gi in gens:
                comp = gi[frontier]  # row i = (frontier[i] then g)
                for row in comp:
                    b = row.tobytes()
                    if b not in seen:
                        seen.add(b)
                        fresh.append(b)
            if len(seen) > cap:
                raise CapExceeded(f"more than {cap} elements")
            if fresh:
                frontier = np.frombuffer(b"".join(fresh), dtype=dtype)
                frontier = frontier.reshape(-1, d)
            else:
                frontier = np.empty((0, d), dtype=dtype)
        data = b"".join(sorted(seen))
        arr = np.frombuffer(data, dtype=dtype).reshape(-1, d)
        self._elem_array = arr
        return arr

    def order(self, cap: int = DEFAULT_ELEMENT_CAP) -> int:
        return self.element_array(cap).shape[0]

    def contains(self, g: Permutation, cap: int = DEFAULT_ELEMENT_CAP) -> bool:
        """True iff g is an element of the group.

        Searches the enumeration (so raises CapExceeded like element_array),
        narrowing the candidate rows one column at a time.
        """
        if g.degree != self.degree:
            return False
        rows = self.element_array(cap)
        for j, x in enumerate(g.images):
            rows = rows[rows[:, j] == x]
            if not len(rows):
                return False
        return True

    # -- orbit structure ----------------------------------------------------

    def orbits(self) -> list[tuple[int, ...]]:
        """Orbit partition of the domain, each orbit sorted, orbits by min."""
        d = self.degree
        seen = [False] * d
        out = []
        for start in range(d):
            if seen[start]:
                continue
            orbit = [start]
            seen[start] = True
            queue = [start]
            while queue:
                x = queue.pop()
                for g in self.generators:
                    y = g.images[x]
                    if not seen[y]:
                        seen[y] = True
                        orbit.append(y)
                        queue.append(y)
            out.append(tuple(sorted(orbit)))
        return out

    def is_transitive(self) -> bool:
        return len(self.orbits()) == 1

    def _minimal_block(self, beta: int) -> int:
        """Size of the minimal block containing {0, beta} (union-find)."""
        d = self.degree
        parent = list(range(d))

        def find(x: int) -> int:
            while parent[x] != x:
                parent[x] = parent[parent[x]]
                x = parent[x]
            return x

        parent[find(beta)] = find(0)
        queue = [(0, beta)]
        while queue:
            u, v = queue.pop()
            for g in self.generators:
                a, b = find(g.images[u]), find(g.images[v])
                if a != b:
                    parent[b] = a
                    queue.append((a, b))
        root = find(0)
        return sum(1 for x in range(d) if find(x) == root)

    def is_primitive(self) -> bool:
        """Transitive with no nontrivial block system.

        Decided by closing {0, beta} to a minimal block for every beta != 0:
        primitive iff every such closure is the whole domain.
        """
        if not self.is_transitive():
            return False
        d = self.degree
        if d == 1:
            return True
        return all(self._minimal_block(beta) == d for beta in range(1, d))

    # -- conjugacy ----------------------------------------------------------

    def conjugacy_classes(self, cap: int = DEFAULT_ELEMENT_CAP):
        """List of (representative, class size); rep = least class member.

        Classes are ordered by their representative (lexicographic on image
        arrays), so the identity's class comes first.
        """
        arr = self.element_array(cap)
        d = self.degree
        gens = self.generators
        gen_pairs = [(g, inverse(g)) for g in gens]
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
                    simg = s
                    conj = tuple(g.images[simg[gi.images[x]]] for x in range(d))
                    if conj not in orbit:
                        orbit.add(conj)
                        queue.append(conj)
            remaining -= orbit
            classes.append((Permutation(t), len(orbit)))
        return classes


def enumerate_elements(G: PermGroup, cap: int = DEFAULT_ELEMENT_CAP):
    """All elements of G as Permutation objects, lexicographically sorted."""
    arr = G.element_array(cap)
    return [Permutation(tuple(int(v) for v in row)) for row in arr]


# -- group file format -------------------------------------------------------
#
# Line 1: "degree <d>".  Each later non-blank, non-comment line is one
# generator: "id" or a product of disjoint cycles with 1-based points.
# "#" starts a comment (whole line or trailing).


def parse_group_file(text: str) -> PermGroup:
    degree = None
    gens = []
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if degree is None:
            m = re.fullmatch(r"degree\s+(\d+)", line)
            if not m:
                raise GroupFileError(lineno, "expected 'degree <d>' header")
            degree = int(m.group(1))
            if degree < 1:
                raise GroupFileError(lineno, "degree must be >= 1")
            continue
        try:
            gens.append(parse_cycles(line, degree))
        except ValueError as exc:
            raise GroupFileError(lineno, str(exc)) from exc
    if degree is None:
        raise GroupFileError(1, "missing 'degree <d>' header")
    return PermGroup(degree, gens)


def emit_group_file(G: PermGroup) -> str:
    lines = [f"degree {G.degree}"]
    lines.extend(cycle_string(g) for g in G.generators)
    return "\n".join(lines) + "\n"


# -- stock constructions ------------------------------------------------------


def symmetric_group(m: int) -> PermGroup:
    """Sym(m) on m points via a transposition and an m-cycle."""
    if m < 1:
        raise ValueError("m >= 1")
    if m == 1:
        return PermGroup(1, [identity(1)])
    cyc = Permutation(tuple(range(1, m)) + (0,))
    swap = Permutation((1, 0) + tuple(range(2, m)))
    return PermGroup(m, [swap, cyc])


def alternating_group(m: int) -> PermGroup:
    """Alt(m) on m points (3-cycle plus an even long cycle)."""
    if m < 3:
        return PermGroup(max(m, 1), [identity(max(m, 1))])
    three = parse_cycles("(1 2 3)", m)
    if m % 2 == 1:
        long = Permutation(tuple(range(1, m)) + (0,))
    else:
        long = Permutation((0,) + tuple(range(2, m)) + (1,))
    return PermGroup(m, [three, long])


def cyclic_group(m: int) -> PermGroup:
    return PermGroup(m, [Permutation(tuple(range(1, m)) + (0,))])
