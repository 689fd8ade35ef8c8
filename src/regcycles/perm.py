"""Permutations, cycle structure, and finitely generated permutation groups.

Points are 0-based internally.  The text file format and all cycle notation
accepted/emitted by the CLI are 1-based, matching the usual convention for
writing permutations as products of disjoint cycles.

A group is held as a stabilizer chain (``StabChain``), built lazily by a
deterministic Schreier-Sims algorithm on numpy image arrays.  It gives the
order without enumeration, membership by sifting, and the elements as
products of transversal elements, so results are exactly reproducible.
Every question that needs the chain raises CapExceeded iff the group order
exceeds its element cap (defaults: 10**7 elements and 10**6 points).
"""

from __future__ import annotations

import math
import re
from dataclasses import dataclass

import numpy as np

DEFAULT_ELEMENT_CAP = 10**7
DEFAULT_DOMAIN_CAP = 10**6


class CapExceeded(Exception):
    """The group order exceeds the element cap of the request."""


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


# Schreier generators are formed and sifted in arrays of about this many
# entries, which bounds memory on large domains.
_SCHREIER_ENTRIES = 1 << 22


class _Level:
    """One level of a stabilizer chain: a base point, the strong generators
    that fix every earlier base point, and the orbit of the point under them
    with a transversal (row k of ``trans`` maps the point to ``orbit[k]``,
    row k of ``inv`` is its inverse; ``pos`` maps a point to its row, or
    -1 off the orbit)."""

    __slots__ = ("point", "gens", "gen_lists", "orbit", "pos", "trans", "inv",
                 "_points")

    def __init__(self, point: int, gens: np.ndarray):
        d = gens.shape[1]
        self.point = point
        self.gens = gens
        self.gen_lists = gens.tolist()
        self.orbit = np.array([point])
        self.pos = np.full(d, -1)
        self.pos[point] = 0
        self.trans = np.arange(d)[None]
        self.inv = self.trans
        self._points = [point]
        self._grow()

    def add_gen(self, h: np.ndarray) -> None:
        self.gens = np.vstack([self.gens, h])
        self.gen_lists.append(h.tolist())
        self._grow()

    def _grow(self) -> None:
        """Close the orbit under the generators, breadth-first over points
        (each new point y = s(x) records x and s), then build the new
        transversal rows u_y = (u_x then s) by pointer doubling: row y holds
        a map taking u_{up[y]} to u_y, and each round composes it with its
        pointer's map and doubles the pointer, until every pointer is the
        base point."""
        points = self._points
        old = len(points)
        depth = dict.fromkeys(points, 0)
        src, via = [0] * old, []
        for i, x in enumerate(points):
            for a, s in enumerate(self.gen_lists):
                y = s[x]
                if y not in depth:
                    depth[y] = depth[x] + 1
                    points.append(y)
                    src.append(i)
                    via.append(a)
        m = len(points)
        if m == old:
            return
        trans = np.concatenate([self.trans, self.gens[via]])
        up = np.array(src)
        rows = np.arange(m)[:, None]
        for _ in range(depth[points[-1]].bit_length()):
            trans = trans[rows, trans[up]]
            up = up[up]
        self.inv = np.empty_like(trans)
        self.inv[rows, trans] = np.arange(trans.shape[1])
        self.orbit = np.array(points)
        self.pos[self.orbit[old:]] = np.arange(old, m)
        self.trans = trans

    def schreier_generators(self):
        """u_beta * s * u_{s(beta)}^-1 for every orbit point and generator,
        one row per pair, each fixing the base point: one array per run of
        generators whose rows hold about _SCHREIER_ENTRIES entries (all of
        them at once for small groups)."""
        d = self.gens.shape[1]
        step = max(1, _SCHREIER_ENTRIES // (len(self.orbit) * d))
        for a in range(0, len(self.gens), step):
            gens = self.gens[a:a + step]
            moved = gens[:, self.trans].reshape(-1, d)  # u_beta then s
            back = self.pos[gens[:, self.orbit]].reshape(-1, 1)
            yield self.inv[back, moved]


class StabChain:
    """Base, strong generating set and transversals of a permutation group,
    from a deterministic Schreier-Sims algorithm (Sims 1970; Seress,
    *Permutation Group Algorithms*, ch. 4).

    The first base point is the least point the group moves (0 for the
    trivial group); each later one is the least point moved by the sift
    residue that opened its level.  Each level's Schreier generators are
    formed and sifted as one array (split only past _SCHREIER_ENTRIES
    entries); the first that does not sift to the identity becomes a new
    strong generator, and the levels below it are checked again before the
    level itself (Holt, Eick and O'Brien, *Handbook of Computational Group
    Theory*, 4.4).  Construction raises CapExceeded as soon as the product
    of the orbit lengths, a lower bound for the group order, passes ``cap``.
    """

    def __init__(self, degree: int, generators, cap: int):
        ident = tuple(range(degree))
        gens = [g.images for g in generators if g.images != ident]
        first = min((next(x for x, y in enumerate(g) if x != y) for g in gens),
                    default=0)
        self.degree = degree
        self.levels = [_Level(first, np.array(gens, dtype=np.intp)
                              .reshape(-1, degree))]
        self._check_order(cap)
        i = 0
        while i >= 0:
            found = None
            for rows in self.levels[i].schreier_generators():
                found = self._residue(rows, i + 1)
                if found is not None:
                    break
            if found is None:
                i -= 1
                continue
            h, j = found
            if j == len(self.levels):
                point = int(np.flatnonzero(h != np.arange(degree))[0])
                self.levels.append(_Level(point, h[None]))
            else:
                self.levels[j].add_gen(h)
            for lev in self.levels[i + 1:j]:
                lev.add_gen(h)
            self._check_order(cap)
            i = j
        self.order = math.prod(len(lev.orbit) for lev in self.levels)
        self._stab_rows: np.ndarray | None = None

    def _check_order(self, cap: int) -> None:
        if math.prod(len(lev.orbit) for lev in self.levels) > cap:
            raise CapExceeded(f"more than {cap} elements")

    @property
    def base(self) -> list[int]:
        return [lev.point for lev in self.levels]

    def _residue(self, rows: np.ndarray, start: int):
        """Sift the rows through the levels from ``start`` on; return
        (residue, level) for one row that fails, or None if all sift to the
        identity.  The row is the first to leave the chain at the first
        level where one does (its image of that base point is outside the
        level's orbit: pos is -1), else the first nonidentity residue, with
        level len(levels)."""
        for k in range(start, len(self.levels)):
            lev = self.levels[k]
            p = lev.pos[rows[:, lev.point]]
            if p.min() < 0:
                return rows[p.argmin()], k
            rows = lev.inv[p[:, None], rows]
        moved = rows != np.arange(self.degree)
        if not moved.any():
            return None
        return rows[moved.any(axis=1).argmax()], len(self.levels)

    def contains(self, images) -> bool:
        return self._residue(np.array([images], dtype=np.intp), 0) is None

    def stabilizer_rows(self) -> np.ndarray:
        """Every element of G_b (b the first base point) as an unsorted
        (|G_b| x degree) array of transversal products; cached."""
        if self._stab_rows is None:
            rows = np.arange(self.degree)[None]
            for lev in reversed(self.levels[1:]):
                # h then u_beta, for every u_beta and every h below
                rows = lev.trans[:, rows].reshape(-1, self.degree)
            self._stab_rows = rows
        return self._stab_rows

    def cosets(self, betas) -> np.ndarray:
        """The cosets {g : g(b) = beta}, one unsorted (|G_b| x degree)
        block per beta."""
        top = self.levels[0]
        return top.trans[top.pos[betas]][:, self.stabilizer_rows()]

    def stabilizer_orbits(self) -> list[list[int]]:
        """Orbits of G_b on b^G, ordered by least point, each starting at
        its least point."""
        gens = self.levels[1].gen_lists if len(self.levels) > 1 else []
        seen: set[int] = set()
        out = []
        for start in sorted(self.levels[0].orbit.tolist()):
            if start in seen:
                continue
            seen.add(start)
            orbit = [start]
            for x in orbit:
                for s in gens:
                    if s[x] not in seen:
                        seen.add(s[x])
                        orbit.append(s[x])
            out.append(orbit)
        return out


class PermGroup:
    """Finitely generated permutation group with a lazily built, cached
    stabilizer chain."""

    def __init__(self, degree: int, generators):
        if degree < 1:
            raise ValueError("degree must be >= 1")
        generators = tuple(generators)
        for g in generators:
            if g.degree != degree:
                raise ValueError("generator degree mismatch")
        self.degree = degree
        self.generators = generators
        self._chain: StabChain | None = None

    def __repr__(self) -> str:
        return f"PermGroup(degree={self.degree}, ngens={len(self.generators)})"

    # -- the stabilizer chain ----------------------------------------------

    def stabilizer_chain(self, cap: int = DEFAULT_ELEMENT_CAP) -> StabChain:
        """The group's stabilizer chain; CapExceeded iff |G| > cap.

        The chain is cap-independent and cached once complete; a build cut
        short by a smaller cap is not kept.
        """
        if self._chain is None:
            self._chain = StabChain(self.degree, self.generators, cap)
        if self._chain.order > cap:
            raise CapExceeded(f"more than {cap} elements")
        return self._chain

    def element_array(self, cap: int = DEFAULT_ELEMENT_CAP) -> np.ndarray:
        """All elements as a lexicographically sorted (|G| x degree) array.

        Every element fixes the points below the first base point b, so
        lexicographic order is by g(b) first: the rows are built one coset
        {g : g(b) = beta} at a time, beta ascending, and sorted within it.
        Raises CapExceeded iff |G| > cap.
        """
        chain = self.stabilizer_chain(cap)
        d = self.degree
        # Big-endian rows make byte order match lexicographic order.
        dtype = np.dtype("u1" if d <= 256 else ">u2" if d <= 65536 else ">u4")
        row = np.dtype((np.void, d * dtype.itemsize))
        out = np.empty((chain.order, d), dtype=dtype)
        n = len(chain.stabilizer_rows())
        for k, beta in enumerate(sorted(chain.levels[0].orbit.tolist())):
            block = np.ascontiguousarray(chain.cosets([beta])[0], dtype=dtype)
            out[k * n:(k + 1) * n] = np.sort(block.view(row).ravel()) \
                .view(dtype).reshape(n, d)
        return out

    def order(self, cap: int = DEFAULT_ELEMENT_CAP) -> int:
        return self.stabilizer_chain(cap).order

    def contains(self, g: Permutation, cap: int = DEFAULT_ELEMENT_CAP) -> bool:
        """True iff g is an element of the group, decided by sifting g
        through the stabilizer chain (CapExceeded iff |G| > cap)."""
        if g.degree != self.degree:
            return False
        return self.stabilizer_chain(cap).contains(g.images)

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
