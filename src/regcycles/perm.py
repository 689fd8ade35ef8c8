"""Permutations, cycle structure, and finitely generated permutation groups.

Points are 0-based internally.  The text file format and all cycle notation
accepted/emitted by the CLI are 1-based, matching the usual convention for
writing permutations as products of disjoint cycles.

A group's generators cross module boundaries as one array of image rows
(``PermGroup.images``); ``Permutation`` is the type of single elements.
Arrays of rows go through the pointer-doubling kernel's least-point
labels (``cycle_sizes``), and so does the group-file writer
(``emit_group_file``); single elements keep the scalar cycle walk
(``cycle_decomposition``, ``cycle_string``).
A group is held as a stabilizer chain (``StabChain``), built lazily by a
deterministic Schreier-Sims algorithm on such arrays.  It gives the
order without enumeration, membership by sifting, and the elements,
coset by coset, from one recursion over its levels (``StabChain.cosets``)
in blocks of a caller's size, so results are exactly reproducible.
Every cap raises an OverflowError: every question that needs the chain
raises CapExceeded iff the group order exceeds its element cap (default
10**7), and every domain constructor refuses more than DEFAULT_DOMAIN_CAP =
10**6 points.  Group files are read by the line and integer readers of
the package root (``file_lines``, ``read_ints``), which the matrix files
of ``geometry`` and the tables of ``bounds`` share.  A malformed file, a
group file past that cap included, raises GroupFileError, the one
file-format error (a ValueError), with its line.
"""

from __future__ import annotations

import math
import re
from dataclasses import dataclass
from functools import cached_property
from itertools import chain

import numpy as np

# defined in the package root, which imports no numpy
from . import DEFAULT_DOMAIN_CAP, DEFAULT_ELEMENT_CAP, file_lines, read_ints


class CapExceeded(OverflowError):
    """The group order exceeds the element cap of the request."""


class GroupFileError(ValueError):
    """Malformed group or matrix-generator file; carries the 1-based line
    number."""

    def __init__(self, lineno: int, message: str):
        super().__init__(f"line {lineno}: {message}")
        self.lineno = lineno


@dataclass(frozen=True, order=True, slots=True)
class Permutation:
    """Immutable bijection of {0, ..., d-1} in image-array form."""

    images: tuple[int, ...]

    def __post_init__(self):
        images = tuple(map(int, self.images))
        # d distinct images, all in range(d)
        d = len(images)
        if d and (min(images) < 0 or max(images) >= d
                  or len(set(images)) != d):
            raise ValueError("images do not form a bijection of 0..d-1")
        object.__setattr__(self, "images", images)

    @property
    def degree(self) -> int:
        return len(self.images)

    def __call__(self, point: int) -> int:
        return self.images[point]

    def __repr__(self) -> str:
        return (f"Permutation({cycle_string(self.images)!r}, "
                f"degree={self.degree})")


def identity(degree: int) -> Permutation:
    return Permutation(range(degree))


def cycle_decomposition(images) -> list[tuple[int, ...]]:
    """Disjoint cycles of an image sequence, partitioning its domain
    (1-cycles included).

    Each cycle starts at its least point; cycles are ordered by that point.
    """
    seen = [False] * len(images)
    cycles = []
    for start in range(len(images)):
        if seen[start]:
            continue
        cyc = [start]
        seen[start] = True
        x = images[start]
        while x != start:
            seen[x] = True
            cyc.append(x)
            x = images[x]
        cycles.append(tuple(cyc))
    return cycles


# The kernel runs on chunks of at most this many entries (rows x degree),
# which stay in cache: the verifier's coset rows, regrouped by
# regcycle._kernel_calls, as many words as fit in
# regcycle.compare_actions_monotonic, or as many generators as
# emit_group_file writes at once.  The kernel's temporaries hold 8 bytes
# per entry, 124 KiB each at 2**14 - 2**9 entries: below glibc's default
# mmap threshold of 128 KiB, so they come from the heap, not from fresh
# mappings that every call page-faults in (at 2**15 entries, verify on
# Sp6(2) took about 1.5 times as long).
_CHUNK_ENTRIES = (1 << 14) - (1 << 9)


def cycle_sizes(rows) -> np.ndarray:
    """The cycles of every row of an (r x d) array of image rows: an
    (r x d) intp array holding each cycle's length at its least point and
    0 at every other point."""
    r, d = rows.shape
    return np.bincount(_cycle_labels(rows), minlength=r * d).reshape(r, d)


def _cycle_labels(rows) -> np.ndarray:
    """The least point of every point's cycle, for every row of an (r x d)
    array of image rows, flat: entry i d + x is i d + (the least point of
    the cycle of x in row i).

    Pointer doubling (Wyllie's list ranking): every point starts labelled
    with itself, and each round lowers a point's label to that of the
    point ``step`` ahead, then doubles ``step``.  After k rounds a label is
    the least of the first 2**k points of its orbit, so the labels settle
    on the cycles' least points after about log2 of the longest cycle
    rounds, and a round that changes no label proves it: while a cycle is
    longer than 2**k, the point 2**k before its least point still changes.
    """
    r, d = rows.shape
    step = (rows + np.arange(0, r * d, d)[:, None]).ravel()
    label = np.arange(r * d)
    while True:
        lower = np.minimum(label, label[step])
        if np.array_equal(lower, label):
            return label
        label, step = lower, step[step]


def has_regular_cycle_direct(g: Permutation) -> bool:
    """True iff some cycle of g has length equal to the order of g.

    The identity has order 1 and fixes every point, so on a nonempty domain
    it has a regular cycle by convention (a fixed point is a 1-cycle).
    """
    lengths = [len(c) for c in cycle_decomposition(g.images)]
    return math.lcm(*lengths) in lengths


def cycle_string(images) -> str:
    """1-based cycle notation of an image list; 'id' for the identity."""
    parts = [
        "(" + " ".join(str(x + 1) for x in c) + ")"
        for c in cycle_decomposition(images)
        if len(c) > 1
    ]
    return "".join(parts) if parts else "id"


_CYCLE_RE = re.compile(r"\(([^()]*)\)")


def parse_cycles(text: str, degree: int) -> Permutation:
    """Parse 1-based disjoint-cycle notation ('id' or '(1 2 3)(4 5)')."""
    return Permutation(_cycle_images(text, degree))


def _cycle_images(text: str, degree: int) -> list[int]:
    """The image list of parse_cycles; ValueError on bad cycle text."""
    text = text.strip()
    images = list(range(degree))
    if text == "id":
        return images
    if _CYCLE_RE.sub("", text).strip():
        raise ValueError(f"unparsable cycle text: {text!r}")
    cycles = [body.replace(",", " ").split()
              for body in _CYCLE_RE.findall(text)]
    # every point of the line in one read
    points = read_ints(list(chain.from_iterable(cycles)), degree,
                       over=f"point {{}} out of range 1..{degree}")
    if 0 in points:
        raise ValueError(f"point 0 out of range 1..{degree}")
    if len(set(points)) < len(points):
        p = next(p for i, p in enumerate(points) if p in points[:i])
        raise ValueError(f"point {p} repeated across cycles")
    # each point's image is the next point of its cycle
    succ = points[1:] + points[:1]
    end = 0
    for cycle in cycles:
        if len(cycle) < 2:
            raise ValueError("cycles need at least 2 points")
        end += len(cycle)
        succ[end - 1] = points[end - len(cycle)]
    for p, image in zip(points, succ):
        images[p - 1] = image - 1
    return images


# The chain sifts Schreier generators in arrays of about this many
# entries, and element_array takes the cosets of G_b in blocks of this
# size, which bounds memory on large domains.
_ARRAY_ENTRIES = 1 << 22


def _point_dtype(degree: int) -> np.dtype:
    """The smallest unsigned integer dtype that holds the points
    0, ..., degree - 1."""
    return np.dtype("u1" if degree <= 256 else "u2" if degree <= 65536
                    else "u4")


class _Level:
    """One level of a stabilizer chain: a base point, the strong generators
    that fix every earlier base point, and the orbit of the point under them
    with a transversal (row k of ``trans`` maps the point to ``orbit[k]``,
    row k of ``inv`` is its inverse; ``pos`` maps a point to its row, or
    -1 off the orbit).  ``gens``, ``trans`` and ``inv`` hold points in
    the smallest dtype for the degree."""

    __slots__ = ("point", "gens", "orbit", "pos", "trans", "inv")

    def __init__(self, point: int, gens: np.ndarray, cap: int, order: int):
        d = gens.shape[1]
        self.point = point
        self.gens = gens
        self.orbit = np.array([point])
        self.pos = np.full(d, -1)
        self.pos[point] = 0
        self.trans = np.arange(d, dtype=gens.dtype)[None]
        self.inv = self.trans
        self._grow(cap, order)

    def add_gen(self, h: np.ndarray, cap: int, order: int) -> None:
        self.gens = np.vstack([self.gens, h])
        self._grow(cap, order)

    def _grow(self, cap: int, order: int) -> None:
        """Close the orbit under the generators, breadth-first over points
        (each new point y = s(x) records x and s), raise CapExceeded if the
        chain's product of orbit lengths (``order`` before this growth)
        passes ``cap`` with the closed orbit, then build the new
        transversal rows u_y = (u_x then s) by pointer doubling: row y holds
        a map taking u_{up[y]} to u_y, and each round composes it with its
        pointer's map and doubles the pointer, until every pointer is the
        base point."""
        points = self.orbit.tolist()
        old = len(points)
        depth = dict.fromkeys(points, 0)
        src, via = [0] * old, []
        gens = self.gens.tolist()
        for i, x in enumerate(points):
            for a, s in enumerate(gens):
                y = s[x]
                if y not in depth:
                    depth[y] = depth[x] + 1
                    points.append(y)
                    src.append(i)
                    via.append(a)
        m = len(points)
        if m == old:
            return
        if order // old * m > cap:
            raise CapExceeded(f"more than {cap} elements")
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
        generators whose rows hold about _ARRAY_ENTRIES entries (all of
        them at once for small groups), or per block of orbit points of
        one generator whose rows do not fit."""
        d, m = self.gens.shape[1], len(self.orbit)
        step = max(1, _ARRAY_ENTRIES // (m * d))
        block = max(1, _ARRAY_ENTRIES // d)  # all m where step > 1
        for a in range(0, len(self.gens), step):
            gens = self.gens[a:a + step]
            for b in range(0, m, block):
                # u_beta then s
                moved = gens[:, self.trans[b:b + block]].reshape(-1, d)
                back = self.pos[gens[:, self.orbit[b:b + block]]]
                yield self.inv[back.reshape(-1, 1), moved]


class StabChain:
    """Base, strong generating set and transversals of a permutation group,
    from a deterministic Schreier-Sims algorithm (Sims 1970; Seress,
    *Permutation Group Algorithms*, ch. 4).

    The first base point is the least point the group moves (0 for the
    trivial group); each later one is the least point moved by the sift
    residue that opened its level.  Each level's Schreier generators are
    formed and sifted as one array (split only past _ARRAY_ENTRIES
    entries, by generators and then by orbit points); the first that does
    not sift to the identity becomes a new strong generator, and the
    levels below it are checked again before the level itself (Holt, Eick
    and O'Brien, *Handbook of Computational Group Theory*, 4.4).
    Construction raises CapExceeded as soon as the product of the orbit
    lengths, a lower bound for the group order, passes ``cap``.
    """

    def __init__(self, images: np.ndarray, cap: int):
        degree = images.shape[1]
        moved = images != np.arange(degree)
        first = int(np.argmax(moved.any(axis=0)))  # 0 if nothing moves
        self.degree = degree
        self.levels = [_Level(first, images[moved.any(axis=1)], cap, 1)]
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
                self.levels.append(_Level(point, h[None], cap, self.order))
            else:
                self.levels[j].add_gen(h, cap, self.order)
            for lev in self.levels[i + 1:j]:
                lev.add_gen(h, cap, self.order)
            i = j

    @property
    def order(self) -> int:
        """The product of the orbit lengths: |G| once the chain is built."""
        return math.prod(self.orbit_lengths)

    @property
    def base(self) -> list[int]:
        return [lev.point for lev in self.levels]

    @property
    def orbit_lengths(self) -> list[int]:
        """The length of each level's orbit: |G_(i)| / |G_(i+1)|."""
        return [len(lev.orbit) for lev in self.levels]

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

    def cosets(self, reps, level: int, entries: int):
        """The cosets x G_(level) of the representative rows x, G_(level)
        the stabilizer of the first ``level`` base points, each element
        once, as blocks (first, at, rows) of at most ``entries`` entries
        (or one row per coset): rows[j, i] is "h then x" for x =
        reps[first + j] and h the element at + i of one fixed listing of
        G_(level), whose pieces ``at`` runs through from 0.

        G_(level) is the union of the cosets u G_(level+1) of its own
        transversal rows u, so its pieces are the blocks of this method
        one level down, the identity alone below the last level; each
        piece is taken with as many cosets as fit."""
        d = self.degree
        if not len(reps):
            return
        if level == len(self.levels):
            pieces = [(0, 0, np.arange(d)[None])]  # the identity
        else:
            pieces = self.cosets(self.levels[level].trans, level + 1, entries)
        at = 0
        for _first, _at, block in pieces:
            piece = block.reshape(-1, d)
            width = max(1, entries // piece.size)  # cosets at once
            for a in range(0, len(reps), width):
                # np.take: reps[a:b][:, piece] would hold a second copy
                yield a, at, np.take(reps[a:a + width], piece, axis=1)
            at += len(piece)

    def stabilizer_orbits(self) -> list[list[int]]:
        """The orbits of G_(1) on the images of the first base point,
        ordered by least point, each listed breadth first from it."""
        gens = self.levels[1].gens.tolist() if len(self.levels) > 1 else []
        return _orbits(sorted(self.levels[0].orbit.tolist()), gens)

    def representatives(self, betas) -> np.ndarray:
        """One element per image beta of the first base point, as rows:
        the row t of the first transversal with t(b1) = beta."""
        top = self.levels[0]
        return top.trans[top.pos[np.asarray(betas, dtype=np.intp)]]


def _orbits(points, gens) -> list[list[int]]:
    """The orbits through the points under the generator image lists, in
    the order of their first point in `points`, each listed breadth first
    from that point."""
    seen: set[int] = set()
    out = []
    for start in points:
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
    """Finitely generated permutation group: its generators, Permutations
    or image rows, held as one read-only (k x degree) array in the point
    dtype (``images``), and a lazily built, cached stabilizer chain."""

    def __init__(self, degree: int, generators):
        if degree < 1:
            raise ValueError("degree must be >= 1")
        rows = [g.images if isinstance(g, Permutation) else g
                for g in generators]
        if any(len(row) != degree for row in rows):
            raise ValueError("generator degree mismatch")
        rows = np.array(rows, dtype=np.int64).reshape(len(rows), degree)
        if (np.sort(rows, axis=1) != np.arange(degree)).any():
            raise ValueError("images do not form a bijection of 0..d-1")
        self._adopt(degree, rows)

    @classmethod
    def _of_bijections(cls, degree: int, rows) -> PermGroup:
        """The group of image rows already known to be bijections of
        0..degree-1, such as the parser's, without __init__'s check."""
        group = cls.__new__(cls)
        group._adopt(degree, rows)
        return group

    def _adopt(self, degree: int, rows) -> None:
        self.degree = degree
        self.images = np.array(rows, _point_dtype(degree)).reshape(-1, degree)
        self.images.flags.writeable = False
        self._chain: StabChain | None = None

    @cached_property
    def generators(self) -> tuple[Permutation, ...]:
        """The generators as Permutations, for callers outside the library."""
        return tuple(map(Permutation, self.images.tolist()))

    def __repr__(self) -> str:
        return f"PermGroup(degree={self.degree}, ngens={len(self.images)})"

    # -- the stabilizer chain ----------------------------------------------

    def stabilizer_chain(self, cap: int = DEFAULT_ELEMENT_CAP) -> StabChain:
        """The group's stabilizer chain; CapExceeded iff |G| > cap.

        The chain is cap-independent and cached once complete; a build cut
        short by a smaller cap is not kept.
        """
        if self._chain is None:
            self._chain = StabChain(self.images, cap)
        if self._chain.order > cap:
            raise CapExceeded(f"more than {cap} elements")
        return self._chain

    def element_array(self, cap: int = DEFAULT_ELEMENT_CAP) -> np.ndarray:
        """All elements as a lexicographically sorted (|G| x degree) array.

        Every element fixes the points below the first base point b, so
        lexicographic order is by g(b) first: the chain's chunks of the
        coset {g : g(b) = beta} fill the beta-th block of rows, beta
        ascending, and each block is then sorted in place.  Raises
        CapExceeded iff |G| > cap.
        """
        chain = self.stabilizer_chain(cap)
        d = self.degree
        # Big-endian rows make byte order match lexicographic order.
        dtype = _point_dtype(d).newbyteorder(">")
        row = np.dtype((np.void, d * dtype.itemsize))
        out = np.empty((chain.order, d), dtype=dtype)
        betas = sorted(chain.levels[0].orbit.tolist())
        blocks = out.reshape(len(betas), -1, d)  # one per coset of G_b
        reps = chain.representatives(betas)
        for first, at, rows in chain.cosets(reps, 1, _ARRAY_ENTRIES):
            k, m = rows.shape[:2]
            blocks[first:first + k, at:at + m] = rows
        for block in blocks:
            block.view(row).sort(axis=0)
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
        return [tuple(sorted(orbit))
                for orbit in _orbits(range(self.degree), self.images.tolist())]

    def is_transitive(self) -> bool:
        return len(self.orbits()) == 1

    def is_primitive(self) -> bool:
        """Transitive with no nontrivial block system: by Higman's
        criterion (1967; Dixon and Mortimer, *Permutation Groups*, 1996),
        with every orbital graph but the diagonal connected.

        A transitive group on more than one point moves every point, so
        the first base point is 0.  The elements taking 0 to x are u_x G_0,
        u_x the transversal row, so the orbital graph of a G_0-orbit O
        joins x to u_x(O): one search from 0 per G_0-orbit but {0}
        decides.  No element cap applies: the chain gives G_0 without
        listing elements.
        """
        chain = self.stabilizer_chain(math.inf)
        top = chain.levels[0]
        if len(top.orbit) != self.degree:
            return False
        for orbit in chain.stabilizer_orbits()[1:]:
            reached, new = np.zeros(self.degree, dtype=bool), [0]
            while len(new):
                reached[new] = True
                new = np.unique(top.trans[top.pos[new][:, None], orbit])
                new = new[~reached[new]]
            if not reached.all():
                return False
        return True


# -- group file format -------------------------------------------------------


def parse_group_file(text: str) -> PermGroup:
    """Line 1: "degree <d>", with 1 <= d <= DEFAULT_DOMAIN_CAP (the most
    points any constructor builds).  Each later line is one generator:
    "id" or a product of disjoint cycles of the points 1..d."""
    degree, gens = None, []
    try:
        for lineno, line in file_lines(text)[0]:
            if degree is not None:
                gens.append(_cycle_images(line, degree))
                continue
            header = line.split()
            if len(header) != 2 or header[0] != "degree":
                raise ValueError("expected 'degree <d>' header")
            [degree] = read_ints(header[1:], DEFAULT_DOMAIN_CAP,
                                 "expected 'degree <d>' header",
                                 f"degree {{}} exceeds the domain cap "
                                 f"{DEFAULT_DOMAIN_CAP}")
            if degree < 1:
                raise ValueError("degree must be >= 1")
    except ValueError as exc:
        raise GroupFileError(lineno, str(exc)) from exc
    if degree is None:
        raise GroupFileError(1, "missing 'degree <d>' header")
    # _cycle_images refused every row that is not a bijection
    return PermGroup._of_bijections(degree, gens)


def emit_group_file(G: PermGroup) -> str:
    """The group file of G: "degree <d>", then each generator as
    ``cycle_string`` writes it, formatted from arrays as many rows at a
    time as fill a kernel chunk (``_cycle_text``)."""
    per = max(1, _CHUNK_ENTRIES // G.degree)
    text = [f"degree {G.degree}\n".encode()]
    text += [_cycle_text(G.images[a:a + per])
             for a in range(0, len(G.images), per)]
    return b"".join(text).decode("ascii")


def _cycle_text(rows) -> bytes:
    """The lines of ``cycle_string`` for the (r x d) image rows, each
    ending in a newline, as bytes.

    The kernel's labels (``_cycle_labels``) give each point its cycle's
    least point, and a second pointer doubling, over the inverse and
    stopped at the least points, its distance from it.  The moved points
    are scattered into output order (rows, then cycles by least point,
    then distance), and every character into one byte buffer: each point
    is "(" or " " and its digits, a last point adds ")", and a row ends in
    a newline, after "id" if it moves nothing."""
    r, d = rows.shape
    label = _cycle_labels(rows)
    back = np.empty(r * d, np.intp)
    back[(rows + np.arange(0, r * d, d)[:, None]).ravel()] = np.arange(r * d)
    least = label == np.arange(r * d)
    back[least] = label[least]
    dist = (~least).astype(np.intp)
    while not np.array_equal(up := back[back], back):
        dist += dist[back]
        back = up
    size = np.bincount(label, minlength=r * d)
    size[size == 1] = 0  # fixed points are not written
    moved = np.flatnonzero(size[label])
    order = np.empty_like(moved)
    order[(np.cumsum(size) - size)[label[moved]] + dist[moved]] = moved
    # the tokens: the moved points in output order, each "(" or " ", its
    # digits and, last in its cycle, ")"
    row, value = np.divmod(order, d)
    value += 1
    digits = np.ones_like(value)
    for power in range(1, len(str(d))):
        digits += value >= 10**power
    first = dist[order] == 0
    last = dist[order] + 1 == size[label[order]]
    width = 1 + digits + last
    # a row ends in "\n", or "id\n" where it moves nothing
    ends = np.where(np.bincount(row, minlength=r), 1, 3)
    start = np.cumsum(width) - width + (np.cumsum(ends) - ends)[row]
    done = np.cumsum(np.bincount(row, width, r).astype(np.intp) + ends)
    text = np.full(done[-1], ord(" "), np.uint8)
    text[start[first]] = ord("(")
    text[(start + width - 1)[last]] = ord(")")
    at = start + digits
    for _ in range(digits.max(initial=0)):
        text[at] = ord("0") + value % 10
        value //= 10
        keep = value > 0
        at, value = at[keep] - 1, value[keep]
    text[done - 1] = ord("\n")
    empty = done[ends == 3]
    text[empty - 3], text[empty - 2] = ord("i"), ord("d")
    return text.tobytes()


# -- stock constructions ------------------------------------------------------


def symmetric_group(m: int) -> PermGroup:
    """Sym(m) on m points via a transposition and an m-cycle."""
    if m < 1:
        raise ValueError("m >= 1")
    if m > DEFAULT_DOMAIN_CAP:
        raise OverflowError(f"degree {m} exceeds the domain cap "
                            f"{DEFAULT_DOMAIN_CAP}")
    if m == 1:
        return PermGroup(1, [[0]])
    return PermGroup(m, [(1, 0, *range(2, m)), (*range(1, m), 0)])
