"""Regular-cycle tests via fixed-point unions and exact fixed-point ratios.

An element g of a permutation group on Omega has a *regular cycle* when some
cycle of g has length equal to the order of g.  For g != 1 this happens if
and only if the union of the fixed-point sets of the prime-order powers
g**(|g|/r), over primes r dividing |g|, misses some point.  In particular

    S(g, Omega) := sum over primes r | |g| of fpr(g**(|g|/r))

being < 1 forces a regular cycle.  The identity is handled by convention: a
fixed point is a cycle of length |1| = 1, so the identity *has* a regular
cycle on any nonempty domain (a report's ``identity_convention`` says so).

Fixed-point counts come from one cycle decomposition: Fix(g**m) is the
union of the cycles of g whose length divides m, so ``check``
(``fix_union_test``) takes S and the primes of |g| from the distinct
cycle lengths and never factors |g|.  The bulk verifier reads cycle
types (a class function) from cosets of the chain's stabilizers G_(l),
G_(l) fixing the first l base points, through the chain's accessors
(``perm.StabChain.orbits``, ``pair_orbits`` and ``cosets``).  The cosets
{g : g(b1) = beta} of one G_(1)-orbit have the same cycle types, and each
orbit is read the way that takes the fewest rows (``_orbit_readings``):
its coset whole, one coset of G_(2) per G_(2)-orbit on the pairs
(g(b1), g(b2)) over it (over b2 alone, for the orbit of b2), or, for
{b1}, G_(1) itself by the same three readings one level down, to the
end of the chain.  Below one kernel chunk every coset is read whole.
The verifier only counts elements of square-free order when asked to,
which is sound for the "all-regular" verdict: if some element has no
regular cycle, a suitable power of square-free order also has none.
Its witnesses, the lexicographically least failures, are sorted out of
the failing rows as arrays; only the witnesses become lists.

Bulk questions, the verifier's cosets and the sampled words of
``compare_actions_monotonic``, go through one kernel, ``perm.cycle_sizes``,
on chunks of at most _CHUNK_ENTRIES image entries.  It finds every cycle
of every row at once by pointer doubling, and one rule
(``_regular_counts``) reads the answers from the lengths without
computing an order (an lcm of many cycle lengths can pass 2**63): g has
a regular cycle iff every cycle length divides the longest, and its
regular cycles are then those of the longest length; its order is
square-free iff every cycle length is (``_square_free_table``).  Single
elements (``fix_union_test``, ``perm.has_regular_cycle_direct``) keep the
scalar cycle walk.  Two actions of one group, on Omega1 and Omega2, are
compared in its diagonal action on their disjoint union: each sampled
word is read k letters at a time, right to left, from one table of the
k-letter products.  The kernel counts action 1 on its own columns, and
the longest cycle there, the word's order o on Omega1, lets the
fix-union test count action 2 from the powers w**o and w**(o/r) alone
(``_fix_union_counts``); only the rows that test cannot decide go
through the kernel on their action-2 columns.
"""

from __future__ import annotations

import itertools
import math
import operator
import random
from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from . import numtheory
from .perm import (
    _CHUNK_ENTRIES,
    DEFAULT_ELEMENT_CAP,
    PermGroup,
    Permutation,
    _point_dtype,
    cycle_decomposition,
    cycle_sizes,
    cycle_string,
)


@dataclass(frozen=True)
class RegCycleReport:
    """Outcome of the fixed-union regular-cycle test for one element."""

    order: int
    witness: tuple[int, int] | None  # (start point, cycle length)
    s_value: Fraction
    fix_union_size: int
    degree: int

    @property
    def has_regular_cycle(self) -> bool:
        return self.witness is not None

    @property
    def identity_convention(self) -> bool:
        """True when g = 1, decided by convention."""
        return self.order == 1

    def to_json_dict(self) -> dict:
        return {
            "schema": 1,
            "degree": self.degree,
            "order": self.order,
            "has_regular_cycle": self.has_regular_cycle,
            "witness": list(self.witness) if self.witness else None,
            "s_value_num": self.s_value.numerator,
            "s_value_den": self.s_value.denominator,
            "fix_union_size": self.fix_union_size,
            "identity_convention": self.identity_convention,
        }


def _regular_counts(sizes: np.ndarray) -> np.ndarray:
    """The regular-cycle count of every row of ``perm.cycle_sizes``
    output, or of a block of its columns that is a union of cycles.

    A permutation's order is the lcm of its cycle lengths, at least the
    longest one, with equality iff every length divides the longest.  So a
    row has a regular cycle iff every cycle length divides its longest,
    and its regular cycles are then the cycles of that length.
    """
    longest = sizes.max(axis=1, keepdims=True)
    counts = (sizes == longest).sum(axis=1)
    counts[(longest % np.maximum(sizes, 1)).any(axis=1)] = 0
    return counts


def _square_free_table(degree: int) -> np.ndarray:
    """Whether each of 0, ..., degree is square-free (0, at the points
    that lead no cycle in ``perm.cycle_sizes``, counts as square-free)."""
    table = np.ones(degree + 1, bool)
    for k in range(2, math.isqrt(degree) + 1):
        table[k * k::k * k] = False  # the multiples of k**2
    return table


def fix_union_test(g: Permutation) -> RegCycleReport:
    """Regular-cycle verdict from the prime-power fixed-point union.

    For g != 1: g has a regular cycle iff the union of Fix(g**(|g|/r)) over
    primes r | |g| is a proper subset of the domain.  The report also carries
    the exact ratio sum S(g, Omega); S < 1 already implies the verdict.
    """
    d = g.degree
    cycles = cycle_decomposition(g.images)
    lengths = [len(c) for c in cycles]
    order = math.lcm(*lengths)
    witness = next(((c[0], order) for c in cycles if len(c) == order), None)
    if order == 1:
        return RegCycleReport(1, witness, Fraction(0), d, d)
    # Fix(g**(|g|/r)) is the union of the cycles whose length divides
    # |g|/r; over all primes r these are the cycles shorter than |g|.  The
    # primes of |g| are those of its cycle lengths, at most the degree.
    primes = {r for L in set(lengths) for r in numtheory.factorize(L).primes()}
    fixed = sum(L for r in primes for L in lengths if order // r % L == 0)
    return RegCycleReport(
        order=order,
        witness=witness,
        s_value=Fraction(fixed, d),
        fix_union_size=sum(L for L in lengths if L < order),
        degree=d,
    )


def _kernel_calls(blocks, rows_per_call: int):
    """The rows of the blocks (first, at, rows) of ``StabChain.cosets``,
    k cosets x m rows each, copied into kernel calls of rows_per_call rows
    (at least one), the last call of all possibly fewer.  A block may be
    split between two calls, so no call is part empty where G_(l) comes
    in pieces that do not tile a chunk.  Yields (rows, slices): the rows
    of the call are, in order, rows start..stop-1 of each block slice
    (first, m, start, stop), whose row i lies in the coset first + i // m
    (``_owners``)."""
    rows_per_call = max(1, rows_per_call)
    buf, slices, held = None, [], 0
    for first, _at, block in blocks:
        m, d = block.shape[1:]
        block = block.reshape(-1, d)
        start = 0
        while start < len(block):
            if buf is None:
                buf = np.empty((rows_per_call, d), block.dtype)
            stop = min(len(block), start + rows_per_call - held)
            buf[held:held + stop - start] = block[start:stop]
            slices.append((first, m, start, stop))
            held += stop - start
            start = stop
            if held == rows_per_call:
                yield buf, slices
                buf, slices, held = None, [], 0
    if held:
        yield buf[:held], slices


def _owners(slices) -> np.ndarray:
    """The coset of each row of a kernel call, from its block slices."""
    return np.concatenate([first + np.arange(start, stop) // m
                           for first, m, start, stop in slices])


@dataclass(frozen=True)
class VerifyReport:
    """Bulk verdict over a whole group, derived from its failing count."""

    checked: int
    failing: int  # checked elements without a regular cycle
    group_order: int
    witnesses: tuple[Permutation, ...]  # lexicographically least failures
    square_free_only: bool

    @property
    def all_regular(self) -> bool:
        return not self.failing

    @property
    def verdict(self) -> str:
        return "all-regular" if self.all_regular else "failures"

    def to_json_dict(self, group_name: str = "") -> dict:
        return {
            "schema": 1,
            "group": group_name,
            "group_order": self.group_order,
            "verdict": self.verdict,
            "checked": self.checked,
            "square_free_only": self.square_free_only,
            "witness_cycles": [cycle_string(w.images)
                               for w in self.witnesses],
        }


def _orbit_readings(chain, k: int = 0):
    """How to read G_(k) by cycle types, as (orbits, pieces): orbits has
    one entry (O, rows, kind) per orbit O of G_(k+1) on the orbit of
    b = b_(k+1) (``StabChain.orbits(k)``; at k = 0, on the images of b1),
    the reading chosen for O and the kernel rows it takes, and pieces
    (level, xs, weights, owners) are the cosets read: x G_(level) for
    each row x of xs, standing for `weight` cosets of G_(level) with its
    cycle types, in the reading of orbit number `owner`.  Each orbit
    takes the fewest rows of these readings:

    - "whole": the coset {g : g(b) = O[0]} of G_(k+1), weight |O|;
    - "branch", for O = {b}: that coset is G_(k+1), read the same way
      one level down;
    - "pairs", for O other than {b}: the cosets {g : g(b) = beta} split by
      gamma = g(b'), b' the next base point.  G_(k+2) fixes b and b', so
      conjugation maps the piece of (beta, gamma) onto that of its image,
      and one coset of G_(k+2) is read per G_(k+2)-orbit on the pairs
      (``StabChain.pair_orbits``), weight its length.  The first
      coordinates beta run through O, or only through b' when O holds it:
      conjugation by G_(k+1) maps the coset of b' onto the others, so each
      piece then also stands for |O|.  The pair orbits are computed only
      when (first coordinates) x n', n' the length of the orbit of b' and
      a lower bound for their rows, is below |G_(k+1)|.  (Over {b} they
      would be the branch's whole readings: the branch never reads more.)

    A tie keeps the whole coset."""
    base, d, n = chain.base, chain.degree, chain.orbit_lengths
    sizes = [math.prod(n[j:]) for j in range(len(n) + 1)]  # |G_(j)|
    parts = chain.orbits(k)
    reps = chain.representatives([orbit[0] for orbit in parts], k)
    # every coset is read whole where G_(k+1) is trivial, and at k = 0
    # where the whole cosets fit one kernel chunk: one call reads them all
    if k + 1 == len(n) or k == 0 \
            and len(parts) * sizes[1] * d <= _CHUNK_ENTRIES:
        return ([(orbit, sizes[k + 1], "whole") for orbit in parts],
                [(k + 1, reps, [len(orbit) for orbit in parts],
                  range(len(parts)))])
    found, pieces = [], []
    for owner, orbit in enumerate(parts):
        readings = [(sizes[k + 1], "whole",
                     [(k + 1, reps[owner:owner + 1], [len(orbit)])])]
        firsts = [base[k + 1]] if base[k + 1] in orbit else orbit
        if orbit == [base[k]]:
            below, blocks = _orbit_readings(chain, k + 1)
            readings.append((sum(r[1] for r in below), "branch",
                             [block[:3] for block in blocks]))
        elif len(firsts) * n[k + 1] < sizes[k + 1]:
            xs, lengths = chain.pair_orbits(k, firsts)
            readings.append((len(lengths) * sizes[k + 2], "pairs", [
                (k + 2, xs, [len(orbit) // len(firsts) * length
                             for length in lengths])]))
        rows, kind, blocks = min(readings, key=operator.itemgetter(0))
        found.append((orbit, rows, kind))
        pieces += [(level, xs, weights, [owner] * len(weights))
                   for level, xs, weights in blocks]
    return found, pieces


def verify_all_elements(G: PermGroup, cap: int = DEFAULT_ELEMENT_CAP,
                        square_free_only: bool = False) -> VerifyReport:
    """Check every element of G (or every square-free-order element).

    Take the stabilizer chain of G with base b1, b2, ..., and let G_(l) fix
    b1, ..., bl.  The elements split into the cosets {g : g(b1) = beta},
    one per image beta of b1.  Conjugation by h in G_(1) maps the coset of
    beta onto that of h(beta) and keeps cycle types, so the cosets of one
    G_(1)-orbit O have the same counts, and each orbit is read the way
    that takes the fewest kernel rows (``_orbit_readings``): its coset
    whole, one coset of G_(2) per G_(2)-orbit on the pairs (g(b1), g(b2))
    with g(b1) in O (only g(b1) = b2 when O holds b2), or, for O = {b1},
    G_(1) itself, read by the same rule one level down.  Each coset read
    is weighted by the number of cosets it stands for.  Those readings
    are only weighed when the orbits' whole cosets pass one kernel chunk;
    below that every coset is read whole.  The chain hands the cosets out in
    blocks of at most 2 * _CHUNK_ENTRIES entries, cosets x a piece of
    G_(l) (``StabChain.cosets``); one scan loop copies their rows into
    kernel calls of _CHUNK_ENTRIES // degree rows (``_kernel_calls``),
    reads each call's cycle lengths once (``perm.cycle_sizes``), and sums
    its counts per coset: a row fails when ``_regular_counts`` finds no
    regular cycle and, with square_free_only, every cycle length is
    square-free.

    Witnesses are the five lexicographically least failures: every
    element fixes the points below b1, so they are read from the cosets
    {g : g(b1) = beta} in ascending beta, as many as hold five failures;
    every coset of an orbit holds the same number.  Their failing rows
    stay arrays, one ``np.lexsort`` picks the least, and only the
    witnesses become lists.

    The "all-regular" verdict of the square-free-only run equals that of the
    exhaustive run: an element without a regular cycle powers down to a
    square-free-order element without one.  Witnesses, however, are reported
    among the elements actually checked.  Raises CapExceeded iff |G| > cap.
    """
    chain = G.stabilizer_chain(cap)
    square_free = _square_free_table(G.degree) if square_free_only else None

    def scan(pieces, failing=None):
        """Rows checked (None when every row is) and rows failing in each
        coset x G_(level), x a row of reps, of the pieces (level, reps),
        in order; each call's failing rows are appended to `failing` as
        one array, if given."""
        total = sum(len(reps) for _level, reps in pieces)
        n_checked = np.zeros(total, np.intp) if square_free_only else None
        n_failed = np.zeros(total, np.intp)

        def blocks():
            offset = 0
            # blocks of two calls' entries: the chain cuts fewer of them,
            # and they hold points, one or two bytes each, not the
            # kernel's int64
            for level, reps in pieces:
                for first, at, rows in chain.cosets(reps, level,
                                                    2 * _CHUNK_ENTRIES):
                    yield offset + first, at, rows
                offset += len(reps)

        for rows, slices in _kernel_calls(blocks(),
                                          _CHUNK_ENTRIES // G.degree):
            sizes = cycle_sizes(rows)
            fail = _regular_counts(sizes) == 0
            # one sum per coset; the owners are only read where needed
            if square_free_only:
                kept = square_free[sizes].all(axis=1)
                fail &= kept
                n_checked += np.bincount(_owners(slices)[kept],
                                         minlength=total)
            if fail.any():
                n_failed += np.bincount(_owners(slices)[fail],
                                        minlength=total)
                if failing is not None:
                    failing.append(rows[fail])
        return n_checked, n_failed

    orbits, pieces = _orbit_readings(chain)
    # the cosets of one level together: the chain hands them out in one
    # recursion
    by_level = operator.itemgetter(0)
    pieces.sort(key=by_level)
    counts, fails = scan([
        (level, np.concatenate([xs for _level, xs, _w, _o in group]))
        for level, group in itertools.groupby(pieces, by_level)])
    weights = [w for piece in pieces for w in piece[2]]
    owners = [i for piece in pieces for i in piece[3]]
    checked = chain.order if counts is None else sum(
        map(operator.mul, counts.tolist(), weights))
    per_orbit = [0] * len(orbits)  # failing rows over each orbit's cosets
    for j in np.flatnonzero(fails).tolist():
        per_orbit[owners[j]] += int(fails[j]) * weights[j]
    failures: dict[int, int] = {}  # beta -> failing rows in its coset of G_b
    for (orbit, _rows, _kind), count in zip(orbits, per_orbit):
        if count:
            failures.update(dict.fromkeys(orbit, count // len(orbit)))
    # the fewest cosets, in ascending beta, that hold five failures: up to
    # the first whose running count reaches 5; every row fixes the points
    # below b and maps b to its beta, so sorting their failing rows sorts
    # by beta first
    held = itertools.accumulate(failures[beta] for beta in sorted(failures))
    wanted = sorted(failures)[:1 + sum(count < 5 for count in held)]
    least = [np.empty((0, G.degree), np.intp)]
    scan([(1, chain.representatives(wanted))], least)
    rows = np.concatenate(least)
    witnesses = rows[np.lexsort(rows.T[::-1])[:5]].tolist()
    return VerifyReport(checked, sum(failures.values()), chain.order,
                        tuple(map(Permutation, witnesses)), square_free_only)


@dataclass(frozen=True)
class MonotonicityReport:
    """Sampled check that action 1 never has more regular cycles of a word
    than action 2 does."""

    samples: int  # words requested; sampling stops at the fifth violation
    violations: tuple[str, ...]  # the first five violating words, at most

    @property
    def monotone(self) -> bool:
        return not self.violations

    def to_json_dict(self) -> dict:
        return {
            "schema": 1,
            "monotone": self.monotone,
            "samples": self.samples,
            "violations": list(self.violations),
        }


# sampled words have between 1 and this many letters
MAX_WORD_LENGTH = 40

# compare_actions_monotonic's table of k-letter products holds at most this
# many bytes (unless its k = 1 table, the generators alone, is larger), and
# so do its chunks of words (unless one word is larger)
_TABLE_BYTES = 1 << 22


def _letter_products(G1: PermGroup, G2: PermGroup, samples: int):
    """(table, k): the image rows, in the diagonal action on d1 + d2
    points and in its point dtype, of every product of k letters that
    starts with a generator, and k, the largest whose table fits
    _TABLE_BYTES and has no more rows than `samples` words can read,
    samples x MAX_WORD_LENGTH (k at least 1).

    The letters are 0, the identity, and i + 1, generator i: row i of G1
    followed by row i of G2 shifted by d1.  Letters l_0, ..., l_(k-1),
    applied in that order and read as base-(n+1) digits with l_0 the most
    significant, give a code c >= (n+1)**(k-1), as l_0 >= 1; their
    product is row c - (n+1)**(k-1).  The products of j letters, at their
    codes in the first (n+1)**j rows of ``shorter``, are also those of
    j + 1 letters that start with the identity, and those that start with
    letter l are their columns taken at row l.  So ``shorter`` grows in
    place to k - 1 letters, and each block of the table is taken from it.
    """
    n, d1, d = len(G1.images), G1.degree, G1.degree + G2.degree
    base, dtype = n + 1, _point_dtype(d)
    most = min(_TABLE_BYTES // (d * dtype.itemsize),
               samples * MAX_WORD_LENGTH)
    k = 1
    while n * base ** k <= most:
        k += 1
    rows = base ** (k - 1)
    shorter = np.empty((max(rows, base), d), dtype)
    shorter[0] = np.arange(d)
    shorter[1:base, :d1] = G1.images
    # G2's rows are shifted in the wider dtype: d1 + d2 may not fit theirs
    shorter[1:base, d1:] = G2.images
    shorter[1:base, d1:] += d1
    # the indices are in range; mode "raise" would write through a copy
    for j in range(1, k - 1):
        r = base ** j
        for letter in range(1, base):
            np.take(shorter[:r], shorter[letter], axis=1, mode="clip",
                    out=shorter[letter * r:(letter + 1) * r])
    table = np.empty((n * rows, d), dtype)
    for letter in range(1, base):
        np.take(shorter[:rows], shorter[letter], axis=1, mode="clip",
                out=table[(letter - 1) * rows:letter * rows])
    return table, k


def _fix_union_counts(rows, shift: int, order: int, primes) -> np.ndarray:
    """The regular-cycle count of each row of an (m x d) array of image
    rows whose points are shifted by `shift` (the action-2 columns of
    diagonal rows), from the fix-union test at `order`, whose primes are
    `primes`; -1 where that test cannot decide.

    Let w be a row, x a point on a cycle of length L, and P the number of
    points moved by every w**(order/r), r in primes.  If w**order = 1,
    every L divides order, and w**(order/r) fixes x iff L divides
    order/r, which holds for some r unless L = order.  So P points lie on
    cycles of length order; if P > 0, that is the order of w, and w has
    P/order regular cycles.  Otherwise (w**order != 1, or P = 0: the
    order of w is a proper divisor) the row is left undecided.

    The powers are read by one binary exponentiation of the m rows at
    once, with their points numbered i d + x for row i, so that each
    product of powers is one ``take``.
    """
    m, d = rows.shape
    x = (rows + (np.arange(0, m * d, d) - shift)[:, None]).ravel()
    ident = np.arange(m * d)
    exponents = {order} | {order // r for r in primes}
    powers: dict[int, np.ndarray] = {}
    square, bit = x, 1  # square = x**bit
    while True:
        for e in exponents:
            if e & bit:
                powers[e] = powers[e].take(square) if e in powers \
                    else square
        bit <<= 1
        if bit > order:
            break
        square = square.take(square)
    whole = (powers[order] == ident).reshape(m, d).all(axis=1)
    moved = np.ones(m * d, bool)
    for r in primes:
        moved &= powers[order // r] != ident
    regular = moved.reshape(m, d).sum(axis=1)
    return np.where(whole & (regular > 0), regular // order, -1)


def compare_actions_monotonic(G1: PermGroup, G2: PermGroup,
                              samples: int = 10**4,
                              seed: int = 1729) -> MonotonicityReport:
    """For sampled words w: the regular cycles of w on Omega1 are at most
    as many as on Omega2.

    The two groups must be the same abstract group given by *compatible*
    generator lists (generator i of G1 corresponds to generator i of G2).
    A word is evaluated once, in the diagonal action on the d1 + d2
    points of both domains (generator i acts on the last d2 as row i of
    G2 shifted by d1).  Sampling uses a fixed seed, so runs are
    reproducible.  At least one word is sampled, and the actions need at
    least one generator.  `samples` is the number of words requested, and
    the report carries it: the report lists the first five violations in
    sample order, so sampling stops after the chunk of words that holds
    the fifth.

    Each word, padded at its end with identity letters to a multiple of
    k, is read in blocks of k letters from one table of every k-letter
    product that starts with a generator (``_letter_products``), right
    to left: the partial product starts as the last block's row and is
    then taken at each earlier block's row, so its random reads stay in
    one cached row.  The words' rows are counted a chunk of words at a
    time, _CHUNK_ENTRIES // d1 of them (fewer where their diagonal rows
    would pass _TABLE_BYTES).  No cycle crosses column d1, so the kernel
    that ``verify_all_elements`` uses counts action 1 on its block of
    columns alone.  A word without a regular cycle there cannot be a
    violation, and its action-2 columns are never read.  The others
    have order o on Omega1, their longest cycle there (so at most d1),
    and the fix-union test at o counts action 2 (``_fix_union_counts``),
    on pieces of at most _CHUNK_ENTRIES // d2 words of one order: a
    word or two at a time where d2 is large, many where it is small.
    The rows it cannot decide, where w**o != 1 on Omega2 or no point
    there lies on a cycle of length o, go through the kernel on their
    action-2 columns in pieces of the same size.
    """
    if len(G1.images) != len(G2.images):
        raise ValueError("the two actions list different numbers of "
                         "generators and cannot be compared word-by-word")
    if not len(G1.images):
        raise ValueError("the actions list no generators, so there are "
                         "no words to sample")
    if samples < 1:
        raise ValueError(f"need at least 1 sample, got {samples}")

    ngens = len(G1.images)
    rng = random.Random(seed)
    d1, d2 = G1.degree, G2.degree
    table, k = _letter_products(G1, G2, samples)
    weights = [(ngens + 1) ** e for e in range(k - 1, -1, -1)]
    per_chunk = max(1, min(_CHUNK_ENTRIES // d1,
                           _TABLE_BYTES // table[0].nbytes))
    per_piece = max(1, _CHUNK_ENTRIES // d2)
    rows = np.empty((per_chunk, d1 + d2), table.dtype)
    primes: dict[int, tuple[int, ...]] = {}  # of each order met
    words = []
    violations: list[str] = []
    for sample in range(samples):
        length = rng.randint(1, MAX_WORD_LENGTH)
        word = [rng.randrange(ngens) for _ in range(length)]
        padded = [i + 1 for i in word] + [0] * (-length % k)
        *earlier, last = [
            sum(map(operator.mul, padded[i:i + k], weights)) - weights[0]
            for i in range(0, len(padded), k)]
        w = table[last]
        for row in reversed(earlier):
            w = w.take(table[row])  # apply that block, then w
        rows[len(words)] = w
        words.append(word)
        if len(words) < per_chunk and sample < samples - 1:
            continue
        chunk = rows[:len(words)]
        sizes = cycle_sizes(chunk[:, :d1])
        counts1 = _regular_counts(sizes)
        counts2 = np.zeros_like(counts1)
        live = np.flatnonzero(counts1)
        orders = sizes.max(axis=1)[live]
        for order in np.unique(orders).tolist():
            if order not in primes:
                primes[order] = numtheory.factorize(order).primes()
            same = live[orders == order]
            for i in range(0, len(same), per_piece):
                piece = same[i:i + per_piece]
                counts2[piece] = _fix_union_counts(
                    chunk[piece, d1:], d1, order, primes[order])
        undecided = live[counts2[live] < 0]
        for i in range(0, len(undecided), per_piece):
            piece = undecided[i:i + per_piece]
            counts2[piece] = _regular_counts(
                cycle_sizes(chunk[piece, d1:] - d1))
        for j in np.flatnonzero(counts1 > counts2)[:5 - len(violations)]:
            violations.append("g" + " g".join(str(i) for i in words[j]))
        if len(violations) == 5:
            break
        words = []
    return MonotonicityReport(samples, tuple(violations))
