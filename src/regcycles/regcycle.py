"""Regular-cycle tests via fixed-point unions and exact fixed-point ratios.

An element g of a permutation group on Omega has a *regular cycle* when some
cycle of g has length equal to the order of g.  For g != 1 this happens if
and only if the union of the fixed-point sets of the prime-order powers
g**(|g|/r), over primes r dividing |g|, misses some point.  In particular

    S(g, Omega) := sum over primes r | |g| of fpr(g**(|g|/r))

being < 1 forces a regular cycle.  The identity is handled by convention: a
fixed point is a cycle of length |1| = 1, so the identity *has* a regular
cycle on any nonempty domain (reports carry this convention explicitly).

Fixed-point sets are packed bitsets (Python ints) keyed by the domain.  The
bulk verifier reads cycle types from one coset of the first point
stabilizer per stabilizer orbit (cycle type is a class function), and only
counts elements of square-free order when asked to, which is sound for the
"all-regular" verdict: if some element has no regular cycle, a suitable
power of square-free order also has none.
"""

from __future__ import annotations

import functools
import json
import math
import random
from dataclasses import dataclass
from fractions import Fraction

from . import numtheory
from .perm import (
    DEFAULT_ELEMENT_CAP,
    PermGroup,
    Permutation,
    cycle_decomposition,
    cycle_lengths,
    cycle_string,
    power,
)


@dataclass(frozen=True)
class RegCycleReport:
    """Outcome of the fixed-union regular-cycle test for one element."""

    has_regular_cycle: bool
    order: int
    witness: tuple[int, int] | None  # (start point, cycle length)
    s_value: Fraction
    fix_union_size: int
    degree: int
    identity_convention: bool = False  # True when g = 1 decided by convention

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


def fix_set(x: Permutation) -> int:
    """Fixed points of x as a packed bitset (bit i set iff i is fixed)."""
    bits = 0
    for i, img in enumerate(x.images):
        if img == i:
            bits |= 1 << i
    return bits


def fpr_exact(x: Permutation) -> Fraction:
    """Exact fixed-point ratio |Fix(x)| / degree."""
    return Fraction(fix_set(x).bit_count(), x.degree)


def count_regular_cycles(g) -> int:
    """Number of cycles of g of length exactly the order of g.

    Accepts a Permutation or a raw image sequence.
    """
    images = g.images if isinstance(g, Permutation) else g
    lengths = cycle_lengths(images)
    order = math.lcm(*lengths)
    return sum(1 for n in lengths if n == order)


def fix_union_test(g: Permutation) -> RegCycleReport:
    """Regular-cycle verdict from the prime-power fixed-point union.

    For g != 1: g has a regular cycle iff the union of Fix(g**(|g|/r)) over
    primes r | |g| is a proper subset of the domain.  The report also carries
    the exact ratio sum S(g, Omega); S < 1 already implies the verdict.
    """
    d = g.degree
    cycles = cycle_decomposition(g)
    order = math.lcm(*(len(c) for c in cycles))
    witness = None
    for c in cycles:
        if len(c) == order:
            witness = (c[0], order)
            break
    if order == 1:
        return RegCycleReport(True, 1, witness, Fraction(0), d, d,
                              identity_convention=True)
    union = 0
    s_value = Fraction(0)
    for r in numtheory.factorize(order).primes():
        fb = fix_set(power(g, order // r))
        union |= fb
        s_value += Fraction(fb.bit_count(), d)
    return RegCycleReport(
        has_regular_cycle=witness is not None,
        order=order,
        witness=witness,
        s_value=s_value,
        fix_union_size=union.bit_count(),
        degree=d,
    )


# verify_all_elements gathers small cosets in batches of about this many
# rows, one numpy gather per batch, and larger cosets one at a time.
_BATCH_ROWS = 4096


def _square_free(n: int) -> bool:
    return all(e == 1 for _p, e in numtheory.factorize(n))


@dataclass(frozen=True)
class VerifyReport:
    """Bulk verdict over a whole group."""

    verdict: str  # "all-regular" or "failures"
    checked: int
    group_order: int
    witnesses: tuple[Permutation, ...]  # lexicographically least failures
    square_free_only: bool

    @property
    def all_regular(self) -> bool:
        return self.verdict == "all-regular"

    def to_json_dict(self, group_name: str = "") -> dict:
        return {
            "schema": 1,
            "group": group_name,
            "group_order": self.group_order,
            "verdict": self.verdict,
            "checked": self.checked,
            "square_free_only": self.square_free_only,
            "witness_cycles": [cycle_string(w) for w in self.witnesses],
        }


def verify_all_elements(G: PermGroup, cap: int = DEFAULT_ELEMENT_CAP,
                        square_free_only: bool = False,
                        max_witnesses: int = 5) -> VerifyReport:
    """Check every element of G (or every square-free-order element).

    The elements are split into the cosets {g : g(b) = beta}, b the first
    base point of G's stabilizer chain and beta in b^G.  Conjugation by
    h in G_b maps the coset of beta onto that of h(beta) and keeps cycle
    types, so one coset per G_b-orbit is checked row by row and its counts
    are weighted by the orbit length.  Witnesses are the lexicographically
    least failures: every element fixes the points below b, so they are
    read from the cosets of failing orbits in ascending beta, as many
    cosets as hold max_witnesses failures (each holds as many as its
    orbit's representative).

    The "all-regular" verdict of the square-free-only run equals that of the
    exhaustive run: an element without a regular cycle powers down to a
    square-free-order element without one.  Witnesses, however, are reported
    among the elements actually checked.  Raises CapExceeded iff |G| > cap.
    """
    chain = G.stabilizer_chain(cap)
    square_free = functools.cache(_square_free)  # per call: one test per order
    n = len(chain.stabilizer_rows())
    per_batch = max(1, _BATCH_ROWS // n)

    def batches(items):
        return (items[i:i + per_batch] for i in range(0, len(items), per_batch))

    def scan(betas):
        """Rows checked in the coset of each beta, and every failing row
        as (index of its beta, images)."""
        counts, failing = [0] * len(betas), []
        rows = chain.cosets(betas).reshape(-1, G.degree).tolist()
        for r, images in enumerate(rows):
            lengths = cycle_lengths(images)
            order = math.lcm(*lengths)
            if square_free_only and not square_free(order):
                continue
            counts[r // n] += 1
            if order not in lengths:
                failing.append((r // n, images))
        return counts, failing

    checked = 0
    failures: dict[int, int] = {}  # beta -> failing rows in its coset
    for batch in batches(chain.stabilizer_orbits()):
        counts, failing = scan([orbit[0] for orbit in batch])
        checked += sum(c * len(orbit) for c, orbit in zip(counts, batch))
        per_rep: dict[int, int] = {}
        for k, _ in failing:
            per_rep[k] = per_rep.get(k, 0) + 1
        for k, count in per_rep.items():
            failures.update(dict.fromkeys(batch[k], count))
    # the fewest cosets, in ascending beta, that hold max_witnesses failures;
    # every row fixes the points below b and maps b to its beta, so sorting
    # their failing rows sorts by beta first
    wanted, found = [], 0
    for beta in sorted(failures):
        if found >= max_witnesses:
            break
        wanted.append(beta)
        found += failures[beta]
    least = sorted(images for batch in batches(wanted)
                   for _, images in scan(batch)[1])
    witnesses = tuple(map(Permutation, least[:max_witnesses]))
    verdict = "all-regular" if not failures else "failures"
    return VerifyReport(verdict, checked, chain.order, witnesses,
                        square_free_only)


@dataclass(frozen=True)
class MonotonicityReport:
    """Sampled check that action 1 never has more regular cycles of a word
    than action 2 does."""

    monotone: bool
    samples: int
    violations: tuple[str, ...]  # word descriptions, at most a handful

    def to_json_dict(self) -> dict:
        return {
            "schema": 1,
            "monotone": self.monotone,
            "samples": self.samples,
            "violations": list(self.violations),
        }


def compare_actions_monotonic(G1: PermGroup, G2: PermGroup,
                              samples: int = 10**4, seed: int = 1729,
                              max_word_length: int = 40) -> MonotonicityReport:
    """For sampled words w: count_regular_cycles(w on Omega1) <= (w on Omega2).

    The two groups must be the same abstract group given by *compatible*
    generator lists (generator i of G1 corresponds to generator i of G2); the
    word is evaluated in both in lockstep.  Sampling uses a fixed seed, so
    runs are reproducible.
    """
    if len(G1.generators) != len(G2.generators):
        raise ValueError("generator lists must have equal length")
    import numpy as np

    ngens = len(G1.generators)
    rng = random.Random(seed)
    gens1 = [np.array(g.images) for g in G1.generators]
    gens2 = [np.array(g.images) for g in G2.generators]
    ident1 = np.arange(G1.degree)
    ident2 = np.arange(G2.degree)
    violations: list[str] = []
    for _ in range(samples):
        length = rng.randint(1, max_word_length)
        word = [rng.randrange(ngens) for _ in range(length)]
        w1, w2 = ident1, ident2
        for i in word:
            w1 = gens1[i][w1]  # apply w, then generator i
            w2 = gens2[i][w2]
        if count_regular_cycles(w1.tolist()) > count_regular_cycles(w2.tolist()):
            if len(violations) < 5:
                violations.append("g" + " g".join(str(i) for i in word))
    return MonotonicityReport(not violations, samples, tuple(violations))


def report_json(report, group_name: str = "") -> str:
    """Stable JSON for any of the report dataclasses above."""
    if isinstance(report, VerifyReport):
        d = report.to_json_dict(group_name)
    else:
        d = report.to_json_dict()
        if group_name:
            d["group"] = group_name
    return json.dumps(d, sort_keys=True)
