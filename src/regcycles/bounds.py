"""Closed-form certification that S(g, Omega) < 1 for classical-group
subspace actions, plus the exception scans.

The central quantity is the fixed-point-ratio sum

    S(g, Omega) = sum over primes r | |g| of fpr(g**(|g|/r)),

which is split as S1 + S2: S1 runs over the primes dividing e*p*(q0 - 1)
(bounded by a per-action front factor times a prime count), and S2 over the
remaining primes, all of which act semisimply with an eigenvalue field of
degree l >= 2; their ratios decay like q0**(-l) and are summed with exact
primitive-prime-divisor counts for small l and a log tail beyond.

Every term is an exact rational upper bound (a logarithm enters through
numtheory.log2_upper, a half-integer power of q through an integer square
root), so a verdict is the one exact comparison total < 1, which
`BoundReport` makes once, from its own terms, when it is built.  Data the
pipeline cannot derive (maximal element orders, minimal degrees, amended
fixed-point-ratio bounds) comes from pluggable external tables; missing
entries force conservative defaults or the "delegated-external" verdict,
never a silently weaker bound.

The pipelines read every fixed-point ratio from the functions the
acceptance tests check on real groups: `fprell_bound` (cases i and ii),
`casevi_fpr_bound` (case vi) and `generic_fpr_bound` (4/(3q)).  Case iv's
4/q**(2l) alone stays inline: its l is an eigenvalue-field degree.

`GroupId` alone factors q, and refuses q**n > 2**QN_CAP_BITS.  The three
exception scans are data over one driver, `_scan`.
"""

from __future__ import annotations

import functools
import itertools
import json
import math
from dataclasses import dataclass, field
from fractions import Fraction
from typing import NamedTuple

from . import numtheory as nt
from . import read_ints

FAMILIES = ("PSL", "PSU", "PSp", "POmega", "POmega+", "POmega-")

_ORTHOGONAL = ("POmega", "POmega+", "POmega-")

# the most bits of q**n; the bounds form powers up to about q**(2n) and print
# some (q0**n has at most 2,467 digits, within Python's limit of 4,300)
QN_CAP_BITS = 4096


@dataclass(frozen=True)
class GroupId:
    """An almost simple classical group, identified by socle parameters."""

    family: str
    n: int
    q: int
    # q = p**e, set once by __post_init__
    p: int = field(init=False, repr=False, compare=False)
    e: int = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        if self.family not in FAMILIES:
            raise ValueError(f"unknown family {self.family!r} (the "
                             f"families are {', '.join(FAMILIES)})")
        pe = nt.prime_power(self.q)
        if pe is None:
            raise ValueError(f"{self.q} is not a prime power")
        object.__setattr__(self, "p", pe[0])
        object.__setattr__(self, "e", pe[1])
        n, q = self.n, self.q
        fam = self.family
        if fam == "PSL" and n < 2:
            raise ValueError("PSL needs n >= 2")
        if fam == "PSU" and n < 3:
            raise ValueError("PSU needs n >= 3")
        if fam == "PSp" and (n % 2 or n < 4):
            raise ValueError("PSp needs even n >= 4")
        if fam == "POmega":
            if n % 2 == 0 or n < 7:
                raise ValueError("odd-dimensional orthogonal needs odd "
                                 "n >= 7")
            if q % 2 == 0:
                raise ValueError("odd-dimensional orthogonal needs odd q")
        if fam in ("POmega+", "POmega-") and (n % 2 or n < 8):
            raise ValueError(f"{fam} needs even n >= 8")
        # q**n >= 2**((bits - 1) n), so the first test refuses before
        # q**n is formed; past it q**n has at most 2 * QN_CAP_BITS bits
        if ((q.bit_length() - 1) * n > QN_CAP_BITS
                or q**n > 1 << QN_CAP_BITS):
            raise OverflowError(f"q**n = {q}**{n} exceeds the cap "
                                f"2**{QN_CAP_BITS}")

    @property
    def q0(self):
        return self.q**2 if self.family == "PSU" else self.q

    @property
    def m(self):
        """Witt index of the natural module."""
        fam, n = self.family, self.n
        if fam in ("PSp", "POmega+"):
            return n // 2
        if fam == "POmega-":
            return n // 2 - 1
        if fam == "POmega":
            return (n - 1) // 2
        return n // 2  # PSU; unused for PSL

    def __str__(self):
        return f"{self.family}_{self.n}({self.q})"


# ---------------------------------------------------------------------------
# orders

def _order_factors(gid: GroupId):
    """(a, pieces, d) with |G0| = q**a * prod(pieces) / d: the one list of
    the cyclotomic-type factors q**i - 1, q**i - (-1)**i, q**(2i) - 1 and
    q**m -+ 1 of each family."""
    n, q = gid.n, gid.q
    fam = gid.family
    m = n // 2
    if fam == "PSL":
        return (n * (n - 1) // 2, [q**i - 1 for i in range(2, n + 1)],
                math.gcd(n, q - 1))
    if fam == "PSU":
        return (n * (n - 1) // 2,
                [q**i - (-1)**i for i in range(2, n + 1)],
                math.gcd(n, q + 1))
    if fam in ("PSp", "POmega"):
        return (m * m, [q**(2 * i) - 1 for i in range(1, m + 1)],
                math.gcd(2, q - 1))
    # POmega+/-
    top = q**m - (1 if fam == "POmega+" else -1)
    return (m * (m - 1), [q**(2 * i) - 1 for i in range(1, m)] + [top],
            math.gcd(4, top))


def group_order(gid: GroupId) -> int:
    a, pieces, d = _order_factors(gid)
    return gid.q**a * math.prod(pieces) // d


def _out_order(gid: GroupId) -> int:
    n, q, p, e = gid.n, gid.q, gid.p, gid.e
    fam = gid.family
    if fam == "PSL":
        return math.gcd(n, q - 1) * e * (2 if n >= 3 else 1)
    if fam == "PSU":
        return math.gcd(n, q + 1) * 2 * e
    if fam == "PSp":
        return math.gcd(2, q - 1) * e * (2 if (n, p) == (4, 2) else 1)
    if fam == "POmega":
        return math.gcd(2, q - 1) * e
    m = n // 2
    if fam == "POmega+":
        return math.gcd(4, q**m - 1) * e * (6 if m == 4 else 2)
    return math.gcd(4, q**m + 1) * 2 * e


def aut_order(gid: GroupId) -> int:
    return group_order(gid) * _out_order(gid)


def p_prime_part(x: int, p: int) -> int:
    while x % p == 0:
        x //= p
    return x


class PrimeSet(NamedTuple):
    """The proven primes dividing a number, and an upper bound for how many
    more divide the cofactors factorize leaves unsplit (0: exact)."""

    primes: frozenset
    more: int = 0

    @property
    def count(self) -> int:
        """An upper bound for the number of primes, exact when more = 0."""
        return len(self.primes) + self.more


def _prime_set(values) -> PrimeSet:
    primes, more = set(), 0
    for v in values:
        f = nt.factorize(v)
        primes.update(p for p, _ in f.pairs)
        more += f.prime_count() - len(f.pairs)
    return PrimeSet(frozenset(primes), more)


def group_prime_set(gid: GroupId) -> PrimeSet:
    """The primes dividing |G0| (factoring the order piecewise, so huge
    orders stay within the factorization cap)."""
    return _prime_set([gid.p, *_order_factors(gid)[1]])


def aut_prime_set(gid: GroupId) -> PrimeSet:
    return _prime_set([gid.p, *_order_factors(gid)[1], _out_order(gid)])


def a_nq(gid: GroupId) -> float:
    """1 + log(A') / (log(log(A')) - 1.1714) with A' the p'-part of |Aut|.

    Dominates omega(|Aut(G0)|).  Rejects the two groups excluded from this
    machinery (PSL2(4) and PSL2(7)) and any id with A' < 26.
    """
    if gid.family == "PSL" and gid.n == 2 and gid.q in (4, 5, 7):
        # PSL2(4) = PSL2(5) and PSL2(7) are excluded outright
        raise ValueError(f"{gid} is excluded from the a(n,q) bound")
    # |Aut| = q**a * prod(pieces) / d * |Out|, and every piece is +-1 mod
    # p: the p'-part is read off the factors, not divided out of |Aut|
    _a, pieces, d = _order_factors(gid)
    part = math.prod(pieces) // d * p_prime_part(_out_order(gid), gid.p)
    if part < 26:
        raise ValueError(f"|Aut|_p' = {part} < 26 for {gid}")
    return 1 + nt.robin_bound(part)


# ---------------------------------------------------------------------------
# per-case constants

def mstar_msharp(gid: GroupId):
    """(m*, m#) controlling the subspace-action front factors."""
    fam = gid.family
    m = gid.m
    if fam == "PSp":
        return Fraction(m), Fraction(m - 1)
    if fam == "POmega+":
        return Fraction(m - 1), Fraction(m - 2)
    if fam == "POmega":
        return Fraction(m), Fraction(m - 1)
    if fam == "POmega-":
        return Fraction(m + 1), Fraction(m)
    if fam == "PSU":
        if gid.n % 2 == 0:
            return Fraction(2 * m - 1, 2), Fraction(m - 1)
        return Fraction(2 * m + 1, 2), Fraction(m)
    raise ValueError("m*/m# are undefined for PSL")


def _q0_pow(gid: GroupId, exponent: Fraction) -> int:
    """q0**exponent, exact (the exponent doubles for unitary groups)."""
    scaled = exponent * (2 if gid.family == "PSU" else 1)
    if scaled.denominator != 1:
        raise ValueError("non-integral exponent")
    return gid.q**scaled.numerator


def fprell_bound(case: str, gid: GroupId, ellp: int) -> Fraction:
    """Fixed-point-ratio bound for a semisimple element of prime order
    r coprime to e*p*(q0 - 1), in terms of l' = dim [V, x']; the S2 tails
    of cases i and ii read their ratios here."""
    if ellp < 2:
        raise ValueError("need l' >= 2")
    q0 = gid.q0
    fam = gid.family
    if case == "i":
        if fam in ("PSL", "PSp"):
            return Fraction(1, q0**ellp)
        return Fraction(2, q0**ellp)
    if case == "ii":
        if fam == "PSU":
            return Fraction(2, q0**ellp)
        if fam in _ORTHOGONAL:
            return Fraction(36, 13 * q0**ellp)
        raise ValueError(f"case ii undefined for {fam}")
    raise ValueError(f"no l'-bound for case {case!r}")


def casevi_fpr_bound(m: int, q: int, c: int, epsilon: str) -> Fraction:
    """Semisimple fixed-point-ratio bound on the polarizing-form domains
    of Sp_{2m}(q), q even, with c = dim C_V(x); case vi reads every ratio
    it uses here."""
    if m < 3:
        raise ValueError("need m >= 3")
    if q < 2 or q & (q - 1):
        raise ValueError("need q a power of 2")
    if not 0 <= c <= 2 * m:
        raise ValueError("need 0 <= c <= 2m")
    if epsilon not in ("+", "-"):
        raise ValueError("epsilon must be '+' or '-'")
    if c == 0 and epsilon == "-":
        return Fraction(4, q**m * (q**m - 1))
    return Fraction(4, q**(2 * m - c))


def generic_fpr_bound(q: int) -> Fraction:
    """4/(3q), the fixed-point-ratio bound of a classical group over GF(q)
    (amended in a few small families, see `_is_amended`)."""
    return Fraction(4, 3 * q)


# ---------------------------------------------------------------------------
# external tables

@dataclass(frozen=True)
class ExternalTables:
    """Pluggable per-group data from external computations, as typed by
    `load_external_tables`: ints `max_order` and `min_degree`, Fractions
    `amended_fpr` and `iota`.  Keys are "family:n:q"."""

    entries: dict = field(default_factory=dict)

    def get(self, gid: GroupId, name: str):
        """The named field of gid's entry, or None."""
        return self.entries.get(f"{gid.family}:{gid.n}:{gid.q}", {}).get(name)


def _is_int(value, least=None) -> bool:
    """value is a JSON integer (not a bool) and at least `least`."""
    return type(value) is int and (least is None or value >= least)


def _json_int(digits: str) -> int:
    """A JSON integer, read by `read_ints`, which takes no sign."""
    [value] = read_ints([digits.lstrip("-")])
    return -value if digits[0] == "-" else value


def load_external_tables(text: str) -> ExternalTables:
    """Parse and validate a tables file: an object of per-group objects,
    with integer `max_order`/`min_degree` >= 1 and each `*_num`/`*_den`
    pair given together as integers with den >= 1 (ValueError otherwise).
    Each entry keeps only what was checked: the two ints, and each pair
    as one Fraction under its stem; a bare "iota" key, say, is dropped.
    """
    try:
        data = json.loads(text, parse_int=_json_int)
    except RecursionError as exc:
        raise ValueError("external tables nest too deeply") from exc
    if not isinstance(data, dict) or not all(
            isinstance(entry, dict) for entry in data.values()):
        raise ValueError("external tables must be a JSON object of objects")
    entries = {}
    for key, entry in data.items():
        # None where absent, so that no pair stands in for either
        typed = {name: entry.get(name)
                 for name in ("max_order", "min_degree")}
        for name in typed:
            if name in entry and not _is_int(entry[name], 1):
                raise ValueError(f"{key}: {name} must be an integer >= 1")
        stems = {name[:-4] for name in entry
                 if name.endswith(("_num", "_den"))}
        for stem in sorted(stems):
            num, den = entry.get(stem + "_num"), entry.get(stem + "_den")
            if not (_is_int(num) and _is_int(den, 1)):
                raise ValueError(f"{key}: {stem}_num and {stem}_den must be "
                                 f"given together as integers, with "
                                 f"{stem}_den >= 1")
            typed.setdefault(stem, Fraction(num, den))
        entries[key] = typed
    return ExternalTables(entries)


# ---------------------------------------------------------------------------
# bound reports

@dataclass(frozen=True)
class BoundTerm:
    label: str
    value: Fraction


@dataclass(frozen=True)
class BoundReport:
    """The terms bounding S1 and S2, and what they imply, set once by
    __post_init__: their exact sums and the verdict, "certified" iff the
    total is < 1, else "inconclusive".  A delegated report has no terms;
    its verdict is "delegated-external"."""

    case: str
    group: GroupId
    s1_terms: tuple
    s2_terms: tuple
    refinements: tuple = ()
    note: str = ""
    delegated: bool = False
    s1_bound: Fraction = field(init=False, repr=False, compare=False)
    s2_bound: Fraction = field(init=False, repr=False, compare=False)
    total: Fraction = field(init=False, repr=False, compare=False)
    verdict: str = field(init=False, compare=False)

    def __post_init__(self):
        s1, s2 = self._total(self.s1_terms), self._total(self.s2_terms)
        total = s1 + s2
        object.__setattr__(self, "s1_terms", tuple(self.s1_terms))
        object.__setattr__(self, "s2_terms", tuple(self.s2_terms))
        object.__setattr__(self, "s1_bound", s1)
        object.__setattr__(self, "s2_bound", s2)
        object.__setattr__(self, "total", total)
        object.__setattr__(self, "verdict", (
            "delegated-external" if self.delegated
            else "certified" if total < 1 else "inconclusive"))

    @staticmethod
    def _total(terms):
        return sum((t.value for t in terms), Fraction(0))

    def to_json_dict(self):
        def term(t):
            return {"label": t.label, "value": float(t.value)}
        return {
            "schema": 2,
            "case": self.case,
            "group": str(self.group),
            "verdict": self.verdict,
            "s1_bound": float(self.s1_bound),
            "s2_bound": float(self.s2_bound),
            "total": float(self.total),
            "total_num": self.total.numerator,
            "total_den": self.total.denominator,
            "s1_terms": [term(t) for t in self.s1_terms],
            "s2_terms": [term(t) for t in self.s2_terms],
            "refinements": list(self.refinements),
            "note": self.note,
        }


# ---------------------------------------------------------------------------
# S2 tails

def _geom_weight_sum(q: int, start: int) -> Fraction:
    """sum_{l >= start} l / q**l, exact."""
    total = nt.weighted_geometric_sum(q)  # sum over l >= 0 (and l >= 1)
    for ell in range(1, start):
        total -= Fraction(ell, q**ell)
    return total


def _tail_terms(gid: GroupId, ratio, window):
    """Terms bounding sum_{l >= 2} ratio(l) * omega_t(t**l - 1), t = q0,
    where ratio(l) = k / t**l, with one k for every l, bounds the
    fixed-point ratio at l.

    For l in `window` with t**l within the factorization cap the exact
    primitive-prime-divisor count is used; every other l is bounded by
    omega_t(t**l - 1) <= l * log2(t) in the log tail.
    """
    t = gid.q0
    terms = []
    covered = Fraction(0)
    for ell in sorted(window):
        if ell < 2:
            raise ValueError("window entry below l = 2")
        if t**ell > nt.FACTOR_CAP:
            continue  # left to the log tail
        ppd = nt.primitive_prime_divisors(t, ell)
        count = ppd.prime_count()
        label = (f"exact ppd count at l={ell}: {count}" if ppd.exact
                 else f"ppd count at l={ell}: at most {count}")
        terms.append(BoundTerm(label, count * ratio(ell)))
        covered += Fraction(ell, t**ell)
    rest = _geom_weight_sum(t, 2) - covered
    terms.append(BoundTerm("log tail over remaining l >= 2",
                           ratio(2) * t**2 * nt.log2_upper(t) * rest))
    return terms


# ---------------------------------------------------------------------------
# per-case S1/S2

def _omega(f: nt.Factorization, name: str,
           exact: str = "exact ") -> tuple[int, str]:
    """(w, label) with w the number of primes of f and the label
    f"{exact}{name} = {w}"; when f leaves a cofactor unsplit, w is an
    upper bound and the label f"{name} at most {w}"."""
    w = f.prime_count()
    return w, (f"{exact}{name} = {w}" if f.exact else f"{name} at most {w}")


def _omega_front(gid: GroupId, arg: int, exact_up_to: int = 16):
    """(value, label) bounding the number of primes dividing `arg`:
    omega(arg) for q <= exact_up_to, an upper bound for log2(arg)
    beyond."""
    if gid.q <= exact_up_to:
        w, label = _omega(nt.factorize(arg), f"omega({arg})")
        return Fraction(w), label
    return nt.log2_upper(arg), f"log2({arg})"


def _s1_s2_case_i(gid: GroupId):
    n, q, p, e = gid.n, gid.q, gid.p, gid.e
    fam = gid.family
    if fam == "PSp":
        raise ValueError("all 1-subspaces of a symplectic space are "
                         "totally singular; certify via PSL instead")
    ratio = functools.partial(fprell_bound, "i", gid)
    if fam == "PSL":
        if n < 5:
            raise ValueError("case i linear pipeline needs n >= 5")
        front = min(generic_fpr_bound(q),
                    Fraction(1, q) + Fraction(1, q**(n - 1)))
        w, label = _omega(nt.factorize(e * p * (q - 1)), "omega(ep(q-1))",
                          exact="")
        s1 = [BoundTerm(f"{label} times front factor {front}", w * front)]
        return s1, _tail_terms(gid, ratio, window=())
    if fam == "PSU":
        arg = e * p * (q**2 - 1)
        if n == 5:
            if q <= 4:
                return None  # delegated
            wv, wl = _omega_front(gid, arg)
            s1 = [BoundTerm(f"{wl} times 4/(3q)", wv * generic_fpr_bound(q))]
            return s1, _tail_terms(gid, ratio, window=())
        if n < 6:
            raise ValueError("case i unitary pipeline needs n >= 5")
        ms, mh = mstar_msharp(gid)
        front = (Fraction(2, _q0_pow(gid, ms))
                 + Fraction(1, q**mh.numerator) + Fraction(1, q**2))
        wv, wl = _omega_front(gid, arg)
        s1 = [BoundTerm(f"{wl} times front factor {front}", wv * front)]
        return s1, _tail_terms(gid, ratio, window=(2, 3))
    # orthogonal
    if q == 2:
        return None  # delegated
    arg = e * p * (q - 1)
    ms, mh = mstar_msharp(gid)
    front = (Fraction(2, _q0_pow(gid, ms))
             + Fraction(1, _q0_pow(gid, mh)) + Fraction(1, q))
    wv, wl = _omega_front(gid, arg)
    s1 = [BoundTerm(f"{wl} times front factor {front}", wv * front)]
    return s1, _tail_terms(gid, ratio, window=(2, 3, 4, 5, 6))


def _unitary_ns1_front(gid: GroupId) -> Fraction:
    """Front factor f(n, q) for the unitary non-degenerate-point action."""
    n, q = gid.n, gid.q
    m = gid.m
    if n % 2 == 0:
        return (Fraction(2, q**(2 * (m - 2))) + Fraction(1, q**(2 * m - 1))
                + Fraction(1, q**(2 * (m - 1))) + Fraction(1, q**2))
    return (Fraction(2, q**(2 * m - 2)) + Fraction(1, q**(2 * m - 1))
            + Fraction(1, q**(2 * m)) + Fraction(1, q**2))


def _orthogonal_ns1_front(gid: GroupId) -> Fraction:
    """Front factor min(2/q0^m* + 2/q0^m# + 1/q, 4/(3q)) for the orthogonal
    non-degenerate-point action."""
    ms, mh = mstar_msharp(gid)
    return min(Fraction(2, _q0_pow(gid, ms)) + Fraction(2, _q0_pow(gid, mh))
               + Fraction(1, gid.q), generic_fpr_bound(gid.q))


def _s1_s2_case_ii(gid: GroupId):
    n, q, p, e = gid.n, gid.q, gid.p, gid.e
    fam = gid.family
    ratio = functools.partial(fprell_bound, "ii", gid)
    if fam == "PSU":
        if n == 5:
            if q <= 4:
                return None
            aut = aut_prime_set(gid)
            w = aut.count
            rel = "at most" if aut.more else "="
            s1 = [BoundTerm(f"omega(|Aut|) {rel} {w} times 4/(3q)",
                            w * generic_fpr_bound(q))]
            return s1, []
        if n < 6:
            raise ValueError("case ii unitary pipeline needs n >= 5")
        front = _unitary_ns1_front(gid)
        wv, wl = _omega_front(gid, e * p * (q**2 - 1))
        s1 = [BoundTerm(f"{wl} times front factor {front}", wv * front)]
        return s1, _tail_terms(gid, ratio, window=(2, 3))
    if fam not in _ORTHOGONAL:
        raise ValueError(f"case ii undefined for {fam}")
    if q == 2:
        return None
    front = _orthogonal_ns1_front(gid)
    wv, wl = _omega_front(gid, e * p * (q - 1), exact_up_to=5)
    s1 = [BoundTerm(f"{wl} times front factor {front}", wv * front)]
    return s1, _tail_terms(gid, ratio, window=(2, 3, 4, 5, 6))


def _inverse_sqrt_upper(x: int) -> Fraction:
    """An upper bound for x**(-1/2), exact when x is a perfect square."""
    return Fraction(1 << nt.LOG2_BITS, math.isqrt(x << 2 * nt.LOG2_BITS))


def _s1_s2_case_iv(gid: GroupId):
    n, q, p, e = gid.n, gid.q, gid.p, gid.e
    if gid.family not in _ORTHOGONAL:
        raise ValueError("case iv needs an orthogonal family")
    if q == 2:
        return None
    # f(n,q) = 3/q**(n/2-2) + 1/q**(n/2-1) + 1/q**2, rounded up for odd n
    f_nq = (3 * _inverse_sqrt_upper(q**(n - 4))
            + _inverse_sqrt_upper(q**(n - 2)) + Fraction(1, q**2))
    arg = e * p * (q**2 - 1)
    if q <= 9:
        w, label = _omega(nt.factorize(arg), f"omega({arg})")
        s1 = [BoundTerm(f"{label} times f(n,q) = {float(f_nq):.6g}",
                        w * f_nq)]
    else:
        s1 = [BoundTerm(f"log2(q^3) bound times f(n,q) = {float(f_nq):.6g}",
                        nt.log2_upper(q**3) * f_nq)]
    # semisimple classes here always have l >= 3, with ratios below
    # 4/q**(2l); the prime counts are bounded by l * log2(q)
    s2 = [BoundTerm("log tail over l >= 3 (base q^2)",
                    4 * nt.log2_upper(q) * _geom_weight_sum(q**2, 3))]
    return s1, s2


def _s1_s2_case_vi(gid: GroupId):
    n, q, p, e = gid.n, gid.q, gid.p, gid.e
    if gid.family != "PSp" or p != 2:
        raise ValueError("case vi needs PSp in characteristic 2")
    if n < 6:
        raise ValueError("case vi needs n >= 6")
    if q == 2:
        return None
    m = gid.m
    if e == 2:
        # primes dividing 2e(q-1) = 12 are {2, 3}; the unipotent class
        # contributes at most 4/(3q), the order-3 semisimple classes (with
        # dim [V, x] >= 2) at most 4/q**2
        s1 = [BoundTerm("unipotent prime: 4/(3q)", generic_fpr_bound(q)),
              BoundTerm("order-3 semisimple: 4/q^2",
                        casevi_fpr_bound(m, q, 2 * m - 2, "+"))]
    else:
        w, label = _omega(nt.factorize(2 * e * (q - 1)), "omega(2e(q-1))")
        s1 = [BoundTerm(f"{label} times 4/(3q)", w * generic_fpr_bound(q))]
    # a class with eigenvalue field degree l moves at least l dimensions
    s2 = _tail_terms(gid, lambda ell: casevi_fpr_bound(m, q, 2 * m - ell, "+"),
                     window=(2, 3, 4))
    if q**(2 * m) <= nt.FACTOR_CAP:
        ppd = nt.primitive_prime_divisors(q, 2 * m)
        fixed_free = ppd.prime_count()
        count = f"{fixed_free}" if ppd.exact else f"at most {fixed_free}"
    else:
        fixed_free = _ppd_count_bound(q, 2 * m)
        count = f"at most {fixed_free}"
    # the log tail counts these at 4/q^(2m), the plus domain's ratio
    s2.append(BoundTerm(
        f"fixed-point-free classes (l = 2m): {count} times the excess "
        f"4/(q^m(q^m-1)) - 4/q^(2m) over the log tail",
        fixed_free * (casevi_fpr_bound(m, q, 0, "-")
                      - casevi_fpr_bound(m, q, 0, "+"))))
    return s1, s2


def _ppd_count_bound(t: int, ell: int) -> int:
    """floor(log_{l+1}(t**l - 1)), an upper bound for the number of
    primitive prime divisors of t**l - 1: each is 1 mod l, so at least
    l + 1, and their product divides t**l - 1."""
    return nt.floor_log(t**ell - 1, ell + 1)


_S1S2 = {"i": _s1_s2_case_i, "ii": _s1_s2_case_ii,
         "iv": _s1_s2_case_iv, "vi": _s1_s2_case_vi}

_DELEGATION_NOTES = {
    "i": "resolved by external verification (cited in the sources)",
    "ii": "resolved by external verification (cited in the sources)",
    "iv": "q = 2 isometry-group case resolved externally",
    "vi": "q = 2 case resolved externally",
}


def _refine_case_ii_orthogonal(gid: GroupId):
    """Post-hoc refinement for the orthogonal non-degenerate-point action:
    exact omega(ep(q-1)) in S1, and in S2 each residual prime contributes
    at most fprell_bound("ii", gid, 2) = 36/(13 q^2) since l >= 2 always."""
    q, p, e = gid.q, gid.p, gid.e
    arg = e * p * (q - 1)
    f = nt.factorize(arg)
    group = group_prime_set(gid)
    residual = sorted(group.primes - {r for r, _ in f.pairs})
    more = f" and at most {group.more} more" if group.more else ""
    front = _orthogonal_ns1_front(gid)
    w, label = _omega(f, f"omega({arg})")
    refined = _omega(f, "omega(ep(q-1))")[1]
    s1 = [BoundTerm(f"{label} times front factor {front}", w * front)]
    s2 = [BoundTerm(
        f"residual primes {residual}{more}: each at most 36/(13q^2)",
        (len(residual) + group.more) * fprell_bound("ii", gid, 2))]
    refinements = (refined,
                   f"residual prime set {residual}{more} with l >= 2 each")
    return s1, s2, refinements


def certify_case(case: str, gid: GroupId,
                 tables: ExternalTables | None = None) -> BoundReport:
    """Evaluate the case pipeline and return a full report.

    Verdicts: "certified" (the exact bound total is < 1),
    "inconclusive", or "delegated-external" for the parameter ranges the
    sources resolve by direct computation or citation.
    """
    tables = tables or ExternalTables()
    if case == "iii":
        return _certify_case_iii(gid, tables)
    if case not in _S1S2:
        if case in ("v", "vii"):
            raise ValueError(
                f"case {case} has no closed-form pipeline; see the pair "
                f"domains (geometry.pair_domains) and the complement "
                f"count (line22_contradiction)")
        raise ValueError(f"unknown case {case!r}")
    pair = _S1S2[case](gid)
    if pair is None:
        return BoundReport(case, gid, (), (), note=_DELEGATION_NOTES[case],
                           delegated=True)
    report = BoundReport(case, gid, *pair)
    if (report.verdict == "certified"
            or not (case == "ii" and gid.family in _ORTHOGONAL)):
        return report
    refined = BoundReport(case, gid, *_refine_case_ii_orthogonal(gid))
    return refined if refined.verdict == "certified" else report


def _certify_case_iii(gid: GroupId, tables: ExternalTables) -> BoundReport:
    if gid.family == "PSL":
        raise ValueError("maximal totally singular subspaces need a form; "
                         "PSL is out of scope for case iii")
    m = gid.m
    o = tables.get(gid, "max_order")
    if o is None:
        # conservative default: element orders are below q0**n
        o = gid.q0**gid.n
        o_label = f"default max order q0^n = {o}"
    else:
        o_label = f"tabulated max order {o}"
    if m >= 3:
        ms, mh = mstar_msharp(gid)
        front = Fraction(2, _q0_pow(gid, ms)) + Fraction(1, _q0_pow(gid, mh))
        s1 = [BoundTerm(f"log2({o_label}) times (2/q0^m* + 1/q0^m#) "
                        f"= {front}", nt.log2_upper(o) * front)]
    elif gid.family == "PSU" and gid.n == 5:
        s1 = [BoundTerm(f"log2({o_label}) times 4/(3q)",
                        nt.log2_upper(o) * generic_fpr_bound(gid.q))]
    else:
        raise ValueError(f"case iii needs Witt index >= 3 (or PSU_5); "
                         f"{gid} has m = {m}")
    return BoundReport("iii", gid, s1, ())


def triality_bound(q: int) -> BoundReport:
    """Bound for the novelty point actions of POmega+_8(q) coming from
    triality: S <= omega(6ep(q^2-1)) * 4/(3q), exact."""
    gid = GroupId("POmega+", 8, q)
    p, e = gid.p, gid.e
    w, label = _omega(nt.factorize(6 * e * p * (q**2 - 1)),
                      "omega(6ep(q^2-1))", exact="")
    term = BoundTerm(f"{label} times 4/(3q)", w * generic_fpr_bound(q))
    return BoundReport("triality", gid, (term,), ())


def line22_contradiction(m: int, q: int) -> bool:
    """True iff the maximal element order bound q**(m+1)/(q-1) is smaller
    than the totally singular complement count q**(m(m-1)/2)."""
    if m < 1 or nt.prime_power(q) is None:
        raise ValueError("need m >= 1 and q a prime power")
    return q**(m + 1) < (q - 1) * q**(m * (m - 1) // 2)


# ---------------------------------------------------------------------------
# scans

def _scan(cells, test, q_max=None):
    """The groups a scan flags, sorted by (family, n, q).

    Each cell (family, n, q) walks q upward from its first q, to q_max if
    given; GroupId rejects a q that is not a prime power and a (family, n,
    q) with no group.  `test(gid)` returns True (flag), False (keep going)
    or None (a miss); a cell stops after three misses in a row.
    """
    flagged = []
    for family, n, q_first in cells:
        misses = 0
        for q in (itertools.count(q_first) if q_max is None
                  else range(q_first, q_max + 1)):
            try:
                gid = GroupId(family, n, q)
            except ValueError:
                continue  # not a prime power, or no such group
            result = test(gid)
            if result:
                flagged.append(gid)
            misses = misses + 1 if result is None else 0
            if misses == 3:
                break
    return sorted(flagged, key=lambda g: (FAMILIES.index(g.family),
                                          g.n, g.q))


# families where the generic 4/(3q) fixed-point bound is amended in the
# cited sources; no amended value is bundled, so the scan doubles the
# generic bound as a conservative stand-in (this only enlarges the set)
def _is_amended(family, n, q):
    return (family, n) == ("PSL", 2) or (family, n, q) in (
        ("PSL", 4, 2), ("PSU", 4, 2))


def small_dim_scan():
    """Classical groups of dimension <= 4 that the generic bound chain
    omega(|g|) <= omega(|Aut|) <= a(n,q) cannot certify.  Deterministic,
    sorted by (family, n, q)."""
    def test(gid):
        amended = _is_amended(gid.family, gid.n, gid.q)
        try:
            if (8 if amended else 4) * a_nq(gid) < 3 * gid.q:
                return None
        except ValueError:
            pass  # outside the machinery: cannot certify
        return amended or 4 * aut_prime_set(gid).count >= 3 * gid.q

    return _scan([("PSL", 2, 5), ("PSL", 3, 3), ("PSL", 4, 2),
                  ("PSU", 3, 3), ("PSU", 4, 2), ("PSp", 4, 4)], test)


def nonsubspace_scan(tables: ExternalTables | None = None):
    """Groups of dimension >= 5 that the non-subspace-action bound
    a(n,q) * t(n,q) < 1 cannot certify.

    t(n,q) = min(front fixed-point bound, m(G0)**(-1/2 + 1/n + iota));
    missing minimal-degree entries default to m(G0) = 1 and missing iota
    to 1/4, both of which only enlarge the flagged set.
    """
    tables = tables or ExternalTables()

    def test(gid):
        front = tables.get(gid, "amended_fpr") or generic_fpr_bound(gid.q)
        min_deg = tables.get(gid, "min_degree")
        if min_deg is None:
            class_term = 1.0
        else:
            iota = tables.get(gid, "iota")
            if iota is None:
                iota = Fraction(1, 4)
            class_term = min_deg ** float(-Fraction(1, 2)
                                          + Fraction(1, gid.n) + iota)
        try:
            a = a_nq(gid)
        except ValueError:
            return True
        return True if a * min(float(front), class_term) >= 1 else None

    return _scan([(family, n, 2) for family, ns in (
        ("PSL", range(5, 13)), ("PSU", range(5, 13)),
        ("PSp", range(6, 13, 2)), ("POmega", range(7, 12, 2)),
        ("POmega+", range(8, 13, 2)), ("POmega-", range(8, 13, 2)))
        for n in ns], test)


def dagger_scan(tables: ExternalTables | None = None):
    """Symplectic/orthogonal groups, q <= 16, whose maximal-totally-singular
    action case iii does not certify (default max order q^n unless
    tabulated)."""
    tables = tables or ExternalTables()

    def test(gid):
        return gid.m >= 3 and (_certify_case_iii(gid, tables).verdict
                               != "certified")

    return _scan([(family, n, 2) for family, ns in (
        ("PSp", range(6, 17, 2)), ("POmega", range(7, 16, 2)),
        ("POmega+", range(8, 17, 2)), ("POmega-", range(8, 17, 2)))
        for n in ns], test, q_max=16)
