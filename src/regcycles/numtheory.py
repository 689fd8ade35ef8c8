"""Exact integer factorization and the small counting/series facts used by
the bound pipeline.

Everything here is deterministic: trial division up to a fixed limit, then a
strong-pseudoprime test to the 13 prime bases up to 41, plus Pollard-rho
splitting with a fixed polynomial schedule.  No randomness, so repeated runs
factor an integer identically.  The primality test is proven only for
n < 3317044064679887385961981 (about 3.317e24; Sorenson and Webster 2015);
above that, up to FACTOR_CAP, a composite could in principle pass it.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction

# Inputs are "desk scale" (at most around q**(2n) for small classical-group
# parameters); the cap just keeps runaway inputs from hanging a scan.
FACTOR_CAP = 1 << 128

_TRIAL_LIMIT = 10**6

# Witnesses proving strong-pseudoprime compositeness for every n < 3.3e24
# (standard deterministic Miller-Rabin base set).
_MR_BASES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41)


@dataclass(frozen=True)
class Factorization:
    """Prime factorization as (prime, exponent) pairs, primes ascending."""

    pairs: tuple[tuple[int, int], ...]

    def __post_init__(self):
        last = 1
        for p, e in self.pairs:
            if p <= last or e < 1:
                raise ValueError("pairs must have strictly increasing primes "
                                 "and positive exponents")
            if not is_prime(p):
                raise ValueError(f"{p} is not prime")
            last = p

    @property
    def value(self) -> int:
        n = 1
        for p, e in self.pairs:
            n *= p**e
        return n

    def primes(self) -> tuple[int, ...]:
        return tuple(p for p, _ in self.pairs)

    def __iter__(self):
        return iter(self.pairs)

    def __len__(self):
        return len(self.pairs)


def is_prime(n: int) -> bool:
    """Strong-pseudoprime test to the bases 2..41: a proof of primality for
    n < 3.317e24 (Sorenson-Webster), only probable above that."""
    if n < 2:
        return False
    for p in (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37):
        if n % p == 0:
            return n == p
    d = n - 1
    s = 0
    while d % 2 == 0:
        d //= 2
        s += 1
    for a in _MR_BASES:
        if a % n == 0:
            continue
        x = pow(a, d, n)
        if x == 1 or x == n - 1:
            continue
        for _ in range(s - 1):
            x = x * x % n
            if x == n - 1:
                break
        else:
            return False
    return True


def _pollard_rho(n: int) -> int:
    """Find a nontrivial factor of odd composite n (deterministic schedule)."""
    if n % 2 == 0:
        return 2
    for c in range(1, 100):
        x = y = 2
        d = 1
        while d == 1:
            x = (x * x + c) % n
            y = (y * y + c) % n
            y = (y * y + c) % n
            d = math.gcd(abs(x - y), n)
        if d != n:
            return d
    raise ArithmeticError(f"rho schedule exhausted on {n}")  # pragma: no cover


def factorize(n: int) -> Factorization:
    """Factor n >= 1 into prime powers.  factorize(1) is the empty product."""
    if n < 1:
        raise ValueError(f"cannot factor {n}: need n >= 1")
    if n > FACTOR_CAP:
        raise OverflowError(f"{n} exceeds factorization cap 2**128")
    factors: dict[int, int] = {}
    for p in range(2, _TRIAL_LIMIT):
        if p * p > n:
            break
        while n % p == 0:
            factors[p] = factors.get(p, 0) + 1
            n //= p
    stack = [n] if n > 1 else []
    while stack:
        m = stack.pop()
        if m == 1:
            continue
        if is_prime(m):
            factors[m] = factors.get(m, 0) + 1
            continue
        d = _pollard_rho(m)
        stack.append(d)
        stack.append(m // d)
    return Factorization(tuple(sorted(factors.items())))


def prime_power(q: int) -> tuple[int, int] | None:
    """(p, e) with q == p**e and p prime, or None if q is not a prime power.

    Exact trial division up to isqrt(q); None for every q < 2.
    """
    if q < 2:
        return None
    for p in range(2, math.isqrt(q) + 1):
        if q % p == 0:
            e = 0
            while q % p == 0:
                q //= p
                e += 1
            return (p, e) if q == 1 else None
    return (q, 1)


def omega(n: int) -> int:
    """Number of distinct prime divisors of n (omega(1) = 0)."""
    return len(factorize(n))


def robin_bound(n: int) -> float:
    """Upper bound log(n) / (log(log(n)) - 1.1714) for omega(n), n >= 26.

    Natural logarithms.  For n < 26 the denominator is not guaranteed
    positive, so such inputs are rejected.
    """
    if n < 26:
        raise ValueError(f"robin_bound needs n >= 26, got {n}")
    return math.log(n) / (math.log(math.log(n)) - 1.1714)


def primitive_prime_divisor_count(t: int, ell: int) -> int:
    """Number of primes dividing t**ell - 1 but no t**i - 1 with i < ell."""
    if t < 2 or ell < 1:
        raise ValueError("need t >= 2 and ell >= 1")
    if t**ell > FACTOR_CAP:
        raise OverflowError(f"{t}**{ell} exceeds factorization cap")
    count = 0
    for r in factorize(t**ell - 1).primes():
        if all((t**i - 1) % r != 0 for i in range(1, ell)):
            count += 1
    return count


def weighted_geometric_sum(q: int) -> Fraction:
    """Exact value q/(q-1)**2 of the series sum_{l>=0} l * q**(-l)."""
    if q < 2:
        raise ValueError(f"need q >= 2, got {q}")
    return Fraction(q, (q - 1) ** 2)
