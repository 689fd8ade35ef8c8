"""Exact integer factorization and the small counting/series facts used by
the bound pipeline.

Everything here is deterministic: trial division by the primes below 1000,
then a strong-pseudoprime test to the 13 prime bases up to 41, plus
Pollard-rho splitting with a fixed polynomial schedule.  No randomness, so
repeated runs factor an integer identically.  The primality test is proven
only for n < 3317044064679887385961981 (about 3.317e24; Sorenson and
Webster 2015); above that, up to FACTOR_CAP, a composite could in principle
pass it.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction

# Inputs are "desk scale" (at most around q**(2n) for small classical-group
# parameters); the cap just keeps runaway inputs from hanging a scan.
FACTOR_CAP = 1 << 128

# the primes below 1000, the one trial-division table
_SMALL_PRIMES = tuple(p for p in range(2, 1000)
                      if all(p % d for d in range(2, math.isqrt(p) + 1)))

LOG2_BITS = 32  # log2_upper returns multiples of 2**-LOG2_BITS

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
    for p in _MR_BASES:
        if n % p == 0:
            return n == p
    d = n - 1
    s = 0
    while d % 2 == 0:
        d //= 2
        s += 1
    for a in _MR_BASES:
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


def _trial_divide(n: int) -> tuple[dict[int, int], int]:
    """Divide the primes below 1000 out of n >= 1, stopping once p*p > n:
    ({p: e}, cofactor).  The cofactor is 1, a prime, or free of every prime
    below 1000."""
    factors: dict[int, int] = {}
    for p in _SMALL_PRIMES:
        if p * p > n:
            break
        while n % p == 0:
            factors[p] = factors.get(p, 0) + 1
            n //= p
    return factors, n


def factorize(n: int) -> Factorization:
    """Factor n >= 1 into prime powers; factorize(1) is the empty product.
    Trial division by the primes below 1000, then is_prime or Pollard rho
    on each cofactor left over."""
    if n < 1:
        raise ValueError(f"cannot factor {n}: need n >= 1")
    if n > FACTOR_CAP:
        raise OverflowError(f"{n} exceeds factorization cap 2**128")
    factors, n = _trial_divide(n)
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

    Trial division below 1000, which decides every q < 10**6.  Past that
    every prime factor of q exceeds 1000, so q = r**e needs e <=
    log_1000(q), and the exact integer e-th root for the largest such e
    decides, through is_prime(r).  Raises ValueError when that r is past
    the proven range of is_prime.  None for every q < 2.
    """
    if q < 2:
        return None
    small, rest = _trial_divide(q)
    if small:
        return small.popitem() if len(small) == 1 and rest == 1 else None
    if q < 1000 * 1000:
        return (q, 1)  # no prime factor up to its square root
    top = 1
    while 1000 ** (top + 1) <= q:
        top += 1
    for e in range(top, 0, -1):
        r = _iroot(q, e)
        if r**e == q:  # always for e = 1
            break
    # is_prime proves primality only below this bound
    if r >= 3317044064679887385961981:
        raise ValueError(f"cannot prove {r} prime: the primality test is "
                         "proven only below 3.317e24")
    return (r, e) if is_prime(r) else None


def _iroot(n: int, e: int) -> int:
    """The integer e-th root of n >= 1, rounded down (Newton's method)."""
    x = 1 << -(-n.bit_length() // e)  # above the root
    while True:
        y = ((e - 1) * x + n // x ** (e - 1)) // e
        if y >= x:
            return x
        x = y


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


def log2_upper(x: int) -> Fraction:
    """Upper bound for log2(x), x >= 1, in integers only: x <= 2**n * y
    with y in [1, 2] (top 64 bits, rounded up), then LOG2_BITS squarings
    rounded up, each square >= 2 halved for a 1 bit.  It exceeds log2(x)
    by at most 2**-LOG2_BITS + 2**-60."""
    if x < 1:
        raise ValueError(f"log2_upper needs x >= 1, got {x}")
    n = x.bit_length() - 1
    y = -(-x >> (n - 63)) if n > 63 else x << (63 - n)  # y / 2**63
    bits = 0
    for _ in range(LOG2_BITS):
        y = -(-y * y >> 63)
        bits <<= 1
        if y >= 1 << 64:
            y = (y + 1) >> 1
            bits |= 1
    return n + Fraction(bits + 1, 1 << LOG2_BITS)


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
