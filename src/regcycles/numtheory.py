"""Exact integer factorization and the small counting/series facts used by
the bound pipeline.

Everything here is deterministic: trial division by the primes below 1000,
then a primality proof or Brent's variant of Pollard rho (BIT 1980) on each
cofactor, with the fixed polynomials x*x + c, c = 1, 2, ..., and a fixed
step budget, so repeated runs factor an integer identically and no input
can hang.  Primality is always proven: the strong-pseudoprime test to the
13 prime bases up to 41 is a proof below 3317044064679887385961981 (about
3.317e24; Sorenson and Webster 2015), and at or above that a number that
passes it is taken as prime only with a Brillhart-Lehmer-Selfridge n - 1
proof built from factorize itself.  A cofactor that is neither proven
prime nor split within the budget is kept whole in
`Factorization.unsplit` and counted as at most floor(log m / log 1000)
primes, since none of its prime factors is below 1000.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from itertools import combinations

# Inputs are "desk scale" (at most around q**(2n) for small classical-group
# parameters); the cap just keeps runaway inputs from hanging a scan.
FACTOR_CAP = 1 << 128


def _primes_below(n: int) -> tuple[int, ...]:
    """The primes below n, by the sieve of Eratosthenes."""
    sieve = bytearray([1]) * n
    sieve[:2] = b"\0\0"
    for p in range(2, math.isqrt(n - 1) + 1):
        if sieve[p]:
            sieve[p * p::p] = bytes(len(range(p * p, n, p)))
    return tuple(i for i, flag in enumerate(sieve) if flag)


# the primes below 1000, the one trial-division table
_SMALL_PRIMES = _primes_below(1000)

LOG2_BITS = 32  # log2_upper returns multiples of 2**-LOG2_BITS

# Witnesses proving strong-pseudoprime compositeness for every n below
# _MR_PROVEN_BELOW (standard deterministic Miller-Rabin base set).
_MR_BASES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41)
_MR_PROVEN_BELOW = 3317044064679887385961981

# Steps x -> x*x + c that one _pollard_rho call may take over all its
# polynomials (about 2 s at 128 bits): it splits a product of two primes
# near 10**12 and gives up on two primes near 2**64.
RHO_BUDGET = 1 << 22
_RHO_BLOCK = 128  # differences multiplied together before each gcd


@dataclass(frozen=True)
class Factorization:
    """Prime factorization as (prime, exponent) pairs, primes ascending,
    times the cofactors in `unsplit` (ascending, repeats kept): each is
    free of the primes below 1000 and was neither proven prime nor split.
    It is exact when `unsplit` is empty."""

    pairs: tuple[tuple[int, int], ...]
    unsplit: tuple[int, ...] = ()

    @property
    def value(self) -> int:
        n = math.prod(self.unsplit)
        for p, e in self.pairs:
            n *= p**e
        return n

    @property
    def exact(self) -> bool:
        return not self.unsplit

    def prime_count(self) -> int:
        """The number of distinct primes, or an upper bound for it when a
        cofactor m is unsplit: at most floor(log m / log 1000) primes each,
        since all their prime factors exceed 1000."""
        return len(self.pairs) + sum(floor_log(m, 1000)
                                     for m in set(self.unsplit))

    def primes(self) -> tuple[int, ...]:
        if self.unsplit:
            raise ArithmeticError(f"cannot factor {self.unsplit[0]} within "
                                  "the rho budget or prove it prime")
        return tuple(p for p, _ in self.pairs)


def floor_log(n: int, b: int) -> int:
    """The largest k with b**k <= n (0 when n < b); integers only."""
    k, power = 0, b
    while power <= n:
        k += 1
        power *= b
    return k


def _strong_probable_prime(n: int) -> bool:
    """The strong-pseudoprime test to the bases 2..41: a proof of primality
    for n < 3.317e24 (Sorenson-Webster), only probable above that."""
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


def is_prime(n: int) -> bool:
    """True iff n is proven prime: by the strong-pseudoprime test below
    3.317e24, and at or above that by the test and an n - 1 proof.  A
    prime whose n - 1 cannot be factored far enough reads False."""
    if not _strong_probable_prime(n):
        return False
    return n < _MR_PROVEN_BELOW or _n_minus_1_proof(n)


def _n_minus_1_proof(n: int) -> bool:
    """Brillhart-Lehmer-Selfridge (1975), Theorem 4 with F**2 > n, for odd
    n > 41.  Let F be the part of n - 1 that factorize splits into proven
    primes.  If each prime r | F has a base a with a**(n-1) = 1 (mod n)
    and gcd(a**((n-1)/r) - 1, n) = 1, then every prime factor of n is
    1 mod F, so F**2 > n makes n prime.  False when no such proof is
    found: n composite, or F too small, or no base among the 13 works."""
    f = factorize(n - 1)
    part = math.prod(p**e for p, e in f.pairs)
    if part * part <= n:
        return False
    for r, _ in f.pairs:
        for a in _MR_BASES:
            if pow(a, n - 1, n) != 1:
                return False  # n is composite
            if math.gcd(pow(a, (n - 1) // r, n) - 1, n) == 1:
                break
        else:
            return False
    return True


def _pollard_rho(n: int) -> int | None:
    """A nontrivial factor of the odd composite n, or None once RHO_BUDGET
    steps are spent.  Brent's variant of Pollard rho: x runs along x*x + c
    from 2 with c = 1, 2, ...; the distances of the current point y from
    the saved point x, in rounds of doubling length r, are multiplied in
    blocks of _RHO_BLOCK, with one gcd per block.  A block whose gcd is n
    is stepped through again one gcd at a time; if that gives n too, the
    next c is tried.  Each round is charged 2r steps before it starts."""
    budget = RHO_BUDGET
    c = 0
    while True:
        c += 1
        y, r, prod, g = 2, 1, 1, 1
        while g == 1:
            if 2 * r > budget:
                return None
            budget -= 2 * r
            x = y
            for _ in range(r):
                y = (y * y + c) % n
            k = 0
            while k < r and g == 1:
                ys = y
                for _ in range(min(_RHO_BLOCK, r - k)):
                    y = (y * y + c) % n
                    prod = prod * abs(x - y) % n
                g = math.gcd(prod, n)
                k += _RHO_BLOCK
            r *= 2
        if g == n:
            g = 1
            while g == 1:
                ys = (ys * ys + c) % n
                g = math.gcd(abs(x - ys), n)
        if g != n:
            return g


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
    on each cofactor left over; a cofactor rho cannot split within its
    budget goes to `unsplit`."""
    if n < 1:
        raise ValueError(f"cannot factor {n}: need n >= 1")
    if n > FACTOR_CAP:
        raise OverflowError(f"{n} exceeds factorization cap 2**128")
    factors, n = _trial_divide(n)
    unsplit = []
    stack = [n] if n > 1 else []
    while stack:
        m = stack.pop()
        if is_prime(m):
            factors[m] = factors.get(m, 0) + 1
            continue
        d = _pollard_rho(m)
        if d is None:
            unsplit.append(m)
        else:
            stack += (d, m // d)
    return Factorization(tuple(sorted(factors.items())),
                         tuple(sorted(unsplit)))


def prime_power(q: int) -> tuple[int, int] | None:
    """(p, e) with q == p**e and p prime, or None if q is not a prime power.

    Trial division below 1000, which decides every q < 10**6.  Past that
    every prime factor of q exceeds 1000, so q = r**e needs e <=
    log_1000(q), and the exact integer e-th root for the largest such e
    decides, through is_prime(r), which proves r prime at any size (past
    3.317e24 with its n - 1 test).  Raises OverflowError when that test
    needs to factor an r - 1 past FACTOR_CAP.  None for every q < 2.
    """
    if q < 2:
        return None
    small, rest = _trial_divide(q)
    if small:
        return small.popitem() if len(small) == 1 and rest == 1 else None
    if q < 1000 * 1000:
        return (q, 1)  # no prime factor up to its square root
    for e in range(floor_log(q, 1000), 0, -1):
        r = _iroot(q, e)
        if r**e == q:  # always for e = 1
            break
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
    """Number of distinct prime divisors of n (omega(1) = 0), or an upper
    bound for it when factorize leaves a cofactor unsplit."""
    return factorize(n).prime_count()


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


def primitive_prime_divisors(t: int, ell: int) -> Factorization:
    """The factorization of the primitive part of t**ell - 1: its primes
    are exactly the primes dividing t**ell - 1 but no t**i - 1 with
    i < ell.  That part is the cyclotomic value
    Phi_ell(t) = prod over d | ell of (t**d - 1)**mu(ell/d) with the primes
    of ell divided out, since a prime r divides t**ell - 1 primitively iff
    r | Phi_ell(t) and r does not divide ell.  mu is read off one trial
    division of ell.  The t**ell cap test is the one on t**ell - 1."""
    if t < 2 or ell < 1:
        raise ValueError("need t >= 2 and ell >= 1")
    if t**ell > FACTOR_CAP:
        raise OverflowError(f"{t}**{ell} exceeds factorization cap")
    small, rest = _trial_divide(ell)  # ell < 1000**2, so rest is 1 or prime
    ell_primes = [*small, rest] if rest > 1 else list(small)
    num = den = 1
    for k in range(len(ell_primes) + 1):
        for s in combinations(ell_primes, k):
            if k % 2:
                den *= t ** (ell // math.prod(s)) - 1
            else:
                num *= t ** (ell // math.prod(s)) - 1
    phi = num // den
    for r in ell_primes:
        while phi % r == 0:
            phi //= r
    return factorize(phi)


def primitive_prime_divisor_count(t: int, ell: int) -> int:
    """Number of primes dividing t**ell - 1 but no t**i - 1 with i < ell,
    or an upper bound for it when a cofactor of the primitive part is left
    unsplit (see primitive_prime_divisors)."""
    return primitive_prime_divisors(t, ell).prime_count()


def weighted_geometric_sum(q: int) -> Fraction:
    """Exact value q/(q-1)**2 of the series sum_{l>=0} l * q**(-l)."""
    if q < 2:
        raise ValueError(f"need q >= 2, got {q}")
    return Fraction(q, (q - 1) ** 2)
