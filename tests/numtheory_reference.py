"""The full-factorization primitive-prime-divisor count, as the tests' oracle.

The library counts the primitive prime divisors of t**ell - 1 from the
cyclotomic value Phi_ell(t) alone (`numtheory.primitive_prime_divisors`).
The function here is the direct definition it replaced: factor all of
t**ell - 1 and keep each prime that divides no t**i - 1 with i < ell.
"""

from regcycles.numtheory import FACTOR_CAP, factorize


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
