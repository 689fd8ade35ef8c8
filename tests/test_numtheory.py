"""Oracle tests for factorization, omega, and the two analytic bounds."""

import math
from decimal import Decimal, localcontext
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from regcycles import numtheory as nt


def sieve_omega(limit):
    """Independent oracle: omega(n) for all n < limit by a sieve."""
    w = [0] * limit
    for p in range(2, limit):
        if w[p] == 0:  # p prime: no smaller prime divided it
            for k in range(p, limit, p):
                w[k] += 1
    return w


def primes_between(lo, hi):
    """Independent oracle: the primes in (lo, hi), by a sieve."""
    sieve = bytearray([1]) * hi
    sieve[:2] = b"\0\0"
    for p in range(2, math.isqrt(hi - 1) + 1):
        if sieve[p]:
            sieve[p * p::p] = bytes(len(range(p * p, hi, p)))
    return [p for p in range(lo + 1, hi) if sieve[p]]


class TestFactorize:
    def test_one_is_empty_product(self):
        assert nt.factorize(1).pairs == ()

    def test_twelve(self):
        assert nt.factorize(12).pairs == ((2, 2), (3, 1))

    def test_sixty_three(self):
        # 2**6 - 1 = 63 = 3**2 * 7
        assert nt.factorize(63).pairs == ((3, 2), (7, 1))

    def test_rejects_zero(self):
        with pytest.raises(ValueError):
            nt.factorize(0)

    def test_rejects_over_cap(self):
        with pytest.raises(OverflowError):
            nt.factorize(nt.FACTOR_CAP + 1)

    def test_large_semiprime(self):
        p, q = 1000003, 1000033
        assert nt.factorize(p * q).pairs == ((p, 1), (q, 1))

    def test_prime_cofactor_above_the_trial_limit(self):
        p = 10**12 + 39  # prime
        assert nt.factorize(6 * p).pairs == ((2, 1), (3, 1), (p, 1))

    def test_square_of_the_largest_trial_prime(self):
        assert nt.factorize(999983**2).pairs == ((999983, 2),)

    def test_small_inputs_leave_the_prime_table_unbuilt(self):
        # trial division ends at 997, the last prime below 1000
        assert nt.factorize(2**5 * 991 * 997).pairs == \
            ((2, 5), (991, 1), (997, 1))

    @pytest.mark.parametrize("pairs", [
        ((1009, 5),), ((997, 1), (1009, 3)), ((1009, 1), (1013, 1), (1019, 1)),
    ])
    def test_primes_just_past_the_trial_table(self, pairs):
        n = math.prod(p**e for p, e in pairs)
        assert nt.factorize(n).pairs == pairs

    @given(st.lists(st.sampled_from(primes_between(1000, 10**6)),
                    min_size=1, max_size=4))
    @settings(max_examples=200, deadline=None)
    def test_products_of_primes_between_1000_and_10_to_6(self, primes):
        # trial division stops at 997, so rho alone splits these
        expected = tuple((p, primes.count(p)) for p in sorted(set(primes)))
        assert nt.factorize(math.prod(primes)).pairs == expected

    @given(st.integers(min_value=1, max_value=10**12))
    @settings(max_examples=200, deadline=None)
    def test_reconstruction(self, n):
        f = nt.factorize(n)
        assert f.value == n
        primes = f.primes()
        assert list(primes) == sorted(primes)
        assert len(set(primes)) == len(primes)


class TestPrimePower:
    def test_against_smallest_prime_factor_sieve(self):
        limit = 2**16 + 1
        spf = list(range(limit))
        for p in range(2, math.isqrt(limit) + 1):
            if spf[p] == p:
                for k in range(p * p, limit, p):
                    if spf[k] == k:
                        spf[k] = p
        for q in range(-5, limit):
            expected = None
            if q >= 2:
                p, e, m = spf[q], 0, q
                while m % p == 0:
                    m //= p
                    e += 1
                expected = (p, e) if m == 1 else None
            assert nt.prime_power(q) == expected, q

    def test_large_prime(self):
        assert nt.prime_power(100000007) == (100000007, 1)

    def test_agrees_with_trial_division_to_the_square_root(self):
        def trial_division(q):
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

        # and across 10**6, where trial division stops deciding alone
        for q in [*range(-3, 2 * 10**5), *range(10**6 - 10**4, 10**6 + 10**4)]:
            assert nt.prime_power(q) == trial_division(q), q

    def test_large_inputs_take_integer_roots(self):
        assert nt.prime_power(10**18 + 3) == (10**18 + 3, 1)
        assert nt.prime_power((10**9 + 7)**2) == (10**9 + 7, 2)
        assert nt.prime_power(1009**5) == (1009, 5)
        assert nt.prime_power(1009 * 1013) is None
        assert nt.prime_power(1009**4 * 1013) is None

    def test_refuses_roots_past_the_proven_primality_range(self):
        with pytest.raises(ValueError, match="proven only below"):
            nt.prime_power(2**89 - 1)  # a Mersenne prime, about 6.2e26


class TestOmega:
    def test_small_values(self):
        assert nt.omega(1) == 0
        assert nt.omega(26) == 2
        assert nt.omega(210) == 4  # 2*3*5*7

    def test_against_sieve(self):
        w = sieve_omega(3000)
        for n in range(1, 3000):
            assert nt.omega(n) == w[n]


class TestRobinBound:
    def test_rejects_below_26(self):
        with pytest.raises(ValueError):
            nt.robin_bound(25)

    def test_at_26(self):
        assert nt.robin_bound(26) > 2

    def test_720720(self):
        # omega(720720) = 6 (2,3,5,7,11,13)
        assert nt.omega(720720) == 6
        assert nt.robin_bound(720720) >= 6

    def test_sweep_to_million(self):
        # omega(n) <= log n / (log log n - 1.1714) for all 26 <= n < 10**6
        w = sieve_omega(10**6)
        for n in range(26, 10**6):
            assert w[n] <= math.log(n) / (math.log(math.log(n)) - 1.1714)


class TestPrimitivePrimeDivisors:
    def test_known_counts(self):
        assert nt.primitive_prime_divisor_count(4, 2) == 1   # 15 -> {5}
        assert nt.primitive_prime_divisor_count(3, 2) == 0   # 8: 2 | 3-1
        # 2**6 - 1 = 63 = 3**2 * 7 with 3 | 2**2-1 and 7 | 2**3-1: the
        # classical exceptional case with no primitive prime divisor at all.
        assert nt.primitive_prime_divisor_count(2, 6) == 0
        assert nt.primitive_prime_divisor_count(4, 3) == 1   # 63 -> {7}

    @given(st.integers(min_value=2, max_value=16),
           st.integers(min_value=1, max_value=12))
    @settings(max_examples=150, deadline=None)
    def test_flagged_primes_definition(self, t, ell):
        count = nt.primitive_prime_divisor_count(t, ell)
        assert count <= nt.omega(t**ell - 1) if t**ell > 2 else count == 0
        # recompute from the definition, prime by prime
        expected = 0
        for r in nt.factorize(t**ell - 1).primes():
            if all((t**i - 1) % r for i in range(1, ell)):
                expected += 1
        assert count == expected


class TestWeightedGeometricSum:
    def test_exact_values(self):
        assert nt.weighted_geometric_sum(2) == 2
        assert nt.weighted_geometric_sum(3) == Fraction(3, 4)

    def test_identity(self):
        for q in range(2, 40):
            assert nt.weighted_geometric_sum(q) * (q - 1) ** 2 == q

    def test_partial_sum_oracle(self):
        partial = sum(Fraction(ell, 2**ell) for ell in range(61))
        assert abs(nt.weighted_geometric_sum(2) - partial) < Fraction(1, 2**50)


def log2_oracle(x):
    """log2(x) to 60 significant digits, by the decimal module."""
    with localcontext() as ctx:
        ctx.prec = 60
        return Decimal(x).ln() / Decimal(2).ln()


def as_decimal(frac):
    with localcontext() as ctx:
        ctx.prec = 60
        return Decimal(frac.numerator) / Decimal(frac.denominator)


class TestLog2Upper:
    # the oracle is accurate to about 1e-57 here; x = 2**k - 1 sits closer
    # than that below k, the bound those inputs get
    ORACLE_SLACK = Decimal("1e-50")

    @given(st.one_of(st.integers(min_value=1, max_value=2**400),
                     st.integers(min_value=0, max_value=400).map(
                         lambda k: 2**k),
                     st.integers(min_value=1, max_value=400).map(
                         lambda k: 2**k - 1)))
    @settings(max_examples=400, deadline=None)
    def test_upper_bound_within_2_to_minus_30(self, x):
        bound = nt.log2_upper(x)
        assert isinstance(bound, Fraction)
        excess = as_decimal(bound) - log2_oracle(x)
        assert excess >= -self.ORACLE_SLACK, x
        assert excess <= Decimal(2) ** -30, x

    def test_powers_of_two(self):
        for k in range(0, 200):
            assert k < nt.log2_upper(2**k) <= k + Fraction(1, 2**30)

    def test_rejects_below_one(self):
        for x in (0, -5):
            with pytest.raises(ValueError):
                nt.log2_upper(x)
