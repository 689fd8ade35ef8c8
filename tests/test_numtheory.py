"""Oracle tests for factorization, omega, and the two analytic bounds."""

import json
import math
import time
from decimal import Decimal, localcontext
from fractions import Fraction

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from regcycles import numtheory as nt
from regcycles.cli import main

import numtheory_reference as ref
from test_certify_pool import load_pool_module

# the least strong pseudoprimes to the prime bases up to 37 and up to 41
PSI_12 = 318665857834031151167461  # 399165290221 * 798330580441
PSI_13 = 3317044064679887385961981  # 1287836182261 * 2575672364521


@pytest.fixture(scope="module", autouse=True)
def factorize_returns_proven_primes():
    """Every prime that factorize returns in these tests passes is_prime
    (Factorization itself no longer re-tests them)."""
    factorize = nt.factorize

    def checked(n):
        f = factorize(n)
        assert all(nt.is_prime(p) for p, _ in f.pairs), n
        return f

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(nt, "factorize", checked)
        yield


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

    def test_trial_table_is_the_168_primes_below_1000(self):
        # the sieve's table against trial division by every smaller integer
        by_trial = tuple(p for p in range(2, 1000)
                         if all(p % d for d in range(2, p)))
        assert nt._SMALL_PRIMES == by_trial
        assert len(nt._SMALL_PRIMES) == 168 and nt._SMALL_PRIMES[-1] == 997

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
    @settings(max_examples=200)
    def test_products_of_primes_between_1000_and_10_to_6(self, primes):
        # trial division stops at 997, so rho alone splits these
        expected = tuple((p, primes.count(p)) for p in sorted(set(primes)))
        assert nt.factorize(math.prod(primes)).pairs == expected

    @given(st.integers(min_value=1, max_value=10**12))
    @settings(max_examples=200)
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

    def test_proves_roots_past_the_strong_pseudoprime_range(self):
        # a Mersenne prime, about 6.2e26: is_prime proves it with n - 1
        assert nt.prime_power(2**89 - 1) == (2**89 - 1, 1)
        assert nt.prime_power((2**89 - 1)**2) == (2**89 - 1, 2)

    def test_rejects_the_least_strong_pseudoprime_to_the_13_bases(self):
        # psi_13 = 3317044064679887385961981 is composite and passes the
        # strong-pseudoprime test to every base up to 41
        psi13 = 3317044064679887385961981
        assert nt._strong_probable_prime(psi13)
        assert nt.prime_power(psi13) is None


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
    @settings(max_examples=150)
    def test_flagged_primes_definition(self, t, ell):
        count = nt.primitive_prime_divisor_count(t, ell)
        assert count <= nt.omega(t**ell - 1) if t**ell > 2 else count == 0
        # recompute from the definition, prime by prime
        expected = 0
        for r in nt.factorize(t**ell - 1).primes():
            if all((t**i - 1) % r for i in range(1, ell)):
                expected += 1
        assert count == expected


    def test_pool_pairs_match_the_full_factorization_oracle(self,
                                                            monkeypatch,
                                                            capsys):
        # every (t, l) that a certify pool entry asks about
        pool = load_pool_module()
        seen = set()
        divisors = nt.primitive_prime_divisors

        def recording(t, ell):
            seen.add((t, ell))
            return divisors(t, ell)

        monkeypatch.setattr(nt, "primitive_prime_divisors", recording)
        for entry in pool.load():
            main(pool.argv(entry))
        capsys.readouterr()
        monkeypatch.undo()
        assert len(seen) == 844
        for t, ell in sorted(seen):
            assert nt.primitive_prime_divisors(t, ell).exact, (t, ell)
            assert nt.primitive_prime_divisor_count(t, ell) == \
                ref.primitive_prime_divisor_count(t, ell), (t, ell)

    @given(st.integers(min_value=2, max_value=2**20),
           st.integers(min_value=1, max_value=30))
    @settings(max_examples=150)
    def test_cyclotomic_count_matches_the_oracle(self, t, ell):
        if t**ell > 2**64:
            ell = max(1, 64 // t.bit_length())
        assert nt.primitive_prime_divisor_count(t, ell) == \
            ref.primitive_prime_divisor_count(t, ell)

    def test_rejects_past_the_cap_on_t_to_the_l(self):
        with pytest.raises(OverflowError):
            nt.primitive_prime_divisor_count(2, 129)
        assert nt.primitive_prime_divisor_count(2, 128) == \
            ref.primitive_prime_divisor_count(2, 128)


def semiprimes(lo_digits, hi_digits):
    """p * q for primes p <= q drawn from [10**lo, 10**hi)."""
    prime = st.integers(min_value=10**lo_digits,
                        max_value=10**hi_digits - 1).map(next_prime)
    return st.tuples(prime, prime).map(sorted)


def next_prime(n):
    while not nt.is_prime(n):
        n += 1
    return n


class TestBrentRho:
    @given(semiprimes(3, 12))
    @example([1009, 999999999989])
    @example([999999999961, 999999999989])  # the two largest below 10**12
    @example([999999999989, 999999999989])
    @settings(max_examples=25)
    def test_splits_semiprimes_deterministically(self, pq):
        p, q = pq
        d = nt._pollard_rho(p * q)
        assert d in (p, q)
        assert nt._pollard_rho(p * q) == d
        assert nt.factorize(p * q).value == p * q

    @given(semiprimes(3, 7))
    @settings(max_examples=100)
    def test_factorize_reconstructs_small_semiprimes(self, pq):
        p, q = pq
        f = nt.factorize(p * q)
        assert f.exact and f.value == p * q
        assert f.primes() == tuple(sorted({p, q}))

    def test_two_primes_near_2_to_64_use_up_the_budget(self):
        p, q = 2**64 - 59, 2**64 - 83
        assert nt.is_prime(p) and nt.is_prime(q)
        start = time.perf_counter()
        f = nt.factorize(p * q)
        assert time.perf_counter() - start < 10
        assert f.pairs == () and f.unsplit == (p * q,)
        assert not f.exact and f.value == p * q
        # no prime factor below 1000, so at most floor(log_1000(p*q))
        assert nt.omega(p * q) == f.prime_count() == 12
        with pytest.raises(ArithmeticError):
            f.primes()


class TestProvenPrimality:
    def test_psi_12_is_split(self):
        assert not nt.is_prime(PSI_12)
        assert nt.factorize(PSI_12).pairs == \
            ((399165290221, 1), (798330580441, 1))

    def test_psi_13_is_never_one_prime(self):
        # it passes the strong-pseudoprime test to every base up to 41
        assert nt._strong_probable_prime(PSI_13)
        assert not nt.is_prime(PSI_13)
        assert nt.factorize(PSI_13).pairs == \
            ((1287836182261, 1), (2575672364521, 1))
        assert nt.omega(PSI_13) == 2

    def test_psi_13_unsplit_is_bounded(self, monkeypatch):
        monkeypatch.setattr(nt, "RHO_BUDGET", 0)
        f = nt.factorize(3 * PSI_13)
        assert f.pairs == ((3, 1),) and f.unsplit == (PSI_13,)
        assert nt.omega(PSI_13) == 8  # 1000**8 <= PSI_13 < 1000**9

    def test_primes_past_the_pseudoprime_range_are_proven(self):
        for p in (2**89 - 1, 2**107 - 1, 2**127 - 1):
            assert nt.is_prime(p)
            assert nt.factorize(p).pairs == ((p, 1),)

    def test_an_unproven_prime_stays_unsplit(self, monkeypatch):
        # past trial division, p - 1 leaves a composite cofactor of about
        # 2.5e25, so without rho the factored part F has F**2 < p
        p = 2**127 - 1
        monkeypatch.setattr(nt, "RHO_BUDGET", 0)
        assert not nt.is_prime(p)
        assert nt.factorize(p).unsplit == (p,)

    def test_pomega_7_1400527_counts_are_proven(self, capsys):
        # Phi_5(1400527), about 3.85e24, is prime: it passes the
        # strong-pseudoprime test past its proven range, so only the
        # n - 1 proof makes its count exact
        t = 1400527
        phi5 = (t**5 - 1) // (t - 1)
        assert phi5 >= PSI_13
        assert nt._n_minus_1_proof(phi5)
        assert nt.primitive_prime_divisors(t, 5).pairs == ((phi5, 1),)
        code = main(["certify", "--case", "i", "--family", "POmega",
                     "--n", "7", "--q", str(t), "--json"])
        report = json.loads(capsys.readouterr().out)
        assert (code, report["verdict"]) == (0, "certified")
        labels = [term["label"] for term in report["s2_terms"]]
        assert labels[:5] == [f"exact ppd count at l={ell}: "
                              f"{ref.primitive_prime_divisor_count(t, ell)}"
                              for ell in range(2, 7)]
        assert not any("at most" in label for label in labels)


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
    @settings(max_examples=400)
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
