import functools
import hashlib
import itertools
import json
import math
import random
import time
from fractions import Fraction

import pytest

from ringcert.exactalg import (
    ZZ,
    content,
    deg,
    drop_trailing_zeros,
    list_mul,
)
from ringcert.irred_int import (
    DegreeAnalysisCertificate,
    LPFWCertificate,
    ReducibleWitnessInt,
    cauchy_bound_scaled,
    degree_lower_bound,
    generate_int_irred,
    subset_sums,
    verify_degree_analysis,
    verify_lpfw,
    verify_reducible_witness_int,
)
from ringcert import certio, irred_ff, irred_int, primality
from ringcert.exactalg import reduce_mod_p
from ringcert.primality import generate_pratt
from reference import factor_poly as plain_factor_poly
from reference import lpfw_strip, next_prime
from reference import rational_root_factor as plain_rational_root_factor


def fraction_eval(f, x):
    """f(x) for a rational x, by Horner's rule on Fractions."""
    acc = Fraction(0)
    for c in reversed(f):
        acc = acc * x + c
    return acc


def divides_over_z(g, f):
    """Whether g divides f in Z[X], by long division over Q."""
    r = [Fraction(c) for c in f]
    q = []
    while len(r) >= len(g):
        c = r[-1] / g[-1]
        q.append(c)
        k = len(r) - len(g)
        for i, gi in enumerate(g):
            r[k + i] -= c * gi
        r = drop_trailing_zeros(r)
    return not r and all(c.denominator == 1 for c in q)


def brute_force_int_factor(f):
    """Smallest proper factor by rational roots plus quadratic enumeration.

    Complete for deg f <= 5 up to the coefficient bounds implied by the
    root bound; independent of the certificate machinery.
    """
    f = drop_trailing_zeros(f)
    n = deg(f)
    c = content(f)
    if c != 1:
        return [c]
    if n <= 1:
        return None
    # rational roots
    if f[0] == 0:
        return [0, 1]
    for u in range(1, abs(f[0]) + 1):
        if abs(f[0]) % u:
            continue
        for v in range(1, abs(f[-1]) + 1):
            if abs(f[-1]) % v:
                continue
            for s in (1, -1):
                if fraction_eval(f, Fraction(s * u, v)) == 0:
                    return [-s * u, v]
    if n < 4:
        return None
    # quadratic factors, coefficients bounded via the root bound
    rho = cauchy_bound_scaled(f, Fraction(1))
    for a2 in range(1, abs(f[-1]) + 1):
        if abs(f[-1]) % a2:
            continue
        b1 = int(2 * rho * a2) + 1
        b0 = int(rho * rho * a2) + 1
        for a1 in range(-b1, b1 + 1):
            for a0 in range(-b0, b0 + 1):
                g = [a0, a1, a2]
                if deg(g) != 2 or content(g) != 1:
                    continue
                if divides_over_z(g, f):
                    return g
    return None


class TestSubsetSums:
    def test_examples(self):
        assert subset_sums([1, 2]) == {0, 1, 2, 3}
        assert subset_sums([]) == {0}
        assert subset_sums([2, 2, 3]) == {0, 2, 3, 4, 5, 7}

    def test_degree_lower_bound_examples(self):
        assert degree_lower_bound([[5]]) == 5
        assert degree_lower_bound([[2, 3], [1, 4]]) == 5
        assert degree_lower_bound([[1, 1, 2]]) == 1

    def test_bound_grows_with_more_primes(self):
        # adding a prime shrinks the subset-sum intersection, so the bound
        # can only improve (and never exceeds the total degree)
        rng = random.Random(5)
        for _ in range(50):
            total = rng.randrange(2, 7)
            sets = []
            for _ in range(3):
                parts = []
                left = total
                while left:
                    k = rng.randrange(1, left + 1)
                    parts.append(k)
                    left -= k
                sets.append(parts)
            prev = None
            for k in range(1, len(sets) + 1):
                d = degree_lower_bound(sets[:k])
                assert 1 <= d <= total
                if prev is not None:
                    assert d >= prev
                prev = d


class TestCauchyBound:
    def test_anchor_value(self):
        assert cauchy_bound_scaled([3, 14, 15, 92, 65], Fraction(1, 2)) == Fraction(249, 130)

    def test_simple_cases(self):
        assert cauchy_bound_scaled([0, 1], Fraction(1)) == 1
        assert cauchy_bound_scaled([1, 0, 1], Fraction(1)) == 2

    def test_rejects_constant(self):
        with pytest.raises(ValueError):
            cauchy_bound_scaled([3], Fraction(1))

    def test_bounds_integer_roots(self):
        rng = random.Random(11)
        for _ in range(200):
            roots = [rng.randrange(-9, 10) for _ in range(rng.randrange(1, 4))]
            f = [1]
            for r in roots:
                f = [a - r * b for a, b in zip([0] + f, f + [0])]
            # f = prod (X - r), ascending
            for rscale in (Fraction(1, 2), Fraction(1), Fraction(2)):
                bound = cauchy_bound_scaled(f, rscale)
                for r in roots:
                    assert abs(r) <= bound


class TestLPFWVerification:
    def _trivial_cert(self, f, r, m, P):
        return LPFWCertificate(
            f=tuple(f), analysis=None, r=Fraction(r), m=m, P=P, pratt=generate_pratt(P))

    def test_accept_x2_plus_1(self):
        cert = self._trivial_cert([1, 0, 1], 1, 4, 17)
        assert verify_lpfw(cert).accepted

    def test_reject_small_point(self):
        # f(3) = 2 * 5, and the cofactor 2 is not below |3| - rho = 1
        cert = self._trivial_cert([1, 0, 1], 1, 3, 5)
        v = verify_lpfw(cert)
        assert not v.accepted and v.reason == "lpfw/cofactor-bound"

    def test_reject_imprimitive(self):
        cert = self._trivial_cert([2, 2], 1, 5, 3)
        v = verify_lpfw(cert)
        assert not v.accepted and v.reason == "lpfw/not-primitive"

    def test_claimed_rho_is_not_read(self):
        # X^2 + 1 at r = 1 has rho = 2.  An earlier-format file claiming
        # rho = 1/2 puts m = 2, with f(2) = 5 prime, outside its own bound
        # and the cofactor 1 below |m| - 1/2; the verifier computes rho,
        # and 2 lies inside 2 + 1
        cert = self._trivial_cert([1, 0, 1], 1, 2, 5)
        payload = json.loads(certio.serialize(cert))["payload"]
        payload.update(rho="1/2", s="1")
        inner = certio._canonical_inner("lpfw", payload)
        envelope = {"integrity": "sha256:" + hashlib.sha256(inner).hexdigest(),
                    "kind": "lpfw", "payload": payload, "schema_version": certio.SCHEMA_VERSION}
        assert certio.parse(json.dumps(envelope).encode()) == cert
        v = verify_lpfw(cert)
        assert not v.accepted and v.reason == "lpfw/evaluation-point"

    def test_reject_wrong_product(self):
        cert = self._trivial_cert([1, 0, 1], 1, 4, 17)
        bad = cert._replace(m=5)
        v = verify_lpfw(bad)
        assert not v.accepted and v.reason == "lpfw/value-product"

    @pytest.mark.parametrize("r, scale", [
        (Fraction(2**64), True), (Fraction(1, 2**64), True),
        (Fraction(2**64 - 1), False), (Fraction(2**64 - 1, 2**64 - 3), False),
    ])
    def test_scale_bits_bounded(self, r, scale):
        # f(m) = 2^130 + 1 has no prime factor 17: whatever passes the scale
        # check is rejected later
        cert = self._trivial_cert([1, 0, 1], 1, 4, 17)._replace(m=2**65, r=r)
        v = verify_lpfw(cert)
        assert not v.accepted and (v.reason == "lpfw/scale") == scale


class TestLPFWStripping:
    """primality.strip_small_primes at LPFW_TRIAL_BOUND gives the (s, rest,
    largest stripped prime) of the LPFW search's per-prime loop, and calls
    rest prime only when it is."""

    @staticmethod
    def _values():
        rng = random.Random(25)
        small = primality.sieve_primes(irred_int.LPFW_TRIAL_BOUND)

        def prime(bits):
            return next_prime(rng.randrange(2, 2**bits))

        values = list(range(1, 10_001))
        for _ in range(2500):
            # smooth values, primes and semiprimes
            values.append(math.prod(rng.choices(small, k=rng.randint(1, 6))))
            values.append(prime(rng.randint(2, 64)))
            values.append(prime(rng.randint(2, 40)) * prime(rng.randint(2, 40)))
            # the last small prime q leaves a prime rest below q^2
            i = rng.randrange(1, len(small))
            q = small[i]
            smooth = math.prod(rng.choices(small[:i], k=rng.randint(0, 3)))
            values.append(smooth * q ** rng.randint(1, 3) * next_prime(
                rng.randrange(q + 1, q * q)))
        return values

    def test_matches_per_prime_loop(self):
        values = self._values()
        assert len(values) >= 20_000
        for value in values:
            stripped, rest, prime = primality.strip_small_primes(
                value, irred_int.LPFW_TRIAL_BOUND)
            s = math.prod(d**e for d, e in stripped)
            largest = stripped[-1][0] if stripped else 0
            assert (s, rest, largest) == lpfw_strip(value, irred_int.LPFW_TRIAL_BOUND), value
            assert not prime or (rest > 1 and primality.is_probable_prime(rest)), value


class TestDegreeAnalysisPrimes:
    @pytest.fixture(scope="class")
    def analysis(self):
        cert = generate_int_irred([1, 0, 1])  # X^2 + 1, irreducible mod 3
        assert isinstance(cert, DegreeAnalysisCertificate)
        return cert

    def _with_prime(self, cert, p):
        return cert._replace(per_prime=(cert.per_prime[0]._replace(p=p),))

    def test_composite_p_rejected(self, analysis):
        assert verify_degree_analysis(analysis).accepted
        v = verify_degree_analysis(self._with_prime(analysis, 15))
        assert v.reason == "analysis/p=15/not-prime"

    def test_factor_product_must_be_monic(self, analysis):
        # the unit is not written: f mod p = lc(f) * the factor product, so
        # the factors multiply to a monic polynomial.  2X^2 + 2 is
        # irreducible mod 3 with its own Rabin certificate, but lc(f) = 1
        # times it is not X^2 + 1
        (fmp,) = analysis.per_prime
        assert fmp.p == 3 and fmp.factors == (((1, 0, 1), 1),)
        cert = irred_ff.generate_rabin([2, 0, 2], 3)
        assert irred_ff.verify_rabin(cert).accepted
        scaled = fmp._replace(factors=(((2, 0, 2), 1),), certs=(cert,))
        v = verify_degree_analysis(analysis._replace(per_prime=(scaled,)))
        assert v.reason == "analysis/p=3/product"
        # a leading coefficient other than 1 is f's own: 2X^2 + 1 mod 3
        # and mod 5 is 2 times a monic product
        wide = generate_int_irred([1, 0, 2])
        assert isinstance(wide, DegreeAnalysisCertificate)
        assert all(entry.factors[0][0][-1] == 1 for entry in wide.per_prime)
        assert verify_degree_analysis(wide).accepted

    def test_large_prime_rejected_quickly(self, analysis):
        # primes from 10^6 up need a Pratt certificate, which this field
        # cannot carry; trial division to sqrt(p) would take about a second
        p = 140737488355213  # the largest prime below 2^47
        start = time.perf_counter()
        v = verify_degree_analysis(self._with_prime(analysis, p))
        assert time.perf_counter() - start < 0.1
        assert v.reason == f"analysis/p={p}/not-prime"


class TestGenerator:
    def test_x2_plus_1_uses_analysis_at_3(self):
        cert = generate_int_irred([1, 0, 1])
        assert isinstance(cert, DegreeAnalysisCertificate)
        assert [fmp.p for fmp in cert.per_prime][-1] == 3
        assert verify_degree_analysis(cert).accepted

    def test_x4_plus_1_needs_lpfw(self):
        cert = generate_int_irred([1, 0, 0, 0, 1])
        assert isinstance(cert, LPFWCertificate)
        assert verify_lpfw(cert).accepted

    def test_x2_minus_1_reducible(self):
        out = generate_int_irred([-1, 0, 1])
        assert isinstance(out, ReducibleWitnessInt)
        assert list(out.factor) == [-1, 1] or list(out.factor) == [1, 1]
        assert verify_reducible_witness_int(out).accepted

    def test_imprimitive(self):
        out = generate_int_irred([2, 2])
        assert isinstance(out, ReducibleWitnessInt)
        assert list(out.factor) == [2]

    def test_product_of_two_quadratics(self):
        # (X^2+X+1)(X^2+2X+3) has no rational root
        f = [3, 5, 6, 3, 1]
        out = generate_int_irred(f)
        assert isinstance(out, ReducibleWitnessInt)
        assert verify_reducible_witness_int(out).accepted

    @pytest.mark.parametrize("seed", [0, 1])
    def test_soundness_sampled_against_oracle(self, seed):
        rng = random.Random(seed)
        checked = 0
        while checked < 60:
            n = rng.randrange(1, 5)
            f = [rng.randrange(-10, 11) for _ in range(n)] + [rng.randrange(1, 11)]
            f = drop_trailing_zeros(f)
            if deg(f) < 1 or content(f) != 1:
                continue
            checked += 1
            oracle_factor = brute_force_int_factor(f)
            out = generate_int_irred(f)
            if oracle_factor is None:
                assert isinstance(out, (DegreeAnalysisCertificate, LPFWCertificate)), f
                if isinstance(out, DegreeAnalysisCertificate):
                    assert verify_degree_analysis(out).accepted, f
                else:
                    assert verify_lpfw(out).accepted, f
            else:
                assert isinstance(out, ReducibleWitnessInt), (f, oracle_factor)
                assert verify_reducible_witness_int(out).accepted, f

    @pytest.mark.parametrize(
        "g, h",
        [
            ([3, -2, 4, 1], [2, 1, -5, 3, 1]),  # cubic times quartic
            ([3, 0, 0, 0, 0, 0, 0, 0, 1], [1, 1, 0, 0, 0, 0, 0, 0, 1]),  # (X^8+3)(X^8+X+1)
        ],
    )
    def test_product_without_linear_factor_is_factored(self, g, h):
        f = list_mul(ZZ, g, h)
        start = time.perf_counter()
        out = generate_int_irred(f)
        assert time.perf_counter() - start < 2.0
        assert isinstance(out, ReducibleWitnessInt)
        assert verify_reducible_witness_int(out).accepted

    @pytest.mark.parametrize("c", [1, 256])  # X^8+1 and 2*zeta_16's X^8+256
    def test_x8_plus_c_needs_lpfw(self, c):
        cert = generate_int_irred([c, 0, 0, 0, 0, 0, 0, 0, 1])
        assert isinstance(cert, LPFWCertificate)
        assert verify_lpfw(cert).accepted


# every fixture's T, X^n - X - 1 for n = 12, 16, 20, and Phi_19, Phi_29
ANALYSIS_ANCHORS = [list(fx["T"]) for fx in certio.FIXTURES.values()] + [
    [-1, -1] + [0] * (n - 2) + [1] for n in (12, 16, 20)
] + [[1] * 19, [1] * 29]


def _scanned_patterns(f):
    """(p, factor degrees of f mod p) over the primes degree analysis scans,
    from the plain factorizer in tests/reference.py."""
    out = []
    for p in primality.sieve_primes(irred_int.ANALYSIS_PRIME_BOUND):
        if len(out) == irred_int.ANALYSIS_PRIMES:
            break
        if f[-1] % p == 0:
            continue
        _unit, factors = plain_factor_poly(p, reduce_mod_p(f, p))
        out.append((p, [deg(g) for g, m in factors for _ in range(m)]))
        if degree_lower_bound([ds for _p, ds in out]) == deg(f):
            break
    return out


class TestCertifiedPrimes:
    @pytest.mark.parametrize("f", ANALYSIS_ANCHORS, ids=str)
    def test_smallest_subset_of_scanned_primes(self, f):
        out = generate_int_irred(f)
        analysis = out if isinstance(out, DegreeAnalysisCertificate) else out.analysis
        scanned = _scanned_patterns(f)
        d = degree_lower_bound([ds for _p, ds in scanned])
        if d == 1 < deg(f):
            assert isinstance(out, LPFWCertificate) and analysis is None
            return
        # brute force: every subset, fewest primes first, the earliest in prime order
        smallest = next(
            sub
            for size in range(1, len(scanned) + 1)
            for sub in itertools.combinations(scanned, size)
            if degree_lower_bound([ds for _p, ds in sub]) == d
        )
        assert [fmp.p for fmp in analysis.per_prime] == [p for p, _ds in smallest]
        ok, got = irred_int.check_degree_analysis(analysis)
        assert ok.accepted and got == d

    def test_x20_minus_x_minus_1_needs_two_primes(self):
        cert = generate_int_irred([-1, -1] + [0] * 18 + [1])
        assert isinstance(cert, DegreeAnalysisCertificate)
        assert [fmp.p for fmp in cert.per_prime] == [2, 5]
        assert verify_degree_analysis(cert).accepted


class TestOneSplitPerPrime:
    """Each prime's squarefree and distinct-degree stages run once, and the
    equal-degree stage only where a factorization is used."""

    @pytest.fixture
    def tables(self, monkeypatch):
        """The prime of every Frobenius table built, in order."""
        built = []

        class Counted(irred_ff._FrobeniusTable):
            def __init__(self, p, g):
                built.append(p)
                super().__init__(p, g)

        monkeypatch.setattr(irred_ff, "_FrobeniusTable", Counted)
        return built

    @pytest.mark.parametrize("f", ANALYSIS_ANCHORS, ids=str)
    def test_one_frobenius_table_per_scanned_prime(self, tables, f):
        _d, analysis, _common = irred_int._degree_analysis_search(f)
        assert tables == [p for p, _ds in _scanned_patterns(f)]
        if analysis is not None:
            assert {fmp.p for fmp in analysis.per_prime} <= set(tables)

    @pytest.mark.parametrize("f", [
        [1, 0, 0, 0, 0, 0, 0, 0, 1], [1, 0, -10, 0, 1], [-1, -1, 0, 0, 0, 1],
        list_mul(ZZ, [1, 0, 1], [1, 1, 0, 1]), list_mul(ZZ, [2, -3], [1, 0, 0, 5, 0, 1]),
    ], ids=str)
    def test_big_prime_factors_factors_one_prime(self, monkeypatch, tables, f):
        factored, real = [], irred_ff.factor_poly

        def counted(p, *args):
            factored.append(p)
            return real(p, *args)

        monkeypatch.setattr(irred_ff, "factor_poly", counted)
        P, factors = irred_int._big_prime_factors(f)
        assert len(tables) == irred_int.ZASSENHAUS_PRIMES and factored == [P]
        # the first of the sparsest factorizations, by the plain factorizer
        flat = [[g for g, m in plain_factor_poly(q, reduce_mod_p(f, q))[1] for _ in range(m)]
                for q in tables]
        k = min(range(len(flat)), key=lambda i: len(flat[i]))
        assert (P, factors) == (tables[k], flat[k])


class TestRationalRoots:
    """Zassenhaus tries the linear factors mod its big prime first, so the
    witness is linear exactly when the divisor-listing rational root test
    kept in tests/reference.py finds a root."""

    @staticmethod
    def _check(f):
        out = generate_int_irred(f)
        root = plain_rational_root_factor(f)
        if root is None:
            assert not (isinstance(out, ReducibleWitnessInt) and deg(list(out.factor)) == 1), f
        else:
            assert isinstance(out, ReducibleWitnessInt), f
            assert deg(list(out.factor)) == 1, f
        if isinstance(out, ReducibleWitnessInt):
            assert verify_reducible_witness_int(out).accepted, f
        return out

    @pytest.mark.parametrize("f", [
        [1, -5, 6],         # (2X - 1)(3X - 1), no integer root
        [0, -1, 0, 1],      # X^3 - X
        [0, 1, 0, 1],       # X(X^2 + 1)
        [0, 0, 3, 2],       # X^2 (2X + 3)
        [-1, 0, 1],         # X^2 - 1
        [3, 5, 6, 3, 1],    # (X^2 + X + 1)(X^2 + 2X + 3), no root
    ], ids=["6X^2-5X+1", "X^3-X", "X^3+X", "2X^3+3X^2", "X^2-1", "two-quadratics"])
    def test_examples(self, f):
        out = self._check(f)
        if f[0] == 0:
            assert list(out.factor) == [0, 1]

    @pytest.mark.parametrize("seed", range(4))
    def test_same_root_as_divisor_listing(self, seed):
        """Seeded products of linear factors and a small cofactor."""
        rng = random.Random(f"roots/{seed}")
        for _ in range(30):
            f = [rng.randrange(-6, 7) for _ in range(rng.randrange(0, 3))] + [rng.randrange(1, 5)]
            for _ in range(rng.randrange(0, 4)):
                v = rng.randrange(1, 7)
                f = list_mul(ZZ, f, [rng.randrange(-12, 13), v])
            f = drop_trailing_zeros(f)
            if deg(f) < 2 or content(f) != 1:
                continue
            if rng.randrange(3) == 0:
                f = [-c for c in f]
            self._check(f)


def test_each_sieve_bound_sieved_once(monkeypatch):
    # X^4 + 1 and X^4 - 10X^2 + 1 split modulo every prime, so both go through
    # degree analysis, which sieves to ANALYSIS_PRIME_BOUND, and LPFW, which
    # strips small primes by primality.strip_small_primes and sieves nothing
    real, calls = primality.sieve_primes, []

    def counted(limit):
        calls.append(limit)
        return real(limit)

    monkeypatch.setattr(primality, "sieve_primes", counted)
    monkeypatch.setattr(irred_int, "_primes_to", functools.cache(irred_int._primes_to.__wrapped__))
    for f in ([1, 0, 0, 0, 1], [1, 0, -10, 0, 1]):
        assert isinstance(generate_int_irred(f), LPFWCertificate)
    assert calls == [irred_int.ANALYSIS_PRIME_BOUND]


class TestReducibleWitnessVerification:
    def test_wrong_lengths_rejected_before_multiplying(self):
        # 2001 + 2000 - 1 coefficients cannot multiply to a quadratic; the
        # product itself, with one 4300-digit entry, takes seconds
        factor = [1] * 2000 + [10**4299]
        cofactor = [1] * 2000
        wit = ReducibleWitnessInt((-1, 0, 1), tuple(factor), tuple(cofactor))
        start = time.perf_counter()
        v = verify_reducible_witness_int(wit)
        assert time.perf_counter() - start < 1.0
        assert v.reason == "reducible-int/product"

    @pytest.mark.parametrize(
        "factor, cofactor, reason",
        [
            ((1, 1), (-1, 1), None),
            ((1, 1), (-1, 1, 0), None),  # trailing zero: trimmed lengths fit
            ((1, 1), (1, 1), "reducible-int/product"),
            ((), (-1, 0, 1), "reducible-int/product"),
            ((-1, 0, 1), (1,), "reducible-int/cofactor-unit"),
        ],
    )
    def test_reasons(self, factor, cofactor, reason):
        v = verify_reducible_witness_int(ReducibleWitnessInt((-1, 0, 1), factor, cofactor))
        assert v.accepted if reason is None else v.reason == reason


class TestDifferentialAgainstSympy:
    """The generator's verdict over Z against sympy's factorization."""

    @staticmethod
    def _random_irreducible(rng, degree, monic):
        sympy = pytest.importorskip("sympy")
        x = sympy.Symbol("x")
        while True:
            lead = 1 if monic else rng.choice([c for c in range(-9, 10) if c not in (0, 1)])
            f = [rng.randrange(-9, 10) for _ in range(degree)] + [lead]
            if content(f) != 1:
                continue
            _c, parts = sympy.factor_list(sympy.Poly(list(reversed(f)), x))
            if len(parts) == 1 and parts[0][1] == 1:
                return f

    @staticmethod
    def _sympy_reducible(f):
        sympy = pytest.importorskip("sympy")
        _c, parts = sympy.factor_list(sympy.Poly(list(reversed(f)), sympy.Symbol("x")))
        return sum(mult for _g, mult in parts) > 1

    @staticmethod
    def _check(f, reducible):
        out = generate_int_irred(f)
        assert isinstance(out, ReducibleWitnessInt) == reducible, f
        if isinstance(out, ReducibleWitnessInt):
            assert verify_reducible_witness_int(out).accepted, f
        elif isinstance(out, DegreeAnalysisCertificate):
            assert verify_degree_analysis(out).accepted, f
        else:
            assert verify_lpfw(out).accepted, f

    @pytest.mark.parametrize("seed", [0, 1])
    def test_products_of_two_irreducibles(self, seed):
        rng = random.Random(seed)
        for i in range(20):
            g = self._random_irreducible(rng, rng.randrange(2, 6), monic=i % 2 == 0)
            h = self._random_irreducible(rng, rng.randrange(2, 6), monic=i % 3 == 0)
            f = list_mul(ZZ, g, h)
            assert self._sympy_reducible(f)
            self._check(f, True)

    @pytest.mark.parametrize("seed", [0, 1])
    def test_random_primitive_polynomials(self, seed):
        rng = random.Random(100 + seed)
        for i in range(40):
            n = rng.randrange(1, 9)
            f = drop_trailing_zeros(
                [rng.randrange(-9, 10) for _ in range(n)] + [rng.choice([1, 1, 2, -3, 5])]
            )
            if content(f) != 1:
                continue
            self._check(f, self._sympy_reducible(f))

    @pytest.mark.parametrize("seed", [0, 1])
    def test_random_irreducibles(self, seed):
        rng = random.Random(200 + seed)
        for i in range(20):
            f = self._random_irreducible(rng, rng.randrange(2, 9), monic=i % 2 == 0)
            self._check(f, False)
