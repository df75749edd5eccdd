import math
import random
import time

import pytest

import reference
from ringcert import primality
from ringcert.primality import (
    PrattCertificate,
    factorize,
    generate_pratt,
    is_prime_trial,
    is_probable_prime,
    sieve_primes,
    verify_pratt,
)


def test_trial_division_small():
    primes = {2, 3, 5, 7, 11, 13, 17, 19, 23, 29}
    for n in range(31):
        assert is_prime_trial(n) == (n in primes)


def test_sieve_matches_trial():
    assert sieve_primes(100) == [n for n in range(101) if is_prime_trial(n)]


def test_factorize():
    assert factorize(1) == []
    assert factorize(2592) == [(2, 5), (3, 4)]
    assert factorize(64800) == [(2, 5), (3, 4), (5, 2)]
    assert factorize(2869) == [(19, 1), (151, 1)]
    # needs rho: two eight-digit primes
    n = 10000019 * 10000079
    assert factorize(n) == [(10000019, 1), (10000079, 1)]


@pytest.mark.parametrize("n", [
    1, 999983**2, 999979 * 999983, 1000003**2, (2**61 - 1) * 7**5,
    7 * 1000003 * 1000033, 2**10 * 3**5 * 999983 * (10**12 + 39),
])
def test_factorize_matches_wheel_loop(n):
    """Same factors as the one-step wheel loop, rho seeded from n on both sides."""
    assert factorize(n) == reference.factorize(n)


def test_factorize_matches_wheel_loop_random():
    rng = random.Random(5)
    for bits in range(2, 72, 3):
        for _ in range(4):
            n = rng.getrandbits(bits) + 1
            assert factorize(n) == reference.factorize(n), n


def _factorize_exits():
    """Seeded n reaching each way out of factorize: 1, a cofactor that
    d * d > n leaves, a probable-prime cofactor after small factors, prime
    powers, factors on both sides of 10**6, and two primes above 10**6 that
    only rho splits."""
    rng = random.Random(25)
    small = sieve_primes(10**6)
    values = [1, 2, 14, 77, 1001, 999983**2, 999983**3, 7**20, 1000003**2]
    for _ in range(6):
        smooth = math.prod(rng.choices(small, k=rng.randint(1, 4)))
        big = reference.next_prime(rng.randrange(10**30, 10**40))
        above = [reference.next_prime(rng.randrange(10**6, 10**6 + 10**4)) for _ in range(2)]
        values += [
            smooth * big,
            rng.choice(small) ** rng.randint(2, 5),
            smooth * above[0],
            smooth * above[0] * above[1],
            above[0] * above[1],
        ]
    return values


@pytest.mark.parametrize("n", _factorize_exits())
def test_factorize_matches_sympy(n):
    sympy = pytest.importorskip("sympy")
    assert factorize(n) == sorted(sympy.factorint(n).items())


def _counted_probable_prime(monkeypatch):
    """The values `is_probable_prime` is called on, in order, from now on."""
    real, calls = primality.is_probable_prime, []

    def counted(n):
        calls.append(n)
        return real(n)

    monkeypatch.setattr(primality, "is_probable_prime", counted)
    return calls


def test_factorize_tests_no_value_twice(monkeypatch):
    # strip_small_primes settles whether its cofactor is prime, so the rho
    # stack does not Miller-Rabin test it again: a value is tested once,
    # or once per time rho splits it off as a repeated prime factor
    expected = {n: dict(factorize(n)) for n in _factorize_exits()}
    calls = _counted_probable_prime(monkeypatch)
    for n, factors in expected.items():
        calls.clear()
        factorize(n)
        assert all(calls.count(v) <= factors.get(v, 1) for v in calls), n


def test_power_basis_gen_tests_each_value_once(monkeypatch):
    # X^20 - X - 1 on its power basis: 52 calls on 26 values while each
    # cofactor was tested again by its caller, and generate_pratt tested
    # each prime it was given
    from ringcert.pipeline import generate_bundle

    calls = _counted_probable_prime(monkeypatch)
    n = 20
    generate_bundle([-1, -1] + [0] * (n - 2) + [1], 1,
                    [[int(i == j) for i in range(n)] for j in range(n)])
    assert len(calls) == len(set(calls)) == 10


def test_prime_factors_trial():
    for n in range(1, 3000):
        assert primality.prime_factors_trial(n) == [q for q, _e in factorize(n)], n


@pytest.mark.parametrize("middle, spans", [
    ((), 0),                   # 2 * 3 * P: P is tested prime before the sweep
    ((7,), 1),                 # the first span divides, then P is tested prime
    ((1000003, 1000033), 521),  # a composite cofactor: every span below 10**6
])
def test_sweep_stops_at_a_prime_cofactor(monkeypatch, middle, spans):
    """The sweep ends at a probable-prime cofactor; one that went on while
    d * d <= n would visit all 521 spans for 2 * 3 * P."""
    P = reference.next_prime(10**39)
    real, calls = primality._span_product, []

    def counted(start):
        calls.append(start)
        return real(start)

    monkeypatch.setattr(primality, "_span_product", counted)
    primes = (2, 3) + middle + (P,)
    assert factorize(math.prod(primes)) == [(q, 1) for q in primes]
    assert len(calls) == spans


def test_spans_cover_the_wheel_below_a_million():
    starts = range(0, 10**6, primality._SPAN)
    candidates = [d for start in starts for d in primality._span_candidates(start)]
    assert candidates == [d for d in range(7, 10**6) if math.gcd(d, 30) == 1]
    for start in starts:
        assert primality._span_product(start) == math.prod(primality._span_candidates(start))


def test_pratt_matches_wheel_loop(monkeypatch):
    rng = random.Random(13)
    primes = []
    while len(primes) < 6:
        P = rng.randrange(10**12, 10**15)
        if is_probable_prime(P):
            primes.append(P)
    certs = [generate_pratt(P) for P in primes]
    monkeypatch.setattr(primality, "factorize", reference.factorize)
    assert certs == [generate_pratt(P) for P in primes]


def test_pratt_base_case():
    assert verify_pratt(PrattCertificate(2, 1, ())).accepted


def test_pratt_17():
    cert = PrattCertificate(17, 3, ((2, 4, None),))
    assert verify_pratt(cert).accepted
    # 3^8 = 6561 = 16 mod 17, so the order condition really bites
    assert pow(3, 8, 17) == 16


def test_pratt_rejects_composite():
    # 15 - 1 = 14 = 2 * 7; no witness can have order 14 mod 15
    for w in range(2, 15):
        cert = PrattCertificate(
            15, w, ((2, 1, None), (7, 1, PrattCertificate(7, 3, ((2, 1, None), (3, 1, PrattCertificate(3, 2, ((2, 1, None),)))))))
        )
        v = verify_pratt(cert)
        assert not v.accepted and v.reason


def test_pratt_rejects_bad_factorization():
    cert = PrattCertificate(17, 3, ((2, 3, None),))  # 2^3 != 16
    v = verify_pratt(cert)
    assert not v.accepted and "factorization" in v.reason


def test_pratt_huge_exponent_rejected_quickly():
    cert = PrattCertificate(17, 3, ((2, 10**12, None),))
    start = time.perf_counter()
    v = verify_pratt(cert)
    assert time.perf_counter() - start < 1.0
    assert v.reason == "pratt/factorization/P=17"


def test_flat_chain_with_composite_factor_rejected():
    # 31 - 1 = 2 * 15 and 3 has order 30 mod 31, so every condition but
    # the primality of 15 holds; trial division finds 15 composite
    cert = PrattCertificate(31, 3, ((2, 1, None), (15, 1, None)))
    assert verify_pratt(cert).reason == "pratt/prime/composite/p=15"


def test_chain_without_sub_above_the_bound_rejected():
    P = 36 * 1000003 + 1  # prime, and 1000003 is prime too
    assert is_probable_prime(P) and is_probable_prime(1000003)
    cert = generate_pratt(P)
    assert verify_pratt(cert).accepted
    assert [q for q, _e, sub in cert.factors if sub is not None] == [1000003]
    flat = PrattCertificate(P, cert.witness, tuple((q, e, None) for q, e, _sub in cert.factors))
    assert verify_pratt(flat).reason == "pratt/prime/missing-certificate/p=1000003"


def test_generated_chains_nest_only_above_the_bound():
    def subs(cert):
        for q, _e, sub in cert.factors:
            assert (sub is not None) == (q >= primality.TRIAL_DIVISION_BOUND), (cert.P, q)
            if sub is not None:
                assert sub.P == q
                subs(sub)

    rng = random.Random(26)
    for _ in range(6):
        P = reference.next_prime(rng.randrange(10**20, 10**30))
        cert = generate_pratt(P)
        assert verify_pratt(cert).accepted
        subs(cert)


def test_generate_matches_sieve_exhaustively():
    cache = {}
    primes = set(sieve_primes(10_000))
    for n in range(2, 10_000):
        cert = generate_pratt(n, _cache=cache)
        if n in primes:
            assert cert is not None and verify_pratt(cert).accepted, n
        else:
            assert cert is None, n


def test_probable_prime_agrees_with_trial():
    for n in range(2, 2000):
        assert is_probable_prime(n) == is_prime_trial(n)
