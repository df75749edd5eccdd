"""Primality: trial division, deterministic Miller-Rabin, Pratt certificates.

The verifier has one primality rule, `certify_prime_for_verifier(q, pratt)`,
for every prime a file names, the factors inside a Pratt chain included:
trial division below TRIAL_DIVISION_BOUND, a Pratt certificate beyond it.
So a chain carries a nested chain only for its factors q >= 10**6.
Miller-Rabin and Pollard rho are generator-side search tools only; nothing
a verifier concludes ever rests on them.

The generator's factoring goes through one small-prime stripping routine,
`strip_small_primes`: `factorize` calls it below 10**6 ahead of Pollard rho,
and the LPFW search (`irred_int._lpfw_search`) below its own trial bound.
It stops as soon as the cofactor is a Miller-Rabin probable prime, so a
number that is a few small primes times a large prime costs no sweep, and
it says whether the cofactor is known prime, so no caller tests it again.
"""

import functools
import math
import random
from typing import NamedTuple

from .verdict import Verdict

TRIAL_DIVISION_BOUND = 10**6

# Deterministic Miller-Rabin witness set, valid for all n < 3.3e24.
_MR_BASES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37)


def prime_factors_trial(n: int) -> list[int]:
    """The distinct primes dividing n >= 1, ascending, by trial division up
    to the square root of what is left.  Deterministic, for small n."""
    out = []
    d = 2
    while d * d <= n:
        if n % d == 0:
            out.append(d)
            while n % d == 0:
                n //= d
        d += 1 if d == 2 else 2
    if n > 1:
        out.append(n)
    return out


def is_prime_trial(n: int) -> bool:
    """Trial division up to sqrt(n). Deterministic, for small n."""
    return n >= 2 and prime_factors_trial(n) == [n]


def is_probable_prime(n: int) -> bool:
    """Miller-Rabin with a fixed witness set (deterministic below 3.3e24)."""
    if n < 2:
        return False
    for q in _MR_BASES:
        if n % q == 0:
            return n == q
    d = n - 1
    s = 0
    while d % 2 == 0:
        d //= 2
        s += 1
    for a in _MR_BASES:
        x = pow(a, d, n)
        if x in (1, n - 1):
            continue
        for _ in range(s - 1):
            x = (x * x) % n
            if x == n - 1:
                break
        else:
            return False
    return True


def sieve_primes(limit: int) -> list[int]:
    """All primes <= limit."""
    if limit < 2:
        return []
    flags = bytearray([1]) * (limit + 1)
    flags[0] = flags[1] = 0
    for p in range(2, int(limit**0.5) + 1):
        if flags[p]:
            flags[p * p :: p] = bytearray(len(flags[p * p :: p]))
    return [i for i, f in enumerate(flags) if f]


def _pollard_rho(n: int, rng: random.Random) -> int:
    """A nontrivial factor of odd composite n (Brent's cycle variant)."""
    while True:
        y = rng.randrange(1, n)
        c = rng.randrange(1, n)
        m = 128
        g = r = q = 1
        x = ys = y
        while g == 1:
            x = y
            for _ in range(r):
                y = (y * y + c) % n
            k = 0
            while k < r and g == 1:
                ys = y
                for _ in range(min(m, r - k)):
                    y = (y * y + c) % n
                    q = (q * abs(x - y)) % n
                g = math.gcd(q, n)
                k += m
            r *= 2
        if g == n:
            g = 1
            while g == 1:
                ys = (ys * ys + c) % n
                g = math.gcd(abs(x - ys), n)
        if g != n:
            return g


# strip_small_primes trial-divides by 2, 3, 5 and by the d prime to 30 with
# 7 <= d < _TRIAL_LIMIT, span by span: a span of _SPAN integers is skipped
# when n is prime to the product of its candidates.
_TRIAL_LIMIT = 10**6
_SPAN = 1920  # 64 turns of the mod-30 wheel
_WHEEL = (1, 7, 11, 13, 17, 19, 23, 29)


def _span_candidates(start: int) -> list[int]:
    """The trial divisors d with start <= d < start + _SPAN."""
    end = min(start + _SPAN, _TRIAL_LIMIT)
    return [base + r for base in range(start, end, 30) for r in _WHEEL if 7 <= base + r < end]


@functools.cache
def _span_product(start: int) -> int:
    """Product of the span's candidates, made when a sweep first reaches it
    (521 spans, about 650 KB when all are made).  It goes one wheel residue
    at a time, which halves the cost; residue 1 adds only a factor 1 at 0."""
    end = min(start + _SPAN, _TRIAL_LIMIT)
    return math.prod([math.prod(range(start + r, end, 30)) for r in _WHEEL])


def _divide_out(n: int, d: int, stripped: list[tuple[int, int]]) -> int:
    """n with every factor d taken out, recording (d, e) in stripped if e > 0."""
    e = 0
    while n % d == 0:
        n //= d
        e += 1
    if e:
        stripped.append((d, e))
    return n


def strip_small_primes(n: int, limit: int) -> tuple[list[tuple[int, int]], int, bool]:
    """(the primes d < limit <= 10**6 divided out of n >= 1, as ascending
    (d, exponent) pairs, the cofactor that is left, whether it is prime).

    The cofactor is 1, a prime, or a composite whose prime factors are all
    at least limit, and the sweep settles which, so no caller tests it
    again.  Divides by 2, 3, 5, then by the wheel candidates span by span
    (`_span_product`), in ascending order while d * d <= the cofactor: when
    that stops it, the cofactor is 1 or prime and is not divided out.  The
    sweep also stops as soon as the cofactor is a Miller-Rabin probable
    prime, tested before it and after each span that divided the cofactor,
    so a cofactor left at the end has been tested composite.
    Generator-side only.
    """
    stripped: list[tuple[int, int]] = []
    for d in (2, 3, 5):
        if d * d > n:
            return stripped, n, n > 1
        n = _divide_out(n, d, stripped)
    if is_probable_prime(n):
        return stripped, n, True
    for start in range(0, limit, _SPAN):
        if start * start > n:
            return stripped, n, n > 1
        g = math.gcd(n, _span_product(start))  # the candidates dividing n divide g
        if g == 1:
            continue
        before = n
        for d in _span_candidates(start):
            if d >= limit:
                break
            if d * d > n:
                return stripped, n, n > 1
            if g % d == 0:
                n = _divide_out(n, d, stripped)
                g = math.gcd(g, n)
                if g == 1:
                    break
        if n != before and is_probable_prime(n):
            return stripped, n, True
    return stripped, n, False


def factorize(n: int) -> list[tuple[int, int]]:
    """Prime factorization of n >= 1 as sorted (prime, exponent) pairs.

    `strip_small_primes` below 10**6 first, which settles whether its
    cofactor is prime, then Pollard rho, seeded from n, for a composite
    cofactor.  Generator-side only.
    """
    if n < 1:
        raise ValueError("factorize expects n >= 1")
    rng = random.Random(0xF0F0 ^ n)
    stripped, n, prime = strip_small_primes(n, _TRIAL_LIMIT)
    factors = dict(stripped)
    stack = []
    if prime:
        factors[n] = 1
    elif n > 1:
        g = _pollard_rho(n, rng)
        stack = [g, n // g]
    while stack:
        m = stack.pop()
        if is_probable_prime(m):
            factors[m] = factors.get(m, 0) + 1
            continue
        g = _pollard_rho(m, rng)
        stack.append(g)
        stack.append(m // g)
    return sorted(factors.items())


def prime_power_product(factors, target: int) -> int:
    """prod q**e over the (q, e) pairs, all e >= 1, to compare with target != 0.

    Returns 0 instead when some |q| > 1 has e beyond target's bit length:
    then |q**e| > |target|, the product cannot equal target, and the power
    is never formed."""
    prod = 1
    for q, e in factors:
        if abs(q) > 1 and e > target.bit_length():
            return 0
        prod *= q**e
    return prod


# ---------------------------------------------------------------------------
# Pratt certificates
# ---------------------------------------------------------------------------


class PrattCertificate(NamedTuple):
    """Recursive primality certificate.

    ``factors`` lists (q, e, sub) over the prime factorization of P - 1.
    Each q is proven prime by `certify_prime_for_verifier(q, sub)`: sub is
    the nested certificate for q when q >= TRIAL_DIVISION_BOUND, and None,
    or ignored, below it.  P == 2 is the base case: witness 1, empty factor
    list.
    """

    P: int
    witness: int
    factors: "tuple[tuple[int, int, PrattCertificate | None], ...]"


def verify_pratt(cert: PrattCertificate) -> Verdict:
    """Check the Pratt conditions, each factor q by the one primality rule."""
    P = cert.P
    if P < 2:
        return Verdict.reject(f"pratt/range/P={P}")
    if P == 2:
        return Verdict.accept()
    if P % 2 == 0:
        return Verdict.reject(f"pratt/even/P={P}")
    for q, e, _sub in cert.factors:
        if q < 2 or e < 1:
            return Verdict.reject(f"pratt/factorization/P={P}/q={q}")
    if prime_power_product([(q, e) for q, e, _sub in cert.factors], P - 1) != P - 1:
        return Verdict.reject(f"pratt/factorization/P={P}")
    g = cert.witness
    if not (1 < g < P):
        return Verdict.reject(f"pratt/witness-range/P={P}")
    if pow(g, P - 1, P) != 1:
        return Verdict.reject(f"pratt/fermat/P={P}")
    seen = set()
    for q, _e, sub in cert.factors:
        if q in seen:
            return Verdict.reject(f"pratt/duplicate-factor/P={P}/q={q}")
        seen.add(q)
        if pow(g, (P - 1) // q, P) == 1:
            return Verdict.reject(f"pratt/order/P={P}/q={q}")
        ok = certify_prime_for_verifier(q, sub)
        if not ok:
            return ok.prefixed("pratt")
    return Verdict.accept()


def generate_pratt(P: int, _cache: dict | None = None) -> PrattCertificate | None:
    """Build a Pratt certificate for a probable prime P, such as `factorize`
    returns; None if P is not prime, which the witness search finds by the
    smallest prime factor of P at the latest.  A factor q of P - 1 gets a
    nested certificate only when q >= 10**6."""
    if _cache is None:
        _cache = {}
    if P in _cache:
        return _cache[P]
    if P < 2:
        return None
    if P == 2:
        cert = PrattCertificate(2, 1, ())
        _cache[P] = cert
        return cert
    entries = []
    for q, e in factorize(P - 1):
        sub = None
        if q >= TRIAL_DIVISION_BOUND:
            sub = generate_pratt(q, _cache)
            if sub is None:
                return None
        entries.append((q, e, sub))
    for g in range(2, P):
        if pow(g, P - 1, P) != 1:
            return None  # not prime after all
        if all(pow(g, (P - 1) // q, P) != 1 for q, _e, _s in entries):
            cert = PrattCertificate(P, g, tuple(entries))
            _cache[P] = cert
            return cert
    return None


def certify_prime_for_verifier(p: int, pratt: PrattCertificate | None) -> Verdict:
    """The verifier's one primality rule, for every prime a file names.

    Primes below TRIAL_DIVISION_BOUND are checked by trial division, and
    `pratt` is not read; larger ones must come with a Pratt certificate.
    """
    if p < TRIAL_DIVISION_BOUND:
        if is_prime_trial(p):
            return Verdict.accept()
        return Verdict.reject(f"prime/composite/p={p}")
    if pratt is None:
        return Verdict.reject(f"prime/missing-certificate/p={p}")
    if pratt.P != p:
        return Verdict.reject(f"prime/certificate-mismatch/p={p}")
    return verify_pratt(pratt).prefixed(f"prime/p={p}")
