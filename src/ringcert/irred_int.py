"""Irreducibility certificates over the integers.

Two certificate flavors:

* degree analysis: factor f modulo several primes, certify every factor
  irreducible, and intersect the subset sums of the factor degrees.  If the
  smallest achievable nonzero degree is deg f, no proper factor can exist.
  The factors are monic, so the unit of each factorization is lc(f) mod p,
  which the verifier takes from f.
* large-prime-factor witness (LPFW): a prime value |f(m)| at a point m
  beyond a certified root bound forces irreducibility once a lower bound d
  on factor degrees is known (d = 1 always works for primitive f).

The generator scans the small primes for the factor degrees of f mod p
alone, by the squarefree and distinct-degree stages of factoring
(`irred_ff.distinct_degree_split`), and finishes the factorization and
certifies only a smallest subset of them that reaches the same degree
bound, from the splits the scan made.  When degree analysis leaves room
for a factor, it ranks ZASSENHAUS_PRIMES big primes P by their
distinct-degree splits, fully factors f modulo only the sparsest one, and
looks for a factor there by big-prime Zassenhaus (`_zassenhaus_factor`),
linear factors included; finding none sends it to LPFW.
"""

import functools
import itertools
import math
from fractions import Fraction
from typing import NamedTuple

from . import irred_ff, primality
from .exactalg import (
    ZZ,
    content,
    deg,
    drop_trailing_zeros,
    lc,
    list_mul,
    poly_divmod,
    poly_eval,
    reduce_mod_p,
)
from .primality import PrattCertificate, generate_pratt
from .verdict import Verdict


def subset_sums(degrees: list[int]) -> set[int]:
    """All achievable subset sums of a multiset of positive integers."""
    sums = {0}
    for d in degrees:
        sums |= {s + d for s in sums}
    return sums


def degree_lower_bound(degree_multisets: list[list[int]]) -> int:
    """Smallest nonzero degree achievable in every per-prime factorization."""
    if not degree_multisets:
        raise ValueError("need at least one prime")
    common = subset_sums(degree_multisets[0])
    for ds in degree_multisets[1:]:
        common &= subset_sums(ds)
    common.discard(0)
    if not common:
        raise ValueError("no common nonzero subset sum; inconsistent input")
    return min(common)


def cauchy_bound_scaled(f: list[int], r: Fraction) -> Fraction:
    """Upper bound r*(1 + max |a_i| / (|a_n| r^(n-i))) on all complex root magnitudes."""
    n = deg(f)
    if n < 1:
        raise ValueError("need a nonconstant polynomial")
    r = Fraction(r)
    if r <= 0:
        raise ValueError("scaling factor must be positive")
    an = abs(f[n])
    # r^(n-i) runs to n times the size of r: formed for nonzero a_i only
    best = max((Fraction(abs(c), an) / r ** (n - i) for i, c in enumerate(f[:n]) if c),
               default=Fraction(0))
    return r * (1 + best)


class FactorizationModP(NamedTuple):
    """Certified factorization of f modulo one prime.

    f mod p  ==  lc(f) * prod factor_i ^ multiplicity_i, every factor
    irreducible with its own certificate; the product of the factors is
    monic, since the unit is not written but taken as lc(f) mod p.
    """

    p: int
    factors: tuple[tuple[tuple[int, ...], int], ...]  # (coeffs, multiplicity)
    certs: tuple[irred_ff.RabinCertificate, ...]


class DegreeAnalysisCertificate(NamedTuple):
    f: tuple[int, ...]
    per_prime: tuple[FactorizationModP, ...]


LPFW_SCALE_BITS = 64  # largest bit length of r's numerator and denominator


class LPFWCertificate(NamedTuple):
    f: tuple[int, ...]
    analysis: DegreeAnalysisCertificate | None  # None means the trivial bound d = 1
    r: Fraction  # scale of the root bound rho = cauchy_bound_scaled(f, r)
    m: int
    P: int       # a prime dividing f(m)
    pratt: PrattCertificate | None  # required for P >= 10^6


class ReducibleWitnessInt(NamedTuple):
    """f = factor * cofactor over the integers, both nonunits."""

    f: tuple[int, ...]
    factor: tuple[int, ...]
    cofactor: tuple[int, ...]


def verify_reducible_witness_int(wit: ReducibleWitnessInt) -> Verdict:
    f = list(wit.f)
    fac, cof = drop_trailing_zeros(list(wit.factor)), drop_trailing_zeros(list(wit.cofactor))
    # Z[X] has no zero divisors: nonzero factors of the wrong lengths cannot
    # multiply to f, so reject them before a product sized by the certificate
    if fac and cof and len(fac) + len(cof) - 1 != len(f):
        return Verdict.reject("reducible-int/product")
    if list_mul(ZZ, fac, cof) != f:
        return Verdict.reject("reducible-int/product")
    for part, name in ((fac, "factor"), (cof, "cofactor")):
        if deg(part) < 0:
            return Verdict.reject(f"reducible-int/{name}-zero")
        if deg(part) == 0 and part[0] in (1, -1):
            return Verdict.reject(f"reducible-int/{name}-unit")
    return Verdict.accept()


def _verify_factorization_mod_p(fmp: FactorizationModP, f: list[int]) -> Verdict:
    p = fmp.p
    if not primality.certify_prime_for_verifier(p, None):
        return Verdict.reject(f"analysis/p={p}/not-prime")
    if lc(f) % p == 0:
        return Verdict.reject(f"analysis/p={p}/divides-lc")
    fbar = reduce_mod_p(f, p)
    if len(fmp.factors) != len(fmp.certs):
        return Verdict.reject(f"analysis/p={p}/shape")
    # over GF(p) the product has degree sum(mult * deg): once that passes
    # deg fbar the product cannot match, so no more factors are multiplied
    prod, prod_deg = [fbar[-1]], 0
    for (coeffs, mult), cert in zip(fmp.factors, fmp.certs):
        if mult < 1:
            return Verdict.reject(f"analysis/p={p}/multiplicity")
        if cert.p != p or list(cert.L) != list(coeffs):
            return Verdict.reject(f"analysis/p={p}/certificate-binding")
        ok = irred_ff.verify_rabin(cert)
        if not ok:
            return ok.prefixed(f"analysis/p={p}")
        prod_deg += mult * deg(list(coeffs))
        if prod_deg <= deg(fbar):
            for _ in range(mult):
                prod = list_mul(p, prod, list(coeffs))
    if prod_deg != deg(fbar) or prod != fbar:
        return Verdict.reject(f"analysis/p={p}/product")
    return Verdict.accept()


def analysis_degree_multisets(cert: DegreeAnalysisCertificate) -> list[list[int]]:
    out = []
    for fmp in cert.per_prime:
        ds: list[int] = []
        for coeffs, mult in fmp.factors:
            ds.extend([deg(list(coeffs))] * mult)
        out.append(ds)
    return out


def verify_degree_analysis(cert: DegreeAnalysisCertificate) -> Verdict:
    """Full irreducibility verdict: the analysis must force d = deg f."""
    ok, d = check_degree_analysis(cert)
    if not ok:
        return ok
    f = list(cert.f)
    if d != deg(f):
        return Verdict.reject(f"analysis/lower-bound/d={d}")
    return Verdict.accept()


def check_degree_analysis(cert: DegreeAnalysisCertificate) -> tuple[Verdict, int]:
    """Verify the per-prime data and return the implied degree lower bound."""
    f = list(cert.f)
    if deg(f) < 1:
        return Verdict.reject("analysis/degree"), 0
    if content(f) != 1:
        return Verdict.reject("analysis/not-primitive"), 0
    if not cert.per_prime:
        return Verdict.reject("analysis/no-primes"), 0
    seen = set()
    for fmp in cert.per_prime:
        if fmp.p in seen:
            return Verdict.reject(f"analysis/p={fmp.p}/duplicate"), 0
        seen.add(fmp.p)
        ok = _verify_factorization_mod_p(fmp, f)
        if not ok:
            return ok, 0
    try:
        d = degree_lower_bound(analysis_degree_multisets(cert))
    except ValueError:
        return Verdict.reject("analysis/lower-bound/empty"), 0
    return Verdict.accept(), d


def verify_lpfw(cert: LPFWCertificate) -> Verdict:
    f = list(cert.f)
    if deg(f) < 1 or drop_trailing_zeros(f) != f:
        return Verdict.reject("lpfw/degree")
    if content(f) != 1:
        return Verdict.reject("lpfw/not-primitive")
    if cert.analysis is None:
        d = 1
    else:
        if list(cert.analysis.f) != f:
            return Verdict.reject("lpfw/analysis-binding")
        ok, d = check_degree_analysis(cert.analysis)
        if not ok:
            return ok.prefixed("lpfw")
    r = Fraction(cert.r)
    if r <= 0:
        return Verdict.reject("lpfw/scale")
    m = cert.m
    # rho >= r, so a point with |m| < r + 1 fails before rho, whose powers of
    # r can run to n times the size of r, is formed
    if abs(m) < r + 1:
        return Verdict.reject("lpfw/evaluation-point")
    # for the same reason r's size is bounded; the generator writes r = 2^k
    # with |k| <= 8
    if max(r.numerator.bit_length(), r.denominator.bit_length()) > LPFW_SCALE_BITS:
        return Verdict.reject("lpfw/scale")
    rho = cauchy_bound_scaled(f, r)
    if abs(m) < rho + 1:
        return Verdict.reject("lpfw/evaluation-point")
    P = cert.P
    ok = primality.certify_prime_for_verifier(P, cert.pratt)
    if not ok:
        return ok.prefixed("lpfw")
    s, rest = divmod(abs(poly_eval(ZZ, f, m)), P)
    if rest or s < 1:
        return Verdict.reject("lpfw/value-product")
    if Fraction(s) >= (abs(m) - rho) ** d:
        return Verdict.reject("lpfw/cofactor-bound")
    return Verdict.accept()


# ---------------------------------------------------------------------------
# generator side
# ---------------------------------------------------------------------------


ANALYSIS_PRIMES = 12  # primes scanned per polynomial
ANALYSIS_PRIME_BOUND = 200
LPFW_TRIAL_BOUND = 100_000  # strip prime factors below this from |f(m)|
LPFW_POINTS = 10_000  # evaluation points LPFW tries before it gives up
# the sparsest of this many factorizations: X^32+1 modulo a prime P = 1 (mod 64)
# has 32 linear factors, so C(32,16) subsets of degree 16
ZASSENHAUS_PRIMES = 3


class NoCertificateFound(Exception):
    """LPFW ran out of evaluation points without a certificate or a factor."""


@functools.cache
def _primes_to(bound: int) -> tuple[int, ...]:
    """The primes <= bound, sieved on first use and kept."""
    return tuple(primality.sieve_primes(bound))


def _factorization_cert_mod_p(p: int, split: irred_ff.DistinctDegreeSplit) -> FactorizationModP:
    """The certified factorization of f mod p, from the split of f the scan made."""
    _unit, factors = irred_ff.factor_poly(p, split)
    certs = tuple(irred_ff.generate_rabin(fac, p) for fac, _m in factors)
    assert all(isinstance(cert, irred_ff.RabinCertificate) for cert in certs)
    return FactorizationModP(p, tuple((tuple(fac), m) for fac, m in factors), certs)


def _degree_analysis_search(f: list[int]) -> tuple[int, DegreeAnalysisCertificate | None, set[int]]:
    """Try to prove irreducibility by degree analysis.

    Scans up to ANALYSIS_PRIMES primes below ANALYSIS_PRIME_BOUND, smallest
    first and skipping those dividing lc(f), for the factor degrees of f mod
    p alone, until they force deg f; when every one of them divides lc(f),
    the first larger prime that does not.  Only a smallest subset of the scanned
    primes that reaches the same bound d, the earliest in prime order among
    those of its size, is factored and certified.

    Returns (d, that analysis, or None when it proves no more than the
    trivial d = 1 < deg f, the subset sums common to every scanned prime).
    """
    n = deg(f)
    scanned: list[tuple[int, set[int], irred_ff.DistinctDegreeSplit]] = []
    common = set(range(n + 1))
    primes = [p for p in _primes_to(ANALYSIS_PRIME_BOUND) if lc(f) % p][:ANALYSIS_PRIMES]
    if not primes:
        # every small prime divides lc f: take the first one beyond them
        # that does not (the format allows primes below 10^6)
        beyond = range(ANALYSIS_PRIME_BOUND + 1, primality.TRIAL_DIVISION_BOUND)
        primes = itertools.islice(
            (p for p in beyond if lc(f) % p and primality.is_prime_trial(p)), 1)
    for p in primes:
        split = irred_ff.distinct_degree_split(p, reduce_mod_p(f, p))
        sums = subset_sums(split.degrees)
        scanned.append((p, sums, split))
        common &= sums
        if min(common - {0}) == n:
            break
    d = min(common - {0})
    if not scanned or d == 1 < n:
        return d, None, common
    # combinations() lists the subsets of one size in prime order
    subset = next(
        subset
        for size in range(1, len(scanned) + 1)
        for subset in itertools.combinations(scanned, size)
        if min(set.intersection(*(sums for _p, sums, _f in subset)) - {0}) == d
    )
    entries = tuple(_factorization_cert_mod_p(p, split) for p, _s, split in subset)
    return d, DegreeAnalysisCertificate(tuple(f), entries), common


def _lpfw_search(
    f: list[int], d: int, analysis: DegreeAnalysisCertificate | None
) -> LPFWCertificate | None:
    """An LPFW certificate for f with degree bound d, or None.

    Takes the scale r = 2^k, |k| <= 8, with the smallest root bound rho, and
    tries m = ceil(rho + 1), then -m, m + 1, ... for up to LPFW_POINTS
    points.  `primality.strip_small_primes` takes the primes below
    LPFW_TRIAL_BOUND out of |f(m)| and leaves P, the witness candidate, or
    1 when |f(m)| is fully smooth, and then its largest stripped prime is
    P; it also settles whether P is prime.  The point is taken when
    s = |f(m)| / P < (|m| - rho)^d and P is prime, with a Pratt certificate
    when P >= 10^6.
    """
    best = None  # (rho, r)
    for k in range(-8, 9):
        r = Fraction(2) ** k
        rho = cauchy_bound_scaled(f, r)
        if best is None or rho < best[0]:
            best = (rho, r)
    rho, r = best
    m0 = math.ceil(rho + 1)
    tried = 0
    m_abs = m0
    while tried < LPFW_POINTS:
        for m in (m_abs, -m_abs):
            tried += 1
            value = abs(poly_eval(ZZ, f, m))
            if value < 2:
                continue
            bound = (abs(m) - rho) ** d
            stripped, rest, prime = primality.strip_small_primes(value, LPFW_TRIAL_BOUND)
            if rest > 1 and not prime:
                continue
            P = rest if prime else stripped[-1][0]
            s = value // P
            if Fraction(s) >= bound:
                continue
            pratt = None
            if P >= primality.TRIAL_DIVISION_BOUND:
                pratt = generate_pratt(P)
                if pratt is None:
                    continue
            return LPFWCertificate(
                f=tuple(f),
                analysis=analysis,
                r=r,
                m=m,
                P=P,
                pratt=pratt,
            )
        m_abs += 1
    return None


def _big_prime_factors(f: list[int]) -> tuple[int, list[list[int]]]:
    """(P, the monic factors of f mod P, each once per multiplicity) for the
    sparsest factorization over ZASSENHAUS_PRIMES primes P above twice the
    Landau-Mignotte bound 2^n * ||f|| * |lc(f)|.  The primes are ranked by
    the factor counts of their distinct-degree splits, the first of the
    sparsest is taken, and only its split is finished."""
    bound = 2 ** deg(f) * (math.isqrt(sum(c * c for c in f)) + 1) * abs(lc(f))
    P, best = 2 * bound, None
    for _ in range(ZASSENHAUS_PRIMES):
        P += 1
        while not primality.is_probable_prime(P):
            P += 1
        split = irred_ff.distinct_degree_split(P, reduce_mod_p(f, P))
        if best is None or len(split.degrees) < len(best[1].degrees):
            best = (P, split)
    P, split = best
    _unit, found = irred_ff.factor_poly(P, split)
    return P, [fac for fac, mult in found for _ in range(mult)]


def _symmetric(c: int, P: int) -> int:
    """The representative of c mod P in (-P/2, P/2]."""
    c %= P
    return c - P if 2 * c > P else c


def _exact_quotient(f: list[int], g: list[int]) -> list[int] | None:
    """f / g when g divides f over the integers, else None."""
    qr = poly_divmod(ZZ, f, g)
    if qr is None or qr[1]:
        return None
    return qr[0]


def _zassenhaus_factor(
    f: list[int], allowed: set[int], P: int, factors: list[list[int]]
) -> list[int] | None:
    """A primitive factor of f with degree in allowed, or None when there is none.

    Big-prime Zassenhaus (von zur Gathen & Gerhard, Modern Computer Algebra,
    Algorithm 15.2): P, with `factors` from `_big_prime_factors`, exceeds
    twice the Landau-Mignotte bound, so a factor scaled to leading
    coefficient lc(f) is the symmetric lift of lc(f) times a sub-multiset
    product of the monic factors of f mod P.  Subsets are tried by size
    from 1 upwards, and `factors` lists the linear ones first, so a
    rational root gives a linear factor first.  A subset of more than
    max(allowed) factors has a degree above every allowed one.  The filter
    on the constant term skips the factor X, which is returned at once when
    f(0) = 0.
    """
    if not allowed:
        return None
    if f[0] == 0:
        return [0, 1]
    a = lc(f)
    for size in range(1, min(max(allowed) + 1, len(factors))):
        for subset in itertools.combinations(factors, size):
            if sum(len(g) - 1 for g in subset) not in allowed:
                continue
            c0 = _symmetric(a * math.prod(g[0] for g in subset), P)
            if c0 == 0 or (a * f[0]) % c0:
                continue
            g = [a]
            for h in subset:
                g = list_mul(P, g, h)
            g = [_symmetric(c, P) for c in g]
            g = [c // content(g) for c in g]
            if _exact_quotient(f, g) is not None:
                return g if g[-1] > 0 else [-c for c in g]
    return None


def generate_int_irred(
    f: list[int],
) -> DegreeAnalysisCertificate | LPFWCertificate | ReducibleWitnessInt:
    """Certificate of irreducibility over the integers, or a factor witness.

    Degree analysis over small primes is preferred.  Otherwise big-prime
    Zassenhaus either finds a factor or shows there is none, and LPFW proves
    irreducibility.  Raises NoCertificateFound when LPFW runs out of its
    LPFW_POINTS evaluation points, which is a statement about the search,
    not about reducibility.
    """
    f = drop_trailing_zeros(list(f))
    if deg(f) < 1:
        raise ValueError("degree must be positive")
    c = content(f)
    if c != 1:
        cof = [x // c for x in f]
        return ReducibleWitnessInt(tuple(f), (c,), tuple(cof))

    d, analysis, common = _degree_analysis_search(f)
    if d == deg(f) and analysis is not None:
        return analysis

    # a factor, if one exists, has a degree that every scanned prime allows
    allowed = {k for k in common if 1 <= k <= deg(f) // 2}
    if allowed:
        P, factors = _big_prime_factors(f)
        factor = _zassenhaus_factor(f, allowed, P, factors)
        if factor is not None:
            return ReducibleWitnessInt(tuple(f), tuple(factor), tuple(_exact_quotient(f, factor)))

    lpfw = _lpfw_search(f, d, analysis)
    if lpfw is not None:
        return lpfw
    raise NoCertificateFound(f"no LPFW witness among {LPFW_POINTS} evaluation points")
