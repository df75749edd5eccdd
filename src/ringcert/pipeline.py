"""The global driver: prove that a supplied basis spans the full ring of
integers of Q[X]/<T>.

A bundle chains together: an irreducibility certificate for T, the basis
of the order with one witness per product, membership of theta, the
certified primes of N = disc(T), and one maximality certificate per prime
factor p of N with p^2 | disc(O).
N is not written: the verifier computes it once, by
`resultants.disc_poly`, and uses it for disc(O) and the factorization, and
N != 0 is the separability of T.  The Bezout pair a*T + b*T' = N is
written empty; a file that states one must satisfy it.
Nothing the verifier finds in time linear in what it reads is written
either: theta's coordinates come from back-substituting d*X + T*witness
through the triangular basis, each product's coordinates, the times table,
from back-substituting its identity the same way, and each prime's
exponent from dividing it out of |N|, which must leave 1.
Any prime not dividing N is automatically fine (T stays separable mod p there), and
since disc(O) = [O_K : O]^2 disc(K), no prime with p^2 not dividing
disc(O) divides [O_K : O]; so acceptance of the bundle means the order is
the whole ring of integers.
"""

from typing import NamedTuple

from . import irred_int, maximality, primality, resultants
from .exactalg import (
    ZZ,
    deg,
    drop_trailing_zeros,
    formal_derivative,
    list_add,
    list_mul,
    mul_pointwise,
    poly_divmod,
)
from .irred_int import DegreeAnalysisCertificate, LPFWCertificate
from .linalg import solve_upper_triangular
from .maximality import (
    DedekindCertificate,
    KernelWitness,
    PMaxLongCertificate,
    PMaxShortCertificate,
)
from .orders import (
    NotAnOrder,
    OrderDescription,
    basis_rows,
    build_order_description,
    theta_coordinates,
    verify_order_builder,
)
from .verdict import Verdict

MaximalityCert = DedekindCertificate | PMaxShortCertificate | PMaxLongCertificate


class PrimeEntry(NamedTuple):
    p: int
    pratt: primality.PrattCertificate | None  # required for large p
    cert: MaximalityCert


class FactorEntry(NamedTuple):
    """A prime factor of N whose square does not divide disc(O): it does
    not divide [O_K : O], so it needs no maximality certificate."""

    p: int
    pratt: primality.PrattCertificate | None  # required for large p


class CertificateBundle(NamedTuple):
    T: tuple[int, ...]
    irreducibility: DegreeAnalysisCertificate | LPFWCertificate
    order: OrderDescription
    theta_witness: tuple[int, ...]  # d*X + T*witness lies in the span of B
    bezout_a: tuple[int, ...]      # a*T + b*T' = N = disc(T) when stated; written empty
    bezout_b: tuple[int, ...]
    primes: tuple[PrimeEntry, ...]  # every prime of N with p^2 | disc(O), maybe others
    free_primes: tuple[FactorEntry, ...] = ()  # the rest: p^2 does not divide disc(O)
    claimed_disc: int | None = None


def verify_bundle(bundle: CertificateBundle) -> Verdict:
    """Re-check every component; acceptance means the order is the full ring
    of integers of Q[X]/<T>."""
    return verify_bundle_with_disc(bundle)[0]


def verify_bundle_with_disc(bundle: CertificateBundle) -> tuple[Verdict, int | None]:
    """`verify_bundle`'s verdict, and disc(O) when the bundle is accepted:
    the checks compute it once, for the free primes and the claim."""
    T = list(bundle.T)
    n = deg(T)
    if n < 1 or T[-1] != 1:
        return Verdict.reject("bundle/T-not-monic"), None

    # irreducibility of T, bound to the same coefficients
    irr = bundle.irreducibility
    if list(irr.f) != T:
        return Verdict.reject("bundle/irred/binding"), None
    if isinstance(irr, LPFWCertificate):
        ok = irred_int.verify_lpfw(irr)
    else:
        ok = irred_int.verify_degree_analysis(irr)
    if not ok:
        return ok.prefixed("bundle/irred"), None

    # the order description over T, which yields the order's times table
    desc = bundle.order
    ok, tt = verify_order_builder(desc, T)
    if not ok:
        return ok.prefixed("bundle"), None

    # theta inside the order: d*X + T*witness = sum_k x_k b_k for integers
    # x_k, found by back-substitution through the triangular B; a witness of
    # degree >= n puts a term of degree >= 2n into the left side
    witness = drop_trailing_zeros(list(bundle.theta_witness))
    if len(witness) > n:
        return Verdict.reject("bundle/theta"), None
    target = list_add(ZZ, [0, desc.d], list_mul(ZZ, T, witness))
    if len(target) > n or solve_upper_triangular(
        basis_rows(desc.basis_columns), target + [0] * (n - len(target))
    ) is None:
        return Verdict.reject("bundle/theta"), None

    # N = disc(T), computed once; disc(O) = (-1)^(n(n-1)/2) N / [O : Z[theta]]^2,
    # from T and the order alone, now that theta is known to lie in O
    N = resultants.disc_poly(T)
    if N == 0:
        return Verdict.reject("bundle/separability/zero"), None
    try:
        disc = resultants.disc_order(desc, N)
    except ValueError as e:
        return Verdict.reject(f"bundle/disc/{e}"), None

    # N's factorization over both prime lists, every prime certified: each
    # listed p divides what is left of |N| and is divided out in full, and
    # nothing is left at the end; a prime listed twice divides no more
    rest = abs(N)
    entries = bundle.primes + bundle.free_primes
    for entry in entries:
        if entry.p < 2 or rest % entry.p:
            return Verdict.reject(f"bundle/prime-factorization/p={entry.p}"), None
        while rest % entry.p == 0:
            rest //= entry.p
    if rest != 1:
        return Verdict.reject("bundle/prime-factorization"), None
    for entry in entries:
        ok = primality.certify_prime_for_verifier(entry.p, entry.pratt)
        if not ok:
            return ok.prefixed("bundle"), None
    # disc(O) = [O_K : O]^2 disc(K): a prime whose square does not divide
    # disc(O) does not divide the index, and needs no certificate
    for entry in bundle.free_primes:
        if disc % (entry.p * entry.p) == 0:
            return Verdict.reject(f"bundle/p={entry.p}/needs-certificate"), None

    # one maximality certificate per certified prime: Dedekind's on T, the kernel
    # forms over the times table; each takes T or the table, and p, from here
    verifiers = {
        DedekindCertificate: (maximality.verify_dedekind, T),
        PMaxShortCertificate: (maximality.verify_pmax_short, tt),
        PMaxLongCertificate: (maximality.verify_pmax_long, tt),
    }
    for entry in bundle.primes:
        verify, over = verifiers[type(entry.cert)]
        ok = verify(over, entry.p, entry.cert)
        if not ok:
            return ok.prefixed(f"bundle/p={entry.p}"), None

    # N != 0 is the separability of T; a file that states a Bezout pair must
    # satisfy a*T + b*T' = N with the degrees of the extended-gcd cofactors,
    # deg a < n - 1 and deg b < n, which bounds the products below by the
    # size of T
    bez_a = drop_trailing_zeros(list(bundle.bezout_a))
    bez_b = drop_trailing_zeros(list(bundle.bezout_b))
    if bez_a or bez_b:
        if len(bez_a) >= n or len(bez_b) > n:
            return Verdict.reject("bundle/separability"), None
        tprime = formal_derivative(ZZ, T)
        lhs = list_add(ZZ, list_mul(ZZ, bez_a, T), list_mul(ZZ, bez_b, tprime))
        if lhs != [N]:
            return Verdict.reject("bundle/separability"), None

    if bundle.claimed_disc is not None and bundle.claimed_disc != disc:
        reason = f"bundle/disc-claim/mismatch/claimed={bundle.claimed_disc}/det-route={disc}"
        return Verdict.reject(reason), None
    return Verdict.accept(), disc


# ---------------------------------------------------------------------------
# generator side
# ---------------------------------------------------------------------------


class BundleError(Exception):
    """Generation failed: reducible T, bad basis, or budget exhaustion."""

    def __init__(self, message: str, report: KernelWitness | None = None):
        super().__init__(message)
        self.report = report


def generate_bundle(
    T: list[int],
    d: int,
    basis_columns: list[list[int]],
    claimed_disc: int | None = None,
) -> CertificateBundle:
    """Assemble a bundle that verify_bundle accepts, or raise BundleError.

    Strategy: certify irreducibility of T, build the order and check it,
    which gives its times table, take
    N = disc(T), then per prime p | N with p^2 | disc(O) try the
    Dedekind criterion first and fall back to kernel certificates; the
    other primes of N go to `free_primes` with no certificate.  A provably nontrivial
    kernel at some p aborts with the KernelWitness attached.
    """
    T = drop_trailing_zeros(list(T))
    if deg(T) < 1 or T[-1] != 1:
        raise BundleError("defining polynomial must be monic of positive degree")

    irr = irred_int.generate_int_irred(T)
    if isinstance(irr, irred_int.ReducibleWitnessInt):
        raise BundleError(f"defining polynomial is reducible; factor {list(irr.factor)}")

    try:
        desc = build_order_description(T, d, basis_columns)
    except NotAnOrder as e:
        raise BundleError(f"basis does not span an order: {e}") from e
    ok, tt = verify_order_builder(desc, T)
    if not ok:
        raise BundleError(f"basis does not span an order: {ok.reason}")

    if theta_coordinates(desc, T) is None:
        raise BundleError("theta does not lie in the span of the basis")
    theta_q, _ = poly_divmod(ZZ, [0, d], T)
    theta_witness = mul_pointwise(ZZ, -1, theta_q)

    # T is certified irreducible, so N = disc(T) is nonzero; disc(O) by the
    # verifier's own formula, and a prime that divides [O_K : O] has
    # p^2 | disc(O), so none of them is left free
    N = resultants.disc_poly(T)
    factors = primality.factorize(abs(N))
    disc = resultants.disc_order(desc, N)
    entries: list[PrimeEntry] = []
    free: list[FactorEntry] = []
    for p, _e in factors:
        pratt = None
        if p >= primality.TRIAL_DIVISION_BOUND:
            pratt = primality.generate_pratt(p)
            if pratt is None:
                raise BundleError(f"failed to certify prime {p}")
        if disc % (p * p):
            free.append(FactorEntry(p, pratt))
            continue
        ded = maximality.generate_dedekind(T, p)
        if ded is not None:
            entries.append(PrimeEntry(p, pratt, ded))
            continue
        cert = maximality.generate_pmax(tt, p)
        if isinstance(cert, KernelWitness):
            raise BundleError(f"order is not maximal at {p}", report=cert)
        entries.append(PrimeEntry(p, pratt, cert))

    bundle = CertificateBundle(
        T=tuple(T),
        irreducibility=irr,
        order=desc,
        theta_witness=tuple(theta_witness),
        bezout_a=(),
        bezout_b=(),
        primes=tuple(entries),
        free_primes=tuple(free),
        claimed_disc=claimed_disc,
    )
    check = verify_bundle(bundle)
    if not check:
        raise BundleError(f"internal error: generated bundle fails at {check.reason}")
    return bundle
