import contextlib
import io
import time
from math import prod

import pytest

from ringcert import certio, cli, resultants
from ringcert.exactalg import (
    ZZ,
    drop_trailing_zeros,
    formal_derivative,
    list_add,
    list_mul,
    list_sub,
    poly_divmod,
)
from ringcert.maximality import DedekindCertificate
from ringcert.orders import build_order_description, verify_order_builder
from ringcert.pipeline import (
    BundleError,
    FactorEntry,
    generate_bundle,
    verify_bundle,
    verify_bundle_with_disc,
)

CUBIC_3_10 = ([-10, -3, 0, 1], 2, [[2, 0, 0], [0, 2, 0], [0, 1, -1]])
CUBIC_30_80 = ([-80, -30, 0, 1], 2, [[2, 0, 0], [0, 2, 0], [2, 0, 1]])
QUAD = ([1, -1, 1], 1, [[1, 0], [0, 1]])


def _stated_pair(T):
    """The Bezout pair earlier generators wrote, a*T + b*T' = N =
    resultant(T, T'): sympy's resultant times its gcdex cofactors."""
    sympy = pytest.importorskip("sympy")
    x = sympy.Symbol("x")
    t = sum(c * x**i for i, c in enumerate(T))
    res = sympy.resultant(t, sympy.diff(t, x), x)
    s, u, h = sympy.gcdex(t, sympy.diff(t, x), x)
    assert h == 1 and res == resultants.disc_poly(T)
    coeffs = (sympy.Poly(res * e, x).all_coeffs()[::-1] for e in (s, u))
    return tuple(tuple(drop_trailing_zeros([int(c) for c in cs])) for cs in coeffs)


def claim(bundle, disc):
    """Verify the bundle with a discriminant claim attached."""
    return verify_bundle(bundle._replace(claimed_disc=disc))


@pytest.fixture(scope="module")
def bundle_3_10():
    return generate_bundle(*CUBIC_3_10)


@pytest.fixture(scope="module")
def bundle_30_80():
    return generate_bundle(*CUBIC_30_80)


class TestBundleRoundTrip:
    def test_cubic_3_10(self, bundle_3_10):
        assert verify_bundle(bundle_3_10).accepted

    def test_cubic_3_10_prime_coverage(self, bundle_3_10):
        # resultant(T, T') = 2592 = 2^5 * 3^4, which the verifier computes
        assert resultants.disc_poly(list(bundle_3_10.T)) == 2592
        assert [e.p for e in bundle_3_10.primes] == [2, 3]

    def test_cubic_3_10_dedekind_where_possible(self, bundle_3_10):
        kinds = {e.p: type(e.cert).__name__ for e in bundle_3_10.primes}
        assert kinds[3] == "DedekindCertificate"
        assert kinds[2] != "DedekindCertificate"  # index of Z[theta] is even

    def test_cubic_30_80_with_claim(self, bundle_30_80):
        assert verify_bundle(bundle_30_80).accepted
        assert claim(bundle_30_80, -16200).accepted
        v = claim(bundle_30_80, -16201)
        assert v.reason == "bundle/disc-claim/mismatch/claimed=-16201/det-route=-16200"

    def test_quadratic_monogenic(self):
        bundle = generate_bundle(*QUAD)
        assert verify_bundle(bundle).accepted
        # disc(T) = -3, so N = resultant(T, T') = 3 in absolute value
        assert abs(resultants.disc_poly(list(bundle.T))) == 3
        assert all(
            isinstance(e.cert, DedekindCertificate) for e in bundle.primes
        )
        assert claim(bundle, -3).accepted

    def test_power_basis_not_maximal_at_2(self):
        with pytest.raises(BundleError) as exc:
            generate_bundle([-10, -3, 0, 1], 1, [[1, 0, 0], [0, 1, 0], [0, 0, 1]])
        assert exc.value.report is not None
        assert exc.value.report.p == 2
        assert any(exc.value.report.coords)

    def test_reducible_t_rejected(self):
        with pytest.raises(BundleError, match="reducible"):
            generate_bundle([-1, 0, 1], 1, [[1, 0], [0, 1]])

    def test_non_ring_basis_rejected(self):
        with pytest.raises(BundleError, match="order"):
            generate_bundle([-10, -3, 0, 1], 2, [[2, 0, 0], [0, 2, 0], [0, 0, 1]])

    def test_degree_one_field(self):
        bundle = generate_bundle([7, 1], 1, [[1]])
        assert verify_bundle(bundle).accepted
        assert bundle.primes == ()
        assert claim(bundle, 1).accepted

    def test_prime_above_trial_bound_needs_pratt(self):
        # disc(X^2 + 1000033) = -4 * 1000033 with 1000033 prime above the
        # verifier's trial-division bound, so a Pratt certificate rides along
        # (a free prime: its square does not divide the discriminant)
        bundle = generate_bundle([1000033, 0, 1], 1, [[1, 0], [0, 1]])
        assert verify_bundle(bundle).accepted
        assert [e.p for e in bundle.primes] == [2]
        (big,) = bundle.free_primes
        assert big.p == 1000033 and big.pratt is not None
        stripped = big._replace(pratt=None)
        v = verify_bundle(bundle._replace(free_primes=(stripped,)))
        assert v.reason == "bundle/prime/missing-certificate/p=1000033"


class TestBundleRejection:
    def test_missing_prime_entry(self, bundle_3_10):
        pruned = bundle_3_10._replace(primes=bundle_3_10.primes[1:])
        v = verify_bundle(pruned)
        assert not v.accepted
        assert v.reason == "bundle/prime-factorization"

    def test_listed_prime_must_divide_what_is_left(self, bundle_3_10):
        # N = 2592 = 2^5 * 3^4: each listed prime is divided out of |N| in
        # full, so one below 2, one that does not divide N, one listed twice
        # and a composite whose primes came before it are each named
        e2, e3 = bundle_3_10.primes
        for p in (5, 7, 1, 0, -2, 2 * 3):
            entry = FactorEntry(p, None)
            v = verify_bundle(bundle_3_10._replace(free_primes=(entry,)))
            assert v.reason == f"bundle/prime-factorization/p={p}", p
        v = verify_bundle(bundle_3_10._replace(primes=(e2, e3, e2)))
        assert v.reason == "bundle/prime-factorization/p=2"

    def test_huge_listed_prime_rejected_quickly(self, bundle_3_10):
        # a prime entry's exponent is not written, so the work of the
        # factorization check is bounded by the divisions of |N| alone
        p = 10**4299 + 1
        entry = bundle_3_10.primes[0]._replace(p=p)
        bad = bundle_3_10._replace(primes=(entry,) + bundle_3_10.primes[1:])
        start = time.perf_counter()
        v = verify_bundle(bad)
        assert time.perf_counter() - start < 1.0
        assert v.reason == f"bundle/prime-factorization/p={p}"

    def test_generated_bezout_pair_is_empty(self, bundle_3_10):
        # N = disc(T) != 0 is the separability check, so no pair is written
        assert bundle_3_10.bezout_a == bundle_3_10.bezout_b == ()
        assert verify_bundle(bundle_3_10).accepted

    def test_corpus_edits_of_the_empty_pair_rejected(self, bundle_3_10):
        # the hostile corpus bumps the empty pair to (1,): a stated pair is
        # checked, and neither T nor T' alone is the constant N
        for field in ("bezout_a", "bezout_b"):
            v = verify_bundle(bundle_3_10._replace(**{field: (1,)}))
            assert v.reason == "bundle/separability", field

    def test_mutated_bezout(self, bundle_3_10):
        # a stated pair, as earlier generators wrote it, is checked
        a, b = _stated_pair(CUBIC_3_10[0])
        assert verify_bundle(bundle_3_10._replace(bezout_a=a, bezout_b=b)).accepted
        bad = bundle_3_10._replace(bezout_a=tuple(x + 1 for x in a), bezout_b=b)
        v = verify_bundle(bad)
        assert not v.accepted and v.reason == "bundle/separability"

    def test_long_bezout_pair_rejected(self, bundle_3_10):
        # (a + c*X^m*T', b - c*X^m*T) is another valid pair; past the
        # extended-gcd degrees it is refused before any product is formed
        T = CUBIC_3_10[0]
        tprime = formal_derivative(ZZ, T)
        stated_a, stated_b = _stated_pair(T)
        for c in (7, 10**4000):
            a = list_add(ZZ, list(stated_a), [0] * 10**4 + [c * t for t in tprime])
            b = list_sub(ZZ, list(stated_b), [0] * 10**4 + [c * t for t in T])
            if c == 7:
                lhs = list_add(ZZ, list_mul(ZZ, a, T), list_mul(ZZ, b, tprime))
                assert lhs == [resultants.disc_poly(T)]
            start = time.perf_counter()
            v = verify_bundle(bundle_3_10._replace(bezout_a=a, bezout_b=b))
            assert time.perf_counter() - start < 1.0
            assert v.reason == "bundle/separability"

    def test_long_theta_witness_rejected_quickly(self, bundle_3_10):
        witness = tuple(range(-5000, 5000)) + (-(10**4299),)
        bad = bundle_3_10._replace(theta_witness=witness)
        start = time.perf_counter()
        v = verify_bundle(bad)
        assert time.perf_counter() - start < 1.0
        assert v.reason == "bundle/theta"

    def test_tampered_theta_witness_rejected(self, bundle_3_10):
        # theta's coordinates are not written: d*X + T*witness must
        # back-substitute through B, and any nonzero witness lifts it to
        # degree >= n
        assert bundle_3_10.theta_witness == ()
        for witness in ((1,), (-2,), (0, 1), (2, 0, 0, 1)):
            v = verify_bundle(bundle_3_10._replace(theta_witness=witness))
            assert v.reason == "bundle/theta", witness

    def test_theta_outside_the_order_rejected(self):
        # Z[2i] = span{1, 2i} is an order of Q(i) without theta = i: X
        # does not back-substitute through B = diag(1, 2)
        gauss = generate_bundle([1, 0, 1], 1, [[1, 0], [0, 1]])
        order = build_order_description([1, 0, 1], 1, [[1, 0], [0, 2]])
        assert verify_order_builder(order, [1, 0, 1])[0].accepted
        v = verify_bundle(gauss._replace(order=order))
        assert v.reason == "bundle/theta"

    def test_swapped_maximality_prime(self, bundle_3_10):
        # rebind the p=3 certificate under the p=2 entry
        e2, e3 = bundle_3_10.primes
        forged = e2._replace(cert=e3.cert)
        v = verify_bundle(
            bundle_3_10._replace(primes=(forged, e3))
        )
        assert not v.accepted and v.reason.startswith("bundle/p=2")

    def test_foreign_irreducibility_certificate(self, bundle_3_10):
        other = generate_bundle(*CUBIC_30_80)
        bad = bundle_3_10._replace(irreducibility=other.irreducibility)
        v = verify_bundle(bad)
        assert not v.accepted and v.reason == "bundle/irred/binding"

    def test_certified_prime_moved_to_free_primes(self, bundle_3_10):
        # disc(O) = -648 = -2^3 * 3^4: both primes need their certificate
        for k, entry in enumerate(bundle_3_10.primes):
            rest = bundle_3_10.primes[:k] + bundle_3_10.primes[k + 1:]
            free = (FactorEntry(entry.p, entry.pratt),)
            v = verify_bundle(bundle_3_10._replace(primes=rest, free_primes=free))
            assert v.reason == f"bundle/p={entry.p}/needs-certificate"

    def test_prime_in_both_lists(self, bundle_3_10):
        entry = bundle_3_10.primes[1]
        free = (FactorEntry(entry.p, entry.pratt),)
        v = verify_bundle(bundle_3_10._replace(free_primes=free))
        assert v.reason == f"bundle/prime-factorization/p={entry.p}"


class TestHigherDegree:
    def test_degree6_cyclotomic(self):
        # 7th cyclotomic field: monogenic, disc -7^5
        phi7 = [1, 1, 1, 1, 1, 1, 1]
        identity = [[1 if i == j else 0 for i in range(6)] for j in range(6)]
        bundle = generate_bundle(phi7, 1, identity)
        assert verify_bundle(bundle).accepted
        assert claim(bundle, -16807).accepted

    def test_degree8_cyclotomic(self):
        # 16th cyclotomic field: X^8+1 is reducible mod every prime, so the
        # prime-witness route carries irreducibility; disc 2^24
        phi16 = [1, 0, 0, 0, 0, 0, 0, 0, 1]
        identity = [[1 if i == j else 0 for i in range(8)] for j in range(8)]
        bundle = generate_bundle(phi16, 1, identity)
        assert verify_bundle(bundle).accepted
        assert claim(bundle, 2**24).accepted
        from ringcert.irred_int import LPFWCertificate

        assert isinstance(bundle.irreducibility, LPFWCertificate)

    def test_degree8_large_index_kernel_certificate(self):
        # same field through theta = 2*zeta_16: power-basis index 2^28, so
        # p = 2 needs a rank-8 kernel certificate
        T = [256, 0, 0, 0, 0, 0, 0, 0, 1]
        cols = [[(1 << (7 - j)) if i == j else 0 for i in range(8)] for j in range(8)]
        bundle = generate_bundle(T, 128, cols)
        assert verify_bundle(bundle).accepted
        assert claim(bundle, 2**24).accepted
        kinds = {e.p: type(e.cert).__name__ for e in bundle.primes}
        assert kinds[2] in ("PMaxShortCertificate", "PMaxLongCertificate")


def _assert_prime_split(bundle, disc):
    """Every prime of N carries a maximality certificate exactly when its
    square divides disc(O), and disc(O) is the expected value."""
    assert resultants.disc_order(bundle.order, resultants.disc_poly(list(bundle.T))) == disc
    assert all(disc % (e.p * e.p) == 0 for e in bundle.primes)
    assert all(disc % (e.p * e.p) != 0 for e in bundle.free_primes)
    assert verify_bundle_with_disc(bundle) == (verify_bundle(bundle), disc)


def test_fixture_bundles_certify_exactly_the_primes_squared_in_disc():
    # the textbook discriminants recorded with the fixtures
    for name, fx in certio.FIXTURES.items():
        if fx["columns"] is None:
            continue
        bundle = generate_bundle(list(fx["T"]), fx["d"], [list(c) for c in fx["columns"]])
        assert verify_bundle(bundle).accepted, name
        _assert_prime_split(bundle, fx["disc"])


def _cli(*args) -> tuple[int, str, str]:
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = cli.main(list(args))
    return code, out.getvalue(), err.getvalue()


def _cyclotomic(m: int) -> list[int]:
    """Phi_m = (X^m - 1) / prod_{d | m, d < m} Phi_d over Z."""
    phi = [-1] + [0] * (m - 1) + [1]
    for d in range(1, m):
        if m % d == 0:
            phi, rem = poly_divmod(ZZ, phi, _cyclotomic(d))
            assert rem == []
    return phi


def _prime_powers(m: int) -> dict[int, int]:
    out, q = {}, 2
    while m > 1:
        while m % q == 0:
            out[q], m = out.get(q, 0) + 1, m // q
        q += 1
    return out


@pytest.mark.parametrize("m", [8, 9, 12, 15, 16, 20, 21, 24, 25, 27, 28, 36])
def test_cyclotomic_power_basis_closed_form(m, tmp_path):
    # Z[zeta_m] is the ring of integers of Q(zeta_m), whose discriminant is
    # (-1)^(phi/2) m^phi / prod_{p | m} p^(phi/(p-1)), phi = phi(m); and
    # Phi_m = Phi_m'^phi(p^k) mod p at p^k || m, Phi_m' squarefree mod p,
    # so every entry is Dedekind with radical exponent phi(p^k)
    T = _cyclotomic(m)
    n = len(T) - 1
    powers = _prime_powers(m)
    assert n == m * prod(p - 1 for p in powers) // prod(powers)
    disc = (-1) ** (n // 2) * m**n // prod(p ** (n // (p - 1)) for p in powers)
    bundle = generate_bundle(T, 1, [[int(i == j) for i in range(n)] for j in range(n)])
    assert verify_bundle(bundle).accepted
    path = tmp_path / "bundle.json"
    certio.write_file(path, bundle)
    assert _cli("disc", str(path)) == (0, f"{disc}\n", "")
    _assert_prime_split(bundle, disc)
    assert {e.p: e.cert.rad_power_exp for e in bundle.primes} == {
        p: (p - 1) * p ** (k - 1) for p, k in powers.items()
    }


@pytest.mark.parametrize("m", [2, 3, 5, 6, 7, 10, 11, 17, 19, 26, 30, 35])
def test_pure_cubic_closed_form(m, tmp_path):
    # Dedekind's pure cubic fields Q(cbrt m), m squarefree: Z[theta] is the
    # ring of integers, of discriminant -27 m^2, unless m = +-1 (mod 9);
    # then Z[theta] has index 3, and Z + Z theta + Z (1 +- theta + theta^2)/3,
    # with the sign of m mod 9, has discriminant -3 m^2
    poly, basis, bundle = (str(tmp_path / name) for name in ("T.json", "B.json", "bundle.json"))
    certio.write_file(poly, certio.InputPolynomial((-m, 0, 0, 1)))
    certio.write_file(basis, certio.InputOrderBasis(1, ((1, 0, 0), (0, 1, 0), (0, 0, 1))))
    code, _out, err = _cli("gen", "bundle", poly, basis, "-o", bundle)
    sign = {1: 1, 8: -1}.get(m % 9)
    if sign is None:
        assert code == 0, err
        disc = -27 * m**2
    else:
        assert code == 1 and "not maximal at 3" in err, err
        certio.write_file(basis, certio.InputOrderBasis(3, ((3, 0, 0), (0, 3, 0), (1, sign, 1))))
        assert _cli("gen", "bundle", poly, basis, "-o", bundle)[0] == 0
        disc = -3 * m**2
    assert _cli("verify", bundle)[0] == 0
    assert _cli("disc", bundle) == (0, f"{disc}\n", "")
    _assert_prime_split(certio.parse_file(bundle), disc)


@pytest.mark.parametrize("d", [-11, -7, -5, -3, -2, -1, 2, 3, 5, 6, 7, 13])
def test_quadratic_closed_form(d, tmp_path):
    # Q(sqrt d), d squarefree: the ring of integers is Z[theta], theta^2 = d,
    # of discriminant 4d when d = 2, 3 (mod 4), and Z[(1 + theta)/2], of
    # discriminant d, when d = 1 (mod 4), where Z[theta] has index 2
    poly, basis, bundle = (str(tmp_path / name) for name in ("T.json", "B.json", "bundle.json"))
    certio.write_file(poly, certio.InputPolynomial((-d, 0, 1)))
    certio.write_file(basis, certio.InputOrderBasis(1, ((1, 0), (0, 1))))
    code, _out, err = _cli("gen", "bundle", poly, basis, "-o", bundle)
    if d % 4 == 1:
        assert code == 1 and "not maximal at 2" in err, err
        certio.write_file(basis, certio.InputOrderBasis(2, ((2, 0), (1, 1))))
        assert _cli("gen", "bundle", poly, basis, "-o", bundle)[0] == 0
        disc = d
    else:
        assert code == 0, err
        disc = 4 * d
    assert _cli("verify", bundle)[0] == 0
    assert _cli("disc", bundle) == (0, f"{disc}\n", "")
    _assert_prime_split(certio.parse_file(bundle), disc)


class TestDedekindPreference:
    def test_kernel_certified_primes_fail_dedekind(self, bundle_3_10, bundle_30_80):
        from ringcert.maximality import generate_dedekind

        for bundle in (bundle_3_10, bundle_30_80):
            for entry in bundle.primes:
                if not isinstance(entry.cert, DedekindCertificate):
                    assert generate_dedekind(list(bundle.T), entry.p) is None
