import hashlib
import json
import random
import time

import pytest

from ringcert import certio, maximality
from ringcert.certio import FIXTURES
from ringcert.exactalg import ZZ, list_pow, poly_divmod, reduce_mod_p
from ringcert.linalg import transpose
from ringcert.maximality import (
    DedekindCertificate,
    KernelWitness,
    PMaxLongCertificate,
    PMaxShortCertificate,
    WITNESS_BUDGET,
    _action_matrix,
    _candidate_images,
    _search_witness,
    _vw_combination,
    _vw_decomposer,
    frobenius_kernel_basis,
    generate_dedekind,
    generate_pmax,
    minimal_frobenius_exponent,
    verify_dedekind,
    verify_pmax_long,
    verify_pmax_short,
)
from ringcert.orders import (
    TimesTable,
    build_order_description,
    reduce_table_mod_p,
    tt_mul,
    tt_pow,
    verify_order_builder,
)
from ringcert.primality import sieve_primes
from ringcert.resultants import disc_poly
import reference
from reference import det_bareiss, integral, lattice_index, solve_exact

CUBIC_3_10 = ([-10, -3, 0, 1], 2, [[2, 0, 0], [0, 2, 0], [0, 1, -1]])
CUBIC_30_80 = ([-80, -30, 0, 1], 2, [[2, 0, 0], [0, 2, 0], [2, 0, 1]])
DEDEKIND_CUBIC = ([-8, -2, -1, 1], 2, [[2, 0, 0], [0, 2, 0], [0, 1, 1]])
GAUSS = ([1, 0, 1], 1, [[1, 0], [0, 1]])
FIXTURE_ORDERS = [name for name, fx in FIXTURES.items() if fx["columns"] is not None]
NOT_MAXIMAL_AT_2 = {"power-x3-3x-10": [-10, -3, 0, 1], "power-x5-8": [-8, 0, 0, 0, 0, 1]}
POWER_BASES = {**NOT_MAXIMAL_AT_2, "power-x6+2x-8": [-8, 2, 0, 0, 0, 0, 1]}


def power_basis(T):
    n = len(T) - 1
    return (T, 1, [[int(i == j) for i in range(n)] for j in range(n)])


def count_calls(monkeypatch, **names):
    """Wrap each maximality function named in the values; the returned dict
    counts its calls under the key."""
    calls = dict.fromkeys(names, 0)
    for key, name in names.items():
        def wrapper(*args, real=getattr(maximality, name), key=key, **kwargs):
            calls[key] += 1
            return real(*args, **kwargs)
        monkeypatch.setattr(maximality, name, wrapper)
    return calls


def order_and_table(spec):
    T, d, cols = spec
    desc = build_order_description(T, d, cols)
    return desc, verify_order_builder(desc, T)[1]


@pytest.fixture(scope="module")
def dedekind_below_n():
    """Generated certificates whose radical exponent is below n: X^5 - X - 1
    at 19 and 151, and seeded random T at the primes of disc(T)."""
    entries = [([-1, -1, 0, 0, 0, 1], p) for p in (19, 151)]
    rng = random.Random(21)
    for _ in range(80):
        n = rng.randrange(3, 9)
        T = [rng.randrange(-6, 7) for _ in range(n)] + [1]
        disc = disc_poly(T)
        entries += [(T, p) for p in (2, 3, 5, 7) if disc and disc % p == 0]
    certs = [(T, p, generate_dedekind(T, p)) for T, p in entries]
    certs = [(T, p, c) for T, p, c in certs if c is not None and c.rad_power_exp < len(T) - 1]
    assert len(certs) > 40 and max(c.rad_power_exp for _T, _p, c in certs) >= 3
    return certs


class TestDedekind:
    def test_irreducible_reduction_accepts(self):
        cert = generate_dedekind([1, -1, 1], 2)
        assert cert is not None
        assert list(cert.h) == [1]
        assert verify_dedekind([1, -1, 1], 2, cert).accepted

    def test_irreducible_reduction_hand_built(self):
        # T = X^2 - X + 1 at p = 2: take g = T itself, h = 1, f = 0
        cert = DedekindCertificate(
            g=(1, -1, 1), h=(1,), f=(),
            a=(), b=(), c=(1,),
            rad_power_exp=2,
            rad_power_witness=(1, 1, 1),
            sqfree_u=(), sqfree_v=(1,),
        )
        assert verify_dedekind([1, -1, 1], 2, cert).accepted

    def test_squarefree_reduction_accepts(self):
        cert = generate_dedekind([-10, -3, 0, 1], 5)
        assert cert is not None
        assert verify_dedekind([-10, -3, 0, 1], 5, cert).accepted

    def test_x_squared_at_2_fails(self):
        assert generate_dedekind([0, 0, 1], 2) is None

    def test_index_prime_fails(self):
        # 2 divides [O_K : Z[theta]] for both anchor cubics
        assert generate_dedekind([-10, -3, 0, 1], 2) is None
        assert generate_dedekind([-80, -30, 0, 1], 2) is None

    def test_dedekind_cubic_at_2_fails(self):
        # the classical non-monogenic cubic: 2 divides every power-basis index
        assert generate_dedekind([-8, -2, -1, 1], 2) is None

    def test_accepts_at_3_for_anchor(self):
        cert = generate_dedekind([-10, -3, 0, 1], 3)
        assert cert is not None and verify_dedekind([-10, -3, 0, 1], 3, cert).accepted

    def test_squarefree_primes_always_work(self):
        rng = random.Random(2)
        for _ in range(40):
            T = [rng.randrange(-9, 10) for _ in range(3)] + [1]
            disc = disc_poly(T)
            if disc == 0:
                continue
            for p in (2, 3, 5, 7, 11):
                if disc % p:
                    cert = generate_dedekind(T, p)
                    assert cert is not None, (T, p)
                    assert list(cert.h) in ([1],) or len(cert.h) >= 1
                    assert verify_dedekind(T, p, cert).accepted, (T, p)

    def test_generated_certificates_verify(self):
        # generate_dedekind returns None exactly when the criterion fails, so
        # the bundle generator takes every certificate it returns unchecked
        rng = random.Random(13)
        primes = sieve_primes(10**5)
        accepted = failed = 0
        for _ in range(150):
            n = rng.randrange(2, 10)
            T = [rng.randrange(-6, 7) for _ in range(n)] + [1]
            disc = disc_poly(T)
            for p in (p for p in primes if disc and disc % p == 0):
                cert = generate_dedekind(T, p)
                if cert is None:
                    failed += 1
                    continue
                assert verify_dedekind(T, p, cert).accepted, (T, p)
                accepted += 1
        assert accepted > 100 and failed > 10, (accepted, failed)

    @staticmethod
    def _with_exponent(T, p, cert, e):
        """cert with radical exponent e and the floor quotient
        gbar^e // (T mod p) as its witness."""
        power = list_pow(p, reduce_mod_p(list(cert.g), p), e)
        witness = poly_divmod(p, power, reduce_mod_p(T, p))[0]
        return cert._replace(rad_power_exp=e, rad_power_witness=tuple(witness))

    def test_exponent_is_the_largest_multiplicity(self, dedekind_below_n):
        # against sympy's factorization of T mod p; the exponent is the
        # smallest, since gbar^(e - 1) leaves a remainder mod T
        sympy = pytest.importorskip("sympy")
        for T, p, cert in dedekind_below_n:
            e = cert.rad_power_exp
            poly = sympy.Poly(T[::-1], sympy.Symbol("x"), modulus=p)
            assert e == max(m for _f, m in poly.factor_list()[1]), (T, p)
            gbar = reduce_mod_p(list(cert.g), p)
            assert poly_divmod(p, list_pow(p, gbar, e - 1), reduce_mod_p(T, p))[1], (T, p)

    def test_exponent_n_still_accepted(self, dedekind_below_n):
        # the entry as generators wrote it before: exponent n, witness
        # gbar^n / (T mod p)
        for T, p, cert in dedekind_below_n:
            assert verify_dedekind(T, p, self._with_exponent(T, p, cert, len(T) - 1)).accepted

    def test_exponent_below_the_multiplicity_rejected(self, dedekind_below_n):
        for T, p, cert in dedekind_below_n:
            if cert.rad_power_exp >= 2:
                v = verify_dedekind(T, p, self._with_exponent(T, p, cert, cert.rad_power_exp - 1))
                assert v.reason == "dedekind/radical-power", (T, p)

    def test_exponent_out_of_range_rejected(self, dedekind_below_n):
        for T, p, cert in dedekind_below_n:
            for e in (0, len(T)):
                v = verify_dedekind(T, p, self._with_exponent(T, p, cert, e))
                assert v.reason == "dedekind/radical-exponent", (T, p, e)

    def test_mutations_rejected(self):
        cert = generate_dedekind([-10, -3, 0, 1], 5)
        rng = random.Random(8)
        rejected = 0
        for _ in range(120):
            field_name = rng.choice(["g", "h", "f", "a", "b", "c", "rad_power_witness"])
            val = list(getattr(cert, field_name))
            if not val:
                val = [0]
            i = rng.randrange(len(val))
            val[i] += rng.randrange(1, 5)
            bad = cert._replace(**{field_name: tuple(val)})
            v = verify_dedekind([-10, -3, 0, 1], 5, bad)
            if not v.accepted:
                assert v.reason
                rejected += 1
        assert rejected >= 110  # every mutation must be caught

    def test_wide_lift_rejected_before_the_product(self):
        # g padded to 2000 entries with a 4300-digit multiple of p^2 on
        # top, and f adjusted so that p*f = g*h - T still holds: every
        # residue mod p is unchanged, but deg g + deg h exceeds n
        T, p = [-10, -3, 0, 1], 3
        cert = generate_dedekind(T, p)
        k = p * 10**4299
        g = list(cert.g) + [0] * (1999 - len(cert.g)) + [p * k]
        f = list(cert.f) + [0] * (1999 + len(cert.h) - len(cert.f))
        for i, hi in enumerate(cert.h):
            f[1999 + i] += k * hi
        wide = cert._replace(g=tuple(g), f=tuple(f))
        assert len(g) == 2000 and len(str(p * k)) == 4300
        start = time.perf_counter()
        v = verify_dedekind(T, p, wide)
        assert time.perf_counter() - start < 1.0
        assert v.reason == "dedekind/factor-identity"


class TestFrobeniusKernel:
    def test_dual_numbers(self):
        # O = Z[X]/X^2 at p = 2: kernel of Frobenius is spanned by epsilon
        table = TimesTable(2, (((1, 0), (0, 1)), ((0, 1), (0, 0))))
        t = minimal_frobenius_exponent(2, 2)
        assert t == 1
        vbar, nu, w, u = frobenius_kernel_basis(table, 2, t)
        assert vbar == [[0, 1]] and nu == [1]

    def test_field_case(self):
        # linear T: O/pO is the prime field, Frobenius injective
        _, table = order_and_table(([3, 1], 1, [[1]]))
        vbar, nu, w, u = frobenius_kernel_basis(table, 5, minimal_frobenius_exponent(5, 1))
        assert vbar == []

    def test_gauss_split_prime(self):
        _, table = order_and_table(GAUSS)
        vbar, *_ = frobenius_kernel_basis(table, 5, minimal_frobenius_exponent(5, 2))
        assert vbar == []  # X^2+1 splits mod 5, Frobenius bijective

    def test_gauss_ramified_prime(self):
        _, table = order_and_table(GAUSS)
        vbar, *_ = frobenius_kernel_basis(table, 2, minimal_frobenius_exponent(2, 2))
        assert len(vbar) == 1  # 2 ramifies in Z[i]

    def test_unimodular_stack(self):
        for spec, p in [(CUBIC_3_10, 2), (CUBIC_30_80, 2), (DEDEKIND_CUBIC, 2)]:
            _, table = order_and_table(spec)
            t = minimal_frobenius_exponent(p, table.n)
            vbar, nu, w, u = frobenius_kernel_basis(table, p, t)
            stacked = [list(r) for r in vbar] + [list(r) for r in w]
            assert abs(det_bareiss(stacked)) == 1


class TestPMaxCertificates:
    @pytest.mark.parametrize("spec,p", [(CUBIC_3_10, 2), (CUBIC_3_10, 3),
                                        (CUBIC_30_80, 2), (CUBIC_30_80, 3), (CUBIC_30_80, 5),
                                        (DEDEKIND_CUBIC, 2), (DEDEKIND_CUBIC, 503)])
    def test_generate_and_verify(self, spec, p):
        desc, table = order_and_table(spec)
        cert = generate_pmax(table, p)
        assert not isinstance(cert, KernelWitness), (spec[0], p)
        if isinstance(cert, PMaxShortCertificate):
            assert verify_pmax_short(table, p, cert).accepted, (spec[0], p)
        else:
            assert verify_pmax_long(table, p, cert).accepted, (spec[0], p)

    def test_soundness_against_index_oracle(self):
        # acceptance at p must imply p does not divide the index of the
        # order inside the fixture's known maximal order; the power basis
        # Z[alpha] (index 2) exercises both outcomes
        power_3_10 = ([-10, -3, 0, 1], 2, [[2, 0, 0], [0, 2, 0], [0, 0, 2]])
        for spec, maximal_spec, ps in [
            (CUBIC_3_10, CUBIC_3_10, (2, 3, 5)),
            (CUBIC_30_80, CUBIC_30_80, (2, 3, 5)),
            (power_3_10, CUBIC_3_10, (2, 3, 5)),
        ]:
            desc, table = order_and_table(spec)
            maximal, _ = order_and_table(maximal_spec)
            bmax = [[maximal.basis_columns[j][i] for j in range(3)] for i in range(3)]
            bo = [[desc.basis_columns[j][i] for j in range(3)] for i in range(3)]
            # scale both coordinate matrices to a common denominator
            bmax_scaled = [[x * desc.d for x in row] for row in bmax]
            bo_scaled = [[x * maximal.d for x in row] for row in bo]
            idx = lattice_index(bmax_scaled, bo_scaled)
            for p in ps:
                cert = generate_pmax(table, p)
                if isinstance(cert, KernelWitness):
                    assert idx % p == 0, (spec[0], p)
                    continue
                if isinstance(cert, PMaxShortCertificate):
                    assert verify_pmax_short(table, p, cert).accepted
                else:
                    assert verify_pmax_long(table, p, cert).accepted
                assert idx % p != 0, (spec[0], p)

    def test_power_basis_not_maximal_at_2(self):
        # Z[alpha] inside the 3-10 cubic has index 2
        _, table = order_and_table(([-10, -3, 0, 1], 1, [[1, 0, 0], [0, 1, 0], [0, 0, 1]]))
        out = generate_pmax(table, 2)
        assert isinstance(out, KernelWitness)
        assert any(x % 2 for x in out.coords)

    def test_dedekind_cubic_power_basis_not_maximal_at_2(self):
        _, table = order_and_table(([-8, -2, -1, 1], 1, [[1, 0, 0], [0, 1, 0], [0, 0, 1]]))
        out = generate_pmax(table, 2)
        assert isinstance(out, KernelWitness)

    def test_unramified_simplified_form(self):
        _, table = order_and_table(GAUSS)
        cert = generate_pmax(table, 5)
        assert isinstance(cert, PMaxShortCertificate)
        assert cert.V == () and cert.X == ()
        assert verify_pmax_short(table, 5, cert).accepted

    def test_exponent_is_the_minimal_one(self, monkeypatch):
        # an oversized t would let a hostile certificate stall the verifier,
        # so the verifier takes the smallest t with p^t >= r itself; a file
        # in the earlier format whose "t" claims more parses to the same
        # certificate and is raised to p^t for the minimal t only
        _, table = order_and_table(CUBIC_3_10)
        cert = generate_pmax(table, 2)
        assert isinstance(cert, PMaxShortCertificate)
        t = minimal_frobenius_exponent(2, table.n)
        payload = json.loads(certio.serialize(cert))["payload"]
        payload.update(p="2", t=str(t + 1), m=str(len(cert.V)), n=str(len(cert.W)))
        digest = hashlib.sha256(certio._canonical_inner("pmax-short", payload)).hexdigest()
        envelope = {"integrity": f"sha256:{digest}", "kind": "pmax-short",
                    "payload": payload, "schema_version": certio.SCHEMA_VERSION}
        assert certio.parse(json.dumps(envelope).encode()) == cert
        exponents = []

        def recorded(p, tt, x, e):
            exponents.append(e)
            return tt_pow(p, tt, x, e)

        monkeypatch.setattr(maximality, "tt_pow", recorded)
        assert verify_pmax_short(table, 2, cert).accepted
        assert exponents and set(exponents) == {2**t}

    def test_pivot_scaling_invariance(self):
        # scaling a V row by a unit keeps the pivot pattern alive
        desc, table = order_and_table(CUBIC_3_10)
        cert = generate_pmax(table, 3)
        if isinstance(cert, PMaxShortCertificate) and cert.V:
            v = [list(r) for r in cert.V]
            v[0] = [2 * x for x in v[0]]
            bad = cert._replace(V=tuple(tuple(r) for r in v))
            out = verify_pmax_short(table, 3, bad)
            # pattern checks (i)/(iv) still pass; (vi) ties V exactly, so
            # the doubled row must surface there if anywhere
            if not out.accepted:
                assert "check-vi" in out.reason

    def test_mutate_c_entry_rejected(self):
        desc, table = order_and_table(CUBIC_30_80)
        cert = generate_pmax(table, 2)
        if isinstance(cert, PMaxShortCertificate):
            c = [list(r) for r in cert.c]
            c[0][0] += 1
            bad = cert._replace(c=tuple(tuple(r) for r in c))
            v = verify_pmax_short(table, 2, bad)
        else:
            c = [[list(b) for b in blk] for blk in cert.c]
            if not c or not c[0] or not c[0][0]:
                pytest.skip("no c entries in this fixture")
            c[0][0][0] += 1
            bad = cert._replace(c=tuple(tuple(tuple(b) for b in blk) for blk in c))
            v = verify_pmax_long(table, 2, bad)
        assert not v.accepted and v.reason

    def test_long_form_generates_and_verifies(self, monkeypatch):
        monkeypatch.setattr(maximality, "WITNESS_BUDGET", 0)
        for spec, p in [(CUBIC_3_10, 2), (CUBIC_30_80, 2), (CUBIC_30_80, 3)]:
            desc, table = order_and_table(spec)
            cert = generate_pmax(table, p)
            assert isinstance(cert, PMaxLongCertificate), (spec[0], p)
            assert verify_pmax_long(table, p, cert).accepted, (spec[0], p)

    def test_long_form_mutation_rejected(self, monkeypatch):
        monkeypatch.setattr(maximality, "WITNESS_BUDGET", 0)
        desc, table = order_and_table(CUBIC_3_10)
        cert = generate_pmax(table, 2)
        assert isinstance(cert, PMaxLongCertificate)
        dd = [[list(b) for b in blk] for blk in cert.d]
        dd[0][0][0] += 1
        bad = cert._replace(d=tuple(tuple(tuple(b) for b in blk) for blk in dd))
        v = verify_pmax_long(table, 2, bad)
        assert not v.accepted and v.reason.startswith("pmax-long/check-")

    def test_exponentiation_matches_naive(self):
        # square-and-multiply vs repeated multiplication, up to p^t = 3^5
        desc, table = order_and_table(CUBIC_3_10)
        for p in (2, 3):
            tt_p = reduce_table_mod_p(table, p)
            rng = random.Random(p)
            for e in (1, 2, 3, 4, p**2, p**3, p**5):
                for _ in range(8):
                    x = [rng.randrange(p) for _ in range(3)]
                    fast = tt_pow(p, tt_p, x, e)
                    slow = x
                    for _ in range(e - 1):
                        slow = tt_mul(p, tt_p, slow, x)
                    from ringcert.exactalg import drop_trailing_zeros

                    assert fast == drop_trailing_zeros(list(slow))


class TestWitnessSearch:
    def test_rank_one_case(self):
        _, table = order_and_table(([3, 1], 1, [[1]]))
        cert = generate_pmax(table, 3)
        assert isinstance(cert, PMaxShortCertificate)
        assert verify_pmax_short(table, 3, cert).accepted

    def test_witness_none_is_normal(self):
        desc, table = order_and_table(CUBIC_3_10)
        t = minimal_frobenius_exponent(2, 3)
        vbar, nu, w, u = frobenius_kernel_basis(table, 2, t)
        if vbar:
            phi = _action_matrix(table, 2, vbar, w, _vw_decomposer(vbar, w, 2))
            out = _search_witness(3, len(vbar), 2, phi, WITNESS_BUDGET)
            assert out is None or len(out[0]) == len(vbar)

    def test_accepted_witness_is_eliminated_once(self, monkeypatch):
        # X^3 - 211X - 122 at 2, the golden bundle's short-form prime: the
        # kernel basis's pattern reduction, phi's, and six candidates, each
        # with its images taken from phi and reduced once; the accepted
        # witness's integer images, from phi once more, write a and c
        calls = count_calls(
            monkeypatch, candidates="_candidate_images", eliminations="pattern_reduce_fp")
        _, table = order_and_table(([-122, -211, 0, 1], 2, [[2, 0, 0], [0, 2, 0], [0, 1, -1]]))
        cert = generate_pmax(table, 2)
        assert isinstance(cert, PMaxShortCertificate)
        assert calls == {"candidates": 6 + 1, "eliminations": 2 + 6}

    @pytest.mark.parametrize("name", NOT_MAXIMAL_AT_2)
    def test_not_maximal_skips_the_search(self, name, monkeypatch):
        # phi is singular, so no candidate can succeed: the kernel basis and
        # phi are eliminated, and phi's left kernel is the answer
        _, table = order_and_table(power_basis(NOT_MAXIMAL_AT_2[name]))
        expected = reference.generate_pmax(table, 2, WITNESS_BUDGET)
        assert isinstance(expected, KernelWitness)
        calls = count_calls(
            monkeypatch, candidates="_candidate_images", eliminations="pattern_reduce_fp")
        assert generate_pmax(table, 2) == expected
        assert calls == {"candidates": 0, "eliminations": 2}

    @pytest.mark.parametrize("p", [2, 3, 5, 503])
    @pytest.mark.parametrize("name", [*FIXTURE_ORDERS, *POWER_BASES])
    def test_matches_the_parent_generator(self, name, p, monkeypatch):
        if name in POWER_BASES:
            spec = power_basis(POWER_BASES[name])
        else:
            fx = FIXTURES[name]
            spec = (list(fx["T"]), fx["d"], [list(c) for c in fx["columns"]])
        _, table = order_and_table(spec)
        r = table.n
        for budget in (WITNESS_BUDGET, 0):
            monkeypatch.setattr(maximality, "WITNESS_BUDGET", budget)
            assert generate_pmax(table, p) == reference.generate_pmax(table, p, budget)

        V, _nu, W, _u = frobenius_kernel_basis(table, p, minimal_frobenius_exponent(p, r))
        if not V:
            return  # unramified: no phi, no witness
        decompose = _vw_decomposer(V, W, p)
        phi = _action_matrix(table, p, V, W, decompose)
        rng = random.Random(f"{name}/{p}")
        for _ in range(20):
            beta = [rng.randrange(-p, p) for _ in V]
            gamma = [rng.randrange(-p, p) for _ in W]
            beta_w = _vw_combination(V, W, beta, gamma, p, r)
            assert (_candidate_images(phi, p, beta + gamma)
                    == reference.witness_images(table, p, decompose, beta_w))


def _fraction_decomposition(V, W, p, y):
    """(a, c) with y = sum a_k V_k + p sum c_k W_k, from a Gauss-Jordan
    solve over Q of [V; W]^T x = y."""
    y = list(y) + [0] * (len(V[0]) - len(y))
    x = integral(solve_exact(transpose([list(r) for r in V] + [list(r) for r in W]), y))
    assert x is not None
    m = len(V)
    assert all(b % p == 0 for b in x[m:])
    return x[:m], [b // p for b in x[m:]]



class TestDecomposer:
    @pytest.mark.parametrize("name", FIXTURE_ORDERS)
    @pytest.mark.parametrize("p", [2, 3, 5, 503])
    def test_matches_fraction_solve(self, name, p, monkeypatch):
        fx = FIXTURES[name]
        _, table = order_and_table((list(fx["T"]), fx["d"], [list(c) for c in fx["columns"]]))
        r = table.n
        vbar, _nu, w, _u = frobenius_kernel_basis(
            table, p, minimal_frobenius_exponent(p, r))
        if not vbar:
            return  # unramified: nothing is decomposed
        decompose = _vw_decomposer(vbar, w, p)
        rng = random.Random(f"{name}/{p}")
        for _ in range(20):
            a = [rng.randrange(-p**3, p**3) for _ in vbar]
            c = [rng.randrange(-p**3, p**3) for _ in w]
            y = _vw_combination(vbar, w, a, c, p, r)
            assert decompose(y) == (a, c) == _fraction_decomposition(vbar, w, p, y)
        # W itself is in the span of [V; W] but not of {V, pW}
        for row in w:
            with pytest.raises(AssertionError, match="outside the radical lattice"):
                decompose(row)

        # every coordinate vector in both certificate forms
        short = generate_pmax(table, p)
        monkeypatch.setattr(maximality, "WITNESS_BUDGET", 0)
        long = generate_pmax(table, p)
        assert isinstance(short, PMaxShortCertificate)
        assert isinstance(long, PMaxLongCertificate)
        V, W = long.V, long.W
        beta_w = _vw_combination(V, W, list(short.beta), list(short.gamma), p, r)
        for i in range(r):
            y = tt_mul(ZZ, table, list(short.X[i]), beta_w)
            assert (list(short.a[i]), list(short.c[i])) == _fraction_decomposition(V, W, p, y)
            for j in range(len(V)):
                y = tt_mul(ZZ, table, list(long.X[i]), list(V[j]))
                assert ([list(long.a[i][j]), list(long.c[i][j])]
                        == list(_fraction_decomposition(V, W, p, y)))
            for j in range(len(W)):
                y = tt_mul(ZZ, table, list(long.X[i]), [p * x for x in W[j]])
                assert ([list(long.d[i][j]), list(long.e[i][j])]
                        == list(_fraction_decomposition(V, W, p, y)))


def _integer_paths(value, prefix=()):
    """The index path of every integer in a nested tuple."""
    if isinstance(value, int):
        yield prefix
    else:
        for i, item in enumerate(value):
            yield from _integer_paths(item, prefix + (i,))


def _bumped(value, path):
    """value with the integer at path raised by one."""
    if not path:
        return value + 1
    i, *rest = path
    return value[:i] + (_bumped(value[i], rest),) + value[i + 1:]


def _scaled_row(rows, i, p):
    """rows with row i, a vector or a block of them, times p."""
    return rows[:i] + (_scaled(rows[i], p),) + rows[i + 1:]


def _scaled(value, p):
    return value * p if isinstance(value, int) else tuple(_scaled(x, p) for x in value)


def _copied_row(rows, i, k):
    """rows with row k replaced by row i."""
    return rows[:k] + (rows[i],) + rows[k + 1:]


class TestKernelReasonPaths:
    """Every single edit of a kernel certificate fails at the check that
    reads the edited field, at the row that holds it."""

    @pytest.mark.parametrize("p", [2, 3, 5])
    def test_rows_owning_no_column(self, p, monkeypatch):
        # (i) and (ii): a row of V that is zero mod p, a zero row of U, or
        # a row copied over another, owns no column, and the first such row
        # is named; nothing else in the certificate is edited
        checked = 0
        for name in FIXTURE_ORDERS:
            fx = FIXTURES[name]
            _, table = order_and_table((list(fx["T"]), fx["d"], [list(c) for c in fx["columns"]]))
            short = generate_pmax(table, p)
            monkeypatch.setattr(maximality, "WITNESS_BUDGET", 0)
            long = generate_pmax(table, p)
            monkeypatch.setattr(maximality, "WITNESS_BUDGET", WITNESS_BUDGET)
            forms = [(short, "pmax-short", verify_pmax_short)]
            if short.V:  # with no kernel both forms are the short one
                forms.append((long, "pmax-long", verify_pmax_long))
            for cert, kind, verify in forms:
                assert verify(table, p, cert).accepted
                for field, check, zero in (("V", "i", lambda row: tuple(p * x for x in row)),
                                           ("U", "ii", lambda row: (0,) * len(row))):
                    rows = getattr(cert, field)
                    for i in range(len(rows)):
                        zeroed = rows[:i] + (zero(rows[i]),) + rows[i + 1:]
                        v = verify(table, p, cert._replace(**{field: zeroed}))
                        assert v.reason == f"{kind}/check-{check}/i={i}", (name, field, i)
                        checked += 1
                        if len(rows) > 1:
                            k = (i + 1) % len(rows)
                            v = verify(table, p, cert._replace(**{field: _copied_row(rows, i, k)}))
                            assert v.reason == f"{kind}/check-{check}/i={min(i, k)}"
                            checked += 1
        assert checked > 0

    @pytest.mark.parametrize("p", [2, 3, 5])
    def test_single_edits(self, p, monkeypatch):
        checked = 0
        for name in FIXTURE_ORDERS:
            fx = FIXTURES[name]
            _, table = order_and_table((list(fx["T"]), fx["d"], [list(c) for c in fx["columns"]]))
            monkeypatch.setattr(maximality, "WITNESS_BUDGET", WITNESS_BUDGET)
            short = generate_pmax(table, p)
            if not short.V:
                continue
            monkeypatch.setattr(maximality, "WITNESS_BUDGET", 0)
            long = generate_pmax(table, p)
            for cert, kind, verify in ((short, "pmax-short", verify_pmax_short),
                                       (long, "pmax-long", verify_pmax_long)):
                assert verify(table, p, cert).accepted
                m, n = len(cert.V), len(cert.W)

                def reason(**fields):
                    v = verify(table, p, cert._replace(**fields))
                    assert not v.accepted, fields
                    return v.reason

                # (iii): a row of [a | c], or of the long form's flattened
                # blocks, owns no column when it is zero mod p, and two
                # equal rows own none either
                blocks = [f for f in ("a", "c", "d", "e") if hasattr(cert, f)]
                r = table.n
                for i in range(r):
                    scaled = {f: _scaled_row(getattr(cert, f), i, p) for f in blocks}
                    assert reason(**scaled) == f"{kind}/check-iii/i={i}"
                    k = (i + 1) % r
                    copied = {f: _copied_row(getattr(cert, f), i, k) for f in blocks}
                    assert reason(**copied) == f"{kind}/check-iii/i={min(i, k)}"
                    checked += 2
                for field in ("a", "c", "d", "e", "X"):
                    if not hasattr(cert, field):
                        continue
                    value = getattr(cert, field)
                    for path in _integer_paths(value):
                        got = reason(**{field: _bumped(value, path)})
                        checked += 1
                        if field == "X":
                            # x_i times beta_w, or times v_0, moves off its claim
                            row = f"i={path[0]}" if kind == "pmax-short" else f"i={path[0]}/j=0"
                            assert got == f"{kind}/check-vi/{row}"
                            continue
                        if got.startswith(f"{kind}/check-iii/"):
                            continue
                        row = f"i={path[0]}" if kind == "pmax-short" else f"i={path[0]}/j={path[1]}"
                        check = "vii" if field in ("d", "e") else "vi"
                        assert got == f"{kind}/check-{check}/{row}", (field, path)
        assert checked > 0
