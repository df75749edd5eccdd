import itertools
import random

import pytest

from ringcert import exactalg, irred_ff, primality
from ringcert.certio import serialize
from ringcert.exactalg import (
    _kron_pack,
    deg,
    drop_trailing_zeros,
    list_mul,
    monic,
    poly_divmod,
    poly_mod_pow,
)
from ringcert.irred_ff import (
    RabinCertificate,
    ReducibleWitness,
    _stable_seed,
    base_digits,
    factor_poly,
    generate_rabin,
    verify_rabin,
    verify_reducible_witness,
)
from reference import check_chain_steps as plain_check_chain_steps
from reference import factor_poly as plain_factor_poly
from reference import generate_rabin as plain_generate_rabin
from reference import is_irreducible, residue_chain


def brute_force_irreducible(p, f):
    """Trial division by every monic polynomial of degree 1..deg(f)//2."""
    n = deg(f)
    if n <= 0:
        return False
    if n == 1:
        return True
    for d in range(1, n // 2 + 1):
        for tail in itertools.product(range(p), repeat=d):
            g = list(tail) + [1]
            if poly_divmod(p, f, g)[1] == []:
                return False
    return True


def chain_ends(cert):
    """h_0, ..., h_n as a Rabin file states them: the top of each step
    chain, then the bottom of the last."""
    return [list(row[-1]) for row in cert.hprime] + [list(cert.hprime[-1][0])]


def all_polys(p, degree):
    for lead in range(1, p):
        for tail in itertools.product(range(p), repeat=degree):
            yield list(tail) + [lead]


def test_base_digits():
    assert base_digits(5, 2) == [1, 0, 1]
    assert base_digits(2, 2) == [0, 1]
    assert base_digits(5, 5) == [0, 1]
    assert base_digits(0, 2) == [0]


class TestGenerateVerify:
    def test_x2_plus_1_mod_3(self):
        cert = generate_rabin([1, 0, 1], 3)
        assert isinstance(cert, RabinCertificate)
        # Frobenius chain: X, X^3 = 2X, X^9 = X modulo f
        assert chain_ends(cert) == [[0, 1], [0, 2], [0, 1]]
        assert verify_rabin(cert).accepted

    def test_degree_one(self):
        cert = generate_rabin([0, 1], 7)
        assert isinstance(cert, RabinCertificate)
        # no prime divides n = 1, so there is no Bezout pair
        assert cert.a == cert.b == ((),)
        assert verify_rabin(cert).accepted

    def test_reducible_witness(self):
        out = generate_rabin([0, 1, 1], 2)  # X^2 + X
        assert isinstance(out, ReducibleWitness)
        assert list(out.factor) == [0, 1]
        assert verify_reducible_witness(out).accepted

    def test_x2_minus_1_mod_3_factor(self):
        out = generate_rabin([-1, 0, 1], 3)
        assert isinstance(out, ReducibleWitness)
        # X^2 - 1 = (X + 1)(X + 2): the smaller factor by coefficients
        assert list(out.factor) == [1, 1]
        assert list_mul(3, list(out.factor), list(out.cofactor)) == [2, 0, 1]

    def test_mutated_h_end_rejected_at_check_iii(self):
        cert = generate_rabin([1, 0, 1], 3)
        hprime = [list(row) for row in cert.hprime]
        hprime[-1][0] = (1, 1)  # h_n = X + 1
        bad = cert._replace(hprime=tuple(map(tuple, hprime)))
        v = verify_rabin(bad)
        assert not v.accepted
        assert v.reason.startswith("rabin/check-i")

    def test_base_t_equals_p(self):
        cert = generate_rabin([1, 0, 1], 3, t=3)
        assert isinstance(cert, RabinCertificate)
        assert cert.t == 3 and all(len(row) == 1 for row in cert.g)
        assert verify_rabin(cert).accepted

    def test_larger_base_p_certificate(self):
        # an irreducible octic over GF(2) picks t = p by the heuristic
        f = [1, 1, 0, 1, 1, 0, 0, 0, 1]
        assert brute_force_irreducible(2, f)
        cert = generate_rabin(f, 2)
        assert isinstance(cert, RabinCertificate)
        assert verify_rabin(cert).accepted


def _irreducible(p, n, rng):
    """A random irreducible polynomial of degree n over GF(p), not monic."""
    while True:
        f = [rng.randrange(p) for _ in range(n)] + [rng.randrange(1, p)]
        if is_irreducible(p, f):
            return f


class TestGeneratorAgainstReference:
    """`generate_rabin` against the plain generator kept in tests/reference.py."""

    # degrees 1..top; h^t has degree t(n - 1) before it is reduced, and
    # t = 2 takes about log2(p) steps per h_i, so the large cases stop early
    @pytest.mark.parametrize("p,t,top", [
        (2, 2, 12), (3, 2, 12), (3, 3, 12), (5, 2, 12), (5, 5, 12),
        (503, 2, 12), (503, 503, 6), (2**31 - 1, 2, 16), (2**61 - 1, 2, 6),
        (2**89 - 1, 2, 8),
    ], ids=["2-2", "3-2", "3-3", "5-2", "5-5", "503-2", "503-503", "M31-2", "M61-2", "M89-2"])
    def test_same_bytes_and_draws(self, p, t, top):
        rng = random.Random(f"rabin/{p}/{t}")
        inputs = []
        for n in range(1, top + 1):
            inputs.append(_irreducible(p, n, rng))
            if n % 2:
                inputs.append([rng.randrange(-p, 2 * p) for _ in range(n)] + [rng.randrange(1, p)])
            else:
                # a square factor: fails at h_n = X
                lin = [rng.randrange(p), 1]
                rest = [rng.randrange(p) for _ in range(n - 2)] + [rng.randrange(1, p)]
                inputs.append(list_mul(p, list_mul(p, lin, lin), rest))
        # factors of degrees 1, 2 and 3: h_6 = X, but gcd(f, h_3 - X) != 1
        f = [1]
        for d in (1, 2, 3):
            f = list_mul(p, f, _irreducible(p, d, rng))
        inputs.append(f)

        kinds = set()
        for f in inputs:
            got = generate_rabin(f, p, t)
            want = plain_generate_rabin(f, p, t)
            assert serialize(got) == serialize(want), f
            kinds.add(type(got))
        assert kinds == {RabinCertificate, ReducibleWitness}

    def test_one_division_per_chain_step(self, monkeypatch):
        # the chain gives h_n = X and the Bezout pairs the gcds, so an
        # irreducible f needs no factorization
        def no_search(*args):
            raise AssertionError("factorization of an irreducible input")

        schoolbook = []

        def counted(*args):
            schoolbook.append(args)
            return poly_divmod(*args)

        # one entry per kernel division: whether its quotient fits the
        # kernel, so that it does not fall back to `poly_divmod`
        kernel = []
        kernel_divmod = exactalg.Modulus.divmod

        def counted_kernel(self, a):
            kernel.append(len(a) - self.n <= self.M + 1)
            return kernel_divmod(self, a)

        monkeypatch.setattr(irred_ff, "distinct_degree_split", no_search)
        monkeypatch.setattr(irred_ff, "factor_poly", no_search)
        monkeypatch.setattr(irred_ff, "poly_divmod", counted)
        monkeypatch.setattr(exactalg.Modulus, "divmod", counted_kernel)
        f = _irreducible(503, 6, random.Random(6))
        cert = generate_rabin(f, 503, 2)
        assert isinstance(cert, RabinCertificate) and verify_rabin(cert).accepted
        assert kernel == [True] * sum(map(len, cert.g))
        assert schoolbook == []


class TestReducibleWitnessFactor:
    """A failed Rabin test writes the first factor of the plain factorizer
    in tests/reference.py, the smallest monic irreducible factor by
    (degree, coefficients), and the witness verifies."""

    @pytest.mark.parametrize("p", [2, 3, 5, 503, 2**31 - 1])
    def test_first_factor_of_reference_factorization(self, p):
        rng = random.Random(f"witness/{p}")

        def poly(n):
            return [rng.randrange(p) for _ in range(n)] + [rng.randrange(1, p)]

        inputs = [poly(n) for n in range(2, 9) for _ in range(4)]
        # repeated factors, and products of two factors of one degree
        inputs += [list_mul(p, exactalg.list_pow(p, poly(d), 2), poly(3)) for d in (1, 2)]
        inputs += [list_mul(p, _irreducible(p, d, rng), _irreducible(p, d, rng)) for d in (1, 2, 3)]
        if p <= 5:
            # zero derivative: f = g(X^p)
            inputs.append([c for c in poly(2) for c in [c] + [0] * (p - 1)][:-(p - 1)])
        reducible = 0
        for f in inputs:
            out = generate_rabin(f, p)
            _unit, factors = plain_factor_poly(p, f)
            if factors == [(monic(p, f), 1)]:
                assert isinstance(out, RabinCertificate), f
                continue
            reducible += 1
            assert isinstance(out, ReducibleWitness), f
            assert list(out.factor) == factors[0][0], f
            assert verify_reducible_witness(out).accepted, f
        assert reducible >= 10


class TestFactorAgainstReference:
    """`factor_poly` with the Frobenius table against the plain one kept in
    tests/reference.py, which raises to every p-th power by `poly_mod_pow`."""

    @pytest.mark.parametrize("p", [2, 3, 5, 997, 1009, 2**31 - 1, 2**61 - 1, 10**12 + 39])
    def test_same_factors_and_draws(self, p):
        rng = random.Random(f"factor/{p}")

        def poly(n):
            return [rng.randrange(p) for _ in range(n)] + [rng.randrange(1, p)]

        inputs = []
        for n in range(1, 25):
            inputs.append(poly(n))
            # repeated factors: a^2 * b^3 * c of degree n
            k = rng.randrange(n // 2 + 1)
            m = rng.randrange((n - 2 * k) // 3 + 1)
            f = list_mul(p, poly(n - 2 * k - 3 * m), exactalg.list_pow(p, poly(k), 2))
            inputs.append(list_mul(p, f, exactalg.list_pow(p, poly(m), 3)))
        if p <= 5:
            # zero derivative: a p-th power times 1 + X^p
            x_p = [1] + [0] * (p - 1) + [1]
            inputs.append(list_mul(p, exactalg.list_pow(p, poly(3), p), x_p))

        for f in inputs:
            split = irred_ff.distinct_degree_split(p, f)
            assert factor_poly(p, split) == plain_factor_poly(p, f), f

    def test_one_frobenius_power_per_factorization(self, monkeypatch):
        p = 2**61 - 1
        f = _irreducible(p, 16, random.Random(16))
        exponents = []

        def counted(p, g, e, mod):
            exponents.append(e)
            return poly_mod_pow(p, g, e, mod)

        monkeypatch.setattr(irred_ff, "poly_mod_pow", counted)
        _unit, factors = factor_poly(p, irred_ff.distinct_degree_split(p, f))
        assert len(factors) == 1 and factors[0][1] == 1 and deg(factors[0][0]) == 16
        assert exponents.count(p) == 1


def _parts_product(p, split):
    """unit * prod g^m over the parts (m, d, g) of a `DistinctDegreeSplit`."""
    prod = [split.unit]
    for m, _d, g in split.parts:
        prod = list_mul(p, prod, exactalg.list_pow(p, g, m))
    return prod


def _same_degree_product(p, d, k, rng):
    """A product of k distinct monic irreducibles of degree d over GF(p)."""
    out, seen = [1], set()
    while len(seen) < k:
        g = monic(p, _irreducible(p, d, rng))
        if tuple(g) not in seen:
            seen.add(tuple(g))
            out = list_mul(p, out, g)
    return out


class TestThreeStages:
    """The squarefree, distinct-degree and equal-degree stages against the
    plain factorizer kept in tests/reference.py, on
    inputs whose distinct-degree parts hold several factors of one degree,
    so that the equal-degree stage recurses into both halves of its splits."""

    PRIMES = [2, 3, 1009, 2**31 - 1, 2**61 - 1]

    def _inputs(self, p):
        rng = random.Random(f"stages/{p}")
        # how many distinct irreducibles of degree 2, 3 and 4 to multiply;
        # GF(2) has only 1, 2 and 3 of them, and GF(3) 3, 8 and 18
        counts = {2: 1, 3: 2, 4: 3} if p == 2 else {2: 3, 3: 3, 4: 2}
        inputs = []
        for d, top in counts.items():
            for k in range(2, top + 1) if top > 1 else [1]:
                g = _same_degree_product(p, d, k, rng)
                inputs.append(g)
                # a second degree, a repeated factor and a non-monic lead
                other = _same_degree_product(p, d + 1, 1, rng)
                lead = [rng.randrange(1, p)]
                inputs.append(list_mul(p, lead, list_mul(p, g, other)))
                inputs.append(list_mul(p, g, list_mul(p, other, other)))
        return inputs

    @pytest.mark.parametrize("p", PRIMES)
    def test_factor_poly_matches_reference(self, p):
        for f in self._inputs(p):
            split = irred_ff.distinct_degree_split(p, f)
            assert factor_poly(p, split) == plain_factor_poly(p, f), f
            assert _parts_product(p, split) == f, f

    def test_table_power_makes_no_division(self, monkeypatch):
        p = 2**61 - 1
        rng = random.Random("table-power")
        f = monic(p, _same_degree_product(p, 3, 3, rng))

        def no_division(*args):
            raise AssertionError("poly_divmod in a table application")

        monkeypatch.setattr(irred_ff, "poly_divmod", no_division)
        frob = irred_ff._FrobeniusTable(p, f)
        for _ in range(5):
            h = drop_trailing_zeros([rng.randrange(p) for _ in range(deg(f))])
            assert frob.power(h) == poly_mod_pow(p, h, p, f)

    def test_gf2_split_squares_through_the_table(self, monkeypatch):
        # the three quartic and two cubic irreducibles over GF(2)
        f = [1]
        for g in ([1, 1, 0, 0, 1], [1, 0, 0, 1, 1], [1, 1, 1, 1, 1], [1, 1, 0, 1], [1, 0, 1, 1]):
            f = list_mul(2, f, g)
        exponents = []

        def counted(p, g, e, mod):
            exponents.append(e)
            return poly_mod_pow(p, g, e, mod)

        monkeypatch.setattr(irred_ff, "poly_mod_pow", counted)
        _unit, factors = factor_poly(2, irred_ff.distinct_degree_split(2, f))
        assert [deg(g) for g, _m in factors] == [3, 3, 4, 4, 4]
        # the table's X^2 mod f, and no squaring in the trace maps
        assert exponents == [2]


class TestDegreePattern:
    """`distinct_degree_split`'s factor degrees, one sweep per squarefree
    part, against the degrees of the plain factorizer's factors, each as
    often as it divides f; its parts multiply back to f."""

    @pytest.mark.parametrize("seed", range(3))
    def test_matches_factor_degrees(self, seed):
        rng = random.Random(f"pattern/{seed}")
        primes = primality.sieve_primes(200)
        for n in range(1, 33):
            p = rng.choice(primes)

            def poly(m):
                return [rng.randrange(p) for _ in range(m)] + [rng.randrange(1, p)]

            k, j = rng.randrange(1, n + 1), rng.randrange(n // 2 + 1)
            square = list_mul(p, poly(n - 2 * j), exactalg.list_pow(p, poly(j), 2))
            for f in (poly(n), list_mul(p, poly(k - 1), poly(n - k)), square):
                _unit, factors = plain_factor_poly(p, f)
                split = irred_ff.distinct_degree_split(p, f)
                assert split.degrees == sorted(deg(g) for g, m in factors for _ in range(m)), (p, f)
                assert _parts_product(p, split) == f, (p, f)


class TestRadical:
    """`radical_fp` by squarefree decomposition against the product of
    `factor_poly`'s distinct factors and their largest multiplicity."""

    @staticmethod
    def _distinct_product(p, f):
        rad, e = [1], 0
        for g, m in factor_poly(p, irred_ff.distinct_degree_split(p, f))[1]:
            rad, e = list_mul(p, rad, g), max(e, m)
        return rad, e

    @pytest.mark.parametrize("p", [2, 3, 5])
    def test_multiplicities_divisible_by_p(self, p):
        rng = random.Random(f"radical/{p}")
        for _ in range(40):
            f = [rng.randrange(1, p)]
            for _ in range(rng.randrange(1, 4)):
                g = [rng.randrange(p) for _ in range(rng.randrange(1, 4))] + [1]
                e = rng.choice([1, 2, p - 1, p, p + 1, 2 * p, p * p, p * p + p])
                f = list_mul(p, f, exactalg.list_pow(p, g, e))
            assert irred_ff.radical_fp(p, f) == self._distinct_product(p, f), f

    @pytest.mark.parametrize("p", [2, 3, 5])
    def test_zero_derivative(self, p):
        rng = random.Random(f"radical-frobenius/{p}")
        for e in (p, p * p):
            for _ in range(10):
                g = [rng.randrange(p) for _ in range(rng.randrange(1, 5))] + [rng.randrange(1, p)]
                f = exactalg.list_pow(p, g, e)
                assert exactalg.formal_derivative(p, f) == []
                assert irred_ff.radical_fp(p, f) == self._distinct_product(p, f), f
        x_p2_plus_1 = [1] + [0] * (p * p - 1) + [1]  # (X + 1)^(p^2)
        assert irred_ff.radical_fp(p, x_p2_plus_1) == ([1, 1], p * p)

    def test_constant(self):
        assert irred_ff.radical_fp(7, [3]) == ([1], 0)


class TestCheckIIWorkBound:
    def test_base_p_forgery_forms_no_long_power(self, monkeypatch):
        # t = p = 1000003, n = 4, one-term quotients, every h_i and h'_ij = X:
        # checks (i) hold and (ii) claims f*1 + X = X^p.  Forming X^p would
        # build about p coefficients; the file is under 500 bytes.
        p, n = 1000003, 4
        x = (0, 1)
        forged = RabinCertificate(
            p=p, n=n, t=p, L=(1, 0, 0, 0, 1),
            g=(((1,),),) * n, hprime=((x, x),) * n,
            a=((), (), (1,), ()), b=((), (), (1,), ()),
        )
        assert len(serialize(forged)) < 500
        real_mul = exactalg.list_mul

        def bounded(p, a, b):
            assert max(len(a), len(b)) <= n + 1 + 1, "operand longer than n + len(g_ij) + 1"
            return real_mul(p, a, b)

        monkeypatch.setattr(exactalg, "list_mul", bounded)
        monkeypatch.setattr(irred_ff, "list_mul", bounded)
        assert verify_rabin(forged).reason == "rabin/check-ii/i=0/j=0"


class TestBasePByFrobenius:
    """Base-p steps take h^p as h(X^p): the coefficients of h, p slots apart."""

    X4_X_5 = [5, 1, 0, 0, 1]

    @pytest.mark.parametrize("p", [2, 3, 5, 7, 503])
    def test_strided_power_is_the_power(self, p):
        # oracle: the literal p-th power, by square and multiply
        rng = random.Random(p)
        w = 40
        for _ in range(20):
            h = drop_trailing_zeros([rng.randrange(p) for _ in range(rng.randint(0, 6))])
            power = exactalg.list_pow(p, h, p)
            strided = [0] * (p * len(h) - p + 1) if h else []
            strided[::p] = h
            assert strided == power
            assert _kron_pack(h, w * p) == _kron_pack(power, w)

    @pytest.fixture()
    def no_power_in_check_ii(self, monkeypatch):
        """list_pow and list_mul raise while check (ii) runs."""
        inside = []
        real_check = irred_ff._check_chain_steps

        def check(*args):
            inside.append(True)
            try:
                return real_check(*args)
            finally:
                inside.pop()

        def guarded(real):
            def wrapper(*args):
                assert not inside, f"{real.__name__} inside check (ii)"
                return real(*args)
            return wrapper

        monkeypatch.setattr(irred_ff, "_check_chain_steps", check)
        for name in ("list_pow", "list_mul"):
            real = getattr(exactalg, name)
            monkeypatch.setattr(exactalg, name, guarded(real))
            monkeypatch.setattr(irred_ff, name, guarded(real), raising=False)

    def honest_file(self):
        cert = generate_rabin(self.X4_X_5, 503, t=503)
        assert isinstance(cert, RabinCertificate) and cert.t == 503
        assert len(serialize(cert)) == 29507
        return cert

    def test_honest_file_accepted_without_a_power(self, no_power_in_check_ii):
        assert verify_rabin(self.honest_file()).accepted

    def test_bumped_last_quotient_rejected(self, no_power_in_check_ii):
        cert = self.honest_file()
        g = [[list(x) for x in row] for row in cert.g]
        g[3][0][0] = (g[3][0][0] + 1) % 503
        forged = cert._replace(g=tuple(tuple(map(tuple, row)) for row in g))
        assert verify_rabin(forged).reason == "rabin/check-ii/i=3/j=0"

    def test_generator_forms_no_power(self, monkeypatch):
        def refuse(*args):
            raise AssertionError("list_pow called")

        monkeypatch.setattr(exactalg, "list_pow", refuse)
        monkeypatch.setattr(irred_ff, "list_pow", refuse, raising=False)
        assert isinstance(generate_rabin(self.X4_X_5, 503, t=503), RabinCertificate)


class TestCheckIIPacked:
    """Check (ii) as packed-integer identities against the list-based
    reference, verdict and reason path alike, on honest and mutated files."""

    PRIMES = [2, 3, 5, 7, 15, 503, 2**61 - 1, 2**89 - 1]

    @staticmethod
    def chain_certificate(f, p, t):
        """The Frobenius chain of monic f over Z/p for any p >= 2, unpinned:
        h_n is X^(p^n) mod f, and the Bezout pairs are left empty."""
        n = deg(f)
        digits = base_digits(p, t)
        s = len(digits) - 1
        h, g_rows, hp_rows = [[0, 1]], [], []
        for i in range(n):
            hp = [None] * s + [exactalg.list_pow(p, h[i], digits[s])]
            grow = [None] * s
            for j in range(s - 1, -1, -1):
                step = list_mul(p, exactalg.list_pow(p, hp[j + 1], t),
                                exactalg.list_pow(p, h[i], digits[j]))
                grow[j], hp[j] = poly_divmod(p, step, f)
            h.append(hp[0])
            g_rows.append(tuple(map(tuple, grow)))
            hp_rows.append(tuple(map(tuple, hp)))
        return RabinCertificate(
            p=p, n=n, t=t, L=tuple(f), g=tuple(g_rows),
            hprime=tuple(hp_rows), a=((),) * n, b=((),) * n,
        )

    def honest(self, rng, p, t):
        """An honest file for a random monic f of degree 1-4: the generator's
        when f is irreducible mod prime p, else the unpinned chain.  For
        t = p > 503 no chain can be formed, and a t = 2 file relabelled to
        base p, whose step claims X^p, stands in."""
        n = rng.randint(1, 4)
        f = [rng.randrange(p) for _ in range(n)] + [1]
        if t == p > 503:
            cert = self.chain_certificate(f, p, 2)
            return cert._replace(t=p, g=tuple((row[0],) for row in cert.g),
                                 hprime=tuple((row[0], row[-1]) for row in cert.hprime))
        if p != 15:
            out = generate_rabin(f, p, t)
            if isinstance(out, RabinCertificate):
                return out
        return self.chain_certificate(f, p, t)

    @staticmethod
    def mutate(rng, cert):
        """One of: a coefficient +-1 or +-p, an unreduced or negative
        coefficient, a trailing zero, a list one entry longer or shorter, or
        two quotients swapped; in a quotient g_ij or a chain value h'_ij."""
        p = cert.p
        name = rng.choice(("g", "hprime"))
        rows = [list(row) for row in getattr(cert, name)]
        i = rng.randrange(len(rows))
        j = rng.randrange(len(rows[i]))
        x = list(rows[i][j])
        kind = rng.choice(("+-1", "+-p", "unreduced", "trailing", "longer", "shorter", "swap"))
        if kind == "swap":
            i2 = rng.randrange(len(cert.g))
            j2 = rng.randrange(len(cert.g[i2]))
            g = [list(row) for row in cert.g]
            g[i][min(j, len(g[i]) - 1)], g[i2][j2] = g[i2][j2], g[i][min(j, len(g[i]) - 1)]
            return cert._replace(g=tuple(map(tuple, g))), kind
        if kind == "trailing":
            x.append(0)
        elif kind == "longer":
            x.append(rng.randrange(1, p))
        elif kind == "shorter":
            x = x[:-1]
        elif x:
            k = rng.randrange(len(x))
            x[k] += {"+-1": rng.choice((-1, 1)), "+-p": rng.choice((-p, p)),
                     "unreduced": p * rng.randint(-3, 3) or -p}[kind]
        else:
            x = [rng.choice((-1, 1, p, -p))]
        rows[i][j] = tuple(x)
        return cert._replace(**{name: tuple(map(tuple, rows))}), kind

    @pytest.mark.parametrize("p", PRIMES, ids=str)
    @pytest.mark.parametrize("base", ["2", "p"])
    def test_same_verdicts_as_list_reference(self, p, base, monkeypatch):
        rng = random.Random(_stable_seed(p, len(base)))
        t = 2 if base == "2" else p
        cases = []
        for _ in range(8):
            cert = self.honest(rng, p, t)
            cases.append(cert)
            cases += [self.mutate(rng, cert)[0] for _ in range(12)]

        if p == t == 15:
            # check (ii) for base p takes h^p as h(X^p), an identity only
            # for prime p; verify_rabin rejects p = 15 before check (ii)
            for c in cases:
                assert verify_rabin(c).reason == "rabin/prime/composite/p=15"
            return

        def verify(c):
            if p != 15:
                return verify_rabin(c)
            # verify_rabin rejects the composite modulus before check (ii),
            # so check (ii) is called on the lists verify_rabin would pass
            # (`packed_vanishes_mod_p` needs no prime)
            assert verify_rabin(c).reason == "rabin/prime/composite/p=15"
            hp, g = ([[list(x) for x in row] for row in rows] for rows in (c.hprime, c.g))
            return irred_ff._check_chain_steps(
                p, t, base_digits(p, t), list(c.L), chain_ends(c), hp, g)

        got = [verify(c) for c in cases]
        monkeypatch.setattr(irred_ff, "_check_chain_steps", plain_check_chain_steps)
        want = [verify(c) for c in cases]
        for c, a, b in zip(cases, got, want):
            assert (a.accepted, a.reason) == (b.accepted, b.reason), c
        # most files get through check (i) to check (ii)
        reached = [v for v in want if "check-i/" not in v.reason]
        assert len(reached) > len(want) // 2
        assert any("check-ii" in v.reason for v in want)
        if p != 15 and (t == 2 or p <= 503):
            assert any(v.accepted or "check-ii" not in v.reason for v in reached)

    def test_check_ii_makes_no_list_product(self, monkeypatch):
        # t = 2: the only list products left are check (iv)'s two per prime
        # q | n, and each reads back one product
        cert = generate_rabin([1, 1, 0, 0, 1], 2**31 - 1)
        assert isinstance(cert, RabinCertificate) and cert.t == 2 and len(cert.g[0]) == 30
        calls = {"list_mul": 0, "_kron_unpack": 0}

        def counted(module, name):
            real = getattr(module, name)

            def wrapper(*args):
                calls[name] += 1
                return real(*args)
            return wrapper

        for module in (exactalg, irred_ff):
            for name in calls:
                monkeypatch.setattr(module, name, counted(module, name))
        assert verify_rabin(cert).accepted
        primes = len(primality.prime_factors_trial(cert.n))
        assert calls == {"list_mul": 2 * primes, "_kron_unpack": 2 * primes}


class TestResidueChain:
    def test_example(self):
        y, steps = residue_chain(3, [0, 1], 9, [1, 0, 1])
        assert y == [0, 1]
        assert steps[-1] == y

    def test_e_one_and_zero(self):
        assert residue_chain(3, [2, 1], 1, [1, 0, 1])[0] == [2, 1]
        assert residue_chain(3, [2, 1], 0, [1, 0, 1])[0] == [1]

    def test_matches_mod_pow(self):
        rng = random.Random(7)
        f = [2, 0, 1, 1]
        for _ in range(40):
            g = drop_trailing_zeros([rng.randrange(5) for _ in range(4)])
            e = rng.randrange(0, 200)
            y, _ = residue_chain(5, g, e, f)
            naive = [1]
            for _ in range(e):
                naive = poly_divmod(5, list_mul(5, naive, g), f)[1]
            assert y == naive


class TestSoundness:
    @pytest.mark.parametrize("p", [2, 3])
    def test_exhaustive_small(self, p):
        for degree in (1, 2, 3):
            for f in all_polys(p, degree):
                out = generate_rabin(f, p)
                expect = brute_force_irreducible(p, f)
                if expect:
                    assert isinstance(out, RabinCertificate), f
                    assert verify_rabin(out).accepted, f
                else:
                    assert isinstance(out, ReducibleWitness), f
                    assert verify_reducible_witness(out).accepted, f

    def test_check_ii_implies_frobenius_step(self):
        # independent check that each h_{i+1} is h_i^p modulo f
        p = 5
        f = [3, 3, 0, 4, 1]
        assert brute_force_irreducible(p, f)
        cert = generate_rabin(f, p)
        assert isinstance(cert, RabinCertificate)
        h = chain_ends(cert)
        for i in range(cert.n):
            expected, _ = residue_chain(p, h[i], p, f)
            actual = poly_divmod(p, h[i + 1], f)[1]
            assert actual == expected

    def test_factor_poly_reconstructs(self):
        rng = random.Random(3)
        for p in (2, 3, 5, 7):
            for _ in range(25):
                f = drop_trailing_zeros([rng.randrange(p) for _ in range(rng.randrange(2, 8))])
                if deg(f) < 1:
                    continue
                unit, factors = factor_poly(p, irred_ff.distinct_degree_split(p, f))
                prod = [unit]
                for fac, mult in factors:
                    assert is_irreducible(p, fac)
                    assert fac[-1] == 1
                    for _ in range(mult):
                        prod = list_mul(p, prod, fac)
                assert prod == f


class TestMutationRobustness:
    def test_coefficient_mutations_rejected(self):
        rng = random.Random(42)
        p = 5
        f = [3, 3, 0, 4, 1]
        cert = generate_rabin(f, p)
        assert isinstance(cert, RabinCertificate)
        rejected = 0
        attempts = 0
        while rejected < 100 and attempts < 400:
            attempts += 1
            mutated = _mutate_one_coefficient(cert, rng)
            if mutated is None:
                continue
            v = verify_rabin(mutated)
            assert not v.accepted, mutated
            assert v.reason
            rejected += 1
        assert rejected >= 100


def _mutate_one_coefficient(cert, rng):
    """Bump one residue somewhere in the certificate by a nonzero amount."""
    p = cert.p
    fields = ["L", "g", "hprime", "a", "b"]
    name = rng.choice(fields)
    val = getattr(cert, name)

    def mutate_poly(poly):
        poly = list(poly)
        if not poly:
            poly = [0]
        i = rng.randrange(len(poly))
        poly[i] = (poly[i] + rng.randrange(1, p)) % p
        return tuple(drop_trailing_zeros(poly))

    if name == "L":
        return cert._replace(L=mutate_poly(val))
    if name in ("g", "hprime"):
        rows = [list(r) for r in val]
        i = rng.randrange(len(rows))
        j = rng.randrange(len(rows[i]))
        rows[i][j] = mutate_poly(rows[i][j])
        return cert._replace(**{name: tuple(tuple(r) for r in rows)})
    rows = list(val)
    nonempty = [i for i, r in enumerate(rows) if r]
    if not nonempty:
        return None
    i = rng.choice(nonempty)
    rows[i] = mutate_poly(rows[i])
    return cert._replace(**{name: tuple(rows)})
