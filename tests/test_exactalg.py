import math
import random
import time

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ringcert import exactalg
from ringcert.exactalg import (
    ZZ,
    content,
    deg,
    drop_trailing_zeros,
    formal_derivative,
    list_add,
    list_mul,
    list_pow,
    list_sub,
    monic,
    mul_pointwise,
    packed_vanishes_mod_p,
    poly_divmod,
    poly_eval,
    poly_gcd,
    poly_mod_pow,
    poly_xgcd,
    reduce_mod_p,
)
from reference import divmod_by_field_calls
from reference import list_pow as plain_list_pow

int_lists = st.lists(st.integers(min_value=-50, max_value=50), max_size=8).map(
    drop_trailing_zeros
)


def domain_name(p: int) -> str:
    """The usual name of Z/pZ ("ZZ", "GF(7)"): it labels and seeds cases."""
    return "ZZ" if p == ZZ else f"GF({p})"


def fp_lists(p, max_size=8):
    return st.lists(st.integers(min_value=0, max_value=p - 1), max_size=max_size).map(
        drop_trailing_zeros
    )


class TestDropTrailingZeros:
    def test_examples(self):
        assert drop_trailing_zeros([1, 0, 2, 0, 0]) == [1, 0, 2]
        assert drop_trailing_zeros([0, 0]) == []
        assert drop_trailing_zeros([3, 14, 15]) == [3, 14, 15]

    @given(st.lists(st.integers(min_value=-5, max_value=5), max_size=10))
    def test_idempotent_and_nonincreasing(self, l):
        once = drop_trailing_zeros(l)
        assert drop_trailing_zeros(once) == once
        assert len(once) <= len(l)


class TestListArithmetic:
    def test_add_examples(self):
        assert list_add(ZZ, [1, 2], [3]) == [4, 2]
        assert list_add(ZZ, [1, 2], [-1, -2]) == []
        assert list_add(ZZ, [0, 1], [0, 1]) == [0, 2]

    def test_mul_examples(self):
        assert list_mul(ZZ, [0, 1], [0, 1]) == [0, 0, 1]
        assert list_mul(ZZ, [], [5, 7]) == []
        assert list_mul(ZZ, [-1, 1], [1, 1]) == [-1, 0, 1]

    def test_mul_pointwise_examples(self):
        assert mul_pointwise(ZZ, 2, [1, 3]) == [2, 6]
        assert mul_pointwise(ZZ, 0, [1, 3]) == []
        assert mul_pointwise(ZZ, -1, [1, -1]) == [-1, 1]

    @given(int_lists, int_lists)
    def test_add_commutes(self, a, b):
        assert list_add(ZZ, a, b) == list_add(ZZ, b, a)

    @given(int_lists, int_lists)
    def test_mul_commutes(self, a, b):
        assert list_mul(ZZ, a, b) == list_mul(ZZ, b, a)

    @given(int_lists, int_lists, int_lists)
    def test_ring_laws(self, a, b, c):
        assert list_mul(ZZ, a, list_mul(ZZ, b, c)) == list_mul(ZZ, list_mul(ZZ, a, b), c)
        lhs = list_mul(ZZ, a, list_add(ZZ, b, c))
        rhs = list_add(ZZ, list_mul(ZZ, a, b), list_mul(ZZ, a, c))
        assert lhs == rhs

    @given(int_lists, int_lists, st.integers(min_value=-30, max_value=30))
    def test_arithmetic_matches_evaluation(self, a, b, x):
        assert poly_eval(ZZ, list_add(ZZ, a, b), x) == poly_eval(ZZ, a, x) + poly_eval(
            ZZ, b, x
        )
        assert poly_eval(ZZ, list_mul(ZZ, a, b), x) == poly_eval(ZZ, a, x) * poly_eval(
            ZZ, b, x
        )


def schoolbook_mul(p: int, a, b):
    """The per-coefficient product loop that `list_mul` replaced, reducing
    every sum and product over GF(p); the reference."""
    if not a or not b:
        return []
    out = [0] * (len(a) + len(b) - 1)
    for i, ai in enumerate(a):
        if ai == 0:
            continue
        for j, bj in enumerate(b):
            if not p:
                out[i + j] += ai * bj
            else:
                out[i + j] = (out[i + j] + ai * bj % p) % p
    return drop_trailing_zeros(out)


class TestKroneckerProduct:
    """`list_mul` against the schoolbook loop, value for value."""

    @staticmethod
    def cases(rng, lo, hi):
        def draw(n):
            return [rng.choice((0, rng.randint(lo, hi))) if rng.random() < 0.2
                    else rng.randint(lo, hi) for _ in range(n)]

        for n, m in ((0, 0), (0, 5), (5, 0), (1, 1), (300, 300), (300, 1), (2, 300)):
            yield draw(n), draw(m)
        for _ in range(60):
            yield draw(rng.randrange(40)), draw(rng.randrange(40))
        for _ in range(3):
            yield draw(rng.randrange(301)), draw(rng.randrange(301))
        yield [0] * 7, draw(9)                 # all zero
        yield draw(6) + [0, 0], draw(4) + [0]  # trailing zeros
        yield [hi] * 30, [lo] * 30             # every term at the slot bound

    def check(self, p, lo, hi, seed):
        rng = random.Random(seed)
        for a, b in self.cases(rng, lo, hi):
            got = list_mul(p, a, b)
            assert got == schoolbook_mul(p, a, b), (p, a, b)
            assert all(type(c) is int for c in got)
            assert list_mul(p, a, a) == schoolbook_mul(p, a, a), (p, a)

    def test_integers(self):
        self.check(ZZ, -(10**40), 10**40, 1)
        self.check(ZZ, -1, 1, 2)

    @pytest.mark.parametrize(
        "p", [2, 3, 503, 2**61 - 1, 2**89 - 1, 15], ids=["2", "3", "503", "M61", "M89", "15"]
    )
    def test_residues(self, p):
        self.check(p, 0, p - 1, p)
        # unreduced and negative residues give the same product as their reductions
        self.check(p, -3 * p, 3 * p, p + 1)

    def test_one_wide_coefficient_in_a_long_list(self):
        # every slot takes the width of the widest coefficient; packing and
        # reading back must stay near linear in the packed size
        rng = random.Random(4)
        a = [rng.randint(-9, 9) for _ in range(10**4)] + [-(10**4299)]
        b = [3, -1]
        start = time.perf_counter()
        got = list_mul(ZZ, a, b)
        assert time.perf_counter() - start < 5.0
        assert got == schoolbook_mul(ZZ, a, b)


class TestPackedVanishes:
    """`packed_vanishes_mod_p` against reading every slot back."""

    @staticmethod
    def pack(digits, w):
        return sum(d << (w * k) for k, d in enumerate(digits))

    @pytest.mark.parametrize("p", [2, 3, 15, 503, 2**61 - 1], ids=["2", "3", "15", "503", "M61"])
    def test_matches_slotwise_divisibility_at_the_digit_bound(self, p):
        rng = random.Random(p)
        for m in (1, 2, 3, 40):
            for extra in (1, 2, 9, 70):
                w = p.bit_length() + 1 + extra
                top = (1 << (w - 2)) - 1  # the largest |d_k| allowed
                edge = top - top % p    # the largest multiple of p allowed
                for _ in range(40):
                    digits = [rng.choice((top, -top, edge, -edge, 0, rng.randint(-top, top),
                                          p * rng.randint(-(top // p), top // p)))
                              for _ in range(m)]
                    want = all(d % p == 0 for d in digits)
                    got = packed_vanishes_mod_p(self.pack(digits, w), p, m, w)
                    assert got == want, (p, m, w, digits)
                    # a multiple of p in every slot, each at the bound
                    digits = [rng.choice((edge, -edge)) for _ in range(m)]
                    assert packed_vanishes_mod_p(self.pack(digits, w), p, m, w)

    def test_integer_divisible_while_a_slot_is_not(self):
        # 2^8 = 1 mod 3, so 1 + 2 * 2^8 = 513 = 3 * 171 with both slots prime to 3
        z = self.pack([1, 2], 8)
        assert z % 3 == 0
        assert not packed_vanishes_mod_p(z, 3, 2, 8)
        # a composite modulus is decided the same way: 2^22 = 4 mod 1023 = 3 * 11 * 31
        w = 22
        z = self.pack([-4, 1], w)
        assert z % 1023 == 0
        assert not packed_vanishes_mod_p(z, 1023, 2, w)
        assert packed_vanishes_mod_p(self.pack([1023, -1023], w), 1023, 2, w)


class TestListPow:
    @pytest.mark.parametrize("p", [ZZ, 2, 7, 2**61 - 1], ids=domain_name)
    def test_matches_powers_from_one(self, p):
        """Same lists, with the same element types, as square and multiply from [1]."""
        rng = random.Random(domain_name(p))
        for _ in range(60):
            a = [rng.randrange(-30, 30) for _ in range(rng.randrange(6))]
            if rng.randrange(3) == 0:
                a.append(0)  # not canonical
            e = rng.randrange(12)
            got, want = list_pow(p, a, e), plain_list_pow(p, a, e)
            assert got == want and list(map(type, got)) == list(map(type, want)), (a, e)

    def test_no_product_by_one(self, monkeypatch):
        real = exactalg.list_mul
        seen = []

        def counted(p, a, b):
            seen.append((a, b))
            return real(p, a, b)

        monkeypatch.setattr(exactalg, "list_mul", counted)
        assert list_pow(ZZ, [1, 1], 5) == [1, 5, 10, 10, 5, 1]
        assert list_pow(ZZ, [1, 1], 1) == [1, 1]
        assert len(seen) == 3 and [1] not in (x for pair in seen for x in pair)


class TestDivmodXgcd:
    def test_divmod_examples(self):
        q, r = poly_divmod(3, [1, 0, 1], [0, 1])  # (X^2+1) / X
        assert q == [0, 1] and r == [1]
        f = [2, 1, 1]
        q, r = poly_divmod(3, f, f)
        assert q == [1] and r == []
        q, r = poly_divmod(5, [0, 0, 0, 1], [4, 1])  # X^3 / (X - 1)
        assert q == [1, 1, 1] and r == [1]
        # oracle: reconstruct
        assert list_add(5, list_mul(5, q, [4, 1]), r) == [0, 0, 0, 1]

    def test_divmod_by_zero(self):
        with pytest.raises(ZeroDivisionError):
            poly_divmod(3, [1], [])

    @pytest.mark.parametrize(
        "p", [2, 3, 15, 503, 2**61 - 1, 2**89 - 1], ids=["2", "3", "15", "503", "M61", "M89"]
    )
    def test_divmod_matches_field_call_loop(self, p):
        # unreduced and negative entries, len f < len g, non-monic g; the
        # result is reduced where the reference may leave entries of f as given
        rng = random.Random(f"divmod/{p}")
        for _ in range(300):
            f = [rng.randrange(-3 * p, 3 * p) for _ in range(rng.randrange(12))]
            g = [rng.randrange(-3 * p, 3 * p) for _ in range(rng.randrange(1, 8))]
            while math.gcd(g[-1], p) != 1:
                g[-1] = rng.randrange(-3 * p, 3 * p)
            q, r = poly_divmod(p, f, g)
            ref_q, ref_r = divmod_by_field_calls(p, f, g)
            assert (q, r) == (reduce_mod_p(ref_q, p), reduce_mod_p(ref_r, p))
        for lead in (0, p, -2 * p):
            for divide in (poly_divmod, divmod_by_field_calls):
                with pytest.raises(ZeroDivisionError):
                    divide(p, [1, 2, 3, 4], [1, 2, lead])

    def test_xgcd_examples(self):
        d, a, b = poly_xgcd(2, [0, 1], [1, 1])
        assert d == [1]
        assert list_add(2, list_mul(2, a, [0, 1]), list_mul(2, b, [1, 1])) == [1]

        d, a, b = poly_xgcd(5, [3, 0, 1], [])  # xgcd(f, 0)
        assert d == monic(5, [3, 0, 1]) and b == []

        d, a, b = poly_xgcd(5, [4, 0, 1], [4, 1])  # X^2-1, X-1
        assert d == [4, 1]
        assert a == [] and b == [1]

    def test_xgcd_both_zero(self):
        with pytest.raises(ValueError):
            poly_xgcd(3, [], [])

    @pytest.mark.parametrize("p", [2, 3, 5, 7])
    def test_divmod_reconstruction_random(self, p):
        rng = random.Random(p * 101)
        for _ in range(200):
            f = drop_trailing_zeros([rng.randrange(p) for _ in range(rng.randrange(8))])
            g = drop_trailing_zeros([rng.randrange(p) for _ in range(rng.randrange(1, 6))])
            if not g:
                continue
            q, r = poly_divmod(p, f, g)
            assert deg(r) < deg(g)
            assert list_add(p, list_mul(p, q, g), r) == f

    @pytest.mark.parametrize("p", [2, 3, 5, 7])
    def test_xgcd_bezout_and_divides(self, p):
        rng = random.Random(p * 777)
        for _ in range(150):
            f = drop_trailing_zeros([rng.randrange(p) for _ in range(rng.randrange(7))])
            g = drop_trailing_zeros([rng.randrange(p) for _ in range(rng.randrange(7))])
            if not f and not g:
                continue
            d, a, b = poly_xgcd(p, f, g)
            assert list_add(p, list_mul(p, a, f), list_mul(p, b, g)) == d
            for h in (f, g):
                if h:
                    assert poly_divmod(p, h, d)[1] == []

    @pytest.mark.parametrize("p", [2, 3, 5, 503])
    @given(f=int_lists, g=int_lists, h=int_lists)
    def test_gcd_is_xgcd_d(self, p, f, g, h):
        # the Euclidean gcd against the d that xgcd builds with its
        # cofactors, on reduced f*h and g*h so that d is often not 1
        f, g = list_mul(p, f, h), list_mul(p, g, h)
        if not f and not g:
            assert poly_gcd(p, f, g) == []
        else:
            assert poly_gcd(p, f, g) == poly_xgcd(p, f, g)[0]


class TestModulus:
    """The fixed-divisor kernel against `poly_divmod` and the per-coefficient
    division loop, with dividends whose slots reach the width's bound."""

    @staticmethod
    def dividends(p, length, rng):
        if not length:
            return [[]]
        return [
            [p - 1] * length,
            [0] * (length - 1) + [p - 1],
            [rng.randrange(p) for _ in range(length - 1)] + [rng.randrange(1, p)],
        ]

    @pytest.mark.parametrize(
        "p", [2, 3, 15, 503, 2**61 - 1, 2**89 - 1], ids=["2", "3", "15", "503", "M61", "M89"]
    )
    def test_matches_divmod_at_the_slot_bound(self, p, monkeypatch):
        rng = random.Random(f"modulus/{p}")
        fallbacks = []

        def counted(*args):
            fallbacks.append(args)
            return poly_divmod(*args)

        monkeypatch.setattr(exactalg, "poly_divmod", counted)
        for n in range(0, 17):
            # lc = p - 1 is a unit for every p, and not 1 when p > 2; the
            # second divisor has rev(g)^(-1) = -1/(1 - X), every entry p - 1,
            # so the quotient slots reach (M + 1)(p - 1)^2
            divisors = [
                [rng.randrange(p) for _ in range(n)] + [p - 1],
                [0] * (n - 1) + [1, p - 1] if n else [p - 1],
            ]
            for g in divisors:
                # M as `poly_mod_pow` and the Rabin chain choose it, and wider
                for M in sorted({0, max(n - 2, 0), max(2 * n - 3, 0), 2 * n}):
                    mod = exactalg.Modulus(p, g, M)
                    for length in range(n + M + 3):
                        for a in self.dividends(p, length, rng):
                            calls = len(fallbacks)
                            got = mod.divmod(a)
                            assert got == poly_divmod(p, a, g), (n, M, a, g)
                            assert got == divmod_by_field_calls(p, a, g), (n, M, a, g)
                            # only a quotient longer than M + 1 falls back
                            assert len(fallbacks) - calls == (length > n + M + 1)

    def test_raises_where_divmod_raises(self):
        cases = [(15, [1, 2, 3]), (15, [4, 10]), (7, [1, 7]), (7, [1, 0]), (7, [])]
        for p, g in cases:
            with pytest.raises((ZeroDivisionError, ValueError)) as want:
                poly_divmod(p, [1, 2, 3, 4], g)
            with pytest.raises(want.type):
                exactalg.Modulus(p, g, 4)


class TestIntegerDivision:
    def test_matches_sympy_div(self):
        """The quotient and remainder over Q when the quotient is integral,
        None otherwise; monic, non-monic and negative-leading divisors."""
        sympy = pytest.importorskip("sympy")
        x = sympy.Symbol("x")

        def as_expr(c):
            return sum(coef * x**i for i, coef in enumerate(c))

        def as_list(e):
            return drop_trailing_zeros(sympy.Poly(e, x, domain="QQ").all_coeffs()[::-1])

        rng = random.Random(9)
        integral = 0
        for k in range(400):
            g = [rng.randint(-9, 9) for _ in range(rng.randrange(1, 5))]
            g[-1] = rng.choice((1, -1, rng.choice((2, -3, 6))))
            f = [rng.randint(-30, 30) for _ in range(rng.randrange(8))]
            if k % 3 == 0:  # g divides f over Z
                f = list_mul(ZZ, g, [rng.randint(-5, 5) for _ in range(rng.randrange(1, 5))])
            f = drop_trailing_zeros(f)
            q, r = sympy.div(as_expr(f), as_expr(g), x, domain="QQ")
            q, r = as_list(q), as_list(r)
            got = poly_divmod(ZZ, f, g)
            if all(c.q == 1 for c in q):
                integral += 1
                assert got == ([int(c) for c in q], [int(c) for c in r]), (f, g)
            else:
                assert got is None, (f, g)
        assert 100 < integral < 400

    def test_by_zero(self):
        with pytest.raises(ZeroDivisionError):
            poly_divmod(ZZ, [1, 2], [])

    @pytest.mark.parametrize("p", [2, 3, 5, 503])
    @given(f=int_lists, g=int_lists)
    def test_monic_division_reduces_to_gf_p(self, p, f, g):
        # by a monic g the division over Z never fails, and reducing its
        # quotient and remainder mod p gives the division over GF(p)
        g = g + [1]
        q, r = poly_divmod(ZZ, f, g)
        assert (reduce_mod_p(q, p), reduce_mod_p(r, p)) == poly_divmod(p, f, g)


class TestReductionEvalDerivative:
    def test_reduce_examples(self):
        assert reduce_mod_p([4, 3, 1], 3) == [1, 0, 1]
        assert reduce_mod_p([0, 1, 3], 3) == [0, 1]
        assert reduce_mod_p([-10, -3, 0, 1], 2) == [0, 1, 0, 1]

    @pytest.mark.parametrize("p", [2, 3, 5])
    def test_reduce_is_ring_hom(self, p):
        rng = random.Random(p)
        for _ in range(100):
            f = [rng.randrange(-20, 20) for _ in range(rng.randrange(6))]
            g = [rng.randrange(-20, 20) for _ in range(rng.randrange(6))]
            f, g = drop_trailing_zeros(f), drop_trailing_zeros(g)
            assert reduce_mod_p(list_mul(ZZ, f, g), p) == list_mul(
                p, reduce_mod_p(f, p), reduce_mod_p(g, p)
            )

    def test_eval_examples(self):
        assert poly_eval(ZZ, [1, 0, 1], 4) == 17
        assert poly_eval(ZZ, [7, 3, 9], 0) == 7
        assert poly_eval(ZZ, [], 12345) == 0

    def test_derivative_examples(self):
        assert formal_derivative(ZZ, [-80, -30, 0, 1]) == [-30, 0, 3]
        assert formal_derivative(ZZ, [5]) == []
        p = 5
        xp = [0] * p + [1]
        assert formal_derivative(p, xp) == []

    def test_mod_pow(self):
        f = [1, 0, 1]
        assert poly_mod_pow(3, [0, 1], 9, f) == [0, 1]
        assert poly_mod_pow(3, [0, 1], 0, f) == [1]

    def test_gcd(self):
        assert poly_gcd(5, [4, 0, 1], [4, 1]) == [4, 1]

    def test_content(self):
        assert content([2, 4, 6]) == 2
        assert content([]) == 0
        assert content([-3, 9]) == 3


@settings(max_examples=50)
@given(fp_lists(5), fp_lists(5), fp_lists(5))
def test_fp_ring_laws(a, b, c):
    assert list_mul(5, a, list_mul(5, b, c)) == list_mul(5, list_mul(5, a, b), c)
    assert list_mul(5, a, list_add(5, b, c)) == list_add(
        5, list_mul(5, a, b), list_mul(5, a, c)
    )
    assert list_sub(5, a, a) == []
