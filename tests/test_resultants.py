import random

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from ringcert import certio, resultants
from ringcert.exactalg import ZZ, deg, drop_trailing_zeros, formal_derivative, list_mul, poly_divmod
from ringcert.orders import build_order_description
from ringcert.resultants import disc_order, disc_poly, power_basis_index
from reference import lattice_index, naive_det, resultant, sylvester_matrix


def poly_from_roots(p, roots, lead=1):
    f = [lead]
    for r in roots:
        f = list_mul(p, f, [-r, 1])
    return f


class TestResultant:
    def test_shared_root_vanishes(self):
        assert resultant(ZZ, [0, 0, 1], [0, 2]) == 0  # X^2 and 2X

    def test_constant_g(self):
        assert resultant(ZZ, [5, 1, 3], [1]) == 1
        assert resultant(ZZ, [5, 1, 3, 7], [2]) == 8  # c^(deg f)

    def test_linear_pair_pins_convention(self):
        # roots 2 and 5: (-1)^(1*1) * (2 - 5) = 3
        assert resultant(ZZ, [-2, 1], [-5, 1]) == 3

    def test_matches_naive_determinant(self):
        rng = random.Random(6)
        for _ in range(60):
            f = drop_trailing_zeros([rng.randrange(-6, 7) for _ in range(rng.randrange(1, 5))])
            g = drop_trailing_zeros([rng.randrange(-6, 7) for _ in range(rng.randrange(1, 5))])
            if deg(f) < 0 or deg(g) < 0:
                continue
            s = sylvester_matrix(f, g)
            assert resultant(ZZ, f, g) == naive_det(s)

    @pytest.mark.parametrize("p", [5, 7, 11])
    def test_product_form_oracle(self, p):
        rng = random.Random(p * 31)
        for _ in range(150):
            n = rng.randrange(1, 4)
            m = rng.randrange(1, 4)
            a = rng.randrange(1, p)
            b = rng.randrange(1, p)
            alphas = [rng.randrange(p) for _ in range(n)]
            betas = [rng.randrange(p) for _ in range(m)]
            f = poly_from_roots(p, alphas, a)
            g = poly_from_roots(p, betas, b)
            prod = 1
            for x in alphas:
                for y in betas:
                    prod = (prod * (x - y)) % p
            expected = (pow(-1, n * m, p) * pow(a, m, p) * pow(b, n, p) * prod) % p
            assert resultant(p, f, g) == expected

    @pytest.mark.parametrize("p", [5, 7])
    def test_swap_rule(self, p):
        rng = random.Random(p)
        for _ in range(80):
            f = drop_trailing_zeros([rng.randrange(p) for _ in range(rng.randrange(1, 5))])
            g = drop_trailing_zeros([rng.randrange(p) for _ in range(rng.randrange(1, 5))])
            if deg(f) < 0 or deg(g) < 0:
                continue
            lhs = resultant(p, f, g)
            rhs = (pow(-1, deg(f) * deg(g), p) * resultant(p, g, f)) % p
            assert lhs == rhs

    @pytest.mark.parametrize("p", [7, 11])
    def test_common_root_dichotomy(self, p):
        rng = random.Random(p + 1)
        for _ in range(80):
            alphas = [rng.randrange(p) for _ in range(rng.randrange(1, 4))]
            betas = [rng.randrange(p) for _ in range(rng.randrange(1, 4))]
            f = poly_from_roots(p, alphas)
            g = poly_from_roots(p, betas)
            r = resultant(p, f, g)
            if set(alphas) & set(betas):
                assert r == 0
            else:
                assert r != 0

    def test_zero_polynomial_rejected(self):
        with pytest.raises(ValueError):
            resultant(ZZ, [], [1, 2])


class TestDiscriminant:
    def test_cubic_anchor(self):
        # classical depressed-cubic value -4p^3 - 27q^2 = -64800, and the
        # convention here gives resultant(f, f') = +64800
        assert disc_poly([-80, -30, 0, 1]) == 64800

    def test_repeated_root(self):
        assert disc_poly([0, 0, 1]) == 0

    def test_quadratic(self):
        # X^2 + X + 1: b^2 - 4c = -3; this convention yields +3
        assert disc_poly([1, 1, 1]) == 3

    def test_subresultant_route_matches_sylvester_determinant(self):
        # the remainder sequence against the Sylvester oracle
        rng = random.Random(1030)
        polys = [[-1, -1] + [0] * (n - 2) + [1] for n in (12, 16, 20)] + [[1] * 19, [1] * 29]
        polys += [[rng.randrange(-50, 51) for _ in range(n)] + [1] for n in range(1, 31)]
        polys += [[rng.randrange(-3, 4) for _ in range(n)] + [1] for n in range(1, 31)]
        for T in polys:
            assert disc_poly(T) == resultant(ZZ, T, formal_derivative(ZZ, T)), T

    def test_needs_monic_positive_degree(self):
        for T in ([5], [1, 2], [3, 0, -1]):
            with pytest.raises(ValueError):
                disc_poly(T)

    def test_power_basis_bridge(self):
        # prod_{i<j} (a_i - a_j)^2 = (-1)^(n(n-1)/2) * disc(f) for split f
        for p in (5, 7, 11):
            rng = random.Random(p * 13)
            for _ in range(60):
                n = rng.randrange(2, 5)
                roots = rng.sample(range(p), n)
                f = poly_from_roots(p, roots)
                prod = 1
                for i in range(n):
                    for j in range(i + 1, n):
                        prod = (prod * (roots[i] - roots[j]) ** 2) % p
                sign = pow(-1, n * (n - 1) // 2, p)
                assert (sign * disc_poly_fp(p, f)) % p == prod


def _sympy_resultant(T):
    """resultant(T, T') from sympy's discriminant, which is
    (-1)^(n(n-1)/2) * resultant(T, T') for monic T of degree n."""
    sympy = pytest.importorskip("sympy")
    x = sympy.Symbol("x")
    n = deg(T)
    disc = int(sympy.discriminant(sympy.Poly(T[::-1], x)))
    return -disc if n * (n - 1) // 2 % 2 else disc


def _check_oracles(T):
    got = disc_poly(T)
    assert got == resultant(ZZ, T, formal_derivative(ZZ, T)), T
    assert got == _sympy_resultant(T), T
    return got


coefficients = st.integers(min_value=-50, max_value=50)


def monic(lo, hi, coeffs=coefficients):
    """Monic integer polynomials of degree lo..hi."""
    return st.integers(min_value=lo, max_value=hi).flatmap(
        lambda n: st.lists(coeffs, min_size=n, max_size=n).map(lambda c: c + [1]))


@st.composite
def sparse_trinomials(draw):
    """X^n + a X^k + b: the degree gaps give abnormal remainder steps."""
    n = draw(st.integers(min_value=2, max_value=24))
    k = draw(st.integers(min_value=1, max_value=n - 1))
    T = [0] * (n + 1)
    T[0], T[k], T[n] = draw(coefficients), draw(coefficients), 1
    return T


@st.composite
def derivative_with_content(draw):
    """T' with content q > 1: q | n and q divides every lower coefficient."""
    n = draw(st.integers(min_value=2, max_value=16))
    q = draw(st.sampled_from([q for q in range(2, n + 1) if n % q == 0]))
    return [q * c for c in draw(st.lists(coefficients, min_size=n, max_size=n))] + [1]


@st.composite
def repeated_factor(draw):
    """F^2 * G with F of degree >= 1: T and T' share F, so N = 0."""
    small = st.integers(min_value=-9, max_value=9)
    f, g = draw(monic(1, 6, small)), draw(monic(0, 6, small))
    return list_mul(ZZ, list_mul(ZZ, f, f), g)


class TestDiscriminantOracles:
    """disc_poly against the Sylvester determinant (`reference.resultant`),
    sympy's discriminant, and closed forms."""

    # the Sylvester oracle is a (2n - 1) x (2n - 1) determinant: degree
    # <= 24 keeps each draw to a few milliseconds
    @settings(max_examples=60, deadline=None)
    @given(monic(1, 24))
    def test_dense(self, T):
        _check_oracles(T)

    @settings(max_examples=60, deadline=None)
    @given(sparse_trinomials())
    def test_sparse(self, T):
        _check_oracles(T)

    @settings(max_examples=40, deadline=None)
    @given(derivative_with_content())
    @example([2, 0, 0, 0, 1])
    @example([3, 0, 0, 3, 0, 0, 1])
    def test_derivative_with_content(self, T):
        _check_oracles(T)

    @settings(max_examples=40, deadline=None)
    @given(repeated_factor())
    def test_repeated_factor(self, T):
        assert _check_oracles(T) == 0

    @staticmethod
    def trinomial(n, a, b):
        """resultant(X^n + aX + b, its derivative), n >= 2."""
        return n**n * b ** (n - 1) + (-1) ** (n - 1) * (n - 1) ** (n - 1) * a**n

    def test_trinomial_formula_at_small_degree(self):
        assert self.trinomial(2, 1, 1) == 4 * 1 - 1**2 == 3 == disc_poly([1, 1, 1])
        assert self.trinomial(3, -30, -80) == 64800 == disc_poly([-80, -30, 0, 1])

    @settings(max_examples=40, deadline=None)
    @given(st.integers(min_value=2, max_value=1000), st.integers(-10**6, 10**6),
           st.integers(-10**6, 10**6))
    @example(2, 1, 1)
    @example(3, 1, 1)
    @example(1000, -1, -1)
    def test_trinomial_closed_form(self, n, a, b):
        T = [b, a] + [0] * (n - 2) + [1]
        assert disc_poly(T) == self.trinomial(n, a, b)

    @pytest.mark.parametrize("p", [2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31])
    def test_cyclotomic(self, p):
        # disc(Phi_p) = (-1)^((p-1)/2) p^(p-2), classically signed
        n = p - 1
        sign = -1 if n * (n - 1) // 2 % 2 else 1
        assert sign * disc_poly([1] * p) == (-1) ** ((p - 1) // 2) * p ** (p - 2)

    def test_inexact_division_is_an_internal_error(self, monkeypatch):
        # a pseudo-remainder off by one: the division by g * h^delta = 9 in
        # the second step of X^3 - 30X - 80 is no longer exact
        def off_by_one(p, f, g):
            q, r = poly_divmod(p, f, g)
            return q, [r[0] + 1] + r[1:]
        monkeypatch.setattr(resultants, "poly_divmod", off_by_one)
        with pytest.raises(ArithmeticError, match="not exact"):
            disc_poly([-80, -30, 0, 1])


def disc_poly_fp(p, f):
    return resultant(p, f, formal_derivative(p, f))


class TestOrderDiscriminant:
    def test_cubic_30_80(self):
        T = [-80, -30, 0, 1]
        desc = build_order_description(T, 2, [[2, 0, 0], [0, 2, 0], [2, 0, 1]])
        assert power_basis_index(desc) == 2
        assert disc_order(desc, disc_poly(T)) == -16200

    def test_monogenic(self):
        T = [1, -1, 1]
        desc = build_order_description(T, 1, [[1, 0], [0, 1]])
        assert power_basis_index(desc) == 1
        assert disc_order(desc, disc_poly(T)) == -3

    def test_cubic_3_10(self):
        T = [-10, -3, 0, 1]
        desc = build_order_description(T, 2, [[2, 0, 0], [0, 2, 0], [0, 1, -1]])
        assert power_basis_index(desc) == 2
        # disc(T) = -2592 classically; value = (-1)^3 * 2592 / 4
        assert disc_order(desc, disc_poly(T)) == -648

    def test_index_routes_agree(self):
        # the diagonal formula against the index of d*I in the span of B
        for T, d, cols in [
            ([-80, -30, 0, 1], 2, [[2, 0, 0], [0, 2, 0], [2, 0, 1]]),
            ([-10, -3, 0, 1], 2, [[2, 0, 0], [0, 2, 0], [0, 1, -1]]),
            ([1, -1, 1], 1, [[1, 0], [0, 1]]),
        ]:
            desc = build_order_description(T, d, cols)
            n = desc.n
            b = [[desc.basis_columns[j][i] for j in range(n)] for i in range(n)]
            d_id = [[d if i == j else 0 for j in range(n)] for i in range(n)]
            assert power_basis_index(desc) == lattice_index(b, d_id)

    def test_fixture_discriminants(self):
        checked = 0
        for name, fx in certio.FIXTURES.items():
            if fx["disc"] is None:
                continue
            T = list(fx["T"])
            desc = build_order_description(T, fx["d"], [list(c) for c in fx["columns"]])
            assert disc_order(desc, disc_poly(T)) == fx["disc"], name
            checked += 1
        assert checked == 10
