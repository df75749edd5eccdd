import random

import pytest

from ringcert import certio
from ringcert.exactalg import ZZ, deg, drop_trailing_zeros, formal_derivative, list_mul
from ringcert.orders import build_order_description
from ringcert.resultants import (
    disc_order,
    disc_poly,
    power_basis_index,
    sylvester_matrix,
)
from reference import lattice_index, naive_det, resultant


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

    def test_norm_route_matches_sylvester_determinant(self):
        # det of multiplication by T'(theta) against the Sylvester oracle
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


def disc_poly_fp(p, f):
    return resultant(p, f, formal_derivative(p, f))


class TestOrderDiscriminant:
    def test_cubic_30_80(self):
        desc = build_order_description([-80, -30, 0, 1], 2, [[2, 0, 0], [0, 2, 0], [2, 0, 1]])
        assert power_basis_index(desc) == 2
        assert disc_order(desc, disc_poly(list(desc.T))) == -16200

    def test_monogenic(self):
        desc = build_order_description([1, -1, 1], 1, [[1, 0], [0, 1]])
        assert power_basis_index(desc) == 1
        assert disc_order(desc, disc_poly(list(desc.T))) == -3

    def test_cubic_3_10(self):
        desc = build_order_description([-10, -3, 0, 1], 2, [[2, 0, 0], [0, 2, 0], [0, 1, -1]])
        assert power_basis_index(desc) == 2
        # disc(T) = -2592 classically; value = (-1)^3 * 2592 / 4
        assert disc_order(desc, disc_poly(list(desc.T))) == -648

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
            desc = build_order_description(list(fx["T"]), fx["d"], [list(c) for c in fx["columns"]])
            assert disc_order(desc, disc_poly(list(desc.T))) == fx["disc"], name
            checked += 1
        assert checked == 10
