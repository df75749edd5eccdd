import random
import time

import pytest

from ringcert import certio
from ringcert.exactalg import (
    ZZ,
    drop_trailing_zeros,
    list_mul,
    list_sub,
    poly_divmod,
    reduce_mod_p,
)
from ringcert.orders import (
    OrderDescription,
    ProductEntry,
    build_order_description,
    reduce_table_mod_p,
    theta_coordinates,
    theta_powers,
    tt_mul,
    tt_pow,
    verify_order_builder,
)
from ringcert.pipeline import BundleError, generate_bundle
from reference import fraction_back_substitution, integral, power_basis_with_table

# cubic field Q[X]/<X^3 - 3X - 10> with integral basis {1, a, (a - a^2)/2}
CUBIC_T = [-10, -3, 0, 1]
CUBIC_D = 2
CUBIC_B = [[2, 0, 0], [0, 2, 0], [0, 1, -1]]

GAUSS_T = [1, 0, 1]
GAUSS_B = [[1, 0], [0, 1]]


@pytest.fixture(scope="module")
def cubic():
    return build_order_description(CUBIC_T, CUBIC_D, CUBIC_B)


@pytest.fixture(scope="module")
def gauss():
    return build_order_description(GAUSS_T, 1, GAUSS_B)


@pytest.fixture(scope="module")
def cubic_table(cubic):
    return verify_order_builder(cubic, CUBIC_T)[1]


@pytest.fixture(scope="module")
def gauss_table(gauss):
    return verify_order_builder(gauss, GAUSS_T)[1]


def _with_witness(desc, i, j, witness):
    """desc with the witness of w_i*w_j, i <= j, replaced."""
    rows = [list(row) for row in desc.products]
    rows[i][j - i] = ProductEntry(tuple(witness))
    return desc._replace(products=tuple(map(tuple, rows)))


class TestBuilder:
    def test_cubic_fixture_verifies(self, cubic):
        v, tt = verify_order_builder(cubic, CUBIC_T)
        assert v.accepted and tt.n == 3

    def test_cubic_w3_squared(self, cubic_table):
        # ((a - a^2)/2)^2 = -5*w1 + 2*w2 - 2*w3, derived from its witness
        assert cubic_table.table[2][2] == (-5, 2, -2)

    def test_bumped_witness_rejected(self, cubic):
        # a witness off by c*X^k moves y by c*X^k*T, of degree n + k >= n
        n = cubic.n
        for i in range(n):
            for j in range(i, n):
                honest = list(cubic.products[i][j - i].witness)
                for k in range(n - 1):
                    for c in (1, -1):
                        bumped = honest + [0] * (k + 1 - len(honest))
                        bumped[k] += c
                        v, tt = verify_order_builder(_with_witness(cubic, i, j, bumped), CUBIC_T)
                        assert v.reason == f"order/identity/i={i}/j={j}" and tt is None

    def test_long_witness_rejected_quickly(self, cubic):
        witness = tuple(range(-5000, 5000)) + (10**4299,)
        bad = _with_witness(cubic, 0, 1, witness)
        start = time.perf_counter()
        v, _ = verify_order_builder(bad, CUBIC_T)
        assert time.perf_counter() - start < 1.0
        assert v.reason == "order/identity/i=0/j=1"

    def test_non_ring_basis_raises(self):
        # {1, a, a^2/2} is not closed under multiplication: w_1*w_2 = a^3/2
        # = 5 + 3a/2; the generator leaves that to the verifier's check
        with pytest.raises(BundleError, match="order/identity/i=1/j=2$"):
            generate_bundle(CUBIC_T, 2, [[2, 0, 0], [0, 2, 0], [0, 0, 1]])

    def test_gauss_table(self, gauss_table):
        assert gauss_table.table == (((1, 0), (0, 1)), ((0, 1), (-1, 0)))

    def test_one_needs_b00_to_divide_d(self, cubic):
        # B is triangular, so d*e_0 back-substitutes to d / B_00: 1 is in O
        # exactly when B_00 divides d (the cubic's B_00 = d = 2); 2*Z[i] has
        # every product identity exact
        assert cubic.basis_columns[0][0] == cubic.d == 2
        desc = build_order_description(GAUSS_T, 1, [[2, 0], [0, 2]])
        assert verify_order_builder(desc, GAUSS_T) == ((False, "order/one"), None)
        with pytest.raises(BundleError, match="order/one$"):
            generate_bundle(GAUSS_T, 1, [[2, 0], [0, 2]])

    def test_half_theta_basis_rejected(self, tmp_path):
        # {1, theta/2} in Q(i): d = 2, columns (2, 0) and (0, 1), with the
        # honest witness of (theta/2)^2 = -1/4, which is not integral
        desc = build_order_description(GAUSS_T, 2, [[2, 0], [0, 1]])
        assert desc.products[1][0].witness == (-1,)
        path = tmp_path / "order.json"
        certio.write_file(path, desc)
        v, tt = verify_order_builder(certio.parse_file(path), GAUSS_T)
        assert v.reason == "order/identity/i=1/j=1" and tt is None

    def test_basis_of_another_degree_rejected(self, cubic):
        # the order carries no T of its own: it is checked over the caller's
        assert verify_order_builder(cubic, [1, 0, 0, 0, 1])[0].reason == "order/B-shape"


class TestTimesTableArithmetic:
    def test_gauss_i_squared(self, gauss_table):
        assert tt_mul(ZZ, gauss_table, [0, 1], [0, 1]) == [-1]

    def test_gauss_i_fourth(self, gauss_table):
        assert tt_pow(ZZ, gauss_table, [0, 1], 4) == [1]

    def test_unit_row(self, cubic_table):
        tt = cubic_table
        rng = random.Random(1)
        for _ in range(20):
            x = [rng.randrange(-9, 10) for _ in range(3)]
            assert tt_mul(ZZ, tt, [1], x) == drop_trailing_zeros(x)

    def test_cubic_w3_squared_via_table(self, cubic_table):
        tt = cubic_table
        assert tt_mul(ZZ, tt, [0, 0, 1], [0, 0, 1]) == [-5, 2, -2]
        assert tt_pow(ZZ, tt, [0, 0, 1], 2) == [-5, 2, -2]

    def test_pow_edge_cases(self, cubic_table):
        tt = cubic_table
        assert tt_pow(ZZ, tt, [3, 1, 2], 1) == [3, 1, 2]
        with pytest.raises(ValueError):
            tt_pow(ZZ, tt, [3, 1, 2], 0)

    def test_ring_laws_random(self, cubic_table):
        tt = cubic_table
        rng = random.Random(9)
        for _ in range(60):
            x, y, z = (
                [rng.randrange(-7, 8) for _ in range(3)] for _ in range(3)
            )
            assert tt_mul(ZZ, tt, x, y) == tt_mul(ZZ, tt, y, x)
            lhs = tt_mul(ZZ, tt, x, tt_mul(ZZ, tt, y, z))
            rhs = tt_mul(ZZ, tt, tt_mul(ZZ, tt, x, y), z)
            assert lhs == rhs

    def test_oracle_polynomial_route(self, cubic, cubic_table):
        # multiply via Q[X] mod T and re-express against the basis
        tt = cubic_table
        rng = random.Random(4)
        b_mat = [[cubic.basis_columns[j][i] for j in range(3)] for i in range(3)]
        for _ in range(100):
            x = [rng.randrange(-9, 10) for _ in range(3)]
            y = [rng.randrange(-9, 10) for _ in range(3)]
            got = tt_mul(ZZ, tt, x, y)
            px = [sum(cubic.basis_columns[k][i] * x[k] for k in range(3)) for i in range(3)]
            py = [sum(cubic.basis_columns[k][i] * y[k] for k in range(3)) for i in range(3)]
            prod = list_mul(ZZ, drop_trailing_zeros(px), drop_trailing_zeros(py))
            # reduce modulo T, then solve B * z = rem / d
            _, rem = poly_divmod(ZZ, prod, CUBIC_T)
            rhs = rem + [0] * (3 - len(rem))
            z = integral(fraction_back_substitution(b_mat, rhs, CUBIC_D))
            assert z is not None and drop_trailing_zeros(z) == got

    def test_mod_p_table(self, cubic_table):
        tt = reduce_table_mod_p(cubic_table, 3)
        assert tt_mul(3, tt, [0, 0, 1], [0, 0, 1]) == [1, 2, 1]


    @pytest.mark.parametrize("p", [2, 3, 503])
    def test_mod_p_product_is_reduced_integer_product(self, p):
        rng = random.Random(p)
        for name, fx in certio.FIXTURES.items():
            if fx["columns"] is None:
                continue
            T = list(fx["T"])
            tt = verify_order_builder(build_order_description(T, fx["d"], fx["columns"]), T)[1]
            tt_p = reduce_table_mod_p(tt, p)
            n = tt.n
            for _ in range(20):
                x = [rng.randrange(-600, 600) for _ in range(rng.randrange(n + 1))]
                y = [rng.randrange(-600, 600) for _ in range(rng.randrange(n + 1))]
                want = reduce_mod_p(tt_mul(ZZ, tt, x, y), p)
                got = tt_mul(p, tt_p, [c % p for c in x], [c % p for c in y])
                assert got == want, (name, x, y)


class TestElementCoordinates:
    def test_theta_in_cubic(self, cubic):
        assert theta_coordinates(cubic, CUBIC_T) == [0, 1, 0]

    def test_w3_roundtrip(self, cubic, cubic_table):
        # theta - theta^2 = 2*w3, with theta^2 from the derived table
        theta = theta_coordinates(cubic, CUBIC_T)
        assert list_sub(ZZ, theta, tt_mul(ZZ, cubic_table, theta, theta)) == [0, 0, 2]

    def test_outside(self):
        # Z[2i] = span{1, 2i} does not hold theta = i
        assert theta_coordinates(build_order_description(GAUSS_T, 1, [[1, 0], [0, 2]]), GAUSS_T) is None


def _identity(n):
    return [[int(i == j) for i in range(n)] for j in range(n)]


def _power_basis_polys():
    """Every fixture field's T, X^n - X - 1 (n = 12, 16, 20), Phi_19, Phi_29
    and seeded monic T of degree 1-30."""
    rng = random.Random(30)
    polys = [list(fx["T"]) for fx in certio.FIXTURES.values() if fx["columns"] is not None]
    polys += [[-1, -1] + [0] * (n - 2) + [1] for n in (12, 16, 20)]
    polys += [[1] * 19, [1] * 29]
    polys += [[rng.randrange(-50, 51) for _ in range(n)] + [1] for n in range(1, 31)]
    return polys


class TestPowerBasis:
    def test_theta_table_equals_long_division_table(self):
        for T in _power_basis_polys():
            n = len(T) - 1
            desc = build_order_description(T, 1, _identity(n))
            assert desc.products == ()
            v, rebuilt = verify_order_builder(desc, T)
            assert v.accepted
            v, derived = verify_order_builder(power_basis_with_table(T), T)
            assert v.accepted
            assert rebuilt == derived, T

    def test_theta_powers_reduce_monomials(self):
        for T in _power_basis_polys():
            n = len(T) - 1
            powers = theta_powers(T)
            assert len(powers) == 2 * n - 1
            for k, power in enumerate(powers):
                _, rem = poly_divmod(ZZ, [0] * k + [1], T)
                assert list(power) == rem + [0] * (n - len(rem)), (T, k)

    def test_empty_products_need_d_1_and_identity_basis(self, gauss):
        # each basis spans Z[i], but only d = 1 with B = I may omit the table
        for d, cols in ((2, [[2, 0], [0, 2]]), (-1, [[-1, 0], [0, -1]]), (1, [[1, 0], [1, 1]])):
            desc = build_order_description(GAUSS_T, d, cols)
            assert verify_order_builder(desc, GAUSS_T)[0].accepted
            bare = desc._replace(products=())
            assert verify_order_builder(bare, GAUSS_T) == ((False, "order/products-shape"), None)
        half = gauss._replace(products=((ProductEntry(()),) * 2,))
        assert verify_order_builder(half, GAUSS_T)[0].reason == "order/products-shape"

    def test_empty_products_on_a_cubic_rejected(self, cubic):
        bare = cubic._replace(products=())
        assert verify_order_builder(bare, CUBIC_T)[0].reason == "order/products-shape"

    def test_one_outside_a_closed_span_rejected(self):
        # c*Z[i] = span{c, c*i}, d = 1, is closed under multiplication with
        # every product identity exact (c*i * c*i = -c * c + c^2 * T), but
        # 1 lies in it only when B_00 = c divides d = 1
        for c in (1, -1, 2, 3, -2):
            desc = OrderDescription(
                d=1, basis_columns=((c, 0), (0, c)),
                products=((ProductEntry(()), ProductEntry(())), (ProductEntry((-c * c,)),)))
            v, _ = verify_order_builder(desc, GAUSS_T)
            assert v.accepted if c in (1, -1) else v.reason == "order/one", c

    def test_full_power_basis_table_checked_entry_by_entry(self):
        # w_1*w_3 = X^4 needs no witness; with one, y has degree 5
        T = [-1, -1, 0, 0, 0, 1]
        full = power_basis_with_table(T)
        assert full.products[1][2].witness == ()
        bad = _with_witness(full, 1, 3, (1,))
        assert verify_order_builder(bad, T)[0].reason == "order/identity/i=1/j=3"
