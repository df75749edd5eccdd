"""Orders in a number field, described by an explicit basis.

An order O in K = Q[X]/<T> of degree n is presented by a denominator d and
an upper-triangular integer matrix B whose column j holds the coefficients
of b_j = d*w_j as a polynomial in theta.  Closure under multiplication is
certified by structure constants a_ijk and witness polynomials s_ij through
the identity

    b_i * b_j = d * sum_k a_ijk * b_k - T * s_ij

checked for i <= j.  B is triangular, so back-substituting d*e_0 through
it gives d / B_00 and zeros: 1 lies in O exactly when B_00 divides d, and
no identity is written for it.  The power basis (d = 1, B = I) may come
without structure constants: Z[theta] is a ring because T is monic, and
its table is theta^(i+j) mod T, read off one list of theta^k for
k <= 2n - 2 (each the previous one shifted, minus its top coefficient
times T).  A verified
description yields a times table, and all further arithmetic in O happens
on coordinate vectors against that table.
"""

from operator import mul
from typing import NamedTuple

from .exactalg import (
    ZZ,
    _canonical,
    deg,
    drop_trailing_zeros,
    list_mul,
    list_sub,
    mul_pointwise,
    poly_divmod,
)
from .linalg import solve_upper_triangular
from .verdict import Verdict


class ProductEntry(NamedTuple):
    coords: tuple[int, ...]   # coordinates of the product in the basis
    witness: tuple[int, ...]  # the polynomial s of its identity


class OrderDescription(NamedTuple):
    T: tuple[int, ...]                      # monic, degree n
    d: int                                  # common denominator, nonzero
    basis_columns: tuple[tuple[int, ...], ...]  # column j = coeffs of b_j, len n
    # ragged upper triangle: products[i][j-i] is w_i*w_j; empty for the
    # power basis, whose table is rebuilt from theta^k
    products: tuple[tuple[ProductEntry, ...], ...]

    @property
    def n(self) -> int:
        return len(self.T) - 1


class TimesTable(NamedTuple):
    n: int
    table: tuple[tuple[tuple[int, ...], ...], ...]  # table[i][j] = coords of w_i*w_j


def _column_poly(desc: OrderDescription, j: int) -> list[int]:
    return drop_trailing_zeros(list(desc.basis_columns[j]))


def _basis_fault(n: int, columns) -> str | None:
    """Why the columns do not form an n x n upper-triangular B with nonzero
    diagonal, or None.  Every solve against B below relies on that shape."""
    if len(columns) != n or any(len(c) != n for c in columns):
        return "B-shape"
    for j in range(n):
        if columns[j][j] == 0:
            return f"B-diagonal/j={j}"
        for i in range(j + 1, n):
            if columns[j][i] != 0:
                return f"B-triangular/i={i}/j={j}"
    return None


def _is_power_basis(d: int, columns) -> bool:
    """d = 1 and B = I, for columns already of shape n x n."""
    return d == 1 and all(
        all(c == int(i == j) for i, c in enumerate(col)) for j, col in enumerate(columns)
    )


def theta_powers(T) -> list[tuple[int, ...]]:
    """theta^k mod T as coordinate tuples of length n, for k = 0..2n-2 and T
    monic of degree n: each is the previous one shifted up one degree, minus
    its top coefficient times T, so no division happens."""
    n = len(T) - 1
    power = [1] + [0] * (n - 1)
    out = [tuple(power)]
    for _ in range(2 * n - 2):
        top = power[-1]
        power = [0] + power[:-1]
        if top:
            power = [c - top * t for c, t in zip(power, T)]  # stops before lc T
        out.append(tuple(power))
    return out


def basis_rows(columns) -> list[list[int]]:
    """The rows of B from its columns."""
    return [list(row) for row in zip(*columns)]


def basis_combination(rows, coords) -> list[int]:
    """B . coords as a canonical list: the polynomial sum_k coords[k] * b_k."""
    return drop_trailing_zeros([sum(map(mul, row, coords)) for row in rows])


def _products_fault(desc: OrderDescription, T: list[int], rows) -> str | None:
    """The first failing shape or identity of the structure constants, or None."""
    n = desc.n
    if len(desc.products) != n:
        return "products-shape"
    for i, row in enumerate(desc.products):
        if len(row) != n - i or any(len(entry.coords) != n for entry in row):
            return f"products-shape/i={i}"

    # A witness of degree >= n - 1 makes T * witness of degree >= 2n - 1, above
    # every other term of its identity, so the identity fails; such witnesses
    # are rejected before they are multiplied.
    b = [_column_poly(desc, j) for j in range(n)]
    for i in range(n):
        for j in range(i, n):
            entry = desc.products[i][j - i]
            witness = drop_trailing_zeros(list(entry.witness))
            if len(witness) >= n:
                return f"identity/i={i}/j={j}"
            combo = basis_combination(rows, entry.coords)
            rhs = list_sub(ZZ, mul_pointwise(ZZ, desc.d, combo), list_mul(ZZ, T, witness))
            if list_mul(ZZ, b[i], b[j]) != rhs:
                return f"identity/i={i}/j={j}"
    return None


def verify_order_builder(desc: OrderDescription) -> Verdict:
    """Check the whole description; acceptance certifies that the basis spans
    a subring of K containing 1, hence an order inside the ring of integers."""
    n = desc.n
    T = list(desc.T)
    if n < 1:
        return Verdict.reject("order/T-degree")
    if T[-1] != 1:
        return Verdict.reject("order/T-not-monic")
    if desc.d == 0:
        return Verdict.reject("order/denominator-zero")
    fault = _basis_fault(n, desc.basis_columns)
    if fault:
        return Verdict.reject(f"order/{fault}")
    rows = basis_rows(desc.basis_columns)
    # products may be empty only for the power basis, whose table
    # times_table_of rebuilds; every other table is checked entry by entry
    if desc.products or not _is_power_basis(desc.d, desc.basis_columns):
        fault = _products_fault(desc, T, rows)
        if fault:
            return Verdict.reject(f"order/{fault}")

    if desc.d % desc.basis_columns[0][0]:
        return Verdict.reject("order/one")
    return Verdict.accept()


def times_table_of(desc: OrderDescription) -> TimesTable:
    """Symmetrized coordinate table; call only on a verified description.
    Without products the description is the power basis: table[i][j] is
    theta^(i+j)."""
    n = desc.n
    if not desc.products:
        powers = theta_powers(desc.T)
        return TimesTable(n, tuple(tuple(powers[i:i + n]) for i in range(n)))
    table = [[None] * n for _ in range(n)]
    for i, row in enumerate(desc.products):
        for j, entry in enumerate(row, start=i):
            vec = tuple(entry.coords)
            table[i][j] = vec
            table[j][i] = vec
    return TimesTable(n, tuple(tuple(row) for row in table))


def tt_mul(p: int, tt: TimesTable, x: list, y: list) -> list:
    """Product of coordinate vectors; short lists read as zero-padded.

    Entry k of the product is one integer sum of x_i*y_j*table[i][j][k],
    reduced once over GF(p)."""
    n, table = tt.n, tt.table
    ys = [(j, yj) for j, yj in enumerate(y[:n]) if yj]
    coeffs, vecs = [], []
    for i, xi in enumerate(x[:n]):
        if xi:
            row = table[i]
            for j, yj in ys:
                coeffs.append(xi * yj)
                vecs.append(row[j])
    if not vecs:
        return []
    return _canonical(p, [sum(map(mul, coeffs, col)) for col in zip(*vecs)])


def tt_pow(p: int, tt: TimesTable, x: list, e: int) -> list:
    """x^e for e >= 1 by square and multiply over the times table."""
    if e < 1:
        raise ValueError("exponent must be positive")
    result = None
    base = drop_trailing_zeros(list(x))
    while e:
        if e & 1:
            result = base if result is None else tt_mul(p, tt, result, base)
        e >>= 1
        if e:
            base = tt_mul(p, tt, base, base)
    return drop_trailing_zeros(result)


def reduce_table_mod_p(tt: TimesTable, p: int) -> TimesTable:
    """The times table of O/pO with respect to the reduced basis."""
    return TimesTable(
        tt.n,
        tuple(
            tuple(tuple(c % p for c in vec) for vec in row) for row in tt.table
        ),
    )


# ---------------------------------------------------------------------------
# generator side: structure constants from a raw basis
# ---------------------------------------------------------------------------


class NotAnOrder(Exception):
    """The given basis does not span a ring (or fails shape constraints)."""


def build_order_description(
    T: list[int], d: int, basis_columns: list[list[int]]
) -> OrderDescription:
    """Find the structure constants and witnesses for a basis, or raise.

    Expects T monic of degree n, d nonzero, and B upper triangular with
    nonzero diagonal (a Hermite-shaped basis).  The power basis gets no
    products (the verifier rebuilds them).  Raises NotAnOrder when the
    products w_i*w_j do not have integral coordinates, i.e. the span is not
    closed under multiplication, or when 1 is not in the span, that is
    when B_00 does not divide d.
    """
    T = drop_trailing_zeros(list(T))
    n = deg(T)
    if n < 1 or T[-1] != 1:
        raise NotAnOrder("defining polynomial must be monic of positive degree")
    if d == 0:
        raise NotAnOrder("denominator must be nonzero")
    fault = _basis_fault(n, basis_columns)
    if fault:
        raise NotAnOrder(f"basis matrix must be upper triangular with nonzero diagonal ({fault})")

    columns = tuple(tuple(c) for c in basis_columns)
    if _is_power_basis(d, columns):
        return OrderDescription(T=tuple(T), d=d, basis_columns=columns, products=())

    b_mat = basis_rows(basis_columns)
    b_polys = [drop_trailing_zeros(list(c)) for c in basis_columns]

    products = []
    for i in range(n):
        row = []
        for j in range(i, n):
            prod = list_mul(ZZ, b_polys[i], b_polys[j])
            q, rem = poly_divmod(ZZ, prod, T)
            coords = solve_upper_triangular(b_mat, rem + [0] * (n - len(rem)), d)
            if coords is None:
                raise NotAnOrder(f"product w_{i+1}*w_{j+1} leaves the span")
            row.append(ProductEntry(tuple(coords), tuple(mul_pointwise(ZZ, -1, q))))
        products.append(tuple(row))
    if d % basis_columns[0][0]:
        raise NotAnOrder("1 is not in the span of the basis")
    return OrderDescription(T=tuple(T), d=d, basis_columns=columns, products=tuple(products))


def theta_coordinates(desc: OrderDescription) -> list[int] | None:
    """Coordinates of theta in the basis, or None when theta is outside O."""
    return element_coordinates(desc, [0, 1], 1)


def element_coordinates(desc: OrderDescription, poly_num: list[int], den: int) -> list[int] | None:
    """Coordinates of (1/den)*poly(theta) in the basis, or None if not in O."""
    _, rem = poly_divmod(ZZ, poly_num, list(desc.T))
    rhs = [c * desc.d for c in rem + [0] * (desc.n - len(rem))]
    return solve_upper_triangular(basis_rows(desc.basis_columns), rhs, den)
