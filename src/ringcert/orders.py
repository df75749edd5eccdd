"""Orders in a number field, described by an explicit basis.

An order O in K = Q[X]/<T> of degree n is presented by a denominator d and
an upper-triangular integer matrix B whose column j holds the coefficients
of b_j = d*w_j as a polynomial in theta; T comes from the caller.  Closure
under multiplication is certified by one witness polynomial s_ij for each
i <= j: y = b_i*b_j + T*s_ij must have degree below n and back-substitute
through B with denominator d to integers a_ijk, so that

    b_i * b_j = d * sum_k a_ijk * b_k - T * s_ij.

The a_ijk are not written: the check derives them, and they are the times
table.  A wrong s_ij adds T times a nonzero polynomial to y, of degree at
least n, so the degree bound leaves exactly one witness.  B is triangular,
so back-substituting d*e_0 through it gives d / B_00 and zeros: 1 lies in
O exactly when B_00 divides d, and no identity is written for it.  The
power basis (d = 1, B = I) may come without witnesses: Z[theta] is a ring
because T is monic, and its table is theta^(i+j) mod T, read off one list
of theta^k for k <= 2n - 2 (each the previous one shifted, minus its top
coefficient times T).  All further arithmetic in O happens on coordinate
vectors against the times table.
"""

from operator import mul
from typing import NamedTuple

from .exactalg import (
    ZZ,
    _canonical,
    deg,
    drop_trailing_zeros,
    list_add,
    list_mul,
    mul_pointwise,
    poly_divmod,
)
from .linalg import solve_upper_triangular
from .verdict import Verdict


class ProductEntry(NamedTuple):
    witness: tuple[int, ...]  # the polynomial s of its identity


class OrderDescription(NamedTuple):
    d: int                                  # common denominator, nonzero
    basis_columns: tuple[tuple[int, ...], ...]  # column j = coeffs of b_j, len n
    # ragged upper triangle: products[i][j-i] is w_i*w_j; empty for the
    # power basis, whose table is rebuilt from theta^k
    products: tuple[tuple[ProductEntry, ...], ...]

    @property
    def n(self) -> int:
        return len(self.basis_columns)


class TimesTable(NamedTuple):
    n: int
    table: tuple[tuple[tuple[int, ...], ...], ...]  # table[i][j] = coords of w_i*w_j


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


def _product_coords(b_i, b_j, witness, T, rows, d) -> tuple[int, ...] | None:
    """The coordinates of w_i*w_j read off its identity, or None when the
    identity fails: y = b_i*b_j + T*witness must have degree below
    n = len(rows) and back-substitute through B with denominator d to
    integers.  A witness of degree >= n - 1 makes T*witness of degree
    >= 2n - 1, above b_i*b_j, so it is refused before it is multiplied."""
    n = len(rows)
    witness = drop_trailing_zeros(list(witness))
    if len(witness) >= n:
        return None
    y = list_add(ZZ, list_mul(ZZ, b_i, b_j), list_mul(ZZ, T, witness))
    if len(y) > n:
        return None
    coords = solve_upper_triangular(rows, y + [0] * (n - len(y)), d)
    return None if coords is None else tuple(coords)


def verify_order_builder(desc: OrderDescription, T) -> tuple[Verdict, TimesTable | None]:
    """Check the description over T, monic of degree n >= 1 (the caller's
    check).  Acceptance certifies that the basis spans a subring of K
    containing 1, hence an order inside the ring of integers, and comes with
    the order's times table; a rejection comes with None."""
    T = list(T)
    n = len(T) - 1
    if desc.d == 0:
        return Verdict.reject("order/denominator-zero"), None
    fault = _basis_fault(n, desc.basis_columns)
    if fault:
        return Verdict.reject(f"order/{fault}"), None

    # products may be empty only for the power basis, whose table is
    # theta^(i+j); every other table is derived entry by entry
    if not desc.products and _is_power_basis(desc.d, desc.basis_columns):
        powers = theta_powers(T)
        table = [powers[i:i + n] for i in range(n)]
    else:
        if len(desc.products) != n:
            return Verdict.reject("order/products-shape"), None
        for i, row in enumerate(desc.products):
            if len(row) != n - i:
                return Verdict.reject(f"order/products-shape/i={i}"), None
        rows = basis_rows(desc.basis_columns)
        b = [drop_trailing_zeros(list(c)) for c in desc.basis_columns]
        table = [[None] * n for _ in range(n)]
        for i, row in enumerate(desc.products):
            for j, entry in enumerate(row, start=i):
                coords = _product_coords(b[i], b[j], entry.witness, T, rows, desc.d)
                if coords is None:
                    return Verdict.reject(f"order/identity/i={i}/j={j}"), None
                table[i][j] = table[j][i] = coords

    if desc.d % desc.basis_columns[0][0]:
        return Verdict.reject("order/one"), None
    return Verdict.accept(), TimesTable(n, tuple(map(tuple, table)))


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
# generator side: product witnesses for a raw basis
# ---------------------------------------------------------------------------


class NotAnOrder(Exception):
    """T is not monic, or the basis matrix is not n x n."""


def build_order_description(
    T: list[int], d: int, basis_columns: list[list[int]]
) -> OrderDescription:
    """The description of a basis, with each product's witness: the negated
    quotient of b_i*b_j by T.  The power basis gets no witnesses (the
    verifier rebuilds its table).

    Only T monic of degree n and B of shape n x n are checked, since the
    division needs them; whether the basis spans an order is
    `verify_order_builder`'s to decide.  Raises NotAnOrder otherwise.
    """
    T = drop_trailing_zeros(list(T))
    n = deg(T)
    if n < 1 or T[-1] != 1:
        raise NotAnOrder("defining polynomial must be monic of positive degree")
    if len(basis_columns) != n or any(len(c) != n for c in basis_columns):
        raise NotAnOrder(f"basis matrix must be {n} x {n}")

    columns = tuple(tuple(c) for c in basis_columns)
    if _is_power_basis(d, columns):
        return OrderDescription(d=d, basis_columns=columns, products=())

    b_polys = [drop_trailing_zeros(list(c)) for c in basis_columns]
    products = []
    for i in range(n):
        row = []
        for j in range(i, n):
            q, _ = poly_divmod(ZZ, list_mul(ZZ, b_polys[i], b_polys[j]), T)
            row.append(ProductEntry(tuple(mul_pointwise(ZZ, -1, q))))
        products.append(tuple(row))
    return OrderDescription(d=d, basis_columns=columns, products=tuple(products))


def theta_coordinates(desc: OrderDescription, T) -> list[int] | None:
    """Coordinates of theta in the basis, or None when theta is outside O."""
    _, rem = poly_divmod(ZZ, [0, 1], list(T))
    rhs = [c * desc.d for c in rem + [0] * (desc.n - len(rem))]
    return solve_upper_triangular(basis_rows(desc.basis_columns), rhs)
