"""Discriminants of polynomials and orders.

For T monic of degree n, disc(T) here is resultant(T, T') with no
leading-coefficient scaling, which equals the norm of T'(theta).
`disc_poly` computes it by the subresultant polynomial remainder sequence
(Collins 1967, Brown and Traub 1971) in O(n^2) coefficient operations.
This is

    resultant(f, g) = (-1)^(n*m) * lc(f)^m * lc(g)^n * prod (alpha_i - beta_j)

at f = T, g = T', since n(n - 1) is even: the determinant of the Sylvester
matrix whose rows hold ascending coefficient lists, the m = deg g shifted
copies of f first, then the n shifted copies of g.

A bundle does not state disc(T): the verifier computes it once, here, and
derives disc(O) from that value (`disc_order`).
"""

from __future__ import annotations

from .exactalg import ZZ, deg, formal_derivative, poly_divmod
from .orders import OrderDescription


def disc_poly(T: list[int]) -> int:
    """resultant(T, T') for monic T of degree >= 1, by the subresultant
    remainder sequence (Cohen, GTM 138, Algorithm 3.3.7).

    Each step takes the pseudo-remainder lc(b)^(delta+1) * a mod b by the
    one long division, then divides it by g * h^delta and updates h; the
    subresultant theorem makes those divisions exact, and each is checked.
    A zero remainder means T and T' share a factor, and the result is 0.
    """
    n = deg(T)
    if n < 1 or T[-1] != 1:
        raise ValueError("discriminant needs a monic polynomial of degree >= 1")
    a, b = T, formal_derivative(ZZ, T)
    g = h = sign = 1
    while deg(b) > 0:
        delta = deg(a) - deg(b)
        if deg(a) % 2 and deg(b) % 2:
            sign = -sign
        scale = b[-1] ** (delta + 1)
        r = poly_divmod(ZZ, [scale * c for c in a], b)[1]
        if not r:
            return 0
        a, b = b, [_exact(c, g * h**delta) for c in r]
        g = a[-1]
        h = _exact(g**delta, h ** (delta - 1))
    m = deg(a)
    return sign * _exact(b[0] ** m, h ** (m - 1))


def _exact(x: int, y: int) -> int:
    """x / y, which the subresultant theorem makes exact; a remainder is an
    internal fault, never a verdict."""
    q, rest = divmod(x, y)
    if rest:
        raise ArithmeticError("subresultant division is not exact")
    return q


def power_basis_index(desc: OrderDescription) -> int:
    """[O : Z[theta]] = |d|^n / prod |B_jj| for a verified description with
    theta in O; B is triangular, so its determinant is the diagonal product.
    Raises ValueError when the division is not exact."""
    diagonal = 1
    for j in range(desc.n):
        diagonal *= desc.basis_columns[j][j]
    index, rest = divmod(abs(desc.d) ** desc.n, abs(diagonal))
    if rest:
        raise ValueError("index division is not exact")
    return index


def disc_order(desc: OrderDescription, disc_t: int) -> int:
    """disc(O) = (-1)^(n(n-1)/2) * disc_t / index^2, with exact division,
    for disc_t = disc_poly(T), which the caller computes once.

    Call only on a verified description whose theta-membership the caller
    has verified too (`verify_bundle` checks the bundle's theta witness
    first).  Raises ValueError when a division is not exact, which signals
    inconsistent inputs.
    """
    n = desc.n
    signed = -disc_t if n * (n - 1) // 2 % 2 else disc_t
    idx = power_basis_index(desc)
    value, rest = divmod(signed, idx * idx)
    if rest:
        raise ValueError("discriminant division is not exact")
    return value
