"""Resultants via Sylvester determinants, and discriminants built on them.

Convention: the Sylvester matrix of f (degree n) and g (degree m) is
(m+n) x (m+n), rows holding ascending coefficient lists, the m shifted
copies of f first, then the n shifted copies of g.  With this layout

    resultant(f, g) = (-1)^(n*m) * lc(f)^m * lc(g)^n * prod (alpha_i - beta_j)

over the roots alpha of f and beta of g, and the swap rule
resultant(f, g) = (-1)^(n*m) * resultant(g, f) holds.  The discriminant of
f is resultant(f, f') with no leading-coefficient scaling.
"""

from __future__ import annotations

from .exactalg import PrimeField, ZZ, deg, formal_derivative
from .linalg import det_bareiss, det_fp
from .orders import OrderDescription
from .verdict import Verdict


def sylvester_matrix(f: list, g: list, zero=0) -> list[list]:
    """Rows of shifted coefficients, f-rows first, ascending within each row."""
    n, m = deg(f), deg(g)
    if n < 0 or m < 0:
        raise ValueError("resultant of a zero polynomial")
    size = n + m
    rows = []
    for i in range(m):
        row = [zero] * size
        for k, c in enumerate(f):
            row[i + k] = c
        rows.append(row)
    for i in range(n):
        row = [zero] * size
        for k, c in enumerate(g):
            row[i + k] = c
        rows.append(row)
    return rows


def resultant(dom, f: list, g: list):
    """Determinant of the Sylvester matrix, exactly."""
    s = sylvester_matrix(f, g, zero=dom.zero)
    if not s:
        return dom.one  # both constant: empty product
    if isinstance(dom, PrimeField):
        return det_fp(s, dom.p)
    if dom is ZZ:
        return det_bareiss(s)
    raise TypeError(f"resultant not implemented over {dom!r}")


def disc_poly(f: list[int]) -> int:
    """resultant(f, f') over the integers; requires deg f >= 1."""
    if deg(f) < 1:
        raise ValueError("discriminant needs degree >= 1")
    return resultant(ZZ, f, formal_derivative(ZZ, f))


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


def disc_order(desc: OrderDescription) -> int:
    """disc(O) = (-1)^(n(n-1)/2) * disc(T) / index^2, with exact division.

    Call only on a verified description whose theta-membership the caller
    has verified too (`verify_bundle` checks the bundle's theta witness
    first).  Raises ValueError when a division is not exact, which signals
    inconsistent inputs.
    """
    n = desc.n
    signed = disc_poly(list(desc.T))
    if n * (n - 1) // 2 % 2:
        signed = -signed
    idx = power_basis_index(desc)
    value, rest = divmod(signed, idx * idx)
    if rest:
        raise ValueError("discriminant division is not exact")
    return value


def check_order_discriminant(desc: OrderDescription, claimed: int) -> Verdict:
    """Compare a claimed discriminant with disc_order's exact value, under
    disc_order's precondition."""
    try:
        value = disc_order(desc)
    except ValueError as e:
        return Verdict.reject(f"disc-claim/{e}")
    if value != claimed:
        return Verdict.reject(f"disc-claim/mismatch/claimed={claimed}/det-route={value}")
    return Verdict.accept()
