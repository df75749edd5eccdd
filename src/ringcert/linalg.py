"""Exact linear algebra over the integers and prime fields.

Matrices are lists of rows.  Everything here is deterministic and exact;
no floating point anywhere.
"""

from __future__ import annotations


def transpose(m: list[list]) -> list[list]:
    return [list(col) for col in zip(*m)] if m else []


def _bareiss(m: list[list[int]], r: list[list[int]]) -> tuple[int, list[list[int]]]:
    """Fraction-free forward elimination (Bareiss 1968) of [m | r], for a
    square integer m and a matrix r with as many rows.

    Returns (det m, rows).  Every division is exact, so the entries stay
    integral and polynomial in size.  Rows are only swapped and combined,
    so a solution x of m.x = r also solves the eliminated rows, whose first
    len(m) columns are upper triangular (the entries below the diagonal are
    left as they were and never read).  A singular m gives (0, rows),
    stopped at the first column with no pivot.
    """
    n = len(m)
    if any(len(row) != n for row in m):
        raise ValueError("non-square matrix")
    a = [[*row, *rhs] for row, rhs in zip(m, r)]
    width = len(a[0]) if a else 0
    sign = prev = 1
    for k in range(n):
        rk = a[k]
        if not rk[k]:
            pivot = next((i for i in range(k + 1, n) if a[i][k]), None)
            if pivot is None:
                return 0, a
            a[k], a[pivot] = a[pivot], rk
            rk = a[k]
            sign = -sign
        akk = rk[k]
        for ai in a[k + 1:]:
            aik = ai[k]
            for j in range(k + 1, width):
                ai[j] = (akk * ai[j] - aik * rk[j]) // prev
        prev = akk
    return sign * prev, a


def pattern_reduce_fp(
    m: list[list[int]], p: int, mirror: list[list[int]] | None = None
) -> tuple[list[list[int]], list[int]]:
    """Gauss-Jordan over GF(p) using only swaps and row additions (no scaling).

    Afterwards every nonzero row has a pivot column that is zero in all
    other rows; pivot entries need not be 1, so each pivot row is a nonzero
    multiple of the reduced row echelon form's row, and the zero rows are
    at the bottom.  When ``mirror`` is given, the same operations are
    applied to it over the integers (multipliers lifted to [0, p)), so the
    mirror transformation stays unimodular.

    Returns (reduced rows, pivot columns); the rows are linearly dependent
    exactly when there are fewer pivots than rows.
    """
    a = [[x % p for x in row] for row in m]
    rows = len(a)
    cols = len(a[0]) if a else 0
    pivots: list[int] = []
    r = 0
    for c in range(cols):
        pivot = next((i for i in range(r, rows) if a[i][c] != 0), None)
        if pivot is None:
            continue
        if pivot != r:
            a[r], a[pivot] = a[pivot], a[r]
            if mirror is not None:
                mirror[r], mirror[pivot] = mirror[pivot], mirror[r]
        inv = pow(a[r][c], -1, p)
        for i in range(rows):
            if i != r and a[i][c]:
                factor = (a[i][c] * inv) % p
                a[i] = [(x - factor * y) % p for x, y in zip(a[i], a[r])]
                if mirror is not None:
                    mirror[i] = [x - factor * y for x, y in zip(mirror[i], mirror[r])]
        pivots.append(c)
        r += 1
        if r == rows:
            break
    return a, pivots


def nullspace_fp(m: list[list[int]], p: int) -> tuple[list[list[int]], list[int]]:
    """Basis of {x : m . x = 0} over GF(p), one row per basis vector.

    Each returned vector has 1 at its own free column and 0 at the other
    free columns, so the collection directly exhibits its own linear
    independence.  Returns (basis rows, free columns).
    """
    cols = len(m[0]) if m else 0
    rows, pivots = pattern_reduce_fp(m, p)
    free = [c for c in range(cols) if c not in pivots]
    invs = [pow(rows[r][pc], -1, p) for r, pc in enumerate(pivots)]
    basis = []
    for c in free:
        v = [0] * cols
        v[c] = 1
        for r, pc in enumerate(pivots):
            v[pc] = (-rows[r][c] * invs[r]) % p
        basis.append(v)
    return basis, free


def inverse_unimodular(m: list[list[int]]) -> list[list[int]]:
    """The integer inverse of a square integer matrix of determinant +-1.

    `_bareiss` eliminates [m | I] to an upper triangular u with right-hand
    side s, and `solve_upper_triangular` solves u.x = s one column at a
    time, from the last row up.  With det m = +-1 the solution m^-1 is
    integral, so every division is exact.  Raises ValueError when m is
    singular or det m is not a unit.
    """
    n = len(m)
    det, u = _bareiss(m, [[int(i == j) for j in range(n)] for i in range(n)])
    if not det:
        raise ValueError("singular matrix")
    if det not in (1, -1):
        raise ValueError("matrix is not unimodular")
    cols = zip(*(row[n:] for row in u))
    return transpose([solve_upper_triangular(u, list(col)) for col in cols])


def solve_upper_triangular(b: list[list[int]], rhs: list[int], den: int = 1) -> list[int] | None:
    """The integer x with b.x = rhs/den, or None when x is not integral.

    b is upper triangular with nonzero diagonal, so back-substitution fixes
    x one entry at a time; the first division that is not exact proves that
    the unique solution has a non-integral entry.
    """
    n = len(b)
    x = [0] * n
    for i in range(n - 1, -1, -1):
        row = b[i]
        acc = rhs[i] - den * sum(row[j] * x[j] for j in range(i + 1, n))
        q, r = divmod(acc, den * row[i])
        if r:
            return None
        x[i] = q
    return x
