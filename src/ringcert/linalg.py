"""Exact linear algebra over the integers and prime fields.

Matrices are lists of rows.  Everything here is deterministic and exact;
no floating point anywhere.
"""

from __future__ import annotations


def transpose(m: list[list]) -> list[list]:
    return [list(col) for col in zip(*m)] if m else []


def det_bareiss(m: list[list[int]]) -> int:
    """Determinant of an integer matrix by fraction-free Bareiss elimination.

    Intermediate entries stay integral (each division is exact), which keeps
    the cost polynomial instead of the exponential blowup of cofactor
    expansion.
    """
    a = [list(row) for row in m]
    n = len(a)
    if any(len(row) != n for row in a):
        raise ValueError("determinant of a non-square matrix")
    if n == 0:
        return 1
    sign = 1
    prev = 1
    for k in range(n - 1):
        if a[k][k] == 0:
            for i in range(k + 1, n):
                if a[i][k] != 0:
                    a[k], a[i] = a[i], a[k]
                    sign = -sign
                    break
            else:
                return 0
        for i in range(k + 1, n):
            for j in range(k + 1, n):
                a[i][j] = (a[i][j] * a[k][k] - a[i][k] * a[k][j]) // prev
            a[i][k] = 0
        prev = a[k][k]
    return sign * a[n - 1][n - 1]


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


def solve_fraction_free(m: list[list[int]], r: list[list[int]]) -> tuple[int, list[list[int]]]:
    """(det m, det m * m^-1 * r) for a square integer matrix m and a matrix r
    with as many rows, both integral.

    A fraction-free Gauss-Jordan (Bareiss) on [m | r]: every division is
    exact, so the entries stay integral, and at the end the left block is
    d times the identity and the right block d * m^-1 * r, with d = +-det(m)
    (the sign counts the row swaps).  Raises ValueError when m is singular.
    """
    n = len(m)
    if any(len(row) != n for row in m):
        raise ValueError("inverse of a non-square matrix")
    a = [list(row) + list(rhs) for row, rhs in zip(m, r)]
    prev = sign = 1
    for k in range(n):
        pivot = next((i for i in range(k, n) if a[i][k] != 0), None)
        if pivot is None:
            raise ValueError("singular matrix")
        if pivot != k:
            a[k], a[pivot] = a[pivot], a[k]
            sign = -sign
        rk = a[k]
        akk = rk[k]
        for i in range(n):
            if i != k:
                aik = a[i][k]
                a[i] = [(akk * x - aik * y) // prev for x, y in zip(a[i], rk)]
        prev = akk
    return sign * prev, [[sign * x for x in row[n:]] for row in a]


def inverse_unimodular(m: list[list[int]]) -> list[list[int]]:
    """The integer inverse of a square integer matrix of determinant +-1:
    `solve_fraction_free` with r = I.  Raises ValueError unless det m is a unit."""
    n = len(m)
    det, scaled = solve_fraction_free(m, [[int(i == j) for j in range(n)] for i in range(n)])
    if det not in (1, -1):
        raise ValueError("matrix is not unimodular")
    return [[det * x for x in row] for row in scaled]


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
