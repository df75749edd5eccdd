"""Slow, plainly correct computations that tests compare the program with."""

from fractions import Fraction

from ringcert import primality
from ringcert.exactalg import (
    PrimeField,
    deg,
    list_mul,
    list_pow,
    list_sub,
    poly_divmod,
    poly_gcd,
    poly_mod_pow,
)
from ringcert.irred_ff import X_POLY, base_digits
from ringcert.linalg import det_bareiss


def fraction_back_substitution(b, rhs, den=1) -> list[Fraction]:
    """The rational x with b.x = rhs/den, for upper-triangular b with
    nonzero diagonal, by back-substitution over Q."""
    n = len(b)
    x = [Fraction(0)] * n
    for i in range(n - 1, -1, -1):
        acc = Fraction(rhs[i], den) - sum(b[i][j] * x[j] for j in range(i + 1, n))
        x[i] = acc / b[i][i]
    return x


def solve_exact(a, b) -> list[Fraction]:
    """The unique rational x with a.x = b for square a, by Gauss-Jordan
    over Q; raises ValueError if a is singular."""
    n = len(a)
    aug = [[Fraction(x) for x in row] + [Fraction(b[i])] for i, row in enumerate(a)]
    for k in range(n):
        pivot = next((i for i in range(k, n) if aug[i][k] != 0), None)
        if pivot is None:
            raise ValueError("singular matrix")
        aug[k], aug[pivot] = aug[pivot], aug[k]
        inv = 1 / aug[k][k]
        aug[k] = [x * inv for x in aug[k]]
        for i in range(n):
            if i != k and aug[i][k] != 0:
                f = aug[i][k]
                aug[i] = [x - f * y for x, y in zip(aug[i], aug[k])]
    return [aug[i][n] for i in range(n)]


def integral(xs) -> list[int] | None:
    """The entries of xs as ints, or None if one of them is not an integer."""
    if any(Fraction(x).denominator != 1 for x in xs):
        return None
    return [int(x) for x in xs]


def lattice_index(m, n) -> int:
    """[span m : span n] over Z, for m upper triangular with nonzero diagonal
    and every column of n in the span of m (asserted)."""
    coords = [integral(fraction_back_substitution(m, col)) for col in zip(*n)]
    assert None not in coords, "second lattice is not contained in the first"
    return abs(det_bareiss(coords))


def residue_chain(
    field: PrimeField, g: list[int], e: int, f: list[int], base: int = 2
) -> tuple[list[int], list[list[int]]]:
    """g^e mod f via base-`base` square and multiply, reducing after every
    step.  Returns (final residue, intermediates [y_s, ..., y_0]); y_0 is
    the result."""
    if not f:
        raise ZeroDivisionError("zero modulus")
    digits = base_digits(e, base)
    s = len(digits) - 1
    y = poly_divmod(field, list_pow(field, g, digits[s]), f)[1]
    steps = [y]
    for j in range(s - 1, -1, -1):
        y = list_mul(field, list_pow(field, y, base), list_pow(field, g, digits[j]))
        y = poly_divmod(field, y, f)[1]
        steps.append(y)
    return steps[-1], steps


def is_irreducible(field: PrimeField, f: list[int]) -> bool:
    """Rabin's criterion computed directly: X^(p^n) = X mod f, and
    gcd(f, X^(p^(n/q)) - X) = 1 for every prime q dividing n."""
    n = deg(f)
    if n <= 0:
        return False
    if n == 1:
        return True
    p = field.p
    powers = [poly_divmod(field, X_POLY, f)[1]]
    for _ in range(n):
        powers.append(poly_mod_pow(field, powers[-1], p, f))
    if powers[n] != powers[0]:
        return False
    for q, _e in primality.factorize(n):
        g = poly_gcd(field, f, list_sub(field, powers[n // q], X_POLY))
        if deg(g) != 0:
            return False
    return True
