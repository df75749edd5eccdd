"""Slow, plainly correct computations that tests compare the program with."""

from fractions import Fraction

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
