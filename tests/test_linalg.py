import random

import pytest

from ringcert.linalg import (
    _bareiss,
    inverse_unimodular,
    nullspace_fp,
    pattern_reduce_fp,
    solve_upper_triangular,
    transpose,
)
from reference import (
    fraction_back_substitution,
    integral,
    naive_det,
    nullspace_fp as reference_nullspace_fp,
    rref_fp,
    solve_exact,
)


def _triangular(rng, n, bound):
    """Random upper-triangular rows with nonzero diagonal of either sign."""
    rows = [[0] * n for _ in range(n)]
    for i in range(n):
        rows[i][i] = rng.choice([-1, 1]) * rng.randrange(1, bound)
        for j in range(i + 1, n):
            rows[i][j] = rng.randrange(-bound, bound + 1)
    return rows


def _agrees(b, rhs, den):
    got = solve_upper_triangular(b, rhs, den)
    expected = integral(fraction_back_substitution(b, rhs, den))
    assert got == expected, (b, rhs, den)
    return got is not None


@pytest.mark.parametrize("seed", [1, 2, 3])
def test_integer_solve_matches_fraction_reference(seed):
    rng = random.Random(seed)
    integral_cases = non_integral_cases = 0
    for _ in range(400):
        n = rng.randrange(1, 9)
        bound = rng.choice([2, 10, 10**6, 10**30])
        b = _triangular(rng, n, bound)
        den = rng.choice([1, -1, 2, -3, 12, 10**9 + 7])
        x = [rng.randrange(-bound, bound + 1) for _ in range(n)]
        # rhs = den * b.x has the integral solution x
        rhs = [den * sum(b[i][j] * x[j] for j in range(n)) for i in range(n)]
        assert _agrees(b, rhs, den)
        assert solve_upper_triangular(b, rhs, den) == x
        # a nudged rhs may or may not keep the solution integral
        k = rng.randrange(n)
        rhs[k] += rng.choice([1, -1, den])
        integral_cases += _agrees(b, rhs, den)
        # an arbitrary right-hand side is integral only by accident
        rhs = [rng.randrange(-bound, bound + 1) for _ in range(n)]
        non_integral_cases += not _agrees(b, rhs, den)
    assert integral_cases > 0 and non_integral_cases > 0


def test_unit_diagonal_always_integral():
    rng = random.Random(4)
    for _ in range(100):
        n = rng.randrange(1, 7)
        b = _triangular(rng, n, 2)  # diagonal entries are +-1
        rhs = [rng.randrange(-50, 51) for _ in range(n)]
        assert _agrees(b, rhs, 1)


def test_examples():
    b = [[2, 1], [0, -3]]
    assert solve_upper_triangular(b, [6, -6]) == [2, 2]
    assert solve_upper_triangular(b, [12, -12], 2) == [2, 2]
    assert solve_upper_triangular(b, [6, -3], 2) is None  # x_2 = 1/2
    assert solve_upper_triangular(b, [5, -6]) is None  # x = (3/2, 2)
    assert solve_upper_triangular([], []) == []


@pytest.mark.parametrize("seed", [1, 2])
def test_unimodular_inverse_matches_fraction_reference(seed):
    rng = random.Random(seed)
    for _ in range(100):
        n = rng.randrange(1, 9)
        # swaps and integer row additions from the identity, as a mirror records them
        m = [[int(i == j) for j in range(n)] for i in range(n)]
        for _ in range(rng.randrange(3 * n)):
            i, j = rng.randrange(n), rng.randrange(n)
            if rng.random() < 0.3:
                m[i], m[j] = m[j], m[i]
            elif i != j:
                f = rng.choice([1, -1, rng.randrange(-10**6, 10**6)])
                m[i] = [x + f * y for x, y in zip(m[i], m[j])]
        inv = inverse_unimodular(m)
        unit_cols = [[int(i == j) for i in range(n)] for j in range(n)]
        assert transpose([integral(solve_exact(m, col)) for col in unit_cols]) == inv


@pytest.mark.parametrize("seed", [1, 2])
def test_fraction_free_solve_matches_fraction_reference(seed):
    # the elimination `inverse_unimodular` runs, on any square m and
    # right-hand side r: det m, and back-substitution of det m times the
    # eliminated right-hand side gives det m * m^-1 * r, integral by Cramer
    rng = random.Random(seed)
    checked = 0
    while checked < 60:
        n = rng.randrange(1, 7)
        k = rng.randrange(1, 4)
        m = [[rng.choice((0, rng.randrange(-9, 10))) for _ in range(n)] for _ in range(n)]
        r = [[rng.randrange(-50, 51) for _ in range(k)] for _ in range(n)]
        det = naive_det(m)
        got_det, u = _bareiss(m, r)
        assert got_det == det
        if det == 0:
            continue
        checked += 1
        got = [solve_upper_triangular(u, [det * row[n + j] for row in u]) for j in range(k)]
        cols = [solve_exact(m, [det * row[j] for row in r]) for j in range(k)]
        assert [integral(col) for col in cols] == got


def test_unimodular_inverse_rejects():
    with pytest.raises(ValueError, match="not unimodular"):
        inverse_unimodular([[2, 1], [0, 1]])
    with pytest.raises(ValueError, match="singular"):
        inverse_unimodular([[1, 2], [2, 4]])
    with pytest.raises(ValueError, match="non-square"):
        inverse_unimodular([[1, 0]])


def _low_rank(rng, p):
    """A random matrix over Z of rank at most k mod p: k random rows, then
    rows that are combinations of them, shuffled, entries lifted by
    multiples of p."""
    rows, cols = rng.randrange(1, 8), rng.randrange(1, 8)
    k = rng.randrange(0, min(rows, cols) + 1)
    basis = [[rng.randrange(p) for _ in range(cols)] for _ in range(k)]
    m = [list(row) for row in basis]
    while len(m) < rows:
        coeffs = [rng.randrange(p) for _ in basis]
        m.append([sum(c * row[j] for c, row in zip(coeffs, basis)) % p for j in range(cols)])
    rng.shuffle(m)
    return [[x + p * rng.randrange(-3, 4) for x in row] for row in m]


@pytest.mark.parametrize("p", [2, 3, 101, 1000003])
def test_gf_p_elimination_matches_rref_reference(p):
    rng = random.Random(p)
    ranks = set()
    for _ in range(300):
        m = _low_rank(rng, p)
        reference, reference_pivots = rref_fp(m, p)
        ranks.add((len(m) - len(reference_pivots), len(m[0]) - len(reference_pivots)))
        basis, free = nullspace_fp(m, p)
        assert basis == reference_nullspace_fp(m, p)
        assert free == [c for c in range(len(m[0])) if c not in reference_pivots]

        mirror = [[int(i == j) for j in range(len(m))] for i in range(len(m))]
        rows, pivots = pattern_reduce_fp(m, p, mirror=mirror)
        assert pivots == reference_pivots
        for row, ref, c in zip(rows, reference, pivots):
            assert row[c] != 0 and row == [(row[c] * x) % p for x in ref]
        assert all(not any(row) for row in rows[len(pivots):])
        product = [[sum(a * b for a, b in zip(x, col)) % p for col in zip(*m)] for x in mirror]
        assert product == rows
    # full rank, rank deficient in rows only, in columns only, and in both
    assert {(a > 0, b > 0) for a, b in ranks} == {(False, False), (True, False),
                                                  (False, True), (True, True)}
