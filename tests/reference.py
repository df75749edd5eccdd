"""Slow, plainly correct computations that tests compare the program with."""

import functools
import hashlib
import itertools
import json
import math
import random
from fractions import Fraction

from ringcert import certio, linalg, primality
from ringcert.exactalg import (
    ZZ,
    deg,
    drop_trailing_zeros,
    formal_derivative,
    lc,
    list_add,
    list_mul,
    list_sub,
    monic,
    poly_divmod,
    poly_gcd,
    poly_xgcd,
    reduce_mod_p,
)
from ringcert.irred_ff import (
    X_POLY,
    RabinCertificate,
    ReducibleWitness,
    _frobenius_power,
    _stable_seed,
    base_digits,
    choose_base,
)
from ringcert.linalg import pattern_reduce_fp, transpose
from ringcert.maximality import (
    KernelWitness,
    PMaxLongCertificate,
    PMaxShortCertificate,
    _vw_combination,
    _vw_decomposer,
    frobenius_kernel_basis,
    minimal_frobenius_exponent,
)
from ringcert.orders import OrderDescription, ProductEntry, TimesTable, tt_mul
from ringcert.verdict import Verdict


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


def naive_det(m) -> int:
    """Determinant by cofactor expansion along the first row."""
    n = len(m)
    if n == 0:
        return 1
    if n == 1:
        return m[0][0]
    total = 0
    for j in range(n):
        if m[0][j] == 0:
            continue
        minor = [row[:j] + row[j + 1 :] for row in m[1:]]
        total += (-1) ** j * m[0][j] * naive_det(minor)
    return total


def det_bareiss(m) -> int:
    """Determinant of a square integer matrix by fraction-free elimination
    (Bareiss 1968): every division is exact, so sizes stay polynomial where
    `naive_det` is exponential."""
    a = [list(row) for row in m]
    n = len(a)
    sign = prev = 1
    for k in range(n):
        pivot = next((i for i in range(k, n) if a[i][k]), None)
        if pivot is None:
            return 0
        if pivot != k:
            a[k], a[pivot] = a[pivot], a[k]
            sign = -sign
        for i in range(k + 1, n):
            for j in range(k + 1, n):
                a[i][j] = (a[k][k] * a[i][j] - a[i][k] * a[k][j]) // prev
        prev = a[k][k]
    return sign * prev


def rref_fp(m: list[list[int]], p: int) -> tuple[list[list[int]], list[int]]:
    """Reduced row echelon form over GF(p); returns (rows, pivot columns).

    Zero rows are kept at the bottom so the caller can read off the rank.
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
        a[r], a[pivot] = a[pivot], a[r]
        inv = pow(a[r][c], -1, p)
        a[r] = [(x * inv) % p for x in a[r]]
        for i in range(rows):
            if i != r and a[i][c]:
                factor = a[i][c]
                a[i] = [(x - factor * y) % p for x, y in zip(a[i], a[r])]
        pivots.append(c)
        r += 1
        if r == rows:
            break
    return a, pivots


def nullspace_fp(m: list[list[int]], p: int) -> list[list[int]]:
    """The basis of {x : m . x = 0} over GF(p) read off `rref_fp`: one
    vector per free column, 1 there and 0 at the other free columns."""
    cols = len(m[0]) if m else 0
    rref, pivots = rref_fp(m, p)
    basis = []
    for c in (c for c in range(cols) if c not in pivots):
        v = [0] * cols
        v[c] = 1
        for r, pc in enumerate(pivots):
            v[pc] = (-rref[r][c]) % p
        basis.append(v)
    return basis


def sylvester_matrix(f: list[int], g: list[int]) -> list[list[int]]:
    """Ascending coefficient rows, the deg g shifted copies of f first, then
    the deg f copies of g."""
    n, m = deg(f), deg(g)
    if n < 0 or m < 0:
        raise ValueError("resultant of a zero polynomial")
    rows = [[0] * i + list(f) + [0] * (m - 1 - i) for i in range(m)]
    return rows + [[0] * i + list(g) + [0] * (n - 1 - i) for i in range(n)]


def resultant(p: int, f: list[int], g: list[int]) -> int:
    """Determinant of the Sylvester matrix of f and g.  Over GF(p), p > 0,
    the integer determinant is reduced mod p."""
    det = det_bareiss(sylvester_matrix(f, g))
    return det % p if p else det


def power_basis_with_table(T: list[int]) -> OrderDescription:
    """The power basis of monic T with a full product table, as older
    generators wrote it: each witness is the negated quotient of X^(i+j)
    by T, from long division."""
    n = deg(T)
    products = []
    for i in range(n):
        products.append(tuple(
            ProductEntry(tuple(-c for c in poly_divmod(ZZ, [0] * (i + j) + [1], T)[0]))
            for j in range(i, n)
        ))
    return OrderDescription(
        d=1,
        basis_columns=tuple(tuple(int(i == j) for i in range(n)) for j in range(n)),
        products=tuple(products),
    )


def lattice_index(m, n) -> int:
    """[span m : span n] over Z, for m upper triangular with nonzero diagonal
    and every column of n in the span of m (asserted)."""
    coords = [integral(fraction_back_substitution(m, col)) for col in zip(*n)]
    assert None not in coords, "second lattice is not contained in the first"
    return abs(det_bareiss(coords))


def residue_chain(
    p: int, g: list[int], e: int, f: list[int], base: int = 2
) -> tuple[list[int], list[list[int]]]:
    """g^e mod f via base-`base` square and multiply, reducing after every
    step.  Returns (final residue, intermediates [y_s, ..., y_0]); y_0 is
    the result."""
    if not f:
        raise ZeroDivisionError("zero modulus")
    digits = base_digits(e, base)
    s = len(digits) - 1
    y = poly_divmod(p, list_pow(p, g, digits[s]), f)[1]
    steps = [y]
    for j in range(s - 1, -1, -1):
        y = list_mul(p, list_pow(p, y, base), list_pow(p, g, digits[j]))
        y = poly_divmod(p, y, f)[1]
        steps.append(y)
    return steps[-1], steps


def poly_mod_pow(p: int, g: list[int], e: int, f: list[int]) -> list[int]:
    """g^e mod f by square and multiply, every product divided by
    `poly_divmod`, so the references do not go through the program's
    fixed-divisor kernel."""
    if not f:
        raise ZeroDivisionError("zero modulus")
    result = poly_divmod(p, [1], f)[1]
    base = poly_divmod(p, g, f)[1]
    while e:
        if e & 1:
            result = poly_divmod(p, list_mul(p, result, base), f)[1]
        e >>= 1
        if e:
            base = poly_divmod(p, list_mul(p, base, base), f)[1]
    return result


def is_irreducible(p: int, f: list[int]) -> bool:
    """Rabin's criterion computed directly: X^(p^n) = X mod f, and
    gcd(f, X^(p^(n/q)) - X) = 1 for every prime q dividing n."""
    n = deg(f)
    if n <= 0:
        return False
    if n == 1:
        return True
    powers = [poly_divmod(p, X_POLY, f)[1]]
    for _ in range(n):
        powers.append(poly_mod_pow(p, powers[-1], p, f))
    if powers[n] != powers[0]:
        return False
    for q, _e in factorize(n):
        g = poly_gcd(p, f, list_sub(p, powers[n // q], X_POLY))
        if deg(g) != 0:
            return False
    return True


def divmod_by_field_calls(p: int, f: list, g: list) -> tuple[list, list]:
    """Quotient and remainder of f by g over GF(p) as the former per-coefficient
    field calls computed them: every product and difference reduced mod p on
    its own.  Entries of f that no step reaches are returned as given, so an
    unreduced f may leave an unreduced remainder."""
    if not g:
        raise ZeroDivisionError("polynomial division by zero")
    if lc(g) % p == 0:
        raise ZeroDivisionError(f"inverse of zero in GF({p})")
    inv_lead = pow(lc(g), -1, p)
    q = [0] * max(len(f) - len(g) + 1, 0)
    r = list(f)
    while len(r) >= len(g):
        c = r[-1] * inv_lead % p
        k = len(r) - len(g)
        q[k] = c
        for i in range(len(g)):
            r[k + i] = (r[k + i] - c * g[i]) % p
        r = drop_trailing_zeros(r)
    return drop_trailing_zeros(q), drop_trailing_zeros(r)


def generate_rabin(
    f: list[int], p: int, t: int | None = None
) -> RabinCertificate | ReducibleWitness:
    """Rabin certificate or factorization witness for f over GF(p), built
    plainly: the factorization first, whose smallest factor by (degree,
    coefficients) is the witness when f is reducible, then the Frobenius
    chain by `poly_mod_pow`, then each chain step of every h_i formed again
    and divided by f for its quotient."""
    f = drop_trailing_zeros([c % p for c in f])
    n = deg(f)
    if t is None:
        t = choose_base(p, n)

    if n > 1:
        _unit, factors = factor_poly(p, f)
        if factors != [(monic(p, f), 1)]:
            fac = factors[0][0]
            q, r = poly_divmod(p, f, fac)
            assert not r
            return ReducibleWitness(p, tuple(f), tuple(fac), tuple(q))

    digits = base_digits(p, t)
    s = len(digits) - 1
    h: list[list[int]] = [list(X_POLY)]
    for i in range(1, n + 1):
        h.append(list(X_POLY) if i == n else poly_mod_pow(p, h[i - 1], p, f))

    g_rows = []
    hp_rows = []
    for i in range(n):
        hp = [None] * (s + 1)
        hp[s] = list_pow(p, h[i], digits[s])
        for j in range(s - 1, 0, -1):
            step = list_mul(
                p, list_pow(p, hp[j + 1], t), list_pow(p, h[i], digits[j])
            )
            hp[j] = poly_divmod(p, step, f)[1]
        hp[0] = h[i + 1]
        grow = []
        for j in range(s):
            num = list_mul(
                p, list_pow(p, hp[j + 1], t), list_pow(p, h[i], digits[j])
            )
            q, r = poly_divmod(p, list_sub(p, num, hp[j]), f)
            assert not r, "chain step not divisible by f"
            grow.append(tuple(q))
        g_rows.append(tuple(grow))
        hp_rows.append(tuple(tuple(x) for x in hp))

    a_rows: list[tuple[int, ...]] = [()] * n
    b_rows: list[tuple[int, ...]] = [()] * n
    for q, _e in (factorize(n) if n > 1 else []):
        k = n // q
        d, u, v = poly_xgcd(p, f, list_sub(p, h[k], X_POLY))
        assert d == [1], "not coprime; f should have been irreducible"
        a_rows[k] = tuple(u)
        b_rows[k] = tuple(v)

    return RabinCertificate(
        p=p, n=n, t=t, L=tuple(f),
        g=tuple(g_rows),
        hprime=tuple(hp_rows),
        a=tuple(a_rows),
        b=tuple(b_rows),
    )


def check_chain_steps(p: int, t: int, digits: list[int], f, h, hp, g) -> Verdict:
    """Rabin check (ii) on coefficient lists, the oracle for
    `irred_ff._check_chain_steps`: every step's two sides are formed, reduced
    and compared as lists.  The degree comparison comes first, so no power
    longer than the left side is formed."""
    for i in range(len(hp)):
        hi = reduce_mod_p(h[i], p)
        chain = [reduce_mod_p(x, p) for x in hp[i]]
        for j in range(len(g[i])):
            lhs = list_add(p, list_mul(p, f, g[i][j]), chain[j])
            top = chain[j + 1]
            if not top or (digits[j] and not hi):
                deg_rhs = -1
            else:
                deg_rhs = t * deg(top) + digits[j] * deg(hi)
            if deg_rhs != deg(lhs):
                return Verdict.reject(f"rabin/check-ii/i={i}/j={j}")
            rhs = list_pow(p, top, t)
            if digits[j]:
                rhs = list_mul(p, rhs, list_pow(p, hi, digits[j]))
            if lhs != rhs:
                return Verdict.reject(f"rabin/check-ii/i={i}/j={j}")
    return Verdict.accept()


def list_pow(p: int, a: list, e: int) -> list:
    """Exact e-th power by right-to-left repeated squaring from [1]."""
    if e < 0:
        raise ValueError("negative exponent")
    result = [1]
    base = list(a)
    while e:
        if e & 1:
            result = list_mul(p, result, base)
        e >>= 1
        if e:
            base = list_mul(p, base, base)
    return result


def next_prime(n: int) -> int:
    """The first probable prime >= n."""
    while not primality.is_probable_prime(n):
        n += 1
    return n


def lpfw_strip(value: int, bound: int) -> tuple[int, int, int]:
    """(s, rest, largest stripped prime, 0 if none) for value = s * rest:
    the LPFW search's per-prime loop, which divides out each prime q <= bound
    in ascending order while q * q <= rest."""
    s, rest, largest = 1, value, 0
    for q in _sieved(bound):
        if q * q > rest:
            break
        while rest % q == 0:
            s *= q
            rest //= q
            largest = q
    return s, rest, largest


@functools.cache
def _sieved(bound: int) -> list[int]:
    return primality.sieve_primes(bound)


def factorize(n: int, rng: random.Random | None = None) -> list[tuple[int, int]]:
    """Prime factorization of n >= 1 as sorted (prime, exponent) pairs: trial
    division one mod-30 wheel step at a time below 10**6, then Pollard rho."""
    if n < 1:
        raise ValueError("factorize expects n >= 1")
    if rng is None:
        rng = random.Random(0xF0F0 ^ n)
    factors: dict[int, int] = {}
    for p in (2, 3, 5):
        while n % p == 0:
            factors[p] = factors.get(p, 0) + 1
            n //= p
    d = 7
    wheel = (4, 2, 4, 2, 4, 6, 2, 6)
    w = 0
    while d * d <= n and d < 10**6:
        while n % d == 0:
            factors[d] = factors.get(d, 0) + 1
            n //= d
        d += wheel[w]
        w = (w + 1) % 8
    stack = [n] if n > 1 else []
    while stack:
        m = stack.pop()
        if m == 1:
            continue
        if primality.is_probable_prime(m):
            factors[m] = factors.get(m, 0) + 1
            continue
        g = primality._pollard_rho(m, rng)
        stack.append(g)
        stack.append(m // g)
    return sorted(factors.items())


def find_factor(p: int, f: list[int], rng: random.Random) -> list[int] | None:
    """A monic nontrivial factor of f, or None when f is irreducible: a root
    scan for p <= 1000, then distinct-degree and Cantor-Zassenhaus splitting
    with every p-th power by `poly_mod_pow`."""
    f = monic(p, f)
    n = deg(f)
    if n <= 1:
        return None
    if p <= 1000:
        for r in range(p):
            rem = 0
            for c in reversed(f):
                rem = (rem * r + c) % p
            if rem == 0:
                return [(-r) % p, 1]
    fp = formal_derivative(p, f)
    if not fp:
        return _frobenius_power(p, f)
    d = poly_gcd(p, f, fp)
    if 0 < deg(d) < n:
        return d
    h = poly_divmod(p, X_POLY, f)[1]
    for degree in range(1, n // 2 + 1):
        h = poly_mod_pow(p, h, p, f)
        g = poly_gcd(p, f, list_sub(p, h, X_POLY))
        if deg(g) <= 0:
            continue
        if deg(g) < n:
            return equal_degree_split(p, g, degree, rng)
        return equal_degree_split(p, f, degree, rng)
    return None


def equal_degree_split(p: int, f: list[int], d: int, rng: random.Random) -> list[int]:
    """An irreducible factor of f, all of whose factors have degree d, with
    u^((p^d - 1)/2) by one `poly_mod_pow`."""
    n = deg(f)
    if n == d:
        return monic(p, f)
    while True:
        u = drop_trailing_zeros([rng.randrange(p) for _ in range(n)])
        if deg(u) < 1:
            continue
        g = poly_gcd(p, f, u)
        if 0 < deg(g) < n:
            return equal_degree_split(p, g, d, rng)
        if p == 2:
            t = poly_divmod(p, u, f)[1]
            acc = t
            for _ in range(d - 1):
                t = poly_mod_pow(p, t, 2, f)
                acc = list_add(p, acc, t)
            g = poly_gcd(p, f, acc)
        else:
            w = poly_mod_pow(p, u, (p**d - 1) // 2, f)
            g = poly_gcd(p, f, list_sub(p, w, [1]))
        if 0 < deg(g) < n:
            return equal_degree_split(p, g, d, rng)


def factor_poly(
    p: int, f: list[int], rng: random.Random | None = None
) -> tuple[int, list[tuple[list[int], int]]]:
    """(unit, [(monic irreducible, multiplicity)]) over GF(p), by `find_factor`
    on each cofactor in turn."""
    if rng is None:
        rng = random.Random(_stable_seed(p, *f))
    unit = f[-1] % p
    out: dict[tuple[int, ...], int] = {}
    stack = [monic(p, f)]
    while stack:
        cur = stack.pop()
        if deg(cur) == 0:
            continue
        fac = find_factor(p, cur, rng)
        if fac is None:
            key = tuple(cur)
            out[key] = out.get(key, 0) + 1
            continue
        q, r = poly_divmod(p, cur, fac)
        assert not r, "factor does not divide"
        stack.append(fac)
        stack.append(q)
    factors = sorted(out.items(), key=lambda kv: (len(kv[0]), kv[0]))
    return unit, [(list(k), m) for k, m in factors]


def rational_root_factor(f: list[int]) -> list[int] | None:
    """A primitive linear factor of f over the integers, or None: every root
    u/v in lowest terms has u | f(0) and v | lc(f), so the divisors of both,
    listed by trial division, are tried with the smallest u, then the
    smallest v, positive first."""
    if f[0] == 0:
        return [0, 1]
    n = deg(f)
    for u in _divisors(abs(f[0])):
        for v in _divisors(abs(lc(f))):
            if math.gcd(u, v) != 1:
                continue
            for su in (1, -1):
                if sum(c * (su * u) ** i * v ** (n - i) for i, c in enumerate(f)) == 0:
                    return [-su * u, v]
    return None


def _divisors(n: int) -> list[int]:
    return [d for d in range(1, n + 1) if n % d == 0]


def witness_images(tt: TimesTable, p: int, decompose, beta_w: list[int]) -> list[list[int]]:
    """Coordinates mod p over {V, pW} of e_i * beta_w, one row per i, each
    from its own product and decomposition."""
    rho = []
    for i in range(tt.n):
        a, c = decompose(tt_mul(ZZ, tt, [0] * i + [1], beta_w))
        rho.append([x % p for x in a] + [x % p for x in c])
    return rho


def search_witness(tt: TimesTable, p: int, V, W, decompose, budget: int):
    """The earlier witness search: every candidate's images come from r
    products and decompositions.  All 0/1 coordinate vectors first, then
    random ones from a generator seeded with p, up to the budget; returns
    (beta, gamma, pivot columns, mirror) or None."""
    r = tt.n
    m, n = len(V), len(W)
    rng = random.Random(0xBE7A + p)
    tried = 0

    def candidates():
        for bits in itertools.product(range(2), repeat=r):
            if any(bits):
                yield list(bits[:m]), list(bits[m:])
        while True:
            yield [rng.randrange(p) for _ in range(m)], [rng.randrange(p) for _ in range(n)]

    for beta, gamma in candidates():
        tried += 1
        if tried > budget:
            return None
        beta_w = _vw_combination(V, W, beta, gamma, p, r)
        rho = witness_images(tt, p, decompose, beta_w)
        X = [[1 if i == j else 0 for j in range(r)] for i in range(r)]
        _patterned, pivots = pattern_reduce_fp(rho, p, mirror=X)
        if len(pivots) == r:
            return beta, gamma, pivots, X
    return None


def generate_pmax(tt: TimesTable, p: int, budget: int):
    """The earlier p-maximality generator: search for a short witness
    first, and only when the budget runs out build the action matrix phi,
    which gives either a kernel witness or the long form."""
    r = tt.n
    t = minimal_frobenius_exponent(p, r)
    vbar, _nu, w_rows, u_rows = frobenius_kernel_basis(tt, p, t)
    m = len(vbar)
    n = r - m

    if m == 0:
        return PMaxShortCertificate(
            V=(), W=tuple(tuple(row) for row in w_rows),
            U=tuple(tuple(row) for row in u_rows),
            X=(), beta=(), gamma=(), a=(), c=(),
        )

    V = [list(row) for row in vbar]
    W = [list(row) for row in w_rows]

    decompose = _vw_decomposer(V, W, p)
    witness = search_witness(tt, p, V, W, decompose, budget)
    if witness is not None:
        beta, gamma, _pivots, X = witness
        beta_w = _vw_combination(V, W, beta, gamma, p, r)
        a_rows, c_rows = [], []
        for i in range(r):
            a_row, c_row = decompose(tt_mul(ZZ, tt, X[i], beta_w))
            a_rows.append(tuple(a_row))
            c_rows.append(tuple(c_row))
        return PMaxShortCertificate(
            V=tuple(tuple(row) for row in V),
            W=tuple(tuple(row) for row in W),
            U=tuple(tuple(row) for row in u_rows),
            X=tuple(tuple(row) for row in X),
            beta=tuple(beta), gamma=tuple(gamma),
            a=tuple(a_rows), c=tuple(c_rows),
        )

    inputs = [list(row) for row in V] + [[p * x for x in row] for row in W]

    def endo_row(x: list[int]) -> list[int]:
        flat = []
        for u in range(r):
            a_row, c_row = decompose(tt_mul(ZZ, tt, x, inputs[u]))
            flat.extend([v % p for v in a_row] + [v % p for v in c_row])
        return flat

    phi = [endo_row([0] * i + [1]) for i in range(r)]
    X = [[1 if i == j else 0 for j in range(r)] for i in range(r)]
    _patterned, pivots = pattern_reduce_fp(phi, p, mirror=X)
    if len(pivots) < r:
        kernel, _free = linalg.nullspace_fp(transpose(phi), p)
        return KernelWitness(p, tuple(kernel[0]))
    a_arr, c_arr, d_arr, e_arr = [], [], [], []
    for i in range(r):
        a_blocks, c_blocks, d_blocks, e_blocks = [], [], [], []
        for j in range(m):
            a_row, c_row = decompose(tt_mul(ZZ, tt, X[i], V[j]))
            a_blocks.append(tuple(a_row))
            c_blocks.append(tuple(c_row))
        for j in range(n):
            d_row, e_row = decompose(tt_mul(ZZ, tt, X[i], inputs[m + j]))
            d_blocks.append(tuple(d_row))
            e_blocks.append(tuple(e_row))
        a_arr.append(tuple(a_blocks))
        c_arr.append(tuple(c_blocks))
        d_arr.append(tuple(d_blocks))
        e_arr.append(tuple(e_blocks))
    return PMaxLongCertificate(
        V=tuple(tuple(row) for row in V),
        W=tuple(tuple(row) for row in W),
        U=tuple(tuple(row) for row in u_rows),
        X=tuple(tuple(row) for row in X),
        a=tuple(a_arr), c=tuple(c_arr), d=tuple(d_arr), e=tuple(e_arr),
    )


def _canonical(doc) -> bytes:
    return json.dumps(doc, sort_keys=True, separators=(",", ":")).encode()


def reseal(kind: str, payload) -> bytes:
    """The canonical file of a hand-edited payload: the envelope written
    from the format's rules alone, with its integrity digest recomputed, so
    that parsing gets past the digest to the payload's own checks."""
    inner = {"kind": kind, "payload": payload, "schema_version": certio.SCHEMA_VERSION}
    digest = hashlib.sha256(_canonical(inner)).hexdigest()
    return _canonical({**inner, "integrity": f"sha256:{digest}"}) + b"\n"


def class_mismatch(a, b, path: str = "") -> str | None:
    """The first place where a and b differ in class or value, or None.

    A record is a tuple, and tuple equality ignores the class, so two
    records of different classes with equal fields compare equal; this walk
    compares the class at every node.
    """
    if type(a) is not type(b):
        return f"{path or '.'}: {type(a).__name__} != {type(b).__name__}"
    if not isinstance(a, (tuple, list)):
        return None if a == b else f"{path or '.'}: {a!r} != {b!r}"
    if len(a) != len(b):
        return f"{path or '.'}: {len(a)} != {len(b)} entries"
    labels = [f".{name}" for name in a._fields] if hasattr(a, "_fields") else [
        f"[{i}]" for i in range(len(a))]
    for label, x, y in zip(labels, a, b):
        found = class_mismatch(x, y, path + label)
        if found:
            return found
    return None
