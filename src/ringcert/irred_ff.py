"""Irreducibility certificates for polynomials over prime fields.

A certificate for f of degree n over GF(p) carries the intermediate values
and quotients of a base-t square-and-multiply computation of each p-th
power along the chain h_0..h_n of Frobenius residues, plus Bezout pairs
showing gcd(f, h_{n/q} - X) = 1 for the primes q dividing n.  Each h_i is
stated once, as the top value of its own step chain (and h_n as the bottom
of the last), and the verifier finds the primes q | n by trial division.
The verifier re-checks everything with polynomial additions and
multiplications only; it does no polynomial division.  In check (ii) each
chain step is one identity between packed integers, settled by one exact
integer division by p and two masks, without reading a coefficient back.
It compares the degree each power product must have with the file's lists
before forming the product, so a forged exponent base cannot make it build
a power longer than the file.  A base-p step raises nothing to the p-th power: over GF(p),
h^p = h(X^p), the coefficients of h spread p slots apart, so base p files,
whose quotients are about (p - 1)n long, cost work linear in their bytes.

The generator divides.  It builds the chain with one division by f per
step.  For base 2 each step is one packed product, read back and reduced
once, and the division goes through one fixed-divisor kernel
(`exactalg.Modulus`): the inverse of f reversed is computed once, and each
quotient and remainder is then one Kronecker product.  Base-p steps divide
by `poly_divmod`, since their quotients are about (p - 1)n long.

Both the factor a failed Rabin test writes and degree analysis over Z
(`irred_int`) come from one factorization of f mod p, in three stages (von
zur Gathen & Gerhard, Modern Computer Algebra, 14.2-14.3 and 14.6): a
squarefree split, one distinct-degree sweep per squarefree part
(`distinct_degree_split`), and Cantor-Zassenhaus splitting of each part
into both halves of every split (`factor_poly`).  The witness names the
first factor, the smallest by (degree, coefficients).  All p-th
powers go through one Frobenius table of monic f (`_FrobeniusTable`), each
application a sum of packed rows with no division.  The radical
(`radical_fp`) is the product of the squarefree parts, and the largest of
their multiplicities is the smallest power of the radical that f divides.
"""

import random
from typing import NamedTuple

from . import primality
from .exactalg import (
    Modulus,
    _canonical,
    _kron_pack,
    _kron_unpack,
    deg,
    drop_trailing_zeros,
    formal_derivative,
    list_add,
    list_mul,
    list_sub,
    monic,
    packed_vanishes_mod_p,
    poly_divmod,
    poly_gcd,
    poly_mod_pow,
    poly_xgcd,
    reduce_mod_p,
)
from .verdict import Verdict

X_POLY = [0, 1]


def base_digits(n: int, t: int) -> list[int]:
    """Base-t digits of n, least significant first."""
    if t < 2:
        raise ValueError("base must be >= 2")
    if n == 0:
        return [0]
    out = []
    while n:
        out.append(n % t)
        n //= t
    return out


class RabinCertificate(NamedTuple):
    p: int
    n: int
    t: int          # exponent base, 2 or p; p has s+1 base-t digits
    L: tuple[int, ...]                      # coefficients of f over GF(p)
    g: tuple[tuple[tuple[int, ...], ...], ...]       # n x s quotients
    # n x (s+1) chain values: hprime[i][s] is h_i, and hprime[n-1][0] is h_n
    hprime: tuple[tuple[tuple[int, ...], ...], ...]
    a: tuple[tuple[int, ...], ...]          # n Bezout cofactors (sparse)
    b: tuple[tuple[int, ...], ...]


class ReducibleWitness(NamedTuple):
    """A nontrivial factorization f = factor * cofactor, checkable by one product."""

    p: int
    L: tuple[int, ...]
    factor: tuple[int, ...]
    cofactor: tuple[int, ...]


def verify_reducible_witness(wit: ReducibleWitness) -> Verdict:
    p = wit.p
    if p < primality.TRIAL_DIVISION_BOUND:  # the format has no Pratt certificate for p
        ok = primality.certify_prime_for_verifier(p, None)
        if not ok:
            return ok.prefixed("reducible-ff")
    f = list(wit.L)
    fac = reduce_mod_p(list(wit.factor), p)
    if not (0 < deg(fac) < deg(f)):
        return Verdict.reject("reducible-ff/degree")
    if list_mul(p, fac, list(wit.cofactor)) != f:
        return Verdict.reject("reducible-ff/product")
    return Verdict.accept()


def verify_rabin(cert: RabinCertificate) -> Verdict:
    """Check statements (i)-(iv); acceptance proves f irreducible over GF(p).

    The format has no Pratt certificate for p, so p is proven prime, by
    trial division, only below TRIAL_DIVISION_BOUND.  Each chain end h_i is
    stated once, as the top hprime[i][s] of its chain, and h_n as the
    bottom hprime[n-1][0] of the last.  The primes of n come from trial
    division, which the file bounds: L holds n + 1 entries.
    """
    p, n, t = cert.p, cert.n, cert.t
    if p < primality.TRIAL_DIVISION_BOUND:
        ok = primality.certify_prime_for_verifier(p, None)
        if not ok:
            return ok.prefixed("rabin")
    if n <= 0:
        return Verdict.reject("rabin/degree")
    if t not in (2, p):
        return Verdict.reject("rabin/base")
    f = list(cert.L)
    if any(not (0 <= c < p) for c in f):
        return Verdict.reject("rabin/coefficient-range")
    if drop_trailing_zeros(f) != f or deg(f) != n:
        return Verdict.reject("rabin/degree")

    digits = base_digits(p, t)
    s = len(digits) - 1

    if len(cert.g) != n or any(len(row) != s for row in cert.g):
        return Verdict.reject("rabin/shape/g")
    if len(cert.hprime) != n or any(len(row) != s + 1 for row in cert.hprime):
        return Verdict.reject("rabin/shape/hprime")
    if len(cert.a) != n or len(cert.b) != n:
        return Verdict.reject("rabin/shape/bezout")

    hp = [[list(x) for x in row] for row in cert.hprime]
    g = [[list(x) for x in row] for row in cert.g]
    h = [row[s] for row in hp] + [hp[n - 1][0]]

    # (i) chain links: the top of chain i is h_i^{b_s} = h_i (p's top digit
    # b_s is 1 in either base), in canonical form, where h_0 = X and h_i is
    # the bottom of chain i - 1 for i > 0
    for i in range(n):
        if hp[i][s] != (_canonical(p, list(hp[i - 1][0])) if i else X_POLY):
            return Verdict.reject(f"rabin/check-i/i={i}")

    # (ii) one square-and-multiply step per digit
    ok = _check_chain_steps(p, t, digits, f, h, hp, g)
    if not ok:
        return ok

    # (iii) the chain ends at X
    if h[n] != X_POLY:
        return Verdict.reject("rabin/check-iii")

    # (iv) coprimality with h_{n/q} - X for each prime q | n
    used = set()
    for q in primality.prime_factors_trial(n):
        k = n // q
        used.add(k)
        hm_minus_x = list_sub(p, h[k], X_POLY)
        lhs = list_add(
            p,
            list_mul(p, list(cert.a[k]), f),
            list_mul(p, list(cert.b[k]), hm_minus_x),
        )
        if lhs != [1]:
            return Verdict.reject(f"rabin/check-iv/q={q}")
    for k in range(n):
        if k not in used and (cert.a[k] or cert.b[k]):
            return Verdict.reject(f"rabin/witness-shape/k={k}")
    return Verdict.accept()


def _check_chain_steps(p: int, t: int, digits: list[int], f, h, hp, g) -> Verdict:
    """Check (ii): f*g_ij + h'_ij = (h'_{i,j+1})^t * h_i^(b_j) over GF(p).

    Each identity is one packed-integer test: the difference D of its two
    sides is formed in Kronecker form and `packed_vanishes_mod_p` decides
    whether p divides every slot, so no product is read back.  Over a field
    the right side is 0 or of degree t*deg h'_{i,j+1} + b_j*deg h_i.  That
    degree is compared first with the longest left side the file allows, so
    the right side is formed only when it is no longer than the file's
    lists.  Every digit b_j is 0 or 1, since the digits are those of p in
    base 2 or in base p.  For t = 2 the right side's leading coefficient
    must not vanish mod p, which holds for prime p and keeps the degree
    exact for any modulus.  For t = p the right side is taken as h(X^p) for
    h = h'_{i,1}: over GF(p), h^p = h(X^p) (von zur Gathen & Gerhard, Modern
    Computer Algebra, 14.2), so it is h's packing with p slots per
    coefficient, and base p files, whose quotients are about (p - 1)n long,
    are checked with work linear in their bytes.
    """

    def reduced(x):
        # an honest file's lists are already reduced and canonical: no copy
        return x if not x or (0 <= min(x) and max(x) < p and x[-1]) else reduce_mod_p(x, p)

    for i in range(len(hp)):
        hi = reduced(h[i])
        chain = [reduced(x) for x in hp[i]]
        quots = [reduced(x) for x in g[i]]
        # Every slot of D = F*G + C_j - R is a difference of nonnegative
        # slots.  F*G has at most L products of residues per slot, at most
        # L(p-1)^2, and C_j adds less than p.  For t = 2, T^2 has slots at
        # most L(p-1)^2, and T^2*H at most L * L(p-1)^2 * (p-1); for t = p
        # the right side h(X^p) is reduced, below p.  So every |slot| <= B,
        # and `packed_vanishes_mod_p` needs two more bits per slot.
        L = max(len(f), len(hi), *map(len, chain), *map(len, quots))
        if t == 2:
            bound = L * L * (p - 1) ** 3 + L * (p - 1) ** 2 + p
        else:
            bound = L * (p - 1) ** 2 + 2 * p
        w = bound.bit_length() + 2
        # slots of the longest left side, and of every right side that
        # passes the degree comparison
        m = max(len(f) + max(map(len, quots), default=0) - 1, *map(len, chain))
        F = _kron_pack(f, w)
        H = _kron_pack(hi, w)
        C = [_kron_pack(x, w) for x in chain]
        for j in range(len(quots)):
            top, b = chain[j + 1], digits[j]
            if not top or (b and not hi):
                deg_rhs, lead = -1, 1
            elif t == 2:
                deg_rhs = 2 * deg(top) + b * deg(hi)
                lead = pow(top[-1], 2, p) * (hi[-1] if b else 1) % p
            else:
                # t = p: p's base-p digits are 0, 1, so s = 1 and b_0 = 0;
                # top is reduced and canonical, so its lead is nonzero
                deg_rhs, lead = p * deg(top), top[-1]
            if not lead or deg_rhs > max(len(f) + len(quots[j]) - 2, len(chain[j]) - 1):
                return Verdict.reject(f"rabin/check-ii/i={i}/j={j}")
            if t == 2:
                R = C[j + 1] * C[j + 1]
                if b:
                    R *= H
            else:
                R = _kron_pack(top, w * p)
            if not packed_vanishes_mod_p(F * _kron_pack(quots[j], w) + C[j] - R, p, m, w):
                return Verdict.reject(f"rabin/check-ii/i={i}/j={j}")
    return Verdict.accept()


# ---------------------------------------------------------------------------
# generator side
# ---------------------------------------------------------------------------


def _stable_seed(*parts: int) -> int:
    h = 0x811C9DC5
    for v in parts:
        for b in v.to_bytes((v.bit_length() + 15) // 8 + 1, "little", signed=True):
            h = ((h ^ b) * 0x01000193) % (1 << 64)
    return h


def _frobenius_power(p: int, f: list[int]) -> list[int]:
    """For f with zero derivative over GF(p), the g with g^p = f."""
    return drop_trailing_zeros([f[i] for i in range(0, len(f), p)])


class _FrobeniusTable:
    """The p-th power map of GF(p)[X]/(f), for f monic of degree n >= 2.

    Over GF(p), h^p = sum_i h_i X^(ip), so the map is fixed by the rows
    X^(ip) mod f, i < n.  They come from one `poly_mod_pow(X, p, f)` and n - 2
    products reduced by one `Modulus` of f, made on the first `power` call,
    and each row is packed by `_kron_pack` into one integer whose slots hold
    a sum of n products of residues.  One application is then n scalar
    products of big integers, one `_kron_unpack` and `_canonical`: a sum of
    rows has degree < n, so no division.  Every g dividing f shares the
    table, since h^p mod g = (h^p mod f) mod g; the caller's next gcd or
    product reduces mod g.
    """

    def __init__(self, p: int, f: list[int]):
        self.p = p
        self.f = f
        self.width = (deg(f) * (p - 1) ** 2).bit_length() + 1
        self.rows: list[int] | None = None

    def power(self, h: list[int]) -> list[int]:
        """h^p mod f, for a reduced h with deg h < deg f."""
        p, f = self.p, self.f
        n = deg(f)
        if self.rows is None:
            xp = row = poly_mod_pow(p, X_POLY, p, f)
            self.rows = [_kron_pack([1], self.width), _kron_pack(xp, self.width)]
            mod = Modulus(p, f, n - 2)
            for _ in range(n - 2):
                row = mod.divmod(list_mul(p, row, xp))[1]
                self.rows.append(_kron_pack(row, self.width))
        out: list[int] = []
        _kron_unpack(sum(c * row for c, row in zip(h, self.rows) if c), n, self.width, out)
        return _canonical(p, out)


def _squarefree_parts(p: int, f: list[int]) -> list[tuple[list[int], int]]:
    """[(s, m)] with monic f = prod s^m, the s squarefree, nonconstant and
    prime to each other (von zur Gathen & Gerhard, 14.6).

    For f = prod P^e, c = gcd(f, f') holds P^(e-1) when p does not divide e
    and P^e when it does, and w = f / c is the product of the first kind.
    Peeling w against c one multiplicity at a time leaves in c the P^e with
    p | e, a p-th power, whose p-th root is split the same way.
    """
    fp = formal_derivative(p, f)
    c = poly_gcd(p, f, fp) if fp else f
    w, m, parts = poly_divmod(p, f, c)[0], 1, []
    while deg(w) > 0:
        y = poly_gcd(p, w, c)
        s = poly_divmod(p, w, y)[0]
        if deg(s) > 0:
            parts.append((s, m))
        w, c, m = y, poly_divmod(p, c, y)[0], m + 1
    if deg(c) > 0:
        parts += [(s, m * p) for s, m in _squarefree_parts(p, _frobenius_power(p, c))]
    return parts


def _distinct_degree(p: int, f: list[int], frob: _FrobeniusTable):
    """Yield (d, g_d) for d = 1, 2, ...: g_d is the product of the monic
    irreducible factors of degree d of a squarefree monic f, when it is not 1.

    One sweep (von zur Gathen & Gerhard, Algorithm 14.3) over `frob`, the
    table of a multiple F of f.  It keeps h = X^(p^d) mod F, and the factors
    of degree d of what is left of f after the lower degrees are removed
    make up the gcd of h - X with that rest; the gcd's first division
    reduces h mod the rest.  A rest of degree below 2(d + 1) is irreducible.
    """
    rest, h, d = f, X_POLY, 0
    while 2 * (d + 1) <= deg(rest):
        d += 1
        h = frob.power(h)
        g = poly_gcd(p, list_sub(p, h, X_POLY), rest)
        if deg(g) > 0:
            yield d, g
            rest = poly_divmod(p, rest, g)[0]
    if deg(rest) > 0:
        yield deg(rest), rest


def _equal_degree_split(
    p: int, f: list[int], d: int, rng: random.Random, frob: _FrobeniusTable
):
    """Yield the irreducible factors of a monic f, all of whose factors have
    degree d, by Cantor-Zassenhaus splitting (von zur Gathen & Gerhard,
    Algorithm 14.8); `frob` is the Frobenius table of a multiple of f.
    The order of the factors depends on the draws; `factor_poly` sorts them.
    """
    while deg(f) > d:
        n = deg(f)
        u = drop_trailing_zeros([rng.randrange(p) for _ in range(n)])
        if deg(u) < 1:
            continue
        g = poly_gcd(p, f, u)
        if not 0 < deg(g) < n:
            if p == 2:
                # trace map u + u^2 + ... + u^(2^(d-1)) splits over GF(2);
                # deg u < n, so u is already reduced mod f
                t = acc = u
                for _ in range(d - 1):
                    t = frob.power(t)
                    acc = list_add(p, acc, t)
                g = poly_gcd(p, acc, f)
            else:
                # u^((p^d - 1)/2) = (u * u^p * ... * u^(p^(d-1)))^((p - 1)/2)
                conj = norm = u
                for _ in range(d - 1):
                    conj = frob.power(conj)
                    norm = poly_divmod(p, list_mul(p, norm, conj), f)[1]
                w = poly_mod_pow(p, norm, (p - 1) // 2, f)
                g = poly_gcd(p, f, list_sub(p, w, [1]))
        if 0 < deg(g) < n:
            yield from _equal_degree_split(p, g, d, rng, frob)
            f = poly_divmod(p, f, g)[0]
    yield f


class DistinctDegreeSplit(NamedTuple):
    """f = unit * prod g^m over the parts (m, d, g): g is the product of the
    monic irreducible factors of degree d that divide f exactly m times.
    `frob` is the Frobenius table of monic f."""

    unit: int
    frob: _FrobeniusTable
    parts: tuple[tuple[int, int, list[int]], ...]

    @property
    def degrees(self) -> list[int]:
        """The factor degrees, ascending, each as often as it divides f."""
        return sorted(d for m, d, g in self.parts for _ in range(m * (deg(g) // d)))


def distinct_degree_split(p: int, f: list[int]) -> DistinctDegreeSplit:
    """The first two stages of factoring f over GF(p): its squarefree parts,
    each split by one distinct-degree sweep over the table of monic f."""
    if not f:
        raise ValueError("cannot factor the zero polynomial")
    frob = _FrobeniusTable(p, monic(p, f))
    parts = _squarefree_parts(p, frob.f)
    return DistinctDegreeSplit(f[-1] % p, frob, tuple(
        (m, d, g) for s, m in parts for d, g in _distinct_degree(p, s, frob)))


def factor_poly(p: int, split: DistinctDegreeSplit) -> tuple[int, list[tuple[list[int], int]]]:
    """Full factorization over GF(p): (unit, [(monic irreducible, multiplicity)]).

    Generator-side, in three stages: the caller's `distinct_degree_split`
    of f holds the squarefree and distinct-degree stages, and each of its
    parts is split here by equal degree.  The complete factorization is
    unique and sorted, so it does not depend on the draws of the
    equal-degree splits.
    """
    frob = split.frob
    rng = random.Random(_stable_seed(p, *frob.f))
    factors = [(fac, m) for m, d, g in split.parts
               for fac in _equal_degree_split(p, g, d, rng, frob)]
    return split.unit, sorted(factors, key=lambda fm: (len(fm[0]), fm[0]))


def radical_fp(p: int, f: list[int]) -> tuple[list[int], int]:
    """(rad, e): the product rad of the distinct monic irreducible factors
    of f, and their largest multiplicity e, the smallest e with f | rad^e
    (0 for a constant f).  Both are read off one squarefree decomposition,
    as its parts' product and their largest multiplicity, with no factoring."""
    rad, e = [1], 0
    for s, m in _squarefree_parts(p, monic(p, f)):
        rad, e = list_mul(p, rad, s), max(e, m)
    return rad, e


def choose_base(p: int, n: int) -> int:
    """Exponent base heuristic: base p files hold quotients about (p - 1)n
    long, so base p only when p is tiny and n large."""
    return p if (p <= 5 and n >= 8) else 2


def _factor_witness(p: int, f: list[int]) -> ReducibleWitness:
    """The factorization witness for an f that failed Rabin's test: its
    smallest monic irreducible factor, by (degree, coefficients)."""
    fac = factor_poly(p, distinct_degree_split(p, f))[1][0][0]
    q, r = poly_divmod(p, f, fac)
    assert not r
    return ReducibleWitness(p, tuple(f), tuple(fac), tuple(q))


def generate_rabin(
    f: list[int], p: int, t: int | None = None
) -> RabinCertificate | ReducibleWitness:
    """Certificate for irreducible f over GF(p), or a factorization witness."""
    f = [c % p for c in f]
    f = drop_trailing_zeros(f)
    n = deg(f)
    if n <= 0:
        raise ValueError("degree must be positive")
    if t is None:
        t = choose_base(p, n)
    if t not in (2, p):
        raise ValueError("exponent base must be 2 or p")

    digits = base_digits(p, t)
    s = len(digits) - 1

    # Frobenius residue chain h_i = X^{p^i} mod f, one base-t square and
    # multiply per h_i, pinned to X at both ends.  Each step divides once:
    # the quotient is g_ij and the remainder h'_ij.  At the last step h'_ij
    # is X itself, so step - X is divided instead: X is not reduced mod f
    # when n = 1, and a nonzero remainder means h_n != X.
    #
    # For t = 2 every step T^2 * H^b is one packed product, read back and
    # reduced once, and one `Modulus` of f divides it: T and H are residues,
    # so the step has at most 3n - 2 coefficients and the quotient at most
    # 2n - 2 (n = 1 starts from h_0 = X, which falls back).  The t = p steps
    # divide by `poly_divmod`: their quotients are about (p - 1)n long, and
    # an inverse that long costs more than it saves.
    if t == 2:
        divide = Modulus(p, f, max(2 * n - 3, 0)).divmod
        # slots of T^2 are at most L(p-1)^2 and of T^2 * H at most L^2(p-1)^3,
        # for L = max(n, 2) bounding len T and len H (h_0 = X when n = 1);
        # one more bit is the sign bit `_kron_unpack` reads
        width = (max(n, 2) ** 2 * (p - 1) ** 3).bit_length() + 1
    else:
        def divide(a):
            return poly_divmod(p, a, f)

    h: list[list[int]] = [list(X_POLY)]
    g_rows = []
    hp_rows = []
    for i in range(n):
        hp = [None] * (s + 1)
        hp[s] = h[i]  # h_i^(b_s), and b_s = 1 in either base
        if t == 2:
            H = _kron_pack(h[i], width)
        grow = [None] * s
        for j in range(s - 1, -1, -1):
            top, b = hp[j + 1], digits[j]
            if t != 2:
                # t = p: p's base-p digits are 0, 1, so s = 1 and b_0 = 0,
                # and over GF(p) the step top^p is top(X^p)
                step = [0] * (p * len(top) - p + 1) if top else []
                step[::p] = top
            elif not top or (b and not h[i]):
                step = []
            else:
                T = _kron_pack(top, width)
                z, m = T * T, 2 * len(top) - 1
                if b:
                    z, m = z * H, m + len(h[i]) - 1
                step = []
                _kron_unpack(z, m, width, step)
                step = _canonical(p, step)
            if i == n - 1 and j == 0:
                hp[0] = list(X_POLY)
                q, r = divide(list_sub(p, step, X_POLY))
                if r:
                    return _factor_witness(p, f)
            else:
                q, hp[j] = divide(step)
            grow[j] = tuple(q)
        h.append(hp[0])
        g_rows.append(tuple(grow))
        hp_rows.append(tuple(tuple(x) for x in hp))

    # Rabin's test: h_n = X above, and gcd(f, h_{n/q} - X) = 1 for each prime q | n
    a_rows: list[tuple[int, ...]] = [()] * n
    b_rows: list[tuple[int, ...]] = [()] * n
    for q in primality.prime_factors_trial(n):
        k = n // q
        d, u, v = poly_xgcd(p, f, list_sub(p, h[k], X_POLY))
        if d != [1]:
            return _factor_witness(p, f)
        a_rows[k] = tuple(u)
        b_rows[k] = tuple(v)

    return RabinCertificate(
        p=p,
        n=n,
        t=t,
        L=tuple(f),
        g=tuple(g_rows),
        hprime=tuple(hp_rows),
        a=tuple(a_rows),
        b=tuple(b_rows),
    )
