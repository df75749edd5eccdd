"""Exact arithmetic kernel.

Polynomials are dense coefficient lists in ascending degree order: index i
holds the coefficient of X^i.  The canonical form has no trailing zeros and
the zero polynomial is the empty list.  Every operation here returns
canonical lists, so polynomial equality is plain list equality.

Coefficients are plain Python ints, and a domain is its modulus: every
operation takes the p of Z/pZ as its first argument, as Mathlib indexes
Z/nZ by n (``ZMod n``, with ``ZMod 0`` = Z).

* ``ZZ = 0`` -- Z/0Z, the arbitrary-precision integers
* ``p > 0``  -- GF(p) for a prime p, residues stored as ints in [0, p)

Every list operation computes on plain ints and, for p > 0, reduces each
output list once (`_canonical`), which is exact for any modulus p >= 2,
prime or not, and for unreduced or negative inputs.  Primality of p is the
caller's responsibility: the verifiers certify p
(`primality.certify_prime_for_verifier`) before they read a certificate
over GF(p), and the generator picks its primes.

Products (`list_mul`, and through it `list_pow`, `poly_mod_pow` and
`poly_xgcd`) use Kronecker substitution: both factors are packed into one
big integer with w-bit slots, CPython multiplies the two integers once, and
the slots are read back.  The slot width comes from the exact bound
min(len a, len b) * max|a_i| * max|b_j| on every product coefficient, plus a
sign bit, so the integer convolution is exact.  Packing and reading back
split long lists in halves, so they cost O(m*w*log m) bit operations for m
slots of w bits, not O(m*m*w).  `list_pow` squares and multiplies from the
top bit of the exponent, so no product has [1] as a factor; its first power
only canonicalizes.  `packed_vanishes_mod_p` decides whether p divides every
slot of a packed integer without reading a slot back: one exact division by
p and two masks.

One long division, `poly_divmod`, serves Z and GF(p) (and through it
`poly_gcd` and `poly_xgcd`): over GF(p) each quotient coefficient costs one
`% p` and the remainder is reduced once at the end; over Z each step
divides by lc(g) exactly, or reports that it cannot.  Where many divisions
share one divisor over GF(p), a `Modulus` of it inverts the reversed
divisor once as a power series, and each division is then two Kronecker
products: one for the quotient, one for the remainder.  `poly_mod_pow`
reduces its products by one, and so do the generator's base-2 Rabin chain
and Frobenius table (`irred_ff`).  Only the generator divides over GF(p).
"""

from __future__ import annotations

from functools import lru_cache
from math import gcd
from operator import add, mul, neg, sub


ZZ = 0  # Z/0Z = Z


def _inv(p: int, a: int) -> int:
    """The inverse of a in GF(p)."""
    if a % p == 0:
        raise ZeroDivisionError(f"inverse of zero in GF({p})")
    return pow(a, -1, p)


# ---------------------------------------------------------------------------
# list-level polynomial operations
# ---------------------------------------------------------------------------


def drop_trailing_zeros(l: list) -> list:
    """Longest prefix of l whose last element is nonzero (empty if all zero)."""
    k = len(l)
    while k > 0 and l[k - 1] == 0:
        k -= 1
    return list(l[:k])


def deg(l: list) -> int:
    """Degree of a canonical list; the zero polynomial has degree -1."""
    return len(l) - 1


def lc(l: list):
    """Leading coefficient of a nonzero canonical list."""
    if not l:
        raise ValueError("zero polynomial has no leading coefficient")
    return l[-1]


def _canonical(p: int, l: list[int]) -> list[int]:
    """The fresh list l, reduced modulo p over GF(p), without trailing zeros."""
    if p:
        l = [c % p for c in l]
    while l and not l[-1]:
        l.pop()
    return l


def list_add(p: int, a: list, b: list) -> list:
    if len(a) < len(b):
        a, b = b, a
    out = list(map(add, a, b))
    out += a[len(b):]
    return _canonical(p, out)


def list_sub(p: int, a: list, b: list) -> list:
    out = list(map(sub, a, b))
    if len(a) >= len(b):
        out += a[len(b):]
    else:
        out += map(neg, b[len(a):])
    return _canonical(p, out)


def mul_pointwise(p: int, c, l: list) -> list:
    """Scalar multiple c*l, canonicalized."""
    if c == 0:
        return []
    return _canonical(p, [c * x for x in l])


_KRON_LEAF = 32  # slots packed or read back by one shift loop


def _kron_pack(l: list[int], w: int) -> int:
    """sum_i l[i] * 2**(w*i).

    Short lists go by Horner shifts; longer ones are split in halves, so a
    list of m slots costs O(m*w*log m) bit operations instead of O(m*m*w).
    """
    if len(l) > _KRON_LEAF:
        h = len(l) // 2
        return _kron_pack(l[:h], w) + (_kron_pack(l[h:], w) << (h * w))
    x = 0
    for c in reversed(l):
        x = (x << w) + c
    return x


def _kron_unpack(z: int, m: int, w: int, out: list[int]) -> None:
    """Append to out the m signed w-bit digits of z, lowest first.

    Every digit d must satisfy |d| < 2**(w-1).  Longer digit strings are split
    in halves like `_kron_pack`: the low half, read as a signed h*w-bit
    number, is exactly the sum of its digits.
    """
    if m > _KRON_LEAF:
        h = m // 2
        lo = z & ((1 << (h * w)) - 1)
        if lo >> (h * w - 1):  # negative low half: it borrowed from the high half
            lo -= 1 << (h * w)
        _kron_unpack(lo, h, w, out)
        _kron_unpack((z - lo) >> (h * w), m - h, w, out)
        return
    mask = (1 << w) - 1
    half = 1 << (w - 1)
    for _ in range(m):
        d = z & mask
        z >>= w
        if d >= half:
            d -= mask + 1
            z += 1
        out.append(d)


@lru_cache(maxsize=16)
def _slot_masks(m: int, w: int, v: int) -> tuple[int, int]:
    """(2**(v-1) in every one of m w-bit slots, the top w - v bits of every slot)."""
    ones = ((1 << (w * m)) - 1) // ((1 << w) - 1)
    return ones << (v - 1), ones * ((1 << w) - (1 << v))


def packed_vanishes_mod_p(z: int, p: int, m: int, w: int) -> bool:
    """Whether p divides every digit d_k of z = sum_{k<m} d_k * 2**(w*k).

    Requires w > bitlen(p) and |d_k| < 2**(w-2); no digit is read back.  Let
    z = p*q + r and v = w - bitlen(p).  If every d_k = p*e_k, then r = 0 and
    |e_k| < 2**(w-2) / 2**(bitlen(p)-1) = 2**(v-1), so q plus 2**(v-1) in
    every slot lies in [0, 2**(w*m)) and leaves the top w - v bits of every
    slot clear.  Conversely, those conditions give q digits e_k in
    [-2**(v-1), 2**(v-1)), and z = sum p*e_k * 2**(w*k) with
    |p*e_k| < 2**(bitlen(p)+v-1) = 2**(w-1).  The d_k and the p*e_k are then
    two expansions of z with digits in [-2**(w-1), 2**(w-1)), and such an
    expansion is unique (z mod 2**w fixes the lowest digit, and so on
    upwards), so d_k = p*e_k.  Nothing here uses that p is prime.
    """
    q, r = divmod(z, p)
    if r:
        return False
    beta, top = _slot_masks(m, w, w - p.bit_length())
    q += beta
    return 0 <= q < 1 << (w * m) and not q & top


def _kron_mul(a: list[int], b: list[int]) -> list[int]:
    """Integer convolution of two nonempty lists, untrimmed, by Kronecker substitution.

    Both lists are evaluated at X = 2**w, the two integers are multiplied
    once, and the product's coefficients are read back as signed w-bit
    digits.  Every coefficient satisfies
    |c_k| <= min(len a, len b) * max|a_i| * max|b_j| < 2**(w-1), so the digits
    do not overlap and the result is exact.
    """
    bound = min(len(a), len(b)) * max(map(abs, a)) * max(map(abs, b))
    w = bound.bit_length() + 1
    out: list[int] = []
    _kron_unpack(_kron_pack(a, w) * _kron_pack(b, w), len(a) + len(b) - 1, w, out)
    return out


def list_mul(p: int, a: list, b: list) -> list:
    """Convolution product, canonicalized, as one integer product (`_kron_mul`).

    Over GF(p) the inputs are reduced first, which keeps the slots narrow, and
    the integer convolution after.
    """
    if not a or not b:
        return []
    if p:
        a = [c % p for c in a]
        b = [c % p for c in b]
    return _canonical(p, _kron_mul(a, b))


def list_pow(p: int, a: list, e: int) -> list:
    """Exact e-th power (no modulus), canonicalized like `list_mul`.

    Left-to-right square and multiply from the top bit of e, so no product
    has [1] as a factor; e = 1 only canonicalizes a, and e = 0 gives [1].
    """
    if e < 0:
        raise ValueError("negative exponent")
    if e == 0:
        return [1]
    if e == 1:
        return _canonical(p, list(a))
    result = a
    for bit in bin(e)[3:]:
        result = list_mul(p, result, result)
        if bit == "1":
            result = list_mul(p, result, a)
    return result


def poly_eval(p: int, f: list, x: int) -> int:
    """f(x) by Horner's rule on integers, reduced once over GF(p)."""
    acc = 0
    for c in reversed(f):
        acc = acc * x + c
    return acc % p if p else acc


def formal_derivative(p: int, f: list) -> list:
    return _canonical(p, [i * f[i] for i in range(1, len(f))])


def reduce_mod_p(f: list[int], p: int) -> list[int]:
    """Coefficientwise reduction of an integer polynomial modulo p."""
    return drop_trailing_zeros([c % p for c in f])


def poly_divmod(p: int, f: list[int], g: list[int]) -> tuple[list[int], list[int]] | None:
    """Quotient and remainder of f by g over Z/pZ, both canonical.

    Schoolbook long division on a row of unreduced integers.  Over GF(p)
    the inputs are reduced once, each quotient coefficient costs one `% p`,
    and the row is reduced once at the end; raises ZeroDivisionError when
    lc(g) = 0 mod p.  Over Z each step divides by lc(g) exactly, and the
    first step where that division is not exact returns None, so a monic g
    never gives None; when g divides f in Z[X], the result is (f / g, []).
    Raises ZeroDivisionError when g = 0.
    """
    if not g:
        raise ZeroDivisionError("polynomial division by zero")
    if p:
        g = [c % p for c in g]
        if not g[-1]:
            raise ZeroDivisionError(f"inverse of zero in GF({p})")
        inv_lead = pow(g[-1], -1, p)
        r = [c % p for c in f]
    else:
        r = list(f)
    lead = g[-1]
    dg = len(g) - 1
    q = [0] * max(len(r) - dg, 0)
    for k in range(len(q) - 1, -1, -1):
        if p:
            c = r[k + dg] * inv_lead % p
        else:
            c, rest = divmod(r[k + dg], lead)
            if rest:
                return None
        q[k] = c
        if c:
            # r[k + dg] is now 0 (mod p) and is not read again
            for i in range(dg):
                r[k + i] -= c * g[i]
    return drop_trailing_zeros(q), _canonical(p, r[:dg])


class Modulus:
    """Division over GF(p) by one fixed g through a precomputed inverse
    (von zur Gathen & Gerhard, Modern Computer Algebra, 9.1).

    With n = deg g and rev(g) = X^n * g(1/X), inv = rev(g)^(-1) mod X^(M+1)
    exists when lc(g) is a unit mod p, and the quotient of an a of length
    n + m, 1 <= m <= M + 1, is q_k = sum_{l >= k} a_{n+l} * inv_{l-k}: slot
    M + k of the Kronecker product of a[n:] with inv reversed.  The
    remainder is a[:n] - (q*g mod X^n), one more product.  Division by g
    with a unit leading coefficient is unique, so `divmod` returns what
    `poly_divmod` returns, and falls back to it for a quotient longer than
    M + 1.  Building the kernel raises what `poly_divmod` by g raises: for
    g = 0, lc(g) = 0 mod p, or lc(g) not a unit mod p.
    """

    def __init__(self, p: int, g: list[int], M: int):
        if not g:
            raise ZeroDivisionError("polynomial division by zero")
        g = [c % p for c in g]
        if not g[-1]:
            raise ZeroDivisionError(f"inverse of zero in GF({p})")
        inv_lead = pow(g[-1], -1, p)
        n = len(g) - 1
        rev = g[::-1]
        # rev * inv = 1 mod X^(M+1), solved for inv_k one k at a time
        inv = [inv_lead]
        for k in range(1, M + 1):
            lo = max(k - n, 0)
            inv.append(-inv_lead * sum(map(mul, rev[1:k - lo + 1], reversed(inv[lo:k]))) % p)
        # Every slot read back lies in (-B, B) for B = (M + 1)(p - 1)^2 + p:
        # - a quotient slot sums at most M + 1 products of residues, so it
        #   lies in [0, (M + 1)(p - 1)^2];
        # - a remainder slot is a_k - (q*g)_k, where (q*g)_k, k < n, sums at
        #   most min(n, M + 1) products of residues, so it lies in
        #   (-(M + 1)(p - 1)^2, p).
        # Every slot of a[n:] * inv reversed is in that range too, so the
        # shift by M*w drops the slots below the quotient exactly.  The
        # slots of q*g from n up may overflow, but they are masked off, and
        # carries only go up.  `_kron_unpack` reads signed digits below
        # 2^(w-1) in absolute value, hence the one more bit.
        w = ((M + 1) * (p - 1) ** 2 + p).bit_length() + 1
        self.p, self.g, self.n, self.M, self.width = p, g, n, M, w
        self.inv_rev = _kron_pack(inv[::-1], w)
        self.g_low = _kron_pack(g[:n], w)
        self.low_mask = (1 << (n * w)) - 1

    def divmod(self, a: list[int]) -> tuple[list[int], list[int]]:
        """`poly_divmod(p, a, g)` for a reduced canonical a."""
        n, w = self.n, self.width
        m = len(a) - n
        if m <= 0:
            return [], list(a)
        if m > self.M + 1:
            return poly_divmod(self.p, a, self.g)
        z = _kron_pack(a, w)
        q: list[int] = []
        _kron_unpack(((z >> (n * w)) * self.inv_rev) >> (self.M * w), m, w, q)
        q = _canonical(self.p, q)
        if not n:
            return q, []
        r: list[int] = []
        low = (_kron_pack(q, w) * self.g_low) & self.low_mask
        _kron_unpack((z & self.low_mask) - low, n, w, r)
        return q, _canonical(self.p, r)


def monic(p: int, f: list) -> list:
    """Scale f by the inverse of its leading coefficient."""
    if not f:
        raise ValueError("cannot normalize the zero polynomial")
    return mul_pointwise(p, _inv(p, lc(f)), f)


def poly_xgcd(p: int, f: list, g: list) -> tuple[list, list, list]:
    """Extended gcd: returns (d, a, b) with d monic and a*f + b*g = d."""
    if not f and not g:
        raise ValueError("xgcd of two zero polynomials")
    r0, r1 = list(f), list(g)
    s0, s1 = [1], []
    t0, t1 = [], [1]
    while r1:
        q, r = poly_divmod(p, r0, r1)
        r0, r1 = r1, r
        s0, s1 = s1, list_sub(p, s0, list_mul(p, q, s1))
        t0, t1 = t1, list_sub(p, t0, list_mul(p, q, t1))
    c = _inv(p, lc(r0))
    return (
        mul_pointwise(p, c, r0),
        mul_pointwise(p, c, s0),
        mul_pointwise(p, c, t0),
    )


def poly_gcd(p: int, f: list, g: list) -> list:
    if not f and not g:
        return []
    r0, r1 = list(f), list(g)
    while r1:
        _, r = poly_divmod(p, r0, r1)
        r0, r1 = r1, r
    return monic(p, r0)


def poly_mod_pow(p: int, g: list, e: int, f: list) -> list:
    """g^e reduced modulo f, by square and multiply.

    Every product of two residues is reduced by one `Modulus` of f: its
    quotient has at most deg f - 1 coefficients.
    """
    if not f:
        raise ZeroDivisionError("zero modulus")
    if e < 0:
        raise ValueError("negative exponent")
    mod = Modulus(p, f, max(len(f) - 3, 0))
    result = poly_divmod(p, [1], f)[1]
    base = poly_divmod(p, g, f)[1]
    while e:
        if e & 1:
            result = mod.divmod(list_mul(p, result, base))[1]
        e >>= 1
        if e:
            base = mod.divmod(list_mul(p, base, base))[1]
    return result


def content(f: list[int]) -> int:
    """Positive gcd of the integer coefficients (0 for the zero polynomial)."""
    return gcd(*f)
