"""p-maximality certificates for an order given by a times table.

Two routes:

* the Dedekind criterion on the defining polynomial T, which settles every
  prime not dividing the index of Z[theta] and many that do not survive it;
* kernel certificates: exhibit a basis of the radical quotient via the
  iterated Frobenius, then show that multiplication acts faithfully on it.
  The short form carries a single witness element; the long form carries
  the full endomorphism matrices and always exists when O is p-maximal.

The generator computes the kernel basis, then the integer matrix phi of
that action, whose rank mod p decides p-maximality; only then does it
search for a short witness, taking each candidate's images from phi's
blocks.  Either form's products are combinations of phi's rows, so no form
is written with a product in the order.

Verification works entirely over the times table: products over Z,
Frobenius powers over the table reduced mod p, and, for every
linear-independence claim, a check that each row owns a column: one where
it is nonzero and every other row is zero.  Such rows are independent, and
the owned columns are found in one pass over the matrix, so a certificate
names no pivots.  No kernels or determinants are ever computed by the
verifier.
"""

import itertools
import operator
import random
from typing import Callable, NamedTuple

from .exactalg import (
    ZZ,
    deg,
    drop_trailing_zeros,
    formal_derivative,
    list_add,
    list_mul,
    list_pow,
    list_sub,
    mul_pointwise,
    poly_divmod,
    poly_xgcd,
    reduce_mod_p,
)
from .irred_ff import radical_fp
from .linalg import (
    inverse_unimodular,
    nullspace_fp,
    pattern_reduce_fp,
    transpose,
)
from .orders import TimesTable, reduce_table_mod_p, tt_mul, tt_pow
from .verdict import Verdict

# ---------------------------------------------------------------------------
# Dedekind criterion
# ---------------------------------------------------------------------------


class DedekindCertificate(NamedTuple):
    g: tuple[int, ...]  # lift of the radical of T mod p
    h: tuple[int, ...]  # lift of (T mod p) / (g mod p)
    f: tuple[int, ...]  # (g*h - T) / p over Z
    a: tuple[int, ...]  # cofactors over GF(p): a*fbar + b*gbar + c*hbar = 1
    b: tuple[int, ...]
    c: tuple[int, ...]
    rad_power_exp: int                  # e <= n with T | g^e mod p
    rad_power_witness: tuple[int, ...]  # gbar^e / (T mod p)
    sqfree_u: tuple[int, ...]           # u*gbar + v*gbar' = 1
    sqfree_v: tuple[int, ...]


def _fp_range_ok(p: int, *polys: tuple[int, ...]) -> bool:
    return all(all(0 <= c < p for c in poly) for poly in polys)


def verify_dedekind(T: list[int], p: int, cert: DedekindCertificate) -> Verdict:
    """Acceptance certifies that p does not divide the index of Z[theta] in
    the maximal order, hence p-maximality of any full-rank order containing
    theta.  T monic of positive degree and p prime are the caller's checks.

    gbar * hbar = T mod p needs no witness: it is p*f = g*h - T read mod p."""
    n = deg(T)
    if not _fp_range_ok(
        p,
        cert.a,
        cert.b,
        cert.c,
        cert.rad_power_witness,
        cert.sqfree_u,
        cert.sqfree_v,
    ):
        return Verdict.reject("dedekind/coefficient-range")
    Tbar = reduce_mod_p(T, p)
    gbar = reduce_mod_p(list(cert.g), p)
    hbar = reduce_mod_p(list(cert.h), p)
    fbar = reduce_mod_p(list(cert.f), p)

    if not (1 <= cert.rad_power_exp <= n):
        return Verdict.reject("dedekind/radical-exponent")
    if list_mul(p, Tbar, list(cert.rad_power_witness)) != list_pow(
        p, gbar, cert.rad_power_exp
    ):
        return Verdict.reject("dedekind/radical-power")
    gprime = formal_derivative(p, list(cert.g))
    lhs = list_add(
        p,
        list_mul(p, list(cert.sqfree_u), gbar),
        list_mul(p, list(cert.sqfree_v), gprime),
    )
    if lhs != [1]:
        return Verdict.reject("dedekind/radical-squarefree")

    # T is monic, so p*f = g*h - T forces deg g + deg h = n; checking that
    # first bounds the product's length by n rather than by the file
    g, h = drop_trailing_zeros(list(cert.g)), drop_trailing_zeros(list(cert.h))
    if deg(g) + deg(h) != n:
        return Verdict.reject("dedekind/factor-identity")
    prod = list_sub(ZZ, list_mul(ZZ, g, h), T)
    if mul_pointwise(ZZ, p, list(cert.f)) != prod:
        return Verdict.reject("dedekind/factor-identity")

    combo = list_add(
        p,
        list_mul(p, list(cert.a), fbar),
        list_add(
            p,
            list_mul(p, list(cert.b), gbar),
            list_mul(p, list(cert.c), hbar),
        ),
    )
    if combo != [1]:
        return Verdict.reject("dedekind/gcd")
    return Verdict.accept()


def generate_dedekind(T: list[int], p: int) -> DedekindCertificate | None:
    """Build a Dedekind certificate at p, or None when the criterion fails.

    The radical power is the smallest that T mod p divides: its exponent is
    the largest multiplicity of an irreducible factor of T mod p, read off
    the same squarefree decomposition that gives the radical.
    """
    T = drop_trailing_zeros(list(T))
    Tbar = reduce_mod_p(T, p)
    rad, e = radical_fp(p, Tbar)
    hbar, rem = poly_divmod(p, Tbar, rad)
    assert not rem
    g = list(rad)
    h = list(hbar)
    prod = list_sub(ZZ, list_mul(ZZ, g, h), T)
    assert all(c % p == 0 for c in prod)
    f = [c // p for c in prod]
    fbar = reduce_mod_p(f, p)

    d1, u1, v1 = poly_xgcd(p, fbar, rad)
    d2, u2, v2 = poly_xgcd(p, d1, hbar)
    if d2 != [1]:
        return None
    a = list_mul(p, u2, u1)
    b = list_mul(p, u2, v1)
    c = v2

    power = list_pow(p, rad, e)
    wit, rem = poly_divmod(p, power, Tbar)
    assert not rem
    dsq, su, sv = poly_xgcd(p, rad, formal_derivative(p, rad))
    assert dsq == [1]
    return DedekindCertificate(
        g=tuple(g),
        h=tuple(h),
        f=tuple(f),
        a=tuple(a),
        b=tuple(b),
        c=tuple(c),
        rad_power_exp=e,
        rad_power_witness=tuple(wit),
        sqfree_u=tuple(su),
        sqfree_v=tuple(sv),
    )


# ---------------------------------------------------------------------------
# kernel certificates
# ---------------------------------------------------------------------------

class PMaxShortCertificate(NamedTuple):
    V: tuple[tuple[int, ...], ...]      # m x r over Z
    W: tuple[tuple[int, ...], ...]      # n x r over Z
    U: tuple[tuple[int, ...], ...]      # n x r over GF(p)
    X: tuple[tuple[int, ...], ...]      # r x r over Z
    beta: tuple[int, ...]               # m witness coordinates
    gamma: tuple[int, ...]              # n witness coordinates
    a: tuple[tuple[int, ...], ...]      # r x m over Z
    c: tuple[tuple[int, ...], ...]      # r x n over Z


class PMaxLongCertificate(NamedTuple):
    V: tuple[tuple[int, ...], ...]
    W: tuple[tuple[int, ...], ...]
    U: tuple[tuple[int, ...], ...]
    X: tuple[tuple[int, ...], ...]
    a: tuple[tuple[tuple[int, ...], ...], ...]  # r x m x m
    c: tuple[tuple[tuple[int, ...], ...], ...]  # r x m x n
    d: tuple[tuple[tuple[int, ...], ...], ...]  # r x n x m
    e: tuple[tuple[tuple[int, ...], ...], ...]  # r x n x n


class KernelWitness(NamedTuple):
    """Evidence of non-maximality: a nonzero element of ker(phi) at p."""

    p: int
    coords: tuple[int, ...]


def _unowned_row(rows: list[list[int]]) -> int | None:
    """The first row that owns no column, or None when every row owns one.

    Row i owns column j when row i is nonzero there and every other row is
    zero; distinct rows own distinct columns, so rows that each own one are
    linearly independent.  One pass over the matrix."""
    owned = set()
    for column in zip(*rows):
        nonzero = [i for i, x in enumerate(column) if x]
        if len(nonzero) == 1:
            owned.add(nonzero[0])
    return next((i for i in range(len(rows)) if i not in owned), None)


def _matrix_shape_ok(mat, rows: int, cols: int) -> bool:
    return len(mat) == rows and all(len(r) == cols for r in mat)


def _vw_combination(
    V, W, a_row: list[int], c_row: list[int], p: int, r: int
) -> list[int]:
    """sum_k a_k * V[k] + p * sum_k c_k * W[k] as an exact integer vector."""
    out = [0] * r
    for coef, row in itertools.chain(zip(a_row, V), zip([p * c for c in c_row], W)):
        if coef:
            out = [x + coef * y for x, y in zip(out, row)]
    return out


def _check_common(tt: TimesTable, p: int, cert, kind: str) -> Verdict:
    """Shared dimension checks and statements (i), (ii), (iv), (v).  The
    kernel has m = len(V) rows and its complement n = len(W)."""
    r = tt.n
    m, n = len(cert.V), len(cert.W)
    if n < 1 or m + n != r:
        return Verdict.reject(f"{kind}/dims")
    if not _matrix_shape_ok(cert.V, m, r) or not _matrix_shape_ok(cert.W, n, r):
        return Verdict.reject(f"{kind}/shape")
    if not _matrix_shape_ok(cert.U, n, r):
        return Verdict.reject(f"{kind}/shape")
    if any(not (0 <= x < p) for row in cert.U for x in row):
        return Verdict.reject(f"{kind}/coefficient-range")

    vbar = [[x % p for x in row] for row in cert.V]
    wbar = [[x % p for x in row] for row in cert.W]
    urows = [list(row) for row in cert.U]

    # (i) and (ii): the rows of V mod p, and of U, each own a column
    i = _unowned_row(vbar)
    if i is not None:
        return Verdict.reject(f"{kind}/check-i/i={i}")
    i = _unowned_row(urows)
    if i is not None:
        return Verdict.reject(f"{kind}/check-ii/i={i}")

    tt_p = reduce_table_mod_p(tt, p)
    exponent = p ** minimal_frobenius_exponent(p, r)
    for i in range(m):
        z = tt_pow(p, tt_p, vbar[i], exponent)
        if z != []:
            return Verdict.reject(f"{kind}/check-iv/i={i}")
    for i in range(n):
        z = tt_pow(p, tt_p, wbar[i], exponent)
        if z != drop_trailing_zeros(urows[i]):
            return Verdict.reject(f"{kind}/check-v/i={i}")
    return Verdict.accept()


def verify_pmax_short(tt: TimesTable, p: int, cert: PMaxShortCertificate) -> Verdict:
    """Statements (i)-(vi) of the short certificate over the times table.

    With m = 0 the Frobenius is bijective on O/pO, the radical is p*O, and
    statements (ii) and (v) alone already force p-maximality; the witness
    fields must then be empty.
    """
    ok = _check_common(tt, p, cert, "pmax-short")
    if not ok:
        return ok
    r, m, n = tt.n, len(cert.V), len(cert.W)

    if m == 0:
        if cert.X or cert.beta or cert.gamma or cert.a or cert.c:
            return Verdict.reject("pmax-short/simplified-shape")
        return Verdict.accept()

    if not _matrix_shape_ok(cert.X, r, r):
        return Verdict.reject("pmax-short/shape")
    if len(cert.beta) != m or len(cert.gamma) != n:
        return Verdict.reject("pmax-short/shape")
    if not _matrix_shape_ok(cert.a, r, m) or not _matrix_shape_ok(cert.c, r, n):
        return Verdict.reject("pmax-short/shape")

    # (iii): the rows of [a | c] mod p each own a column
    i = _unowned_row([[x % p for x in (*a_row, *c_row)] for a_row, c_row in zip(cert.a, cert.c)])
    if i is not None:
        return Verdict.reject(f"pmax-short/check-iii/i={i}")

    beta_w = _vw_combination(cert.V, cert.W, list(cert.beta), list(cert.gamma), p, r)
    for i in range(r):
        lhs = tt_mul(ZZ, tt, list(cert.X[i]), beta_w)
        rhs = _vw_combination(cert.V, cert.W, list(cert.a[i]), list(cert.c[i]), p, r)
        if lhs != drop_trailing_zeros(rhs):
            return Verdict.reject(f"pmax-short/check-vi/i={i}")
    return Verdict.accept()


def verify_pmax_long(tt: TimesTable, p: int, cert: PMaxLongCertificate) -> Verdict:
    """Statements (i)-(vii) of the long certificate."""
    ok = _check_common(tt, p, cert, "pmax-long")
    if not ok:
        return ok
    r, m, n = tt.n, len(cert.V), len(cert.W)

    if m == 0:
        if cert.X or cert.a or cert.c or cert.d or cert.e:
            return Verdict.reject("pmax-long/simplified-shape")
        return Verdict.accept()

    if not _matrix_shape_ok(cert.X, r, r):
        return Verdict.reject("pmax-long/shape")
    for arr, rows, cols in ((cert.a, m, m), (cert.c, m, n), (cert.d, n, m), (cert.e, n, n)):
        if len(arr) != r or any(not _matrix_shape_ok(block, rows, cols) for block in arr):
            return Verdict.reject("pmax-long/shape")

    # pairs[i][u]: the claimed coordinates over V ++ pW of x_i * input_u,
    # for the inputs V ++ pW
    pairs = [
        [(*a, *c) for a, c in zip(a_i, c_i)] + [(*d, *e) for d, e in zip(d_i, e_i)]
        for a_i, c_i, d_i, e_i in zip(cert.a, cert.c, cert.d, cert.e)
    ]
    # (iii): the rows of pairs mod p, each flattened, each own an entry
    i = _unowned_row([[x % p for pair in row for x in pair] for row in pairs])
    if i is not None:
        return Verdict.reject(f"pmax-long/check-iii/i={i}")

    # (vi) for the inputs v_j, then (vii) for the inputs p w_j: x_i * input
    # expands over the V block and p times the W block
    inputs = [list(row) for row in cert.V] + [[p * x for x in row] for row in cert.W]
    for check, first, stop in (("vi", 0, m), ("vii", m, r)):
        for i in range(r):
            for u in range(first, stop):
                lhs = tt_mul(ZZ, tt, list(cert.X[i]), inputs[u])
                pair = pairs[i][u]
                rhs = _vw_combination(cert.V, cert.W, pair[:m], pair[m:], p, r)
                if lhs != drop_trailing_zeros(rhs):
                    return Verdict.reject(f"pmax-long/check-{check}/i={i}/j={u - first}")
    return Verdict.accept()


# ---------------------------------------------------------------------------
# generator side
# ---------------------------------------------------------------------------


def minimal_frobenius_exponent(p: int, r: int) -> int:
    t = 0
    power = 1
    while power < r:
        power *= p
        t += 1
    return t


def frobenius_kernel_basis(
    tt: TimesTable, p: int, t: int
) -> tuple[list[list[int]], list[int], list[list[int]], list[list[int]]]:
    """Kernel and complement data for the iterated Frobenius on O/pO.

    Returns (V rows over GF(p) with pivot pattern, their pivot columns nu,
    W rows over Z, U = Frobenius images of W with pivot pattern).

    The stacked integer matrix [V; W] is unimodular, which keeps every
    later decomposition over {V, pW} integral: each V row is 1 at its own
    free column and 0 at the other free columns, and W starts as the unit
    rows of the complement columns, which the mirror of `pattern_reduce_fp`
    only swaps and adds integer multiples of, so with the columns ordered
    (nu, complement) [V; W] is block upper triangular with unimodular
    diagonal blocks I and M.
    """
    tt_p = reduce_table_mod_p(tt, p)
    r = tt.n
    exponent = p**t
    frob = []
    for j in range(r):
        e_j = [0] * j + [1]
        img = tt_pow(p, tt_p, e_j, exponent)
        frob.append([(img[k] if k < len(img) else 0) for k in range(r)])

    vbar, nu = nullspace_fp(transpose(frob), p)
    complement = [c for c in range(r) if c not in nu]
    w_rows = [[1 if k == c else 0 for k in range(r)] for c in complement]
    u_rows = [list(frob[c]) for c in complement]
    u_patterned, omega = pattern_reduce_fp(u_rows, p, mirror=w_rows)
    assert len(omega) == len(u_rows), "Frobenius images of the complement are dependent"
    return vbar, nu, w_rows, u_patterned


def _vw_decomposer(
    V: list[list[int]], W: list[list[int]], p: int
) -> Callable[[list[int]], tuple[list[int], list[int]]]:
    """The map y -> integer (a, c) with y = sum a_k V_k + p sum c_k W_k.

    [V; W] is unimodular (see `frobenius_kernel_basis`), so y times its
    integer inverse is the unique integer (a, b) with y = a.V + b.W, and one
    inverse serves every product.  y must lie in the radical lattice, that
    is p | b (asserted); then c = b / p.  The input y may omit trailing
    zeros.
    """
    r, m = len((V or W)[0]), len(V)
    cols = list(zip(*inverse_unimodular(V + W)))

    def decompose(y: list[int]) -> tuple[list[int], list[int]]:
        y = y + [0] * (r - len(y))
        ab = [sum(map(operator.mul, y, col)) for col in cols]
        assert all(x % p == 0 for x in ab[m:]), "element outside the radical lattice"
        return ab[:m], [x // p for x in ab[m:]]

    return decompose


WITNESS_BUDGET = 512  # candidates _search_witness tries before the long form


def _action_matrix(tt: TimesTable, p: int, V, W, decompose) -> list[list[int]]:
    """phi, the action of O on the radical quotient: row i lists, for each
    input u of V ++ pW in turn, the integer coordinates over {V, pW} of
    e_i * input_u.  The action is faithful exactly when the r rows are
    independent mod p."""
    inputs = V + [[p * x for x in row] for row in W]
    phi = []
    for i in range(tt.n):
        row = []
        for x in inputs:
            a_row, c_row = decompose(tt_mul(ZZ, tt, [0] * i + [1], x))
            row.extend(a_row + c_row)
        phi.append(row)
    return phi


def _candidate_images(phi: list[list[int]], p: int, coef: list[int]) -> list[list[int]]:
    """Coordinates over {V, pW} of e_i * beta_w, one row per i, for
    beta_w = sum_u coef_u * input_u, reduced mod p unless p is ZZ:
    decomposition is linear, so row i is the same combination of the r
    blocks of phi's row i."""
    r = len(phi)
    terms = [(u * r, c) for u, c in enumerate(coef) if c]
    rho = []
    for row in phi:
        acc = [0] * r
        for s, c in terms:
            acc = [x + c * y for x, y in zip(acc, row[s:s + r])]
        rho.append([x % p for x in acc] if p else acc)
    return rho


def _mat_mul(x: list[list[int]], y: list[list[int]]) -> list[list[int]]:
    cols = list(zip(*y))
    return [[sum(map(operator.mul, row, col)) for col in cols] for row in x]


def _search_witness(
    r: int, m: int, p: int, phi: list[list[int]], budget: int
) -> tuple[list[int], list[int], list[list[int]]] | None:
    """A witness element of the radical quotient on which multiplication by
    the whole order stays independent; None triggers the long certificate.

    All 0/1 coordinate vectors are tried first, then random ones, drawn from
    a generator seeded with p, up to the budget.  Each candidate's images
    are combined from phi's blocks, with no product in the order, and
    eliminated once with the identity as mirror; the accepted one comes back
    as (beta, gamma, mirror)."""
    rng = random.Random(0xBE7A + p)

    def candidates():
        for bits in itertools.product(range(2), repeat=r):
            if any(bits):
                yield list(bits)
        while True:
            yield [rng.randrange(p) for _ in range(r)]

    for coef in itertools.islice(candidates(), budget):
        X = [[1 if i == j else 0 for j in range(r)] for i in range(r)]
        _patterned, pivots = pattern_reduce_fp(_candidate_images(phi, p, coef), p, mirror=X)
        if len(pivots) == r:
            return coef[:m], coef[m:], X
    return None


def generate_pmax(
    tt: TimesTable, p: int
) -> PMaxShortCertificate | PMaxLongCertificate | KernelWitness:
    """A p-maximality certificate for the order behind tt, or a kernel witness
    proving that the order is not p-maximal.

    After the kernel basis, the action matrix phi decides.  Each candidate
    witness's images are combinations of phi's blocks, so their rank is at
    most phi's: when phi has rank < r no witness exists, and phi's left
    kernel is the kernel witness, with no search.  Otherwise the short form
    is preferred whenever a witness turns up within WITNESS_BUDGET
    candidates, and the long form, which then exists, reuses phi's
    elimination."""
    r = tt.n
    V, _nu, W, u_rows = frobenius_kernel_basis(tt, p, minimal_frobenius_exponent(p, r))
    m = len(V)
    common = dict(
        V=tuple(tuple(row) for row in V),
        W=tuple(tuple(row) for row in W),
        U=tuple(tuple(row) for row in u_rows),
    )
    if m == 0:
        return PMaxShortCertificate(**common, X=(), beta=(), gamma=(), a=(), c=())

    phi = _action_matrix(tt, p, V, W, _vw_decomposer(V, W, p))
    phi_p = [[x % p for x in row] for row in phi]
    X = [[1 if i == j else 0 for j in range(r)] for i in range(r)]
    _patterned, pivots = pattern_reduce_fp(phi_p, p, mirror=X)
    if len(pivots) < r:
        kernel, _free = nullspace_fp(transpose(phi_p), p)
        return KernelWitness(p, tuple(kernel[0]))

    witness = _search_witness(r, m, p, phi_p, WITNESS_BUDGET)
    if witness is not None:
        # decomposition is Z-linear, so row i of [a | c] is row i of the
        # mirror times the witness's integer images
        beta, gamma, w_X = witness
        ac = _mat_mul(w_X, _candidate_images(phi, ZZ, beta + gamma))
        return PMaxShortCertificate(
            **common,
            X=tuple(tuple(row) for row in w_X),
            beta=tuple(beta), gamma=tuple(gamma),
            a=tuple(tuple(row[:m]) for row in ac), c=tuple(tuple(row[m:]) for row in ac),
        )

    # long form: X is the mirror of phi's elimination, and block u of row i
    # of X.phi is x_i * input_u over {V, pW}
    blocks = [[row[u:u + r] for u in range(0, r * r, r)] for row in _mat_mul(X, phi)]
    return PMaxLongCertificate(
        **common,
        X=tuple(tuple(row) for row in X),
        a=tuple(tuple(tuple(b[:m]) for b in bl[:m]) for bl in blocks),
        c=tuple(tuple(tuple(b[m:]) for b in bl[:m]) for bl in blocks),
        d=tuple(tuple(tuple(b[:m]) for b in bl[m:]) for bl in blocks),
        e=tuple(tuple(tuple(b[m:]) for b in bl[m:]) for bl in blocks),
    )
