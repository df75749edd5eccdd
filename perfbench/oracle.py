"""Reference answers for the benchmark workloads, computed with sympy.

Runs as its own process before the measured one, so sympy adds nothing to
the measured set-up time or memory.  It draws the seeded part of a workload,
mixes it with the fixed anchors and writes a manifest: every input together
with the answer ringcert must give for it.

    python3 perfbench/oracle.py --workload bundle --seed 3 --out manifest.json

Answers come from sympy 1.14 only (``round_two``, ``factor_list``,
``Poly(..., modulus=p).is_irreducible``), never from ringcert; ringcert is
imported only to read the discriminants recorded in ``certio.FIXTURES`` for
the self-test.  Answers for the fixed anchors are kept in the ``--cache``
file, because ``round_two`` on 2*zeta_32 alone takes several seconds.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import math
import os
import random
import sys
from pathlib import Path

from sympy import (Poly, Symbol, discriminant, factor_list, isprime, nextprime, primefactors,
                   primerange)
from sympy.polys.numberfields.basis import round_two

X = Symbol("x")
FIXTURE_DIR = Path("src/ringcert/fixtures")

# Polynomial/basis pairs shipped in src/ringcert/fixtures, read from the files
# so that the benchmark follows them rather than a copy.
FIXTURE_NAMES = (
    "quad_x2-x+1", "cubic_x3-3x-10", "cubic_x3-30x-80", "cubic_dedekind",
    "quartic_x4+1", "quintic_x5-x-1", "quintic_x5-2", "quintic_x5-4",
    "quintic_x5-8", "quintic_cos2pi11",
)


class OracleLimit(Exception):
    """sympy itself failed on an input; the caller redraws it."""


def _sympy_poly(coeffs):
    return Poly(list(reversed(coeffs)), X)


def _payload(path):
    return json.loads(Path(path).read_text())["payload"]


def fixture_pair(name):
    poly = _payload(FIXTURE_DIR / f"{name}.poly.json")
    basis = _payload(FIXTURE_DIR / f"{name}.basis.json")
    T = [int(c) for c in poly["coeffs"]]
    columns = [[int(c) for c in col] for col in basis["columns"]]
    return T, int(basis["denominator"]), columns


def power_basis(n):
    return [[1 if i == j else 0 for i in range(n)] for j in range(n)]


def is_irreducible_z(coeffs):
    content, factors = factor_list(_sympy_poly(coeffs))
    return abs(content) == 1 and len(factors) == 1 and factors[0][1] == 1


def maximal_order(T):
    """(d, columns, field discriminant) of sympy's integral basis, in
    ringcert's triangular column layout: columns[j] = d * w_j.

    The answer must pass disc(T) = disc(K) * index^2 with |disc(K)| > 1;
    round_two sometimes returns bases that fail this, and those are treated
    as an oracle limit, not as a reference."""
    try:
        zk, dk = round_two(_sympy_poly(T))
    except Exception as e:  # round_two raises its own ClosureFailure and others
        raise OracleLimit(f"round_two failed on {T}: {type(e).__name__}") from e
    n = len(T) - 1
    mat = zk.matrix.to_Matrix()
    columns = [[int(mat[i, j]) for i in range(n)] for j in range(n)]
    for j, col in enumerate(columns):
        if col[j] == 0 or any(col[i] for i in range(j + 1, n)):
            raise OracleLimit(f"round_two basis for {T} is not triangular")
    d, dk = int(zk.denom), int(dk)
    idx = order_index(d, columns)
    if abs(dk) < 2 or dk * idx * idx != int(discriminant(_sympy_poly(T))):
        raise OracleLimit(f"round_two answer for {T} fails disc(T) = disc(K) * index^2")
    return d, columns, dk


def order_index(d, columns):
    """[O : Z[theta]] for a triangular basis with denominator d."""
    n = len(columns)
    diag = math.prod(abs(columns[j][j]) for j in range(n))
    return abs(d) ** n // diag


def bundle_answer(T, d, columns, cache):
    """What `ringcert gen bundle` followed by `ringcert disc` must report."""
    key = hashlib.sha256(json.dumps([T, d, columns]).encode()).hexdigest()
    if key in cache:
        return cache[key]
    if not is_irreducible_z(T):
        answer = {"expect": "reducible"}
    else:
        sd, scols, dk = maximal_order(T)
        full_index, given = order_index(sd, scols), order_index(d, columns)
        if given == full_index:
            answer = {"expect": "accept", "disc": str(dk)}
        else:
            answer = {"expect": "not-maximal", "primes": primefactors(full_index // given)}
    cache[key] = answer
    return answer


def self_test():
    """sympy must reproduce the discriminants recorded in certio.FIXTURES, and
    its basis, converted to ringcert's layout, must have that discriminant."""
    sys.path.insert(0, "src")
    from ringcert import certio

    for name, fx in certio.FIXTURES.items():
        if fx["disc"] is None:
            continue
        T = list(fx["T"])
        d, columns, dk = maximal_order(T)
        if dk != fx["disc"]:
            raise SystemExit(f"oracle self-test failed on fixture {name}")
        if order_index(fx["d"], fx["columns"]) != order_index(d, columns):
            raise SystemExit(f"oracle self-test: fixture basis of {name} is not maximal")


# ---------------------------------------------------------------------------
# workloads
# ---------------------------------------------------------------------------

# (degree, wanted index) for the seeded trinomials X^n + aX + b: slots with
# Z[theta] maximal and one without, so every seed exercises both answers.
# A not-maximal power basis sends the generator into its kernel-witness
# search, which costs 0.4-2.4 s depending on the coefficients, so there is
# one such slot, at the lowest degree.  Degrees stop at 8: from degree 10
# up, one trinomial costs 0.1-11 s to generate depending on its
# coefficients, so seeds would differ more in work than any bound absorbs.
TRINOMIAL_SLOTS = ((6, "maximal"), (6, "not-maximal"), (7, "maximal"), (8, "maximal"))
TRINOMIAL_RANGE = 12


def bundle_items(rng, cache):
    items = []
    for name in FIXTURE_NAMES:
        T, d, cols = fixture_pair(name)
        items.append({"id": f"fixture/{name}", "T": T, "d": d, "columns": cols})
    for n in (12, 16, 20):
        T = [-1, -1] + [0] * (n - 2) + [1]
        items.append({"id": f"anchor/x{n}-x-1", "T": T, "d": 1, "columns": power_basis(n)})
    for p in (19, 29):
        items.append({"id": f"anchor/phi{p}", "T": [1] * p, "d": 1, "columns": power_basis(p - 1)})
    for m in (16, 32):
        # theta = 2*zeta_m, basis {theta^k / 2^k}: columns[k] = 2^(n-1-k) theta^k
        n = m // 2
        T = [2**n] + [0] * (n - 1) + [1]
        cols = [[0] * k + [2 ** (n - 1 - k)] + [0] * (n - 1 - k) for k in range(n)]
        items.append({"id": f"anchor/2zeta{m}", "T": T, "d": 2 ** (n - 1), "columns": cols})
    items.append({"id": "anchor/x8+1", "T": [1] + [0] * 7 + [1], "d": 1, "columns": power_basis(8)})
    items.append({"id": "negative/power-x3-3x-10", "T": [-10, -3, 0, 1], "d": 1, "columns": power_basis(3)})
    items.append({"id": "negative/power-x5-8", "T": [-8, 0, 0, 0, 0, 1], "d": 1, "columns": power_basis(5)})
    # (X^2 + 1)(X^2 + 2): reducible with no rational root
    items.append({"id": "negative/reducible", "T": [2, 0, 3, 0, 1], "d": 1, "columns": power_basis(4)})
    for item in items:
        item.update(bundle_answer(item["T"], item["d"], item["columns"], cache))

    for slot, (n, want) in enumerate(TRINOMIAL_SLOTS):
        while True:
            a = rng.randint(-TRINOMIAL_RANGE, TRINOMIAL_RANGE)
            b = rng.randint(-TRINOMIAL_RANGE, TRINOMIAL_RANGE)
            if a == 0 or b == 0:
                continue
            T = [b, a] + [0] * (n - 2) + [1]
            if not is_irreducible_z(T):
                continue
            try:
                d, cols, dk = maximal_order(T)
                power = bundle_answer(T, 1, power_basis(n), {})
            except OracleLimit:
                continue
            if (power["expect"] == "accept") == (want == "maximal"):
                break
        tag = f"seeded/t{slot}-x{n}{a:+d}x{b:+d}"
        sympy_item = {"id": f"{tag}/sympy-basis", "T": T, "d": d, "columns": cols,
                      "expect": "accept", "disc": str(dk)}
        power_item = {"id": f"{tag}/power-basis", "T": T, "d": 1, "columns": power_basis(n)}
        power_item.update(power)
        items += [sympy_item, power_item]
    return {"gen": items}


def _random_irreducible_z(rng, degree, coeff, monic):
    while True:
        f = [rng.randint(-coeff, coeff) for _ in range(degree)]
        f.append(1 if monic else rng.randint(1, coeff))
        if f[0] == 0 or math.gcd(*f) != 1:
            continue
        if is_irreducible_z(f):
            return f


def _subset_sums(degrees):
    sums = {0}
    for d in degrees:
        sums |= {s + d for s in sums}
    return sums


def degree_analysis(f, primes=12, prime_bound=200):
    """[(p, factor degrees of f mod p)] for the primes a degree analysis of f
    uses: the first `primes` primes below `prime_bound` not dividing lc(f),
    in order, up to the first at which the degrees leave no room for a
    proper factor over Z.  None when they never do.  ringcert's generator
    takes the primes in the same order and stops at the same one."""
    n = len(f) - 1
    possible = set(range(1, n))
    used = []
    for p in _good_primes(f, primes, prime_bound):
        _lc, factors = Poly(list(reversed(f)), X, modulus=p).factor_list()
        degrees = [g.degree() for g, mult in factors for _ in range(mult)]
        used.append((p, degrees))
        possible &= _subset_sums(degrees)
        if not possible:
            return used
    return None


def rabin_cost(p, m):
    """Model of the time in microseconds to verify a Rabin certificate for a
    factor of degree m over GF(p), fitted to timings on a 2-vCPU Xeon VM for
    p <= 31 and m = 6, 12 and 20.  ringcert uses base t = p when p <= 5 and
    m >= 8 (cost grows with p^2), else base 2 (one squaring per bit of p
    and one more product per one bit)."""
    if p <= 5 and m >= 8:
        return 0.1 * p * p * m**3
    return (0.35 * (p.bit_length() - 1) + 0.45 * (bin(p).count("1") - 1)) * m**3


def analysis_cost(used):
    """Modelled time to verify a degree analysis: `rabin_cost` summed over the
    factors modulo each prime it uses.  On three degree-32 draws whose
    measured verify times ranged over a factor of 3, it came within 30% of
    each."""
    return sum(rabin_cost(p, m) for p, degrees in used for m in degrees)


def _good_primes(f, count, bound):
    return [p for p in primerange(2, bound) if f[-1] % p][:count]


def _random_irreducible_fp(rng, p, n):
    while True:
        f = [rng.randrange(p) for _ in range(n)] + [1]
        if Poly(list(reversed(f)), X, modulus=p).is_irreducible:
            return f


def _prime_near(rng, bits):
    """A random prime of `bits` bits, (bits + 1) // 2 of them ones: base-2
    certificates do one product per one bit of p, so this keeps their cost
    the same from seed to seed."""
    while True:
        p = int(nextprime(rng.randrange(2 ** (bits - 1), 2**bits)))
        if p < 2**bits and bin(p).count("1") == (bits + 1) // 2:
            return p


# (bits of p, degree) for standalone GF(p) certificates
FF_SIZES = ((20, 16), (31, 16), (61, 12), (89, 8))
# degree of each seeded Z-polynomial -> its target `analysis_cost`, about
# the median over 60 random draws of that degree; a draw must come within
# Z_COST_TOLERANCE of it
Z_COST_TARGETS = {8: 1_200, 12: 3_800, 16: 8_000, 24: 32_000, 32: 57_000}
Z_COST_TOLERANCE = 0.2


def irred_items(rng):
    items = []
    for n, target in Z_COST_TARGETS.items():
        # drawn until degree analysis settles it at about the target cost, so
        # the seeded part stays on one route and costs about the same from
        # seed to seed
        while True:
            f = _random_irreducible_z(rng, n, 9, monic=False)
            used = degree_analysis(f)
            if used and abs(analysis_cost(used) / target - 1) <= Z_COST_TOLERANCE:
                break
        items.append({"id": f"seeded/z-deg{n}", "kind": "int", "f": f, "expect": "irreducible"})
    for n in (8, 16):
        f = [1] + [0] * (n - 1) + [1]
        assert is_irreducible_z(f)
        items.append({"id": f"anchor/x{n}+1", "kind": "int", "f": f, "expect": "irreducible"})
    g = _random_irreducible_z(rng, 3, 5, monic=True)
    h = _random_irreducible_z(rng, 4, 5, monic=True)
    product = Poly(list(reversed(g)), X) * Poly(list(reversed(h)), X)
    f = [int(c) for c in reversed(product.all_coeffs())]
    items.append({"id": "seeded/product-g3-h4", "kind": "int", "f": f, "expect": "reducible"})
    for bits, n in FF_SIZES:
        p = _prime_near(rng, bits)
        f = _random_irreducible_fp(rng, p, n)
        items.append({"id": f"seeded/gf-{bits}bit-n{n}", "kind": "ff", "p": p, "f": f,
                      "expect": "irreducible"})
    return {"gen": items}


HOSTILE_BUNDLES = ("cubic_x3-30x-80", "quintic_x5-8", "cubic_dedekind")
# one prime: the forged and honest t = p certificates cost about p^2
FORGED_BASE_P = 503


def hostile_items(rng):
    gen = []
    for name in HOSTILE_BUNDLES:
        T, d, cols = fixture_pair(name)
        gen.append({"id": f"honest/{name}", "kind": "bundle", "T": T, "d": d, "columns": cols,
                    "expect": "accept"})
    p = _prime_near(rng, 11)  # same chain length and products for every seed
    gen.append({"id": "honest/rabin-base2", "kind": "ff", "p": p, "t": 2,
                "f": _random_irreducible_fp(rng, p, 6), "expect": "irreducible"})
    p = FORGED_BASE_P
    assert isprime(p)
    gen.append({"id": "honest/rabin-base-p", "kind": "ff", "p": p, "t": p,
                "f": _random_irreducible_fp(rng, p, 4), "expect": "irreducible"})
    # X^2 + 1 "over GF(15)": 15 is not prime, so the statement is false
    assert not isprime(15)
    return {"gen": gen, "gf15": {"p": 15, "f": [1, 0, 1], "expect": "reject"},
            "corpus_seed": rng.randrange(2**32)}


def build(workload, seed, cache):
    rng = random.Random(f"{workload}:{seed}")
    if workload == "bundle":
        body = bundle_items(rng, cache)
    elif workload == "irred":
        body = irred_items(rng)
    elif workload == "hostile":
        body = hostile_items(rng)
    else:
        raise SystemExit(f"unknown workload {workload!r}")
    return {"workload": workload, "seed": seed, **body}


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--out", required=True)
    ap.add_argument("--cache", help="JSON file caching answers for the fixed anchors")
    args = ap.parse_args(argv)
    cache = {}
    if args.cache and Path(args.cache).is_file():
        cache = json.loads(Path(args.cache).read_text())
    self_test()
    manifest = build(args.workload, args.seed, cache)
    Path(args.out).write_text(json.dumps(manifest, sort_keys=True))
    if args.cache:
        tmp = Path(args.cache).with_suffix(f".{os.getpid()}.tmp")
        tmp.write_text(json.dumps(cache, sort_keys=True))
        tmp.replace(args.cache)
    return 0


if __name__ == "__main__":
    sys.exit(main())
