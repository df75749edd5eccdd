"""The `hostile` corpus: certificate files that a correct verifier refuses.

Built from honest certificates during set-up, deterministically from the
corpus seed in the manifest.  Works on the canonical JSON envelope of
docs/FORMAT.md directly and re-seals each changed payload with a fresh
digest, so every tampered file passes the integrity check and reaches the
mathematical checks.

Left out on purpose: files with huge attacker-chosen exponents (``p**exponent``
in bundle prime entries, ``q**e`` in Pratt factors).  Verifying them today
allocates without bound; the forged base-p Rabin certificate is the bounded
stand-in for that defect.
"""

from __future__ import annotations

import hashlib
import itertools
import json
import random

SCHEMA_VERSION = "1"
DEEP_NESTING = 100_000
LONG_INT_DIGITS = 4301  # one past CPython's default int/str conversion limit


def reseal(kind, payload) -> bytes:
    """Canonical envelope bytes for a payload, with a matching digest."""
    inner = {"kind": kind, "payload": payload, "schema_version": SCHEMA_VERSION}
    digest = hashlib.sha256(_canonical(inner)).hexdigest()
    return _canonical({**inner, "integrity": f"sha256:{digest}"}) + b"\n"


def _canonical(doc) -> bytes:
    return json.dumps(doc, sort_keys=True, separators=(",", ":")).encode("ascii")


def _at(doc, path):
    for key in path:
        doc = doc[key]
    return doc


def _bump(poly, rng):
    """Add 1 to the first or the last coefficient of a polynomial in place
    (the zero polynomial becomes 1).  Never makes a trailing zero."""
    if not poly:
        poly.append("1")
        return
    idx = rng.choice((0, len(poly) - 1))
    if idx == len(poly) - 1 and poly[idx] == "-1":
        idx = 0
    poly[idx] = str(int(poly[idx]) + 1)


def _nonempty_polys(doc, path, depth):
    """Paths below `path` to nonempty polynomials `depth` list levels down."""
    node = _at(doc, path)
    if depth == 0:
        return [path] if node else []
    return [q for i in range(len(node)) for q in _nonempty_polys(doc, path + (i,), depth - 1)]


def _bundle_targets(payload, rng):
    """One tamper target per identity witness of a bundle, as
    (label, path to a polynomial or matrix row)."""
    targets = [("theta_witness", ("theta_witness",)),
               ("bezout_a", ("bezout_a",)),
               ("bezout_b", ("bezout_b",))]
    witnesses = [p + ("witness",) for p in _entries(payload, ("order", "products"))
                 if _at(payload, p + ("witness",))]
    targets.append(("mul_witness", rng.choice(witnesses)))
    irr = ("irreducibility", "payload")
    if payload["irreducibility"]["kind"] == "degree-analysis":
        certs = [irr + ("per_prime", i, "certs", j)
                 for i, entry in enumerate(_at(payload, irr)["per_prime"])
                 for j in range(len(entry["certs"]))]
        g_paths = [q for c in certs for q in _nonempty_polys(payload, c + ("g",), 2)]
        hp_paths = [q for c in certs for q in _nonempty_polys(payload, c + ("hprime",), 2)]
        targets.append(("rabin_g", rng.choice(g_paths)))
        targets.append(("rabin_hprime", rng.choice(hp_paths)))
    for i, entry in enumerate(payload["primes"]):
        cert = ("primes", i, "cert", "payload")
        if entry["cert"]["kind"] == "dedekind":
            fields = [f for f in ("f", "rad_power_witness", "sqfree_u") if _at(payload, cert + (f,))]
            field = rng.choice(fields)
            targets.append((f"dedekind_{field}/p={entry['p']}", cert + (field,)))
        else:
            rows = _nonempty_polys(payload, cert + ("U",), 1)
            if _at(payload, cert + ("beta",)):
                rows.append(cert + ("beta",))
            targets.append((f"kernel/p={entry['p']}", rng.choice(rows)))
    return targets


def _entries(payload, path):
    rows = _at(payload, path)
    return [path + (i, k) for i, row in enumerate(rows) for k in range(len(row))]


def _tampered(name, data, rng):
    env = json.loads(data)
    payload = env["payload"]
    if env["kind"] == "bundle":
        targets = _bundle_targets(payload, rng)
    else:
        # the last chain step, so that the verifier does all the other work
        # before the failing check and the file's cost does not vary by seed
        last = int(payload["n"]) - 1
        targets = [("rabin_g", ("g", last, len(payload["g"][last]) - 1)),
                   ("rabin_hprime", ("hprime", last, 1))]
    out = []
    for label, path in targets:
        copy = json.loads(data)["payload"]
        _bump(_at(copy, path), rng)
        out.append((f"tampered/{name}/{label}", reseal(env["kind"], copy), "reject"))
    return out


def _malformed(data, rng):
    env = json.loads(data)
    kind, payload = env["kind"], env["payload"]
    out = []
    for k in range(3):
        cut = rng.randrange(1, len(data) - 1)
        out.append((f"malformed/truncated-{k}", data[:cut], "malformed"))
    value = payload["T"][0]
    digits = value.lstrip("-")
    sign = "-" if value.startswith("-") else ""
    for label, bad in (("leading-zero", f"{sign}0{digits}"), ("minus-zero", "-0"),
                       ("plus-sign", f"+{digits}"), ("exponent", f"{sign}{digits}e0")):
        copy = json.loads(data)["payload"]
        copy["T"][0] = bad
        out.append((f"malformed/noncanonical-{label}", reseal(kind, copy), "malformed"))
    digest_at = data.index(b"sha256:") + 7 + rng.randrange(64)
    flipped = b"0" if data[digest_at:digest_at + 1] != b"0" else b"1"
    out.append(("malformed/bad-digest", data[:digest_at] + flipped + data[digest_at + 1:],
                "malformed"))
    copy = json.loads(data)["payload"]
    copy["T"][0] = str(rng.randrange(1, 10)) + "".join(
        str(rng.randrange(10)) for _ in range(LONG_INT_DIGITS - 1))
    out.append(("malformed/int-4301-digits", reseal(kind, copy), "malformed"))
    nested = "[" * DEEP_NESTING + "]" * DEEP_NESTING
    inner = f'{{"kind":"{kind}","payload":{nested},"schema_version":"{SCHEMA_VERSION}"}}'
    digest = hashlib.sha256(inner.encode()).hexdigest()
    deep = (f'{{"integrity":"sha256:{digest}","kind":"{kind}","payload":{nested},'
            f'"schema_version":"{SCHEMA_VERSION}"}}\n').encode()
    out.append(("malformed/deep-nesting", deep, "malformed"))
    return out


def _forged_base_p(data, rng):
    """t = p: h^p is expanded without reduction at every step; corrupt the
    quotient of the last step so the verifier does all of that work first."""
    env = json.loads(data)
    payload = env["payload"]
    last = int(payload["n"]) - 1
    _bump(payload["g"][last][0], rng)
    return ("forged/rabin-base-p", reseal(env["kind"], payload), "reject")


# -- X^2 + 1 over GF(15) ------------------------------------------------------
# Plain coefficient-list arithmetic over Z/m, independent of ringcert.

def _trim(a):
    while a and a[-1] == 0:
        a.pop()
    return a


def _padd(a, b, m, sign=1):
    n = max(len(a), len(b))
    a, b = a + [0] * (n - len(a)), b + [0] * (n - len(b))
    return _trim([(x + sign * y) % m for x, y in zip(a, b)])


def _pmul(a, b, m):
    if not a or not b:
        return []
    out = [0] * (len(a) + len(b) - 1)
    for i, x in enumerate(a):
        for j, y in enumerate(b):
            out[i + j] = (out[i + j] + x * y) % m
    return _trim(out)


def _ppow(a, e, m):
    out = [1]
    for _ in range(e):
        out = _pmul(out, a, m)
    return out


def _pdivmod_monic(a, f, m):
    a = [x % m for x in a]
    q = [0] * max(len(a) - len(f) + 1, 0)
    while len(a) >= len(f):
        c, k = a[-1], len(a) - len(f)
        q[k] = c
        for i, y in enumerate(f):
            a[k + i] = (a[k + i] - c * y) % m
        _trim(a)
    return _trim(q), a


def composite_modulus_rabin(m, f):
    """A base-2 Rabin certificate payload for a monic quadratic f over Z/m.

    Every identity the verifier re-multiplies holds over Z/m, but Z/m is no
    field when m is composite, so the certified statement is false."""
    if len(f) != 3 or f[-1] != 1:
        raise ValueError("built for monic quadratics only")
    n, x = 2, [0, 1]
    digits = [int(c) for c in reversed(bin(m)[2:])]
    s = len(digits) - 1
    h = [x, _pdivmod_monic(_ppow(x, m, m), f, m)[1], x]
    g_rows, hp_rows = [], []
    for i in range(n):
        def step(j):
            return _pmul(_ppow(hp[j + 1], 2, m), _ppow(h[i], digits[j], m), m)
        hp = [None] * s + [_ppow(h[i], digits[s], m)]
        for j in range(s - 1, 0, -1):
            hp[j] = _pdivmod_monic(step(j), f, m)[1]
        hp[0] = h[i + 1]
        grow = []
        for j in range(s):
            q, r = _pdivmod_monic(_padd(step(j), hp[j], m, sign=-1), f, m)
            if r:
                raise ValueError("chain step not divisible")
            grow.append(q)
        g_rows.append(grow)
        hp_rows.append(hp)
    # Bezout pair a*f + b*(h_1 - X) = 1 over Z/m, by search over constant a
    # and linear b
    target = _padd(h[1], x, m, sign=-1)
    a, b = next(([u], _trim([v0, v1])) for u, v0, v1 in itertools.product(range(m), repeat=3)
                if _padd(_pmul([u], f, m), _pmul([v0, v1], target, m), m) == [1])

    def ints(poly):
        return [str(c) for c in poly]

    return {
        "p": str(m), "n": str(n), "t": "2", "s": str(s), "L": ints(f),
        "h": [ints(c) for c in h],
        "g": [[ints(c) for c in row] for row in g_rows],
        "hprime": [[ints(c) for c in row] for row in hp_rows],
        "a": [[], ints(a)], "b": [[], ints(b)],
        "n_factors": [["2", "1"]], "n_factor_pratt": [None],
    }


def build(honest, gf15, seed):
    """Corpus items (id, file bytes, expected outcome) from honest files.

    `honest` maps ids to canonical bytes and must hold the three bundles,
    "rabin-base2" and "rabin-base-p"."""
    rng = random.Random(seed)
    items = []
    for name, data in honest.items():
        if name != "rabin-base-p":
            items += _tampered(name, data, rng)
    first_bundle = next(data for data in honest.values() if b'"kind":"bundle"' in data)
    items += _malformed(first_bundle, rng)
    items.append(_forged_base_p(honest["rabin-base-p"], rng))
    payload = composite_modulus_rabin(gf15["p"], gf15["f"])
    items.append(("forged/gf15-x2+1", reseal("rabin-ff", payload), gf15["expect"]))
    return items
