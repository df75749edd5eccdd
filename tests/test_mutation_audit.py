"""The golden mutation audit: every integer of every golden certificate,
raised by one, must be refused.

Each mutant is one golden file with one integer leaf bumped and its digest
recomputed (`reference.reseal`), so it parses and reaches the mathematical
checks.  The kinds that `ringcert verify` checks on their own go through
`cli.main`; the kinds that only mean something inside a bundle go through
their module verifiers, on the order and defining polynomial that
`golden/regenerate.py` built them for.  A mutant must be rejected with a
reason path, and nothing may raise.  An accepted mutant is either a
soundness fault or a field the verifier does not need; the only exceptions
are the truth-preserving edits in `ALLOWED`, each with its reason.  A
bumped coefficient of an order's product witness must fail that product's
identity.

The hostile benchmark corpus bumps an empty polynomial to ["1"], so every
empty integer array of every golden file, given that one entry, must be
rejected with a reason path too.

A single bump also breaks the row's own statement, so it cannot show that
the kernel forms' independence checks (i)-(iii) run.  The row edits can:
row k copied over row i, or a row of V times p, keeps every row's statement
true and leaves one row owning no column, and the reason must name that
check and row.
"""

import contextlib
import io
import itertools
import json
import re
from pathlib import Path

from ringcert import certio, cli, maximality
from ringcert.orders import build_order_description, verify_order_builder
from reference import reseal

GOLDEN = Path(__file__).parent / "golden"

# the order and the pmax forms were built over X^3 - 211X - 122 with basis
# {1, a, (a - a^2)/2} at p = 2, the Dedekind entry over X^3 - 2 at p = 3
_CUBIC = ([-122, -211, 0, 1], 2, [[2, 0, 0], [0, 2, 0], [0, 1, -1]])
_TABLE = verify_order_builder(build_order_description(*_CUBIC), _CUBIC[0])[1]
MODULE_VERIFIERS = {
    "order": lambda desc: verify_order_builder(desc, _CUBIC[0])[0],
    "pmax-short": lambda cert: maximality.verify_pmax_short(_TABLE, 2, cert),
    "pmax-long": lambda cert: maximality.verify_pmax_long(_TABLE, 2, cert),
    "dedekind": lambda cert: maximality.verify_dedekind([-2, 0, 0, 1], 3, cert),
}
STANDALONE = ("bundle", "degree-analysis", "lpfw", "pratt", "rabin-ff", "reducible-ff",
              "reducible-int")

REASON_PATH = re.compile(r"[a-z][a-z-]*(/[^\s/]+)+")


def _rabin_base_3_at_p_3(parent: dict, key) -> bool:
    # p = 3 is 10 in base 3 and 11 in base 2: either way h^3 is stated, as
    # h(X^3) or as h^2 * h, and the chain's quotients cover both
    return key == "t" and parent.get("p") == "3" and parent["t"] == "2"


# (reason, test on the payload object holding the bumped leaf and its key)
ALLOWED = [
    ("Rabin t 2 -> 3 at p = 3: bases 2 and 3 both state h^3", _rabin_base_3_at_p_3),
]


def _leaves(node, path=()):
    """(path, holder, key) for every integer leaf below node."""
    items = node.items() if isinstance(node, dict) else enumerate(node)
    for key, value in items:
        if isinstance(value, (dict, list)):
            yield from _leaves(value, path + (key,))
        elif isinstance(value, str) and certio._INT_RE.match(value):
            yield path + (key,), node, key


def _mutants(kind: str):
    """(path, allowed reason or None, resealed bytes) for every integer leaf
    of the golden file of kind."""
    env = json.loads((GOLDEN / f"{kind}.json").read_bytes())
    for path, holder, key in list(_leaves(env["payload"])):
        allowed = next((why for why, test in ALLOWED if isinstance(holder, dict)
                        and test(holder, key)), None)
        old = holder[key]
        holder[key] = str(int(old) + 1)
        yield path, allowed, reseal(kind, env["payload"])
        holder[key] = old


def _witness_reason(kind: str, path) -> str | None:
    """The reason path a bumped product-witness coefficient at path must
    get: the identity of that product, w_i * w_j with j = i + k.  None for
    every other leaf."""
    if kind == "bundle" and path[:1] == ("order",):
        prefix, path = "bundle/", path[1:]
    elif kind == "order":
        prefix = ""
    else:
        return None
    if path[:1] != ("products",):
        return None
    i, k = path[1:3]
    return f"{prefix}order/identity/i={i}/j={i + k}"


def _cli_verdict(data: bytes, tmp_path: Path) -> dict:
    path = tmp_path / "mutant.json"
    path.write_bytes(data)
    out = io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
        code = cli.main(["verify", str(path), "--json-verdict"])
    verdict = json.loads(out.getvalue())
    assert code == (0 if verdict["accepted"] else 1)
    return verdict


def _verdict(kind: str, data: bytes, tmp_path: Path) -> tuple[bool, str | None]:
    """(accepted, reason) for a mutant of the golden file of kind."""
    if kind in MODULE_VERIFIERS:
        v = MODULE_VERIFIERS[kind](certio.parse(data))
        return v.accepted, v.reason
    verdict = _cli_verdict(data, tmp_path)
    return verdict["accepted"], verdict["reason"]


def test_every_bumped_integer_is_rejected(tmp_path):
    rejected, allowed, wrong = 0, [], []
    for kind in (*STANDALONE, *MODULE_VERIFIERS):
        for path, allow, data in _mutants(kind):
            accepted, reason = _verdict(kind, data, tmp_path)
            if allow is not None:
                allowed.append((kind, path))
            elif accepted or not REASON_PATH.fullmatch(reason):
                wrong.append((kind, path, reason))
            elif _witness_reason(kind, path) not in (None, reason):
                wrong.append((kind, path, reason))
            else:
                rejected += 1
    assert wrong == []
    # the allow-list matches exactly the base-2 Rabin certificates at p = 3:
    # the standalone file's, and those in the degree analyses of X^2 + 1
    # and of X^4 + 1 (inside the lpfw file)
    certs = ("per_prime", 0, "certs")
    assert allowed == [
        ("degree-analysis", (*certs, 0, "t")),
        ("lpfw", ("analysis", *certs, 0, "t")),
        ("lpfw", ("analysis", *certs, 1, "t")),
        ("rabin-ff", ("t",)),
    ]
    # 369 standalone leaves before the golden bundle wrote its Bezout pair
    # empty, which took its five leaves
    assert rejected == 364 + 114 - len(allowed)


def _empty_arrays(node, path=()):
    """(path, holder, key) for every empty array below node."""
    items = node.items() if isinstance(node, dict) else enumerate(node)
    for key, value in items:
        if value == []:
            yield path + (key,), node, key
        elif isinstance(value, (dict, list)):
            yield from _empty_arrays(value, path + (key,))


def test_every_filled_empty_array_is_rejected(tmp_path):
    # the hostile corpus bumps an empty polynomial to ["1"]: every empty
    # array of every golden file that still parses with that entry, so an
    # integer array, must be rejected with a reason path
    rejected, wrong = [], []
    for kind in (*STANDALONE, *MODULE_VERIFIERS):
        payload = json.loads((GOLDEN / f"{kind}.json").read_bytes())["payload"]
        for path, holder, key in list(_empty_arrays(payload)):
            holder[key] = ["1"]
            data = reseal(kind, payload)
            holder[key] = []
            try:
                certio.parse(data)
            except certio.CertFormatError:
                continue
            accepted, reason = _verdict(kind, data, tmp_path)
            if accepted or not REASON_PATH.fullmatch(reason):
                wrong.append((kind, path, reason))
            else:
                rejected.append((kind, path, reason))
    assert wrong == []
    # none needs the allow-list.  The bundle's 13 (its Bezout pair, theta
    # witness, four product witnesses, four unused Rabin Bezout rows and
    # two empty Dedekind arrays), 2 and 4 unused Rabin rows in the degree
    # analysis and lpfw files, 9 in rabin-ff (eight unused rows and a chain
    # quotient), the order's 4 product witnesses and the Dedekind file's 2
    assert [kind for kind, _path, _reason in rejected] == (
        ["bundle"] * 13 + ["degree-analysis"] * 2 + ["lpfw"] * 4 + ["rabin-ff"] * 9
        + ["order"] * 4 + ["dedekind"] * 2)
    assert [(path, reason) for kind, path, reason in rejected if kind == "bundle"][:2] == [
        (("bezout_a",), "bundle/separability"), (("bezout_b",), "bundle/separability")]


# the rows that state one fact each, copied together: V's rows (check i);
# U's with W's (check ii); X's with its claimed coordinates, a and c, and
# for the long form d and e too (check iii)
ROW_GROUPS = (("i", ("V",)), ("ii", ("U", "W")), ("iii", ("X", "a", "c", "d", "e")))


def _row_edits(kind: str):
    """(check, row, resealed bytes) for the golden kernel certificate of
    kind: every copy of row k over row i != k of a row group, which makes
    row min(i, k) own no column, and every row of V times p = 2, which is
    zero mod p and so owns none; each keeps that row's statement true."""
    payload = json.loads((GOLDEN / f"{kind}.json").read_bytes())["payload"]

    def edited(fields, i, row_of):
        copy = json.loads(json.dumps(payload))
        for f in fields:
            copy[f][i] = row_of(copy[f])
        return reseal(kind, copy)

    for check, fields in ROW_GROUPS:
        fields = [f for f in fields if f in payload]
        for i, k in itertools.permutations(range(len(payload[fields[0]])), 2):
            yield check, min(i, k), edited(fields, i, lambda rows: rows[k])
    for i in range(len(payload["V"])):
        yield "i", i, edited(["V"], i, lambda rows: [str(2 * int(x)) for x in rows[i]])


def test_row_edits_fail_their_independence_check():
    # the edited row owns no column and every other row keeps its own, so
    # that row is the reason; a skipped check would let the edit through to
    # a later check or to acceptance
    checks = []
    for kind in ("pmax-short", "pmax-long"):
        for check, i, data in _row_edits(kind):
            v = MODULE_VERIFIERS[kind](certio.parse(data))
            assert v.reason == f"{kind}/check-{check}/i={i}", (kind, check, i, v)
            checks.append(check)
    # the golden forms have one kernel row, so V has no pair of rows to
    # copy and is only scaled; two complement rows give two copies per
    # form, three rows of X six
    assert checks == (["ii"] * 2 + ["iii"] * 6 + ["i"]) * 2
