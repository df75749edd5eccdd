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
are the truth-preserving edits in `ALLOWED`, each with its reason.
"""

import contextlib
import io
import json
import re
from pathlib import Path

from ringcert import certio, cli, maximality
from ringcert.orders import build_order_description, times_table_of, verify_order_builder
from reference import reseal

GOLDEN = Path(__file__).parent / "golden"

# the order and the pmax forms were built over X^3 - 211X - 122 with basis
# {1, a, (a - a^2)/2} at p = 2, the Dedekind entry over X^3 - 2 at p = 3
_CUBIC = ([-122, -211, 0, 1], 2, [[2, 0, 0], [0, 2, 0], [0, 1, -1]])
_TABLE = times_table_of(build_order_description(*_CUBIC))
MODULE_VERIFIERS = {
    "order": verify_order_builder,
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


def _cli_verdict(data: bytes, tmp_path: Path) -> dict:
    path = tmp_path / "mutant.json"
    path.write_bytes(data)
    out = io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
        code = cli.main(["verify", str(path), "--json-verdict"])
    verdict = json.loads(out.getvalue())
    assert code == (0 if verdict["accepted"] else 1)
    return verdict


def test_every_bumped_integer_is_rejected(tmp_path):
    rejected, allowed, wrong = 0, [], []
    for kind in (*STANDALONE, *MODULE_VERIFIERS):
        for path, allow, data in _mutants(kind):
            if kind in MODULE_VERIFIERS:
                v = MODULE_VERIFIERS[kind](certio.parse(data))
                accepted, reason = v.accepted, v.reason
            else:
                verdict = _cli_verdict(data, tmp_path)
                accepted, reason = verdict["accepted"], verdict["reason"]
            if allow is not None:
                allowed.append((kind, path))
            elif accepted or not REASON_PATH.fullmatch(reason):
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
    assert rejected == 391 + 136 - len(allowed)
