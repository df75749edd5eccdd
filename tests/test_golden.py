"""Golden certificate files: one per registered kind, each of which must
parse and re-serialize to exactly the bytes on disk, and which the
generators in `golden/regenerate.py` must write again byte for byte.
The `golden/previous*/` directories keep files as older generators wrote
them; the verifier must still accept them.

Runs under pytest, or on its own where pytest is not installed:

    PYTHONPATH=src python tests/test_golden.py
"""

import contextlib
import importlib.util
import io
import json
from pathlib import Path

from ringcert import certio, cli
from reference import class_mismatch, reseal

GOLDEN = Path(__file__).parent / "golden"


# `ringcert verify` exit codes: 0 accept, 2 for a kind with no standalone
# meaning (checked only inside a bundle) or an input file
VERIFY_EXIT = {
    "bundle": 0,
    "degree-analysis": 0,
    "lpfw": 0,
    "pratt": 0,
    "rabin-ff": 0,
    "reducible-ff": 0,
    "reducible-int": 0,
    "dedekind": 2,
    "input/order-basis": 2,
    "input/polynomial": 2,
    "order": 2,
    "pmax-long": 2,
    "pmax-short": 2,
}


def _path(kind: str) -> Path:
    return GOLDEN / (kind.replace("/", "-") + ".json")


def _regenerate():
    spec = importlib.util.spec_from_file_location("regenerate", GOLDEN / "regenerate.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_one_golden_file_per_kind():
    expected = {_path(kind).name for kind in certio._REGISTRY}
    present = {p.name for p in GOLDEN.glob("*.json")}
    assert present == expected, (sorted(expected - present), sorted(present - expected))


def test_golden_files_round_trip():
    for kind in certio._REGISTRY:
        data = _path(kind).read_bytes()
        obj = certio.parse(data)
        assert certio.kind_of(obj) == kind
        assert certio.serialize(obj) == data, kind


def test_generators_reproduce_golden_files():
    objects = _regenerate().golden_objects()
    assert set(objects) == set(certio._REGISTRY)
    for kind, obj in objects.items():
        data = _path(kind).read_bytes()
        assert certio.serialize(obj) == data, kind
        # records compare as tuples, so == alone would miss a wrong class
        back = certio.parse(data)
        assert back == obj, kind
        assert class_mismatch(back, obj) is None, (kind, class_mismatch(back, obj))


def _verify_exit(path: Path) -> int:
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
        return cli.main(["verify", str(path)])


def test_golden_files_get_their_verdicts():
    assert set(VERIFY_EXIT) == set(certio._REGISTRY)
    for kind, code in VERIFY_EXIT.items():
        assert _verify_exit(_path(kind)) == code, kind


def test_previous_golden_files_still_verify():
    directories = sorted(d for d in GOLDEN.glob("previous*") if d.is_dir())
    assert directories
    for directory in directories:
        assert sorted(directory.glob("*.json")), directory.name
    for path in sorted(GOLDEN.glob("previous*/*.json")):
        kind = certio.kind_of(certio.parse(path.read_bytes()))
        assert path.name == _path(kind).name
        assert path.read_bytes() != _path(kind).read_bytes(), path.name
        assert _verify_exit(path) == VERIFY_EXIT[kind], path.name


# A power-basis bundle as generators wrote it before the power basis lost
# its product table: X^5 - X - 1, seed 0, no discriminant claim.
PREVIOUS_POWER_BASIS = GOLDEN / "previous-power-basis" / "bundle.json"


def test_previous_power_basis_bundle_still_verifies():
    assert certio.parse(PREVIOUS_POWER_BASIS.read_bytes()).order.products
    assert _verify_exit(PREVIOUS_POWER_BASIS) == 0
    assert _disc(PREVIOUS_POWER_BASIS) == "2869\n"


def _disc(path: Path) -> str:
    """What `ringcert disc` prints for the bundle at path, which it accepts."""
    out = io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
        assert cli.main(["disc", str(path)]) == 0
    return out.getvalue()


def _move_to_free_primes(payload: dict, primes: set[int]) -> None:
    """Move an earlier bundle payload's entries at `primes` to its free
    primes, without their maximality certificates, in place."""
    moved = [entry for entry in payload["primes"] if int(entry["p"]) in primes]
    assert len(moved) == len(primes)
    payload["primes"] = [entry for entry in payload["primes"] if entry not in moved]
    payload["free_primes"] = [{key: value for key, value in entry.items() if key != "cert"}
                              for entry in moved]


def test_power_basis_bundle_is_previous_without_products():
    # disc(O) = 2869 = 19 * 151 is squarefree, so neither prime keeps its
    # Dedekind entry
    from ringcert.pipeline import generate_bundle

    env = json.loads(PREVIOUS_POWER_BASIS.read_bytes())
    _drop_fields("bundle", env["payload"])
    _one_prime_rule("bundle", env["payload"])
    _drop_derived_facts("bundle", env["payload"])
    _empty_bezout_pair("bundle", env["payload"])
    _drop_order_copies("bundle", env["payload"])
    env["payload"]["order"]["products"] = []
    _move_to_free_primes(env["payload"], {19, 151})
    T = [int(c) for c in env["payload"]["T"]]
    n = len(T) - 1
    new = generate_bundle(T, 1, [[int(i == j) for i in range(n)] for j in range(n)])
    assert certio.serialize(new) == reseal(env["kind"], env["payload"])


# The golden bundle as generators wrote it while every prime of N carried a
# maximality certificate: X^3 - 211X - 122, disc(O) = 9293464 = 2^3 * 1161683
PREVIOUS_EVERY_PRIME_CERTIFIED = GOLDEN / "previous-every-prime-certified" / "bundle.json"


def test_every_prime_certified_bundle_is_previous_with_free_primes():
    from ringcert.pipeline import generate_bundle

    env = json.loads(PREVIOUS_EVERY_PRIME_CERTIFIED.read_bytes())
    _one_prime_rule("bundle", env["payload"])
    _drop_derived_facts("bundle", env["payload"])
    _empty_bezout_pair("bundle", env["payload"])
    _drop_order_copies("bundle", env["payload"])
    _move_to_free_primes(env["payload"], {1161683})
    T = [int(c) for c in env["payload"]["T"]]
    new = generate_bundle(T, 2, [[2, 0, 0], [0, 2, 0], [0, 1, -1]], claimed_disc=9293464)
    assert certio.serialize(new) == reseal(env["kind"], env["payload"])


def _walk(kind: str, payload: dict, visit) -> None:
    """Call visit(kind, payload) on a payload and then on every payload
    nested in it, with each one's kind; visit may edit in place."""
    visit(kind, payload)
    nested = []
    if kind == "bundle":
        nested.append(("order", payload["order"]))
        nested.append((payload["irreducibility"]["kind"], payload["irreducibility"]["payload"]))
        nested += [(entry["cert"]["kind"], entry["cert"]["payload"]) for entry in payload["primes"]]
        nested += [("pratt", entry["pratt"])
                   for entry in payload["primes"] + payload.get("free_primes", [])]
    elif kind == "lpfw":
        nested += [("degree-analysis", payload["analysis"]), ("pratt", payload["pratt"])]
    elif kind == "degree-analysis":
        nested += [("rabin-ff", cert) for entry in payload["per_prime"] for cert in entry["certs"]]
    elif kind == "pratt":
        nested += [("pratt", sub) for _q, _e, sub in payload["factors"]]
    for inner_kind, inner in nested:
        if inner is not None:
            _walk(inner_kind, inner, visit)


# Payload keys that earlier generators wrote and the verifier now computes
# from other fields or takes from the enclosing bundle, by the kind of the
# payload that held them
DROPPED_FIELDS = {
    "bundle": ("n_sign",),
    "order": ("n",),
    "dedekind": ("T", "p", "rad_quotient"),
    "pmax-short": ("p", "t", "m", "n"),
    "pmax-long": ("p", "t", "m", "n"),
    "lpfw": ("rho", "s"),
    "rabin-ff": ("s",),
}


def _drop_fields(kind: str, payload: dict) -> None:
    """Delete the dropped keys from an earlier-format payload and the
    payloads nested in it, in place; a KeyError if one is missing."""
    def visit(kind, payload):
        for key in DROPPED_FIELDS.get(kind, ()):
            del payload[key]

    _walk(kind, payload, visit)


# Payload keys that generators wrote until each chain fact was stated once:
# the Rabin chain ends h (the chains' own tops), the factorization of n
# (trial division of n = len(L) - 1) and disc(T) (the verifier's own
# determinant)
STATED_TWICE = {
    "rabin-ff": ("h", "n_factors", "n_factor_pratt"),
    "bundle": ("n_value",),
}


def _one_prime_rule(kind: str, payload: dict) -> None:
    """Turn a payload written before the one primality rule into the
    current format, in place: delete the STATED_TWICE keys, and null every
    Pratt sub-certificate and every lpfw `pratt` whose prime is below 10^6,
    which trial division now proves; a KeyError if a key is missing."""
    def visit(kind, payload):
        for key in STATED_TWICE.get(kind, ()):
            del payload[key]
        if kind == "pratt":
            for entry in payload["factors"]:
                if int(entry[0]) < 10**6:
                    entry[2] = None
        elif kind == "lpfw" and int(payload["P"]) < 10**6:
            payload["pratt"] = None

    _walk(kind, payload, visit)


PREVIOUS_ONE_PRIME_RULE = GOLDEN / "previous-one-prime-rule"


def test_golden_files_are_previous_with_each_fact_stated_once():
    # the golden files that changed with the one primality rule are their
    # copies from before it with exactly those keys deleted or nulled, and
    # then the derived facts and the order's copies dropped
    changed = sorted(path.name for path in PREVIOUS_ONE_PRIME_RULE.glob("*.json"))
    assert changed == ["bundle.json", "degree-analysis.json", "lpfw.json", "pratt.json",
                       "rabin-ff.json"]
    for name in changed:
        env = json.loads((PREVIOUS_ONE_PRIME_RULE / name).read_bytes())
        _one_prime_rule(env["kind"], env["payload"])
        _drop_derived_facts(env["kind"], env["payload"])
        _empty_bezout_pair(env["kind"], env["payload"])
        _drop_order_copies(env["kind"], env["payload"])
        assert reseal(env["kind"], env["payload"]) == (GOLDEN / name).read_bytes(), name


# Payload keys that generators wrote until the verifier derived them where
# it checks them: the kernel forms' pivot lists, the order's `one` (B_00
# divides d), the bundle's theta coordinates (back-substituted), each
# listed prime's exponent (divided out of |N|) and each per-prime unit of a
# degree analysis (lc(f) mod p)
DERIVED_FACTS = {
    "order": ("one",),
    "pmax-short": ("nu", "omega", "eta"),
    "pmax-long": ("nu", "omega", "eta"),
    "bundle": ("theta_coords",),
}


def _drop_derived_facts(kind: str, payload: dict) -> None:
    """Delete the DERIVED_FACTS keys, every bundle prime entry's `exponent`
    and every per-prime `unit` from a payload and the payloads nested in
    it, in place; a KeyError if one is missing."""
    def visit(kind, payload):
        for key in DERIVED_FACTS.get(kind, ()):
            del payload[key]
        if kind == "bundle":
            for entry in payload["primes"] + payload.get("free_primes", []):
                del entry["exponent"]
        elif kind == "degree-analysis":
            for entry in payload["per_prime"]:
                del entry["unit"]

    _walk(kind, payload, visit)


PREVIOUS_DERIVED_FACTS = GOLDEN / "previous-derived-facts"


def test_golden_files_are_previous_without_derived_facts():
    changed = sorted(path.name for path in PREVIOUS_DERIVED_FACTS.glob("*.json"))
    assert changed == ["bundle.json", "degree-analysis.json", "lpfw.json", "order.json",
                       "pmax-long.json", "pmax-short.json"]
    for name in changed:
        env = json.loads((PREVIOUS_DERIVED_FACTS / name).read_bytes())
        _drop_derived_facts(env["kind"], env["payload"])
        _empty_bezout_pair(env["kind"], env["payload"])
        _drop_order_copies(env["kind"], env["payload"])
        assert reseal(env["kind"], env["payload"]) == (GOLDEN / name).read_bytes(), name


def _drop_order_copies(kind: str, payload: dict) -> None:
    """Delete what generators wrote until the verifier derived the times
    table, from a payload and the payloads nested in it, in place: the
    order's copy of T, which the verifier takes from the bundle, and each
    product's `coords`, which it back-substitutes from the witness; a
    KeyError if one is missing."""
    def visit(kind, payload):
        if kind == "order":
            del payload["T"]
            for row in payload["products"]:
                for entry in row:
                    del entry["coords"]

    _walk(kind, payload, visit)


PREVIOUS_ORDER_WITNESS = GOLDEN / "previous-order-witness"


def test_golden_files_are_previous_without_order_copies():
    changed = sorted(path.name for path in PREVIOUS_ORDER_WITNESS.glob("*.json"))
    assert changed == ["bundle.json", "order.json"]
    for name in changed:
        env = json.loads((PREVIOUS_ORDER_WITNESS / name).read_bytes())
        _drop_order_copies(env["kind"], env["payload"])
        _empty_bezout_pair(env["kind"], env["payload"])
        assert reseal(env["kind"], env["payload"]) == (GOLDEN / name).read_bytes(), name


def _empty_bezout_pair(kind: str, payload: dict) -> None:
    """Empty a bundle payload's Bezout pair, which generators wrote until
    N = disc(T) != 0 was the separability check, in place; a KeyError if a
    side is missing."""
    if kind == "bundle":
        for key in ("bezout_a", "bezout_b"):
            assert payload[key]
            payload[key] = []


# The golden bundle as generators wrote it while it stated a*T + b*T' = N
PREVIOUS_BEZOUT_PAIR = GOLDEN / "previous-bezout-pair" / "bundle.json"


def test_golden_bundle_is_previous_with_an_empty_pair():
    assert sorted(path.name for path in PREVIOUS_BEZOUT_PAIR.parent.glob("*.json")) == [
        "bundle.json"]
    env = json.loads(PREVIOUS_BEZOUT_PAIR.read_bytes())
    _empty_bezout_pair(env["kind"], env["payload"])
    assert reseal(env["kind"], env["payload"]) == _path("bundle").read_bytes()
    # its pair is checked, and it proves the same discriminant
    assert _verify_exit(PREVIOUS_BEZOUT_PAIR) == 0
    assert _disc(PREVIOUS_BEZOUT_PAIR) == _disc(_path("bundle")) == "-116936244\n"


PREVIOUS_RECOMPUTED = GOLDEN / "previous-recomputed-fields"


def test_previous_recomputed_fields_are_the_golden_files_without_them():
    # the golden files were regenerated since, for the free primes and the
    # one primality rule: the file without the fields is its copy from
    # before those
    for path in sorted(PREVIOUS_RECOMPUTED.glob("*.json")):
        env = json.loads(path.read_bytes())
        _drop_fields(env["kind"], env["payload"])
        if env["kind"] == "bundle":
            want = PREVIOUS_EVERY_PRIME_CERTIFIED.read_bytes()
        else:
            want = (PREVIOUS_ONE_PRIME_RULE / path.name).read_bytes()
        assert reseal(env["kind"], env["payload"]) == want, path.name


if __name__ == "__main__":
    test_one_golden_file_per_kind()
    test_golden_files_round_trip()
    test_generators_reproduce_golden_files()
    test_golden_files_get_their_verdicts()
    test_previous_golden_files_still_verify()
    test_previous_power_basis_bundle_still_verifies()
    test_power_basis_bundle_is_previous_without_products()
    test_every_prime_certified_bundle_is_previous_with_free_primes()
    test_golden_files_are_previous_with_each_fact_stated_once()
    test_golden_files_are_previous_without_derived_facts()
    test_golden_files_are_previous_without_order_copies()
    test_golden_bundle_is_previous_with_an_empty_pair()
    test_previous_recomputed_fields_are_the_golden_files_without_them()
    print(f"{len(certio._REGISTRY)} golden files round-trip and regenerate")
