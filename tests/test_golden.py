"""Golden certificate files: one per registered kind, each of which must
parse and re-serialize to exactly the bytes on disk, and which the
generators in `golden/regenerate.py` must write again byte for byte.
The `golden/previous*/` directories keep files as older generators wrote
them; the verifier must still accept them.

Runs under pytest, or on its own where pytest is not installed:

    PYTHONPATH=src python tests/test_golden.py
"""

import contextlib
import hashlib
import importlib.util
import io
import json
from pathlib import Path

from ringcert import certio, cli

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
        assert certio.serialize(obj) == _path(kind).read_bytes(), kind


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
    out = io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
        assert cli.main(["disc", str(PREVIOUS_POWER_BASIS)]) == 0
    assert out.getvalue() == "2869\n"


# The Dedekind entries of X^5 - X - 1 at the smallest radical exponent: p
# -> (e, g^e / T mod p), with e the largest multiplicity in sympy's
# `Poly(T, modulus=p).factor_list()` and the witness from `sympy.div`
# (computed once; the previous file has e = 5 at both primes)
RADICAL_POWERS = {19: (2, [10, 13, 7, 1]), 151: (2, [96, 33, 73, 1])}


def test_power_basis_bundle_is_previous_without_products():
    from ringcert.pipeline import generate_bundle

    env = json.loads(PREVIOUS_POWER_BASIS.read_bytes())
    _drop_fields("bundle", env["payload"])
    env["payload"]["order"]["products"] = []
    T = [int(c) for c in env["payload"]["T"]]
    dedekind = {int(entry["p"]): entry["cert"]["payload"] for entry in env["payload"]["primes"]
                if entry["cert"]["kind"] == "dedekind"}
    assert sorted(dedekind) == sorted(RADICAL_POWERS)
    for p, ded in dedekind.items():
        e, witness = RADICAL_POWERS[p]
        ded["rad_power_exp"], ded["rad_power_witness"] = str(e), [str(c) for c in witness]
    n = len(T) - 1
    new = generate_bundle(T, 1, [[int(i == j) for i in range(n)] for j in range(n)])
    assert certio.serialize(new) == _reseal(env["kind"], env["payload"])


def _canonical(doc) -> bytes:
    return json.dumps(doc, sort_keys=True, separators=(",", ":")).encode()


def _reseal(kind: str, payload: dict) -> bytes:
    inner = {"kind": kind, "payload": payload, "schema_version": certio.SCHEMA_VERSION}
    digest = hashlib.sha256(_canonical(inner)).hexdigest()
    return _canonical({**inner, "integrity": f"sha256:{digest}"}) + b"\n"


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
    for key in DROPPED_FIELDS.get(kind, ()):
        del payload[key]
    if kind == "bundle":
        _drop_fields("order", payload["order"])
        for tagged in [payload["irreducibility"]] + [entry["cert"] for entry in payload["primes"]]:
            _drop_fields(tagged["kind"], tagged["payload"])
    elif kind == "lpfw" and payload["analysis"] is not None:
        _drop_fields("degree-analysis", payload["analysis"])
    elif kind == "degree-analysis":
        for cert in (c for entry in payload["per_prime"] for c in entry["certs"]):
            _drop_fields("rabin-ff", cert)


PREVIOUS_RECOMPUTED = GOLDEN / "previous-recomputed-fields"


def test_previous_recomputed_fields_are_the_golden_files_without_them():
    for path in sorted(PREVIOUS_RECOMPUTED.glob("*.json")):
        env = json.loads(path.read_bytes())
        _drop_fields(env["kind"], env["payload"])
        assert _reseal(env["kind"], env["payload"]) == _path(env["kind"]).read_bytes(), path.name


if __name__ == "__main__":
    test_one_golden_file_per_kind()
    test_golden_files_round_trip()
    test_generators_reproduce_golden_files()
    test_golden_files_get_their_verdicts()
    test_previous_golden_files_still_verify()
    test_previous_power_basis_bundle_still_verifies()
    test_power_basis_bundle_is_previous_without_products()
    test_previous_recomputed_fields_are_the_golden_files_without_them()
    print(f"{len(certio._REGISTRY)} golden files round-trip and regenerate")
