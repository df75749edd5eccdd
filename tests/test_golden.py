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


def _move_to_free_primes(payload: dict, primes: set[int]) -> None:
    """Move an earlier bundle payload's entries at `primes` to its free
    primes, without their maximality certificates, in place."""
    moved = [entry for entry in payload["primes"] if int(entry["p"]) in primes]
    assert len(moved) == len(primes)
    payload["primes"] = [entry for entry in payload["primes"] if entry not in moved]
    payload["free_primes"] = [{key: entry[key] for key in ("p", "exponent", "pratt")}
                              for entry in moved]


def test_power_basis_bundle_is_previous_without_products():
    # disc(O) = 2869 = 19 * 151 is squarefree, so neither prime keeps its
    # Dedekind entry
    from ringcert.pipeline import generate_bundle

    env = json.loads(PREVIOUS_POWER_BASIS.read_bytes())
    _drop_fields("bundle", env["payload"])
    env["payload"]["order"]["products"] = []
    _move_to_free_primes(env["payload"], {19, 151})
    T = [int(c) for c in env["payload"]["T"]]
    n = len(T) - 1
    new = generate_bundle(T, 1, [[int(i == j) for i in range(n)] for j in range(n)])
    assert certio.serialize(new) == _reseal(env["kind"], env["payload"])


# The golden bundle as generators wrote it while every prime of N carried a
# maximality certificate: X^3 - 211X - 122, disc(O) = 9293464 = 2^3 * 1161683
PREVIOUS_EVERY_PRIME_CERTIFIED = GOLDEN / "previous-every-prime-certified" / "bundle.json"


def test_every_prime_certified_bundle_is_previous_with_free_primes():
    from ringcert.pipeline import generate_bundle

    env = json.loads(PREVIOUS_EVERY_PRIME_CERTIFIED.read_bytes())
    _move_to_free_primes(env["payload"], {1161683})
    T = [int(c) for c in env["payload"]["T"]]
    new = generate_bundle(T, 2, [[2, 0, 0], [0, 2, 0], [0, 1, -1]], claimed_disc=9293464)
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
    # the golden bundle was regenerated since, for its free primes: the
    # file without the fields is its copy from before that
    for path in sorted(PREVIOUS_RECOMPUTED.glob("*.json")):
        env = json.loads(path.read_bytes())
        _drop_fields(env["kind"], env["payload"])
        if env["kind"] == "bundle":
            want = PREVIOUS_EVERY_PRIME_CERTIFIED.read_bytes()
        else:
            want = _path(env["kind"]).read_bytes()
        assert _reseal(env["kind"], env["payload"]) == want, path.name


if __name__ == "__main__":
    test_one_golden_file_per_kind()
    test_golden_files_round_trip()
    test_generators_reproduce_golden_files()
    test_golden_files_get_their_verdicts()
    test_previous_golden_files_still_verify()
    test_previous_power_basis_bundle_still_verifies()
    test_power_basis_bundle_is_previous_without_products()
    test_every_prime_certified_bundle_is_previous_with_free_primes()
    test_previous_recomputed_fields_are_the_golden_files_without_them()
    print(f"{len(certio._REGISTRY)} golden files round-trip and regenerate")
