"""The Pratt nesting limit: a chain at `certio.MAX_PRATT_DEPTH` levels
parses and re-serializes byte for byte, one level more is malformed.

Runs under pytest, or on its own where pytest is not installed:

    PYTHONPATH=src python tests/test_pratt_nesting.py
"""

import hashlib
import json
from pathlib import Path

from ringcert import certio
from ringcert.primality import PrattCertificate


def chain(depth: int) -> PrattCertificate:
    """A Pratt-shaped chain of the given depth; only its shape matters here."""
    cert = PrattCertificate(3, 2, ((2, 1, None),))
    for _ in range(depth - 1):
        cert = PrattCertificate(7, 3, ((3, 1, cert),))
    return cert


def test_chain_at_limit_round_trips():
    data = certio.serialize(chain(certio.MAX_PRATT_DEPTH))
    assert certio.serialize(certio.parse(data)) == data


def test_chain_above_limit_is_malformed():
    data = certio.serialize(chain(certio.MAX_PRATT_DEPTH + 1))
    try:
        certio.parse(data)
    except certio.CertFormatError as e:
        assert "nested more than" in str(e)
    else:
        raise AssertionError("a chain above the nesting limit parsed")


def test_limit_applies_inside_a_bundle():
    env = json.loads((Path(__file__).parent / "golden" / "bundle.json").read_bytes())
    payload = env["payload"]
    entry = next(e for e in payload["primes"] + payload["free_primes"] if e["pratt"] is not None)
    deep = json.loads(certio.serialize(chain(certio.MAX_PRATT_DEPTH + 1)))
    entry["pratt"] = deep["payload"]
    digest = hashlib.sha256(certio._canonical_inner("bundle", env["payload"])).hexdigest()
    env["integrity"] = f"sha256:{digest}"
    try:
        certio.parse(json.dumps(env).encode())
    except certio.CertFormatError as e:
        assert "nested more than" in str(e)
    else:
        raise AssertionError("a bundle with a chain above the limit parsed")


if __name__ == "__main__":
    test_chain_at_limit_round_trips()
    test_chain_above_limit_is_malformed()
    test_limit_applies_inside_a_bundle()
    print(f"Pratt chains: {certio.MAX_PRATT_DEPTH} levels round-trip, one more is malformed")
