import hashlib
import json
import os
import re
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import pytest

from ringcert import certio, maximality
from ringcert.cli import main
from ringcert.irred_int import DegreeAnalysisCertificate, generate_int_irred
from ringcert.maximality import (
    DedekindCertificate,
    PMaxShortCertificate,
    generate_pmax,
)
from ringcert.orders import build_order_description, verify_order_builder
from ringcert.pipeline import generate_bundle
from ringcert.primality import PrattCertificate, generate_pratt
from ringcert.verdict import Verdict
from reference import class_mismatch, reseal

GOLDEN = Path(__file__).parent / "golden"


@pytest.fixture(scope="module")
def sample_objects():
    bundle = generate_bundle(
        [-10, -3, 0, 1], 2, [[2, 0, 0], [0, 2, 0], [0, 1, -1]]
    )
    lpfw = generate_int_irred([1, 0, 0, 0, 1])
    analysis = generate_int_irred([1, 0, 1])
    desc = build_order_description([1, 0, 1], 1, [[1, 0], [0, 1]])
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(maximality, "WITNESS_BUDGET", 0)  # the long form
        pmax_long = generate_pmax(verify_order_builder(bundle.order, bundle.T)[1], 2)
    objs = {
        "bundle": bundle,
        "lpfw": lpfw,
        "degree-analysis": analysis,
        "order": desc,
        "pratt": generate_pratt(257),
        "pmax-long": pmax_long,
        "input/polynomial": certio.InputPolynomial((3, 14, 15, 92, 65)),
        "input/order-basis": certio.InputOrderBasis(2, ((2, 0), (0, 1))),
    }
    return objs


class TestRoundTrip:
    def test_parse_serialize_identity(self, sample_objects):
        for kind, obj in sample_objects.items():
            data = certio.serialize(obj)
            back = certio.parse(data)
            assert back == obj, kind
            assert class_mismatch(back, obj) is None, kind
            assert certio.serialize(back) == data, kind

    def test_deterministic_bytes(self, sample_objects):
        for obj in sample_objects.values():
            assert certio.serialize(obj) == certio.serialize(obj)

    def test_envelope_equals_two_dumps(self):
        # `serialize` dumps the payload once and puts the integrity key in
        # front; the bytes must equal the former envelope, in which the
        # inner object was dumped for the digest and the envelope again
        golden = Path(__file__).parent / "golden"
        fixtures = Path(certio.__file__).parent / "fixtures"
        stored = sorted(golden.glob("*.json")) + sorted(fixtures.glob("*.json"))
        objs = [(certio.parse_file(path), path.read_bytes()) for path in stored]
        for fx in certio.FIXTURES.values():
            objs.append((certio.InputPolynomial(tuple(fx["T"])), None))
            if fx["columns"] is not None:
                columns = tuple(tuple(c) for c in fx["columns"])
                objs.append((certio.InputOrderBasis(fx["d"], columns), None))
        for obj, data in objs:
            got = certio.serialize(obj)
            if data is not None:
                assert got == data
            env = json.loads(got)
            assert got == reseal(env["kind"], env["payload"])

    def test_kind_tagging(self, sample_objects):
        for kind, obj in sample_objects.items():
            env = json.loads(certio.serialize(obj))
            assert env["kind"] == kind
            assert env["schema_version"] == "1"
            assert env["integrity"].startswith("sha256:")


class TestRecords:
    """Every record is a `typing.NamedTuple`: a tuple, so `==` compares the
    fields and not the class, which these tests check on their own."""

    def test_import_loads_neither_dataclasses_nor_inspect(self):
        env = dict(os.environ, PYTHONPATH=str(Path(certio.__file__).parents[1]))
        code = "import sys, ringcert.cli; print(sorted({'dataclasses', 'inspect'} & set(sys.modules)))"
        out = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True)
        assert out.returncode == 0, out.stderr
        assert out.stdout == "[]\n"

    def test_records_are_named_tuples(self):
        for cls in [*certio._REGISTRY.values(), Verdict]:
            assert issubclass(cls, tuple) and hasattr(cls, "_fields"), cls.__name__

    def test_nested_records_keep_their_classes(self):
        bundle = certio.parse_file(GOLDEN / "bundle.json")
        assert type(bundle.irreducibility) is DegreeAnalysisCertificate
        assert [type(entry.cert) for entry in bundle.primes] == [
            PMaxShortCertificate, DedekindCertificate]
        assert [type(entry.pratt) for entry in bundle.free_primes] == [PrattCertificate]
        # 2000303 - 1 = 2 * 1000151, and 1000151 is past trial division
        pratt = generate_pratt(2000303)
        assert [type(sub) for _q, _e, sub in pratt.factors] == [type(None), PrattCertificate]
        for obj in (bundle, pratt):
            back = certio.parse(certio.serialize(obj))
            assert back == obj
            assert class_mismatch(back, obj) is None

    def test_fields_are_read_only(self, sample_objects):
        for kind, obj in sample_objects.items():
            with pytest.raises(AttributeError):
                setattr(obj, obj._fields[0], None)
        with pytest.raises(AttributeError):
            Verdict.accept().accepted = False

    def test_inputs_from_lists_write_the_same_bytes(self):
        # as perfbench/run.py builds them, from a manifest's JSON lists
        for fx in certio.FIXTURES.values():
            T = list(fx["T"])
            assert certio.serialize(certio.InputPolynomial(T)) == certio.serialize(
                certio.InputPolynomial(tuple(T)))
            if fx["columns"] is None:
                continue
            columns = [list(c) for c in fx["columns"]]
            want = certio.serialize(
                certio.InputOrderBasis(fx["d"], tuple(tuple(c) for c in columns)))
            assert certio.serialize(certio.InputOrderBasis(fx["d"], columns)) == want
            assert certio.serialize(
                certio.InputOrderBasis(fx["d"], [tuple(c) for c in columns])) == want


class TestMalformedInputs:
    def test_scientific_notation_rejected(self, sample_objects):
        data = certio.serialize(sample_objects["input/polynomial"])
        env = json.loads(data)
        env["payload"]["coeffs"][0] = "1e5"
        bad = reseal(env["kind"], env["payload"])
        with pytest.raises(certio.CertFormatError, match="decimal"):
            certio.parse(bad)

    def test_leading_zero_rejected(self, sample_objects):
        env = json.loads(certio.serialize(sample_objects["input/polynomial"]))
        env["payload"]["coeffs"][0] = "007"
        with pytest.raises(certio.CertFormatError):
            certio.parse(reseal(env["kind"], env["payload"]))

    def test_int_arrays_decode_as_entry_by_entry(self):
        # the one-regex path for a whole array against `_INT_RE` per entry:
        # same tuple, or the same error naming the same first bad entry
        def per_entry(v):
            for s in v:
                if type(s) is not str or not certio._INT_RE.match(s):
                    raise certio._int_error(s)
            return tuple(map(int, v))

        def outcome(decode, v):
            try:
                return decode(v)
            except certio.CertFormatError as e:
                return str(e)

        entries = ["", ",", "1,2", "3\n", "-0", "01", "+1", "1_0", "9" * 4300, "9" * 4301,
                   "-" + "9" * 4300, "0", "-7", "12", 5, None, ["1"], b"1"]
        arrays = [[]] + [[e] for e in entries] + [["4", e] for e in entries]
        arrays += [[e, "4"] for e in entries] + [["1", "2", "3"], ["1", "", "3"], ["", ""]]
        for v in arrays:
            assert outcome(certio._dec_ints, v) == outcome(per_entry, v), v

    def test_truncated_file_reports_offset(self, sample_objects):
        data = certio.serialize(sample_objects["bundle"])
        with pytest.raises(certio.CertFormatError, match="byte offset"):
            certio.parse(data[: len(data) // 2])

    def test_unknown_schema_version(self, sample_objects):
        env = json.loads(certio.serialize(sample_objects["pratt"]))
        env["schema_version"] = "99"
        with pytest.raises(certio.CertFormatError, match="version"):
            certio.parse(json.dumps(env).encode())

    def test_unknown_kind(self):
        env = {"schema_version": "1", "kind": "wat", "payload": {}, "integrity": "x"}
        with pytest.raises(certio.CertFormatError, match="kind"):
            certio.parse(json.dumps(env).encode())

    def test_integrity_mismatch(self, sample_objects):
        env = json.loads(certio.serialize(sample_objects["pratt"]))
        env["payload"]["witness"] = "9"
        with pytest.raises(certio.CertFormatError, match="integrity"):
            certio.parse(json.dumps(env).encode())

    def test_ragged_products_rejected(self, sample_objects, tmp_path, capsys):
        # shape faults of the order parse, and the verifier rejects them with
        # a reason path; the bundle's order has d = 2, so it carries a full table
        def ragged(order):
            order["products"][0].pop()

        def short_column(order):
            order["basis_columns"][1].pop()

        for tamper, reason in ((ragged, "bundle/order/products-shape/i=0"),
                               (short_column, "bundle/order/B-shape")):
            env = json.loads(certio.serialize(sample_objects["bundle"]))
            tamper(env["payload"]["order"])
            data = reseal(env["kind"], env["payload"])
            certio.parse(data)
            path = tmp_path / f"{tamper.__name__}.bundle.json"
            path.write_bytes(data)
            assert main(["verify", str(path)]) == 1
            err = capsys.readouterr().err
            assert err.splitlines()[-1] == reason and "Traceback" not in err

    def test_non_reduced_fraction_rejected(self, sample_objects):
        env = json.loads(certio.serialize(sample_objects["lpfw"]))
        env["payload"]["r"] = "2/4"
        with pytest.raises(certio.CertFormatError, match="lowest terms"):
            certio.parse(reseal(env["kind"], env["payload"]))

    def test_json_number_over_digit_limit_rejected(self):
        data = b'{"kind":"pratt","payload":' + b"7" * 5000 + b',"schema_version":"1"}'
        with pytest.raises(certio.CertFormatError, match="malformed JSON"):
            certio.parse(data)

    def test_writer_refuses_integer_over_digit_limit(self):
        widest = 10**certio.MAX_DIGITS - 1
        ok = certio.InputPolynomial((widest, -widest, 1))
        assert certio.parse(certio.serialize(ok)) == ok
        for x in (widest + 1, -widest - 1):
            with pytest.raises(certio.CertFormatError, match="more than 4300 digits"):
                certio.serialize(certio.InputPolynomial((x, 1)))

    def test_unhashable_kind_rejected(self, sample_objects):
        env = json.loads(certio.serialize(sample_objects["pratt"]))
        env["kind"] = ["pratt"]
        with pytest.raises(certio.CertFormatError, match="kind"):
            certio.parse(json.dumps(env).encode())

    def test_integer_with_trailing_newline_rejected(self, sample_objects):
        # a regex ending in $ also matches before a trailing newline
        env = json.loads(certio.serialize(sample_objects["pratt"]))
        env["payload"]["P"] = "257\n"
        with pytest.raises(certio.CertFormatError, match="decimal"):
            certio.parse(reseal(env["kind"], env["payload"]))

    def test_deep_pratt_chain_parses_or_is_malformed(self):
        # a chain nested past the recursion limit is malformed, never a crash
        for depth in (20, 150, 330):
            text = '{"P":"3","factors":[["2","1",null]],"witness":"2"}'
            for _ in range(depth):
                text = '{"P":"7","factors":[["3","1",' + text + ']],"witness":"3"}'
            inner = '{"kind":"pratt","payload":' + text + ',"schema_version":"1"}'
            digest = hashlib.sha256(inner.encode()).hexdigest()
            data = f'{{"integrity":"sha256:{digest}",{inner[1:]}'.encode()
            try:
                cert = certio.parse(data)
            except certio.CertFormatError:
                assert depth > 20
            else:
                assert cert.P == 7


class TestUnknownKeys:
    """Payload keys that name no field are ignored, which keeps files that
    still carry a field dropped from the format verifying."""

    def test_unknown_key_parses_to_the_same_object(self, sample_objects):
        for kind, obj in sample_objects.items():
            data = certio.serialize(obj)
            env = json.loads(data)
            env["payload"]["no_such_field"] = "1"
            if kind == "bundle":
                env["payload"]["order"]["no_such_field"] = []
            back = certio.parse(reseal(env["kind"], env["payload"]))
            assert back == obj, kind
            assert certio.serialize(back) == data, kind


class TestMissingKeys:
    """A missing key takes its field's default, which keeps files written
    before a field was added verifying; a field with no default is required."""

    def test_missing_key_takes_the_default(self):
        golden = certio.parse_file(Path(__file__).parent / "golden" / "bundle.json")
        assert golden.free_primes and golden.claimed_disc is not None
        env = json.loads(certio.serialize(golden))
        del env["payload"]["free_primes"], env["payload"]["claimed_disc"]
        back = certio.parse(reseal(env["kind"], env["payload"]))
        assert back == golden._replace(free_primes=(), claimed_disc=None)

    def test_missing_key_without_default_is_malformed(self, sample_objects):
        env = json.loads(certio.serialize(sample_objects["bundle"]))
        del env["payload"]["primes"]
        with pytest.raises(certio.CertFormatError, match="missing field 'primes'"):
            certio.parse(reseal(env["kind"], env["payload"]))


def _maximality_entry(kind):
    """The payload of a bundle's first prime entry of a maximality kind."""
    return lambda payload: next(
        e["cert"]["payload"] for e in payload["primes"] if e["cert"]["kind"] == kind)


def _plus_one(rational: str) -> str:
    x = Fraction(rational) + 1
    return f"{x.numerator}/{x.denominator}"


def _bump_h1(h):
    """The chain end h_1 with its constant coefficient plus 1."""
    return [h[0], [str(int(h[1][0]) + 1)] + h[1][1:]] + h[2:]


def _sub_of_last_factor_at_second(factors):
    """The chain's second factor (q = 3) given the sub of its last."""
    return [factors[0], factors[1][:2] + [factors[-1][2]]] + factors[2:]


# an earlier-format file with one of its dropped fields set to a wrong
# value: (file under golden/, the payload holding the field, the field,
# its new value)
WRONG_DROPPED_FIELDS = {
    "n_sign-flipped": ("previous-recomputed-fields/bundle.json", lambda payload: payload,
                       "n_sign", lambda v: str(-int(v))),
    "rho-plus-1": ("previous-recomputed-fields/lpfw.json", lambda payload: payload, "rho",
                   _plus_one),
    "rad_quotient-bumped": ("previous-recomputed-fields/bundle.json",
                            _maximality_entry("dedekind"), "rad_quotient",
                            lambda v: [str(int(v[0]) + 1)] + v[1:]),
    "dedekind-T-of-x3-2": ("previous-recomputed-fields/bundle.json",
                           _maximality_entry("dedekind"), "T", lambda v: ["-2", "0", "0", "1"]),
    "pmax-t-plus-1": ("previous-recomputed-fields/bundle.json", _maximality_entry("pmax-short"),
                      "t", lambda v: str(int(v) + 1)),
    "rabin-s-plus-1": ("previous-recomputed-fields/rabin-ff.json", lambda payload: payload, "s",
                       lambda v: str(int(v) + 1)),
    "rabin-h-bumped": ("previous-one-prime-rule/rabin-ff.json", lambda payload: payload, "h",
                       _bump_h1),
    "rabin-n_factors-huge": ("previous-one-prime-rule/rabin-ff.json", lambda payload: payload,
                             "n_factors", lambda v: [["2", str(10**12)]]),
    "n_value-plus-1": ("previous-one-prime-rule/bundle.json", lambda payload: payload,
                       "n_value", lambda v: str(int(v) + 1)),
    "pratt-small-sub-for-wrong-q": ("previous-one-prime-rule/pratt.json",
                                    lambda payload: payload, "factors",
                                    _sub_of_last_factor_at_second),
}

# a Pratt sub-certificate below 10^6 still parses, but the verifier proves
# its prime by trial division and does not read it
NOT_READ = {"pratt-small-sub-for-wrong-q"}


@pytest.mark.parametrize("case", WRONG_DROPPED_FIELDS)
def test_wrong_dropped_field_gets_the_verdict_of_the_rest(case, tmp_path, capsys):
    name, holder, key, wrong = WRONG_DROPPED_FIELDS[case]
    path = GOLDEN / name
    env = json.loads(path.read_bytes())
    fields = holder(env["payload"])
    fields[key] = wrong(fields[key])
    forged = tmp_path / path.name
    forged.write_bytes(reseal(env["kind"], env["payload"]))
    assert forged.read_bytes() != path.read_bytes()
    if case not in NOT_READ:
        assert certio.parse_file(forged) == certio.parse_file(path)
    assert main(["verify", str(forged)]) == main(["verify", str(path)]) == 0


FORMAT_MD = Path(__file__).parents[1] / "docs" / "FORMAT.md"


def test_format_doc_lists_every_payload_field():
    # each kind's section opens with one line naming its fields in
    # backticks, so a field added or dropped on one side only fails here
    doc = FORMAT_MD.read_text()
    for kind, cls in certio._REGISTRY.items():
        section = re.search(rf"^### {re.escape(kind)}\n(.*)$", doc, re.MULTILINE)
        assert section and section.group(1).startswith("Fields: "), kind
        listed = re.findall(r"`([^`]+)`", section.group(1))
        assert sorted(listed) == sorted(cls._fields), kind


class TestFixtures:
    def test_shipped_files_parse(self):
        d = Path(certio.__file__).parent / "fixtures"
        files = sorted(d.glob("*.json"))
        assert len(files) >= 15
        for path in files:
            obj = certio.parse_file(path)
            assert isinstance(obj, (certio.InputPolynomial, certio.InputOrderBasis))

    def test_registry_consistent_with_files(self):
        d = Path(certio.__file__).parent / "fixtures"
        for name, fx in certio.FIXTURES.items():
            poly = certio.parse_file(d / f"{name}.poly.json")
            assert poly.coeffs == tuple(fx["T"])
            if fx["columns"] is not None:
                basis = certio.parse_file(d / f"{name}.basis.json")
                assert basis.denominator == fx["d"]
                assert basis.columns == tuple(tuple(c) for c in fx["columns"])
