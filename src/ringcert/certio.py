"""Certificate files: canonical JSON with decimal-string integers.

Every file is an envelope

    {"schema_version": "1", "kind": "...", "payload": {...}, "integrity": "sha256:..."}

serialized with sorted keys and no whitespace, one trailing newline.
Integers are decimal strings of at most 4300 digits (no precision loss, no
floats anywhere), rationals are "num/den" in lowest terms with positive
denominator, polynomials are ascending coefficient arrays, matrices
row-major.

The payload layout comes from the certificate records themselves, each a
`typing.NamedTuple`: one codec reads each type's fields and type hints
once, at import, and builds an (encode, decode) pair per type.  A record is
an object with one key per field, ``tuple[X, ...]`` an array, ``tuple[A,
B]`` an array of exactly that length, ``X | None`` null or X, and a union
of registered records ``{"kind": ..., "payload": ...}``.  The modules that
define records evaluate their annotations (no ``from __future__ import
annotations``), since a string annotation costs each record field a
compiled forward reference at import; only the Pratt chain's
self-reference is a string.
Parsing validates formats, and the shapes the type hints fix, before any
verification runs; shapes that depend on another field or on the
enclosing bundle, such as the order's basis and products against the
degree of the bundle's T, are the verifier's to check.
Payload keys that name no field are ignored, so files that still carry a
dropped field parse, and a field with a default may be left out, so files
written before it was added parse.  It turns every malformed input into
`CertFormatError` and round-trips byte-exactly on canonical files.
"""

import hashlib
import json
import re
import types
import typing
from fractions import Fraction
from math import gcd

from . import irred_ff, irred_int, maximality, pipeline, primality
from .orders import OrderDescription

SCHEMA_VERSION = "1"

MAX_DIGITS = 4300  # CPython's default int/str conversion limit

_INT = rf"(?:0|-?[1-9][0-9]{{0,{MAX_DIGITS - 1}}})"
# \Z, not $, which would also match before a trailing newline
_INT_RE = re.compile(rf"^{_INT}\Z")
_INTS_RE = re.compile(rf"{_INT}(?:,{_INT})*")  # a whole array, joined by commas
_LONG_INT_RE = re.compile(r"^-?[1-9][0-9]*\Z")


class CertFormatError(Exception):
    def __init__(self, message: str, offset: int | None = None):
        if offset is not None:
            message = f"{message} (byte offset {offset})"
        super().__init__(message)
        self.offset = offset


# input files share the same envelope grammar


class InputPolynomial(typing.NamedTuple):
    coeffs: tuple[int, ...]


class InputOrderBasis(typing.NamedTuple):
    denominator: int
    columns: tuple[tuple[int, ...], ...]


_REGISTRY: dict[str, type] = {
    "rabin-ff": irred_ff.RabinCertificate,
    "reducible-ff": irred_ff.ReducibleWitness,
    "degree-analysis": irred_int.DegreeAnalysisCertificate,
    "lpfw": irred_int.LPFWCertificate,
    "reducible-int": irred_int.ReducibleWitnessInt,
    "pratt": primality.PrattCertificate,
    "dedekind": maximality.DedekindCertificate,
    "pmax-short": maximality.PMaxShortCertificate,
    "pmax-long": maximality.PMaxLongCertificate,
    "order": OrderDescription,
    "bundle": pipeline.CertificateBundle,
    "input/polynomial": InputPolynomial,
    "input/order-basis": InputOrderBasis,
}

_KIND_OF_TYPE = {cls: kind for kind, cls in _REGISTRY.items()}


def kind_of(obj) -> str:
    kind = _KIND_OF_TYPE.get(type(obj))
    if kind is None:
        raise TypeError(f"no serialization kind for {type(obj).__name__}")
    return kind


# ---------------------------------------------------------------------------
# scalars
# ---------------------------------------------------------------------------


def _int_error(s) -> CertFormatError:
    if isinstance(s, str) and _LONG_INT_RE.match(s):
        return CertFormatError(f"integer has more than {MAX_DIGITS} digits")
    return CertFormatError(f"not a canonical decimal integer: {s!r}")


_INT_BOUND = 10**MAX_DIGITS


def _enc_int(x: int) -> str:
    x = int(x)
    if -_INT_BOUND < x < _INT_BOUND:
        return str(x)
    raise CertFormatError(f"cannot write an integer of more than {MAX_DIGITS} digits")


def _dec_int(s) -> int:
    if type(s) is not str or not _INT_RE.match(s):
        raise _int_error(s)
    return int(s)


def _enc_ints(t) -> list[str]:
    """One range check per array; `_enc_int` names the first entry too long.
    int.__repr__ writes an int subclass such as bool as its integer value."""
    if t and not (-_INT_BOUND < min(t) and max(t) < _INT_BOUND):
        return [_enc_int(c) for c in t]
    return list(map(int.__repr__, t))


def _dec_ints(v) -> tuple[int, ...]:
    """An array of canonical decimal integers, validated by one regex match
    on the joined array; the per-entry loop only names the first bad entry."""
    if type(v) is not list:
        raise CertFormatError("expected an array")
    try:
        joined = ",".join(v)  # TypeError on any entry that is no str
    except TypeError:
        joined = None
    # an entry holding a comma would match as two entries
    if joined is not None and _INTS_RE.fullmatch(joined) and joined.count(",") == len(v) - 1:
        return tuple(map(int, v))
    for s in v:
        if type(s) is not str or not _INT_RE.match(s):
            raise _int_error(s)
    return tuple(map(int, v))


def _enc_frac(x: Fraction) -> str:
    x = Fraction(x)
    return f"{_enc_int(x.numerator)}/{_enc_int(x.denominator)}"


def _dec_frac(s) -> Fraction:
    if not isinstance(s, str) or s.count("/") != 1:
        raise CertFormatError(f"not a rational: {s!r}")
    num_s, den_s = s.split("/")
    num, den = _dec_int(num_s), _dec_int(den_s)
    if den < 1 or gcd(abs(num), den) != 1:
        raise CertFormatError(f"rational not in lowest terms: {s!r}")
    return Fraction(num, den)


def _field(payload, name: str):
    if not isinstance(payload, dict) or name not in payload:
        raise CertFormatError(f"missing field {name!r}")
    return payload[name]


# ---------------------------------------------------------------------------
# the codec
# ---------------------------------------------------------------------------

_CODECS: dict = {int: (_enc_int, _dec_int), Fraction: (_enc_frac, _dec_frac)}


def _codec(tp):
    """The cached (encode, decode) pair of a type hint."""
    if tp not in _CODECS:
        if hasattr(tp, "_fields"):
            _record_codec(tp)
        else:
            _CODECS[tp] = _build(tp)
    return _CODECS[tp]


def _build(tp):
    origin, args = typing.get_origin(tp), typing.get_args(tp)
    if origin is tuple and len(args) == 2 and args[1] is Ellipsis:
        if args[0] is int:
            return _enc_ints, _dec_ints
        return _array_codec(*_codec(args[0]))
    if origin is tuple:
        return _fixed_codec(args)
    if origin in (typing.Union, types.UnionType):
        members = tuple(a for a in args if a is not type(None))
        if len(members) == 1 < len(args):
            return _optional_codec(*_codec(members[0]))
        if len(members) == len(args) and all(m in _KIND_OF_TYPE for m in members):
            return _union_codec(members)
    raise TypeError(f"no wire format for {tp!r}")


def _record_codec(cls) -> None:
    """An object with one key per field; a missing key takes its field's
    default, if it has one.  Registered before its fields are compiled, so
    that recursive types (Pratt chains) refer to themselves."""
    items = []  # (field name, encode, decode)
    defaults = cls._field_defaults

    def encode(obj):
        return {name: enc(x) for (name, enc, _dec), x in zip(items, obj)}

    def decode(v):
        if type(v) is not dict:
            raise CertFormatError(f"missing field {items[0][0]!r}")
        try:
            return cls(*[dec(v[name]) if name in v else defaults[name]
                         for name, _enc, dec in items])
        except KeyError:
            missing = next(name for name, _enc, _dec in items
                           if name not in v and name not in defaults)
            raise CertFormatError(f"missing field {missing!r}") from None

    _CODECS[cls] = (encode, decode)
    hints = typing.get_type_hints(cls)
    for name in cls._fields:
        items.append((name, *_codec(hints[name])))


def _array_codec(enc, dec):
    def encode(v):
        return [enc(x) for x in v]

    def decode(v):
        if type(v) is not list:
            raise CertFormatError("expected an array")
        return tuple(map(dec, v))

    return encode, decode


def _fixed_codec(items):
    encs, decs = zip(*map(_codec, items))
    n = len(items)

    def encode(v):
        return [enc(x) for enc, x in zip(encs, v)]

    def decode(v):
        if type(v) is not list or len(v) != n:
            raise CertFormatError(f"expected an array of {n} entries")
        return tuple([dec(x) for dec, x in zip(decs, v)])

    return encode, decode


def _optional_codec(enc, dec):
    return (lambda v: None if v is None else enc(v)), (lambda v: None if v is None else dec(v))


def _union_codec(members):
    kind_of_member = {cls: _KIND_OF_TYPE[cls] for cls in members}
    by_kind = {kind: _codec(cls) for cls, kind in kind_of_member.items()}

    def encode(v):
        kind = kind_of_member[type(v)]
        return {"kind": kind, "payload": by_kind[kind][0](v)}

    def decode(v):
        kind = _field(v, "kind")
        codec = by_kind.get(kind) if isinstance(kind, str) else None
        if codec is None:
            raise CertFormatError(f"unknown kind {kind!r}; expected one of {list(by_kind)}")
        return codec[1](_field(v, "payload"))

    return encode, decode


# A Pratt chain nests one payload per level, and encoding spends several
# stack frames on each.  The outermost decoder bounds the depth first, so
# that every chain that parses can be serialized again.  The nested levels
# go through the unchecked decoder that the chain's own fields were compiled
# with; those field codecs leave the cache, so that every other type
# compiles against the checked one.

MAX_PRATT_DEPTH = 64  # a chain whose factors carry no sub-certificate has depth 1

_before_pratt = set(_CODECS)
_record_codec(primality.PrattCertificate)
_enc_pratt, _dec_pratt_unchecked = _CODECS[primality.PrattCertificate]
for _tp in set(_CODECS) - _before_pratt:
    del _CODECS[_tp]


def _dec_pratt(payload) -> primality.PrattCertificate:
    depth, level = 0, [payload]
    while level:
        depth += 1
        if depth > MAX_PRATT_DEPTH:
            raise CertFormatError(f"Pratt chain nested more than {MAX_PRATT_DEPTH} levels")
        level = [
            entry[2]
            for node in level
            if type(node) is dict and type(node.get("factors")) is list
            for entry in node["factors"]
            if type(entry) is list and len(entry) == 3 and entry[2] is not None
        ]
    return _dec_pratt_unchecked(payload)


_CODECS[primality.PrattCertificate] = (_enc_pratt, _dec_pratt)

for _cls in _REGISTRY.values():
    _codec(_cls)


# ---------------------------------------------------------------------------
# envelope
# ---------------------------------------------------------------------------


def _canonical_inner(kind: str, payload: dict) -> bytes:
    inner = {"kind": kind, "payload": payload, "schema_version": SCHEMA_VERSION}
    return json.dumps(inner, sort_keys=True, separators=(",", ":")).encode("ascii")


def serialize(obj) -> bytes:
    """Canonical bytes for any registered certificate or input object.

    The envelope is the inner object with the integrity key in front:
    "integrity" sorts before "kind", "payload" and "schema_version", so the
    payload is dumped once, for the digest and the file alike.
    """
    kind = kind_of(obj)
    inner = _canonical_inner(kind, _CODECS[type(obj)][0](obj))
    digest = hashlib.sha256(inner).hexdigest()
    return b'{"integrity":"sha256:' + digest.encode("ascii") + b'",' + inner[1:] + b"\n"


def parse(data: bytes):
    """Inverse of serialize; validates schema, integrity and shapes."""
    try:
        return _parse(data)
    except RecursionError:
        raise CertFormatError("nested too deeply") from None


def _parse(data: bytes):
    try:
        envelope = json.loads(data.decode("utf-8"))
    except UnicodeDecodeError as e:
        raise CertFormatError("not valid UTF-8", offset=e.start) from e
    except json.JSONDecodeError as e:
        raise CertFormatError(f"malformed JSON: {e.msg}", offset=e.pos) from e
    except ValueError as e:  # a JSON number beyond the int/str digit limit
        raise CertFormatError(f"malformed JSON: {e}") from e
    if not isinstance(envelope, dict):
        raise CertFormatError("top level must be an object")
    version = envelope.get("schema_version")
    if version != SCHEMA_VERSION:
        raise CertFormatError(f"unsupported schema version {version!r}")
    kind = envelope.get("kind")
    cls = _REGISTRY.get(kind) if isinstance(kind, str) else None
    if cls is None:
        raise CertFormatError(f"unknown certificate kind {kind!r}")
    payload = envelope.get("payload")
    integrity = envelope.get("integrity")
    expected = "sha256:" + hashlib.sha256(_canonical_inner(kind, payload)).hexdigest()
    if integrity != expected:
        raise CertFormatError("integrity digest mismatch")
    return _CODECS[cls][1](payload)


def parse_file(path):
    with open(path, "rb") as fh:
        return parse(fh.read())


def write_file(path, obj) -> None:
    data = serialize(obj)  # before opening, so a CertFormatError leaves no file
    with open(path, "wb") as fh:
        fh.write(data)


# ---------------------------------------------------------------------------
# fixture corpus
# ---------------------------------------------------------------------------

# Classical fields with hand-derivable integral bases; discriminants are
# textbook values and double as independent oracles for the pipeline.
FIXTURES: dict[str, dict] = {
    "quad_x2-x+1": {
        "T": (1, -1, 1),
        "d": 1,
        "columns": ((1, 0), (0, 1)),
        "disc": -3,
        "notes": "Q(sqrt(-3)); ring of integers Z[(1+sqrt(-3))/2] = Z[theta].",
    },
    "cubic_x3-3x-10": {
        "T": (-10, -3, 0, 1),
        "d": 2,
        "columns": ((2, 0, 0), (0, 2, 0), (0, 1, -1)),
        "disc": -648,
        "notes": "Non-monogenic presentation: basis {1, a, (a - a^2)/2}, index 2 over Z[a].",
    },
    "cubic_x3-30x-80": {
        "T": (-80, -30, 0, 1),
        "d": 2,
        "columns": ((2, 0, 0), (0, 2, 0), (2, 0, 1)),
        "disc": -16200,
        "notes": "Basis {1, a, (a^2 + 2)/2}; disc(T) = 64800, index 2, field disc -16200.",
    },
    "cubic_dedekind": {
        "T": (-8, -2, -1, 1),
        "d": 2,
        "columns": ((2, 0, 0), (0, 2, 0), (0, 1, 1)),
        "disc": -503,
        "notes": "Dedekind's field Q[X]/<X^3-X^2-2X-8>: no power basis exists; "
        "basis {1, a, (a + a^2)/2}, disc(T) = -2012 = 4 * -503.",
    },
    "quintic_x5-x-1": {
        "T": (-1, -1, 0, 0, 0, 1),
        "d": 1,
        "columns": ((1, 0, 0, 0, 0), (0, 1, 0, 0, 0), (0, 0, 1, 0, 0), (0, 0, 0, 1, 0), (0, 0, 0, 0, 1)),
        "disc": 2869,
        "notes": "disc(T) = 2869 = 19 * 151 squarefree, so the power basis is maximal.",
    },
    "quintic_x5-2": {
        "T": (-2, 0, 0, 0, 0, 1),
        "d": 1,
        "columns": ((1, 0, 0, 0, 0), (0, 1, 0, 0, 0), (0, 0, 1, 0, 0), (0, 0, 0, 1, 0), (0, 0, 0, 0, 1)),
        "disc": 50000,
        "notes": "Q(2^(1/5)) via its Eisenstein generator; Z[2^(1/5)] is maximal, disc 2^4 5^5.",
    },
    "quintic_x5-4": {
        "T": (-4, 0, 0, 0, 0, 1),
        "d": 2,
        "columns": ((2, 0, 0, 0, 0), (0, 2, 0, 0, 0), (0, 0, 2, 0, 0), (0, 0, 0, 1, 0), (0, 0, 0, 0, 1)),
        "disc": 50000,
        "notes": "Same field Q(2^(1/5)) presented through theta = 2^(2/5): with eta = 2^(1/5), "
        "eta = theta^3/2 and eta^3 = theta^4/2, so the basis is {1, th, th^2, th^3/2, th^4/2}; "
        "index 4 over Z[theta], disc(T) = 800000.",
    },
    "quintic_x5-8": {
        "T": (-8, 0, 0, 0, 0, 1),
        "d": 4,
        "columns": ((4, 0, 0, 0, 0), (0, 4, 0, 0, 0), (0, 0, 2, 0, 0), (0, 0, 0, 2, 0), (0, 0, 0, 0, 1)),
        "disc": 50000,
        "notes": "Q(2^(1/5)) through theta = 2^(3/5): eta = theta^2/2, eta^2 = theta^4/4, "
        "eta^4 = theta^3/2; basis {1, th, th^2/2, th^3/2, th^4/4}, index 16, disc(T) = 12800000.",
    },
    "quintic_cos2pi11": {
        "T": (1, 3, -3, -4, 1, 1),
        "d": 1,
        "columns": ((1, 0, 0, 0, 0), (0, 1, 0, 0, 0), (0, 0, 1, 0, 0), (0, 0, 0, 1, 0), (0, 0, 0, 0, 1)),
        "disc": 14641,
        "notes": "Minimal polynomial of 2*cos(2*pi/11); the real quintic subfield of the "
        "11th cyclotomic field is monogenic with disc 11^4.",
    },
    "quartic_x4+1": {
        "T": (1, 0, 0, 0, 1),
        "d": 1,
        "columns": ((1, 0, 0, 0), (0, 1, 0, 0), (0, 0, 1, 0), (0, 0, 0, 1)),
        "disc": 256,
        "notes": "8th cyclotomic field; X^4+1 is reducible modulo every prime, so "
        "irreducibility needs the prime-witness route.",
    },
    "cauchy_list": {
        "T": (3, 14, 15, 92, 65),
        "d": None,
        "columns": None,
        "disc": None,
        "notes": "Root-bound worked example: scaled bound at r = 1/2 equals 249/130.",
    },
}
