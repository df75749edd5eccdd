"""Write the golden certificate files, one per registered kind.

The files pin the wire format: `tests/test_golden.py` parses each one and
requires `serialize` to give back the same bytes.  Regenerate them only
when the format changes on purpose:

    PYTHONPATH=src python tests/golden/regenerate.py

or when a generator change writes a kind differently; then first copy the
old file into `previous/`, or into a new `previous-*/` directory beside
it when `previous/` already holds that kind; `tests/test_golden.py` checks
that the verifier still accepts every file there.
"""

from pathlib import Path
from unittest import mock

from ringcert import certio, maximality
from ringcert.irred_ff import generate_rabin
from ringcert.irred_int import generate_int_irred
from ringcert.maximality import generate_dedekind, generate_pmax
from ringcert.orders import build_order_description, verify_order_builder
from ringcert.pipeline import generate_bundle
from ringcert.primality import generate_pratt
from ringcert.resultants import disc_order, disc_poly

HERE = Path(__file__).parent

# X^3 - 211X - 122 with basis {1, a, (a - a^2)/2}: the order and its
# kernel certificates at 2.
_CUBIC = ([-122, -211, 0, 1], 2, [[2, 0, 0], [0, 2, 0], [0, 1, -1]])
# X^3 + 489X - 30 with the same basis: disc(O) = -2^2 * 3^3 * 1082743, so a
# pmax-short entry at 2, a Dedekind entry at 3 (T is Eisenstein there), a
# free prime above 10^6 (so a Pratt chain) and a discriminant claim, which
# together reach every optional bundle field.
_BUNDLE_CUBIC = ([-30, 489, 0, 1], 2, [[2, 0, 0], [0, 2, 0], [0, 1, -1]])


def golden_objects() -> dict:
    order = build_order_description(*_CUBIC)
    _, table = verify_order_builder(order, _CUBIC[0])
    # with no witness search, generate_pmax writes the long form
    with mock.patch.object(maximality, "WITNESS_BUDGET", 0):
        pmax_long = generate_pmax(table, 2)
    return {
        "rabin-ff": generate_rabin([2, 1, 0, 0, 0, 0, 1], 3),
        "reducible-ff": generate_rabin([3, 1, 0, 0, 0, 0, 1], 3),
        "degree-analysis": generate_int_irred([1, 0, 1]),
        "lpfw": generate_int_irred([1, 0, 0, 0, 1]),
        "reducible-int": generate_int_irred([-1, 0, 1]),
        "pratt": generate_pratt(1000003),
        "dedekind": generate_dedekind([-2, 0, 0, 1], 3),
        "pmax-short": generate_pmax(table, 2),
        "pmax-long": pmax_long,
        "order": order,
        "bundle": generate_bundle(
            *_BUNDLE_CUBIC, claimed_disc=disc_order(
                build_order_description(*_BUNDLE_CUBIC), disc_poly(_BUNDLE_CUBIC[0]))),
        "input/polynomial": certio.InputPolynomial((3, 14, 15, 92, 65)),
        "input/order-basis": certio.InputOrderBasis(2, ((2, 0, 0), (0, 2, 0), (0, 1, -1))),
    }


def golden_path(kind: str) -> Path:
    return HERE / (kind.replace("/", "-") + ".json")


def main() -> None:
    for kind, obj in golden_objects().items():
        assert certio.kind_of(obj) == kind, kind
        golden_path(kind).write_bytes(certio.serialize(obj))


if __name__ == "__main__":
    main()
