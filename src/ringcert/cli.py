"""Command line interface.

    ringcert gen irred <polyfile>            irreducibility certificate or factor
    ringcert gen bundle <polyfile> <basisfile>   full ring-of-integers bundle
    ringcert verify <certfile>               exit 0 accept / 1 reject / 2 malformed or unreadable
    ringcert disc <bundlefile>               print the order discriminant

Verification is the trust boundary: it re-checks everything in the file and
prints a reason path for the first failing statement on stderr.
"""

from __future__ import annotations

import argparse
import functools
import json
import sys

from . import certio, irred_int, pipeline, primality
from .irred_ff import RabinCertificate, ReducibleWitness, verify_rabin, verify_reducible_witness
from .verdict import Verdict

EXIT_ACCEPT = 0
EXIT_REJECT = 1
EXIT_MALFORMED = 2


def verify_certificate(obj) -> Verdict:
    """Dispatch to the appropriate verifier for a standalone file."""
    if isinstance(obj, pipeline.CertificateBundle):
        return pipeline.verify_bundle(obj)
    if isinstance(obj, irred_int.DegreeAnalysisCertificate):
        return irred_int.verify_degree_analysis(obj)
    if isinstance(obj, irred_int.LPFWCertificate):
        return irred_int.verify_lpfw(obj)
    if isinstance(obj, irred_int.ReducibleWitnessInt):
        return irred_int.verify_reducible_witness_int(obj)
    if isinstance(obj, RabinCertificate):
        return verify_rabin(obj)
    if isinstance(obj, ReducibleWitness):
        return verify_reducible_witness(obj)
    if isinstance(obj, primality.PrattCertificate):
        return primality.verify_pratt(obj)
    if isinstance(obj, (certio.InputPolynomial, certio.InputOrderBasis)):
        raise ValueError("input files are not certificates")
    raise ValueError(
        f"{certio.kind_of(obj)} certificates are only meaningful inside a bundle"
    )


def _emit_verdict(v: Verdict, as_json: bool) -> int:
    if as_json:
        doc = {"schema_version": "verdict-1", **v._asdict()}
        sys.stdout.write(json.dumps(doc, sort_keys=True, separators=(",", ":")) + "\n")
    if v.accepted:
        if not as_json:
            print("accept")
        return EXIT_ACCEPT
    if not as_json:
        print("reject", file=sys.stderr)
    print(v.reason, file=sys.stderr)
    return EXIT_REJECT


def _load(path):
    try:
        return certio.parse_file(path)
    except FileNotFoundError:
        print(f"no such file: {path}", file=sys.stderr)
        raise SystemExit(EXIT_MALFORMED)
    except OSError as e:
        print(f"cannot read {path}: {e.strerror or e}", file=sys.stderr)
        raise SystemExit(EXIT_MALFORMED)
    except certio.CertFormatError as e:
        print(f"malformed input: {e}", file=sys.stderr)
        raise SystemExit(EXIT_MALFORMED)


def _write(path, obj) -> None:
    try:
        certio.write_file(path, obj)
    except OSError as e:
        print(f"cannot write {path}: {e.strerror or e}", file=sys.stderr)
        raise SystemExit(EXIT_MALFORMED)
    except certio.CertFormatError as e:
        print(f"cannot write {path}: {e}", file=sys.stderr)
        raise SystemExit(EXIT_MALFORMED)


def _cmd_gen_irred(args) -> int:
    obj = _load(args.polyfile)
    if not isinstance(obj, certio.InputPolynomial):
        print("gen irred expects an input/polynomial file", file=sys.stderr)
        return EXIT_MALFORMED
    try:
        cert = irred_int.generate_int_irred(list(obj.coeffs))
    except irred_int.NoCertificateFound as e:
        print(f"no certificate found: {e}", file=sys.stderr)
        return EXIT_REJECT
    except ValueError as e:
        print(f"bad input: {e}", file=sys.stderr)
        return EXIT_MALFORMED
    out = args.output or (args.polyfile + ".cert.json")
    _write(out, cert)
    if isinstance(cert, irred_int.ReducibleWitnessInt):
        print(f"reducible: factor {list(cert.factor)} (witness written to {out})")
    else:
        print(f"irreducible: certificate written to {out}")
    return EXIT_ACCEPT


def _cmd_gen_bundle(args) -> int:
    poly = _load(args.polyfile)
    basis = _load(args.basisfile)
    if not isinstance(poly, certio.InputPolynomial) or not isinstance(
        basis, certio.InputOrderBasis
    ):
        print("gen bundle expects input/polynomial and input/order-basis files", file=sys.stderr)
        return EXIT_MALFORMED
    try:
        bundle = pipeline.generate_bundle(
            list(poly.coeffs),
            basis.denominator,
            [list(c) for c in basis.columns],
            claimed_disc=args.disc,
        )
    except pipeline.BundleError as e:
        if e.report is not None:
            coords = list(e.report.coords)
            print(f"not maximal at {e.report.p}: kernel element {coords}", file=sys.stderr)
        else:
            print(f"generation failed: {e}", file=sys.stderr)
        return EXIT_REJECT
    except irred_int.NoCertificateFound as e:
        print(f"no certificate found: {e}", file=sys.stderr)
        return EXIT_REJECT
    out = args.output or (args.polyfile + ".bundle.json")
    _write(out, bundle)
    print(f"bundle written to {out}")
    return EXIT_ACCEPT


def _cmd_verify(args) -> int:
    obj = _load(args.certfile)
    try:
        verdict = verify_certificate(obj)
    except ValueError as e:
        print(f"cannot verify standalone: {e}", file=sys.stderr)
        return EXIT_MALFORMED
    return _emit_verdict(verdict, args.json_verdict)


def _cmd_disc(args) -> int:
    obj = _load(args.bundlefile)
    if not isinstance(obj, pipeline.CertificateBundle):
        print("disc expects a bundle file", file=sys.stderr)
        return EXIT_MALFORMED
    verdict, disc = pipeline.verify_bundle_with_disc(obj)
    if not verdict:
        print(verdict.reason, file=sys.stderr)
        return EXIT_REJECT
    print(disc)
    return EXIT_ACCEPT


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="ringcert",
        description="Generate and verify irreducibility and ring-of-integers certificates.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    gen = sub.add_parser("gen", help="produce certificates (the untrusted side)")
    gen_sub = gen.add_subparsers(dest="gen_command", required=True)

    g_irred = gen_sub.add_parser("irred", help="irreducibility over the integers")
    g_irred.add_argument("polyfile")
    g_irred.add_argument("-o", "--output")
    g_irred.set_defaults(func=_cmd_gen_irred)

    g_bundle = gen_sub.add_parser("bundle", help="full ring-of-integers bundle")
    g_bundle.add_argument("polyfile")
    g_bundle.add_argument("basisfile")
    g_bundle.add_argument("-o", "--output")
    g_bundle.add_argument("--disc", type=int, default=None,
                          help="embed a discriminant claim in the bundle")
    g_bundle.set_defaults(func=_cmd_gen_bundle)

    v = sub.add_parser("verify", help="re-check a certificate file")
    v.add_argument("certfile")
    v.add_argument("--json-verdict", action="store_true")
    v.set_defaults(func=_cmd_verify)

    d = sub.add_parser("disc", help="verify a bundle and print its discriminant")
    d.add_argument("bundlefile")
    d.set_defaults(func=_cmd_disc)

    return parser


@functools.cache
def _parser() -> argparse.ArgumentParser:
    """`build_parser()`, built once: a build takes about 1 ms."""
    return build_parser()


def main(argv=None) -> int:
    try:
        args = _parser().parse_args(argv)
        return args.func(args)
    except SystemExit as e:
        return e.code if isinstance(e.code, int) else EXIT_MALFORMED


if __name__ == "__main__":
    sys.exit(main())
