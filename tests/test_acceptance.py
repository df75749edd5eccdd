"""Acceptance criteria, one test per criterion, each printing a pass/fail line.

Run with `pytest tests/test_acceptance.py -v -s` to see the lines as they
complete.  Every tolerance is exact (integer or rational equality); the
only numeric limits are the per-criterion wall-clock budgets.
"""

import itertools
import json
import random
import time
from contextlib import contextmanager
from fractions import Fraction

import pytest

from ringcert import certio, maximality
from ringcert.cli import main as cli_main
from ringcert.exactalg import (
    ZZ,
    deg,
    drop_trailing_zeros,
    list_mul,
    poly_divmod,
)
from ringcert.irred_ff import RabinCertificate, generate_rabin, verify_rabin, verify_reducible_witness
from ringcert.irred_int import generate_int_irred, verify_lpfw
from ringcert.maximality import generate_dedekind, generate_pmax, verify_dedekind
from ringcert.orders import build_order_description, tt_mul, verify_order_builder
from ringcert.pipeline import BundleError, generate_bundle, verify_bundle
from ringcert.primality import generate_pratt, verify_pratt
from reference import reseal, resultant


@contextmanager
def criterion(num, name, limit_s):
    t0 = time.perf_counter()
    try:
        yield
    except Exception:
        print(f"\nACCEPTANCE {num} ({name}): FAIL")
        raise
    dt = time.perf_counter() - t0
    ok = dt < limit_s
    print(f"\nACCEPTANCE {num} ({name}): {'PASS' if ok else 'FAIL'} "
          f"({dt:.3f}s, limit {limit_s}s)")
    assert ok, f"criterion {num} exceeded its time budget: {dt:.3f}s >= {limit_s}s"


def test_criterion_1_cauchy_bound_anchor():
    from ringcert.irred_int import cauchy_bound_scaled

    coeffs = [3, 14, 15, 92, 65]
    cauchy_bound_scaled(coeffs, Fraction(1, 2))  # warm any lazy imports
    with criterion(1, "scaled root bound on the worked list", 0.001):
        value = cauchy_bound_scaled(coeffs, Fraction(1, 2))
    assert value == Fraction(249, 130)


def test_criterion_2_discriminant_anchor():
    with criterion(2, "bundle and discriminant for X^3-30X-80", 5.0):
        bundle = generate_bundle(
            [-80, -30, 0, 1], 2, [[2, 0, 0], [0, 2, 0], [2, 0, 1]]
        )
        assert verify_bundle(bundle).accepted
        assert verify_bundle(bundle._replace(claimed_disc=-16200)).accepted


def test_criterion_3_non_monogenic_cubic():
    with criterion(3, "X^3-3X-10: good basis verifies, power basis fails at 2", 5.0):
        bundle = generate_bundle(
            [-10, -3, 0, 1], 2, [[2, 0, 0], [0, 2, 0], [0, 1, -1]]
        )
        assert verify_bundle(bundle).accepted
        with pytest.raises(BundleError) as exc:
            generate_bundle([-10, -3, 0, 1], 1, [[1, 0, 0], [0, 1, 0], [0, 0, 1]])
        assert exc.value.report is not None
        assert exc.value.report.p == 2
        assert any(x % 2 for x in exc.value.report.coords)


def _brute_force_irreducible(p, f):
    n = deg(f)
    if n <= 0:
        return False
    if n == 1:
        return True
    for d in range(1, n // 2 + 1):
        for tail in itertools.product(range(p), repeat=d):
            g = list(tail) + [1]
            if poly_divmod(p, f, g)[1] == []:
                return False
    return True


def test_criterion_4_rabin_vs_trial_division_exhaustive():
    with criterion(4, "irreducibility over GF(p) vs trial division, deg <= 4", 60.0):
        disagreements = 0
        total = 0
        for p in (2, 3, 5):
            for degree in (1, 2, 3, 4):
                for lead in range(1, p):
                    for tail in itertools.product(range(p), repeat=degree):
                        f = list(tail) + [lead]
                        total += 1
                        out = generate_rabin(f, p)
                        expect = _brute_force_irreducible(p, f)
                        if isinstance(out, RabinCertificate):
                            got = verify_rabin(out).accepted
                            if not (got and expect):
                                disagreements += 1
                        else:
                            ok = verify_reducible_witness(out).accepted
                            if not ok or expect:
                                disagreements += 1
        assert total == 3390
        assert disagreements == 0


def test_criterion_5_resultant_product_form():
    with criterion(5, "Sylvester determinant vs split product form", 30.0):
        mismatches = 0
        for p in (5, 7, 11):
            rng = random.Random(p * 1009)
            for _ in range(1000):
                n = rng.randrange(1, 5)
                m = rng.randrange(1, 5)
                a = rng.randrange(1, p)
                b = rng.randrange(1, p)
                alphas = [rng.randrange(p) for _ in range(n)]
                betas = [rng.randrange(p) for _ in range(m)]
                f = [a]
                for x in alphas:
                    f = list_mul(p, f, [(-x) % p, 1])
                g = [b]
                for y in betas:
                    g = list_mul(p, g, [(-y) % p, 1])
                prod = 1
                for x in alphas:
                    for y in betas:
                        prod = (prod * (x - y)) % p
                expected = (pow(-1, n * m, p) * pow(a, m, p) * pow(b, n, p) * prod) % p
                if resultant(p, f, g) != expected:
                    mismatches += 1
        assert mismatches == 0


CUBIC_FIXTURES = {
    "cubic_x3-3x-10": ([-10, -3, 0, 1], 2, [[2, 0, 0], [0, 2, 0], [0, 1, -1]]),
    "cubic_x3-30x-80": ([-80, -30, 0, 1], 2, [[2, 0, 0], [0, 2, 0], [2, 0, 1]]),
    "cubic_dedekind": ([-8, -2, -1, 1], 2, [[2, 0, 0], [0, 2, 0], [0, 1, 1]]),
}


def test_criterion_6_times_table_oracle():
    from reference import fraction_back_substitution, integral

    with criterion(6, "times-table products vs polynomial arithmetic", 10.0):
        for name, (T, d, cols) in CUBIC_FIXTURES.items():
            desc = build_order_description(T, d, cols)
            tt = verify_order_builder(desc, T)[1]
            n = desc.n
            b_mat = [[desc.basis_columns[j][i] for j in range(n)] for i in range(n)]
            rng = random.Random(sum(map(ord, name)))
            for _ in range(500):
                x = [rng.randrange(-50, 51) for _ in range(n)]
                y = [rng.randrange(-50, 51) for _ in range(n)]
                got = tt_mul(ZZ, tt, x, y)
                px = drop_trailing_zeros(
                    [sum(desc.basis_columns[k][i] * x[k] for k in range(n)) for i in range(n)]
                )
                py = drop_trailing_zeros(
                    [sum(desc.basis_columns[k][i] * y[k] for k in range(n)) for i in range(n)]
                )
                _, rem = poly_divmod(ZZ, list_mul(ZZ, px, py), T)
                rhs = rem + [0] * (n - len(rem))
                z = integral(fraction_back_substitution(b_mat, rhs, d))
                assert z is not None and drop_trailing_zeros(z) == got


# --- criterion 7: mutation robustness over serialized certificates --------

# base-2 and base-p digit chains coincide for p = 3, and kernel-lattice rows
# V/W admit equivalent lifts; all other fields are fair game
_MUTATION_EXCLUDED_KEYS = {"t", "V", "W"}


def _int_leaf_paths(node, prefix=()):
    if isinstance(node, dict):
        for key, value in sorted(node.items()):
            if key in _MUTATION_EXCLUDED_KEYS:
                continue
            yield from _int_leaf_paths(value, prefix + (key,))
    elif isinstance(node, list):
        for i, value in enumerate(node):
            yield from _int_leaf_paths(value, prefix + (i,))
    elif isinstance(node, str) and certio._INT_RE.match(node):
        yield prefix


def _mutate_at(payload, path, delta=1):
    node = payload
    for step in path[:-1]:
        node = node[step]
    node[path[-1]] = str(int(node[path[-1]]) + delta)


def _mutation_sweep(obj, verify, rounds, rng) -> tuple[int, int]:
    """Mutate one integer leaf at a time; count (rejected, accepted)."""
    base = json.loads(certio.serialize(obj))
    paths = list(_int_leaf_paths(base["payload"]))
    assert paths, "certificate has no mutable coefficients"
    rejected = accepted = 0
    for k in range(rounds):
        env = json.loads(certio.serialize(obj))
        path = paths[rng.randrange(len(paths))]
        _mutate_at(env["payload"], path)
        data = reseal(env["kind"], env["payload"])
        try:
            mutant = certio.parse(data)
        except certio.CertFormatError as e:
            assert str(e)
            rejected += 1
            continue
        verdict = verify(mutant)
        if verdict.accepted:
            accepted += 1
        else:
            assert verdict.reason
            rejected += 1
    return rejected, accepted


def test_criterion_7_mutation_robustness(monkeypatch):
    with criterion(7, "single-coefficient mutations are rejected", 60.0):
        rng = random.Random(0xC7)
        bundle = generate_bundle(
            [-10, -3, 0, 1], 2, [[2, 0, 0], [0, 2, 0], [0, 1, -1]]
        )
        tt = verify_order_builder(bundle.order, bundle.T)[1]

        rabin = generate_rabin([3, 3, 0, 4, 1], 5)
        assert isinstance(rabin, RabinCertificate)
        analysis = generate_int_irred([1, 0, 1])
        lpfw = generate_int_irred([1, 0, 0, 0, 1])
        pratt = generate_pratt(257)
        dedekind = generate_dedekind([-10, -3, 0, 1], 3)
        pshort = generate_pmax(tt, 2)
        assert isinstance(pshort, maximality.PMaxShortCertificate) and pshort.V
        monkeypatch.setattr(maximality, "WITNESS_BUDGET", 0)  # the long form
        plong = generate_pmax(tt, 2)
        assert isinstance(plong, maximality.PMaxLongCertificate)

        from ringcert.irred_int import verify_degree_analysis

        fixtures = [
            ("rabin-ff", rabin, verify_rabin),
            ("degree-analysis", analysis, verify_degree_analysis),
            ("lpfw", lpfw, verify_lpfw),
            ("pratt", pratt, verify_pratt),
            ("dedekind", dedekind, lambda c: verify_dedekind([-10, -3, 0, 1], 3, c)),
            ("pmax-short", pshort, lambda c: maximality.verify_pmax_short(tt, 2, c)),
            ("pmax-long", plong, lambda c: maximality.verify_pmax_long(tt, 2, c)),
            ("bundle", bundle, verify_bundle),
        ]
        for kind, obj, verify in fixtures:
            assert verify(obj).accepted, kind
            rejected, accepted = _mutation_sweep(obj, verify, 100, rng)
            assert accepted == 0, f"{kind}: {accepted} mutations slipped through"
            assert rejected == 100, kind


DEGREE5_FIXTURES = (
    "quintic_x5-x-1",
    "quintic_x5-2",
    "quintic_x5-4",
    "quintic_x5-8",
    "quintic_cos2pi11",
)


def test_criterion_8_degree5_bundles():
    with criterion(8, "five degree-5 bundles generate and verify", 600.0):
        forms = {}
        for name in DEGREE5_FIXTURES:
            fx = certio.FIXTURES[name]
            t0 = time.perf_counter()
            bundle = generate_bundle(
                list(fx["T"]), fx["d"], [list(c) for c in fx["columns"]]
            )
            assert verify_bundle(bundle).accepted, name
            claimed = bundle._replace(claimed_disc=fx["disc"])
            assert verify_bundle(claimed).accepted, name
            dt = time.perf_counter() - t0
            assert dt < 120.0, f"{name} took {dt:.1f}s"
            forms[name] = {
                e.p: type(e.cert).__name__.replace("Certificate", "")
                for e in bundle.primes
            }
        assert len(forms) >= 5
        # recorded, not asserted: which certificate form each prime needed
        print(f"\n  degree-5 certificate forms: {forms}")


def test_criterion_9_verdict_determinism(tmp_path):
    with criterion(9, "verdict JSON identical across repeated runs", 120.0):
        outputs = {}
        files = []
        for name, fx in certio.FIXTURES.items():
            if fx["columns"] is None:
                continue
            bundle = generate_bundle(
                list(fx["T"]), fx["d"], [list(c) for c in fx["columns"]]
            )
            path = tmp_path / f"{name}.bundle.json"
            certio.write_file(path, bundle)
            files.append(path)
        # also pin deterministic rejection output on a forged file
        env = json.loads(files[0].read_bytes())
        env["payload"]["theta_witness"].append("1")
        bad = tmp_path / "forged.bundle.json"
        bad.write_bytes(reseal(env["kind"], env["payload"]))
        files.append(bad)

        import io
        from contextlib import redirect_stderr, redirect_stdout

        for path in files:
            runs = []
            for _ in range(2):
                out, err = io.StringIO(), io.StringIO()
                with redirect_stdout(out), redirect_stderr(err):
                    cli_main(["verify", str(path), "--json-verdict"])
                runs.append(out.getvalue())
            assert runs[0] == runs[1], path.name
            doc = json.loads(runs[0])
            assert set(doc) == {"accepted", "reason", "schema_version"}
