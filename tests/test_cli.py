import json
import os
import shutil
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import pytest

import ringcert
from ringcert import certio, irred_int, resultants
from ringcert.cli import main
from ringcert.irred_ff import ReducibleWitness, generate_rabin
from ringcert.primality import generate_pratt
from ringcert.resultants import disc_poly
from reference import reseal


@pytest.fixture()
def fixture_files(tmp_path):
    src = Path(certio.__file__).parent / "fixtures"
    for f in src.glob("*.json"):
        shutil.copy(f, tmp_path / f.name)
    return tmp_path


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


class TestGenAndVerify:
    def test_bundle_round_trip(self, fixture_files, capsys):
        poly = str(fixture_files / "cubic_x3-30x-80.poly.json")
        basis = str(fixture_files / "cubic_x3-30x-80.basis.json")
        out = str(fixture_files / "out.bundle.json")
        code, _, _ = run_cli(capsys, "gen", "bundle", poly, basis, "-o", out)
        assert code == 0
        code, _, _ = run_cli(capsys, "verify", out)
        assert code == 0

    def test_disc_prints_value(self, fixture_files, capsys):
        poly = str(fixture_files / "cubic_x3-30x-80.poly.json")
        basis = str(fixture_files / "cubic_x3-30x-80.basis.json")
        out = str(fixture_files / "out.bundle.json")
        run_cli(capsys, "gen", "bundle", poly, basis, "-o", out)
        code, stdout, _ = run_cli(capsys, "disc", out)
        assert code == 0
        assert stdout.strip() == "-16200"

    def test_disc_computes_the_discriminant_once(self, fixture_files, capsys, monkeypatch):
        # verification computes disc(O) for the free primes and the claim,
        # and `disc` prints that value: the golden bundle carries a claim,
        # X^5 - X - 1 on its power basis none, and both primes of its
        # discriminant 2869 = 19 * 151 are free
        poly = str(fixture_files / "quintic_x5-x-1.poly.json")
        basis = str(fixture_files / "quintic_x5-x-1.basis.json")
        quintic = str(fixture_files / "quintic.bundle.json")
        assert run_cli(capsys, "gen", "bundle", poly, basis, "-o", quintic)[0] == 0
        bundle = certio.parse_file(quintic)
        assert bundle.claimed_disc is None and bundle.primes == ()
        assert [entry.p for entry in bundle.free_primes] == [19, 151]
        calls = []

        def counted(T):
            calls.append(T)
            return disc_poly(T)

        monkeypatch.setattr(resultants, "disc_poly", counted)
        golden = Path(__file__).parent / "golden" / "bundle.json"
        for path, disc in ((golden, certio.parse_file(golden).claimed_disc), (quintic, 2869)):
            calls.clear()
            code, stdout, _ = run_cli(capsys, "disc", str(path))
            assert (code, stdout) == (0, f"{disc}\n")
            assert len(calls) == 1

    def test_gen_irred_certificate(self, fixture_files, capsys):
        poly = str(fixture_files / "quartic_x4+1.poly.json")
        out = str(fixture_files / "x4.cert.json")
        code, stdout, _ = run_cli(capsys, "gen", "irred", poly, "-o", out)
        assert code == 0 and "irreducible" in stdout
        code, _, _ = run_cli(capsys, "verify", out)
        assert code == 0

    def test_gen_irred_reducible(self, fixture_files, capsys):
        target = fixture_files / "red.poly.json"
        certio.write_file(target, certio.InputPolynomial((-1, 0, 1)))
        out = str(fixture_files / "red.cert.json")
        code, stdout, _ = run_cli(capsys, "gen", "irred", str(target), "-o", out)
        assert code == 0 and "reducible" in stdout
        code, _, _ = run_cli(capsys, "verify", out)
        assert code == 0

    def test_gen_integer_over_4300_digits_exit_2(self, fixture_files, capsys, monkeypatch):
        huge = 10**4300
        monkeypatch.setattr(
            irred_int, "generate_int_irred",
            lambda f, **kw: irred_int.ReducibleWitnessInt((huge, 1), (huge,), (1, 1)),
        )
        out = fixture_files / "huge.cert.json"
        poly = str(fixture_files / "quartic_x4+1.poly.json")
        code, _, err = run_cli(capsys, "gen", "irred", poly, "-o", str(out))
        assert code == 2
        assert err.count("\n") == 1 and "more than 4300 digits" in err
        assert not out.exists()

    def test_gen_irred_wide_constant_term_finishes(self, fixture_files, capsys):
        # degree analysis proves X^2 - (10^30 + 57) irreducible, so nothing
        # that grows with the constant term (no big-prime factoring, no LPFW
        # search) may run first; a child process with a timeout fails the
        # test instead of hanging it
        poly = fixture_files / "wide.poly.json"
        certio.write_file(poly, certio.InputPolynomial((-(10**30 + 57), 0, 1)))
        out = fixture_files / "wide.cert.json"
        env = dict(os.environ)
        env["PYTHONPATH"] = os.pathsep.join(
            [str(Path(ringcert.__file__).parents[1]), env.get("PYTHONPATH", "")])
        proc = subprocess.run(
            [sys.executable, "-c", "import sys; from ringcert.cli import main; "
             "sys.exit(main(sys.argv[1:]))", "gen", "irred", str(poly), "-o", str(out)],
            env=env, capture_output=True, text=True, timeout=20,
        )
        assert proc.returncode == 0 and "irreducible" in proc.stdout
        assert certio.kind_of(certio.parse_file(out)) == "degree-analysis"
        code, _, _ = run_cli(capsys, "verify", str(out))
        assert code == 0

    def test_gen_irred_square_of_wide_constant_reducible_fast(self, fixture_files, capsys):
        # X^2 - c^2 splits modulo every prime; its linear factor comes from
        # Zassenhaus over the linear factors modulo one big prime, not from
        # the divisors of c^2, which trial division would take hours to list;
        # X + c is the first of them, since c < P - c
        c = 10**15 + 37
        poly = fixture_files / "square.poly.json"
        certio.write_file(poly, certio.InputPolynomial((-c * c, 0, 1)))
        out = fixture_files / "square.cert.json"
        env = dict(os.environ)
        env["PYTHONPATH"] = os.pathsep.join(
            [str(Path(ringcert.__file__).parents[1]), env.get("PYTHONPATH", "")])
        proc = subprocess.run(
            [sys.executable, "-c", "import sys, time; from ringcert.cli import main; "
             "start = time.perf_counter(); code = main(sys.argv[1:]); "
             "print(time.perf_counter() - start, file=sys.stderr); sys.exit(code)",
             "gen", "irred", str(poly), "-o", str(out)],
            env=env, capture_output=True, text=True, timeout=30,
        )
        assert proc.returncode == 0 and "reducible" in proc.stdout
        assert float(proc.stderr) < 1.0
        wit = certio.parse_file(out)
        assert list(wit.factor) == [c, 1] and list(wit.cofactor) == [-c, 1]
        code, _, _ = run_cli(capsys, "verify", str(out))
        assert code == 0

    def test_gen_irred_degree_one_beyond_small_primes(self, fixture_files, capsys):
        # every prime below 200 divides lc f, so degree analysis continues
        # with 211 instead of leaving a linear f to LPFW, whose Pratt
        # certificate for an ~80-digit prime can stay in rho for minutes
        c = 1
        for q in range(2, 200):
            if all(q % r for r in range(2, q)):
                c *= q
        poly = fixture_files / "linear.poly.json"
        certio.write_file(poly, certio.InputPolynomial((1, c)))
        out = fixture_files / "linear.cert.json"
        env = dict(os.environ)
        env["PYTHONPATH"] = os.pathsep.join(
            [str(Path(ringcert.__file__).parents[1]), env.get("PYTHONPATH", "")])
        proc = subprocess.run(
            [sys.executable, "-c", "import sys, time; from ringcert.cli import main; "
             "start = time.perf_counter(); code = main(sys.argv[1:]); "
             "print(time.perf_counter() - start, file=sys.stderr); sys.exit(code)",
             "gen", "irred", str(poly), "-o", str(out)],
            env=env, capture_output=True, text=True, timeout=30,
        )
        assert proc.returncode == 0 and "irreducible" in proc.stdout
        assert float(proc.stderr) < 1.0
        cert = certio.parse_file(out)
        assert certio.kind_of(cert) == "degree-analysis"
        assert [entry.p for entry in cert.per_prime] == [211]
        code, _, _ = run_cli(capsys, "verify", str(out))
        assert code == 0

    def test_power_basis_bundle_without_products(self, fixture_files, capsys):
        poly = str(fixture_files / "quintic_x5-x-1.poly.json")
        basis = str(fixture_files / "quintic_x5-x-1.basis.json")
        out = fixture_files / "power.bundle.json"
        code, _, _ = run_cli(capsys, "gen", "bundle", poly, basis, "-o", str(out))
        assert code == 0
        env = json.loads(out.read_bytes())
        assert env["payload"]["order"]["products"] == []
        assert run_cli(capsys, "verify", str(out))[0] == 0
        assert run_cli(capsys, "disc", str(out))[:2] == (0, "2869\n")
        # the order on its own still certifies nothing
        order = fixture_files / "power.order.json"
        order.write_bytes(reseal("order", env["payload"]["order"]))
        code, _, err = run_cli(capsys, "verify", str(order))
        assert code == 2
        assert "order certificates are only meaningful inside a bundle" in err

    def test_gen_bundle_without_certificate_exit_1(self, fixture_files, capsys, monkeypatch):
        # X^4 + 1 splits modulo every prime, so it needs LPFW, here given no points
        monkeypatch.setattr(irred_int, "LPFW_POINTS", 0)
        poly = str(fixture_files / "quartic_x4+1.poly.json")
        basis = str(fixture_files / "quartic_x4+1.basis.json")
        out = fixture_files / "x4.bundle.json"
        code, _, err = run_cli(capsys, "gen", "bundle", poly, basis, "-o", str(out))
        assert code == 1
        assert err == "no certificate found: no LPFW witness among 0 evaluation points\n"
        assert not out.exists()

    def test_not_maximal_reported(self, fixture_files, capsys):
        poly = str(fixture_files / "cubic_x3-3x-10.poly.json")
        basis = fixture_files / "power.basis.json"
        certio.write_file(
            basis,
            certio.InputOrderBasis(1, ((1, 0, 0), (0, 1, 0), (0, 0, 1))),
        )
        code, _, err = run_cli(capsys, "gen", "bundle", poly, str(basis))
        assert code == 1
        assert "not maximal at 2" in err
        assert "kernel element" in err


class TestVerifyRejection:
    def test_mutated_bundle_rejected(self, fixture_files, capsys):
        poly = str(fixture_files / "quad_x2-x+1.poly.json")
        basis = str(fixture_files / "quad_x2-x+1.basis.json")
        out = fixture_files / "q.bundle.json"
        run_cli(capsys, "gen", "bundle", poly, basis, "-o", str(out))
        env = json.loads(out.read_bytes())
        env["payload"]["theta_witness"] = ["1", "2"]
        out.write_bytes(reseal(env["kind"], env["payload"]))
        code, _, err = run_cli(capsys, "verify", str(out))
        assert code == 1
        assert "bundle/theta" in err

    def test_corrupt_file_exit_2(self, fixture_files, capsys):
        bad = fixture_files / "junk.json"
        bad.write_bytes(b'{"schema_version": "1"')
        code, _, err = run_cli(capsys, "verify", str(bad))
        assert code == 2
        assert "malformed" in err

    def test_integer_over_4300_digits_exit_2(self, fixture_files, capsys):
        env = json.loads(certio.serialize(generate_pratt(257)))
        env["payload"]["P"] = "9" * 4301
        bad = fixture_files / "long.json"
        bad.write_bytes(reseal(env["kind"], env["payload"]))
        code, _, err = run_cli(capsys, "verify", str(bad))
        assert code == 2
        assert "more than 4300 digits" in err

    def test_deeply_nested_json_exit_2(self, fixture_files, capsys):
        nested = b"[" * 100_000 + b"]" * 100_000
        bad = fixture_files / "deep.json"
        bad.write_bytes(b'{"kind":"pratt","payload":' + nested + b',"schema_version":"1"}')
        code, _, err = run_cli(capsys, "verify", str(bad))
        assert code == 2
        assert "malformed" in err

    def test_standalone_dedekind_exit_2(self, capsys):
        # the criterion says nothing at a composite modulus and a standalone
        # file certifies no prime, so only a bundle entry is checked
        golden = Path(__file__).parent / "golden" / "dedekind.json"
        code, _, err = run_cli(capsys, "verify", str(golden))
        assert code == 2
        assert "dedekind certificates are only meaningful inside a bundle" in err

    @pytest.mark.parametrize("p", [-7, 0, 1, 15])
    @pytest.mark.parametrize("kind", ["rabin", "reducible-ff"])
    def test_standalone_modulus_not_prime_exit_1(self, tmp_path, capsys, kind, p):
        # every identity in these files holds over Z/15 (and the factorization
        # over Z), so only the check that p is prime rejects them
        if kind == "rabin":
            cert = generate_rabin([1, 0, 1], 15)._replace(p=p)
        else:
            cert = ReducibleWitness(p, (2, 3, 1), (1, 1), (2, 1))
        path = tmp_path / "cert.json"
        certio.write_file(str(path), cert)
        code, _, err = run_cli(capsys, "verify", str(path))
        assert code == 1
        assert err.splitlines()[-1] == f"{kind}/prime/composite/p={p}"

    @pytest.mark.parametrize("cert,reason", [
        # the constant 1, written [1, 0], passed for a factor of degree 1
        (ReducibleWitness(3, (1, 0, 1), (1, 0), (1, 0, 1)), "reducible-ff/degree"),
        # X^2 + 1 is irreducible over Z (`generate_int_irred` proves it)
        (irred_int.ReducibleWitnessInt((1, 0, 1), (1, 0), (1, 0, 1)),
         "reducible-int/factor-unit"),
        (irred_int.ReducibleWitnessInt((1, 0, 1), (-1, 0), (-1, 0, -1)),
         "reducible-int/factor-unit"),
    ])
    def test_padded_unit_factor_rejected(self, tmp_path, capsys, cert, reason):
        path = tmp_path / "cert.json"
        certio.write_file(str(path), cert)
        code, _, err = run_cli(capsys, "verify", str(path))
        assert code == 1
        assert err.splitlines()[-1] == reason

    def test_lpfw_padded_polynomial_rejected(self, tmp_path, capsys):
        # f = X^4 + 1 written with a zero leading coefficient: its Cauchy
        # bound would divide by that coefficient
        env = json.loads((Path(__file__).parent / "golden" / "lpfw.json").read_bytes())
        env["payload"]["f"].append("0")
        env["payload"]["analysis"] = None
        path = tmp_path / "lpfw.json"
        path.write_bytes(reseal(env["kind"], env["payload"]))
        code, _, err = run_cli(capsys, "verify", str(path))
        assert code == 1
        assert err.splitlines()[-1] == "lpfw/degree"

    @pytest.mark.parametrize("kind", ["degree-analysis", "bundle"])
    def test_huge_multiplicity_rejected_without_the_product(
        self, tmp_path, capsys, monkeypatch, kind
    ):
        # the factor's multiplicity, raised to 10^12, would cost 10^12
        # products; the degree sum exceeds deg f after the first factor
        env = json.loads((Path(__file__).parent / "golden" / f"{kind}.json").read_bytes())
        analysis = env["payload"]
        if kind == "bundle":
            analysis = analysis["irreducibility"]["payload"]
        fmp = analysis["per_prime"][0]
        fmp["factors"][0][1] = str(10**12)
        path = tmp_path / f"{kind}.json"
        path.write_bytes(reseal(env["kind"], env["payload"]))
        calls = 0

        def counted(*args, real=irred_int.list_mul):
            nonlocal calls
            calls += 1
            if calls > 100:
                raise AssertionError("the factorization check multiplies without a bound")
            return real(*args)

        monkeypatch.setattr(irred_int, "list_mul", counted)
        code, _, err = run_cli(capsys, "disc" if kind == "bundle" else "verify", str(path))
        assert code == 1
        assert err.splitlines()[-1].endswith(f"analysis/p={fmp['p']}/product")

    def test_missing_file_exit_2(self, fixture_files, capsys):
        code, _, err = run_cli(capsys, "verify", str(fixture_files / "nope.json"))
        assert code == 2
        assert "no such file" in err

    @pytest.mark.parametrize("command", ["verify", "disc"])
    def test_directory_input_exit_2(self, tmp_path, capsys, command):
        code, out, err = run_cli(capsys, command, str(tmp_path))
        assert (code, out) == (2, "")
        assert err.startswith(f"cannot read {tmp_path}: ") and err.count("\n") == 1

    def test_output_in_missing_directory_exit_2(self, fixture_files, capsys):
        out = fixture_files / "missing" / "x.json"
        code, _, err = run_cli(capsys, "gen", "irred",
                               str(fixture_files / "quartic_x4+1.poly.json"), "-o", str(out))
        assert code == 2
        assert err.startswith(f"cannot write {out}: ") and err.count("\n") == 1
        assert not out.parent.exists()

    @staticmethod
    def _verify_timed(path):
        """(exit code, last reason line, seconds in cli.main) of `verify path`
        in a fresh interpreter."""
        env = dict(os.environ)
        env["PYTHONPATH"] = os.pathsep.join(
            [str(Path(ringcert.__file__).parents[1]), env.get("PYTHONPATH", "")])
        proc = subprocess.run(
            [sys.executable, "-c", "import sys, time; from ringcert.cli import main; "
             "start = time.perf_counter(); code = main(sys.argv[1:]); "
             "print(time.perf_counter() - start, file=sys.stderr); sys.exit(code)",
             "verify", str(path)],
            env=env, capture_output=True, text=True, timeout=60,
        )
        reason, elapsed = proc.stderr.splitlines()[-2:]
        return proc.returncode, reason, float(elapsed)

    def test_verify_lpfw_huge_scale_rejects_fast(self, fixture_files):
        # X^200 + 1 with r = 10^4299 and the golden file's m = 4: rho >= r,
        # so |m| < r + 1 rejects before r^200, 859800 digits, and the bound
        # on it are formed (13 s when they were)
        lpfw = certio.parse_file(Path(__file__).parent / "golden" / "lpfw.json")
        forged = lpfw._replace(f=(1,) + (0,) * 199 + (1,), r=10**4299, analysis=None)
        path = fixture_files / "lpfw-huge-r.json"
        certio.write_file(path, forged)
        code, reason, elapsed = self._verify_timed(path)
        assert (code, reason) == (1, "lpfw/evaluation-point")
        assert elapsed < 2.0

    def test_verify_lpfw_scale_near_one_rejects_fast(self, fixture_files):
        # X^200 + ... + 1 with r = (10^4299 + 1) / 10^4299 and m = 10^4299 + 2
        # passes |m| >= r + 1; r's 14282-bit numerator and denominator are
        # rejected before rho, whose 200 terms each have about 200 times
        # r's digits, is formed (110 s while it was)
        lpfw = certio.parse_file(Path(__file__).parent / "golden" / "lpfw.json")
        forged = lpfw._replace(f=(1,) * 201, r=Fraction(10**4299 + 1, 10**4299),
                               m=10**4299 + 2, analysis=None)
        path = fixture_files / "lpfw-scale.json"
        certio.write_file(path, forged)
        code, reason, elapsed = self._verify_timed(path)
        assert (code, reason) == (1, "lpfw/scale")
        assert elapsed < 1.0


class TestDeterminism:
    def test_json_verdict_repeatable(self, fixture_files, capsys):
        poly = str(fixture_files / "cubic_x3-3x-10.poly.json")
        basis = str(fixture_files / "cubic_x3-3x-10.basis.json")
        out = str(fixture_files / "det.bundle.json")
        run_cli(capsys, "gen", "bundle", poly, basis, "-o", out)
        outputs = []
        for _ in range(2):
            code, stdout, _ = run_cli(capsys, "verify", out, "--json-verdict")
            assert code == 0
            outputs.append(stdout)
        assert outputs[0] == outputs[1]
        doc = json.loads(outputs[0])
        assert doc == {"accepted": True, "reason": "", "schema_version": "verdict-1"}

    def test_gen_output_depends_on_input_alone(self, fixture_files):
        # two processes with different string hashing write the same bytes
        poly = str(fixture_files / "quintic_x5-4.poly.json")
        basis = str(fixture_files / "quintic_x5-4.basis.json")
        blobs = []
        for hash_seed in ("1", "2"):
            env = dict(os.environ, PYTHONHASHSEED=hash_seed)
            env["PYTHONPATH"] = os.pathsep.join(
                [str(Path(ringcert.__file__).parents[1]), env.get("PYTHONPATH", "")])
            outs = [fixture_files / f"h{hash_seed}.bundle.json",
                    fixture_files / f"h{hash_seed}.cert.json"]
            for argv in (["gen", "bundle", poly, basis, "-o", str(outs[0])],
                         ["gen", "irred", poly, "-o", str(outs[1])]):
                proc = subprocess.run(
                    [sys.executable, "-c", "import sys; from ringcert.cli import main; "
                     "sys.exit(main(sys.argv[1:]))", *argv],
                    env=env, capture_output=True, text=True, timeout=60,
                )
                assert proc.returncode == 0, proc.stderr
            blobs.append([out.read_bytes() for out in outs])
        assert blobs[0] == blobs[1]

    def test_gen_seed_flag_rejected(self, fixture_files, capsys):
        poly = str(fixture_files / "quintic_x5-4.poly.json")
        basis = str(fixture_files / "quintic_x5-4.basis.json")
        out = str(fixture_files / "seeded.bundle.json")
        # argparse rejects an unknown option with status 2
        assert main(["gen", "bundle", poly, basis, "-o", out, "--seed", "7"]) == 2
        assert "--seed" in capsys.readouterr().err
        assert not Path(out).exists()

    def test_usage_errors_return_argparse_codes(self, capsys):
        assert main(["verify"]) == 2
        assert "certfile" in capsys.readouterr().err
        assert main(["--help"]) == 0
        assert "usage: ringcert" in capsys.readouterr().out
        # the console script hands the code to sys.exit
        proc = subprocess.run(
            [sys.executable, "-c", "import sys; from ringcert.cli import main; sys.exit(main())",
             "verify"],
            env=dict(os.environ, PYTHONPATH=str(Path(ringcert.__file__).parents[1])),
            capture_output=True, text=True, timeout=60,
        )
        assert proc.returncode == 2 and "Traceback" not in proc.stderr
