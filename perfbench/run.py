"""ringcert benchmark: one workload, one run, one JSON line.

    python3 perfbench/run.py --workload bundle --seed 0 --seconds 30 --trace 0

Run from the root of a ringcert checkout.  Steps:

1. perfbench/oracle.py, in its own process, draws the workload from the seed
   and computes the reference answers with sympy.
2. This process sets up (imports ringcert, writes the input files; for
   `hostile` also generates the honest certificates and forges the corpus),
   several times, and keeps the median as ``setup_s``.
3. One untimed pass over the defect probes (the inputs in KNOWN_DEFECTS),
   before the ``--seconds`` start.
4. Closed loop, one operation at a time on one thread: generation passes
   (every input through the generator to bytes on disk; at least
   MIN_GEN_PASSES, and more while under GEN_SHARE of ``--seconds``), then
   verification passes (every certificate file from file to verdict
   through the CLI) until ``--seconds`` is used.  Every outcome is checked
   against the reference.  A pass time is the sum over inputs of each
   input's median time over the passes.  Times are reported at a reference
   machine speed, see `Speedometer`.

With ``--trace 1`` the run instead makes one untraced and one traced pass of
the same work, checks that verdicts and output bytes agree, and reports the
per-layer metrics (see perfbench/README.md).

The last line of stdout is the JSON result; the lines before it repeat every
metric with its unit, plus the correctness counts.  Exit status 0 means the
run completed, not that every answer was right: see ``correct``.
"""

from __future__ import annotations

import argparse
import bisect
import contextlib
import gc
import hashlib
import importlib
import io
import json
import os
import re
import resource
import shutil
import statistics
import subprocess
import sys
from pathlib import Path
from time import perf_counter

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import corpus  # noqa: E402
from tracer import Tracer, ringcert_modules  # noqa: E402

WORKLOADS = ("bundle", "irred", "hostile")
GEN_SHARE = 0.6
MIN_GEN_PASSES = 2
SETUP_REPS = 9
SETUP_BUDGET_S = 8.0   # stop repeating set-up early once this much time is spent
MIN_SETUP_REPS = 3
# verify_ms_tail is the time of the TAIL_RANK-th slowest certificate file,
# each file at its median over the passes, so one slow operation does not
# move it.  A percentile over all samples moved with whichever outliers of
# other files landed next to it.  Rank 2, because on `hostile` the slowest
# file (forged base-p) is already most of verify_s.
TAIL_RANK = 2
MIN_VERIFY_PASSES = 8
ORACLE_TIMEOUT_S = 150
WORK_DIR = ".perfbench_run"

# Inputs the seed program is known to get wrong, with the outcome it gives.
# They are the defect probes: taken out of the measured operations, so that
# `attempted` and `failed` count only inputs the program handles, and run
# once per run on their own.  Their outcomes are printed and counted in
# `failed_share`, `wrong_answers` and the `defects.*` per-layer metrics.  A
# probe that gives its documented outcome or "ok" keeps the run correct; any
# other outcome, like any failed measured operation, makes it incorrect.
KNOWN_DEFECTS = {
    "hostile/forged/gf15-x2+1": "wrong",           # p = 15 is never checked for primality
    "hostile/malformed/int-4301-digits": "crash",  # ValueError from int(), not exit 2
    "hostile/malformed/deep-nesting": "crash",     # RecursionError from json, not exit 2
    "irred/seeded/product-g3-h4": "exhausted",     # brute-force factor search runs out
}

END_TO_END = (
    ("setup_s", "s"), ("gen_s", "s"), ("verify_s", "s"), ("verify_ms_tail", "ms"),
    ("cert_kib", "KiB"), ("peak_rss_mib", "MiB"),
)

_SELF = "self_s"
PER_LAYER = tuple(
    [(f"exactalg.{n}", u) for n, u in (
        ("list_mul.self_s", "s"), ("list_mul.calls", "count"),
        ("list_mul.coeff_products", "count"), ("list_pow.self_s", "s"),
        ("poly_divmod.self_s", "s"), ("poly_mod_pow.self_s", "s"),
        ("poly_xgcd.self_s", "s"), ("content.calls", "count"))]
    + [(f"linalg.{n}", u) for n, u in (
        ("solve_upper_triangular.self_s", "s"), ("solve_exact.self_s", "s"),
        ("solve_exact.calls", "count"), ("det_bareiss.self_s", "s"),
        ("pattern_reduce_fp.self_s", "s"), ("nullspace_fp.self_s", "s"))]
    + [(f"primality.{n}", u) for n, u in (
        ("factorize.self_s", "s"), ("factorize.calls", "count"),
        ("generate_pratt.self_s", "s"), ("verify_pratt.self_s", "s"),
        ("certify_prime_for_verifier.self_s", "s"), ("is_prime_trial.self_s", "s"))]
    + [(f"irred_ff.{n}", u) for n, u in (
        ("factor_poly.self_s", "s"), ("generate_rabin.self_s", "s"),
        ("verify_rabin.self_s", "s"), ("verify_rabin.calls", "count"))]
    + [(f"irred_int.{n}", u) for n, u in (
        ("generate_int_irred.self_s", "s"), ("verify_degree_analysis.self_s", "s"),
        ("verify_lpfw.self_s", "s"), ("route.analysis", "count"), ("route.lpfw", "count"),
        ("route.reducible", "count"), ("route.exhausted", "count"))]
    + [(f"orders.{n}", "s") for n in (
        "build_order_description.self_s", "theta_coordinates.self_s", "tt_pow.self_s",
        "verify_order_builder.self_s")]
    + [(f"maximality.{n}", u) for n, u in (
        ("generate_dedekind.self_s", "s"), ("generate_pmax.self_s", "s"),
        ("verify_dedekind.self_s", "s"), ("verify_pmax_short.self_s", "s"),
        ("verify_pmax_long.self_s", "s"), ("kind.dedekind", "count"),
        ("kind.short", "count"), ("kind.long", "count"))]
    + [(f"resultants.{n}", "s") for n in (
        "resultant.self_s", "check_order_discriminant.self_s", "disc_order.self_s")]
    + [(f"pipeline.{n}", u) for n, u in (
        ("generate_bundle.self_s", "s"), ("verify_bundle.self_s", "s"),
        ("verify_bundle.calls", "count"))]
    + [(f"certio.{n}", u) for n, u in (
        ("serialize.self_s", "s"), ("parse.self_s", "s"), ("bytes.bundle", "B"),
        ("bytes.degree-analysis", "B"), ("bytes.lpfw", "B"), ("bytes.reducible-int", "B"),
        ("bytes.rabin-ff", "B"))]
    + [(f"cli.{n}", u) for n, u in (
        ("main.self_s", "s"), ("exit.0", "count"), ("exit.1", "count"),
        ("exit.2", "count"), ("exit.crash", "count"))]
    + [("trace.overhead_ratio", "ratio")]
    + [("defects.failed", "count"), ("defects.wrong_answers", "count")]
)


def _reference_kernel():
    """Fixed pure-Python work shaped like ringcert's inner loops."""
    a, b, p = range(1, 61), range(7, 67), 1_000_003
    out = [0] * 119
    for i, x in enumerate(a):
        for j, y in enumerate(b):
            out[i + j] = (out[i + j] + x * y) % p
    return out


class Speedometer:
    """Tracks how fast the machine runs Python right now.

    On a shared VM the same work takes up to 1.6 times longer from one
    minute to the next.  Between operations, at most every SAMPLE_EVERY_S,
    this times REF_REPS calls of `_reference_kernel`.  `scale(start, end)`
    gives REF_KERNEL_S divided by the median kernel time within WINDOW_S of
    an interval; multiplying a measured time by it reports the time at the
    reference speed.  Raw times are printed alongside.
    """

    REF_KERNEL_S = 350e-6   # kernel time at the reference speed
    REF_REPS = 8
    SAMPLE_EVERY_S = 0.25
    WINDOW_S = 1.0

    def __init__(self):
        self.times, self.kernel_s = [], []
        self.sample()

    def sample(self):
        start = perf_counter()
        for _ in range(self.REF_REPS):
            _reference_kernel()
        end = perf_counter()
        self.times.append((start + end) / 2)
        self.kernel_s.append((end - start) / self.REF_REPS)

    def tick(self):
        if perf_counter() - self.times[-1] >= self.SAMPLE_EVERY_S:
            self.sample()

    def scale(self, start, end):
        lo = bisect.bisect_left(self.times, start - self.WINDOW_S)
        hi = bisect.bisect_right(self.times, end + self.WINDOW_S)
        near = self.kernel_s[lo:hi]
        if len(near) < 3:
            mid = (start + end) / 2
            order = sorted(range(len(self.times)), key=lambda k: abs(self.times[k] - mid))
            near = [self.kernel_s[k] for k in order[:3]]
        return self.REF_KERNEL_S / statistics.median(near)


class Op:
    """One operation: its id, start and end, outcome class and a fingerprint
    of its output (exit code and stdout, or the bytes written)."""

    __slots__ = ("id", "start", "end", "outcome", "fingerprint", "size")

    def __init__(self, id, start, end, outcome, fingerprint, size=0):
        self.id, self.start, self.end, self.outcome = id, start, end, outcome
        self.fingerprint, self.size = fingerprint, size

    @property
    def raw_s(self):
        return self.end - self.start


class Bench:
    def __init__(self, workload, work, manifest_path):
        self.workload, self.work = workload, work
        self.manifest_path = manifest_path
        self.tracer = None
        self.exit_counts = {}
        self.speed = Speedometer()

    # -- set-up --------------------------------------------------------------

    def setup(self):
        """Import ringcert afresh and get every input ready; returns the
        generation ops for `hostile`, whose honest certificates are made here."""
        for name in list(ringcert_modules()):
            del sys.modules[name]
        self.cli = importlib.import_module("ringcert.cli")
        self.certio = sys.modules["ringcert.certio"]
        self.irred_ff = sys.modules["ringcert.irred_ff"]
        self.manifest = json.loads(Path(self.manifest_path).read_text())
        inputs = self.work / "inputs"
        shutil.rmtree(inputs, ignore_errors=True)
        inputs.mkdir(parents=True)
        (self.work / "out").mkdir(exist_ok=True)
        gen_items = []
        for k, item in enumerate(self.manifest["gen"]):
            entry = dict(item, key=f"{k:02d}")
            if "T" in item:
                entry["poly"] = str(inputs / f"{k:02d}.poly.json")
                entry["basis"] = str(inputs / f"{k:02d}.basis.json")
                self.certio.write_file(entry["poly"], self.certio.InputPolynomial(item["T"]))
                self.certio.write_file(entry["basis"], self.certio.InputOrderBasis(
                    item["d"], [tuple(c) for c in item["columns"]]))
            elif item.get("kind") == "int":
                entry["poly"] = str(inputs / f"{k:02d}.poly.json")
                self.certio.write_file(entry["poly"], self.certio.InputPolynomial(item["f"]))
            gen_items.append(entry)
        self.gen_items = [e for e in gen_items if not self.is_probe(e)]
        self.probe_gen = [e for e in gen_items if self.is_probe(e)]
        self.verify_items, self.probe_verify = [], []
        if self.workload != "hostile":
            return None
        ops = self.gen_pass()
        honest = {e["id"].split("/", 1)[1]: Path(e["out"]).read_bytes()
                  for e in self.gen_items}
        corpus_dir = self.work / "corpus"
        shutil.rmtree(corpus_dir, ignore_errors=True)
        corpus_dir.mkdir()
        for k, (cid, data, expect) in enumerate(
                corpus.build(honest, self.manifest["gf15"], self.manifest["corpus_seed"])):
            path = corpus_dir / f"{k:03d}.json"
            path.write_bytes(data)
            item = {"id": cid, "path": str(path), "bundle": b'"kind":"bundle"' in data[:120],
                    "expect": expect}
            (self.probe_verify if self.is_probe(item) else self.verify_items).append(item)
        return ops

    def is_probe(self, item):
        return f"{self.workload}/{item['id']}" in KNOWN_DEFECTS

    def probe(self):
        """One pass over the defect probes, kept apart from the measured ops."""
        return self.gen_pass(self.probe_gen) + self.verify_pass(self.probe_verify)

    # -- running the CLI in-process -------------------------------------------

    def run_cli(self, argv):
        out, err = io.StringIO(), io.StringIO()
        error = None
        start = perf_counter()
        try:
            with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                code = self.cli.main(argv)
        except Exception as e:  # a traceback where the CLI promises 0, 1 or 2
            code, error = "crash", e
        end = perf_counter()
        self.exit_counts[str(code)] = self.exit_counts.get(str(code), 0) + 1
        return code, out.getvalue(), err.getvalue(), error, (start, end)

    # -- generation ------------------------------------------------------------

    def gen_pass(self, items=None):
        ops = []
        for item in self.gen_items if items is None else items:
            if self.tracer is not None:
                self.tracer.item = item["id"]
            item["out"] = str(self.work / "out" / f"{item['key']}.cert.json")
            if os.path.exists(item["out"]):
                os.remove(item["out"])
            if item.get("kind") == "ff":
                ops.append(self._gen_ff(item))
            else:
                ops.append(self._gen_cli(item))
            self.speed.tick()
        return ops

    def _gen_ff(self, item):
        start = perf_counter()
        try:
            cert = self.irred_ff.generate_rabin(item["f"], item["p"], t=item.get("t"))
            self.certio.write_file(item["out"], cert)
        except Exception as e:
            return Op(item["id"], start, perf_counter(), "crash", repr(e))
        end = perf_counter()
        data = Path(item["out"]).read_bytes()
        outcome = "ok" if type(cert).__name__ == "RabinCertificate" else "wrong"
        return Op(item["id"], start, end, outcome, hashlib.sha256(data).hexdigest(), len(data))

    def _gen_cli(self, item):
        if "T" in item:
            argv = ["gen", "bundle", item["poly"], item["basis"], "-o", item["out"]]
        else:
            argv = ["gen", "irred", item["poly"], "-o", item["out"]]
        code, out, err, error, span = self.run_cli(argv)
        expect = item["expect"]
        data = Path(item["out"]).read_bytes() if os.path.exists(item["out"]) else b""
        if code == "crash":
            outcome = "exhausted" if type(error).__name__ == "NoCertificateFound" else "crash"
        elif code == 1 and "no certificate found" in err:
            outcome = "exhausted"
        elif expect in ("accept", "irreducible"):
            ok = code == 0 and data and (expect == "accept" or out.startswith("irreducible"))
            outcome = "ok" if ok else "wrong"
        elif expect == "reducible":
            ok = (code == 1 and "defining polynomial is reducible" in err) if "T" in item \
                else (code == 0 and out.startswith("reducible"))
            outcome = "ok" if ok else "wrong"
        else:  # not-maximal
            m = re.search(r"not maximal at (\d+)", err)
            outcome = "ok" if code == 1 and m and int(m.group(1)) in item["primes"] else "wrong"
        fingerprint = f"{code}:{hashlib.sha256(data).hexdigest()}:{out}"
        return Op(item["id"], *span, outcome, fingerprint, len(data))

    def verify_items_from(self, gen_ops):
        """Every certificate file the generator wrote, with what it must verify to."""
        items = []
        for item, op in zip(self.gen_items, gen_ops):
            if not op.size:
                continue
            items.append({"id": item["id"], "path": item["out"], "bundle": "T" in item,
                          "expect": "accept" if op.outcome == "ok" else "reject",
                          "disc": item.get("disc")})
        return items

    # -- verification ------------------------------------------------------------

    def verify_pass(self, items=None):
        ops = []
        for item in self.verify_items if items is None else items:
            if self.tracer is not None:
                self.tracer.item = item["id"]
            argv = ["disc" if item["bundle"] else "verify", item["path"]]
            code, out, _err, _error, span = self.run_cli(argv)
            expect = item["expect"]
            if code == "crash":
                outcome = "crash"
            elif expect == "accept":
                good = code == 0 and (not item["bundle"] or out.strip() == item.get("disc"))
                outcome = "ok" if good else ("unexpected" if code == 2 else "wrong")
            elif expect == "reject":
                outcome = "ok" if code == 1 else ("wrong" if code == 0 else "unexpected")
            else:  # malformed
                outcome = "ok" if code == 2 else ("wrong" if code == 0 else "unexpected")
            ops.append(Op(item["id"], *span, outcome, f"{code}:{out}"))
            self.speed.tick()
        return ops


def run_oracle(workload, seed, work, root):
    manifest = work / "manifest.json"
    subprocess.run(
        [sys.executable, str(HERE / "oracle.py"), "--workload", workload, "--seed", str(seed),
         "--out", str(manifest), "--cache", str(root / WORK_DIR / f"oracle-cache-{workload}.json")],
        cwd=root, check=True, timeout=ORACLE_TIMEOUT_S)
    return manifest


def classify(ops, workload):
    """(failed, wrong answers, unexpected outcomes) of a list of ops.  An
    outcome other than "ok" is unexpected unless it is a probe's documented one."""
    failed = wrong = 0
    unexpected = set()
    for op in ops:
        if op.outcome == "ok":
            continue
        failed += 1
        wrong += op.outcome == "wrong"
        if KNOWN_DEFECTS.get(f"{workload}/{op.id}") != op.outcome:
            unexpected.add(f"{op.id}:{op.outcome}")
    return failed, wrong, sorted(unexpected)


def probe_report(probe_ops, workload):
    """Probe counts and a printable line per probe."""
    failed, wrong, unexpected = classify(probe_ops, workload)
    lines = [f"{op.id}: {op.outcome} (known defect: {KNOWN_DEFECTS[f'{workload}/{op.id}']})"
             for op in probe_ops]
    return failed, wrong, unexpected, lines


def measure(bench, seconds):
    speed = bench.speed
    setup_spans, setup_gen = [], []
    begin = perf_counter()
    while len(setup_spans) < SETUP_REPS and (
            len(setup_spans) < MIN_SETUP_REPS or perf_counter() - begin < SETUP_BUDGET_S):
        speed.sample()
        start = perf_counter()
        gen_ops = bench.setup()
        setup_spans.append((start, perf_counter()))
        # the modules of the previous import sit in reference cycles; without
        # this, peak memory grows with the number of set-ups
        gc.collect()
        if gen_ops is not None:
            setup_gen.append(gen_ops)
    probe_ops = bench.probe()
    speed.sample()

    start = perf_counter()
    gen_passes = []
    if bench.workload == "hostile":
        gen_passes = setup_gen
    else:
        while len(gen_passes) < MIN_GEN_PASSES or perf_counter() - start < GEN_SHARE * seconds:
            gen_passes.append(bench.gen_pass())
        bench.verify_items = bench.verify_items_from(gen_passes[0])
    verify_passes = []
    while len(verify_passes) < MIN_VERIFY_PASSES or perf_counter() - start < seconds:
        verify_passes.append(bench.verify_pass())
    speed.sample()

    def at_ref(op):
        return op.raw_s * speed.scale(op.start, op.end)

    def per_input(passes, time=at_ref):
        """Each input's median time over the passes."""
        return [statistics.median(map(time, ops)) for ops in zip(*passes)]

    def raw(op):
        return op.raw_s

    ver_files = per_input(verify_passes)
    tail_file = sorted(range(len(ver_files)), key=ver_files.__getitem__)[-TAIL_RANK]

    gen_lat = [at_ref(op) for ops in gen_passes for op in ops]
    ver_lat = [at_ref(op) for ops in verify_passes for op in ops]
    deterministic = all(
        [op.fingerprint for op in ops] == [op.fingerprint for op in gen_passes[0]]
        for ops in gen_passes
    ) and all(
        [op.fingerprint for op in ops] == [op.fingerprint for op in verify_passes[0]]
        for ops in verify_passes)
    counted = [op for ops in (gen_passes[-1:] if bench.workload == "hostile" else gen_passes)
               + verify_passes for op in ops]
    attempted = len(counted)
    failed, wrong, unexpected = classify(counted, bench.workload)
    probe_failed, probe_wrong, probe_unexpected, probe_lines = probe_report(
        probe_ops, bench.workload)
    metrics = {
        "setup_s": statistics.median((b - a) * speed.scale(a, b) for a, b in setup_spans),
        "gen_s": sum(per_input(gen_passes)),
        "verify_s": sum(ver_files),
        "verify_ms_tail": 1000 * ver_files[tail_file],
        "cert_kib": sum(op.size for op in gen_passes[0]) / 1024,
        "peak_rss_mib": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
    }
    kernel = statistics.median(speed.kernel_s)
    info = {
        "failed_share": (failed + probe_failed) / (attempted + len(probe_ops)),
        "wrong_answers": wrong + probe_wrong,
        "gen_ms_p50": 1000 * statistics.median(gen_lat),
        "verify_ms_p50": 1000 * statistics.median(ver_lat),
        "setup_reps": len(setup_spans), "gen_passes": len(gen_passes),
        "gen_samples": len(gen_lat), "verify_passes": len(verify_passes),
        "verify_files": len(ver_files), "verify_samples": len(ver_lat),
        "tail_file": verify_passes[0][tail_file].id,
        "raw_setup_s": statistics.median(b - a for a, b in setup_spans),
        "raw_gen_s": sum(per_input(gen_passes, raw)),
        "raw_verify_s": sum(per_input(verify_passes, raw)),
        "speed": f"reference kernel {kernel * 1e6:.1f} us (median of {len(speed.kernel_s)}), "
                 f"reported at {Speedometer.REF_KERNEL_S * 1e6:.1f} us",
        "deterministic": deterministic, "unexpected": unexpected + probe_unexpected,
        "defect_probes": probe_lines,
    }
    correct = deterministic and not unexpected and not probe_unexpected
    return metrics, attempted, failed, correct, info


def measure_traced(bench, trace_path):
    bench.setup()

    def one_pass():
        probe = bench.probe()
        gen = bench.gen_pass()
        if bench.workload != "hostile":
            bench.verify_items = bench.verify_items_from(gen)
        ver = bench.verify_pass()
        return probe, gen, ver

    plain_probe, plain_gen, plain_ver = one_pass()
    bench.exit_counts = {}
    tracer = bench.tracer = Tracer()
    tracer.install()
    try:
        traced_probe, traced_gen, traced_ver = one_pass()
    finally:
        tracer.uninstall()
        bench.tracer = None
    bench.speed.sample()
    tracer.write_spans(trace_path)

    def at_ref(ops):
        return sum(op.raw_s * bench.speed.scale(op.start, op.end) for op in ops)

    plain, traced = plain_probe + plain_gen + plain_ver, traced_probe + traced_gen + traced_ver
    same = ([op.fingerprint for op in plain] == [op.fingerprint for op in traced]
            and [op.outcome for op in plain] == [op.outcome for op in traced])
    probe_failed, probe_wrong, probe_unexpected, probe_lines = probe_report(
        traced_probe, bench.workload)
    metrics = {}
    for name, _unit in PER_LAYER:
        if name == "trace.overhead_ratio":
            metrics[name] = at_ref(traced) / at_ref(plain)
        elif name == "defects.failed":
            metrics[name] = probe_failed
        elif name == "defects.wrong_answers":
            metrics[name] = probe_wrong
        elif name.startswith("cli.exit."):
            metrics[name] = bench.exit_counts.get(name.rpartition(".")[2], 0)
        elif name.endswith(".self_s"):
            metrics[name] = tracer.self_time.get(name[: -len(".self_s")], 0.0)
        elif name.endswith(".calls"):
            metrics[name] = tracer.calls.get(name[: -len(".calls")], 0)
        else:
            metrics[name] = tracer.counts.get(name, 0)
    counted = traced_gen + traced_ver
    failed, wrong, unexpected = classify(counted, bench.workload)
    info = {"failed_share": (failed + probe_failed) / len(traced),
            "wrong_answers": wrong + probe_wrong,
            "spans": len(tracer.spans), "span_file": str(trace_path),
            "same_with_and_without_tracing": same, "unexpected": unexpected + probe_unexpected,
            "defect_probes": probe_lines,
            "raw_untraced_s": sum(op.raw_s for op in plain),
            "raw_traced_s": sum(op.raw_s for op in traced)}
    correct = same and not unexpected and not probe_unexpected
    return metrics, len(counted), failed, correct, info


def main(argv=None):
    ap = argparse.ArgumentParser(description="Run one benchmark workload once.")
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    root = Path.cwd()
    if not (root / "src" / "ringcert" / "__init__.py").is_file():
        print("perfbench: run from the root of a ringcert checkout (no src/ringcert here)",
              file=sys.stderr)
        return 2
    sys.path.insert(0, str(root / "src"))
    work = root / WORK_DIR / f"{args.workload}-{args.seed}-{os.getpid()}"
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    try:
        manifest = run_oracle(args.workload, args.seed, work, root)
        bench = Bench(args.workload, work, manifest)
        if args.trace:
            trace_path = root / WORK_DIR / f"spans-{args.workload}-{args.seed}.jsonl"
            metrics, attempted, failed, correct, info = measure_traced(bench, trace_path)
            units = dict(PER_LAYER)
        else:
            metrics, attempted, failed, correct, info = measure(bench, args.seconds)
            units = dict(END_TO_END)
    finally:
        shutil.rmtree(work, ignore_errors=True)

    print(f"workload {args.workload}  seed {args.seed}  trace {args.trace}")
    for name, value in metrics.items():
        print(f"  {name:40s} {value:16.6f} {units[name]}")
    print("  not bounded:")
    print(f"  {'failed_share':40s} {info.pop('failed_share'):16.6f} ratio")
    print(f"  {'wrong_answers':40s} {info.pop('wrong_answers'):16d} count")
    for name in ("gen_ms_p50", "verify_ms_p50"):
        if name in info:
            print(f"  {name:40s} {info.pop(name):16.6f} ms")
    for line in info.pop("defect_probes"):
        print(f"  defect probe {line}")
    for key, value in info.items():
        print(f"  {key}: {value}")
    result = {"correct": bool(correct), "attempted": attempted, "failed": failed,
              "metrics": {name: {"value": value, "unit": units[name]}
                          for name, value in metrics.items()}}
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
