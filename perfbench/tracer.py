"""Layer tracer that works from outside the program.

ringcert modules import each other's functions by name
(``from .exactalg import list_mul``), so wrapping a function in its home
module alone would miss most calls.  `Tracer.install` replaces every public
function of every loaded ``ringcert.*`` module at each place it is bound,
and `Tracer.uninstall` puts the originals back.

Each wrapped call adds to per-function totals: calls and self time (its
duration minus the time covered by wrapped calls made inside it).
Calls of functions outside `HOT` also record a span (name, start, end,
parent span, item id); spans stay in memory until `write_spans`.  Functions
in `COUNT_ONLY` are called so often that they record a call count and
nothing else, and `SKIP` lists constant-time helpers that are left alone.
The tracer never changes an argument or a result.
"""

from __future__ import annotations

import functools
import inspect
import json
import re
import sys
from collections import Counter, defaultdict
from time import perf_counter

# Arithmetic kernels: aggregate totals only, no span per call.
HOT = frozenset({
    "exactalg.list_mul", "exactalg.list_pow", "exactalg.poly_divmod",
    "exactalg.poly_mod_pow", "exactalg.poly_xgcd", "exactalg.poly_gcd",
    "exactalg.poly_eval", "orders.tt_mul", "primality.is_prime_trial",
    "primality.is_probable_prime", "irred_ff.base_digits",
})
COUNT_ONLY = frozenset({"exactalg.content"})
SKIP = frozenset({
    "exactalg.GF", "exactalg.drop_trailing_zeros", "exactalg.get_d", "exactalg.deg",
    "exactalg.lc", "exactalg.constant", "exactalg.list_add", "exactalg.list_neg",
    "exactalg.list_sub", "exactalg.mul_pointwise", "exactalg.formal_derivative",
    "exactalg.reduce_mod_p", "exactalg.monic",
})

_KIND_RE = re.compile(rb'"kind":"([^"]+)"')


def ringcert_modules():
    return {name: mod for name, mod in sys.modules.items()
            if name == "ringcert" or name.startswith("ringcert.")}


class Tracer:
    def __init__(self):
        self.calls = Counter()
        self.self_time = defaultdict(float)
        self.counts = Counter()
        self.spans = []
        self.item = None
        self._stack = []      # one [child_time, span_id] per active wrapped call
        self._next_id = 0
        self._restore = []

    # -- hooks for named counts -------------------------------------------

    def _pre_list_mul(self, args):
        self.counts["exactalg.list_mul.coeff_products"] += len(args[1]) * len(args[2])

    def _post_generate_int_irred(self, result, error):
        if error is not None:
            if type(error).__name__ == "NoCertificateFound":
                self.counts["irred_int.route.exhausted"] += 1
            return
        route = {"DegreeAnalysisCertificate": "analysis", "LPFWCertificate": "lpfw",
                 "ReducibleWitnessInt": "reducible"}[type(result).__name__]
        self.counts[f"irred_int.route.{route}"] += 1

    def _post_generate_bundle(self, result, error):
        if error is None:
            for entry in result.primes:
                kind = {"DedekindCertificate": "dedekind", "PMaxShortCertificate": "short",
                        "PMaxLongCertificate": "long"}[type(entry.cert).__name__]
                self.counts[f"maximality.kind.{kind}"] += 1

    def _post_serialize(self, result, error):
        if error is None:
            kind = _KIND_RE.search(result).group(1).decode().replace("/", "-")
            self.counts[f"certio.bytes.{kind}"] += len(result)

    # -- wrapping ----------------------------------------------------------

    def _wrap(self, name, fn):
        if name in COUNT_ONLY:
            calls = self.calls

            @functools.wraps(fn)
            def counted(*args, **kwargs):
                calls[name] += 1
                return fn(*args, **kwargs)
            return counted

        pre = self._pre_list_mul if name == "exactalg.list_mul" else None
        post = {"irred_int.generate_int_irred": self._post_generate_int_irred,
                "pipeline.generate_bundle": self._post_generate_bundle,
                "certio.serialize": self._post_serialize}.get(name)
        record = name not in HOT
        stack, calls, self_time, spans = self._stack, self.calls, self.self_time, self.spans

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if pre is not None:
                pre(args)
            parent = stack[-1][1] if stack else None
            if record:
                span_id = self._next_id
                self._next_id += 1
            else:
                span_id = parent
            frame = [0.0, span_id]
            stack.append(frame)
            start = perf_counter()
            error = result = None
            try:
                result = fn(*args, **kwargs)
                return result
            except BaseException as e:
                error = e
                raise
            finally:
                end = perf_counter()
                stack.pop()
                duration = end - start
                calls[name] += 1
                self_time[name] += duration - frame[0]
                if stack:
                    stack[-1][0] += duration
                if record:
                    spans.append((span_id, name, start, end, parent, self.item))
                if post is not None:
                    post(result, error)
        return wrapper

    def install(self):
        modules = ringcert_modules()
        targets = {}
        for modname, mod in modules.items():
            short = modname.rpartition(".")[2]
            for attr, obj in vars(mod).items():
                name = f"{short}.{attr}"
                if (inspect.isfunction(obj) and obj.__module__ == modname
                        and not attr.startswith("_") and name not in SKIP):
                    targets[obj] = name
        wrappers = {fn: self._wrap(name, fn) for fn, name in targets.items()}
        for mod in modules.values():
            for attr, obj in list(vars(mod).items()):
                if inspect.isfunction(obj) and obj in wrappers:
                    self._restore.append((mod, attr, obj))
                    setattr(mod, attr, wrappers[obj])

    def uninstall(self):
        for mod, attr, obj in reversed(self._restore):
            setattr(mod, attr, obj)
        self._restore.clear()

    def write_spans(self, path):
        with open(path, "w") as fh:
            for span_id, name, start, end, parent, item in self.spans:
                fh.write(json.dumps({"id": span_id, "name": name, "start": start, "end": end,
                                     "parent": parent, "item": item}) + "\n")
