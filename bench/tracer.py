"""An outside tracer for sublap: times calls into each module's public
functions without changing the package.

``Tracer.install()`` replaces every public function of the traced modules at
every module binding (``lie_differential`` is bound in calculus, conformal,
operators and the package itself) with a wrapper, and wraps the hot methods
of ``Polynomial`` and ``DifferentialOperator``.  ``uninstall()`` puts the
originals back.

- Every wrapped call adds to per-name counters: calls, total seconds and
  self seconds (total minus the time of wrapped calls nested inside it).
- A call whose layer (module) differs from its caller's is also recorded
  as a span: name, start, end, parent span and the current verdict id.
  Calls inside one layer only count, so the span list stays small.
- ``Polynomial`` methods run tens of thousands of times per second; they
  only count (calls, self time, term pairs, output sizes), never as spans.

Single-threaded use only: the call stack is one list.
"""

from __future__ import annotations

import functools
import inspect
import sys
from collections import defaultdict
from time import perf_counter

# sublap.rational is left alone: rat() runs once per coefficient, and
# wrapping it would cost more than the arithmetic it times
TRACED_MODULES = ("algebra", "calculus", "operators", "conformal", "heisenberg", "linalg",
                  "polynomial", "specfiles", "cli")
LRU_CACHES = (("calculus", "group_product_map"), ("calculus", "left_translation_jacobian"),
              ("calculus", "dynkin_terms"), ("operators", "sublaplacian"))
# private callables that the cli layer metrics need
EXTRA = (("cli", "_emit"),)


def _coeff_bits(terms) -> int:
    return max((max(int(c.numerator).bit_length(), int(c.denominator).bit_length())
                for c in terms.values()), default=0)


class Tracer:
    def __init__(self):
        # name -> [calls, total_s, self_s]
        self.stats = defaultdict(lambda: [0, 0.0, 0.0])
        self.counts = defaultdict(int)
        self.maxima = defaultdict(int)
        self.spans = []
        self.verdict = "setup"
        self._stack = []  # frames: [name, layer, child_s, span_id]
        self._restore = []
        self._cache_base = {}
        self._caches = {}

    # -- wrapping -------------------------------------------------------------

    def _wrap(self, name, layer, fn, span=True, post=None):
        stack, stats, spans = self._stack, self.stats[name], self.spans
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            parent = stack[-1] if stack else None
            parent_span = parent[3] if parent else None
            span_id = parent_span
            if span and (parent is None or parent[1] != layer):
                span_id = len(spans)
                spans.append(None)
            frame = [name, layer, 0.0, span_id]
            stack.append(frame)
            start = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = perf_counter()
                stack.pop()
                elapsed = end - start
                stats[0] += 1
                stats[1] += elapsed
                stats[2] += elapsed - frame[2]
                if span_id is not None and span_id != parent_span:
                    spans[span_id] = (span_id, parent_span, tracer.verdict, name, start, end)
            if post is not None:
                post(parent, args, result)
            if parent is not None:
                # the caller's self time excludes this call and its bookkeeping
                parent[2] += perf_counter() - start
            return result

        wrapper.__wrapped_original__ = fn
        return wrapper

    def _set(self, owner, attr, value):
        self._restore.append((owner, attr, owner.__dict__[attr]))
        setattr(owner, attr, value)

    def install(self):
        """Wrap sublap's public functions and hot methods (sublap must be
        imported already)."""
        if self._restore:
            raise RuntimeError("tracer already installed")
        import sublap
        from sublap import operators, polynomial

        modules = {name: sys.modules["sublap." + name] for name in TRACED_MODULES
                   if "sublap." + name in sys.modules}
        bindings = [sublap] + [m for name, m in sys.modules.items()
                               if name.startswith("sublap.")]
        targets = []
        for short, module in modules.items():
            for attr, obj in list(vars(module).items()):
                if (attr.startswith("_") or not callable(obj) or inspect.isclass(obj)
                        or getattr(obj, "__module__", None) != module.__name__):
                    continue
                targets.append((short, attr, obj))
        targets += [(short, attr, getattr(modules[short], attr))
                    for short, attr in EXTRA if short in modules]
        for short, attr, obj in targets:
            for binding in bindings:
                for bound_name, value in list(vars(binding).items()):
                    if value is obj:
                        post = self._probe_post if (binding.__name__ == "sublap.conformal"
                                                    and attr == "monomials_up_to") else None
                        if attr == "commutation_residuals":
                            post = self._residuals_post
                        self._set(binding, bound_name,
                                  self._wrap("%s.%s" % (short, attr), short, obj, post=post))

        for short, attr in LRU_CACHES:
            fn = getattr(sys.modules["sublap." + short], attr).__wrapped_original__
            self._caches["%s.%s" % (short, attr)] = fn
            self._cache_base["%s.%s" % (short, attr)] = fn.cache_info()

        poly = polynomial.Polynomial
        mul = self._wrap("polynomial.mul", "polynomial", poly.__mul__, span=False,
                         post=self._mul_post)
        add = self._wrap("polynomial.add", "polynomial", poly.__add__, span=False,
                         post=self._size_post)
        for attr, wrapped in (("__mul__", mul), ("__rmul__", mul), ("__add__", add),
                              ("__radd__", add)):
            self._set(poly, attr, wrapped)
        self._set(poly, "subs", self._wrap("polynomial.subs", "polynomial", poly.subs,
                                           span=False, post=self._subs_post))
        self._set(poly, "diff", self._wrap("polynomial.diff", "polynomial", poly.diff,
                                           span=False))
        self._set(poly, "__pow__", self._wrap("polynomial.pow", "polynomial", poly.__pow__,
                                              span=False))
        op = operators.DifferentialOperator
        self._set(op, "apply", self._wrap("operators.apply", "operators", op.apply))

    def uninstall(self):
        for owner, attr, value in reversed(self._restore):
            setattr(owner, attr, value)
        self._restore = []

    # -- counters fed from wrapper results --------------------------------------

    def _size_post(self, parent, args, result):
        if len(result.terms) > self.maxima["polynomial.max_terms"]:
            self.maxima["polynomial.max_terms"] = len(result.terms)

    def _mul_post(self, parent, args, result):
        a, b = args
        self.counts["polynomial.mul.term_pairs"] += len(a.terms) * (
            len(b.terms) if hasattr(b, "terms") else 1)
        self._size_post(parent, args, result)
        bits = _coeff_bits(result.terms)
        if bits > self.maxima["rational.max_coeff_bits"]:
            self.maxima["rational.max_coeff_bits"] = bits

    def _subs_post(self, parent, args, result):
        self.counts["polynomial.subs.terms_out"] += len(result.terms)
        self._size_post(parent, args, result)

    def _probe_post(self, parent, args, result):
        self.counts["conformal.probes"] += len(result)

    def _residuals_post(self, parent, args, result):
        # the probe stage of an analysis decides the verdict when it finds a
        # failing probe that the exact stages before it let through
        if parent is not None and parent[0] == "conformal.analyze_commutation":
            self.counts["conformal.probe_stage_reached"] += 1
            if result:
                self.counts["conformal.probe_stage_decisive"] += 1

    # -- results --------------------------------------------------------------

    def raw(self) -> dict:
        """Counters in a mergeable form (see ``merge_raw``)."""
        caches = {}
        for name, fn in self._caches.items():
            info, base = fn.cache_info(), self._cache_base[name]
            caches[name] = [info.hits - base.hits, info.misses - base.misses, info.currsize]
        return {"stats": {k: list(v) for k, v in self.stats.items()},
                "counts": dict(self.counts), "maxima": dict(self.maxima), "caches": caches,
                "import_s": 0.0}


def merge_raw(raws) -> dict:
    """Sum counters of several traced processes; maxima and cache sizes take
    the maximum."""
    out = {"stats": {}, "counts": defaultdict(int), "maxima": defaultdict(int), "caches": {},
           "import_s": 0.0}
    for raw in raws:
        for name, (calls, total, self_s) in raw["stats"].items():
            acc = out["stats"].setdefault(name, [0, 0.0, 0.0])
            acc[0] += calls
            acc[1] += total
            acc[2] += self_s
        for name, value in raw["counts"].items():
            out["counts"][name] += value
        for name, value in raw["maxima"].items():
            out["maxima"][name] = max(out["maxima"][name], value)
        for name, (hits, misses, size) in raw["caches"].items():
            acc = out["caches"].setdefault(name, [0, 0, 0])
            acc[0] += hits
            acc[1] += misses
            acc[2] = max(acc[2], size)
        out["import_s"] += raw["import_s"]
    return out


def layer_metrics(raw) -> dict:
    """The per-layer metrics named in BENCHMARK.json, from raw counters."""
    stats, counts, maxima, caches = raw["stats"], raw["counts"], raw["maxima"], raw["caches"]

    def calls(name):
        return stats.get(name, [0, 0.0, 0.0])[0]

    def self_s(*names):
        return sum(stats.get(name, [0, 0.0, 0.0])[2] for name in names)

    def total_s(prefix):
        """Inclusive seconds of every function whose name starts with prefix."""
        return sum(v[1] for k, v in stats.items() if k.startswith(prefix))

    def hit_ratio(name):
        hits, misses, _ = caches.get(name, [0, 0, 0])
        return hits / (hits + misses) if hits + misses else 0.0

    out = {}
    for op in ("mul", "subs", "diff", "add"):
        out["polynomial.%s.calls" % op] = calls("polynomial." + op)
        out["polynomial.%s.self_s" % op] = self_s("polynomial." + op)
    out["polynomial.mul.term_pairs"] = counts.get("polynomial.mul.term_pairs", 0)
    out["polynomial.subs.terms_out"] = counts.get("polynomial.subs.terms_out", 0)
    out["polynomial.pow.calls"] = calls("polynomial.pow")
    out["polynomial.max_terms"] = maxima.get("polynomial.max_terms", 0)
    out["rational.max_coeff_bits"] = maxima.get("rational.max_coeff_bits", 0)

    out["conformal.commutation_residuals.calls"] = calls("conformal.commutation_residuals")
    out["conformal.commutation_residuals.self_s"] = self_s("conformal.commutation_residuals")
    out["conformal.probes"] = counts.get("conformal.probes", 0)
    reached = counts.get("conformal.probe_stage_reached", 0)
    out["conformal.probe_decisive_ratio"] = (
        counts.get("conformal.probe_stage_decisive", 0) / reached if reached else 0.0)
    out["conformal.analyze_commutation.self_s"] = self_s("conformal.analyze_commutation")
    out["operators.gradient.calls"] = calls("operators.gradient")
    out["operators.gradient.self_s"] = self_s("operators.gradient")
    out["linalg.inverse.calls"] = calls("linalg.inverse")

    for fn in ("bch_product", "lie_differential", "second_lie_differential", "left_translation"):
        out["calculus.%s.calls" % fn] = calls("calculus." + fn)
        out["calculus.%s.self_s" % fn] = self_s("calculus." + fn)
    out["calculus.group_product_map.hit_ratio"] = hit_ratio("calculus.group_product_map")
    out["operators.sublaplacian.self_s"] = self_s("operators.sublaplacian")
    out["operators.sublaplacian.hit_ratio"] = hit_ratio("operators.sublaplacian")
    out["calculus.lru_currsize"] = sum(v[2] for k, v in caches.items()
                                       if k.startswith("calculus."))

    for fn in ("apply", "pullback_operator", "frame_components"):
        out["operators.%s.calls" % fn] = calls("operators." + fn)
        out["operators.%s.self_s" % fn] = self_s("operators." + fn)

    linalg = [k for k in stats if k.startswith("linalg.")]
    out["linalg.calls"] = sum(calls(k) for k in linalg)
    out["linalg.self_s"] = self_s(*linalg)
    for fn in ("symplectic_spectrum", "isometry_decision", "build_isometry"):
        out["heisenberg.%s.self_s" % fn] = self_s("heisenberg." + fn)
    out["conformal.frames_equivalent.self_s"] = self_s("conformal.frames_equivalent")
    out["conformal.homothety.self_s"] = self_s("conformal.is_homothetic_projection",
                                               "conformal.homothetic_characterizations")
    for fn in ("validate", "stratify", "subriemannian_group"):
        out["algebra.%s.self_s" % fn] = self_s("algebra." + fn)

    out["cli.import_s"] = raw["import_s"]
    out["specfiles.load_s"] = total_s("specfiles.load_")
    out["cli.run_s"] = stats.get("cli.run", [0, 0.0, 0.0])[1]
    out["cli.emit_s"] = stats.get("cli._emit", [0, 0.0, 0.0])[1]
    return out
