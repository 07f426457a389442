"""Counters and spans around admlab's layer boundaries.

Everything here wraps public module attributes from the benchmark's own
code; no file of the program changes.  A wrapper replaces every binding of
the original function in the loaded ``admlab`` modules, so calls through a
re-export (``admlab.cli.load_problem``, ``admlab.game.solve_lp``) and calls
between functions of one module (``positive_prior_certificate`` calling
``dominated_in_hull``) are all seen.

``Counts`` is what the timed runs install: it counts LPs, pivots, kernel
calls and Monte Carlo shards, and times nothing.  ``Tracer`` is the traced
run: it records one span per call at each boundary, keeps them in memory
and reduces them to the per-layer metrics once the run ends.
"""

from __future__ import annotations

import sys
import threading
import time
from collections import Counter

CHECKERS = {
    "dominated_in_hull": "dominance",
    "positive_prior_certificate": "certificate",
    "stein_check": "stein",
    "witness_set": "witness",
    "ns_blyth_check": "ns_blyth",
}
KERNELS = ("loss_sums", "moment_sums", "diff_sums", "excess_sums",
           "excess_upper_sums", "beta_route_sums", "rect_count")
MC_ENTRIES = ("risk_c1", "risk_diff", "excess_bayes_risk", "prior_mass_bound",
              "blyth_sequence_report")

# (name, unit, better) of every per-layer metric, in report order
PER_LAYER = (
    [("simplex.lps", "count", "lower"), ("simplex.pivots", "count", "lower"),
     ("simplex.busy_ms", "ms", "lower"), ("simplex.us_per_pivot", "us", "lower"),
     ("simplex.max_bits", "bits", "lower")]
    + [(f"admissibility.{c}.{m}", u, "lower") for c in CHECKERS.values()
       for m, u in (("calls", "count"), ("busy_ms", "ms"), ("self_ms", "ms"), ("lps", "count"))]
    + [("game.calls", "count", "lower"), ("game.busy_ms", "ms", "lower"),
       ("game.lps", "count", "lower"),
       ("decision.bayes_risk_calls", "count", "lower"), ("decision.bayes_risk_ms", "ms", "lower"),
       ("decision.load_ms", "ms", "lower")]
    + [(f"kernels.{k}.{m}", u, "lower") for k in KERNELS
       for m, u in (("calls", "count"), ("busy_ms", "ms"))]
    + [("kernels.mb_computed", "MB", "lower"), ("kernels.gb_per_s", "GB/s", "higher")]
    + [(f"mc.{f}.{m}", "ms", "lower") for f in MC_ENTRIES for m in ("busy_ms", "draw_ms")]
    + [("mc.shards", "count", "lower"), ("mc.quad_ms", "ms", "lower"),
       ("cli.main_ms", "ms", "lower"), ("cli.startup_ms", "ms", "lower")]
)


def scaled(per_layer, scale):
    """Per-layer metrics with every time multiplied by `scale` (see calib.py)."""
    units = {name: unit for name, unit, _ in PER_LAYER}
    out = {}
    for name, value in per_layer.items():
        if units[name] in ("ms", "us"):
            value *= scale
        elif units[name] == "GB/s":
            value /= scale
        out[name] = value
    return out


def _admlab_modules():
    return [m for name, m in list(sys.modules.items())
            if m is not None and (name == "admlab" or name.startswith("admlab."))]


def _patch(original, replacement, extra=()):
    """Rebind every admlab module attribute that is `original`."""
    hits = 0
    for module in _admlab_modules() + list(extra):
        for name, value in list(vars(module).items()):
            if value is original:
                setattr(module, name, replacement)
                hits += 1
    if not hits:
        raise RuntimeError(f"no binding of {original!r} to wrap")


def _loaded(name):
    return sys.modules.get(name)


class Counts:
    """Count-only wrappers: one counter update per LP, kernel call and shard."""

    def __init__(self):
        self.lock = threading.Lock()
        self.c = Counter()

    def install(self):
        simplex = _loaded("admlab.simplex")
        if simplex is not None:
            solve = simplex.solve_lp

            def solve_lp(*args, **kwargs):
                res = solve(*args, **kwargs)
                self.c["simplex.lps"] += 1
                self.c["simplex.pivots"] += res.iterations
                return res
            _patch(solve, solve_lp)
        kernels = _loaded("admlab.graybill_deal.kernels")
        if kernels is not None:
            for k in KERNELS:
                _patch(getattr(kernels, k), self._counted(f"kernels.{k}.calls",
                                                          getattr(kernels, k)))
            mc = _loaded("admlab.graybill_deal.mc")
            mc._shard_rng = self._counted("mc.shards", mc._shard_rng)

    def _counted(self, key, fn):
        def wrapper(*args, **kwargs):
            with self.lock:
                self.c[key] += 1
            return fn(*args, **kwargs)
        return wrapper

    def reset(self):
        self.c.clear()

    def counts(self):
        return dict(sorted(self.c.items()))


def _bits(res):
    values = list(res.x or ())
    if res.objective is not None:
        values.append(res.objective)
    return max((max(v.numerator.bit_length(), v.denominator.bit_length()) for v in values),
               default=0)


class Tracer:
    """Spans at each layer boundary, reduced to per-layer metrics at the end.

    A span is (layer, start, end, self seconds).  Self time is the span's
    duration minus the direct child spans of the layers listed in
    ``_CHILDREN``, in the same thread.  For the Monte Carlo entry points,
    whose kernels run on worker threads, self time ("draw" time) is the
    duration minus the part of the interval that kernel or quadrature spans
    on any thread cover.
    """

    _CHECKER_LAYERS = set(CHECKERS.values())

    def __init__(self):
        self.local = threading.local()
        self.lock = threading.Lock()
        self.spans = []
        self.c = Counter()
        self.max_bits = 0
        self.kernel_bytes = 0

    def _stack(self):
        stack = getattr(self.local, "stack", None)
        if stack is None:
            stack = self.local.stack = []
        return stack

    def _wrap(self, layer, fn, on_result=None, on_args=None):
        subtracts = layer == "simplex" or layer in self._CHECKER_LAYERS

        def wrapper(*args, **kwargs):
            stack = self._stack()
            frame = [layer, 0.0]
            if layer == "simplex":
                for owner in {f[0] for f in stack}:
                    if owner in self._CHECKER_LAYERS or owner == "game":
                        self.c[f"{owner}.lps"] += 1
            if on_args is not None:
                on_args(args)
            stack.append(frame)
            t0 = time.perf_counter()
            try:
                res = fn(*args, **kwargs)
            finally:
                t1 = time.perf_counter()
                stack.pop()
                if subtracts and stack and stack[-1][0] in self._CHECKER_LAYERS:
                    stack[-1][1] += t1 - t0
                with self.lock:
                    self.spans.append((layer, t0, t1, t1 - t0 - frame[1]))
            if on_result is not None:
                on_result(res)
            return res
        return wrapper

    def _on_lp(self, res):
        self.max_bits = max(self.max_bits, _bits(res))
        self.c["simplex.pivots"] += res.iterations

    def _on_kernel_args(self, args):
        nbytes = sum(getattr(a, "nbytes", 0) for a in args)
        with self.lock:
            self.kernel_bytes += nbytes

    def install(self):
        simplex = _loaded("admlab.simplex")
        if simplex is not None:
            _patch(simplex.solve_lp, self._wrap("simplex", simplex.solve_lp, self._on_lp))
            adm = _loaded("admlab.admissibility")
            for fn_name, layer in CHECKERS.items():
                fn = getattr(adm, fn_name)
                _patch(fn, self._wrap(layer, fn))
            game = _loaded("admlab.game")
            _patch(game.derived_game_value, self._wrap("game", game.derived_game_value))
            decision = _loaded("admlab.decision")
            _patch(decision.bayes_risk, self._wrap("bayes_risk", decision.bayes_risk))
            _patch(decision.load_problem, self._wrap("load", decision.load_problem))
        kernels = _loaded("admlab.graybill_deal.kernels")
        if kernels is not None:
            for k in KERNELS:
                fn = getattr(kernels, k)
                _patch(fn, self._wrap(f"kernel.{k}", fn, on_args=self._on_kernel_args))
            mc = _loaded("admlab.graybill_deal.mc")
            for f in MC_ENTRIES:
                fn = getattr(mc, f)
                _patch(fn, self._wrap(f"mc.{f}", fn))
            shard_rng = mc._shard_rng

            def counted_shard_rng(*args):
                with self.lock:
                    self.c["mc.shards"] += 1
                return shard_rng(*args)
            mc._shard_rng = counted_shard_rng
            from scipy import integrate
            integrate.dblquad = self._wrap("quad", integrate.dblquad)

    def reset(self):
        self.spans.clear()
        self.c.clear()
        self.max_bits = 0
        self.kernel_bytes = 0

    def counts(self):
        """The counters that the timed runs' ``Counts`` also keep."""
        out = Counter()
        for layer, *_ in self.spans:
            if layer == "simplex":
                out["simplex.lps"] += 1
            elif layer.startswith("kernel."):
                out[f"kernels.{layer[7:]}.calls"] += 1
        out["simplex.pivots"] = self.c["simplex.pivots"]
        out["mc.shards"] = self.c["mc.shards"]
        return dict(sorted((k, v) for k, v in out.items() if v))

    def metrics(self, ops, main_s, startup_s):
        """Per-operation means (ratios and maxima over the run) by metric name."""
        busy, self_s, calls = Counter(), Counter(), Counter()
        for layer, t0, t1, own in self.spans:
            busy[layer] += t1 - t0
            self_s[layer] += own
            calls[layer] += 1
        covered = self._draw_time()
        m = {
            "simplex.lps": calls["simplex"],
            "simplex.pivots": self.c["simplex.pivots"],
            "simplex.busy_ms": 1e3 * busy["simplex"],
            "game.calls": calls["game"],
            "game.busy_ms": 1e3 * busy["game"],
            "game.lps": self.c["game.lps"],
            "decision.bayes_risk_calls": calls["bayes_risk"],
            "decision.bayes_risk_ms": 1e3 * busy["bayes_risk"],
            "decision.load_ms": 1e3 * busy["load"],
            "mc.shards": self.c["mc.shards"],
            "mc.quad_ms": 1e3 * busy["quad"],
            "cli.main_ms": 1e3 * main_s,
            "cli.startup_ms": 1e3 * startup_s,
        }
        for layer in CHECKERS.values():
            m[f"admissibility.{layer}.calls"] = calls[layer]
            m[f"admissibility.{layer}.busy_ms"] = 1e3 * busy[layer]
            m[f"admissibility.{layer}.self_ms"] = 1e3 * self_s[layer]
            m[f"admissibility.{layer}.lps"] = self.c[f"{layer}.lps"]
        kernel_busy = 0.0
        for k in KERNELS:
            m[f"kernels.{k}.calls"] = calls[f"kernel.{k}"]
            m[f"kernels.{k}.busy_ms"] = 1e3 * busy[f"kernel.{k}"]
            kernel_busy += busy[f"kernel.{k}"]
        m["kernels.mb_computed"] = self.kernel_bytes / 1e6
        for f in MC_ENTRIES:
            m[f"mc.{f}.busy_ms"] = 1e3 * busy[f"mc.{f}"]
            m[f"mc.{f}.draw_ms"] = 1e3 * (busy[f"mc.{f}"] - covered[f"mc.{f}"])
        out = {name: m[name] / ops for name, _, _ in PER_LAYER if name in m}
        out["simplex.us_per_pivot"] = (1e6 * busy["simplex"] / self.c["simplex.pivots"]
                                       if self.c["simplex.pivots"] else 0.0)
        out["simplex.max_bits"] = self.max_bits
        out["kernels.gb_per_s"] = self.kernel_bytes / kernel_busy / 1e9 if kernel_busy else 0.0
        return out

    def _draw_time(self):
        """Per Monte Carlo entry: seconds of its spans covered by kernel or
        quadrature spans on any thread."""
        inner = sorted((t0, t1) for layer, t0, t1, _ in self.spans
                       if layer.startswith("kernel.") or layer == "quad")
        covered = Counter()
        for layer, t0, t1, _ in self.spans:
            if not layer.startswith("mc."):
                continue
            end = t0
            for a, b in inner:
                a, b = max(a, end), min(b, t1)
                if b > a:
                    covered[layer] += b - a
                    end = b
        return covered
