"""Per-layer tracing from outside the program.

``install`` wraps the public functions of each hhbound module, in every
loaded ``hhbound.*`` namespace that holds them, so calls made through
``from .x import y`` bindings are caught too. Each wrapper records a span:
its layer, its duration and the time its child spans covered. A layer's self
time is the sum over its spans of duration minus child time; calls of a layer
made while that layer is already the innermost span run unwrapped and count
towards the outer span. ``integrate`` is counted but not timed, so oracle
time stays inside the span that asked for it (lhs, rhs, gate, residuals).

Only the thread that installed the tracer is traced; other threads run
untraced. Install it only in a process that is about to exit, because the
wrappers are never removed.
"""

from __future__ import annotations

import functools
import inspect
import sys
import threading
import time
from collections import Counter

# span layers; the metric names in Tracer.metrics map them onto modules
LAYERS = ("convexity", "core", "lhs", "bounds", "residual", "envelope", "harness")

# the harness functions that drive verification; its formatting helpers run
# inside these and would only add wrapper cost per CSV field
_HARNESS_ENTRY_POINTS = ("run_suite", "verify_case", "sweep_x")


class Tracer:
    def __init__(self) -> None:
        self.thread = threading.get_ident()
        self.stack: list[list] = []          # [layer, child_seconds]
        self.active: Counter = Counter()     # open spans per layer
        self.self_s = {layer: 0.0 for layer in LAYERS}
        self.calls = Counter()               # outermost calls per layer
        self.grid_points = 0
        self.gate_admitted = 0
        self.integrate_calls = 0
        self.integrand_evals = 0
        self._seen_results: dict[int, object] = {}
        self._cache = None
        self._misses0 = 0

    # -- wrappers ---------------------------------------------------------

    def span(self, layer: str, fn, on_outer=None):
        """Wrap ``fn`` as a span of ``layer``; ``on_outer(bound_args, result)``
        runs after each outermost call of the layer."""
        sig = inspect.signature(fn) if on_outer is not None else None
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            stack = tracer.stack
            if (threading.get_ident() != tracer.thread
                    or (stack and stack[-1][0] == layer)):
                return fn(*args, **kwargs)
            outer = tracer.active[layer] == 0
            frame = [layer, 0.0]
            stack.append(frame)
            tracer.active[layer] += 1
            t0 = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                dt = time.perf_counter() - t0
                stack.pop()
                tracer.active[layer] -= 1
                tracer.self_s[layer] += dt - frame[1]
                if stack:
                    stack[-1][1] += dt
            if outer:
                tracer.calls[layer] += 1
                if on_outer is not None:
                    bound = sig.bind(*args, **kwargs)
                    bound.apply_defaults()
                    on_outer(bound.arguments, result)
            return result

        return wrapper

    def counted_integrate(self, fn):
        """Count oracle calls and the integrand evaluations of results that
        were computed; a memoized result comes back as the same object."""
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            result = fn(*args, **kwargs)
            if threading.get_ident() == tracer.thread:
                tracer.integrate_calls += 1
                key = id(result)
                if key not in tracer._seen_results:
                    tracer._seen_results[key] = result
                    tracer.integrand_evals += int(result.evaluations)
            return result

        return wrapper

    def _on_gate(self, arguments, result) -> None:
        grid = arguments.get("grid")
        if grid is not None:
            self.grid_points += int(grid.nx) * int(grid.ny) * int(grid.nt)
        if getattr(result, "holds", False):
            self.gate_admitted += 1

    # -- results ------------------------------------------------------------

    def integrate_misses(self) -> int:
        """Misses of the oracle memo while traced, from its ``cache_info()``;
        the count of computed results when the memo is not there."""
        if self._cache is None:
            return len(self._seen_results)
        return self._cache.cache_info().misses - self._misses0

    def metrics(self) -> dict:
        gate_calls = self.calls["convexity"]
        return {
            "convexity.gate_calls": gate_calls,
            "convexity.gate_s": self.self_s["convexity"],
            "convexity.grid_points": self.grid_points,
            "convexity.gate_admit_ratio": (self.gate_admitted / gate_calls
                                           if gate_calls else 0.0),
            "core.case_builds": self.calls["core"],
            "core.case_build_s": self.self_s["core"],
            "quadrature.lhs_calls": self.calls["lhs"],
            "quadrature.lhs_s": self.self_s["lhs"],
            "quadrature.integrate_calls": self.integrate_calls,
            "quadrature.integrate_misses": self.integrate_misses(),
            "quadrature.integrand_evals": self.integrand_evals,
            "quadrature.residual_s": self.self_s["residual"],
            "quadrature.envelope_s": self.self_s["envelope"],
            "bounds.rhs_calls": self.calls["bounds"],
            "bounds.rhs_s": self.self_s["bounds"],
            "harness.self_s": self.self_s["harness"],
        }

    def span_total_s(self) -> float:
        """Sum of all layers' self times: the wall time covered by spans."""
        return sum(self.self_s.values())


def _public_functions(module, predicate=lambda name: True) -> list[str]:
    return [name for name in getattr(module, "__all__", ())
            if predicate(name)
            and inspect.isfunction(getattr(module, name, None))
            and getattr(module, name).__module__ == module.__name__]


def _rebind(name: str, original, replacement) -> None:
    for mod_name, mod in list(sys.modules.items()):
        if mod_name == "hhbound" or mod_name.startswith("hhbound."):
            if getattr(mod, name, None) is original:
                setattr(mod, name, replacement)


def install() -> Tracer:
    """Wrap hhbound's public functions in this process and return the tracer."""
    import hhbound.bounds as bounds
    import hhbound.convexity as convexity
    import hhbound.core as core
    import hhbound.harness as harness
    import hhbound.quadrature as quadrature

    tracer = Tracer()
    groups = [
        ("convexity", convexity, _public_functions(convexity), tracer._on_gate),
        ("lhs", quadrature,
         _public_functions(quadrature, lambda n: n.startswith("lhs_")), None),
        ("residual", quadrature,
         _public_functions(quadrature, lambda n: n.startswith("residual_")), None),
        ("envelope", quadrature, ["envelope_excess"], None),
        ("bounds", bounds, _public_functions(bounds), None),
        ("harness", harness,
         _public_functions(harness, lambda n: n in _HARNESS_ENTRY_POINTS), None),
    ]
    for layer, module, names, hook in groups:
        for name in names:
            original = getattr(module, name)
            _rebind(name, original, tracer.span(layer, original, hook))

    # BoundCase validation runs in its constructor, whoever calls it
    core.BoundCase.__init__ = tracer.span("core", core.BoundCase.__init__)

    original = quadrature.integrate
    _rebind("integrate", original, tracer.counted_integrate(original))
    cache = getattr(quadrature, "_integrate_cached", None)
    if cache is not None and hasattr(cache, "cache_info"):
        tracer._cache = cache
        tracer._misses0 = cache.cache_info().misses
    return tracer
