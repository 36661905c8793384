"""Layer spans for the traced benchmark run, recorded from outside the library.

`Tracer.install` replaces every public function of the traced snfc modules,
plus the elimination and product methods of `gf.Matrix`, at every module
attribute that binds it (the defining module, each `from .x import y` copy and
the package re-exports), and wraps the callback of every click command in
`snfc.cli`.  A wrapper times its call and charges that time to the enclosing
span as child time, so a layer's self time is its span time minus the time of
the spans it caused.  `uninstall` puts every original back.

Spans are aggregated in memory per name (calls, total, self, raised
exceptions) instead of being stored one by one: the construct+verify workload
makes hundreds of thousands of calls.  Counts that the library does not report
itself (matrix cells, wiretap sets, states, live arcs) are computed after the
call returns, with the tracer paused, and that time is charged to no span.
"""

from __future__ import annotations

import importlib
import math
import sys
import time
import types
from dataclasses import dataclass, field

LAYERS = ("gf", "network", "cuts", "bounds", "codes", "verify", "cli")
MATRIX_METHODS = ("rank", "inverse", "solve_right", "mul")


@dataclass
class SpanStats:
    calls: int = 0
    total_s: float = 0.0
    self_s: float = 0.0
    raised: dict[str, int] = field(default_factory=dict)
    counts: dict[str, int] = field(default_factory=dict)

    def add(self, key: str, n: int) -> None:
        self.counts[key] = self.counts.get(key, 0) + n


def _public_functions(module):
    """Functions (plain or lru-cached) defined in `module` whose names are public."""
    for name, obj in vars(module).items():
        if name.startswith("_"):
            continue
        if not isinstance(obj, types.FunctionType) and not hasattr(obj, "cache_info"):
            continue
        if getattr(obj, "__module__", None) == module.__name__:
            yield name, obj


def snfc_modules() -> list[types.ModuleType]:
    return [
        mod
        for name, mod in sorted(sys.modules.items())
        if (name == "snfc" or name.startswith("snfc.")) and isinstance(mod, types.ModuleType)
    ]


class Tracer:
    def __init__(self) -> None:
        self.stats: dict[str, SpanStats] = {}
        self.active = False
        self._stack: list[float] = []
        self._restore: list[tuple[object, str, object]] = []
        self._originals: dict[str, object] = {}
        self.covered_s = 0.0      # summed duration of outermost spans
        self.hook_nested_s = 0.0  # count hooks run inside some outer span
        self.hook_root_s = 0.0    # count hooks run outside every span
        self._c_min_info = None

    # -- installation --------------------------------------------------------------

    def install(self) -> "Tracer":
        modules = {name: importlib.import_module(f"snfc.{name}") for name in LAYERS}
        everywhere = snfc_modules()
        hooks = self._hooks()
        for layer, module in modules.items():
            for name, fn in _public_functions(module):
                span = f"{layer}.{name}"
                self._originals[span] = fn
                wrapper = self._wrap(span, fn, hooks.get(span))
                for holder in everywhere:
                    for attr, value in list(vars(holder).items()):
                        if value is fn:
                            self._restore.append((holder, attr, fn))
                            setattr(holder, attr, wrapper)
        matrix = modules["gf"].Matrix
        for method in MATRIX_METHODS:
            fn = vars(matrix)[method]
            span = f"gf.{method}"
            self._originals[span] = fn
            self._restore.append((matrix, method, fn))
            setattr(matrix, method, self._wrap(span, fn, hooks.get(span)))
        import click

        for name, obj in vars(modules["cli"]).items():
            if isinstance(obj, click.Command) and obj.callback is not None:
                span = f"cli.{name}"
                self._restore.append((obj, "callback", obj.callback))
                obj.callback = self._wrap(span, obj.callback, None)
        self._c_min_info = self._originals["cuts.c_min"].cache_info()
        self.active = True
        return self

    def uninstall(self) -> None:
        self.active = False
        c_min = self._originals.get("cuts.c_min")
        if c_min is not None and self._c_min_info is not None:
            info = c_min.cache_info()
            stats = self._stat("cuts.c_min")
            stats.add("cache_hits", info.hits - self._c_min_info.hits)
            stats.add("cache_misses", info.misses - self._c_min_info.misses)
        for holder, attr, original in reversed(self._restore):
            setattr(holder, attr, original)
        self._restore.clear()

    def unwrapped_bindings(self) -> list[str]:
        """Module attributes that still bind an original traced function."""
        originals = {id(fn): span for span, fn in self._originals.items()}
        missed = []
        for holder in snfc_modules():
            for attr, value in vars(holder).items():
                if id(value) in originals:
                    missed.append(f"{holder.__name__}.{attr}")
        return missed

    # -- spans -----------------------------------------------------------------------

    def _stat(self, span: str) -> SpanStats:
        stats = self.stats.get(span)
        if stats is None:
            stats = self.stats[span] = SpanStats()
        return stats

    def _wrap(self, span: str, fn, hook):
        stats = self._stat(span)
        stack = self._stack
        clock = time.perf_counter
        tracer = self

        def traced(*args, **kwargs):
            if not tracer.active:
                return fn(*args, **kwargs)
            stack.append(0.0)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            except BaseException as exc:
                kind = type(exc).__name__
                stats.raised[kind] = stats.raised.get(kind, 0) + 1
                raise
            finally:
                elapsed = clock() - start
                child = stack.pop()
                stats.calls += 1
                stats.total_s += elapsed
                stats.self_s += elapsed - child
                if stack:
                    stack[-1] += elapsed
                else:
                    tracer.covered_s += elapsed
            if hook is not None:
                tracer._run_hook(hook, stats, args, kwargs, result)
            return result

        traced.__wrapped__ = fn
        traced.__name__ = getattr(fn, "__name__", span)
        traced.__doc__ = getattr(fn, "__doc__", None)
        return traced

    def _run_hook(self, hook, stats, args, kwargs, result) -> None:
        start = time.perf_counter()
        self.active = False
        try:
            hook(stats, args, kwargs, result)
        finally:
            self.active = True
            elapsed = time.perf_counter() - start
            if self._stack:
                # keep hook time out of the enclosing span's self time
                self._stack[-1] += elapsed
                self.hook_nested_s += elapsed
            else:
                self.hook_root_s += elapsed

    # -- counts computed from outside ------------------------------------------------

    def _hooks(self) -> dict:
        from snfc.codes import as_secure
        from snfc.cuts import ResidualNetwork

        primary_wiretap_sets = importlib.import_module("snfc.bounds").primary_wiretap_sets

        def arg(args, kwargs, index, name, default=None):
            if len(args) > index:
                return args[index]
            return kwargs.get(name, default)

        def rank(stats, args, kwargs, result):
            matrix = args[0]
            stats.add("cells", matrix.nrows * matrix.ncols)
            if matrix.field.q == 2:
                stats.add("gf2_calls", 1)

        def min_cut(stats, args, kwargs, result):
            net = args[0]
            if isinstance(net, ResidualNetwork):
                stats.add("arcs", len(net.base.edges) - len(net.removed))
            else:
                stats.add("arcs", len(net.edges))

        def is_primary(stats, args, kwargs, result):
            stats.add("kept", int(bool(result)))

        def security_rank(stats, args, kwargs, result):
            code, net = args[0], args[1]
            level = as_secure(code, arg(args, kwargs, 2, "r")).r
            if arg(args, kwargs, 3, "fast", False):
                sets = sum(1 for w in primary_wiretap_sets(net, level) if w)
            else:
                n = len(net.edges)
                sets = sum(math.comb(n, k) for k in range(1, level + 1))
            stats.add("sets", sets)

        def state_count(stats, args, kwargs, result):
            code, net = args[0], args[1]
            stats.add("states", code.field.q ** (code.rate * net.num_sources))

        def computability(stats, args, kwargs, result):
            if arg(args, kwargs, 2, "method", "algebraic") == "exhaustive":
                state_count(stats, args, kwargs, result)

        def primary_sets(stats, args, kwargs, result):
            stats.add("sets", len(result))

        return {
            "gf.rank": rank,
            "cuts.min_cut": min_cut,
            "cuts.is_primary": is_primary,
            "verify.check_security_rank": security_rank,
            "verify.check_security_exhaustive": state_count,
            "verify.check_computability": computability,
            "bounds.primary_wiretap_sets": primary_sets,
        }

    # -- per-layer metrics ---------------------------------------------------------------

    def untraced_share(self, wall_s: float) -> float:
        """Share of the operations' wall time spent outside every layer span.

        Hook time is taken out of both the wall time and the covered time.
        """
        hooks = self.hook_nested_s + self.hook_root_s
        busy = wall_s - hooks
        if busy <= 0:
            return 0.0
        outside = wall_s - self.covered_s - self.hook_root_s
        return max(outside, 0.0) / busy

    def layer_metrics(self) -> dict[str, float]:
        def s(span: str) -> SpanStats:
            return self.stats.get(span) or SpanStats()

        def ratio(num: float, den: float) -> float:
            return num / den if den else 0.0

        exhaustive = s("verify.check_security_exhaustive")
        c_min = s("cuts.c_min")
        hits, misses = c_min.counts.get("cache_hits", 0), c_min.counts.get("cache_misses", 0)
        is_primary = s("cuts.is_primary")
        return {
            "gf.rank.calls": s("gf.rank").calls,
            "gf.rank.self_s": s("gf.rank").self_s,
            "gf.rank.cells": s("gf.rank").counts.get("cells", 0),
            "gf.rank.gf2_calls": s("gf.rank").counts.get("gf2_calls", 0),
            "gf.inverse.self_s": s("gf.inverse").self_s,
            "gf.solve_right.self_s": s("gf.solve_right").self_s,
            "gf.mul.self_s": s("gf.mul").self_s,
            "codes.construct.self_s": s("codes.construct").self_s,
            "codes.construct.field_attempts_ratio": ratio(
                s("codes.build_reversed_multicast").calls, s("codes.construct").calls
            ),
            "codes.build_reversed_multicast.self_s": s("codes.build_reversed_multicast").self_s,
            "codes.sum_code_from_multicast.self_s": s("codes.sum_code_from_multicast").self_s,
            "codes.choose_mixing_matrix.calls": s("codes.choose_mixing_matrix").calls,
            "codes.choose_mixing_matrix.self_s": s("codes.choose_mixing_matrix").self_s,
            "codes.choose_mixing_matrix.failed": s("codes.choose_mixing_matrix").raised.get(
                "FieldTooSmall", 0
            ),
            "codes.global_vectors.self_s": s("codes.global_vectors").self_s,
            "codes.load_code.self_s": s("codes.load_code").self_s,
            "verify.check_security_rank.calls": s("verify.check_security_rank").calls,
            "verify.check_security_rank.self_s": s("verify.check_security_rank").self_s,
            "verify.check_security_rank.sets": s("verify.check_security_rank").counts.get("sets", 0),
            "verify.check_security_exhaustive.self_s": exhaustive.self_s,
            "verify.check_security_exhaustive.states": exhaustive.counts.get("states", 0),
            "verify.check_computability.self_s": s("verify.check_computability").self_s,
            "verify.exhaustive.states_per_s": ratio(exhaustive.counts.get("states", 0), exhaustive.self_s),
            "cuts.min_cut.calls": s("cuts.min_cut").calls,
            "cuts.min_cut.self_s": s("cuts.min_cut").self_s,
            "cuts.min_cut.arcs": s("cuts.min_cut").counts.get("arcs", 0),
            "cuts.min_cut_edge_target.calls": s("cuts.min_cut_edge_target").calls,
            "cuts.min_cut_edge_target.self_s": s("cuts.min_cut_edge_target").self_s,
            "cuts.is_primary.calls": is_primary.calls,
            "cuts.is_primary.kept_ratio": ratio(is_primary.counts.get("kept", 0), is_primary.calls),
            "cuts.c_min.cache_hit_ratio": ratio(hits, hits + misses),
            "bounds.upper_bound.self_s": s("bounds.upper_bound").self_s,
            "bounds.primary_wiretap_sets.self_s": s("bounds.primary_wiretap_sets").self_s,
            "bounds.primary_wiretap_sets.sets": s("bounds.primary_wiretap_sets").counts.get("sets", 0),
            "network.reach_sets.calls": s("network.reach_sets").calls,
            "network.reach_sets.self_s": s("network.reach_sets").self_s,
            "network.parse_network.self_s": s("network.parse_network").self_s,
            "cli.bound.self_s": s("cli.bound").self_s,
        }

    def span_table(self) -> dict[str, dict]:
        return {
            span: {
                "calls": st.calls,
                "total_s": st.total_s,
                "self_s": st.self_s,
                "raised": dict(st.raised),
                "counts": dict(st.counts),
            }
            for span, st in sorted(self.stats.items())
            if st.calls
        }
