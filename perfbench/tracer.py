"""Outside-in tracer for the traced benchmark run.

It wraps public functions of tarski's modules from the benchmark's side,
with no change to tarski's source: each function is replaced at every
binding site (its defining module and every `from`-import of it in the
other tarski modules), and Poly's methods are replaced on the class.  A
wrapped call is a span; a span's self time is its duration minus the
durations of the spans it directly contains.  A direct recursive call of
the same function is folded into the outer span, so recursive walkers
such as fold_formula count one call per outside entry.

Leaf helpers that run millions of times (rational, intervals, Poly
construction and properties) are not wrapped; their time is part of the
self time of their callers.
"""

from __future__ import annotations

import functools
import inspect
import sys
import time

# Layers whose public module-level functions are all wrapped.
WRAP_PUBLIC = ("lift", "signdet", "sturm", "isolate", "qelim")
# Layers of which only the functions the benchmark reports are wrapped:
# their other public functions are term walkers called per node.
WRAP_ONLY = {
    "formula": ("elim_inv", "dnf_conjuncts", "qf_eval"),
    "syntax": ("parse_formula", "formula_to_str"),
}
POLY_METHODS = (
    "__add__", "__sub__", "__neg__", "__mul__", "__pow__", "scale", "shift", "eval", "deriv",
    "divmod", "__floordiv__", "__mod__", "pseudo_divmod", "monic", "gcd", "squarefree_part",
    "squarefree_decomposition", "mu", "cauchy_bound", "monic_transform",
)
# The lift module's global caches, read by name so that their removal
# reads as zero entries rather than as an error.
LIFT_CACHES = ("_norm_cache", "_canon_cache", "_poly_map_cache", "_prem_cache")


class Tracer:
    """Span recorder: calls, total time and self time per wrapped function."""

    def __init__(self, clock=time.perf_counter):
        self.clock = clock
        self.stack: list[list] = []  # open spans: [key, start, time in child spans]
        self.stats: dict[str, list] = {}  # key -> [calls, total seconds, self seconds]

    def wrap(self, key: str, fn):
        clock, stack = self.clock, self.stack
        stat = self.stats.setdefault(key, [0, 0.0, 0.0])

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if stack and stack[-1][0] == key:
                return fn(*args, **kwargs)
            span = [key, clock(), 0.0]
            stack.append(span)
            try:
                return fn(*args, **kwargs)
            finally:
                duration = clock() - span[1]
                stack.pop()
                stat[0] += 1
                stat[1] += duration
                stat[2] += duration - span[2]
                if stack:
                    stack[-1][2] += duration

        return traced


def _public_functions(mod) -> list[str]:
    return sorted(
        name for name, obj in vars(mod).items()
        if not name.startswith("_")
        and getattr(obj, "__module__", None) == mod.__name__
        and (inspect.isfunction(obj) or isinstance(obj, functools._lru_cache_wrapper))
    )


def install(tracer: Tracer) -> list[str]:
    """Wrap the traced functions of the imported tarski package in place;
    returns the wrapped keys.  Meant for a forked child that is discarded
    afterwards, so nothing is ever unwrapped."""
    import tarski  # noqa: F401  (loads every module)

    modules = [m for name, m in sorted(sys.modules.items()) if name == "tarski" or name.startswith("tarski.")]
    targets = {layer: _public_functions(sys.modules[f"tarski.{layer}"]) for layer in WRAP_PUBLIC}
    targets.update(WRAP_ONLY)
    keys = []
    for layer, names in targets.items():
        home = sys.modules[f"tarski.{layer}"]
        for name in names:
            original = getattr(home, name)
            wrapper = tracer.wrap(f"{layer}.{name}", original)
            for mod in modules:
                for attr, value in list(vars(mod).items()):
                    if value is original:
                        setattr(mod, attr, wrapper)
            keys.append(f"{layer}.{name}")
    poly_cls = sys.modules["tarski.poly"].Poly
    for name in POLY_METHODS:
        key = f"poly.{name.strip('_')}"
        setattr(poly_cls, name, tracer.wrap(key, poly_cls.__dict__[name]))
        keys.append(key)
    return keys


def lift_cache_entries() -> int:
    lift = sys.modules["tarski.lift"]
    return sum(len(getattr(lift, name, ())) for name in LIFT_CACHES)


def norm_cache_size() -> int:
    return len(getattr(sys.modules["tarski.lift"], "_norm_cache", ()))
