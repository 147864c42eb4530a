"""Per-layer call counts and self time, recorded around arithlink's functions.

The tracer replaces each traced function with a wrapper on every attribute a
caller looks it up through: the defining module or class, and every arithlink
module that bound the same object by name (`magnus` imports `ConvexShape`,
`arithmetic` imports sympy's `isprime` and `sqrt_mod`).  Spans are not kept:
each wrapper adds its call to a per-function total, and a stack of child-time
accumulators turns span time into self time.
"""

import sys
from time import perf_counter

# (metric prefix, module, attribute path, kind); kind "span" records calls and
# self time, "generator" times each resumption and counts yields, "count"
# only counts calls and leaves the time with the caller.
TARGETS = (
    ("rings.ResidueRing.init", "arithlink.rings", "ResidueRing.__init__", "span"),
    ("words.parse_word", "arithlink.words", "parse_word", "span"),
    ("words.GroupWord.pow", "arithlink.words", "GroupWord.__pow__", "span"),
    ("unitriangular.mul", "arithlink.unitriangular", "mul", "span"),
    ("unitriangular.inverse", "arithlink.unitriangular", "inverse", "span"),
    ("unitriangular.matpow", "arithlink.unitriangular", "matpow", "span"),
    ("unitriangular.project_window", "arithlink.unitriangular",
     "project_window", "span"),
    ("unitriangular.closure", "arithlink.unitriangular", "closure", "span"),
    ("unitriangular.fiber_glue", "arithlink.unitriangular", "fiber_glue", "span"),
    ("unitriangular.ConvexShape.init", "arithlink.unitriangular",
     "ConvexShape.__init__", "span"),
    ("unitriangular.PartialMatrix.init", "arithlink.unitriangular",
     "PartialMatrix.__init__", "span"),
    ("magnus.magnus_matrix", "arithlink.magnus", "magnus_matrix", "span"),
    ("magnus.eps", "arithlink.magnus", "eps", "span"),
    ("magnus.TruncatedSeries.mul", "arithlink.magnus", "TruncatedSeries.__mul__",
     "count"),
    ("linking.parse_presentation", "arithlink.linking", "parse_presentation",
     "span"),
    ("linking.build_globalization", "arithlink.linking", "build_globalization",
     "span"),
    ("linking.eval_word", "arithlink.linking", "eval_word", "span"),
    ("linking.linking_invariant", "arithlink.linking", "linking_invariant",
     "span"),
    ("linking.hoechsmann_pairing", "arithlink.linking", "hoechsmann_pairing",
     "span"),
    ("linking.fiber_lift", "arithlink.linking", "fiber_lift", "span"),
    ("arithmetic.redei_symbol", "arithlink.arithmetic", "redei_symbol", "span"),
    ("arithmetic.iter_conic_solutions", "arithlink.arithmetic",
     "iter_conic_solutions", "generator"),
    ("arithmetic.legendre", "arithlink.arithmetic", "legendre", "span"),
    ("arithmetic.isprime", "arithlink.arithmetic", "isprime", "span"),
    ("arithmetic.sqrt_mod", "arithlink.arithmetic", "sqrt_mod", "span"),
)


def metric_names():
    """(name, unit) of every per-function metric the tracer reports."""
    out = []
    for prefix, _, _, kind in TARGETS:
        out.append((f"{prefix}.calls", "count"))
        if kind != "count":
            out.append((f"{prefix}.self_s", "s"))
        if kind == "generator":
            out.append((f"{prefix}.yields", "count"))
    return out


class Tracer:
    """Installs wrappers on enter and restores the originals on exit."""

    def __init__(self):
        self.stats = {prefix: {"calls": 0, "self_s": 0.0, "yields": 0}
                      for prefix, _, _, _ in TARGETS}
        self._stack = []
        self._patches = []

    def reset_stack(self):
        """Drop open spans, e.g. after a deadline interrupted an operation."""
        self._stack.clear()

    def metrics(self):
        out = {}
        for prefix, _, _, kind in TARGETS:
            s = self.stats[prefix]
            out[f"{prefix}.calls"] = s["calls"]
            if kind != "count":
                out[f"{prefix}.self_s"] = s["self_s"]
            if kind == "generator":
                out[f"{prefix}.yields"] = s["yields"]
        return out

    def __enter__(self):
        for prefix, module_name, path, kind in TARGETS:
            owner = sys.modules[module_name]
            *outer, attr = path.split(".")
            for part in outer:
                owner = getattr(owner, part)
            original = getattr(owner, attr)
            wrapper = getattr(self, f"_{kind}")(self.stats[prefix], original)
            self._patch(owner, attr, wrapper)
            if not outer:
                for name, module in list(sys.modules.items()):
                    if module is owner or not (name == "arithlink"
                                               or name.startswith("arithlink.")):
                        continue
                    for key, value in list(vars(module).items()):
                        if value is original:
                            self._patch(module, key, wrapper)
        return self

    def __exit__(self, *exc):
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)
        return False

    def _patch(self, owner, attr, wrapper):
        self._patches.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, wrapper)

    def _span(self, stat, fn):
        stack = self._stack

        def wrapper(*args, **kwargs):
            stack.append(0.0)
            t0 = perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                dt = perf_counter() - t0
                child = stack.pop() if stack else 0.0
                stat["calls"] += 1
                stat["self_s"] += dt - child
                if stack:
                    stack[-1] += dt
        return wrapper

    def _generator(self, stat, fn):
        stack = self._stack

        def wrapper(*args, **kwargs):
            stat["calls"] += 1
            inner = fn(*args, **kwargs)

            def timed():
                while True:
                    stack.append(0.0)
                    t0 = perf_counter()
                    try:
                        value = next(inner)
                    except StopIteration:
                        return
                    finally:
                        dt = perf_counter() - t0
                        child = stack.pop() if stack else 0.0
                        stat["self_s"] += dt - child
                        if stack:
                            stack[-1] += dt
                    stat["yields"] += 1
                    yield value
            return timed()
        return wrapper

    def _count(self, stat, fn):
        def wrapper(*args, **kwargs):
            stat["calls"] += 1
            return fn(*args, **kwargs)
        return wrapper
