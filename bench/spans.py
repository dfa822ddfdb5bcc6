"""Span recorder and exact counters for the traced run.

The recorder wraps the public functions and methods of each layer from
outside the library.  `from .x import y` leaves a reference to `y` in every
importing module, so each wrapped function is rebound wherever a module of
the package (or the calling benchmark module) holds it; methods are patched
on their class, aliases such as `__rmul__ = __mul__` included.

Spans are kept in memory as (name, parent, start, end) in flat arrays, in
the order they were entered, and are reduced once the timed section is
over: a span's self time is its duration minus its direct children's.
"""

from __future__ import annotations

import importlib
import sys
from array import array
from math import factorial
from time import perf_counter

LAYERS = ("oracle", "charactereval", "partitions", "wedge", "algebra", "wallcross")

# (span name, module, attribute, class or None).  Names repeated on several
# rows share one span name.
TARGETS = [
    ("oracle.count_factorizations", "oracle", "count_factorizations", None),
    ("charactereval.hurwitz_disconnected", "charactereval", "hurwitz_disconnected", None),
    ("charactereval.hurwitz_connected_simple", "charactereval", "hurwitz_connected_simple", None),
    ("partitions.character", "partitions", "character", None),
    ("partitions.partitions", "partitions", "partitions", None),
    ("partitions.f2_eigenvalue", "partitions", "f2_eigenvalue", None),
    ("partitions.content_sums", "partitions", "complete_homogeneous_at_contents", None),
    ("partitions.content_sums", "partitions", "elementary_at_contents", None),
    ("wedge.chamber_of", "wedge", "chamber_of", None),
    ("wedge.chamber_polynomial", "wedge", "chamber_polynomial", None),
    ("wedge.commutation_patterns", "wedge", "commutation_patterns", None),
    ("wedge.evaluate", "wedge", "evaluate", None),
    ("algebra.MultiPoly.mul", "algebra", "__mul__", "MultiPoly"),
    ("algebra.TruncSeries.mul", "algebra", "__mul__", "TruncSeries"),
    ("algebra.TruncSeries.inverse", "algebra", "inverse", "TruncSeries"),
    ("algebra.sigma_s_of", "algebra", "sigma_of", None),
    ("algebra.sigma_s_of", "algebra", "s_of", None),
    ("algebra.onshell", "algebra", "substitute", "MultiPoly"),
    ("algebra.onshell", "algebra", "exact_divide", "MultiPoly"),
    ("wallcross.verify_wallcrossing", "wallcross", "verify_wallcrossing", None),
    ("wallcross.refined_series", "wallcross", "refined_series", None),
]

# Generator functions: a span covers each step of the iteration.
GENERATORS = {"partitions.partitions"}


def _module(name: str):
    # `hurwitz.partitions` as an attribute is the partitions() function, so
    # modules are taken by import path, never by attribute.
    return importlib.import_module(f"hurwitz.{name}")


class Recorder:
    def __init__(self):
        self.names = sorted({t[0] for t in TARGETS})
        self.ids = {n: i for i, n in enumerate(self.names)}
        self.span_name = array("H")
        self.parent = array("l")
        self.start = array("d")
        self.end = array("d")
        self.stack = [-1]
        self._undo = []

    # -- installing --------------------------------------------------------------

    @classmethod
    def install(cls, extra_modules=("__main__",)) -> "Recorder":
        rec = cls()
        holders = [m for n, m in sys.modules.items() if n == "hurwitz" or n.startswith("hurwitz.")]
        holders += [sys.modules[n] for n in extra_modules if n in sys.modules]
        wrappers = {}
        for name, mod, attr, klass in TARGETS:
            owner = getattr(_module(mod), klass) if klass else _module(mod)
            original = owner.__dict__[attr]
            if id(original) not in wrappers:
                wrappers[id(original)] = (original, rec._wrap(original, rec.ids[name], name in GENERATORS))
            if klass:
                rec._rebind([owner], original, wrappers[id(original)][1])
        for original, wrapper in wrappers.values():
            rec._rebind(holders, original, wrapper)
        return rec

    def _rebind(self, holders, original, wrapper):
        for holder in holders:
            for attr, value in list(vars(holder).items()):
                if value is original:
                    setattr(holder, attr, wrapper)
                    self._undo.append((holder, attr, original))

    def uninstall(self) -> None:
        for holder, attr, original in reversed(self._undo):
            setattr(holder, attr, original)
        self._undo.clear()

    def _wrap(self, f, nid: int, generator: bool):
        names_append = self.span_name.append
        parent_append = self.parent.append
        start_append = self.start.append
        end_append = self.end.append
        end = self.end
        stack = self.stack
        push, pop = stack.append, stack.pop

        if generator:

            def gen_wrapper(*args, **kwargs):
                it = f(*args, **kwargs)
                while True:
                    i = len(end)
                    names_append(nid)
                    parent_append(stack[-1])
                    end_append(0.0)
                    push(i)
                    start_append(perf_counter())
                    try:
                        item = next(it)
                    except StopIteration:
                        return
                    finally:
                        end[i] = perf_counter()
                        pop()
                    yield item

            return gen_wrapper

        def wrapper(*args, **kwargs):
            i = len(end)
            names_append(nid)
            parent_append(stack[-1])
            end_append(0.0)
            push(i)
            start_append(perf_counter())
            try:
                return f(*args, **kwargs)
            finally:
                end[i] = perf_counter()
                pop()

        return wrapper

    # -- reducing ----------------------------------------------------------------

    def summary(self) -> dict:
        """Per span name: calls, outermost inclusive time, self time; per layer: busy and self time."""
        n_names = len(self.names)
        layer_of = [LAYERS.index(n.split(".")[0]) for n in self.names]
        count = len(self.end)
        child = array("d", bytes(8 * count))
        # ancestor bitmask: bit k for span name k, bit n_names + l for layer l
        anc = array("Q", bytes(8 * count))
        calls = [0] * n_names
        incl = [0.0] * n_names
        self_t = [0.0] * n_names
        layer_busy = [0.0] * len(LAYERS)
        layer_self = [0.0] * len(LAYERS)
        for i in range(count):
            p = self.parent[i]
            if p >= 0:
                q = self.span_name[p]
                anc[i] = anc[p] | (1 << q) | (1 << (n_names + layer_of[q]))
                child[p] += self.end[i] - self.start[i]
        for i in range(count):
            k = self.span_name[i]
            dur = self.end[i] - self.start[i]
            calls[k] += 1
            self_t[k] += dur - child[i]
            layer_self[layer_of[k]] += dur - child[i]
            if not anc[i] >> k & 1:
                incl[k] += dur
            if not anc[i] >> (n_names + layer_of[k]) & 1:
                layer_busy[layer_of[k]] += dur
        out = {"spans": count}
        for k, name in enumerate(self.names):
            out[f"{name}.calls"] = calls[k]
            out[f"{name}.busy_s"] = incl[k]
            out[f"{name}.self_s"] = self_t[k]
        for l, layer in enumerate(LAYERS):
            out[f"{layer}.busy_s"] = layer_busy[l]
            out[f"{layer}.self_s"] = layer_self[l]
        return out


# -- exact counters, recomputed from outside once the timed section is over ----------


def _hit_ratio(*cached) -> float:
    hits = sum(f.cache_info().hits for f in cached)
    misses = sum(f.cache_info().misses for f in cached)
    return hits / (hits + misses) if hits + misses else 0.0


def counters(workload: str, instances: list, calls: dict) -> dict:
    """Counts that do not depend on timing, read after the timed section.

    Cache figures are read first, before anything here can touch a cache.
    """
    ce, oracle, wedge, partitions = (_module(m) for m in ("charactereval", "oracle", "wedge", "partitions"))
    poly_calls = calls.get("wedge.chamber_polynomial.calls", 0)
    out = {
        "charactereval.cache_hit_ratio": _hit_ratio(ce._disc_sum, ce._connected_simple),
        "wedge.chamber_polynomial.hit_ratio": 1 - len(wedge._POLY_CACHE) / poly_calls if poly_calls else 0.0,
        "wedge.poly_terms": sum(len(p.terms) for p in wedge._POLY_CACHE.values()),
    }

    pair_checks, tuple_classes, patterns = 0, {}, {}
    for inst in instances if workload in ("routes", "chamber") else ():
        mu, nu, (p, q, r) = tuple(inst["mu"]), tuple(inst["nu"]), inst["pqr"]
        ch = wedge.chamber_of(mu, nu)
        patterns[(inst.get("kind", "mixed"), p, q, r, ch.key())] = len(wedge.commutation_patterns(ch))
        if workload == "routes":
            d = sum(mu)
            tuple_classes[(d, p, q, r)] = n = len(oracle._tuple_classes(d, p, q, r, "smaller"))
            pair_checks += factorial(d) // partitions.centralizer_size(mu) * n
    out["oracle.pair_checks"] = pair_checks
    out["oracle.tuple_classes"] = sum(tuple_classes.values())
    out["wedge.patterns"] = sum(patterns.values())
    return out
