"""Per-layer tracing from outside the package.

Each layer is one sidonkit module.  Its public functions and classes are
wrapped at the name bindings through which *other* modules, and the
benchmark, reach them, so calls inside a module stay untouched.  Every
wrapped call records a span (id, name, start, end, parent, query) in
memory; a layer's self time is its spans' time minus the time covered
by their child spans.  Counters are read off arguments and return
values the wrappers already see.
"""

from __future__ import annotations

import functools
import inspect
import json
import sys
import time
from collections import Counter, defaultdict

LAYERS = ("cli", "search", "planes3", "sparse", "dense", "incidence", "sidon",
          "quadforms", "pell", "groups", "fields")

# Leaf helpers left unwrapped: one call per group element (or per element
# per automorphism tried), so a wrapper would cost more than the call.
UNWRAPPED = {"GroupElement", "endo_apply"}

# recover_constructions imports these at call time from their own modules,
# so they are wrapped at those bindings too.
CALL_TIME_IMPORTS = {"dense": ("construct_dense",),
                     "sidon": ("affine_equivalent", "is_sidon")}

# FieldExtension methods that dense calls, wrapped on the class itself.
METHODS = {"fields": {"FieldExtension": ("dlog", "trace_to_base")}}


class _ClassProxy:
    """Stands in for a class at a binding: timed construction, and
    isinstance and attribute access forwarded to the class."""

    def __init__(self, cls, construct):
        self.__wrapped__ = cls
        self._construct = construct

    def __call__(self, *args, **kwargs):
        return self._construct(*args, **kwargs)

    def __getattr__(self, attr):
        return getattr(self.__wrapped__, attr)

    def __instancecheck__(self, obj):
        return isinstance(obj, self.__wrapped__)


class Tracer:
    def __init__(self):
        self.spans = []             # (id, name, start, end, parent, query)
        self.stack = []             # [span id, time covered by children]
        self.self_s = defaultdict(float)
        self.calls = Counter()
        self.counts = Counter()
        self.query = None
        self._next_id = 0
        self._installed = []        # (owner, attribute, original)

    # -------------------------------------------------------------- spans

    def _enter(self):
        sid = self._next_id
        self._next_id += 1
        self.stack.append([sid, 0.0])
        return sid, time.perf_counter()

    def _exit(self, name, sid, t0):
        t1 = time.perf_counter()
        frame = self.stack.pop()
        dur = t1 - t0
        self.self_s[name] += dur - frame[1]
        self.calls[name] += 1
        parent = self.stack[-1] if self.stack else None
        if parent is not None:
            parent[1] += dur
        self.spans.append((sid, name, t0, t1, parent and parent[0], self.query))

    def _wrap_function(self, name, fn):
        count = COUNTERS.get(name)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            sid, t0 = self._enter()
            try:
                result = fn(*args, **kwargs)
            except BaseException as exc:
                self._exit(name, sid, t0)
                if (type(exc).__name__ == "BudgetExceeded"
                        and not getattr(exc, "_traced", False)):
                    exc._traced = True
                    self.counts["search.budget_exhausted"] += 1
                raise
            self._exit(name, sid, t0)
            if count is not None:
                count(self.counts, args, kwargs, result)
            return result

        return traced

    def _wrap_generator(self, name, fn):
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            it = fn(*args, **kwargs)
            while True:
                sid, t0 = self._enter()
                try:
                    item = next(it)
                except StopIteration:
                    self._exit(name, sid, t0)
                    return
                self._exit(name, sid, t0)
                self.counts[name + "_yielded"] += 1
                yield item

        return traced

    def wrap(self, layer, attr, obj):
        name = f"{layer}.{attr}"
        if inspect.isclass(obj):
            return _ClassProxy(obj, self._wrap_function(name, obj))
        if inspect.isgeneratorfunction(obj):
            return self._wrap_generator(name, obj)
        return self._wrap_function(name, obj)

    # ----------------------------------------------------------- install

    def install(self, api):
        """Wrap every cross-module binding of the layers, plus `api`."""
        mods = {layer: sys.modules[f"sidonkit.{layer}"] for layer in LAYERS
                if f"sidonkit.{layer}" in sys.modules}
        wrappers = {}

        def wrapped(obj):
            key = id(obj)
            if key not in wrappers:
                layer = obj.__module__.rpartition(".")[2]
                wrappers[key] = self.wrap(layer, obj.__name__, obj)
            return wrappers[key]

        def patch(owner, attr, obj):
            self._installed.append((owner, attr, obj))
            setattr(owner, attr, wrapped(obj))

        for mod in mods.values():
            for attr, obj in list(vars(mod).items()):
                if _traceable(attr, obj, mods) and obj.__module__ != mod.__name__:
                    patch(mod, attr, obj)
        for layer, names in CALL_TIME_IMPORTS.items():
            for attr in names:
                patch(mods[layer], attr, getattr(mods[layer], attr))
        for attr, obj in list(vars(api).items()):
            if _traceable(attr, obj, mods):
                patch(api, attr, obj)
        for layer, classes in METHODS.items():
            for cls_name, methods in classes.items():
                cls = getattr(mods[layer], cls_name)
                for meth in methods:
                    self._installed.append((cls, meth, cls.__dict__[meth]))
                    setattr(cls, meth, self._wrap_function(
                        f"{layer}.{cls_name}.{meth}", cls.__dict__[meth]))

    def uninstall(self):
        for owner, attr, obj in reversed(self._installed):
            setattr(owner, attr, obj)
        self._installed.clear()

    # ------------------------------------------------------------ output

    def layer_self_s(self):
        out = defaultdict(float)
        for name, s in self.self_s.items():
            out[name.partition(".")[0]] += s
        return out

    def metrics(self, wall_s):
        """Per-layer metrics named <layer>.<metric>."""
        s, n, c = self.self_s, self.calls, self.counts
        layer = self.layer_self_s()

        def total(prefix, table):
            return sum(v for k, v in table.items() if k.startswith(prefix))

        walker_s = s["search.max_sidon"] + s["search.extend_sidon"]
        order = c["sidon.order_scanned"]
        pairs = c["sidon.pairs"]
        m = {
            "search.self_s": layer["search"],
            "search.nodes": c["search.nodes"],
            "search.nodes_per_s": c["search.nodes"] / walker_s if walker_s else 0.0,
            "search.budget_exhausted": c["search.budget_exhausted"],
            "sidon.self_s": layer["sidon"],
            "sidon.is_sidon_s": s["sidon.is_sidon"],
            "sidon.is_sidon_calls": n["sidon.is_sidon"],
            "sidon.order_scanned": order,
            "sidon.useful_ratio": pairs / (pairs + order) if order else 0.0,
            "sidon.affine_s": s["sidon.affine_equivalent"],
            "sidon.affine_inconclusive": c["sidon.affine_inconclusive"],
            "sidon.cover_s": s["sidon.subgroup_union_cover"],
            "groups.self_s": layer["groups"],
            "groups.automorphisms_yielded": c["groups.automorphisms_yielded"],
            "groups.presentation_s": s["groups.GroupPresentation"],
            "fields.self_s": layer["fields"],
            "fields.extension_s": total("fields.FieldExtension", s),
            "fields.extension_calls": total("fields.FieldExtension", n),
            "dense.self_s": layer["dense"],
            "dense.calls": total("dense.", n),
            "incidence.self_s": layer["incidence"],
            "incidence.incidences": c["incidence.incidences"],
            "planes3.self_s": layer["planes3"],
            "planes3.calls": total("planes3.", n),
            "quadforms.self_s": layer["quadforms"],
            "quadforms.class_number": c["quadforms.class_number"],
            "sparse.self_s": layer["sparse"],
            "sparse.pairs_scanned": c["sparse.pairs_scanned"],
            "pell.self_s": layer["pell"],
            "cli.self_s": layer["cli"],
            "cli.bytes_out": c["cli.bytes_out"],
            "bench.self_s": wall_s - sum(layer.values()),
            "trace.wall_s": wall_s,
        }
        return m

    def write_spans(self, path):
        with open(path, "w") as fh:
            for span in self.spans:
                fh.write(json.dumps(span) + "\n")


def _traceable(attr, obj, mods):
    if attr.startswith("_") or attr in UNWRAPPED:
        return False
    if not (inspect.isfunction(obj) or inspect.isclass(obj)):
        return False
    if inspect.isclass(obj) and issubclass(obj, BaseException):
        return False
    owner = getattr(obj, "__module__", "")
    return owner.startswith("sidonkit.") and owner.rpartition(".")[2] in mods


# ------------------------------------------------------------------ counters

def _nodes(counts, args, kwargs, result):
    counts["search.nodes"] += result.nodes
    counts["search.budget_exhausted"] += not result.complete


def _is_sidon(counts, args, kwargs, report):
    k = report.size
    counts["sidon.order_scanned"] += args[0].order
    counts["sidon.pairs"] += k * (k - 1)


def _affine(counts, args, kwargs, result):
    counts["sidon.affine_inconclusive"] += not result.conclusive


def _develop(counts, args, kwargs, result):
    counts["incidence.incidences"] += args[0].order * len(args[1])


def _class_group(counts, args, kwargs, cg):
    counts["quadforms.class_number"] += cg.h


def _framework(counts, args, kwargs, result):
    counts["sparse.pairs_scanned"] += result.details["pairs_scanned"]


def _cli_main(counts, args, kwargs, code):
    counts["cli.bytes_out"] += sys.stdout.tell()


COUNTERS = {
    "search.max_sidon": _nodes,
    "search.extend_sidon": _nodes,
    "sidon.is_sidon": _is_sidon,
    "sidon.affine_equivalent": _affine,
    "incidence.develop": _develop,
    "quadforms.ClassGroup": _class_group,
    "sparse.framework_build": _framework,
    "cli.main": _cli_main,
}
